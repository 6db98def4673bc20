"""Tagged lambda calculus, its abstract machine, Boolean-algebra model
checking, a bounded pole, a finite-rank lattice model and a typing checker."""

from .formulas import (
    And, BTerm, Forall, Formula, Impl, Neq, Not, ONE, Or, UsageError, Var,
    ZERO, Zero, One, alpha_eq, bot, canon, classify_horn, conj, conj_many,
    decompose, disj, eq, eval_formula_01, eval_term_01, exists, forall_many,
    free_vars, subst_formula, tbool_axioms, tbool_equations, term_vars,
)
from .lcterms import (
    App, CC, Cc, EMPTY, Eta, Gamma, Kont, Lam, LVar, LcTerm, Process,
    SEmpty, SPush, StackT, Zeta, canon_process, canon_term, constraint_of,
    free_lvars, is_proof_like, lc_alpha_eq, proc_alpha_eq,
    stack_of, stack_to_list, subst_lc,
)
from .machine import Trace, evaluate, step
from .syntax import (
    ParseError, parse_bterm, parse_formula, parse_lcterm, parse_process,
    parse_stack, print_bterm, print_formula, print_lcterm, print_process,
    print_stack,
)
from .bamodels import (
    Atomless, BASpec, DEFAULT_FAMILY, GuardExceeded, Justification,
    PowerFinite, TheoryOracle, Verdict, brute_check, is_prop_tautology,
    model_check, valid_all_bas,
)
from .pole import (
    PoleConfig, TestReport, canonical_falsity_stacks, constraint_check,
    in_pole, in_pole_limit, realizes_bounded,
)
from .dinfty import (
    DElem, RankCapError, SeqVerdict, app, arrow, bottom, cc_elem, denote,
    denote_formula, elem, eq_at, idx_of, join, lam, leq, level, level_size,
    phi_tbl, psi_tbl, seq_check, term_search, theta, top, val,
)
from .typecheck import (
    Context, Derivation, Judgement, RULES, TypingError, check_derivation,
    eq_elim_derivation, eq_elim_macro, judgement_eq, parse_derivation,
    weaken,
)
