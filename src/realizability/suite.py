"""The twelve acceptance checks, shared by the test suite and the CLI.

Each criterion function returns a CriterionResult.  Its `_criterion`
decorator enters its name in `NAMES` under its index, so a caller can
choose criteria before any of them runs.
run_all executes the chosen ones in order, reusing the certified-process
list that criterion 6 inherits from criterion 5.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .bamodels import Atomless, PowerFinite, brute_check, model_check
from .corpus import (
    exhaustive_formulas_height2, formula_corpus, horn_corpus, process_corpus,
    random_bterm,
)
from .dinfty import (
    arrow, bottom, denote, denote_formula, elem, eq_at, leq, level_size,
    phi_tbl, psi_tbl, seq_check, tbl_join, tbl_leq, term_search, theta, top,
    val,
)
from .formulas import (
    Forall, HornKind, Impl, Neq, ONE, Or, Var, ZERO, bot, classify_horn,
    eval_formula_01, forall_many, free_vars, tbool_equations,
)
from .lcterms import (
    App, CC, Gamma, Kont, LVar, Lam, Process, SEmpty, SPush, lc_alpha_eq,
)
from .machine import step
from .pole import (
    PoleConfig, canonical_falsity_stacks, constraint_check, in_pole_limit,
    realizes_bounded,
)
from .typecheck import (
    Derivation, Judgement, TypingError, check_derivation, eq_elim_derivation,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    elapsed: float

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] criterion {self.index:2d} {self.name}: "
                f"{self.detail} ({self.elapsed:.1f}s)")


NAMES: dict[int, str] = {}


def _criterion(index: int, name: str):
    """Register `name` for `index` in NAMES, and make the decorated check,
    which returns (ok, detail), return its timed CriterionResult."""
    NAMES[index] = name

    def timed(check: Callable[..., tuple[bool, str]]):
        def criterion(*args) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                ok, detail = check(*args)
            except Exception as e:  # a crash is a failure, not an abort
                ok, detail = False, f"exception: {e!r}"
            return CriterionResult(index, name, ok, detail,
                                   time.perf_counter() - t0)
        return criterion
    return timed


# -- 1: machine rule table and determinism ---------------------------------

def _applicable_rules(p: Process) -> list[str]:
    out = []
    if isinstance(p.term, App):
        out.append("Push")
    if isinstance(p.term, Lam) and isinstance(p.stack, SPush):
        out.append("Grab")
    if p.term == CC and isinstance(p.stack, SPush):
        out.append("Save")
    if isinstance(p.term, Kont) and isinstance(p.stack, SPush):
        out.append("Restore")
    return out


@_criterion(1, "machine rule table")
def criterion_1():
    ident = Lam("x", LVar("x"))
    pi = SPush(Gamma(bot()), SEmpty())
    pi2 = SEmpty()
    units = [
        (Process(App(ident, CC), pi),
         (Process(ident, SPush(CC, pi)), "Push")),
        (Process(ident, SPush(CC, pi)),
         (Process(CC, pi), "Grab")),
        (Process(CC, SPush(ident, pi)),
         (Process(ident, SPush(Kont(pi), pi)), "Save")),
        (Process(Kont(pi2), SPush(ident, pi)),
         (Process(ident, pi2), "Restore")),
    ]
    for p, want in units:
        if step(p) != want:
            return False, f"unit transition mismatch on {p!r}"
    procs = process_corpus(500, seed=11)
    for p in procs:
        rules = _applicable_rules(p)
        if len(rules) > 1:
            return False, f"nondeterministic dispatch on {p!r}"
        s = step(p)
        if (s is None) != (not rules):
            return False, f"applicability mismatch on {p!r}"
        if s is not None and s[1] != rules[0]:
            return False, f"rule name mismatch on {p!r}"
    return True, "4 unit transitions, 500-process determinism"


# -- 2: Horn transfer ------------------------------------------------------

@_criterion(2, "Horn transfer")
def criterion_2():
    clauses = horn_corpus(200, seed=23)
    specs = (PowerFinite(2), PowerFinite(3), Atomless())
    for a in clauses:
        assert classify_horn(a) is not HornKind.NOT_HORN
        t01 = eval_formula_01(a)
        for spec in specs:
            if model_check(a, spec) != t01:
                return False, f"transfer failed on {a!r} in {spec}"
    return True, "200 Horn clauses x 3 algebras, zero discrepancies"


# -- 3: model checker vs brute force ---------------------------------------

@_criterion(3, "model checker oracle equivalence")
def criterion_3():
    formulas = formula_corpus(200, seed=37, height=3, max_qdepth=3)
    for a in formulas:
        for k in (1, 2, 3):
            if model_check(a, PowerFinite(k)) != brute_check(a, k):
                return False, f"disagreement on {a!r} at {k} atoms"
    return True, "200 formulas x 3 algebras, zero discrepancies"


# -- 4: background-theory realizability ------------------------------------

@_criterion(4, "background-theory realizability")
def criterion_4():
    ident = Lam("x", LVar("x"))
    cfg = PoleConfig()
    for a in tbool_equations():
        rep = realizes_bounded(ident, a, cfg)
        if not rep.clean:
            return False, f"identity fails on axiom {a!r}"
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        vars = ("z", "w")[:rng.randrange(3)]
        a = forall_many(vars, Neq(random_bterm(rng, vars),
                                  random_bterm(rng, vars)))
        if free_vars(a) or not eval_formula_01(a):
            continue
        checked += 1
        if canonical_falsity_stacks(a) != []:
            return False, f"nonempty falsity stacks for true inequation {a!r}"
    return True, (f"{len(tbool_equations())} axioms realized by the "
                  f"identity; {checked} true inequations with empty stacks")


# -- 5/6: tagged-instruction realizability and its soundness check ---------

def _criterion_5_run(collect: list[Process] | None = None):
    cfg = PoleConfig(k_max=32)
    corpus = exhaustive_formulas_height2()
    corpus += [a for a in formula_corpus(130, seed=43, height=3, max_qdepth=3)
               if not free_vars(a)][:100]
    n_stacks = 0
    for a in corpus:
        rep = realizes_bounded(Gamma(a), a, cfg)
        if not rep.clean:
            return False, f"gamma does not realize {a!r}"
        for pi, k in rep.results:
            n_stacks += 1
            if collect is not None and k is not None:
                collect.append(Process(Gamma(a), pi))
    return True, f"{len(corpus)} formulas, {n_stacks} stacks, all clean"


criterion_5 = _criterion(5, "tagged-instruction realizability")(
    _criterion_5_run)


@_criterion(6, "certified-process constraint soundness")
def criterion_6(certified: list[Process] | None = None):
    procs = certified
    if procs is None:
        procs = []
        ok, detail = _criterion_5_run(procs)
        if not ok:
            return False, f"prerequisite failed: {detail}"
    for p in procs:
        v = constraint_check(p)
        if v.is_refuted:
            return False, f"refuted constraint for certified {p!r}"
    return True, f"{len(procs)} certified processes, none refuted"


# -- 7: hand-derived pole values -------------------------------------------

@_criterion(7, "hand-derived pole values")
def criterion_7():
    cfg = PoleConfig(k_max=32)
    omega = SEmpty()
    p1 = Process(Gamma(bot()), omega)
    if in_pole_limit(p1, cfg) != 1:
        return False, "entry level of the false-head instruction is not 1"
    stacks = [omega, SPush(Gamma(bot()), omega),
              SPush(Lam("x", LVar("x")), omega)]
    for pi in stacks:
        if in_pole_limit(Process(Gamma(Neq(ZERO, ONE)), pi), cfg) is not None:
            return False, "true inequation instruction entered the pole"
    chained = Process(Gamma(Impl(bot(), bot())),
                      SPush(Gamma(bot()), omega))
    if in_pole_limit(chained, cfg) != 2:
        return False, "chained single-premise example does not enter at 2"
    applied = Process(App(Lam("x", LVar("x")), Gamma(bot())), omega)
    if in_pole_limit(applied, cfg) != 3:
        return False, "push/grab/instruction chain does not enter at 3"
    return True, "entry levels 1, absent, 2, 3 as derived by hand"


# -- 8: lattice sizes and laws ---------------------------------------------

@_criterion(8, "lattice sizes and laws")
def criterion_8():
    sizes = [level_size(n) for n in (0, 1, 2)]
    if sizes != [2, 3, 10]:
        return False, f"lattice sizes {sizes}"
    for n in (0, 1, 2):
        for i in range(level_size(n)):
            x = val(n, i)
            if psi_tbl(n, phi_tbl(n, x)) != x:
                return False, f"projection retract fails at rank {n}"
    for n in (0, 1):
        for i in range(level_size(n + 1)):
            f = val(n + 1, i)
            if not tbl_leq(n + 1, phi_tbl(n, psi_tbl(n, f)), f):
                return False, f"embedding inflation fails at rank {n + 1}"
    for i in range(10):
        for j in range(10):
            a, b = val(2, i), val(2, j)
            if tbl_join(2, a, b) != tbl_join(2, b, a):
                return False, "join commutativity fails"
            for k in range(10):
                c = val(2, k)
                if tbl_join(2, a, tbl_join(2, b, c)) != \
                        tbl_join(2, tbl_join(2, a, b), c):
                    return False, "join associativity fails"
        if tbl_join(2, val(2, i), val(2, i)) != val(2, i):
            return False, "join idempotence fails"
    return True, "sizes 2/3/10, projection pairs, lattice laws"


# -- 9: formula synthesis roundtrip ----------------------------------------

@_criterion(9, "synthesis roundtrip")
def criterion_9():
    count = 0
    for n in (0, 1, 2):
        for i in range(level_size(n)):
            alpha = elem(n, val(n, i))
            back = denote_formula(theta(alpha))
            if not eq_at(back, alpha, n):
                return False, f"roundtrip fails at rank {n}, index {i}"
            count += 1
    return True, f"{count} elements roundtrip exactly"


# -- 10: sequentialisability triple ----------------------------------------

@_criterion(10, "sequentialisability")
def criterion_10():
    s1 = seq_check(arrow(top(), top()))
    if s1.status != "sequentialisable" or s1.witness is None or \
            not lc_alpha_eq(s1.witness, Lam("x", LVar("x"))):
        return False, f"identity arrow: {s1.status}, witness {s1.witness!r}"
    s2 = seq_check(top())
    if s2.status != "not-sequentialisable":
        return False, f"top: {s2.status}"
    peirce = arrow(arrow(arrow(top(), top()), top()), top())
    s3 = seq_check(peirce)
    if s3.status != "sequentialisable" or s3.witness != CC:
        return False, f"control pattern: {s3.status}, witness {s3.witness!r}"
    for n in (0, 1):
        for i in range(level_size(n)):
            alpha = elem(n, val(n, i))
            sv = seq_check(alpha)
            w = term_search(alpha, size_budget=5)
            if w is not None and sv.status == "not-sequentialisable":
                return False, f"contradiction at rank {n}, index {i}"
    return True, "triple plus rank <= 1 consistency sweep"


# -- 11: solvability spot checks -------------------------------------------

@_criterion(11, "solvability")
def criterion_11():
    ident = denote(Lam("x", LVar("x")))
    if not leq(bottom(), ident, 2) or eq_at(ident, bottom(), 2):
        return False, "identity does not denote strictly above bottom"
    w = Lam("x", App(LVar("x"), LVar("x")))
    omega = denote(App(w, w))
    if not eq_at(omega, bottom(), 2):
        return False, "the looping term does not denote bottom"
    return True, "identity > bottom, loop = bottom at ranks <= 2"


# -- 12: typing ------------------------------------------------------------

@_criterion(12, "typing")
def criterion_12():
    a_f = Neq(ZERO, ONE)
    ident = Derivation(
        "Abs",
        (Derivation("Axiom", (),
                    Judgement((("x", a_f),), LVar("x"), a_f)),),
        Judgement((), Lam("x", LVar("x")), Impl(a_f, a_f)))
    check_derivation(ident)
    peirce_t = Impl(Impl(Impl(a_f, bot()), a_f), a_f)
    check_derivation(Derivation(
        "Peirce", (), Judgement((), CC, peirce_t)))
    base = Derivation("Axiom", (), Judgement(
        (("y", Neq(ONE, ZERO)),), LVar("y"), Neq(ONE, ZERO)))
    lemma = eq_elim_derivation(base, "z", ONE, Or(ONE, ZERO),
                               Neq(Var("z"), ZERO))
    check_derivation(lemma)
    bad = Derivation(
        "ForallIntro",
        (Derivation("Axiom", (), Judgement(
            (("y", Neq(Var("z"), ZERO)),), LVar("y"),
            Neq(Var("z"), ZERO))),),
        Judgement((("y", Neq(Var("z"), ZERO)),), LVar("y"),
                  Forall("z", Neq(Var("z"), ZERO))))
    try:
        check_derivation(bad)
        return False, "freshness violation was accepted"
    except TypingError as e:
        if "free in the context" not in str(e):
            return False, f"wrong diagnostic: {e}"
    return True, "macro derivation, axioms accepted; freshness rejected"


def run_all(indices=tuple(NAMES)) -> list[CriterionResult]:
    """The given criteria in index order.  Criterion 6 reuses the
    certified processes of criterion 5 when both run, and runs criterion
    5's pass itself otherwise."""
    certified: list[Process] | None = [] if 5 in indices else None
    shared = {5: lambda: criterion_5(certified),
              6: lambda: criterion_6(certified)}
    return [shared[i]() if i in shared else globals()[f"criterion_{i}"]()
            for i in sorted(indices)]
