"""Adequacy as a cross-check: a closed typed term realizes its type.

Krivine's adequacy lemma says that if |- t : A with A closed, then t
realizes A.  Here that means the derivation passes `check_derivation` and
`realizes_bounded(t, A)` is clean over A's canonical falsity stacks.  Many
true formulas have no falsity stacks at all, so the non-vacuous checks are
counted and held to a floor.
"""

import pytest

from realizability.corpus import formula_corpus
from realizability.formulas import Impl, free_vars
from realizability.lcterms import App, CC, LVar, Lam
from realizability.pole import PoleConfig, realizes_bounded
from realizability.syntax import print_formula, print_lcterm
from realizability.typecheck import Derivation, Judgement, check_derivation

FORMULAS = formula_corpus(60, 5, height=2, max_qdepth=2)
PAIRS = [(A, B) for A in FORMULAS[:25] for B in FORMULAS[25:35]]
# 635 of the 1,000 checks below have a falsity stack; the wrong terms
# fail on 124 and 170 of the 250 pairs
NONVACUOUS_FLOOR = 600
WRONG_FLOOR = 100


def _axiom(ctx, x, A):
    return Derivation("Axiom", (), Judgement(ctx, LVar(x), A))


def _abs(ctx, x, A, premise):
    j = premise.conclusion
    return Derivation("Abs", (premise,),
                      Judgement(ctx, Lam(x, j.subject), Impl(A, j.type)))


def identity(A, B):
    """\\x. x : A -> A"""
    return _abs((), "x", A, _axiom((("x", A),), "x", A))


def k_combinator(A, B):
    """\\x. \\y. x : A -> B -> A"""
    ctx = (("x", A), ("y", B))
    return _abs((), "x", A, _abs(ctx[:1], "y", B, _axiom(ctx, "x", A)))


def peirce(A, B):
    """cc : ((A -> B) -> A) -> A"""
    return Derivation("Peirce", (),
                      Judgement((), CC, Impl(Impl(Impl(A, B), A), A)))


def modus_ponens(A, B):
    """\\f. \\x. f x : (A -> B) -> A -> B"""
    ctx = (("f", Impl(A, B)), ("x", A))
    fx = Derivation("App", (_axiom(ctx, "f", Impl(A, B)),
                            _axiom(ctx, "x", A)),
                    Judgement(ctx, App(LVar("f"), LVar("x")), B))
    return _abs((), "f", Impl(A, B), _abs(ctx[:1], "x", A, fx))


def test_typed_closed_terms_realize_their_types():
    assert not any(free_vars(A) for A in FORMULAS)
    cfg = PoleConfig(k_max=64)
    checks = nonvacuous = 0
    for build in (identity, k_combinator, peirce, modus_ponens):
        for A, B in PAIRS:
            j = check_derivation(build(A, B))
            report = realizes_bounded(j.subject, j.type, cfg)
            assert report.clean, (print_lcterm(j.subject),
                                  print_formula(j.type))
            checks += 1
            nonvacuous += bool(report.results)
    assert checks == 1000
    assert nonvacuous >= NONVACUOUS_FLOOR


@pytest.mark.parametrize("term, type_of", [
    (Lam("x", Lam("y", LVar("y"))), lambda A, B: Impl(A, Impl(B, A))),
    (Lam("x", LVar("x")), lambda A, B: Impl(Impl(Impl(A, B), A), A)),
])
def test_wrong_terms_fail_somewhere(term, type_of):
    cfg = PoleConfig(k_max=64)
    failed = sum(not realizes_bounded(term, type_of(A, B), cfg).clean
                 for A, B in PAIRS)
    assert failed >= WRONG_FLOOR
