from realizability.corpus import (
    exhaustive_formulas_height2, formula_corpus, horn_corpus, process_corpus,
)
from realizability.formulas import (
    Forall, HornKind, Impl, Neq, classify_horn, free_vars,
)


def test_same_seed_same_corpus():
    assert formula_corpus(30, seed=4) == formula_corpus(30, seed=4)
    assert process_corpus(30, seed=4) == process_corpus(30, seed=4)


def test_formula_corpus_mixes_horn_kinds():
    kinds = {classify_horn(a) for a in formula_corpus(200, seed=2)
             if not free_vars(a)}
    assert HornKind.NOT_HORN in kinds
    assert kinds & {HornKind.DEFINITE, HornKind.GOAL}


def test_horn_corpus_is_horn():
    for a in horn_corpus(100, seed=12):
        assert classify_horn(a) != HornKind.NOT_HORN


def height(A) -> int:
    """Tree height with inequation leaves at 0."""
    if isinstance(A, Neq):
        return 0
    if isinstance(A, Impl):
        return 1 + max(height(A.ante), height(A.cons))
    assert isinstance(A, Forall)
    return 1 + height(A.body)


def test_exhaustive_height2_bounded():
    forms = exhaustive_formulas_height2()
    assert len(forms) == len(set(forms))
    for a in forms:
        assert height(a) <= 2
        assert not free_vars(a)
