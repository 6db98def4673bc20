"""The names and call shapes the benchmark harness in `perfbench/` relies on.

`perfbench/tracer.py` rebinds package functions by name and builds pole
configurations by keyword, `perfbench/run.py` clears the caches it finds
among the package's module attributes, and `perfbench/workloads.py` calls
the package with fixed argument shapes, so renaming or deleting any of
them breaks the benchmark run without failing anything else.  This
imports the tracer and the runner as they are and checks each of those
names and shapes cheaply.
"""

import importlib.util
from pathlib import Path

from realizability import bamodels, dinfty, formulas, lcterms, pole, syntax

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _harness(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _harness("tracer")


def test_cache_clearers_find_the_minterm_prefixes():
    # run.py clears every package cache before a pass; a cache it did not
    # find would carry theta's prefixes from one pass into the next
    clearers = _harness("run")._cache_clearers()
    assert formulas._minterm_prefixes.cache_clear in clearers
    assert dinfty._selcode.cache_clear in clearers
    assert dinfty.level.cache_clear in clearers
    assert dinfty._candidates.cache_clear in clearers
    assert dinfty._matrices.cache_clear in clearers


def test_traced_names_resolve():
    tracer = _tracer()
    for owner, attr, *_ in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_call_shapes_the_harness_uses():
    tracer = _tracer()
    assert pole.PoleConfig(k_max=1, memo={}).k_max == 1
    assert tracer.Tracer().pole_config(k_max=1).k_max == 1
    A = syntax.parse_formula("forall z. forall w. z /\\ w == w /\\ z")
    assert bamodels.valid_all_bas(A, bamodels.DEFAULT_FAMILY).is_valid
    assert bamodels.TheoryOracle(bamodels.DEFAULT_FAMILY).membership(A)
    ident = lcterms.Lam("x", lcterms.LVar("x"))
    rep = pole.realizes_bounded(ident, A, pole.PoleConfig(k_max=4), depth=2)
    assert rep.clean
    # the lattice handlers and their answer checks
    alpha = dinfty.elem(1, dinfty.val(1, 1))
    assert lcterms.lc_alpha_eq(dinfty.term_search(alpha, 6), ident)
    sv = dinfty.seq_check(alpha, family=bamodels.DEFAULT_FAMILY)
    assert sv.status == "sequentialisable"
    assert dinfty.leq(alpha, dinfty.denote(sv.witness), 2)
    text = syntax.print_formula(dinfty.theta(alpha))
    back = dinfty.denote_formula(syntax.parse_formula(text))
    assert dinfty.eq_at(back, alpha, 1)


def test_traced_pole_counters_move():
    # the traced run's pole.* and formulas.* layer metrics read these
    # counters; a pole that stopped calling in_pole, the memo, decompose
    # or subst_formula would report them as 0
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        for text in ("g{_|_ -> _|_} * g{_|_} . []",
                     "g{forall z. ((z != 0 -> _|_) -> _|_)} * g{_|_} . []"):
            p = syntax.parse_process(text)
            assert pole.in_pole_limit(p, tracer.pole_config(k_max=4)) == 2
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in ("pole.in_pole.calls", "formulas.decompose.calls",
                 "formulas.subst_formula.calls"):
        assert summary["counts"][name] > 0, name
    assert summary["memo_lookups"] > 0


def test_traced_validity_spans_move():
    # the traced run's bamodels.* layer metrics read these spans, so
    # valid_all_bas must keep calling its parts by these names; it sweeps
    # the family with one compiled check, whose refutation is the trace,
    # and never calls model_check, on refutations either
    A = dinfty.theta(dinfty.elem(3, dinfty.val(3, 33481)))
    B = syntax.parse_formula("forall z. (z != 0 -> z \\/ ~z != 0)")
    C = syntax.parse_formula("forall z. (z != 0 -> z != 1)")
    for sentence, status in ((A, "unknown"), (B, "unknown"), (C, "refuted")):
        tracer = _tracer().Tracer()
        tracer.install()
        try:
            assert bamodels.valid_all_bas(sentence).status == status
        finally:
            tracer.uninstall()
        calls = tracer.summary()["calls"]
        for name in ("bamodels.valid_all_bas", "bamodels.is_prop_tautology"):
            assert calls.get(name, 0) > 0, name
        assert calls.get("bamodels.model_check.finite", 0) == 0


def test_traced_seq_check_spans_valid_all_bas():
    # the lattice workload's bamodels.valid_all_bas metrics read this span,
    # so seq_check must hand theta to the validity layer by that name
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        dinfty.seq_check(dinfty.elem(3, dinfty.val(3, 33481)))
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"].get("bamodels.valid_all_bas", 0) >= 1
