import itertools
import os

import pytest

from realizability.dinfty import (
    DElem, FinLattice, RankCapError, app, arrow, bottom, cc_elem, denote,
    denote_formula, elem, eq_at, idx_of, join, lam, leq, level, level_size,
    phi_tbl, psi_tbl, rank_cap, seq_check, term_search, theta, top, val,
)
from realizability.bamodels import valid_all_bas
from realizability.lcterms import CC, Lam, LVar, App
from realizability.syntax import parse_lcterm, print_formula


def test_level_sizes():
    assert level_size(0) == 2
    assert level_size(1) == 3
    assert level_size(2) == 10


def test_levels_are_sorted_with_bottom_and_top():
    for n in (0, 1, 2):
        vs = level(n)
        assert list(vs) == sorted(vs)
        lat = FinLattice.at(n)
        assert idx_of(n, vs[lat.bottom]) == 0
        assert idx_of(n, vs[lat.top]) == len(vs) - 1


def test_monotone_tables_only():
    lat = FinLattice.at(1)
    for f in level(2):
        for i, j in itertools.product(range(3), repeat=2):
            if lat.leq(i, j):
                assert lat.leq(f[i], f[j])


def test_lattice_laws_rank_2():
    lat = FinLattice.at(2)
    for a, b in itertools.product(range(level_size(2)), repeat=2):
        j = lat.join(a, b)
        assert lat.leq(a, j) and lat.leq(b, j)
        m = lat.meet(a, b)
        assert lat.leq(m, a) and lat.leq(m, b)
        assert lat.join(a, a) == a


def test_projection_pair_laws():
    for n in (0, 1):
        for a in level(n):
            assert psi_tbl(n, phi_tbl(n, a)) == a
    for n in (1, 2):
        lat = FinLattice.at(n)
        for f in level(n):
            low = phi_tbl(n - 1, psi_tbl(n - 1, f))
            assert lat.leq(idx_of(n, low), idx_of(n, f))


def test_projections_monotone():
    lat0, lat1 = FinLattice.at(0), FinLattice.at(1)
    for i, j in itertools.product(range(level_size(0)), repeat=2):
        if lat0.leq(i, j):
            assert lat1.leq(idx_of(1, phi_tbl(0, val(0, i))),
                            idx_of(1, phi_tbl(0, val(0, j))))
    for i, j in itertools.product(range(level_size(1)), repeat=2):
        if lat1.leq(i, j):
            assert lat0.leq(idx_of(0, psi_tbl(0, val(1, i))),
                            idx_of(0, psi_tbl(0, val(1, j))))


def test_elem_components_cohere():
    # components of a packaged element project onto each other
    for i in range(level_size(1)):
        x = elem(1, val(1, i))
        assert psi_tbl(1, x.component(2)) == x.component(1)
        assert psi_tbl(0, x.component(1)) == x.component(0)


def test_embed_project_roundtrip():
    for i in range(level_size(1)):
        v = val(1, i)
        assert elem(1, v).component(1) == v


def test_bottom_top_join():
    assert leq(bottom(), top(), 2)
    x = elem(1, val(1, 1))
    assert eq_at(join(bottom(), x), x, 2)
    assert eq_at(join(x, top()), top(), 2)


def test_arrow_application_law():
    # applying arrow(x, y) to anything >= x yields at least y; application
    # components are approximations, so compare at the working rank only
    lat = FinLattice.at(1)
    for i, j in itertools.product(range(level_size(1)), repeat=2):
        x, y = elem(1, val(1, i)), elem(1, val(1, j))
        r = app(arrow(x, y), x)
        assert lat.leq(idx_of(1, y.component(1)), idx_of(1, r.component(1)))
        if i > 0:
            assert app(arrow(x, y), bottom()).component(1) == val(1, 0)


def test_lam_app_roundtrip():
    f = lam(lambda v: v)
    x = elem(1, val(1, 1))
    assert eq_at(app(f, x), x, 1)


def test_cc_nontrivial_and_monotone():
    c0 = cc_elem(0)
    assert not eq_at(c0, bottom(), 1)
    assert c0.tag == "cc-truncated"


def test_rank_cap(monkeypatch):
    monkeypatch.setenv("REALIZ_RANK_CAP", "1")
    assert rank_cap() == 1
    with pytest.raises(RankCapError):
        elem(0, 0).component(2)


def test_denote_identity_and_omega():
    i = denote(parse_lcterm("\\x. x"))
    for n in (0, 1, 2):
        assert leq(bottom(), i, n)
    assert not eq_at(i, bottom(), 2)
    omega = denote(parse_lcterm("(\\x. x x) (\\x. x x)"))
    assert eq_at(omega, bottom(), 2)


def test_denote_application():
    ki = denote(parse_lcterm("(\\x. \\y. y) cc"))
    ident = denote(parse_lcterm("\\y. y"))
    assert eq_at(ki, ident, 1)


def _control_free(t) -> bool:
    from realizability.lcterms import App as TApp, Cc as TCc, Kont, Lam as TLam
    if isinstance(t, (TCc, Kont)):
        return False
    if isinstance(t, TApp):
        return _control_free(t.fn) and _control_free(t.arg)
    if isinstance(t, TLam):
        return _control_free(t.body)
    return True


def _proc_den(p):
    from realizability.lcterms import stack_to_list
    d = denote(p.term)
    for t in stack_to_list(p.stack):
        d = app(d, denote(t))
    return d


def test_denote_machine_compatibility():
    # control-free machine steps preserve denotation at the bottom rank
    from realizability.corpus import process_corpus
    from realizability.machine import step1
    from realizability.lcterms import stack_to_list
    from realizability.syntax import print_process

    checked = 0
    for p in process_corpus(250, seed=21):
        q = step1(p)
        parts = [p.term] + stack_to_list(p.stack)
        if q is None or not all(_control_free(t) for t in parts):
            continue
        assert (_proc_den(p).component(0)
                == _proc_den(q).component(0)), print_process(p)
        checked += 1
    assert checked > 5


def test_denote_formula_shapes():
    from realizability.formulas import Neq, ONE, ZERO, Forall, Var, Impl
    # a formula denotes its refutation content: true inequations are bottom
    assert eq_at(denote_formula(Neq(ZERO, ONE)), bottom(), 1)
    assert eq_at(denote_formula(Neq(ZERO, ZERO)), top(), 1)
    a = denote_formula(Forall("z", Neq(Var("z"), ZERO)))
    assert eq_at(a, top(), 1)


def test_theta_roundtrip_rank_1():
    for i in range(level_size(1)):
        x = elem(1, val(1, i))
        A = theta(x)
        assert eq_at(denote_formula(A), x, 1), print_formula(A)


def test_theta_roundtrip_rank_2_sample():
    for i in (0, 3, 9):
        x = elem(2, val(2, i))
        assert eq_at(denote_formula(theta(x)), x, 2)


def test_term_search_finds_identity():
    t = term_search(arrow(top(), top()), size_budget=4, work_rank=1)
    assert t is not None


def test_seq_check_triple():
    s1 = seq_check(arrow(top(), top()))
    assert s1.status == "sequentialisable"
    s2 = seq_check(top())
    assert s2.status == "not-sequentialisable"
    peirce = arrow(arrow(arrow(top(), top()), top()), top())
    s3 = seq_check(peirce)
    assert s3.status == "sequentialisable"
    assert s3.witness == CC
