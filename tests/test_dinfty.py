import dataclasses
import functools
import hashlib
import itertools
import math
import random
import sys

import pytest

from realizability import dinfty, formulas, lcterms
from realizability.dinfty import (
    DElem, RankCapError, app, arrow, bottom, cc_elem, denote, denote_formula,
    elem, eq_at, idx_of, join, lam, leq, level,
    level_size, phi_tbl, psi_tbl, seq_check, tbl_join, tbl_leq,
    term_search, theta, top, val,
)
from realizability.bamodels import valid_all_bas
from realizability.corpus import formula_corpus
from realizability.formulas import (
    And, Forall, Impl, Neq, Not, ONE, Or, UsageError, Var, ZERO,
    eval_formula_01, forall_many, subst_formula,
)
from realizability.lcterms import CC, Cc, Kont, Lam, LVar, App, stack_of, walk
from realizability.syntax import (
    parse_formula, parse_lcterm, print_formula, print_lcterm,
)


def test_level_sizes():
    assert level_size(0) == 2
    assert level_size(1) == 3
    assert level_size(2) == 10


def test_levels_are_sorted_with_bottom_and_top():
    for n in (0, 1, 2):
        vs = level(n)
        assert list(vs) == sorted(vs)
        order = dinfty._matrices(n)[0]
        assert all(order[0]) and all(row[-1] for row in order)


def test_level_3_is_strictly_increasing():
    # the enumeration emits tables in order; nothing sorts them afterwards
    vs = level(3)
    assert len(vs) == 120_549
    assert all(a < b for a, b in zip(vs, vs[1:]))


def _reference_level(n):
    """The rank-n tables by a depth-first walk that joins each entry's lower
    bound from the placed prefix, as the enumeration did before it counted
    states."""
    m = level_size(n - 1)
    order, joins = dinfty._matrices(n - 1)
    out, prefix = [], []

    def dfs():
        i = len(prefix)
        if i == m:
            out.append(tuple(prefix))
            return
        lo = 0
        for j in range(i):
            if order[j][i]:
                lo = joins[lo][prefix[j]]
        for c in range(m):
            if order[lo][c]:
                prefix.append(c)
                dfs()
                prefix.pop()

    dfs()
    return tuple(out)


def test_level_3_matches_the_prefix_walk():
    assert level(3) == _reference_level(3)


def test_val_unranks_the_enumeration():
    for n in (0, 1, 2):
        assert tuple(val(n, i) for i in range(level_size(n))) == level(n)
    vs = level(3)
    for i in random.Random(1).sample(range(len(vs)), 2000):
        assert val(3, i) == vs[i], i
    with pytest.raises(IndexError):
        val(3, len(vs))


def test_level_size_3_is_counted_without_listing(monkeypatch):
    def guard(fn):
        def guarded(n):
            if n == 3:
                raise AssertionError(f"{fn.__name__}(3) called")
            return fn(n)
        return guarded

    for f in (dinfty.level_size, dinfty._count, dinfty._moves):
        f.cache_clear()
    monkeypatch.setattr(dinfty, "level", guard(dinfty.level))
    monkeypatch.setattr(dinfty, "tables", guard(dinfty.tables))
    assert level_size(3) == 120_549


def test_idx_of_inverts_val():
    for n in (0, 1, 2):
        for i in range(level_size(n)):
            assert idx_of(n, val(n, i)) == i


def test_levels_match_brute_force():
    for n in (1, 2):
        m = level_size(n - 1)
        order = dinfty._matrices(n - 1)[0]
        monotone = [f for f in itertools.product(range(m), repeat=m)
                    if all(order[f[i]][f[j]]
                           for i, j in itertools.product(range(m), repeat=2)
                           if order[i][j])]
        assert level(n) == tuple(monotone)


def test_monotone_tables_only():
    order = dinfty._matrices(1)[0]
    for f in level(2):
        for i, j in itertools.product(range(3), repeat=2):
            if order[i][j]:
                assert order[f[i]][f[j]]


def test_lattice_laws_rank_2():
    size = level_size(2)
    order, joins = dinfty._matrices(2)
    for a, b in itertools.product(range(size), repeat=2):
        j = joins[a][b]
        assert order[a][j] and order[b][j]
        # greatest lower bound by scan; the lattice is finite
        m = 0
        for k in range(size):
            if order[k][a] and order[k][b] and order[m][k]:
                m = k
        assert order[m][a] and order[m][b]
        assert joins[a][a] == a


def test_join_is_least_upper_bound():
    for n in (0, 1, 2):
        order, joins = dinfty._matrices(n)
        for a, b, c in itertools.product(range(level_size(n)), repeat=3):
            above_both = order[a][c] and order[b][c]
            assert above_both == order[joins[a][b]][c]
    # rank 3 has no matrix: its tables' order and join, on a sample
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = (val(3, rng.randrange(level_size(3))) for _ in range(3))
        above_both = tbl_leq(3, x, z) and tbl_leq(3, y, z)
        assert above_both == tbl_leq(3, tbl_join(3, x, y), z)


def _reference_join(n, x, y):
    # the entry-by-entry table recursion that the join matrices replace
    if n == 0:
        return x | y
    return tuple(idx_of(n - 1, _reference_join(n - 1, val(n - 1, a),
                                               val(n - 1, b)))
                 for a, b in zip(x, y))


def test_matrices_match_the_pointwise_order_and_join():
    # each rank's order and join, read from one matrix per rank, against
    # tbl_leq and tbl_join on the tables of level(n), and against both
    # recomputed entry by entry from the rank-0 order of bits
    def leq_ref(n, x, y):
        if n == 0:
            return x <= y
        below = level(n - 1)
        return all(leq_ref(n - 1, below[a], below[b]) for a, b in zip(x, y))

    def join_ref(n, x, y):
        if n == 0:
            return x | y
        below = level(n - 1)
        return tuple(below.index(join_ref(n - 1, below[a], below[b]))
                     for a, b in zip(x, y))

    for n in (0, 1, 2):
        order, joins = dinfty._matrices(n)
        vs = level(n)
        assert len(order) == len(joins) == len(vs) == level_size(n)
        for i, x in enumerate(vs):
            for j, y in enumerate(vs):
                assert order[i][j] == tbl_leq(n, x, y) == leq_ref(n, x, y)
                assert vs[joins[i][j]] == tbl_join(n, x, y) \
                    == join_ref(n, x, y)
    with pytest.raises(RankCapError):
        dinfty._matrices(3)
    assert tuple(level_size(n) for n in range(4)) == (2, 3, 10, 120549)


def test_rank_tables_are_lru_caches():
    # perfbench/run.py clears every package lru_cache before each pass, so
    # a table kept anywhere else would carry one pass's work into the
    # next; tbl_leq and tbl_join read the matrices and keep nothing
    for f in (dinfty._matrices, dinfty._moves, dinfty._count,
              dinfty._candidates, dinfty.level, dinfty._index_map):
        assert isinstance(f, functools._lru_cache_wrapper), f
    for f in (dinfty.tbl_leq, dinfty.tbl_join):
        assert not hasattr(f, "cache_clear"), f
    module_dicts = [k for k, v in vars(dinfty).items()
                    if isinstance(v, (dict, list, set))
                    and not k.startswith("__")]
    assert module_dicts == []


def test_join_matrix_matches_reference_join():
    for n in (0, 1, 2):
        joins = dinfty._matrices(n)[1]
        for a, b in itertools.product(range(level_size(n)), repeat=2):
            x, y = val(n, a), val(n, b)
            assert val(n, joins[a][b]) == _reference_join(n, x, y)
            assert tbl_join(n, x, y) == _reference_join(n, x, y)


def test_projection_pair_laws():
    for n in (0, 1):
        for a in level(n):
            assert psi_tbl(n, phi_tbl(n, a)) == a
    for n in (1, 2):
        for f in level(n):
            low = phi_tbl(n - 1, psi_tbl(n - 1, f))
            assert tbl_leq(n, low, f)


def test_projections_monotone():
    for x, y in itertools.product(level(0), repeat=2):
        if tbl_leq(0, x, y):
            assert tbl_leq(1, phi_tbl(0, x), phi_tbl(0, y))
    for f, g in itertools.product(level(1), repeat=2):
        if tbl_leq(1, f, g):
            assert tbl_leq(0, psi_tbl(0, f), psi_tbl(0, g))


def _reference_phi(n, a):
    # the recursive projection pair that the index-cached one replaced
    if n == 0:
        return (a, a)
    out = []
    for i in range(level_size(n)):
        e = a[idx_of(n - 1, _reference_psi(n - 1, val(n, i)))]
        out.append(idx_of(n, _reference_phi(n - 1, val(n - 1, e))))
    return tuple(out)


def _reference_psi(n, f):
    if n == 0:
        return f[0]
    out = []
    for i in range(level_size(n - 1)):
        k = idx_of(n, _reference_phi(n - 1, val(n - 1, i)))
        out.append(idx_of(n - 1, _reference_psi(n - 1, val(n, f[k]))))
    return tuple(out)


def test_projections_match_reference():
    for n in (0, 1, 2):
        for a in level(n):
            assert phi_tbl(n, a) == _reference_phi(n, a), (n, a)
    for n in (0, 1):
        for f in level(n + 1):
            assert psi_tbl(n, f) == _reference_psi(n, f), (n, f)
    for i in random.Random(13).sample(range(level_size(3)), 50):
        f = val(3, i)
        assert psi_tbl(2, f) == _reference_psi(2, f), i


def test_rank_3_components_need_no_rank_3_index(monkeypatch):
    # rank-3 components and comparisons read rank-2 indices only
    index_map = dinfty._index_map

    def guarded(n):
        if n == 3:
            raise AssertionError("rank-3 index map built")
        return index_map(n)

    monkeypatch.setattr(dinfty, "_index_map", guarded)
    dinfty.phi_idx.cache_clear()
    dinfty.psi_idx.cache_clear()
    dinfty.cc_elem.cache_clear()
    c = cc_elem()
    for v in level(2):
        leq(elem(2, v), c, 3)
    x, y = val(3, 5), val(3, 7)
    assert tbl_leq(3, x, tbl_join(3, x, y))
    for text in ("\\x. x", "cc", "\\x. \\y. y x"):
        assert len(denote(parse_lcterm(text)).component(3)) == level_size(2)


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
    for i, j in itertools.product(range(level_size(1)), repeat=2):
        x, y = elem(1, val(1, i)), elem(1, val(1, j))
        r = app(arrow(x, y), x)
        assert tbl_leq(1, y.component(1), r.component(1))
        if i > 0:
            assert app(arrow(x, y), bottom()).component(1) == val(1, 0)


def test_lam_app_roundtrip():
    f = lam(lambda v: v)
    x = elem(1, val(1, 1))
    assert eq_at(app(f, x), x, 1)


def test_cc_nontrivial_and_monotone():
    c0 = cc_elem()
    assert not eq_at(c0, bottom(), 1)


def test_rank_cap():
    with pytest.raises(RankCapError, match="rank cap 3"):
        elem(0, 0).component(4)
    with pytest.raises(RankCapError, match="enumeration cap 3"):
        level(4)


def test_denote_identity_and_omega():
    i = denote(parse_lcterm("\\x. x"))
    for n in (0, 1, 2):
        assert leq(bottom(), i, n)
    assert not eq_at(i, bottom(), 2)
    omega = denote(parse_lcterm("(\\x. x x) (\\x. x x)"))
    assert eq_at(omega, bottom(), 2)


def test_denote_refuses_open_input():
    # an open k[...] entry under a binder of its own name: the stack
    # constant's expansion binds y, which would capture the entry's free y
    with pytest.raises(UsageError, match="stack entries must be closed: "
                                         "LVar\\(name='y'\\)"):
        denote(Lam("y", Kont(stack_of(LVar("y")))))
    with pytest.raises(UsageError, match="process terms must be closed"):
        denote(LVar("x"))
    with pytest.raises(UsageError, match="open instruction tag"):
        denote(parse_lcterm("\\x. g{z != 0}"))


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
    from realizability.machine import step
    from realizability.lcterms import stack_to_list
    from realizability.syntax import print_process

    checked = skipped = 0
    for p in process_corpus(250, seed=21):
        s = step(p)
        q = s[0] if s else None
        parts = [p.term] + stack_to_list(p.stack)
        if q is None or not all(_control_free(t) for t in parts):
            continue
        try:
            before, after = _proc_den(p).component(0), _proc_den(q).component(0)
        except RankCapError:
            # a rank-0 component that needs a rank above MAX_RANK
            skipped += 1
            continue
        assert before == after, print_process(p)
        checked += 1
    assert checked > 5 and skipped < checked, (checked, skipped)


def test_denote_formula_shapes():
    from realizability.formulas import Neq, ONE, ZERO, Forall, Var, Impl
    # a formula denotes its refutation content: true inequations are bottom
    assert eq_at(denote_formula(Neq(ZERO, ONE)), bottom(), 1)
    assert eq_at(denote_formula(Neq(ZERO, ZERO)), top(), 1)
    a = denote_formula(Forall("z", Neq(Var("z"), ZERO)))
    assert eq_at(a, top(), 1)


def _reference_denote_formula(A):
    # the substitution-based denotation that reading instances in an
    # environment of bits replaced
    if isinstance(A, Neq):
        return bottom() if eval_formula_01(A) else top()
    if isinstance(A, Impl):
        return arrow(_reference_denote_formula(A.ante),
                     _reference_denote_formula(A.cons))
    return join(*(_reference_denote_formula(subst_formula(A.body, [A.var], [b]))
                  for b in (ZERO, ONE)))


def test_denote_formula_matches_substitution_reference():
    sentences = formula_corpus(150, seed=3, height=3)
    # an inner binder shadows an outer one of the same name
    sentences.append(parse_formula(
        "forall z. (z != 0 -> forall z. ~z != 0) -> forall w. z /\\ w != 0"))
    for A in sentences:
        assert eq_at(denote_formula(A), _reference_denote_formula(A), 2), \
            print_formula(A)


def test_theta_roundtrip_rank_1():
    for i in range(level_size(1)):
        x = elem(1, val(1, i))
        A = theta(x)
        assert eq_at(denote_formula(A), x, 1), print_formula(A)


def test_theta_roundtrip_rank_2_sample():
    for i in (0, 3, 9):
        x = elem(2, val(2, i))
        assert eq_at(denote_formula(theta(x)), x, 2)


def _reference_theta(x):
    # the closure-based synthesis with per-minterm tables that the row-list
    # synthesis replaced
    n, v = x.home, x.component(x.home)
    if n == 0:
        return Neq(ZERO, ONE) if v == 0 else Neq(ZERO, ZERO)
    fresh = (f"u{i}" for i in itertools.count())

    def table(f, us):
        minterms = [
            functools.reduce(And, [Var(u) if b else Not(Var(u))
                                   for u, b in zip(us, bits)])
            for bits in itertools.product((0, 1), repeat=len(us)) if f(bits)]
        return functools.reduce(Or, minterms) if minterms else ZERO

    def famcode(n, g, us):
        if n == 0:
            return Neq(table(lambda bits: g(bits) == 0, us), ZERO)
        m = level_size(n - 1)
        vs = tuple(next(fresh)
                   for _ in range(max(1, math.ceil(math.log2(max(m, 2))))))

        def sel(bits):
            return min(int("".join(map(str, bits[len(us):])), 2), m - 1)

        return forall_many(vs, Impl(
            famcode(n - 1, lambda bits: val(n - 1, sel(bits)), us + vs),
            famcode(n - 1,
                    lambda bits: val(n - 1, g(bits[:len(us)])[sel(bits)]),
                    us + vs)))

    return famcode(n, lambda bits: v, ())


RANK3_SAMPLE = (0, 2863, 120548) + tuple(
    random.Random(11).sample(range(1, 120548), 9))


def test_theta_matches_reference():
    cases = [(n, i) for n in range(3) for i in range(level_size(n))]
    for n, i in cases + [(3, i) for i in RANK3_SAMPLE]:
        x = elem(n, val(n, i))
        A, ref = theta(x), _reference_theta(x)
        assert A == ref, (n, i)
        assert print_formula(A) == print_formula(ref), (n, i)


def _selector_codes(A):
    """The antecedent of each quantified implication on theta's spine of
    consequents, outermost first."""
    out = []
    while isinstance(A, (Forall, Impl)):
        if isinstance(A, Impl):
            out.append(A.ante)
            A = A.cons
        else:
            A = A.body
    return out


def test_rank3_thetas_share_their_selector_codes():
    A, B = (theta(elem(3, val(3, i))) for i in (2863, 33481))
    assert A != B
    codes = list(zip(_selector_codes(A), _selector_codes(B)))
    assert len(codes) == 3 and all(a is b for a, b in codes)


def test_theta_is_unchanged_after_its_selector_codes_are_cleared():
    x = elem(3, val(3, 111706))
    A = theta(x)
    dinfty._selcode.cache_clear()
    B = theta(x)
    assert _selector_codes(B)[0] is not _selector_codes(A)[0]
    assert B == A
    assert print_formula(B) == print_formula(A)


def test_warm_rank3_theta_builds_one_truth_table(monkeypatch):
    # seven of a rank-3 theta's eight truth tables sit in selector codes,
    # which every rank-3 theta shares; only the innermost consequent's
    # table depends on alpha
    tables = []
    original = dinfty.rows_term
    monkeypatch.setattr(dinfty, "rows_term", lambda rows, us:
                        tables.append(us) or original(rows, us))
    dinfty._selcode.cache_clear()
    theta(elem(3, val(3, 2863)))
    assert len(tables) == 8
    tables.clear()
    theta(elem(3, val(3, 33481)))
    assert len(tables) == 1 and len(tables[0]) == 7


def _reference_skeletons(size, depth, allow_cc):
    # the tuple enumerator that building terms directly replaced
    if size <= 0:
        return
    if size == 1:
        for i in range(depth):
            yield ("v", i)
        if allow_cc:
            yield ("cc",)
    if size >= 2:
        for b in _reference_skeletons(size - 1, depth + 1, allow_cc):
            yield ("l", b)
    for left in range(1, size - 1):
        for f in _reference_skeletons(left, depth, allow_cc):
            for a in _reference_skeletons(size - 1 - left, depth, allow_cc):
                yield ("a", f, a)


def _skeleton_to_term(sk, depth=0):
    if sk[0] == "v":
        return LVar(f"x{depth - 1 - sk[1]}")
    if sk[0] == "cc":
        return CC
    if sk[0] == "l":
        return Lam(f"x{depth}", _skeleton_to_term(sk[1], depth + 1))
    return App(_skeleton_to_term(sk[1], depth),
               _skeleton_to_term(sk[2], depth))


def _skeleton_uses_cc(sk):
    if sk[0] == "cc":
        return True
    if sk[0] == "l":
        return _skeleton_uses_cc(sk[1])
    if sk[0] == "a":
        return _skeleton_uses_cc(sk[1]) or _skeleton_uses_cc(sk[2])
    return False


def _reference_term_search(alpha, size_budget):
    for allow_cc in (False, True):
        for size in range(1, size_budget + 1):
            for sk in _reference_skeletons(size, 0, allow_cc):
                if allow_cc and not _skeleton_uses_cc(sk):
                    continue
                t = _skeleton_to_term(sk)
                try:
                    if leq(alpha, denote(t), 2):
                        return t
                except RankCapError:
                    continue
    return None


def test_term_enumeration_matches_skeletons():
    for allow_cc in (False, True):
        for size in range(1, 7):
            got = list(dinfty._debruijn_terms(size, 0, allow_cc))
            want = [_skeleton_to_term(sk)
                    for sk in _reference_skeletons(size, 0, allow_cc)]
            assert got == want, (size, allow_cc)


def test_term_search_matches_reference():
    for n in (0, 1, 2):
        for i in range(level_size(n)):
            alpha = elem(n, val(n, i))
            for budget in (4, 5, 6):
                assert (term_search(alpha, budget)
                        == _reference_term_search(alpha, budget)), (n, i)
    # rank-3 seq_check searches at budget 5; the upper part of the rank
    # holds the elements that no term reaches or only \x0. \x1. x1 does
    rng = random.Random(0)
    for i in (rng.sample(range(level_size(3)), 6)
              + rng.sample(range(105000, level_size(3)), 6)):
        alpha = elem(3, val(3, i))
        assert term_search(alpha, 5) == _reference_term_search(alpha, 5), i


def test_warm_term_search_denotes_nothing(monkeypatch):
    # the candidates and their denotations are built once per size and
    # shared by every alpha until the cache is cleared
    dinfty._candidates.cache_clear()
    denoted = []
    original = dinfty._denote
    monkeypatch.setattr(dinfty, "_denote",
                        lambda t: denoted.append(t) or original(t))
    assert term_search(top(), 5) is None  # builds every size of both passes
    assert len(denoted) == sum(_searched_count(size, allow_cc)
                               for allow_cc in (False, True)
                               for size in range(1, 6))
    denoted.clear()
    alpha = elem(3, val(3, 108724))
    found = term_search(alpha, 5)
    assert print_lcterm(found) == "\\x0. \\x1. x1" and denoted == []
    # cold again, the search builds only the sizes it reaches: 1 to 3
    dinfty._candidates.cache_clear()
    assert term_search(alpha, 5) == found
    assert len(denoted) == sum(_searched_count(size, False)
                               for size in range(1, 4))


def _searched_count(size, allow_cc):
    """The terms of one size that the search tries, before any is dropped."""
    return sum(1 for t in dinfty._debruijn_terms(size, 0, allow_cc)
               if not allow_cc or any(type(n) is Cc for n, _, _ in walk(t)))


def test_candidates_are_denoted_without_the_entry_check(monkeypatch):
    # _debruijn_terms builds every candidate closed, so building them walks
    # none for closedness; the public denote keeps its entry check
    checked = []
    _patch_everywhere(monkeypatch, lcterms.check_closed,
                      lambda p: checked.append(p))
    dinfty._candidates.cache_clear()
    built = [dinfty._candidates(size, allow_cc)
             for allow_cc in (False, True) for size in range(1, 7)]
    assert sum(map(len, built)) > 150 and checked == []
    denote(parse_lcterm("\\x. x"))
    assert len(checked) == 1


def test_only_seven_cc_candidates_raise_rank_cap():
    # candidates are built without their components; forcing components
    # 0-2 of every one of sizes 1-6 here means a term that raised
    # UsageError (a non-monotone abstraction body) would fail this test,
    # and the only terms that cannot be compared at rank 2 are the seven
    # cc terms whose rank-2 component needs rank 4
    dinfty._candidates.cache_clear()
    dinfty.cc_elem.cache_clear()
    buckets = {(size, allow_cc): dinfty._candidates(size, allow_cc)
               for allow_cc in (False, True) for size in range(1, 7)}
    capped = {False: [], True: []}
    for (size, allow_cc), built in buckets.items():
        assert len(built) == _searched_count(size, allow_cc)
        assert all(d._memo == {} for _, d in built), (size, allow_cc)
    for (size, allow_cc), built in buckets.items():
        for t, d in built:
            try:
                for n in range(3):
                    d.component(n)
            except RankCapError:
                capped[allow_cc].append(t)
    assert capped[False] == [] and len(capped[True]) == 7
    assert all(any(type(n) is Cc for n, _, _ in walk(t)) for t in capped[True])


def _eager_term_search(alpha, size_budget):
    """term_search as a scan that denotes every term afresh and builds its
    components at ranks 0-2 before comparing any; a term whose components
    need a rank above MAX_RANK is skipped."""
    for allow_cc in (False, True):
        for size in range(1, size_budget + 1):
            for t in dinfty._debruijn_terms(size, 0, allow_cc):
                if allow_cc and not any(type(n) is Cc for n, _, _ in walk(t)):
                    continue
                d = denote(t)
                try:
                    comps = [d.component(n) for n in range(3)]
                except RankCapError:
                    continue
                if all(dinfty.tbl_leq(n, alpha.component(n), c)
                       for n, c in enumerate(comps)):
                    return t
    return None


def test_lazy_term_search_matches_an_eager_scan():
    dinfty._candidates.cache_clear()
    for n in (0, 1, 2):
        for i in range(level_size(n)):
            alpha = elem(n, val(n, i))
            for budget in range(1, 7):
                assert term_search(alpha, budget) \
                    == _eager_term_search(alpha, budget), (n, i, budget)
    for i in random.Random(36).sample(range(level_size(3)), 40):
        alpha = elem(3, val(3, i))
        assert term_search(alpha, 5) == _eager_term_search(alpha, 5), i


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: term_search checks dominance at rank 2, so a rank-3 "
    "seq-check can answer with a witness that fails at rank 3"))
def test_rank3_positive_seq_check_dominates_at_rank_3():
    wrong = []
    for i in (33481, 97227):
        alpha = elem(3, val(3, i))
        sv = seq_check(alpha)
        if sv.status == "sequentialisable" and sv.witness is not None \
                and not leq(alpha, denote(sv.witness), 3):
            wrong.append(i)
    assert wrong == []


def test_term_search_finds_identity():
    t = term_search(arrow(top(), top()), size_budget=4)
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


def test_rank3_seq_check_unknown_past_the_guard():
    # theta is true in {0,1} and no searched term dominates at rank 2, so
    # only the validity layer could answer, and its depth guard refuses
    alpha = elem(3, val(3, 111706))
    assert eval_formula_01(theta(alpha))
    sv = seq_check(alpha)
    assert (sv.status, sv.witness, sv.detail) == (
        "unknown", None, "guard: quantifier depth 7 exceeds the guard of 6")


def _seq_check_lines():
    """seq_check's verdict on every rank 0-2 element and on 60 seeded
    rank-3 ones, one printed line each."""
    keys = [(n, i) for n in range(3) for i in range(level_size(n))]
    keys += [(3, i) for i in random.Random(1).sample(range(level_size(3)), 60)]
    for n, i in keys:
        sv = seq_check(elem(n, val(n, i)))
        w = None if sv.witness is None else print_lcterm(sv.witness)
        yield f"{n} {i} {sv.status} {w} {sv.detail}"


def test_seq_check_verdicts_are_pinned():
    # the verdicts as printed before theta's prefixes were cached and
    # seq_check stopped walking theta for closedness
    text = "\n".join(_seq_check_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e075918bc10a548ba70c6d9f8468dd46a6cf0f5113d3e02926b02b2a9e3dc51b")


def test_seq_check_walks_theta_for_free_vars_once(monkeypatch):
    # theta enters the validity layer through valid_all_bas like any
    # sentence: its entry walk is the one free_vars call that gets the
    # whole theta, and no part of the layer walks a piece of it, since
    # is_prop_tautology reads each inequation's kept term sets
    built, walked = [], []
    original = formulas.free_vars

    def recorded(alpha):
        built.append(theta(alpha))
        return built[-1]

    _patch_everywhere(monkeypatch, original,
                      lambda A: walked.append(A) or original(A))
    monkeypatch.setattr(dinfty, "theta", recorded)
    for i in (33481, 111706):
        seq_check(elem(3, val(3, i)))
    assert len(built) == 2 and len(walked) == 2
    assert [sum(A is B for A in walked) for B in built] == [1, 1]


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every name in the package that holds original."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "realizability":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_seq_check_walks_each_theta_term_node_once(monkeypatch):
    # cost guard: an Or or And computes its variable set once, in its
    # __init__, so one rank-3 seq_check runs that __init__ once per
    # distinct term node of its theta (a tree walk of this theta visits
    # about 15,000 nodes), and a second free_vars walk builds and asks
    # nothing
    formulas._minterm_prefixes.cache_clear()
    dinfty._selcode.cache_clear()
    built, inits, calls = [], [], []
    original_vars = formulas.term_vars

    def counted(original_init):
        def __init__(self, lhs, rhs):
            inits.append(self)
            original_init(self, lhs, rhs)
        return __init__

    def recorded(alpha):
        built.append(theta(alpha))
        return built[-1]

    for cls in (Or, And):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    _patch_everywhere(monkeypatch, original_vars,
                      lambda a: calls.append(a) or original_vars(a))
    monkeypatch.setattr(dinfty, "theta", recorded)
    seq_check(elem(3, val(3, 33481)))
    (A,) = built
    terms = [x for x in _distinct_nodes(A) if isinstance(x, (Or, And))]
    assert len(terms) > 1000
    assert len({id(t) for t in inits}) == len(inits)
    assert {id(t) for t in terms} <= {id(t) for t in inits}
    inits.clear()
    calls.clear()
    assert formulas.free_vars(A) == frozenset()
    assert not inits and not calls


def _distinct_nodes(A):
    seen, todo = {}, [A]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo.extend(c for f in dataclasses.fields(x)
                        if not isinstance(c := getattr(x, f.name), str))
    return list(seen.values())
