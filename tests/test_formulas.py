import copy
import dataclasses
import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from realizability import formulas
from realizability.bamodels import _column
from realizability.corpus import formula_corpus, random_bterm, random_formula
from realizability.dinfty import elem, level_size, theta, val
from realizability.formulas import (
    And, BTerm, Forall, HornKind, Impl, Neq, Not, ONE, Or, UsageError, Var,
    ZERO, alpha_eq, bot, canon, classify_horn, conj, conj_many, decompose,
    disj, eq, eval_formula_01, eval_term_01, exists, forall_many, free_vars,
    horn_shape, is_ground, rows_term, subst_formula, tbool_axioms, term_vars,
)
from realizability.syntax import print_bterm


def bterms(depth=3):
    leaf = st.sampled_from([ZERO, ONE, Var("z"), Var("w")])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(And, sub, sub)),
        max_leaves=8)


def test_term_vars():
    t = Or(Var("z"), Not(And(Var("w"), ONE)))
    assert term_vars(t) == {"z", "w"}


@given(bterms(), st.booleans(), st.booleans())
def test_eval_term_total(t, bz, bw):
    env = {"z": int(bz), "w": int(bw)}
    assert eval_term_01(t, env) in (0, 1)


def _reference_value(t, bits) -> bool:
    # one assignment at a time, with Python booleans
    if isinstance(t, Var):
        return bool(bits[t.name])
    if isinstance(t, Not):
        return not _reference_value(t.arg, bits)
    if isinstance(t, Or):
        return _reference_value(t.lhs, bits) or _reference_value(t.rhs, bits)
    if isinstance(t, And):
        return _reference_value(t.lhs, bits) and _reference_value(t.rhs, bits)
    return t == ONE


@given(st.integers(0, 6), st.integers(0, 5), st.integers(0, 2 ** 32))
def test_bitwise_eval_matches_each_assignment(n, depth, seed):
    us = [f"x{i}" for i in range(n)]
    t = random_bterm(random.Random(seed), us, depth)
    ones = (1 << (1 << n)) - 1
    value = eval_term_01(t, {u: _column(i, ones) for i, u in enumerate(us)},
                         ones)
    assert 0 <= value <= ones
    for m in range(1 << n):
        bits = {u: m >> i & 1 for i, u in enumerate(us)}
        assert value >> m & 1 == _reference_value(t, bits)


def test_table_term_matches_function():
    t = rows_term([0, 1, 1, 0], ("z", "w"))  # z xor w
    for a in (0, 1):
        for b in (0, 1):
            assert eval_term_01(t, {"z": a, "w": b}) == a ^ b


def _reference_table_term(f, us):
    # the per-minterm tree that the shared-prefix table term replaced
    if not us:
        return ONE if f(()) else ZERO
    minterms = [
        functools.reduce(And, [Var(u) if b else Not(Var(u))
                               for u, b in zip(us, bits)])
        for bits in itertools.product((0, 1), repeat=len(us)) if f(bits)]
    return functools.reduce(Or, minterms) if minterms else ZERO


def _ands(t) -> set[int]:
    """The ids of t's distinct conjunction nodes, while t is alive."""
    seen, stack = {}, [t]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack += [getattr(t, k) for k in ("lhs", "rhs", "arg")
                      if hasattr(t, k)]
    return {i for i, t in seen.items() if isinstance(t, And)}


def _distinct_ands(t) -> int:
    return len(_ands(t))


@given(st.integers(0, 6).flatmap(
    lambda r: st.lists(st.integers(0, 1), min_size=1 << r, max_size=1 << r)))
def test_table_term_matches_reference(rows):
    r = len(rows).bit_length() - 1
    us = [f"x{k}" for k in range(r)]
    table = dict(zip(itertools.product((0, 1), repeat=r), rows))
    t = rows_term(rows, us)
    assert t == _reference_table_term(table.__getitem__, us)
    for bits, b in table.items():
        assert eval_term_01(t, dict(zip(us, bits))) == b
    assert _distinct_ands(t) <= 1 << (r + 1)


@pytest.mark.parametrize("r", range(9))
def test_table_term_shares_minterm_prefixes(r):
    # the unshared tree of the all-ones table has (r - 1) * 2^r conjunctions
    t = rows_term([1] * (1 << r), [f"x{k}" for k in range(r)])
    assert _distinct_ands(t) <= 1 << (r + 1)


def _table_cases():
    """Every row vector over at most 3 variables, then seeded ones over 7."""
    for r in range(4):
        for rows in itertools.product((0, 1), repeat=1 << r):
            yield r, rows
    rng = random.Random(7)
    for _ in range(20):
        yield 7, [rng.randint(0, 1) for _ in range(1 << 7)]


def test_table_term_matches_reference_in_value_and_text():
    # calls over the same variables share one cached set of prefixes, so a
    # call that changed them would spoil the calls after it
    for r, rows in _table_cases():
        us = [f"x{k}" for k in range(r)]
        table = dict(zip(itertools.product((0, 1), repeat=r), rows))
        t = rows_term(rows, us)
        ref = _reference_table_term(table.__getitem__, us)
        assert t == ref, (r, rows)
        assert print_bterm(t) == print_bterm(ref), (r, rows)


def test_table_terms_share_prefixes_only_over_the_same_variables():
    us = ("x0", "x1", "x2")
    full = rows_term([1] * 8, us)
    xor = rows_term([0, 1, 1, 0, 1, 0, 0, 1], list(us))
    assert _ands(xor) <= _ands(full)
    apart = rows_term([1] * 8, ("y0", "y1", "y2"))
    assert not _ands(apart) & _ands(full)
    for other in (("x0", "x1", "y2"), ("x1", "x0", "x2")):
        assert rows_term([1] * 8, other) != full, other
    # what the cache hands out cannot be changed by a caller
    assert isinstance(formulas._minterm_prefixes(us), tuple)


def test_encodings_two_valued():
    A = Neq(Var("z"), ZERO)
    # bot is false, eq agrees with equality, conj/disj are classical
    assert eval_formula_01(bot(), {}) == 0
    assert eval_formula_01(eq(Var("z"), Var("z")), {"z": 1}) == 1
    assert eval_formula_01(eq(ZERO, ONE), {}) == 0
    for v in (0, 1):
        env = {"z": v}
        assert eval_formula_01(conj(A, A), env) == eval_formula_01(A, env)
        assert eval_formula_01(disj(A, bot()), env) == eval_formula_01(A, env)


def test_exists_two_valued():
    A = exists("z", Neq(Var("z"), ZERO))
    assert eval_formula_01(A, {}) == 1
    B = exists("z", Neq(Var("z"), Var("z")))
    assert eval_formula_01(B, {}) == 0


def test_forall_two_valued():
    assert eval_formula_01(Forall("z", Neq(Or(Var("z"), Not(Var("z"))), ZERO)), {}) == 1
    assert eval_formula_01(Forall("z", Neq(Var("z"), ZERO)), {}) == 0


def test_vacuous_quantifiers_evaluate_their_body_once(monkeypatch):
    # forall a0. ... forall a<n-1>. a0 \/ ~a0 == 1: only a0 is read, so
    # the body's terms are evaluated at a0 = 0 and 1, whatever n is
    calls = []
    real = formulas.eval_term_01

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(formulas, "eval_term_01", counting)
    counts = []
    for n in (8, 16):
        calls.clear()
        assert eval_formula_01(forall_many(
            [f"a{i}" for i in range(n)],
            eq(Or(Var("a0"), Not(Var("a0"))), ONE)))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # a vacuous binder leaves the outer binders' values in place
    assert eval_formula_01(Forall("z", Impl(Neq(Var("z"), ZERO), Forall(
        "w", Neq(Var("z"), ZERO)))))
    assert not eval_formula_01(Forall("z", Forall("w", Neq(Var("z"), ZERO))))


def test_free_vars_and_shadowing():
    A = Forall("z", Impl(Neq(Var("z"), Var("w")), Forall("w", Neq(Var("w"), ZERO))))
    assert free_vars(A) == {"w"}


def _reference_term_vars(a, memo=None):
    # a set per node, by recursion over the fields alone; memo, keyed on
    # id, computes a node that a DAG shares once
    memo = {} if memo is None else memo
    vs = memo.get(id(a))
    if vs is None:
        if isinstance(a, Var):
            vs = frozenset((a.name,))
        elif isinstance(a, Not):
            vs = _reference_term_vars(a.arg, memo)
        elif isinstance(a, (Or, And)):
            vs = (_reference_term_vars(a.lhs, memo)
                  | _reference_term_vars(a.rhs, memo))
        else:
            vs = frozenset()
        memo[id(a)] = vs
    return vs


def _reference_free_vars(A, memo=None):
    # the set-per-node recursion that the kept sets replaced
    memo = {} if memo is None else memo
    if isinstance(A, Neq):
        return (_reference_term_vars(A.lhs, memo)
                | _reference_term_vars(A.rhs, memo))
    if isinstance(A, Impl):
        return (_reference_free_vars(A.ante, memo)
                | _reference_free_vars(A.cons, memo))
    return _reference_free_vars(A.body, memo) - {A.var}


def test_free_vars_matches_reference():
    rng = random.Random(5)
    closed = formula_corpus(300, seed=21, height=4)
    # the same generator with names already in scope leaves them free
    loose = [random_formula(rng, height=3, vars=vs)
             for vs in (("z",), ("z", "w")) for _ in range(150)]
    answers = [free_vars(a) for a in closed + loose]
    assert answers == [_reference_free_vars(a) for a in closed + loose]
    assert not any(answers[:len(closed)]) and any(answers[len(closed):])
    A = Forall("z", Impl(Neq(Var("z"), Var("w")), Forall("w", Neq(Var("w"), ZERO))))
    assert free_vars(A) == {"w"}
    assert free_vars(Forall("w", A)) == frozenset()
    # a child that is not a term, or not a formula, raises TypeError as
    # its parent is built
    for build in (lambda: Impl(Neq(ZERO, ONE), "z"),
                  lambda: Neq(Or(Var("z"), "w"), ZERO),
                  lambda: Or(Var("z"), "w"), lambda: And("w", ONE),
                  lambda: Not(None), lambda: Neq(bot(), ZERO),
                  lambda: Impl(ZERO, bot()), lambda: Forall("z", ONE)):
        with pytest.raises(TypeError, match="not a (term|formula): "):
            build()
    for read, x in ((term_vars, "w"), (term_vars, bot()),
                    (free_vars, ZERO), (free_vars, None),
                    (is_ground, Var("z"))):
        with pytest.raises(TypeError):
            read(x)


def _nodes(*roots):
    """Every distinct node under the roots, formulas and terms alike,
    found without recursion."""
    seen, todo = {}, list(roots)
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo.extend(c for f in dataclasses.fields(x)
                        if not isinstance(c := getattr(x, f.name), str))
    return list(seen.values())


def _seeded_rank3_thetas(count=40):
    formulas._minterm_prefixes.cache_clear()  # fresh nodes, nothing kept
    rng = random.Random(12)
    return [theta(elem(3, val(3, rng.randrange(level_size(3)))))
            for _ in range(count)]


def _field_tuple(t):
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t))


@pytest.mark.parametrize("top_first", [True, False])
def test_kept_hashes_are_the_dataclass_hashes(top_first):
    # the hash an Or or And keeps is the plain dataclass's hash of its
    # field tuple at every node, whether the top or the leaves hash first
    corpus = formula_corpus(300, seed=21, height=4)
    for roots in (_seeded_rank3_thetas(), corpus):
        nodes = [x for x in _nodes(*roots) if isinstance(x, BTerm)]
        assert sum(isinstance(t, (Or, And, Not)) for t in nodes) > 100
        for t in nodes if top_first else reversed(nodes):
            assert hash(t) == hash(_field_tuple(t)), t


def test_a_long_chain_hashes_in_a_loop():
    # a left-nested chain of \/ and /\ fills its links' hashes in a loop,
    # down and then up, so 5,000 links hash under the default recursion
    # limit, each to the dataclass's hash of its field tuple
    def chain():
        t = Var("z")
        for i in range(5000):
            t = (Or if i % 3 else And)(t, Var(f"v{i % 7}"))
        return t

    first, second = chain(), chain()
    assert hash(first) == hash(second)
    link, links = first, 0
    while isinstance(link, (Or, And)):
        assert link._hash is not None
        assert hash(link) == hash(_field_tuple(link))
        link, links = link.lhs, links + 1
    assert links == 5000


def test_kept_variable_sets_match_the_reference():
    # every term node keeps the variable set, and every formula node the
    # free variables, that the recursion over its fields computes: on
    # corpus formulas, on substitution and canon outputs, and on 40
    # seeded rank-3 thetas, whose terms are DAGs
    rng = random.Random(8)
    corpus = formula_corpus(300, seed=21, height=4)
    loose = [random_formula(rng, height=3, vars=("z", "w"))
             for _ in range(150)]
    substituted = [subst_formula(A, ["z", "w"],
                                 [random_bterm(rng, ("z", "w", "z_0"), 2),
                                  Var("z")])
                   for A in loose]
    roots = corpus + loose + substituted + [canon(A) for A in corpus + loose]
    roots += _seeded_rank3_thetas()
    memo, counts = {}, {BTerm: 0, formulas.Formula: 0}
    for x in _nodes(*roots):
        if isinstance(x, BTerm):
            assert term_vars(x) == _reference_term_vars(x, memo), x
            counts[BTerm] += 1
        else:
            assert free_vars(x) == _reference_free_vars(x, memo), x
            counts[formulas.Formula] += 1
    assert counts[BTerm] > 5000 and counts[formulas.Formula] > 2000
    assert any(map(free_vars, substituted))
    assert not any(free_vars(A) for A in corpus + roots[-40:])


def test_chains_answer_their_variables_without_recursion():
    # the sets are kept as each link is built, so no question about them
    # descends a chain
    z = Var("z")
    ors = z
    for i in range(5000):
        ors = Or(ors, Var(f"v{i % 7}"))
    nots = z
    for _ in range(5000):
        nots = Not(nots)
    impls = Neq(nots, ZERO)
    for _ in range(2000):
        impls = Impl(Neq(z, ors), impls)
    assert term_vars(ors) == {"z", *(f"v{i}" for i in range(7))}
    assert term_vars(nots) == {"z"}
    assert free_vars(impls) == term_vars(ors)
    with pytest.raises(UsageError, match="free: \\['v0', .*'z'\\]"):
        formulas.closed(impls, "f")
    A = forall_many(sorted(term_vars(ors)), impls)
    assert free_vars(A) == frozenset()
    formulas.closed(A, "f")


def test_kept_values_are_not_fields():
    assert [f.name for f in dataclasses.fields(Or)] == ["lhs", "rhs"]
    assert [f.name for f in dataclasses.fields(And)] == ["lhs", "rhs"]
    assert [f.name for f in dataclasses.fields(Not)] == ["arg"]
    t = And(Or(Var("z"), ONE), Not(Var("w")))
    hash(t), term_vars(t)
    fresh = And(Or(Var("z"), ONE), Not(Var("w")))
    assert t == fresh and hash(t) == hash(fresh)
    assert repr(t) == repr(fresh) == (
        "And(lhs=Or(lhs=Var(name='z'), rhs=One()), "
        "rhs=Not(arg=Var(name='w')))")
    assert dataclasses.astuple(t) == dataclasses.astuple(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.lhs = ZERO
    # copies rebuild from the fields and keep nothing of the original's
    for twin in (copy.copy(t), copy.deepcopy(t),
                 pickle.loads(pickle.dumps(t))):
        assert twin == t and hash(twin) == hash(t)
        assert term_vars(twin) == {"z", "w"}
    # formula nodes too: fields only, and a copy keeps its free variables
    assert [f.name for f in dataclasses.fields(Neq)] == ["lhs", "rhs"]
    assert [f.name for f in dataclasses.fields(Forall)] == ["var", "body"]
    A = Forall("z", Impl(Neq(t, ZERO), bot()))
    assert repr(A).startswith("Forall(var='z', body=Impl(ante=Neq(lhs=And(")
    for twin in (copy.copy(A), copy.deepcopy(A),
                 pickle.loads(pickle.dumps(A))):
        assert twin == A and hash(twin) == hash(A)
        assert free_vars(twin) == {"w"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.var = "w"


def test_every_node_class_writes_every_slot_and_stays_frozen():
    # one fresh node of each formula-module class that has slots, with the
    # arguments it is built from and the variable set it keeps
    z, w = Var("z"), Var("w")
    table = [(Var, ("z",), {"z"}), (Or, (z, ONE), {"z"}),
             (And, (z, Not(w)), {"z", "w"}), (Not, (w,), {"w"}),
             (Neq, (z, w), {"z", "w"}), (Impl, (Neq(z, ZERO), bot()), {"z"}),
             (Forall, ("z", Neq(z, w)), {"w"})]
    for cls, args, vs in table:
        x = cls(*args)
        kept_vars = term_vars if isinstance(x, BTerm) else free_vars
        assert not hasattr(x, "__dict__"), x
        # a slot that no __init__ wrote raises AttributeError when read,
        # so reading every slot catches a constructor that forgets one
        blank = object.__new__(cls)
        for name in cls.__slots__:
            getattr(x, name)
            with pytest.raises(AttributeError):
                getattr(blank, name)
        fields = [f.name for f in dataclasses.fields(x)]
        assert all(getattr(x, f) is a
                   for f, a in zip(fields, args, strict=True))
        for name in {"_hash", "_text"} & set(cls.__slots__):
            assert getattr(x, name) is None
        assert kept_vars(x) == vs
        for name in cls.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, getattr(x, name))
        for twin in (copy.copy(x), copy.deepcopy(x),
                     pickle.loads(pickle.dumps(x))):
            assert twin == x and hash(twin) == hash(x), x
            assert kept_vars(twin) == vs


def test_subst_capture_avoiding():
    A = Forall("z", Neq(Var("z"), Var("w")))
    B = subst_formula(A, ["w"], [Var("z")])
    # the bound z must be renamed, keeping the substituted z free
    assert free_vars(B) == {"z"}
    assert not alpha_eq(B, Forall("z", Neq(Var("z"), Var("z"))))


def test_alpha_eq_and_canon():
    A = Forall("z", Neq(Var("z"), ZERO))
    B = Forall("w", Neq(Var("w"), ZERO))
    assert alpha_eq(A, B)
    assert canon(A) == canon(B)
    assert not alpha_eq(A, Forall("z", Neq(ZERO, Var("z"))))


def test_conj_many_empty_is_truth():
    assert eval_formula_01(conj_many(()), {}) == 1


def test_tbool_axioms_true_on_bits():
    for ax in tbool_axioms():
        assert eval_formula_01(ax, {}) == 1


def test_classify_horn():
    assert classify_horn(Forall("z", eq(Var("z"), Var("z")))) == HornKind.DEFINITE
    assert classify_horn(Forall("z", Impl(eq(Var("z"), ONE), bot()))) == HornKind.GOAL
    A = Forall("z", disj(eq(Var("z"), ZERO), eq(Var("z"), ONE)))
    assert classify_horn(A) == HornKind.NOT_HORN
    # open formulas are never Horn, whatever their shape
    assert classify_horn(eq(Var("z"), Var("z"))) == HornKind.NOT_HORN
    assert classify_horn(Impl(bot(), Neq(Var("z"), ZERO))) == HornKind.NOT_HORN
    assert classify_horn(Forall("z", Impl(eq(Var("z"), ONE), Neq(Var("w"), ZERO)))) \
        == HornKind.NOT_HORN
    # horn_shape reads the shape alone, for formulas known to be closed
    assert horn_shape(eq(Var("z"), Var("z"))) == HornKind.DEFINITE
    assert horn_shape(Impl(eq(Var("z"), ONE), Neq(Var("w"), ZERO))) == HornKind.GOAL
    assert horn_shape(A) == HornKind.NOT_HORN


def test_decompose_reads_in_place(monkeypatch):
    # the spine is read under A's own names: premises and head are A's
    # own objects, and nothing is walked or rebuilt
    calls = []
    for name in ("free_vars", "subst_formula"):
        monkeypatch.setattr(formulas, name, lambda *a, name=name:
                            calls.append(name))
    premise = Forall("w", Neq(Var("w"), Var("z")))
    second = eq(Var("z"), ZERO)
    head = Neq(Var("z"), ONE)
    A = Forall("z", Impl(premise, Forall("w", Forall("z", Impl(second, head)))))
    d = decompose(A)
    assert d.blocks == ((("z",), premise), (("w", "z"), second))
    assert d.blocks[0][1] is premise and d.blocks[1][1] is second
    assert d.head is head and d.tail_vars == ()
    B = Forall("z", Impl(premise, Forall("v", head)))
    assert decompose(B).tail_vars == ("v",)
    assert decompose(B).blocks[0][1] is premise
    # a binder shadowed within its run is left out, one in a later run kept
    C = Forall("z", Forall("w", Forall("z", Impl(second, Forall(
        "v", Forall("z", Forall("v", head)))))))
    assert decompose(C).blocks == ((("w", "z"), second),)
    assert decompose(C).tail_vars == ("z", "v")
    assert calls == []


def test_decompose_plain_inequation():
    d = decompose(Neq(ZERO, ONE))
    assert d.blocks == () and d.tail_vars == ()
    assert d.head == Neq(ZERO, ONE)


def test_eval_rejects_missing_var():
    with pytest.raises(UsageError):
        eval_term_01(Var("z"), {})
