import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from realizability.bamodels import (
    Atomless, DEFAULT_FAMILY, GuardExceeded, Justification, MAX_PROP_ATOMS,
    PowerFinite, TheoryOracle, Verdict, _splits, brute_check,
    is_prop_tautology, model_check, valid_all_bas,
)
from realizability import bamodels, formulas
from realizability.corpus import (
    exhaustive_formulas_height2, formula_corpus, horn_corpus, random_bterm,
)
from realizability.dinfty import denote_formula, elem, level_size, theta, val
from realizability.formulas import (
    And, Forall, HornKind, Impl, Neq, Not, ONE, One, Or, UsageError, Var, ZERO,
    Zero, bot, canon, classify_horn, conj, disj, eq, eval_formula_01,
    eval_term_01, exists, forall_many, free_vars, is_ground, term_vars,
)
from realizability.pole import canonical_falsity_stacks
from realizability.syntax import parse_formula


def test_model_check_simple():
    assert model_check(parse_formula("0 != 1"), PowerFinite(1))
    assert not model_check(parse_formula("0 != 0"), Atomless())
    assert model_check(parse_formula("forall z. z \\/ ~z == 1"), PowerFinite(3))


def test_model_check_vs_brute_corpus():
    inputs = formula_corpus(120, seed=9, height=3, max_qdepth=2)
    for a in inputs + _shared_neq_formulas():
        for k in (1, 2, 3):
            assert model_check(a, PowerFinite(k)) == brute_check(a, k)


def test_atomless_separating_sentence():
    # below every nonzero element sits a strictly smaller nonzero one
    atomless = parse_formula(
        "forall z. z != 0 -> "
        "(forall w. (w /\\ z == w -> w != 0 -> w == z)) -> _|_")
    assert model_check(atomless, Atomless())
    for k in (1, 2, 3):
        assert not model_check(atomless, PowerFinite(k))


def test_size_sentence_separates_finite_algebras():
    # three pairwise-disjoint nonzero elements need at least three atoms
    body = conj(conj(Neq(Var("z"), ZERO), Neq(Var("w"), ZERO)),
                conj(Neq(Var("v"), ZERO),
                     conj(eq(And(Var("z"), Var("w")), ZERO),
                          conj(eq(And(Var("z"), Var("v")), ZERO),
                               eq(And(Var("w"), Var("v")), ZERO)))))
    A = exists("z", exists("w", exists("v", body)))
    assert not model_check(A, PowerFinite(2))
    assert model_check(A, PowerFinite(3))
    assert model_check(A, Atomless())


# An independent check of Atomless answers.  The countable atomless algebra
# is the algebra of finite unions of dyadic intervals of [0,1).  For a
# sentence of quantifier depth q, an element is a 2^q-bit mask, and a
# quantifier at nesting depth i ranges only over the masks constant on
# blocks of 2^(q-i-1) bits, the unions of intervals of length 2^-(i+1).
# That is exact: in an atomless algebra the type of a tuple depends only
# on which of its cells are nonempty, and at depth i each nonempty cell of
# the earlier variables is a union of blocks that each split in two, so
# the new variable can meet a cell inside, outside or both (a
# back-and-forth argument).  The evaluator here is its own; it shares
# nothing with eval_term_01, _column, _splits or model_check.

def _qdepth(A):
    if isinstance(A, Neq):
        return 0
    if isinstance(A, Impl):
        return max(_qdepth(A.ante), _qdepth(A.cons))
    return 1 + _qdepth(A.body)


def dyadic_truth(A, blocks=True):
    """Truth of the closed A in the dyadic interval algebra; blocks=False
    lets every quantifier range over all masks, which is {0,1}^(2^q)."""
    q = _qdepth(A)
    width = 1 << q
    full = (1 << width) - 1
    ranges = []
    for i in range(q):
        size = width >> (i + 1) if blocks else 1
        block = (1 << size) - 1
        n = width // size
        ranges.append([sum(block << b * size for b in range(n) if c >> b & 1)
                       for c in range(1 << n)])

    def term(a, env):
        if isinstance(a, Var):
            return env[a.name]
        if isinstance(a, Zero):
            return 0
        if isinstance(a, One):
            return full
        if isinstance(a, Not):
            return full ^ term(a.arg, env)
        if isinstance(a, Or):
            return term(a.lhs, env) | term(a.rhs, env)
        return term(a.lhs, env) & term(a.rhs, env)

    def holds(f, env, i):
        if isinstance(f, Neq):
            return term(f.lhs, env) != term(f.rhs, env)
        if isinstance(f, Impl):
            return not holds(f.ante, env, i) or holds(f.cons, env, i)
        return all(holds(f.body, {**env, f.var: m}, i + 1) for m in ranges[i])

    return holds(A, {}, 0)


def _separating_sentences():
    """Depth-2 sentences on which Atomless differs from every finite
    algebra: below each nonzero element sits a smaller nonzero one; some
    element is an atom."""
    z, w = Var("z"), Var("w")
    atom = exists("z", conj(Neq(z, ZERO), Forall("w", disj(
        eq(And(w, z), ZERO), eq(And(w, z), z)))))
    return [parse_formula("forall z. z != 0 -> "
                          "(forall w. (w /\\ z == w -> w != 0 -> w == z)) -> _|_"),
            atom]


def _dyadic_corpus():
    sample = [a for seed in range(8)
              for a in formula_corpus(200, seed=seed, height=4)]
    return [a for a in _separating_sentences() + exhaustive_formulas_height2()
            + sample if not free_vars(a) and _qdepth(a) <= 3]


def test_dyadic_oracle_matches_atomless_model_check():
    corpus = _dyadic_corpus()
    assert len(corpus) > 2000 and sum(_qdepth(a) == 3 for a in corpus) > 100
    for a in corpus:
        assert dyadic_truth(a) == model_check(a, Atomless()), a


def test_dyadic_oracle_separates_the_mutants():
    # atomless answered as PowerFinite(1), and masks left unrestricted,
    # which is PowerFinite(2^q): each disagrees with the oracle somewhere
    for a in _separating_sentences():
        assert dyadic_truth(a) != model_check(a, PowerFinite(1))
        assert dyadic_truth(a) != dyadic_truth(a, blocks=False)
        assert dyadic_truth(a, blocks=False) == model_check(a, PowerFinite(4))


def test_guards():
    deep = parse_formula(
        "forall z1. forall z2. forall z3. forall z4. forall z5. "
        "forall z6. forall z7. z1 != 0")
    with pytest.raises(GuardExceeded):
        model_check(deep, PowerFinite(1))
    # the depth guard fires only where evaluation reaches the 7th quantifier
    for spec in (PowerFinite(1), Atomless()):
        assert model_check(Impl(Neq(ZERO, ZERO), deep), spec)
        with pytest.raises(GuardExceeded) as err:
            model_check(Impl(Neq(ZERO, ONE), deep), spec)
        assert str(err.value) == "quantifier depth 7 exceeds the guard of 6"


def test_atom_guard():
    # past the cap 2^q a bigger algebra answers as PowerFinite(2^q) does,
    # but the atom guard refuses it before the check runs
    A = parse_formula("forall z. z != 0")
    assert not model_check(A, PowerFinite(6))
    with pytest.raises(GuardExceeded) as err:
        model_check(A, PowerFinite(7))
    assert str(err.value) == "7 atoms exceeds the guard of 6"


def test_guard_counts_nesting_under_a_closed_block():
    # the closed block b..g under a is projected onto no variable, but
    # the guard counts nested quantifiers, not cells: seven above its body
    A = parse_formula("forall a. (" + SEVEN_FORALLS[len("forall a. "):]
                      + "b != 0) -> a != 0")
    for spec in (PowerFinite(1), Atomless()):
        with pytest.raises(GuardExceeded) as err:
            model_check(A, spec)
        assert str(err.value) == "quantifier depth 7 exceeds the guard of 6"


# y splits both x and ~x; forall z reads x only, and its body reaches the
# guard at some splits of z and fails at others
GUARD_ORDER = ("forall x. forall y. y /\\ x != 0 -> y /\\ x != x -> "
               "y /\\ ~x != 0 -> y /\\ ~x != ~x -> forall z. ")
GUARD = "forall a. forall b. forall c. forall d. a != 0"


def test_guard_fires_as_in_the_projected_order():
    # forall z is projected onto x's cells, like any other Forall, so it
    # tries z = ~x before the splits of the y-cells that reach the guard:
    # the first sentence fails there, and the uncapped per-cell reference
    # refutes it in PowerFinite(4) too; the second reaches the guard
    # before its failing split
    reaches_guard_later = parse_formula(
        GUARD_ORDER + f"((z /\\ x == x -> z != 1 -> {GUARD}) -> "
        "z != ~x -> _|_) -> _|_")
    v = valid_all_bas(reaches_guard_later)
    assert (v.status, v.witness) == ("refuted", PowerFinite(4))
    assert v.trace[1] == "forall z: failing split {0: (0, 2), 1: (2, 0)}"
    assert not TheoryOracle().membership(reaches_guard_later)
    reaches_guard_first = parse_formula(
        GUARD_ORDER + "((z /\\ x == x -> z != 1 -> _|_) -> "
        f"(z == ~x -> {GUARD}) -> _|_) -> _|_")
    assert valid_all_bas(reaches_guard_first) == Verdict(
        "unknown", detail="guard: quantifier depth 7 exceeds the guard of 6")
    with pytest.raises(GuardExceeded):
        TheoryOracle().membership(reaches_guard_first)


def _trace_of(A, spec):
    return bamodels._trace(bamodels._compile(A)(spec))


def test_trace_on_failure():
    A = parse_formula("forall z. z != 0")
    assert bamodels._compile(A)(PowerFinite(2)) is not None
    assert _trace_of(A, PowerFinite(2))
    assert bamodels._compile(parse_formula("0 != 1"))(PowerFinite(2)) is None


def test_refutation_traces_are_pinned():
    # the sizes are those the check saw: z's cell of 2 is split whole, and
    # w's body, of rank 0, sees the cell of 2 capped at 1
    A = parse_formula("forall z. forall w. z /\\ w != 0")
    assert _trace_of(A, PowerFinite(2)) == (
        "inequation fails on cell sizes {0: 0, 2: 0, 1: 1, 3: 0}",
        "forall w: failing split {0: (0, 0), 1: (1, 0)}",
        "forall z: failing split {0: (0, 2)}",
    )
    # some nonzero element has no nonzero element strictly below it: the
    # refutation of this exists is the truth of a universal, which has no
    # failing split, so only the final inequation shows
    has_atom = parse_formula(
        "(forall z. z != 0 -> "
        "(forall w. (w /\\ z == w -> w != 0 -> w == z)) -> _|_) -> _|_")
    assert _trace_of(has_atom, Atomless()) == (
        "inequation fails on cell sizes {0: inf}",)


@functools.cache
def _reference_model_check(A, spec):
    """The per-cell evaluator that the bitwise term values replaced: A's
    truth in spec, and its failing path innermost first (None if A
    holds).  It neither caps, projects nor memoises."""
    atomless = isinstance(spec, Atomless)

    def cells(a, env, masks):
        return frozenset(m for m in masks if eval_term_01(
            a, {name: m >> pos & 1 for name, pos in env.items()}))

    def go(f, env, sizes, depth):
        if isinstance(f, Neq):
            diff = cells(f.lhs, env, sizes) ^ cells(f.rhs, env, sizes)
            if any(sizes[m] for m in diff):
                return None
            return [f"inequation fails on cell sizes {sizes}"]
        if isinstance(f, Impl):
            if go(f.ante, env, sizes, depth) is None:
                return go(f.cons, env, sizes, depth)
            return None
        env2 = {**env, f.var: depth}
        masks = sorted(sizes)
        options = [_splits(sizes[m]) for m in masks]
        for combo in itertools.product(*options):
            sub = {}
            for m, (s0, s1) in zip(masks, combo):
                sub[m] = s0
                sub[m | 1 << depth] = s1
            path = go(f.body, env2, sub, depth + 1)
            if path is not None:
                picked = dict(zip(masks, combo))
                return path + [f"forall {f.var}: failing split {picked}"]
        return None

    path = go(A, {}, {0: math.inf if atomless else spec.atoms}, 0)
    return path is None, path and tuple(path)


def test_model_check_matches_per_cell_reference(monkeypatch):
    specs = [PowerFinite(k) for k in (1, 2, 3, 4, 6)] + [Atomless()]
    answers = []
    traced = 0
    inputs = [a for seed in (1, 2, 3, 4)
              for a in formula_corpus(200, seed=seed, height=4)]
    inputs += _sweep_sentences(5, 2, 12) + _sweep_sentences(6, 3, 4)
    inputs += [theta(elem(n, val(n, i)))
               for n in (0, 1, 2) for i in range(level_size(n))]
    inputs += _shared_neq_formulas()
    projections = _counting(monkeypatch, "_project")
    for a in inputs:
        for spec in specs:
            projections.clear()
            refutation = bamodels._compile(a)(spec)
            verdict, path = _reference_model_check(a, spec)
            answers.append(refutation is None)
            assert answers[-1] == verdict
            # no cap bites on one atom or on infinite cells; elsewhere, or
            # under a projection, the check sees other sizes
            if path and not projections and spec in (PowerFinite(1),
                                                      Atomless()):
                assert bamodels._trace(refutation) == path, (a, spec)
                traced += 1
    assert 0 < sum(answers) < len(answers)
    assert traced > 500


CAP_SPECS = [PowerFinite(k) for k in range(1, 7)] + [Atomless()]


def _four_atoms():
    # exists x. (exists y. 0 < y < x) /\ (exists y. 0 < y < ~x): some
    # element and its complement each have two atoms
    x, y = Var("x"), Var("y")

    def below(t):  # 0 < y < t
        return conj(Neq(y, ZERO), conj(eq(And(y, t), y), Neq(y, t)))
    return exists("x", conj(exists("y", below(x)), exists("y", below(Not(x)))))


# every nonzero element has an atom below it
ATOMIC = parse_formula(
    "forall x. x != 0 -> ((forall y. (y /\\ x == y -> (y != 0 -> "
    "(forall z. (z /\\ y != 0 -> y /\\ ~z == 0)) -> _|_))) -> _|_)")


def test_rank_2_cap_counts_to_four():
    # capping at 2^(r-1) instead of 2^r reads PowerFinite(4..6) as
    # PowerFinite(2)
    assert [model_check(_four_atoms(), spec) for spec in CAP_SPECS] == [
        False, False, False, True, True, True, True]


def test_infinite_cells_are_never_capped():
    # capping the atomless algebra's infinite cell like a finite size reads
    # it as finite
    assert [model_check(ATOMIC, spec) for spec in CAP_SPECS] == [
        True, True, True, True, True, True, False]


def _projection_sentences(seed, n):
    # closed sentences whose binders draw on three names and whose
    # inequations use a random part of the bound ones, so inner quantifier
    # blocks are often closed or read only some outer variables, and
    # binders are often shadowed: the shapes that projection changes
    rng = random.Random(seed)

    def go(bound, depth, height):
        r = rng.random()
        if height == 0 or r < 0.3:
            vs = [v for v in sorted(bound) if rng.random() < 0.6]
            return Neq(random_bterm(rng, vs, 2), random_bterm(rng, vs, 2))
        if r < 0.6 or depth == 3:
            return Impl(go(bound, depth, height - 1),
                        go(bound, depth, height - 1))
        v = rng.choice("xyz")
        return Forall(v, go(bound | {v}, depth + 1, height - 1))

    out = []
    while len(out) < n:
        A = go(frozenset(), 0, 6)
        if _qdepth(A) >= 2:
            out.append(A)
    return out


def _projected_blocks():
    # each counting sentence B as a closed block under outer binders, in
    # sentences that say what B says, so they answer as B does
    four, atomic = [False] * 3 + [True] * 4, [True] * 6 + [False]
    w, v = Var("w"), Var("v")
    out = []
    for B, answers in ((_four_atoms(), four), (ATOMIC, atomic)):
        out += [(A, answers) for A in (
            Forall("w", Impl(Neq(w, ZERO), B)),
            Forall("w", Forall("v", Impl(Neq(And(w, v), ZERO), B))),
            Forall("w", Impl(Forall("v", Impl(B, Neq(v, w))), bot())))]
    return out


def _partial_blocks():
    # inner blocks that read one of two outer variables (x has two atoms
    # below it), closed blocks that tell Atomless from the finite algebras
    # under a binder, and shadowed binders, whose dead cells the
    # projection drops
    x, y, z = Var("x"), Var("y"), Var("z")

    def two_below(t):
        return exists("z", conj(Neq(z, ZERO), conj(eq(And(z, t), z),
                                                   Neq(z, t))))
    return [forall_many(["x", "y"], Impl(two_below(x), Impl(
                Neq(And(x, y), ZERO), two_below(y)))),
            forall_many(["x", "y"], Impl(Neq(And(x, Not(y)), ZERO),
                                         Impl(two_below(y), two_below(x))))
            ] + [Forall("w", Impl(Neq(Var("w"), ZERO), B))
                 for B in _separating_sentences()
            ] + [parse_formula(text) for text in (
                "forall x. forall y. forall x. x /\\ y != 0 -> x != y",
                "forall x. forall x. forall y. x /\\ y != 0 -> y != 1",
                "forall x. x != 0 -> "
                "forall y. forall x. x /\\ ~y == 0 -> x != 1",
                "forall x. forall y. (forall x. x != y) -> "
                "forall y. x /\\ y != 0")]


def test_projection_matches_per_cell_reference():
    # one untraced check per sentence, swept over the family as
    # valid_all_bas does, so that its memo spans the family
    inputs = formula_corpus(60, seed=1, height=4)
    inputs += _sweep_sentences(5, 2, 12)
    inputs += _projection_sentences(7, 40) + _partial_blocks()
    inputs += [theta(elem(n, val(n, i)))
               for n in (0, 1, 2) for i in range(level_size(n))]
    answers = []
    for a in inputs:
        check = bamodels._compile(a)
        answers.append([check(spec) is None for spec in CAP_SPECS])
        assert answers[-1] == [_reference_model_check(a, spec)[0]
                               for spec in CAP_SPECS], a
    flat = [x for row in answers for x in row]
    assert 0.2 < sum(flat) / len(flat) < 0.8
    # the reference takes 30 s over these; the two cap tests pin B
    for A, want in _projected_blocks():
        check = bamodels._compile(A)
        assert [check(spec) is None for spec in CAP_SPECS] == want


def test_closed_block_is_enumerated_once_per_projected_sizes(monkeypatch):
    # forall z. z != 0 is false, so every (x, y) split runs it; projected
    # onto no variable it sees one cell of 3 atoms, capped at 2, each time
    A = parse_formula(
        "forall x. forall y. (forall z. z != 0) -> x /\\ y != 0 -> x != 0")
    calls = _counting(monkeypatch, "_failing_split")
    assert model_check(A, PowerFinite(3))
    # one enumeration per quantifier occurrence and distinct sizes read:
    # x over one cell of 3; y over the 2 cells of each of x's 4 splits;
    # the closed block over one cell once, not once per distinct 4 cells
    assert sorted(len(args[1]) for args, _ in calls) == [1, 1, 2, 2, 2, 2]


def test_capped_splits_keep_first_occurrences():
    assert _splits(3) == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert _splits(math.inf, 1) == _splits(math.inf)
    want = ((0, 2), (1, 2), (2, 2), (2, 1), (2, 0))
    assert all(_splits(s, 2) == want for s in (4, 5, 9))
    assert _splits(3, 2) == ((0, 2), (1, 2), (2, 1), (2, 0))

    def two_branch(size, cap):  # the form with its own size <= cap branch
        if size <= cap:
            return tuple((i, size - i) for i in range(size + 1))
        return tuple(dict.fromkeys((min(i, cap), min(size - i, cap))
                                   for i in range(size + 1)))
    for cap in [*range(1, 33), math.inf]:
        for size in range(4 * min(cap, 32) + 3):
            assert _splits(size, cap) == two_branch(size, cap), (size, cap)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bamodels, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(bamodels, name, counted)
    return calls


def test_one_compile_per_family_sweep(monkeypatch):
    # two Neq occurrences, each side evaluated once for the whole family
    z0, z1, z2 = Var("z0"), Var("z1"), Var("z2")
    t = Or(And(z0, Not(z1)), And(z2, Or(z1, Not(z0))))
    A = forall_many(["z0", "z1", "z2"], Impl(Neq(ZERO, t), Neq(t, ZERO)))
    calls = _counting(monkeypatch, "eval_term_01")
    assert valid_all_bas(A).detail == "family-passed"
    assert len(calls) == 2 * 2
    # nothing carries over between calls: the second one compiles again
    assert valid_all_bas(A).detail == "family-passed"
    assert len(calls) == 2 * 2 * 2
    calls.clear()
    assert TheoryOracle().membership(A)
    assert len(calls) == 2 * 2
    assert TheoryOracle().membership(A)
    assert len(calls) == 2 * 2 * 2


def test_validity_compiles_once_and_never_calls_model_check(monkeypatch):
    # the one family sweep, or the one {0,1} run of a ground or Horn
    # refutation, gives the verdict and its trace
    checks = _counting(monkeypatch, "model_check")
    compiles = _counting(monkeypatch, "_compile")
    has_atom = parse_formula(
        "(forall z. z != 0 -> "
        "(forall w. (w /\\ z == w -> w != 0 -> w == z)) -> _|_) -> _|_")
    # (sentence, status, trace lines); {0,1} refutes SEVEN_FORALLS a == 0
    # with no trace, since its run meets the depth guard
    for A, status, lines in [
            (has_atom, "refuted", 1),
            (parse_formula("forall z. forall w. z /\\ w != 0"), "refuted", 3),
            (parse_formula("0 != 0"), "refuted", 1),
            (parse_formula(SEVEN_FORALLS + "a == 0"), "refuted", 0),
            (parse_formula("forall z. forall w. z /\\ w != 0 -> z != 0"),
             "unknown", 0),
            (parse_formula(SEVEN_FORALLS + "a != 0 -> a != 1"), "unknown", 0)]:
        compiles.clear()
        v = valid_all_bas(A)
        assert (v.status, len(v.trace), len(compiles)) == (status, lines, 1), A
    compiles.clear()
    for text in ("0 != 1", "forall z. forall w. z /\\ w == w /\\ z",
                 "forall x. (x != 0 -> forall y. x != 0)"):
        assert valid_all_bas(parse_formula(text)).is_valid
    assert compiles == [] and checks == []


def _sweep_sentences(seed, depth, n):
    # forall z0..z<depth-1>. c != t -> t != c, the shape of the decide
    # workload's family sweeps, with t a seeded term that is not ground
    rng = random.Random(seed)
    zs = [f"z{i}" for i in range(depth)]
    out = []
    while len(out) < n:
        c = rng.choice((ZERO, ONE))
        t = random_bterm(rng, zs, 3)
        if term_vars(t):
            out.append(forall_many(zs, Impl(Neq(c, t), Neq(t, c))))
    return out


def _shared_neq_formulas():
    # one Neq object under both binder orders; its cells differ between the
    # two occurrences, so a value cached per object would be wrong in one
    x, y = Var("x"), Var("y")
    out = []
    for P in (Neq(And(x, Not(y)), ZERO), Neq(Or(x, Not(y)), y),
              Neq(Or(x, Not(x)), And(y, Not(y)))):
        xy = Forall("x", Forall("y", P))
        yx = Forall("y", Forall("x", P))
        out += [Impl(xy, yx), Impl(Impl(xy, bot()), yx),
                Forall("x", Impl(Neq(x, ZERO), Impl(Forall("y", P), yx)))]
    return out


def test_model_check_evaluates_each_inequation_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_term_01(*args)

    monkeypatch.setattr(bamodels, "eval_term_01", counted)
    z0, z1, z2 = Var("z0"), Var("z1"), Var("z2")
    t = Or(And(z0, Not(z1)), And(z2, Or(z1, Not(z0))))
    A = forall_many(["z0", "z1", "z2"], Impl(Neq(ZERO, t), Neq(t, ZERO)))
    for spec in (PowerFinite(4), Atomless()):
        calls.clear()
        assert model_check(A, spec)
        assert len(calls) <= 2 * 2   # two sides of each of two Neqs


@pytest.mark.parametrize("text", [
    "x != 0",
    # the free x sits in a branch that evaluation skips
    "(0 != 0) -> (x != 0)",
    "forall z. (z != 0 -> forall y. x /\\ y != z)",
    # and one under the depth guard, whose body model_check never compiles
    "(0 != 0) -> " + "".join(f"forall z{i}. " for i in range(1, 8)) + "x != 0",
])
def test_open_formulas_are_refused(text):
    A = parse_formula(text)
    for call, message in [
            (lambda: model_check(A, PowerFinite(1)),
             "model_check needs a closed formula, free: ['x']"),
            (lambda: model_check(A, Atomless()),
             "model_check needs a closed formula, free: ['x']"),
            (lambda: valid_all_bas(A),
             "valid_all_bas needs a closed formula, free: ['x']"),
            (lambda: TheoryOracle((PowerFinite(7),)).membership(A),
             "TheoryOracle.membership needs a closed formula, free: ['x']"),
            (lambda: brute_check(A, 1),
             "brute_check needs a closed formula, free: ['x']"),
            (lambda: denote_formula(A),
             "denote_formula needs a closed formula, free: ['x']")]:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == message
    assert classify_horn(A) == HornKind.NOT_HORN


def test_formula_entries_walk_free_vars_once(monkeypatch):
    # each public entry checks a closed formula with one free_vars walk,
    # and nothing past the entry walks again, wherever the package binds it
    calls = []
    original = formulas.free_vars
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "realizability":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(
                        module, key, lambda A: calls.append(A) or original(A))
    entries = [
        lambda A: model_check(A, PowerFinite(2)),
        lambda A: model_check(A, Atomless()),
        valid_all_bas,
        lambda A: brute_check(A, 2),
        TheoryOracle(DEFAULT_FAMILY).membership,
        denote_formula,
        canonical_falsity_stacks,
    ]
    corpus = [a for a in formula_corpus(60, seed=3, height=3, max_qdepth=2)
              if not original(a)]
    assert len(corpus) > 20
    for A in corpus:
        for entry in entries:
            calls.clear()
            try:
                entry(A)
            except GuardExceeded:
                pass
            assert calls == [A], (entry, A)


def test_validity_walks_free_vars_once_at_entry(monkeypatch):
    # a Horn sentence is known closed past the entry check, so reading its
    # Horn shape walks nothing more
    calls = []

    def counted(A):
        calls.append(A)
        return free_vars(A)

    monkeypatch.setattr(formulas, "free_vars", counted)
    for text in ("forall z. forall w. z /\\ w == w /\\ z",
                 "forall z. (z == 1 -> z != 0)"):
        A = parse_formula(text)
        calls.clear()
        v = valid_all_bas(A)
        assert (v.justification, calls) == (Justification.HORN, [A]), text


SEVEN_FORALLS = "".join(f"forall {v}. " for v in "abcdefg")


@pytest.mark.parametrize("matrix", ["a == 0", "0 != 0"])
def test_refutation_past_the_guard(matrix):
    # {0,1} refutes these; filling the trace must not hit the depth guard
    A = parse_formula(SEVEN_FORALLS + matrix)
    assert is_ground(A) or classify_horn(A) is not HornKind.NOT_HORN
    v = valid_all_bas(A)
    assert v.is_refuted and v.witness == PowerFinite(1)
    with pytest.raises(GuardExceeded):
        model_check(A, PowerFinite(1))


def test_valid_ground():
    v = valid_all_bas(parse_formula("0 != 1"))
    assert v.is_valid and v.justification == Justification.GROUND


def test_valid_horn():
    v = valid_all_bas(parse_formula("forall z. forall w. z /\\ w == w /\\ z"))
    assert v.is_valid and v.justification == Justification.HORN


def test_horn_transfer_corpus():
    # a Horn clause true on bits is true in every Boolean algebra
    for a in horn_corpus(150, seed=13):
        bit_truth = eval_formula_01(a, {}) == 1
        for spec in (PowerFinite(2), Atomless()):
            assert model_check(a, spec) == bit_truth


def test_tautology_path():
    A = parse_formula("forall z. (z != 0 -> _|_) -> z != 0 -> 1 != 0")
    v = valid_all_bas(A)
    assert v.is_valid and v.justification == Justification.TAUTOLOGY


def test_refuted_with_witness():
    v = valid_all_bas(parse_formula("forall z. z != 0"))
    assert v.is_refuted
    assert v.witness is not None
    # witness names a family member that refutes the sentence
    assert not model_check(parse_formula("forall z. z != 0"), v.witness)


def test_goal_horn_transfer():
    v = valid_all_bas(parse_formula("forall z. z \\/ ~z != 0"))
    assert v.is_valid and v.justification == Justification.HORN


def test_family_passed_is_unknown_by_default():
    A = parse_formula("forall z. (z != 0 -> z \\/ ~z != 0)")
    v = valid_all_bas(A)
    assert v.status == "unknown"


def test_empty_family_is_refused():
    # no algebra to refute it: {0,1} does, so "unknown (family-passed)"
    # would have checked nothing; an empty iterator is truthy, and
    # TheoryOracle(iter(())) once answered True here
    A = parse_formula("forall z. (z != 0 -> z != 1)")
    assert not brute_check(A, 1)
    for empty in (tuple, iter):
        with pytest.raises(UsageError, match="nonempty family"):
            valid_all_bas(A, family=empty(()))
        with pytest.raises(UsageError, match="nonempty family"):
            TheoryOracle(empty(()))
    assert TheoryOracle(iter(DEFAULT_FAMILY)).membership(A) is False


def test_is_prop_tautology():
    assert is_prop_tautology(parse_formula("z != 0 -> z != 0"))
    assert not is_prop_tautology(parse_formula("z != 0 -> w != 0"))


def _strip_matrix(A):
    # drop every quantifier of the canonical form, keeping the matrix
    if isinstance(A, Forall):
        return _strip_matrix(A.body)
    if isinstance(A, Impl):
        return Impl(_strip_matrix(A.ante), _strip_matrix(A.cons))
    return A


def _reference_prop_tautology(A):
    # the per-assignment evaluator over canon's atoms that the one-pass
    # truth table keyed by binder occurrence replaced
    matrix = _strip_matrix(canon(A))
    atoms, fixed = [], {}

    def collect(f):
        if isinstance(f, Neq):
            if f in atoms or f in fixed:
                return
            if f.lhs == f.rhs:
                fixed[f] = False
            elif is_ground(f):
                fixed[f] = eval_formula_01(f, {}) == 1
            else:
                atoms.append(f)
        else:
            collect(f.ante)
            collect(f.cons)

    collect(matrix)
    if len(atoms) > MAX_PROP_ATOMS:
        return False
    index = {a: i for i, a in enumerate(atoms)}

    def ev(f, bits):
        if isinstance(f, Neq):
            if f in fixed:
                return fixed[f]
            return bool((bits >> index[f]) & 1)
        return (not ev(f.ante, bits)) or ev(f.cons, bits)

    return all(ev(matrix, bits) for bits in range(1 << len(atoms)))


def test_prop_tautology_matches_reference():
    sentences = [a for seed in (1, 2, 3, 4)
                 for a in formula_corpus(200, seed=seed, height=4)]
    sentences += [theta(elem(n, val(n, i)))
                  for n in (1, 2) for i in range(level_size(n))]
    sentences += [theta(elem(3, val(3, i))) for i in (0, 5000, 120548)]
    answers = [is_prop_tautology(a) for a in sentences]
    assert answers == [_reference_prop_tautology(a) for a in sentences]
    assert 0 < sum(answers) < len(answers)


def test_prop_tautology_atom_cap():
    def chain(n):
        # z1 != 0 -> ... -> zn != 0 -> z1 != 0, a tautology over n atoms
        atoms = [Neq(Var(f"z{i}"), ZERO) for i in range(1, n + 1)]
        out = atoms[0]
        for a in reversed(atoms):
            out = Impl(a, out)
        return out

    assert is_prop_tautology(chain(MAX_PROP_ATOMS))
    assert not is_prop_tautology(chain(MAX_PROP_ATOMS + 1))


def test_atoms_are_told_apart_by_binder_occurrence():
    # both x are bound at depth 0, by different quantifiers, so the two
    # x != 0 are different atoms; identifying them by depth would call
    # this sentence, false in {0,1}, a tautology
    A = parse_formula(
        "((forall x. x != 0) -> 0 != 0) -> forall x. (x != 0 -> 0 != 0)")
    assert not is_prop_tautology(A)
    v = valid_all_bas(A)
    assert v.is_refuted and v.witness == PowerFinite(1)
    assert not brute_check(A, 1)
    B = parse_formula("(forall x. x != 0) -> forall x. x != 0")
    assert not is_prop_tautology(B)
    assert valid_all_bas(B).status == "unknown"
    # a binder that the atom does not use does not split it
    C = parse_formula("forall x. (x != 0 -> forall y. x != 0)")
    v = valid_all_bas(C)
    assert v.is_valid and v.justification == Justification.TAUTOLOGY


# Atoms from a small pool over two names, under quantifiers that bind the
# same two names: repeated atoms, shadowing and sibling binders of one
# name are common, and formulas may be open.
_NAMES = ("x", "y")
_sides = st.sampled_from([Var("x"), Var("y"), ZERO, ONE,
                          And(Var("x"), Var("y"))])
_binder_formulas = st.recursive(
    st.builds(Neq, _sides, st.sampled_from([ZERO, Var("x")])),
    lambda sub: st.one_of(st.builds(Impl, sub, sub),
                          st.builds(Forall, st.sampled_from(_NAMES), sub)),
    max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(_binder_formulas)
def test_prop_tautology_matches_reference_under_shadowing(A):
    assert is_prop_tautology(A) == _reference_prop_tautology(A)


def test_validity_front_end_rebuilds_no_terms(monkeypatch):
    # a rank-3 θ reaches the depth guard without a renamed or substituted
    # copy of its terms, wherever the package binds those functions
    thetas = [theta(elem(3, val(3, i))) for i in (0, 33481, 120548)]

    def rebuilt(*args, **kwargs):
        raise AssertionError("the validity front end rebuilt a term")

    for original in (formulas._subst_term, formulas.canon):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "realizability":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, rebuilt)
    with pytest.raises(AssertionError):
        formulas.alpha_eq(thetas[0], thetas[0])
    for A in thetas:
        assert valid_all_bas(A).detail == (
            "guard: quantifier depth 7 exceeds the guard of 6")


def test_oracle_caches_and_answers():
    oracle = TheoryOracle(DEFAULT_FAMILY)
    A = parse_formula("0 != 1")
    assert oracle.membership(A)
    assert oracle.membership(A)
    assert not oracle.membership(parse_formula("forall z. z != 0"))


def test_oracle_closed_under_weakening_spot():
    oracle = TheoryOracle(DEFAULT_FAMILY)
    A = parse_formula("forall z. forall w. z /\\ w == w /\\ z")
    B = Impl(Neq(ZERO, ONE), A)
    assert oracle.membership(A)
    assert oracle.membership(B)


def test_quantifier_cache_spans_the_family():
    # the capped sizes fix each quantifier's verdict, so once PowerFinite(4)
    # has been checked the memo answers for 5 and 6 with no new splits
    A = parse_formula("forall z. forall w. 0 != z /\\ ~w -> z /\\ ~w != 0")

    def misses(family):
        bamodels._splits.cache_clear()
        assert TheoryOracle(family).membership(A)
        return bamodels._splits.cache_info().misses

    alone = misses((PowerFinite(4),))
    assert misses((PowerFinite(4), PowerFinite(5), PowerFinite(6))) == alone
    # each (size, cap) is split once: (4, 2) for z, and (0, 1), (1, 1),
    # (2, 1) for the cells of w's five distinct sizes
    assert alone == 4


def test_split_cache_stays_within_its_bound(monkeypatch):
    # caps are 2^0 .. 2^5 under the depth guard and each size split is at
    # most twice its cap or infinite: at most sum(2 * cap + 2) entries.  A
    # quantifier of lower rank than its binder's body reads sizes past
    # twice its cap, here w's, which are capped before they are split
    calls = _counting(monkeypatch, "_splits")
    _splits.cache_clear()
    inputs = [a for seed in (1, 2, 3, 4)
              for a in formula_corpus(200, seed=seed, height=4)]
    inputs.append(parse_formula(
        "forall x. (forall y. forall z. y /\\ z != 0 -> y /\\ x != 0) -> "
        "forall w. w /\\ x != 0"))
    for a in inputs:
        check = bamodels._compile(a)
        for spec in CAP_SPECS:
            check(spec)
    sizes = {args for args, _ in calls}
    assert all(s <= 2 * cap or s == math.inf for s, cap in sizes)
    assert (2, 1) in sizes and (math.inf, 4) in sizes
    assert _splits.cache_info().currsize == len(sizes) <= sum(
        2 * (1 << r) + 2 for r in range(6)) == 138


def test_theory_decides_ground_and_horn_sentences_as_the_family_sweep():
    # {0,1} decides a ground or Horn sentence for every algebra with at
    # least two elements, so membership answers as the compiled sweep over
    # any family does, wherever that sweep answers
    sentences = [a for height in range(2, 6) for seed in range(4)
                 for a in formula_corpus(400, seed=seed, height=height,
                                         max_qdepth=4)
                 if is_ground(a) or classify_horn(a) is not HornKind.NOT_HORN]
    families = (DEFAULT_FAMILY, (Atomless(),), (PowerFinite(3),),
                (PowerFinite(1), Atomless()))
    compared = 0
    for A in sentences:
        check = bamodels._compile(A)
        for family in families:
            try:
                swept = all(check(spec) is None for spec in family)
            except GuardExceeded:
                continue
            assert TheoryOracle(family).membership(A) == swept, (family, A)
            compared += 1
    assert compared == 4 * len(sentences) == 17036


def test_theory_answers_a_horn_sentence_past_the_guards():
    # no algebra of the family is consulted: seven quantifiers and a
    # 7-atom algebra answer, as validity does
    seven = parse_formula("forall a. forall b. forall c. forall d. "
                          "forall e. forall f. forall g. a != 0")
    assert valid_all_bas(seven).is_refuted
    for family in (DEFAULT_FAMILY, (PowerFinite(7),)):
        assert TheoryOracle(family).membership(seven) is False
        assert TheoryOracle(family).membership(
            parse_formula("forall z. z \\/ ~z == 1")) is True
    with pytest.raises(GuardExceeded, match="guard of 6"):
        TheoryOracle().membership(parse_formula(
            "forall a. forall b. forall c. forall d. forall e. forall f. "
            "forall g. a != 0 -> a != 1"))


SEVEN = ("forall a. forall b. forall c. forall d. forall e. forall f. "
         "forall g. ")


def test_theory_answers_a_tautology_past_the_guards(monkeypatch):
    # neither ground nor Horn: the family sweep meets the depth guard, and
    # the tautology step answers as validity's does; a sweep that answers
    # never runs the step
    taut = parse_formula(SEVEN + "a != 0 -> a != 0")
    assert valid_all_bas(taut) == Verdict("valid", Justification.TAUTOLOGY)
    calls = _counting(monkeypatch, "is_prop_tautology")
    assert TheoryOracle().membership(taut) is True
    assert len(calls) == 1
    assert TheoryOracle().membership(
        parse_formula("forall z. z != 0 -> z != 1")) is False
    assert len(calls) == 1


def _wide_goal(n, text):
    return parse_formula("".join(f"forall a{i}. " for i in range(n)) + text)


def test_horn_goal_past_the_read_bound_is_refuted_with_the_extra_held_at_0():
    # fifteen read variables: a0 is held at 0 and a1..a14 are tried
    n = MAX_PROP_ATOMS + 1
    names = [f"a{i}" for i in range(n)]
    fails_at_0 = _wide_goal(n, " \\/ ".join(names) + " != 0")
    assert bamodels._in_01(fails_at_0) == (Justification.HORN, False)
    v = valid_all_bas(fails_at_0)
    assert (v.status, v.witness) == ("refuted", PowerFinite(1))
    assert TheoryOracle().membership(fails_at_0) is False
    # false only with a0 = 1, which is never tried: {0,1} does not
    # answer, and the family's depth guard does
    fails_at_1 = _wide_goal(n, " \\/ ".join(["~a0"] + names[1:]) + " != 0")
    assert bamodels._in_01(fails_at_1) is None
    assert valid_all_bas(fails_at_1).status == "unknown"
    with pytest.raises(GuardExceeded):
        TheoryOracle().membership(fails_at_1)
    # a definite clause true in {0,1} is not decided there either
    holds = _wide_goal(n, " /\\ ".join(names) + " == " + " /\\ ".join(names))
    assert bamodels._in_01(holds) is None
