import itertools

import pytest
from hypothesis import given, settings, strategies as st

from realizability.corpus import (
    exhaustive_formulas_height2, formula_corpus, process_corpus,
)
from realizability.formulas import (
    Forall, Impl, Neq, ONE, UsageError, Var, ZERO, bot, eval_term_01,
    free_vars, subst_formula,
)
from realizability.lcterms import (
    CC, EMPTY, Gamma, Kont, Lam, LVar, App, Process, SPush, canon_process,
    check_closed, constraint_of, free_lvars, iter_tags, proc_alpha_eq,
    stack_of, stack_to_list, subst_lc,
)
from realizability import pole
from realizability.machine import evaluate, step
from realizability.pole import (
    PoleConfig, _premises, _witnesses,
    canonical_falsity_stacks, constraint_check, in_pole, in_pole_limit,
    realizes_bounded,
)
from realizability.syntax import parse_formula, parse_lcterm, parse_process


@pytest.fixture()
def cfg():
    return PoleConfig()


def test_false_tag_enters_at_one(cfg):
    assert in_pole_limit(parse_process("g{_|_} * []"), cfg) == 1


def test_true_tag_never_enters(cfg):
    p = parse_process("g{0 != 1} * []")
    assert in_pole_limit(p, cfg) is None
    for pi in ("cc . []", "g{_|_} . []"):
        assert in_pole_limit(parse_process(f"g{{0 != 1}} * {pi}"), cfg) is None


def test_implication_consumes_stack(cfg):
    # the refutable premise hands its obligation to the pushed term
    p = parse_process("g{_|_ -> _|_} * g{_|_} . []")
    assert in_pole_limit(p, cfg) == 2
    # a true premise generates no obligation at all
    q = parse_process("g{0 != 1 -> _|_} * g{_|_} . []")
    assert in_pole_limit(q, cfg) == 1


def test_machine_step_counts(cfg):
    p = parse_process("(\\x. x) g{_|_} * []")
    assert in_pole_limit(p, cfg) == 3


def test_cc_alone_absent(cfg):
    assert in_pole_limit(parse_process("cc * []"), cfg) is None


def test_cumulativity(cfg):
    p = parse_process("g{_|_} * []")
    for k in (1, 2, 5, 20):
        assert in_pole(p, k, cfg)
    assert not in_pole(p, 0, cfg)


def test_saturation_under_antireduction(cfg):
    # if a reduct is in the pole at k, the redex is in at k + steps
    q = parse_process("g{_|_} * []")
    p = parse_process("(\\x. \\y. x) g{_|_} (\\x. x) * []")
    kq = in_pole_limit(q, cfg)
    kp = in_pole_limit(p, cfg)
    assert kq is not None and kp is not None and kp > kq


def test_forall_tag_obligations(cfg):
    # every 0/1 instance with a true head must discharge
    p = parse_process("g{forall z. z \\/ ~z != 0} * []")
    assert in_pole_limit(p, cfg) is None
    q = parse_process("g{forall z. z /\\ ~z != 0} * []")
    assert in_pole_limit(q, cfg) == 1


def test_canonical_falsity_stacks_shapes():
    stacks = canonical_falsity_stacks(parse_formula("_|_"), depth=2)
    assert stacks
    assert canonical_falsity_stacks(parse_formula("forall z. z != 0"), depth=2)
    # a true inequation is opposed by nothing
    assert canonical_falsity_stacks(parse_formula("0 != 1"), depth=2) == []
    A_true_forall = parse_formula("forall z. z \\/ ~z != 0")
    assert canonical_falsity_stacks(A_true_forall, depth=2) == []


def test_falsity_stack_counts_by_depth():
    A = parse_formula("forall z. ((forall w. w != z) -> z != 1)")
    counts = [len(canonical_falsity_stacks(A, d)) for d in (0, 1, 2)]
    assert counts == [1, 2, 3]
    for depth in (-1, 3):
        with pytest.raises(UsageError, match="0..2"):
            canonical_falsity_stacks(A, depth)


def test_identity_realizes_commutativity(cfg):
    A = parse_formula("forall z. forall w. z /\\ w == w /\\ z")
    rep = realizes_bounded(parse_lcterm("\\x. x"), A, cfg)
    assert rep.clean and rep.results


def test_bad_realizer_reported(cfg):
    A = parse_formula("0 == 0")
    rep = realizes_bounded(parse_lcterm("g{0 != 1}"), A, cfg)
    assert not rep.clean
    assert rep.failures


def test_gamma_of_formula_realizes_it(cfg):
    for src in ("_|_", "0 != 1 -> _|_", "forall z. z != z"):
        A = parse_formula(src)
        rep = realizes_bounded(Gamma(A), A, cfg)
        assert rep.clean, (src, rep.failures)


def test_long_stacks_cost_no_recursion():
    # the machine grows stacks of thousands of entries from short inputs
    tags = [Neq(ZERO, ONE), bot(), Neq(ONE, ONE)]
    entries = [Gamma(tags[0]), Lam("x", App(LVar("x"), Gamma(tags[1]))),
               Kont(stack_of(Gamma(tags[2])))]
    p = Process(CC, stack_of(*[CC] * 5000, *entries))
    assert list(iter_tags(p)) == tags

    def identities(name, n):
        return Process(CC, stack_of(*[Lam(name, LVar(name))] * n))

    assert canon_process(identities("x", 5000)) == \
        canon_process(identities("y", 5000))
    assert canon_process(identities("x", 5000)) != \
        canon_process(identities("x", 4999))


def test_constraint_check():
    ok = constraint_check(parse_process("g{0 != 0} * []"))
    assert ok.status in ("valid", "unknown")
    bad = constraint_check(parse_process("g{0 != 1} * []"))
    assert bad.is_refuted
    with pytest.raises(UsageError, match="valid_all_bas needs a closed"):
        constraint_check(parse_process("g{z != 0} * []"))
    assert constraint_of(parse_process("cc * []")) is not None


# The per-k ladder that in_pole's least-level recursion replaced, kept as
# an independent reference: it decides p ∈ ⫫_k from the definition for
# k = 1, 2, ... and memoises every machine step under (process, k).  It
# reads a tag's spine on its own, renaming each spine quantifier apart to
# a name the parser cannot produce, so no binder shadows another.

def _ladder_spine(A, fresh):
    """Blocks of (renamed variables, premise), all renamed variables, and
    the head of A's spine."""
    blocks, names = [], []
    while True:
        vs = []
        while isinstance(A, Forall):
            vs.append(f"!l{next(fresh)}")
            A = subst_formula(A.body, [A.var], [Var(vs[-1])])
        names += vs
        if isinstance(A, Neq):
            return blocks, names, A
        blocks.append((vs, A.ante))
        A = A.cons


def _ladder_bits(names, head, env):
    for bits in itertools.product((0, 1), repeat=len(names)):
        ext = {**env, **dict(zip(names, bits))}
        if eval_term_01(head.lhs, ext) == eval_term_01(head.rhs, ext):
            yield ext


def _ladder_in_pole(p, k, memo):
    if k <= 0:
        return False
    key = (canon_process(p), k)
    if key not in memo:
        memo[key] = _ladder_raw(p, k, memo)
    return memo[key]


def _ladder_raw(p, k, memo):
    s = step(p)
    q = s[0] if s else None
    if q is not None and _ladder_in_pole(q, k - 1, memo):
        return True
    if not isinstance(p.term, Gamma):
        return False
    fresh = itertools.count()
    blocks, names, head = _ladder_spine(p.term.tag, fresh)
    inner = [_ladder_spine(A, fresh) for _, A in blocks]
    entries = stack_to_list(p.stack)
    if len(entries) < len(blocks):
        return False
    pi = p.stack
    for _ in blocks:
        pi = pi.tail

    def premise(t, sub_tags, env):
        tags = [subst_formula(A, list(env), [ONE if env[n] else ZERO
                                             for n in env]) for A in sub_tags]
        return Process(t, stack_of(*map(Gamma, tags), tail=pi))

    return any(all(_ladder_in_pole(premise(t, [A for _, A in iblocks],
                                           delta), k - 1, memo)
                   for t, (iblocks, inames, ihead) in zip(entries, inner)
                   for delta in _ladder_bits(inames, ihead, beta))
               for beta in _ladder_bits(names, head, {}))


def ladder_limit(p, k_max, memo):
    return next((k for k in range(1, k_max + 1)
                 if _ladder_in_pole(p, k, memo)), None)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_least_level_matches_ladder_on_corpus(seed, k_max):
    cfg, memo = PoleConfig(k_max=k_max), {}
    for p in process_corpus(40, seed):
        assert in_pole_limit(p, cfg) == ladder_limit(p, k_max, memo), p


def _renamed_apart(x, fresh):
    """x with every lambda binder and every tag binder renamed to a name
    of its own, drawn from `fresh`."""
    if isinstance(x, Process):
        return Process(_renamed_apart(x.term, fresh),
                       _renamed_apart(x.stack, fresh))
    if isinstance(x, SPush):
        return SPush(_renamed_apart(x.head, fresh),
                     _renamed_apart(x.tail, fresh))
    if isinstance(x, App):
        return App(_renamed_apart(x.fn, fresh), _renamed_apart(x.arg, fresh))
    if isinstance(x, Lam):
        y = f"y{next(fresh)}"
        return Lam(y, _renamed_apart(subst_lc(x.body, x.var, LVar(y)), fresh))
    if isinstance(x, Kont):
        return Kont(_renamed_apart(x.stack, fresh))
    if isinstance(x, Gamma):
        return Gamma(_renamed_tag(x.tag, fresh))
    return x


def _renamed_tag(A, fresh):
    if isinstance(A, Forall):
        u = f"u{next(fresh)}"
        body = subst_formula(A.body, [A.var], [Var(u)])
        return Forall(u, _renamed_tag(body, fresh))
    if isinstance(A, Impl):
        return Impl(_renamed_tag(A.ante, fresh), _renamed_tag(A.cons, fresh))
    return A


def _corpus_with_tag_binders(seed):
    """The seeded corpus processes, and each one's term and stack pushed
    under a tag from the seeded formula corpus, whose binders reach the
    premise processes."""
    ps = process_corpus(40, seed)
    return ps + [Process(Gamma(A), SPush(p.term, p.stack))
                 for p, A in zip(ps, formula_corpus(40, seed))]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_renaming_binders_apart_keeps_the_level(seed, k_max):
    # the pole's memo keys on processes as written, not up to alpha, so
    # an original and its renamed copy are asked apart, through one memo,
    # and must enter at the same level; the ladder keys on canon_process
    cfg, memo, fresh = PoleConfig(k_max=k_max), {}, itertools.count()
    for p in _corpus_with_tag_binders(seed):
        q = _renamed_apart(p, fresh)
        assert proc_alpha_eq(p, q)
        level = in_pole_limit(p, cfg)
        assert in_pole_limit(q, cfg) == level == ladder_limit(q, k_max, memo)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memo_key_equal_iff_processes_equal(seed):
    # a second build of the corpus gives equal processes that are other
    # objects; a renamed copy of one with a binder is alpha-equivalent but
    # not ==; the written pairs differ only in which binder a variable
    # names, or in shape
    ps = _corpus_with_tag_binders(seed)
    ps += _corpus_with_tag_binders(seed)
    ps += [parse_process(src) for src in (
        r"(\x. \y. x) * []", r"(\x. \y. y) * []",
        r"(\x. x) cc * []", r"(\x. x cc) * []")]
    ps += [_renamed_apart(p, itertools.count()) for p in ps[:len(ps) // 2]]
    keys = [pole._memo_key(p) for p in ps]
    assert len(set(keys)) < len(keys)
    for p, kp in zip(ps, keys):
        for q, kq in zip(ps, keys):
            assert (kp == kq) == (p == q), (p, q)


# closed tags whose spine rebinds a name that an earlier premise reads
SHADOWING_TAGS = [
    "forall z. (z == 0 -> forall z. z != 1)",
    "forall z. ((forall w. w != z) -> forall z. (z == 1 -> forall w. w != z))",
    "forall z. (z != 0 -> forall z. (z != 1 -> z != 0))",
    "forall z. ((z == 1 -> forall z. z != 0) -> forall z. z != 1)",
    "forall z. ((forall z. (z == 0 -> z != 1)) -> z != 0)",
]


@pytest.mark.parametrize("k_max", [1, 2, 3, 32])
def test_realizes_bounded_matches_ladder(k_max):
    cfg, memo = PoleConfig(k_max=k_max), {}
    shadowing = [parse_formula(src) for src in SHADOWING_TAGS]
    for A in exhaustive_formulas_height2() + shadowing:
        for pi, k in realizes_bounded(Gamma(A), A, cfg).results:
            assert k == ladder_limit(Process(Gamma(A), pi), k_max, memo), A


def _identity_chain(n):
    t = Gamma(bot())
    for _ in range(n):
        t = App(Lam("x", LVar("x")), t)
    return Process(t, EMPTY)


def _cc_chain(n):
    t = Gamma(bot())
    for _ in range(n):
        t = App(CC, Lam("k", App(LVar("k"), t)))
    return Process(t, EMPTY)


@pytest.mark.parametrize("n", [1, 10, 60])
@pytest.mark.parametrize("chain, per_layer", [(_identity_chain, 2),
                                              (_cc_chain, 5)])
def test_chain_levels_closed_form(chain, per_layer, n):
    # a Push and a Grab per identity redex; Push, Save, Grab, Push and
    # Restore per cc layer; then g{_|_} enters at 1
    level = per_layer * n + 1
    cfg = PoleConfig(k_max=level + 8)
    assert in_pole_limit(chain(n), cfg) == level
    assert len(cfg.memo) <= 2
    assert in_pole(chain(n), level - 1, cfg) is None


def test_deep_budgets_need_no_deep_python_stack():
    # a long machine run and a tag that re-presents itself every five
    # steps each nest their questions about as deep as the budget
    assert in_pole_limit(_identity_chain(600), PoleConfig(k_max=1210)) == 1201
    w = r"(\y. \x. g{(_|_ -> _|_) -> _|_} (y y))"
    loop = parse_process(f"{w} {w} * g{{0 != 1}} . []")
    assert in_pole_limit(loop, PoleConfig(k_max=6000)) is None


# Closedness is checked where processes enter; the machine and the premise
# construction must keep it, which these tests cross-check.

def _open_parts(x):
    """Every open term in x: its process term or any stack entry, in x's
    stack or inside a k[...] anywhere in x."""
    if isinstance(x, Process):
        return ([x.term] if free_lvars(x.term) else []) + \
            _open_parts(x.term) + _open_parts(x.stack)
    if isinstance(x, SPush):
        return ([x.head] if free_lvars(x.head) else []) + \
            _open_parts(x.head) + _open_parts(x.tail)
    if isinstance(x, App):
        return _open_parts(x.fn) + _open_parts(x.arg)
    if isinstance(x, Lam):
        return _open_parts(x.body)
    if isinstance(x, Kont):
        return _open_parts(x.stack)
    return []


def _criterion_7_processes():
    ident = Lam("x", LVar("x"))
    return [Process(Gamma(bot()), EMPTY),
            *(Process(Gamma(Neq(ZERO, ONE)), pi)
              for pi in (EMPTY, stack_of(Gamma(bot())), stack_of(ident))),
            Process(Gamma(Impl(bot(), bot())), stack_of(Gamma(bot()))),
            Process(App(ident, Gamma(bot())), EMPTY)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_machine_keeps_processes_closed(seed):
    procs = process_corpus(300, seed) + _criterion_7_processes() + [
        chain(n) for chain in (_identity_chain, _cc_chain) for n in (1, 10, 60)]
    steps = 0
    for p in procs:
        tr = evaluate(p, fuel=300)
        for q in [q for q, _ in tr.steps] + [tr.final]:
            assert _open_parts(q) == [], (p, q)
            steps += 1
    assert steps > 1000


def test_premises_are_closed():
    # the criterion 5/6 tags, each facing its canonical falsity stacks
    corpus = exhaustive_formulas_height2()
    corpus += [a for a in formula_corpus(130, seed=43, height=3, max_qdepth=3)
               if not free_vars(a)][:100]
    corpus += [parse_formula(src) for src in SHADOWING_TAGS]
    premises = 0
    for a in corpus:
        for pi in canonical_falsity_stacks(a):
            assert _open_parts(pi) == [], (a, pi)
            assert not any(map(free_vars, iter_tags(pi))), (a, pi)
            for witness in _witnesses(a):
                ts = stack_to_list(pi)[:len(witness)]
                rest = pi
                for _ in ts:
                    rest = rest.tail
                for q in _premises(witness, ts, rest):
                    assert _open_parts(q) == [], (a, q)
                    assert not any(map(free_vars, iter_tags(q))), (a, q)
                    premises += 1
    assert premises > 1000


def test_in_pole_checks_closedness_at_entry():
    # processes built directly; the parser reads syntax only, so these parse too
    x = LVar("x")
    with pytest.raises(UsageError, match="process terms must be closed"):
        in_pole_limit(Process(x, EMPTY))
    with pytest.raises(UsageError, match="stack entries must be closed"):
        in_pole_limit(Process(CC, stack_of(x)))
    # an open entry of a k[...] under a binder: the term itself is closed
    open_kont = Lam("x", Kont(stack_of(x)))
    with pytest.raises(UsageError, match="stack entries must be closed"):
        in_pole_limit(Process(App(open_kont, CC), stack_of(Gamma(bot()))))
    with pytest.raises(UsageError, match="stack entries must be closed"):
        in_pole_limit(Process(CC, stack_of(App(CC, open_kont))))
    with pytest.raises(UsageError, match="stack entries must be closed"):
        realizes_bounded(App(open_kont, CC), bot())
    # and one nested a level deeper, inside a closed k[...]
    nested = Kont(stack_of(Kont(stack_of(x))))
    with pytest.raises(UsageError, match="stack entries must be closed"):
        in_pole_limit(Process(CC, stack_of(nested)))
    # a free lambda variable is reported before an open tag
    open_tag = Gamma(parse_formula("z != 0"))
    with pytest.raises(UsageError, match="process terms must be closed"):
        in_pole_limit(Process(App(Lam("y", open_tag), x), EMPTY))
    with pytest.raises(UsageError, match="open instruction tag"):
        in_pole_limit(Process(CC, stack_of(Kont(stack_of(open_tag)))))


def test_realizes_bounded_checks_once(monkeypatch):
    # t and A are checked at entry; the falsity stacks are closed by
    # construction, so none of them is checked again
    calls = []
    monkeypatch.setattr(pole, "check_closed",
                        lambda p: calls.append(p) or check_closed(p))
    A = parse_formula("forall z. forall w. z /\\ w == w /\\ z")
    rep = realizes_bounded(Lam("x", LVar("x")), A, PoleConfig(k_max=8))
    assert len(rep.results) > 1 and len(calls) == 1
