import random

from hypothesis import given, settings, strategies as st

from realizability.corpus import random_lcterm
from realizability.lcterms import (
    CC, EMPTY, Cc, Gamma, Kont, Lam, LVar, App, Process, free_lvars,
    stack_of, subst_lc,
)
from realizability.formulas import bot
from realizability.machine import evaluate, step
from realizability.syntax import parse_process, print_process


ID = Lam("x", LVar("x"))


def test_push_rule():
    p = Process(App(ID, CC), EMPTY)
    q, rule = step(p)
    assert rule == "Push"
    assert q == Process(ID, stack_of(CC))


def test_grab_rule():
    p = Process(ID, stack_of(CC))
    q, rule = step(p)
    assert rule == "Grab"
    assert q == Process(CC, EMPTY)


def test_save_rule():
    p = Process(CC, stack_of(ID))
    q, rule = step(p)
    assert rule == "Save"
    assert q == Process(ID, stack_of(Kont(EMPTY)))


def test_restore_rule():
    p = Process(Kont(stack_of(ID)), stack_of(CC, Gamma(bot())))
    q, rule = step(p)
    assert rule == "Restore"
    assert q == Process(CC, stack_of(ID))


def test_stuck_states():
    assert step(Process(ID, EMPTY)) is None
    assert step(Process(Gamma(bot()), EMPTY)) is None
    assert step(Process(CC, EMPTY)) is None


def test_evaluate_trace():
    tr = evaluate(parse_process("(\\x. x) cc * []"))
    assert [r for _, r in tr.steps] == ["Push", "Grab"]
    assert tr.stuck
    assert print_process(tr.final) == "cc * []"


def test_fuel_exhaustion():
    omega = parse_process("(\\x. x x) (\\x. x x) * []")
    tr = evaluate(omega, fuel=7)
    assert not tr.stuck
    assert len(tr.steps) == 7


def test_call_cc_discards_context():
    # cc applied to a constant function throws the saved stack away
    p = parse_process("cc (\\k. \\y. y) * g{_|_} . []")
    tr = evaluate(p)
    assert tr.stuck
    assert print_process(tr.final) == "g{0 != 0} * []"


def test_kont_restores_saved_stack():
    p = parse_process("cc (\\k. k cc) * g{_|_} . []")
    tr = evaluate(p)
    assert tr.stuck
    # the restored stack puts the tag back on top, then cc saves again
    assert print_process(tr.final) == "g{0 != 0} * k[] . []"


def test_determinism():
    from realizability.corpus import process_corpus
    for p in process_corpus(120, seed=3):
        r1, r2 = step(p), step(p)
        assert r1 == r2


# The simultaneous capture-avoiding substitution that subst_lc replaced,
# kept as a reference: with a closed substituend it never renames, so the
# one-variable subst_lc must return exactly the same term.

def _fresh_lvar(avoid, base):
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def _reference_subst(t, mapping):
    if not mapping:
        return t
    if isinstance(t, LVar):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(_reference_subst(t.fn, mapping),
                   _reference_subst(t.arg, mapping))
    if isinstance(t, Lam):
        inner = {k: v for k, v in mapping.items() if k != t.var}
        if not inner:
            return t
        clash = set().union(*(free_lvars(v) for v in inner.values()))
        if t.var in clash:
            avoid = clash | free_lvars(t.body) | set(inner)
            new = _fresh_lvar(avoid, t.var)
            body = _reference_subst(t.body, {t.var: LVar(new)})
            return Lam(new, _reference_subst(body, inner))
        return Lam(t.var, _reference_subst(t.body, inner))
    assert isinstance(t, (Cc, Kont, Gamma))
    return t


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["x0", "x1", "x2"]),
       st.integers(0, 6), st.integers(0, 4))
def test_subst_lc_matches_capture_avoiding_reference(seed, x, depth, udepth):
    # random_lcterm names its binders x1, x2, ... below the free x, so a
    # free x1 or x2 is shadowed by an inner binder in some bodies
    rng = random.Random(seed)
    body = random_lcterm(rng, (x,), depth)
    u = random_lcterm(rng, (), udepth)
    assert not free_lvars(u)
    assert subst_lc(body, x, u) == _reference_subst(body, {x: u})
