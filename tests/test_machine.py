from realizability.lcterms import (
    CC, EMPTY, Gamma, Kont, Lam, LVar, App, Process, stack_of,
)
from realizability.formulas import bot
from realizability.machine import evaluate, step, step1
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


def test_step1_matches_step():
    p = parse_process("(\\x. x x) (\\x. x x) * []")
    assert step1(p) == step(p)[0]


def test_evaluate_trace():
    tr = evaluate(parse_process("(\\x. x) cc * []"))
    assert [r for _, r in tr.steps] == ["Push", "Grab"]
    assert tr.stuck and not tr.exhausted
    assert print_process(tr.final) == "cc * []"


def test_fuel_exhaustion():
    omega = parse_process("(\\x. x x) (\\x. x x) * []")
    tr = evaluate(omega, fuel=7)
    assert tr.exhausted and not tr.stuck
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
