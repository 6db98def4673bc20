"""Machine-term nodes: slotted and frozen, App and Lam keep their printed
text, and the machine and substitution dispatch on the exact class.  Each
is checked against a plain reference that keeps nothing and reads classes
with isinstance."""

import copy
import dataclasses
import pickle

import pytest

from realizability.corpus import process_corpus
from realizability.formulas import bot
from realizability.lcterms import (
    CC, EMPTY, App, Cc, Gamma, Kont, Lam, LVar, Process, SEmpty, SPush,
    stack_of, stack_to_list, walk,
)
from realizability.machine import evaluate
from realizability.syntax import (
    parse_lcterm, parse_process, parse_stack, print_formula, print_lcterm,
    print_process, print_stack,
)


# -- reference printer: recursive, keeps no text ---------------------------

def _ref_lcterm(t, prec=0):
    if isinstance(t, LVar):
        return t.name
    if isinstance(t, App):
        s = f"{_ref_lcterm(t.fn, 1)} {_ref_lcterm(t.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, Lam):
        s = f"\\{t.var}. {_ref_lcterm(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, Cc):
        return "cc"
    if isinstance(t, Kont):
        return ("k[" + ", ".join(_ref_lcterm(u, 0)
                                 for u in stack_to_list(t.stack)) + "]")
    if isinstance(t, Gamma):
        return "g{" + print_formula(t.tag) + "}"
    raise TypeError(t)


def _ref_stack(pi):
    return " . ".join([_ref_lcterm(u, 1) for u in stack_to_list(pi)] + ["[]"])


def _ref_process(p):
    return f"{_ref_lcterm(p.term, 1)} * {_ref_stack(p.stack)}"


OMEGA = "(\\x. x x) (\\x. x x) * []"
CC_RUN = "cc (\\k. k (\\x. x) g{_|_}) * (\\y. y) . []"


def _processes():
    out = [p for seed in range(6) for p in process_corpus(100, seed)]
    for src, fuel in ((OMEGA, 2000), (CC_RUN, 1000)):
        tr = evaluate(parse_process(src), fuel)
        out += [state for state, _ in tr.steps] + [tr.final]
    return out


def _check_process(p):
    """p, its stack and every term node in it, the entries of each k[...]
    included, printed twice at every precedence against the reference;
    the second print reads what the first one kept."""
    want = _ref_process(p)
    assert print_process(p) == want and print_process(p) == want
    assert print_stack(p.stack) == print_stack(p.stack) == _ref_stack(p.stack)
    for t, _, _ in walk(p):
        if isinstance(t, (SPush, SEmpty)):
            continue
        for prec in (0, 1, 2):
            want = _ref_lcterm(t, prec)
            assert print_lcterm(t, prec) == want, (t, prec)
            assert print_lcterm(t, prec) == want, (t, prec)
    assert parse_process(print_process(p)) == p


def test_kept_text_matches_the_reference_whole_first():
    for p in _processes():
        _check_process(p)


def test_kept_text_matches_the_reference_parts_first():
    # a fresh copy holds no text; its innermost nodes are printed first,
    # so each parent's print stops at children that already hold theirs
    for p in _processes():
        fresh = copy.deepcopy(p)
        nodes = [t for t, _, _ in walk(fresh)
                 if not isinstance(t, (SPush, SEmpty))]
        for t in reversed(nodes):
            assert print_lcterm(t, 1) == _ref_lcterm(t, 1)
        _check_process(fresh)


def test_kept_text_of_k_entries_and_spines():
    t = parse_lcterm("k[(\\x. x) cc, \\y. y y, cc cc cc]")
    entries = stack_to_list(t.stack)
    assert [print_lcterm(u, 0) for u in entries] == [
        "(\\x. x) cc", "\\y. y y", "cc cc cc"]
    assert print_lcterm(t) == _ref_lcterm(t) == (
        "k[(\\x. x) cc, \\y. y y, cc cc cc]")
    assert [print_lcterm(u, 2) for u in entries] == [
        "((\\x. x) cc)", "(\\y. y y)", "(cc cc cc)"]
    # a spine whose middle link already holds its text
    mid = parse_lcterm("cc cc cc")
    print_lcterm(mid)
    top = App(App(mid, CC), Lam("x", mid))
    assert print_lcterm(top) == _ref_lcterm(top) == (
        "cc cc cc cc (\\x. cc cc cc)")
    assert print_stack(stack_of(top, mid)) == _ref_stack(stack_of(top, mid))


def test_a_3000_application_spine_prints_without_recursion():
    src = "(\\x. x) " * 3000 + "g{_|_}"
    t = parse_lcterm(src)
    assert print_lcterm(t) == print_lcterm(t) == src.replace("_|_", "0 != 0")
    pi = parse_stack(f"({src}) . []")
    assert print_stack(pi).count("\\x. x") == 3000


# -- the nodes themselves --------------------------------------------------

def _samples():
    lam = Lam("x", App(LVar("x"), CC))
    pi = stack_of(lam, Kont(stack_of(Gamma(bot()))))
    return [LVar("x"), App(lam, CC), lam, CC, Kont(pi), Gamma(bot()),
            EMPTY, pi, Process(App(lam, lam), pi)]


def test_kept_text_is_no_field():
    assert [f.name for f in dataclasses.fields(App)] == ["fn", "arg"]
    assert [f.name for f in dataclasses.fields(Lam)] == ["var", "body"]
    printed, fresh = parse_process(OMEGA), parse_process(OMEGA)
    print_process(printed)
    assert printed.term._text is not None
    assert printed.term.fn._text is not None
    assert fresh.term._text is None and fresh.term.fn._text is None
    for a, b in [(printed, fresh), (printed.term, fresh.term),
                 (printed.term.fn, fresh.term.fn)]:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.fields(a) == dataclasses.fields(b)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)
    assert repr(fresh.term.fn) == (
        "Lam(var='x', body=App(fn=LVar(name='x'), arg=LVar(name='x')))")


def test_nodes_are_slotted_and_frozen():
    assert {type(t) for t in _samples()} == {
        LVar, App, Lam, Cc, Kont, Gamma, SEmpty, SPush, Process}
    for t in _samples():
        assert not hasattr(t, "__dict__"), t
        # a slot that no __init__ wrote raises AttributeError when read,
        # so reading every slot catches a constructor that forgets one
        blank = object.__new__(type(t))
        for name in type(t).__slots__:
            getattr(t, name)
            with pytest.raises(AttributeError):
                getattr(blank, name)
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, getattr(t, f.name))
    for t in (App(CC, CC), Lam("x", CC)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            t._text = "cc"


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_rebuild_the_kept_text(clone):
    for t in _samples():
        text = (print_process(t) if isinstance(t, Process)
                else print_stack(t) if isinstance(t, (SPush, SEmpty))
                else print_lcterm(t))
        twin = clone(t)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
        if isinstance(t, (App, Lam)):
            assert t._text is not None and twin._text is None
        printed = (print_process(twin) if isinstance(t, Process)
                   else print_stack(twin) if isinstance(t, (SPush, SEmpty))
                   else print_lcterm(twin))
        assert printed == text


# -- reference machine: isinstance chains, its own substitution -------------

def _ref_subst(t, x, u):
    if isinstance(t, LVar):
        return u if t.name == x else t
    if isinstance(t, App):
        return App(_ref_subst(t.fn, x, u), _ref_subst(t.arg, x, u))
    if isinstance(t, Lam):
        return t if t.var == x else Lam(t.var, _ref_subst(t.body, x, u))
    return t


def _ref_step(p):
    t, pi = p.term, p.stack
    if isinstance(t, App):
        return Process(t.fn, SPush(t.arg, pi)), "Push"
    if isinstance(pi, SPush):
        if isinstance(t, Lam):
            return Process(_ref_subst(t.body, t.var, pi.head), pi.tail), "Grab"
        if isinstance(t, Cc):
            return Process(pi.head, SPush(Kont(pi.tail), pi.tail)), "Save"
        if isinstance(t, Kont):
            return Process(pi.head, t.stack), "Restore"
    return None


def test_evaluate_matches_the_isinstance_reference():
    runs = rules = 0
    for seed in range(6):
        for p in process_corpus(100, seed):
            tr = evaluate(p, fuel=200)
            steps, cur = [], p
            for _ in range(200):
                s = _ref_step(cur)
                if s is None:
                    break
                steps.append((cur, s[1]))
                cur = s[0]
            assert tr.steps == steps and tr.final == cur
            assert tr.stuck == (_ref_step(cur) is None)
            runs += 1
            rules += len(steps)
    assert runs == 600 and rules > 1000
