"""Deterministic stack machine for the lambda calculus with call/cc.

A process is a closed term facing a stack of closed terms.  At most one of
four rules can fire at any time:

    Push     (t u) * pi        ->  t * u . pi
    Grab     (\\x. v) * t . pi  ->  v[x := t] * pi
    Save     cc * t . pi       ->  t * k[pi] . pi
    Restore  k[pi2] * t . pi1  ->  t * pi2

Processes where no rule applies are stuck and reported as such; tagged
instructions never reduce here.  Substitution-based, no closures.

Every rule keeps the terms closed, the entries of each k[...] included, so
closedness is checked where processes enter (`evaluate`, `pole.in_pole`,
`pole.realizes_bounded`), each time by `lcterms.check_closed`, never per
step.
Push: t and u are subterms of the closed t u.  Grab: only x is free in v
and t is closed, so v[x := t] is closed, and no binder in v can capture t.
Save: t and the entries of k[pi] are entries of pi.  Restore: t is an
entry of the stack, and pi2's entries were inside k[pi2].
"""

from __future__ import annotations

from dataclasses import dataclass

from .lcterms import App, Cc, Kont, Lam, Process, SPush, check_closed, subst_lc


def step(p: Process) -> tuple[Process, str] | None:
    """The unique successor and the rule that produced it, if any.  The
    rule is chosen by the exact class of the term and of the stack."""
    t, pi = p.term, p.stack
    cls = type(t)
    if cls is App:
        return Process(t.fn, SPush(t.arg, pi)), "Push"
    if type(pi) is SPush:
        if cls is Lam:
            return Process(subst_lc(t.body, t.var, pi.head), pi.tail), "Grab"
        if cls is Cc:
            return Process(pi.head, SPush(Kont(pi.tail), pi.tail)), "Save"
        if cls is Kont:
            return Process(pi.head, t.stack), "Restore"
    return None


@dataclass
class Trace:
    steps: list[tuple[Process, str]]   # (state, rule applied to it)
    final: Process
    stuck: bool                        # no rule applies to final


def evaluate(p: Process, fuel: int = 1000) -> Trace:
    """Run the machine for at most `fuel` steps from p, checked closed."""
    check_closed(p)
    steps: list[tuple[Process, str]] = []
    cur = p
    for _ in range(fuel):
        s = step(cur)
        if s is None:
            return Trace(steps, cur, stuck=True)
        nxt, rule = s
        steps.append((cur, rule))
        cur = nxt
    return Trace(steps, cur, stuck=step(cur) is None)
