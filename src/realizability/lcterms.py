"""Lambda calculus with call/cc, stack constants and tagged instructions.

Terms, stacks and processes; one iterative pre-order walk over them;
substitution of a closed term for a lambda variable; the conjunction of
all instruction tags occurring in a term, stack or process; and
canonical keys for alpha-equivalence, which serve `lc_alpha_eq`,
`proc_alpha_eq` and the tests' reference pole.  Which names and tags a
term holds is read through `walk` alone: by `free_lvars`, `iter_tags`,
the closedness checks of the parser (`_closed`) and of the pole
(`pole._check_closed`), the pole's memo key (`pole._memo_key`, which
keys on a process as written, not up to alpha), `dinfty._candidates`
and `typecheck`.

First-order variables (inside tags) and lambda variables are disjoint
sorts: `subst_lc` never descends into tags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .formulas import Formula, canon as canon_formula, conj_many, UsageError


@dataclass(frozen=True)
class LcTerm:
    pass


@dataclass(frozen=True)
class LVar(LcTerm):
    name: str


@dataclass(frozen=True)
class App(LcTerm):
    fn: LcTerm
    arg: LcTerm


@dataclass(frozen=True)
class Lam(LcTerm):
    var: str
    body: LcTerm


@dataclass(frozen=True)
class Cc(LcTerm):
    pass


@dataclass(frozen=True)
class Kont(LcTerm):
    stack: "StackT"


@dataclass(frozen=True)
class Gamma(LcTerm):
    tag: Formula


@dataclass(frozen=True)
class StackT:
    pass


@dataclass(frozen=True)
class SEmpty(StackT):
    pass


@dataclass(frozen=True)
class SPush(StackT):
    """A closed term on top of a stack.  Checked by the parser, and by
    `pole.in_pole` for a process's own stack; kept by `machine`."""
    head: LcTerm
    tail: StackT


@dataclass(frozen=True)
class Process:
    """A closed term facing a stack.  Checked where processes enter (the
    parser, `pole.in_pole`, `pole.realizes_bounded`), kept by `machine`."""
    term: LcTerm
    stack: StackT


CC = Cc()
EMPTY = SEmpty()


def stack_of(*terms: LcTerm, tail: StackT = EMPTY) -> StackT:
    for t in reversed(terms):
        tail = SPush(t, tail)
    return tail


def stack_to_list(pi: StackT) -> list[LcTerm]:
    out = []
    while isinstance(pi, SPush):
        out.append(pi.head)
        pi = pi.tail
    return out


def walk(x) -> Iterator[tuple]:
    """(node, the lambda names bound above it, its root) for every node of
    a term, stack or process x, in pre-order: term before stack, function
    before argument, head before tail, and a k[...]'s entries where it
    stands.  A root is x's term or stack, or a stack entry (in a k[...]
    too), and nothing is bound at a root, since entries are closed.  The
    to-do list is the walk's own, so no depth costs Python recursion."""
    if isinstance(x, Process):
        todo = [(x.stack, frozenset(), x.stack), (x.term, frozenset(), x.term)]
    else:
        todo = [(x, frozenset(), x)]
    while todo:
        item = todo.pop()
        yield item
        t, bound, root = item
        cls = type(t)
        if cls is App:
            todo += ((t.arg, bound, root), (t.fn, bound, root))
        elif cls is Lam:
            todo.append((t.body, bound | {t.var}, root))
        elif cls is SPush:
            todo += ((t.tail, bound, root), (t.head, frozenset(), t.head))
        elif cls is Kont:
            todo.append((t.stack, bound, root))


def free_lvars(x) -> frozenset[str]:
    """The lambda variables free in a term, stack or process, the entries
    of each k[...] included."""
    free = set()
    for t, bound, _ in walk(x):
        if type(t) is LVar and t.name not in bound:
            free.add(t.name)
    return frozenset(free)


def _closed(t: LcTerm, what: str) -> LcTerm:
    """t, if no lambda variable is free in it; else a UsageError saying
    that `what` must be closed."""
    if free_lvars(t):
        raise UsageError(f"{what} must be closed: {t!r}")
    return t


def subst_lc(t: LcTerm, x: str, u: LcTerm) -> LcTerm:
    """t[x := u] for a closed u.  No binder can capture a closed term, so
    nothing is renamed."""

    def go(t: LcTerm) -> LcTerm:
        if isinstance(t, LVar):
            return u if t.name == x else t
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Lam):
            return t if t.var == x else Lam(t.var, go(t.body))
        if isinstance(t, (Cc, Kont, Gamma)):
            return t
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def iter_tags(x) -> Iterator[Formula]:
    """All instruction tags of x in the order of `walk`."""
    return (t.tag for t, _, _ in walk(x) if isinstance(t, Gamma))


def constraint_of(x) -> Formula:
    """Right-nested conjunction of all instruction tags in x; the empty
    conjunction is 0 != 1."""
    return conj_many(list(iter_tags(x)))


# --------------------------------------------------------------------------
# Alpha-equivalence and canonical keys
# --------------------------------------------------------------------------

def canon_term(t: LcTerm, env: dict[str, int] | None = None,
               counter=None) -> tuple:
    """Hashable canonical form (de Bruijn-style binder naming, canonical
    formula tags); equal keys iff alpha-equivalent."""
    env = env or {}
    counter = counter if counter is not None else itertools.count()
    if isinstance(t, LVar):
        return ("var", env.get(t.name, t.name))
    if isinstance(t, App):
        return ("app", canon_term(t.fn, env, counter),
                canon_term(t.arg, env, counter))
    if isinstance(t, Lam):
        lvl = next(counter)
        env2 = dict(env)
        env2[t.var] = lvl
        return ("lam", canon_term(t.body, env2, counter))
    if isinstance(t, Cc):
        return ("cc",
)
    if isinstance(t, Kont):
        return ("kont", canon_stack(t.stack, counter))
    if isinstance(t, Gamma):
        return ("gamma", canon_formula(t.tag))
    raise TypeError(f"not a term: {t!r}")


def canon_stack(pi: StackT, counter=None) -> tuple:
    """("stack", key of each entry, head to tail); the entries' binders
    are numbered in that order.  A loop, so a long stack costs no Python
    recursion."""
    counter = counter if counter is not None else itertools.count()
    key = ["stack"]
    while isinstance(pi, SPush):
        key.append(canon_term(pi.head, None, counter))
        pi = pi.tail
    return tuple(key)


def canon_process(p: Process) -> tuple:
    counter = itertools.count()
    return ("proc", canon_term(p.term, None, counter),
            canon_stack(p.stack, counter))


def lc_alpha_eq(t: LcTerm, u: LcTerm) -> bool:
    return canon_term(t) == canon_term(u)


def proc_alpha_eq(p: Process, q: Process) -> bool:
    return canon_process(p) == canon_process(q)
