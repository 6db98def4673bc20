"""Lambda calculus with call/cc, stack constants and tagged instructions.

Terms, stacks and processes; one iterative pre-order walk over them,
which numbers their binders; substitution of a closed term for a lambda
variable; the conjunction of all instruction tags occurring in a term,
stack or process; and canonical keys for alpha-equivalence, which serve
`lc_alpha_eq`, `proc_alpha_eq` and the tests' reference pole.  Which
names and tags a term holds is read through `walk` alone: by
`free_lvars`, `iter_tags`, the closedness check `check_closed`, the
canonical key `canon_term` (an LVar by its binder's number), the pole's
memo key (`pole._memo_key`, which keys on a process as written, not up
to alpha), `dinfty._candidates` and `typecheck`.

`check_closed` is the one closedness check of machine input.  The public
functions that take a process or term call it once, at entry:
`pole.in_pole`, `pole.realizes_bounded`, `machine.evaluate` and
`dinfty.denote`.  The parser reads syntax only.

First-order variables (inside tags) and lambda variables are disjoint
sorts: `subst_lc` never descends into tags.

Nodes are slotted, frozen dataclasses, so a node that many terms and
machine states share cannot change under them.  An App or Lam keeps its
printed text on the node itself, as formulas' Or and And do: a cache
keyed on `id` would hand the text of a collected node to a new node that
reuses its id, and the machine makes and drops nodes at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formulas import (
    Formula, UsageError, _reduce, _setters, canon as canon_formula,
    conj_many,
)


@dataclass(frozen=True)
class LcTerm:
    __slots__ = ()
    __reduce__ = _reduce


# The one- and two-field classes write each slot in their own __init__
# through that slot's member descriptor, whose setter is bound once per
# class below them, as formula nodes do; `formulas._set` is kept for
# values written after construction.  App and Lam keep their printed text
# (unparenthesized, set by `syntax.print_lcterm`) in the slot `_text`,
# which their __init__ sets to None.  It is not a field, so ==, hash,
# repr and `fields` are the plain dataclass's.

@dataclass(frozen=True)
class LVar(LcTerm):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _lvar_name(self, name)


@dataclass(frozen=True)
class App(LcTerm):
    __slots__ = ("fn", "arg", "_text")
    fn: LcTerm
    arg: LcTerm

    def __init__(self, fn: LcTerm, arg: LcTerm) -> None:
        _app_fn(self, fn)
        _app_arg(self, arg)
        _app_text(self, None)


@dataclass(frozen=True)
class Lam(LcTerm):
    __slots__ = ("var", "body", "_text")
    var: str
    body: LcTerm

    def __init__(self, var: str, body: LcTerm) -> None:
        _lam_var(self, var)
        _lam_body(self, body)
        _lam_text(self, None)


@dataclass(frozen=True)
class Cc(LcTerm):
    __slots__ = ()


@dataclass(frozen=True)
class Kont(LcTerm):
    __slots__ = ("stack",)
    stack: "StackT"

    def __init__(self, stack: "StackT") -> None:
        _kont_stack(self, stack)


@dataclass(frozen=True)
class Gamma(LcTerm):
    __slots__ = ("tag",)
    tag: Formula

    def __init__(self, tag: Formula) -> None:
        _gamma_tag(self, tag)


@dataclass(frozen=True)
class StackT:
    __slots__ = ()
    __reduce__ = _reduce


@dataclass(frozen=True)
class SEmpty(StackT):
    __slots__ = ()


@dataclass(frozen=True)
class SPush(StackT):
    """A closed term on top of a stack.  Checked by `check_closed`, kept
    by `machine`."""
    __slots__ = ("head", "tail")
    head: LcTerm
    tail: StackT

    def __init__(self, head: LcTerm, tail: StackT) -> None:
        _spush_head(self, head)
        _spush_tail(self, tail)


@dataclass(frozen=True)
class Process:
    """A closed term facing a stack.  Checked by `check_closed` where
    processes enter, kept by `machine`."""
    __slots__ = ("term", "stack")
    term: LcTerm
    stack: StackT
    __reduce__ = _reduce

    def __init__(self, term: LcTerm, stack: StackT) -> None:
        _process_term(self, term)
        _process_stack(self, stack)


_lvar_name = LVar.name.__set__
_app_fn, _app_arg, _app_text = _setters(App)
_lam_var, _lam_body, _lam_text = _setters(Lam)
_kont_stack = Kont.stack.__set__
_gamma_tag = Gamma.tag.__set__
_spush_head, _spush_tail = _setters(SPush)
_process_term, _process_stack = _setters(Process)
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
    stands.  The bound names map each to its binder's number, binders
    numbered from 0 in walk order across all of x, the innermost binder
    of a name shadowing the others.  A root is x's term or stack, or a
    stack entry (in a k[...] too), and nothing is bound at a root, since
    entries are closed.  The to-do list is the walk's own, so no depth
    costs Python recursion."""
    if isinstance(x, Process):
        todo = [(x.stack, {}, x.stack), (x.term, {}, x.term)]
    else:
        todo = [(x, {}, x)]
    binders = 0
    while todo:
        item = todo.pop()
        yield item
        t, bound, root = item
        cls = type(t)
        if cls is App:
            todo += ((t.arg, bound, root), (t.fn, bound, root))
        elif cls is Lam:
            todo.append((t.body, {**bound, t.var: binders}, root))
            binders += 1
        elif cls is SPush:
            todo += ((t.tail, bound, root), (t.head, {}, t.head))
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


def check_closed(p: Process) -> None:
    """UsageError unless p's term, its stack entries, the entries of every
    k[...] in p and every instruction tag in p are closed, read in one
    `walk` over p.  A free lambda variable is reported before an open
    tag, with the closed term it lies in; the process term comes first,
    then the entries in walk order.  A tag's free variables are kept on
    its node."""
    open_tag = None
    for t, bound, root in walk(p):
        if type(t) is LVar and t.name not in bound:
            what = "process terms" if root is p.term else "stack entries"
            raise UsageError(f"{what} must be closed: {root!r}")
        if type(t) is Gamma and open_tag is None and t.tag._free:
            open_tag = t.tag
    if open_tag is not None:
        raise UsageError(f"open instruction tag: {open_tag!r}")


def subst_lc(t: LcTerm, x: str, u: LcTerm) -> LcTerm:
    """t[x := u] for a closed u.  No binder can capture a closed term, so
    nothing is renamed."""
    return _subst(t, x, u)


def _subst(t: LcTerm, x: str, u: LcTerm) -> LcTerm:
    """subst_lc's recursion, dispatched on the node's exact class."""
    cls = type(t)
    if cls is App:
        return App(_subst(t.fn, x, u), _subst(t.arg, x, u))
    if cls is LVar:
        return u if t.name == x else t
    if cls is Lam:
        return t if t.var == x else Lam(t.var, _subst(t.body, x, u))
    if cls is Cc or cls is Kont or cls is Gamma:
        return t
    raise TypeError(f"not a term: {t!r}")


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

def canon_term(x) -> tuple:
    """x, a term, stack or process, as a flat tuple read in one `walk`:
    each node's class, followed by an LVar's binder number (its name if
    free) or a Gamma's canonical tag.  Each class has a fixed arity, so
    two keys are equal iff the terms are alpha-equivalent.  Building or
    hashing a key recurses through no lambda nest, stack or application
    spine, however deep; only a tag's key is hashed as a whole."""
    key = []
    for t, bound, _ in walk(x):
        cls = type(t)
        key.append(cls)
        if cls is LVar:
            key.append(bound.get(t.name, t.name))
        elif cls is Gamma:
            key.append(canon_formula(t.tag))
    return tuple(key)


def canon_process(p: Process) -> tuple:
    return canon_term(p)


def lc_alpha_eq(t: LcTerm, u: LcTerm) -> bool:
    return canon_term(t) == canon_term(u)


def proc_alpha_eq(p: Process, q: Process) -> bool:
    return canon_process(p) == canon_process(q)
