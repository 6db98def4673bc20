"""First-order formulas over the Boolean-algebra signature (0, 1, \\/, /\\, ~).

Primitives are inequation, implication and universal quantification; the
other connectives (falsum, equality, conjunction, disjunction, existential)
are provided as encodings.  Also contains: simultaneous capture-avoiding
substitution, evaluation in the two-element algebra, Horn-clause
classification, truth-table terms, and the one-level decomposition of a
formula's spine into quantifier blocks, premises and an inequation head,
read in place under the formula's own binder names (the pole applies it
twice for the paper's two-level normal form).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence


class UsageError(ValueError):
    """Raised on malformed arguments (e.g. substitution length mismatch)."""


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------

def _reduce(self):
    """Every node's `__reduce__`, here and in `lcterms`: copy and pickle
    rebuild a node from its fields, so what it keeps is computed again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class BTerm:
    __slots__ = ()
    __reduce__ = _reduce


# Every term and formula node is a slotted frozen dataclass that writes
# each slot in its own __init__ through the setter of that slot's member
# descriptor, bound once per class by `_setters`, as `lcterms` nodes do
# (`object.__setattr__` would look the slot up by name on every write), and
# keeps a variable set, computed from its children's when it is built: a
# term its variables in the slot `_vars`, a formula its free variables in
# the slot `_free`.  So `term_vars` and `free_vars` read an attribute, and
# no question about a chain's variables costs Python recursion.  A Var's
# set is its name, Zero's and One's the class-level empty set, a Not's its
# argument's, a Forall's its body's without its variable, and an Or, And,
# Neq or Impl reuses a child's set when it holds the other's.  A child
# that lacks the slot its parent reads is not a term (or not a formula),
# and the parent raises TypeError as it is built.  Terms are DAGs
# (rows_term shares its minterm prefixes), so Or and And also keep their
# hash and printed text (unparenthesized, set by `syntax._bterm`) once
# computed, in the slots `_hash` and `_text`, which their __init__ sets to
# None.  Formulas share subformulas too: the selector codes that every
# rank-3 theta holds are quantifiers, so a Forall keeps its printed text
# the same way (set by `syntax._formula`).  A Neq keeps none: one more
# slot to fill in each inequation cost `decide`, which builds many and
# prints none, about 3% of its requests/s.  No kept slot is a dataclass
# field, so ==, repr and `fields` are the plain dataclass's, and the hash
# is the dataclass's own hash of the field tuple.  A kept value written
# after construction (a hash, a printed text) goes through `_set`.

_set = object.__setattr__  # how a frozen dataclass sets its slots
_NO_VARS: frozenset[str] = frozenset()


def _setters(cls) -> tuple:
    """The `__set__` of each of cls's slots, in `__slots__` order: how a
    node's __init__ writes its frozen slots."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _not_a(kind: str, *children) -> TypeError:
    """The TypeError of a node built from children that are not all of
    the kind it reads."""
    cls = BTerm if kind == "term" else Formula
    bad = next((c for c in children if not isinstance(c, cls)), children[0])
    return TypeError(f"not a {kind}: {bad!r}")


@dataclass(frozen=True)
class Var(BTerm):
    __slots__ = ("name", "_vars")
    name: str

    def __init__(self, name: str) -> None:
        _var_name(self, name)
        _var_vars(self, frozenset({name}))


@dataclass(frozen=True)
class Zero(BTerm):
    __slots__ = ()
    _vars = _NO_VARS


@dataclass(frozen=True)
class One(BTerm):
    __slots__ = ()
    _vars = _NO_VARS


def _pair_init(cls):
    """The __init__ of the pair class cls, writing through cls's own
    slot setters."""
    set_lhs, set_rhs, set_vars, set_hash, set_text = _setters(cls)

    def __init__(self, lhs: BTerm, rhs: BTerm) -> None:
        try:
            left, right = lhs._vars, rhs._vars
        except AttributeError:
            raise _not_a("term", lhs, rhs) from None
        set_lhs(self, lhs)
        set_rhs(self, rhs)
        set_vars(self, left if right <= left else right if left <= right
                 else left | right)
        set_hash(self, None)
        set_text(self, None)

    return __init__


def _pair_hash(self) -> int:
    """The dataclass's hash of (lhs, rhs), kept once computed.  A
    left-nested chain of \\/ and /\\ is filled in a loop, down its links
    that keep no hash yet and then up, so each link hashes a left operand
    whose hash is kept and the chain's length costs no recursion."""
    h = self._hash
    if h is None:
        links, link = [], self
        while type(link) in _PAIRS and link._hash is None:
            links.append(link)
            link = link.lhs
        for link in reversed(links):
            h = hash((link.lhs, link.rhs))
            _set(link, "_hash", h)
    return h


@dataclass(frozen=True)
class Or(BTerm):
    __slots__ = ("lhs", "rhs", "_vars", "_hash", "_text")
    lhs: BTerm
    rhs: BTerm
    __hash__ = _pair_hash


@dataclass(frozen=True)
class And(BTerm):
    __slots__ = ("lhs", "rhs", "_vars", "_hash", "_text")
    lhs: BTerm
    rhs: BTerm
    __hash__ = _pair_hash


@dataclass(frozen=True)
class Not(BTerm):
    __slots__ = ("arg", "_vars")
    arg: BTerm

    def __init__(self, arg: BTerm) -> None:
        try:
            vs = arg._vars
        except AttributeError:
            raise _not_a("term", arg) from None
        _not_arg(self, arg)
        _not_vars(self, vs)


_var_name, _var_vars = _setters(Var)
_not_arg, _not_vars = _setters(Not)
Or.__init__ = _pair_init(Or)
And.__init__ = _pair_init(And)
_PAIRS = (Or, And)
ZERO = Zero()
ONE = One()


def term_vars(a: BTerm) -> frozenset[str]:
    """The variables of a, kept on the node since it was built."""
    try:
        return a._vars
    except AttributeError:
        raise TypeError(f"not a term: {a!r}") from None


def _subst_term(a: BTerm, mapping: Mapping[str, BTerm]) -> BTerm:
    """Simultaneous substitution of each variable in mapping by its term."""
    if isinstance(a, Var):
        return mapping.get(a.name, a)
    if isinstance(a, (Zero, One)):
        return a
    if isinstance(a, Not):
        return Not(_subst_term(a.arg, mapping))
    if isinstance(a, Or):
        return Or(_subst_term(a.lhs, mapping), _subst_term(a.rhs, mapping))
    if isinstance(a, And):
        return And(_subst_term(a.lhs, mapping), _subst_term(a.rhs, mapping))
    raise TypeError(f"not a term: {a!r}")


def eval_term_01(a: BTerm, env: Mapping[str, int], ones: int = 1) -> int:
    """Value of a term in {0, 1}, or in many assignments at once: with
    ones = 2^n - 1 and each variable mapped to an n-bit int, bit m of the
    result is the term's value under the assignment given by bit m of the
    variables.  brute_check keeps its own evaluator on purpose, so that it
    stays an independent check of model_check.  Dispatched on the node's
    exact class."""
    cls = type(a)
    if cls is Var:
        try:
            return env[a.name]
        except KeyError:
            raise UsageError(f"unbound variable {a.name!r}") from None
    if cls is Not:
        return ones ^ eval_term_01(a.arg, env, ones)
    if cls is Or:
        return eval_term_01(a.lhs, env, ones) | eval_term_01(a.rhs, env, ones)
    if cls is And:
        return eval_term_01(a.lhs, env, ones) & eval_term_01(a.rhs, env, ones)
    if cls is Zero:
        return 0
    if cls is One:
        return ones
    raise TypeError(f"not a term: {a!r}")


def rows_term(rows: Sequence[int], us: Sequence[str]) -> BTerm:
    """A term realizing the truth table over the variables us whose row
    number b holds rows[b]; row numbers count the bit tuples in
    `itertools.product` order, the first variable being the most
    significant bit.

    The result is a disjunction of minterms, so with r = len(us) its size
    is bounded by 2^r.
    Minterms that share a prefix of literals share that prefix's
    conjunction, so the term is a DAG with at most 2^(r+1) conjunctions
    that is `==` to the unshared tree.  The prefixes are built once per
    process for each tuple of variables and shared by every call with the
    same us.
    """
    if not us:
        return ONE if rows[0] else ZERO
    minterms = [m for m, b in zip(_minterm_prefixes(tuple(us)), rows) if b]
    if not minterms:
        return ZERO
    acc = minterms[0]
    for m in minterms[1:]:
        acc = Or(acc, m)
    return acc


@lru_cache(maxsize=None)
def _minterm_prefixes(us: tuple[str, ...]) -> tuple[BTerm, ...]:
    """rows_term's minterms over a nonempty us, one per row number.  A
    tuple, so that no caller can change what the cache hands out."""
    prefixes: list = [None]  # one conjunction per row-number prefix
    for u in us:
        pos = Var(u)
        lits = (Not(pos), pos)
        prefixes = [lit if acc is None else And(acc, lit)
                    for acc in prefixes for lit in lits]
    return tuple(prefixes)


# --------------------------------------------------------------------------
# Formulas
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    __slots__ = ()
    __reduce__ = _reduce


@dataclass(frozen=True)
class Neq(Formula):
    __slots__ = ("lhs", "rhs", "_free")
    lhs: BTerm
    rhs: BTerm

    def __init__(self, lhs: BTerm, rhs: BTerm) -> None:
        try:
            left, right = lhs._vars, rhs._vars
        except AttributeError:
            raise _not_a("term", lhs, rhs) from None
        _neq_lhs(self, lhs)
        _neq_rhs(self, rhs)
        _neq_free(self, left if right <= left else right if left <= right
                  else left | right)


@dataclass(frozen=True)
class Impl(Formula):
    __slots__ = ("ante", "cons", "_free")
    ante: Formula
    cons: Formula

    def __init__(self, ante: Formula, cons: Formula) -> None:
        try:
            a, c = ante._free, cons._free
        except AttributeError:
            raise _not_a("formula", ante, cons) from None
        _impl_ante(self, ante)
        _impl_cons(self, cons)
        _impl_free(self, a if c <= a else c if a <= c else a | c)


@dataclass(frozen=True)
class Forall(Formula):
    __slots__ = ("var", "body", "_free", "_text")
    var: str
    body: Formula

    def __init__(self, var: str, body: Formula) -> None:
        try:
            vs = body._free
        except AttributeError:
            raise _not_a("formula", body) from None
        _forall_var(self, var)
        _forall_body(self, body)
        _forall_free(self, vs - {var} if var in vs else vs)
        _forall_text(self, None)


_neq_lhs, _neq_rhs, _neq_free = _setters(Neq)
_impl_ante, _impl_cons, _impl_free = _setters(Impl)
_forall_var, _forall_body, _forall_free, _forall_text = _setters(Forall)


def free_vars(A: Formula) -> frozenset[str]:
    """The variables that occur free in A, kept on the node since it was
    built."""
    try:
        return A._free
    except AttributeError:
        raise TypeError(f"not a formula: {A!r}") from None


def closed(A: Formula, who: str) -> None:
    """UsageError, naming the public function `who`, unless A is closed:
    the one closedness check of a formula, made once where it enters."""
    if free := free_vars(A):
        raise UsageError(f"{who} needs a closed formula, free: {sorted(free)}")


def subst_formula(A: Formula, zs: Sequence[str], bs: Sequence[BTerm]) -> Formula:
    """Simultaneous capture-avoiding substitution in a formula."""
    if len(zs) != len(bs):
        raise UsageError(f"substitution length mismatch: {len(zs)} vs {len(bs)}")
    if len(set(zs)) != len(zs):
        raise UsageError("substituted variables must be pairwise distinct")
    return _subst_formula(A, dict(zip(zs, bs)))


def _subst_formula(f: Formula, mapping: dict[str, BTerm]) -> Formula:
    if not mapping:
        return f
    if isinstance(f, Neq):
        return Neq(_subst_term(f.lhs, mapping), _subst_term(f.rhs, mapping))
    if isinstance(f, Impl):
        return Impl(_subst_formula(f.ante, mapping),
                    _subst_formula(f.cons, mapping))
    if isinstance(f, Forall):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        clash = set().union(*(term_vars(v) for v in inner.values()))
        if f.var in clash:
            avoid = clash | free_vars(f.body) | set(inner)
            new = next(n for i in itertools.count()
                       if (n := f"{f.var}_{i}") not in avoid)
            body = _subst_formula(f.body, {f.var: Var(new)})
            return Forall(new, _subst_formula(body, inner))
        return Forall(f.var, _subst_formula(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")


def canon(A: Formula) -> Formula:
    """Canonical bound-variable naming; two formulas are alpha-equivalent
    iff their canonical forms are structurally equal."""
    return _canon(A, {}, itertools.count())


def _canon(f: Formula, env: dict[str, Var], counter) -> Formula:
    if isinstance(f, Neq):
        if env:
            return Neq(_subst_term(f.lhs, env), _subst_term(f.rhs, env))
        return f
    if isinstance(f, Impl):
        return Impl(_canon(f.ante, env, counter), _canon(f.cons, env, counter))
    if isinstance(f, Forall):
        new = f"!b{next(counter)}"  # '!' cannot appear in source identifiers
        return Forall(new, _canon(f.body, {**env, f.var: Var(new)}, counter))
    raise TypeError(f"not a formula: {f!r}")


def alpha_eq(A: Formula, B: Formula) -> bool:
    return canon(A) == canon(B)


def eval_formula_01(A: Formula, env: Mapping[str, int] | None = None) -> bool:
    """Classical truth in {0, 1}; quantifiers range over {0, 1}."""
    return _eval_01(A, env or {})


def _eval_01(f: Formula, env: Mapping[str, int]) -> bool:
    if isinstance(f, Neq):
        return eval_term_01(f.lhs, env) != eval_term_01(f.rhs, env)
    if isinstance(f, Impl):
        return (not _eval_01(f.ante, env)) or _eval_01(f.cons, env)
    if isinstance(f, Forall):
        if f.var not in f.body._free:  # vacuous: one value answers
            return _eval_01(f.body, env)
        return (_eval_01(f.body, {**env, f.var: 0})
                and _eval_01(f.body, {**env, f.var: 1}))
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Encodings
# --------------------------------------------------------------------------

def bot() -> Formula:
    return Neq(ZERO, ZERO)


def eq(a: BTerm, b: BTerm) -> Formula:
    return Impl(Neq(a, b), bot())


def conj(A: Formula, B: Formula) -> Formula:
    return Impl(Impl(A, Impl(B, bot())), bot())


def disj(A: Formula, B: Formula) -> Formula:
    return Impl(Impl(A, bot()), Impl(Impl(B, bot()), bot()))


def exists(z: str, A: Formula) -> Formula:
    return Impl(Forall(z, Impl(A, bot())), bot())


def forall_many(zs: Sequence[str], A: Formula) -> Formula:
    for z in reversed(zs):
        A = Forall(z, A)
    return A


def conj_many(fs: Sequence[Formula]) -> Formula:
    """Right-nested conjunction; the empty conjunction is the always-true
    goal clause 0 != 1."""
    if not fs:
        return Neq(ZERO, ONE)
    acc = fs[-1]
    for f in reversed(fs[:-1]):
        acc = conj(f, acc)
    return acc


# --------------------------------------------------------------------------
# The background theory of Boolean algebras with at least two elements
# --------------------------------------------------------------------------

def tbool_axioms() -> tuple[Formula, ...]:
    """0 != 1 plus an equational basis whose models are exactly the Boolean
    algebras; together: Boolean algebras with at least two elements."""
    z, w, v = Var("z"), Var("w"), Var("v")
    eqs: list[tuple[list[str], BTerm, BTerm]] = [
        (["z", "w"], Or(z, w), Or(w, z)),
        (["z", "w"], And(z, w), And(w, z)),
        (["z", "w", "v"], Or(z, Or(w, v)), Or(Or(z, w), v)),
        (["z", "w", "v"], And(z, And(w, v)), And(And(z, w), v)),
        (["z", "w"], Or(z, And(z, w)), z),
        (["z", "w"], And(z, Or(z, w)), z),
        (["z", "w", "v"], And(z, Or(w, v)), Or(And(z, w), And(z, v))),
        (["z", "w", "v"], Or(z, And(w, v)), And(Or(z, w), Or(z, v))),
        (["z"], Or(z, ZERO), z),
        (["z"], And(z, ONE), z),
        (["z"], Or(z, Not(z)), ONE),
        (["z"], And(z, Not(z)), ZERO),
    ]
    axioms = [Neq(ZERO, ONE)]
    axioms.extend(forall_many(vs, eq(a, b)) for vs, a, b in eqs)
    return tuple(axioms)


def tbool_equations() -> tuple[Formula, ...]:
    """The universally quantified equations of the axiom set (0 != 1 dropped)."""
    return tbool_axioms()[1:]


# --------------------------------------------------------------------------
# Horn classification
# --------------------------------------------------------------------------

class HornKind(Enum):
    DEFINITE = "definite"
    GOAL = "goal"
    NOT_HORN = "not-horn"


def _as_equality(A: Formula) -> tuple[BTerm, BTerm] | None:
    """Match the encoding (a != b) -> 0 != 0."""
    if (isinstance(A, Impl) and isinstance(A.ante, Neq)
            and A.cons == Neq(ZERO, ZERO)):
        return A.ante.lhs, A.ante.rhs
    return None


def classify_horn(A: Formula) -> HornKind:
    """A closed formula is a Horn clause if it has a Horn shape
    (`horn_shape`).  The shape is checked first, because it is cheap, and
    closedness only for a Horn shape."""
    kind = horn_shape(A)
    if kind is not HornKind.NOT_HORN and free_vars(A):
        return HornKind.NOT_HORN
    return kind


def horn_shape(A: Formula) -> HornKind:
    """The Horn kind of A's shape, closed or not: a chain of equality
    premises under a universal prefix, ending in an equality (definite
    clause) or an inequation (goal clause)."""
    cur = A
    while isinstance(cur, Forall):
        cur = cur.body
    while True:
        if isinstance(cur, Neq):
            return HornKind.GOAL
        if _as_equality(cur) is not None:
            return HornKind.DEFINITE
        if isinstance(cur, Impl) and _as_equality(cur.ante) is not None:
            cur = cur.cons
        else:
            return HornKind.NOT_HORN


# --------------------------------------------------------------------------
# One-level decomposition
# --------------------------------------------------------------------------

class Decomposition(NamedTuple):
    """A formula's spine read in place: quantifier blocks, each with the
    premise it guards, then trailing quantifiers and an inequation head.
    Names, premises and head are the formula's own.  Scoping: a premise
    sees its own block's variables and every earlier block's, the head
    sees them all, and where a name is bound twice the later binder
    shadows the earlier.  A named tuple, so that building one costs little
    and the pole can read a spine again rather than keep it."""
    blocks: tuple[tuple[tuple[str, ...], Formula], ...]
    tail_vars: tuple[str, ...]
    head: Neq


def decompose(A: Formula) -> Decomposition:
    """A's spine: A = forall vs_1. (P_1 -> ... forall vs_n. (P_n ->
    forall tail. head)), read under A's own binder names with nothing
    renamed or rebuilt.  A binder that a later one of its run shadows is
    read by nothing and left out of the run.  The pole's two-level normal
    form applies this once to a tag and once more to each premise."""
    blocks: list[tuple[tuple[str, ...], Formula]] = []
    vs: list[str] = []
    cur = A
    while True:
        if isinstance(cur, Forall):
            if cur.var in vs:
                vs.remove(cur.var)
            vs.append(cur.var)
            cur = cur.body
        elif isinstance(cur, Impl):
            blocks.append((tuple(vs), cur.ante))
            vs, cur = [], cur.cons
        elif isinstance(cur, Neq):
            return Decomposition(tuple(blocks), tuple(vs), cur)
        else:
            raise TypeError(f"not a formula: {cur!r}")


def is_ground(A: Formula) -> bool:
    """No variable occurrences in any term (quantifiers may be vacuous):
    no inequation of A keeps a variable."""
    if isinstance(A, Neq):
        return not A._free
    if isinstance(A, Impl):
        return is_ground(A.ante) and is_ground(A.cons)
    if isinstance(A, Forall):
        return is_ground(A.body)
    raise TypeError(f"not a formula: {A!r}")
