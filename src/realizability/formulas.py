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
from typing import Mapping, Sequence


class UsageError(ValueError):
    """Raised on malformed arguments (e.g. substitution length mismatch)."""


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BTerm:
    __slots__ = ()

    def __reduce__(self):
        # copy and pickle rebuild a term from its fields, so what an Or or
        # And keeps (a hash of this process's strings) is recomputed
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Var(BTerm):
    name: str


@dataclass(frozen=True)
class Zero(BTerm):
    pass


@dataclass(frozen=True)
class One(BTerm):
    pass


# Terms are DAGs (rows_term shares its minterm prefixes), so Or and And
# keep their hash, variable set and printed text (unparenthesized, set by
# `syntax._bterm`) once computed, in the slots `_hash`, `_vars` and
# `_text`, which their own __init__ sets to None.  None is a dataclass
# field, so ==, repr and `fields` are the plain dataclass's, and the hash
# is the dataclass's own hash of the field tuple.  A Not's are one step
# from its argument's, so it keeps none.

_set = object.__setattr__  # how a frozen dataclass sets its slots


def _pair_init(self, lhs: BTerm, rhs: BTerm) -> None:
    _set(self, "lhs", lhs)
    _set(self, "rhs", rhs)
    _set(self, "_hash", None)
    _set(self, "_vars", None)
    _set(self, "_text", None)


def _pair_hash(self) -> int:
    h = self._hash
    if h is None:
        h = hash((self.lhs, self.rhs))
        _set(self, "_hash", h)
    return h


@dataclass(frozen=True)
class Or(BTerm):
    __slots__ = ("lhs", "rhs", "_hash", "_vars", "_text")
    lhs: BTerm
    rhs: BTerm
    __init__ = _pair_init
    __hash__ = _pair_hash


@dataclass(frozen=True)
class And(BTerm):
    __slots__ = ("lhs", "rhs", "_hash", "_vars", "_text")
    lhs: BTerm
    rhs: BTerm
    __init__ = _pair_init
    __hash__ = _pair_hash


@dataclass(frozen=True)
class Not(BTerm):
    arg: BTerm


ZERO = Zero()
ONE = One()
_NO_VARS: frozenset[str] = frozenset()


def term_vars(a: BTerm) -> frozenset[str]:
    """The variables of a.  An Or or And computes its set on first use
    and keeps it, so a DAG is walked once per distinct node; a parent
    reuses a child's set when that set contains the other child's."""
    if isinstance(a, (Or, And)):
        vs = a._vars
        if vs is None:
            left, right = term_vars(a.lhs), term_vars(a.rhs)
            vs = (left if right <= left else right if left <= right
                  else left | right)
            _set(a, "_vars", vs)
        return vs
    if isinstance(a, Not):
        return term_vars(a.arg)
    if isinstance(a, Var):
        return frozenset((a.name,))
    if isinstance(a, (Zero, One)):
        return _NO_VARS
    raise TypeError(f"not a term: {a!r}")


def _subst_term(a: BTerm, mapping: Mapping[str, BTerm]) -> BTerm:
    """Simultaneous substitution of each variable in mapping by its term."""

    def go(t: BTerm) -> BTerm:
        if isinstance(t, Var):
            return mapping.get(t.name, t)
        if isinstance(t, (Zero, One)):
            return t
        if isinstance(t, Not):
            return Not(go(t.arg))
        if isinstance(t, Or):
            return Or(go(t.lhs), go(t.rhs))
        if isinstance(t, And):
            return And(go(t.lhs), go(t.rhs))
        raise TypeError(f"not a term: {t!r}")

    return go(a)


def eval_term_01(a: BTerm, env: Mapping[str, int], ones: int = 1) -> int:
    """Value of a term in {0, 1}, or in many assignments at once: with
    ones = 2^n - 1 and each variable mapped to an n-bit int, bit m of the
    result is the term's value under the assignment given by bit m of the
    variables.  brute_check keeps its own evaluator on purpose, so that it
    stays an independent check of model_check."""
    if isinstance(a, Var):
        try:
            return env[a.name]
        except KeyError:
            raise UsageError(f"unbound variable {a.name!r}") from None
    if isinstance(a, Zero):
        return 0
    if isinstance(a, One):
        return ones
    if isinstance(a, Not):
        return ones ^ eval_term_01(a.arg, env, ones)
    if isinstance(a, Or):
        return eval_term_01(a.lhs, env, ones) | eval_term_01(a.rhs, env, ones)
    if isinstance(a, And):
        return eval_term_01(a.lhs, env, ones) & eval_term_01(a.rhs, env, ones)
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
    pass


@dataclass(frozen=True)
class Neq(Formula):
    lhs: BTerm
    rhs: BTerm


@dataclass(frozen=True)
class Impl(Formula):
    ante: Formula
    cons: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


def free_vars(A: Formula) -> frozenset[str]:
    """The variables that occur free in A.  One walk of the formula
    carries the names bound so far and adds each inequation's free term
    variables to one set, so a closed formula adds nothing and builds a
    set only at its quantifiers; the terms' sets are `term_vars`'s, kept
    on the nodes."""
    free: set[str] = set()
    _add_free(A, frozenset(), free)
    return frozenset(free)


def _add_free(f: Formula, bound: frozenset[str], free: set[str]) -> None:
    if isinstance(f, Neq):
        lhs, rhs = term_vars(f.lhs), term_vars(f.rhs)
        if not (lhs <= bound and rhs <= bound):
            free.update(lhs - bound, rhs - bound)
    elif isinstance(f, Impl):
        _add_free(f.ante, bound, free)
        _add_free(f.cons, bound, free)
    elif isinstance(f, Forall):
        _add_free(f.body, bound | {f.var}, free)
    else:
        raise TypeError(f"not a formula: {f!r}")


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

    def go(f: Formula, mapping: dict[str, BTerm]) -> Formula:
        if not mapping:
            return f
        if isinstance(f, Neq):
            return Neq(_subst_term(f.lhs, mapping), _subst_term(f.rhs, mapping))
        if isinstance(f, Impl):
            return Impl(go(f.ante, mapping), go(f.cons, mapping))
        if isinstance(f, Forall):
            inner = {k: v for k, v in mapping.items() if k != f.var}
            if not inner:
                return f
            clash = set().union(*(term_vars(v) for v in inner.values()))
            if f.var in clash:
                avoid = clash | free_vars(f.body) | set(inner)
                new = next(n for i in itertools.count()
                           if (n := f"{f.var}_{i}") not in avoid)
                body = go(f.body, {f.var: Var(new)})
                return Forall(new, go(body, inner))
            return Forall(f.var, go(f.body, inner))
        raise TypeError(f"not a formula: {f!r}")

    return go(A, dict(zip(zs, bs)))


def canon(A: Formula) -> Formula:
    """Canonical bound-variable naming; two formulas are alpha-equivalent
    iff their canonical forms are structurally equal."""
    counter = itertools.count()

    def go(f: Formula, env: dict[str, Var]) -> Formula:
        if isinstance(f, Neq):
            if env:
                return Neq(_subst_term(f.lhs, env), _subst_term(f.rhs, env))
            return f
        if isinstance(f, Impl):
            return Impl(go(f.ante, env), go(f.cons, env))
        if isinstance(f, Forall):
            new = f"!b{next(counter)}"  # '!' cannot appear in source identifiers
            env2 = dict(env)
            env2[f.var] = Var(new)
            return Forall(new, go(f.body, env2))
        raise TypeError(f"not a formula: {f!r}")

    return go(A, {})


def alpha_eq(A: Formula, B: Formula) -> bool:
    return canon(A) == canon(B)


def eval_formula_01(A: Formula, env: Mapping[str, int] | None = None) -> bool:
    """Classical truth in {0, 1}; quantifiers range over {0, 1}."""
    def go(f: Formula, env: Mapping[str, int]) -> bool:
        if isinstance(f, Neq):
            return eval_term_01(f.lhs, env) != eval_term_01(f.rhs, env)
        if isinstance(f, Impl):
            return (not go(f.ante, env)) or go(f.cons, env)
        if isinstance(f, Forall):
            return (go(f.body, {**env, f.var: 0})
                    and go(f.body, {**env, f.var: 1}))
        raise TypeError(f"not a formula: {f!r}")

    return go(A, env or {})


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

@dataclass(frozen=True)
class Decomposition:
    """A formula's spine read in place: quantifier blocks, each with the
    premise it guards, then trailing quantifiers and an inequation head.
    Names, premises and head are the formula's own.  Scoping: a premise
    sees its own block's variables and every earlier block's, the head
    sees them all, and where a name is bound twice the later binder
    shadows the earlier."""
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
    """No variable occurrences in any term (quantifiers may be vacuous)."""
    if isinstance(A, Neq):
        return not (term_vars(A.lhs) | term_vars(A.rhs))
    if isinstance(A, Impl):
        return is_ground(A.ante) and is_ground(A.cons)
    if isinstance(A, Forall):
        return is_ground(A.body)
    raise TypeError(f"not a formula: {A!r}")
