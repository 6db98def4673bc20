"""Truth of first-order formulas in concrete Boolean algebras.

Two families of algebras are supported: the finite powerset algebras
{0,1}^k and the countable atomless algebra.  The model checker keeps a
partition of the unit into minterm cells of the quantified variables and
records only the size of each cell (an exact count for the finite
algebras, zero-or-infinite for the atomless one).  Under d quantifiers
cell m, for 0 <= m < 2^d, lies inside the i-th bound variable iff bit i
of m is 1.  A term then denotes an int whose bit m is set iff cell m lies
inside its value; an inequation holds when the two sides' xor sets the
bit of a cell of nonzero size, and a universal quantifier ranges over all
splits of every cell.  Sizes determine the isomorphism type of the
partition, so this is complete for the supported algebras.  The value of
an inequation occurrence depends only on the binders above it, so the
formula is compiled once and each occurrence's terms are evaluated once,
whatever the number of splits: once per `model_check` call, and once for
the whole family in `valid_all_bas` and `TheoryOracle.membership`.

The compiled check reads nothing but the tuple of cell sizes.  It caps
each finite cell size at 2^r, with r quantifiers still to come;
`model_check` gives the Ehrenfeucht-Fraisse argument.  The infinite
cells of the atomless algebra are never capped.  A quantifier
occurrence that reads fewer variables than the cells split sees only
the cells of its own free variables, whose sizes are sums of the finer
ones (Feferman-Vaught).  Each quantifier occurrence memoises its
answers in its own dict, keyed on the sizes it reads, so nothing
outlives the call that compiled it.  The check answers None when the
formula holds and its refutation path when it fails, so the one run
that decides a formula also explains it.

The public functions refuse an open formula at entry, each under its own
name, by one `formulas.closed` check; nothing past the entry checks
again.  There a formula is known closed, so a Horn shape is a Horn clause
and the compile step finds every variable bound.

On top sits a three-valued validity layer for "true in every Boolean
algebra with at least two elements": complete fragments (ground sentences,
Horn clauses, propositional tautologies over inequation atoms) plus a
configurable refutation family.  Ground sentences, and Horn sentences
whose quantifiers read at most MAX_PROP_ATOMS variables, are decided in
{0,1} by `eval_formula_01`, through one helper (`_in_01`) that
`valid_all_bas` and `TheoryOracle.membership` share: {0,1} answers for
every algebra with at least two elements, so no family is consulted.
A Horn sentence that reads more is refuted there when one of its first
2^MAX_PROP_ATOMS assignments fails it.  Only `valid_all_bas` compiles
such a sentence, for the refutation path of one that {0,1} refutes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .formulas import (
    And, Formula, Forall, HornKind, Impl, Neq, Not, One, Or, UsageError,
    Var, Zero, closed, eval_formula_01, eval_term_01, horn_shape,
    is_ground,
)


@dataclass(frozen=True)
class BASpec:
    pass


@dataclass(frozen=True)
class PowerFinite(BASpec):
    atoms: int

    def __post_init__(self):
        if self.atoms < 1:
            raise UsageError("PowerFinite needs at least one atom")

    def __str__(self):
        return f"PowerFinite({self.atoms})"


@dataclass(frozen=True)
class Atomless(BASpec):
    def __str__(self):
        return "Atomless"


DEFAULT_FAMILY: tuple[BASpec, ...] = (
    PowerFinite(1), PowerFinite(2), PowerFinite(3), PowerFinite(4), Atomless(),
)


class GuardExceeded(Exception):
    """A cost guard (atom count or quantifier depth) was hit."""


MAX_ATOMS = 6        # largest PowerFinite that model_check accepts
MAX_DEPTH = 6        # deepest quantifier nesting that model_check accepts
MAX_PROP_ATOMS = 14  # most atoms is_prop_tautology truth-tables, and most
                     # read variables of a Horn sentence decided in {0,1}


@functools.lru_cache(maxsize=None)
def _splits(size, cap=math.inf):
    """The splits of a cell of `size` into (outside, inside), in the order
    model_check tries them, with both parts capped at `cap` and each
    capped pair kept at its first occurrence.  An infinite cell is an
    atomless one and is never capped.  A finite size past 2 * cap splits
    into the same capped pairs as 2 * cap, in the same order, so this
    needs no cap of its own: its one caller, `_memoised`, caps each finite
    size at 2 * cap before it splits.  The check splits with caps
    2^0 .. 2^5 under the depth guard, so the cache holds at most
    sum(2 * cap + 2) = 138 entries."""
    if size == math.inf:
        return ((math.inf, math.inf), (math.inf, 0), (0, math.inf))
    return tuple(dict.fromkeys((min(i, cap), min(size - i, cap))
                               for i in range(size + 1)))


def _column(i: int, ones: int) -> int:
    """Variable i's column over the bits of ones (2^n ones, n > i): bit m
    is set iff bit i of m is, so runs of 2^i zeros and 2^i ones alternate,
    zeros first."""
    return ones // ((1 << (1 << i)) + 1) << (1 << i)


def _failing_split(body, options):
    """The first split in options under which body fails, with body's
    refutation there, or None."""
    for combo in itertools.product(*options):
        outside, inside = zip(*combo)
        refutation = body(outside + inside)
        if refutation is not None:
            return combo, refutation
    return None


def _project(env: dict[str, int], width: int, names: list[str]):
    """The projection of the 2^width cells onto the cells of names: one
    getter per names-cell that reads the sizes of the cells inside it, and
    names' columns over the names-cells.  Cell m lies in the names-cell
    whose bit j says whether m is inside names[j].  Each names-cell holds
    2^(width - len(names)) >= 2 cells, so each getter gives a tuple."""
    groups = [[] for _ in range(1 << len(names))]
    for m in range(1 << width):
        groups[sum((env[name] >> m & 1) << j
                   for j, name in enumerate(names))].append(m)
    ones = (1 << (1 << len(names))) - 1
    return ([operator.itemgetter(*g) for g in groups],
            {name: _column(j, ones) for j, name in enumerate(names)})


_UNSEEN = object()  # a memo miss; None is the answer of a Forall that holds


def _memoised(var: str, body, rank: int, getters):
    """The closure of a Forall over var whose body has rank `rank`: it
    projects its sizes with getters (unless None), and on a miss of its
    own memo, keyed on the sizes it reads, enumerates splits capped at
    2^rank.  Projected sums, and the sizes split on a miss, are capped at
    2^(rank + 1), which changes no split.  It answers None or (var, its
    first failing split, body's refutation)."""
    cap, bound = 1 << rank, 2 << rank
    memo: dict[tuple, tuple | None] = {}  # sizes -> refutation

    def capped(sizes):  # an infinite size stays infinite
        return [bound if bound < s < math.inf else s for s in sizes]

    def forall(sizes):
        if getters is not None:
            sizes = tuple(capped([sum(g(sizes)) for g in getters]))
        refutation = memo.get(sizes, _UNSEEN)
        if refutation is _UNSEEN:
            found = _failing_split(body, [_splits(s, cap)
                                          for s in capped(sizes)])
            refutation = memo[sizes] = None if found is None else (var, *found)
        return refutation
    return forall


def _trace(refutation) -> tuple[str, ...]:
    """The lines of a refutation path, innermost first: the failing
    inequation's cell sizes as the dict a split builds, cells m then
    m | 2^(d-1) for m ascending, then each enclosing Forall's failing
    split as {m: (size outside, size inside)} for m ascending."""
    lines = []
    while isinstance(refutation[0], str):  # a Forall's (var, split, body's)
        var, combo, refutation = refutation
        lines.append(f"forall {var}: failing split {dict(enumerate(combo))}")
    half = len(refutation) // 2
    shown = {i: refutation[i] for m in range(max(half, 1))
             for i in (m, m + half)}
    lines.append(f"inequation fails on cell sizes {shown}")
    return tuple(reversed(lines))


def model_check(A: Formula, spec: BASpec) -> bool:
    """Truth of a closed formula in the denoted algebra.

    One walk compiles the formula into a closure per occurrence of Neq,
    Impl and Forall.  Each closure takes only `sizes`, the tuple of the
    sizes of the cells it reads, indexed by cell: 2^d cells under d
    quantifiers, fewer under a projection (below).  It answers None when
    its formula holds and a refutation when it fails: a Neq the sizes it
    failed on, an Impl its consequent's refutation, a Forall its
    variable, first failing split and body's refutation.  A Neq computes
    the xor of its sides' cell bitsets as it compiles, since its binders
    are known then, and keeps the cells that xor sets; it holds iff one
    of those cells is nonempty.  A Forall nested under MAX_DEPTH
    others compiles, body unseen, to a closure that raises GuardExceeded,
    so the guard fires only if evaluation reaches it.

    A Forall whose body has quantifier rank r caps each finite child size
    at 2^r, and the unit is capped at 2^q for the formula's rank q.  This
    is an Ehrenfeucht-Fraisse argument: two partitions whose finite cells
    agree, or both have at least 2^r elements, satisfy the same formulas
    of rank r, because a split (a, s - a) of a cell of size s >= 2^r is
    answered by a split of any other such size whose parts, capped at
    2^(r-1), are the same; and the splits of 2c, capped at c, give
    exactly the capped splits of any larger finite size, in the same
    order of first occurrence.  So the first failing split is the same
    capped pair either way.  The guard's closure is a constant of rank 0:
    it raises whatever the sizes, so the cap does not change whether
    evaluation reaches it.  An infinite (atomless) cell is never capped:
    it is not equivalent to any finite size once r >= 2, since the rank-2
    sentence "some element is an atom" tells them apart.

    A Forall under d quantifiers whose free variables S are fewer than d
    is projected: it reads the 2^|S| S-cells, each the union of the cells
    that agree on S, so its size is their sum (infinite if one of them
    is), capped at 2^R for the Forall's rank R.  Its body compiles over S
    and its own variable.  This is Feferman-Vaught over the cell
    partition: the Forall's truth depends only on the values of its free
    variables, and the sizes of their cells fix those values up to an
    automorphism of the algebra (in the atomless algebra, which cells are
    nonzero do).  Each Forall's free variables are kept on the node.
    The depth guard counts nested quantifiers, not cells, so projection
    does not move it; but a projected Forall tries its splits in the
    order of its own cells, and that order decides whether a failing
    split or the guard is reached first.  Each Forall memoises its
    answer in its own dict, keyed on the sizes it reads, which fix the
    answer whatever the algebra; the dict lives as long as the compiled
    check, which `valid_all_bas` and `TheoryOracle.membership` run over
    each member of their family.  Each (size, cap) is split once, in
    one cache that every check shares."""
    closed(A, "model_check")
    return _compile(A)(spec) is None


def _compile(A: Formula):
    """model_check's compile step: the check of the closed formula A in a
    spec, which answers None or A's refutation there."""
    check, rank = _compiled(A, {}, 0, 0)
    top = 1 << rank

    def run(spec: BASpec):
        if isinstance(spec, Atomless):
            return check((math.inf,))
        if spec.atoms > MAX_ATOMS:
            raise GuardExceeded(f"{spec.atoms} atoms exceeds the guard of {MAX_ATOMS}")
        return check((min(spec.atoms, top),))
    return run


def _compiled(f: Formula, env: dict[str, int], width: int, depth: int):
    """f's closure and quantifier rank under depth quantifiers; env maps
    each variable to its column over the 2^width cells."""
    if isinstance(f, Neq):
        ones = (1 << (1 << width)) - 1
        diff = (eval_term_01(f.lhs, env, ones)
                ^ eval_term_01(f.rhs, env, ones))
        cells = [m for m in range(1 << width) if diff >> m & 1]
        return (lambda sizes: None if any(map(sizes.__getitem__, cells))
                else sizes), 0
    if isinstance(f, Impl):
        ante, r_ante = _compiled(f.ante, env, width, depth)
        cons, r_cons = _compiled(f.cons, env, width, depth)
        return (lambda sizes: None if ante(sizes) is not None
                else cons(sizes)), max(r_ante, r_cons)
    if not isinstance(f, Forall):
        raise TypeError(f"not a formula: {f!r}")
    if depth == MAX_DEPTH:
        def too_deep(sizes):
            raise GuardExceeded(
                f"quantifier depth {depth + 1} exceeds the guard of {MAX_DEPTH}")
        return too_deep, 0
    getters = None
    if len(f._free) < width:
        getters, env = _project(env, width, sorted(f._free))
        width = len(f._free)
    half = 1 << width  # cell m + half is cell m inside f.var
    cols = {name: col | col << half for name, col in env.items()}
    cols[f.var] = (1 << half) - 1 << half
    body, rank = _compiled(f.body, cols, width + 1, depth + 1)
    return _memoised(f.var, body, rank, getters), rank + 1


def brute_check(A: Formula, k: int) -> bool:
    """Truth in {0,1}^k by direct enumeration; elements are k-bit masks."""
    closed(A, "brute_check")
    if not 1 <= k <= 3:
        raise UsageError(f"brute_check supports 1 <= k <= 3, got {k}")
    return _brute_holds(A, {}, (1 << k) - 1)


def _brute_term(a, env: dict[str, int], full: int) -> int:
    if isinstance(a, Var):
        return env[a.name]
    if isinstance(a, Zero):
        return 0
    if isinstance(a, One):
        return full
    if isinstance(a, Not):
        return full ^ _brute_term(a.arg, env, full)
    if isinstance(a, Or):
        return _brute_term(a.lhs, env, full) | _brute_term(a.rhs, env, full)
    if isinstance(a, And):
        return _brute_term(a.lhs, env, full) & _brute_term(a.rhs, env, full)
    raise TypeError(f"not a term: {a!r}")


def _brute_holds(f: Formula, env: dict[str, int], full: int) -> bool:
    if isinstance(f, Neq):
        return _brute_term(f.lhs, env, full) != _brute_term(f.rhs, env, full)
    if isinstance(f, Impl):
        return (not _brute_holds(f.ante, env, full)
                or _brute_holds(f.cons, env, full))
    if isinstance(f, Forall):
        return all(_brute_holds(f.body, {**env, f.var: v}, full)
                   for v in range(full + 1))
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Validity in all Boolean algebras with at least two elements
# --------------------------------------------------------------------------

class Justification(Enum):
    GROUND = "ground"
    HORN = "horn"
    TAUTOLOGY = "tautology"


@dataclass(frozen=True)
class Verdict:
    status: str                       # "valid" | "refuted" | "unknown"
    justification: Justification | None = None
    witness: BASpec | None = None
    trace: tuple[str, ...] = ()
    detail: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_refuted(self) -> bool:
        return self.status == "refuted"


def is_prop_tautology(A: Formula) -> bool:
    """Sound incomplete validity test: treat the inequation atoms of the
    quantifier-stripped matrix as independent propositional atoms and
    truth-table the implication structure.  Any truth-value assignment the
    atoms can take in some algebra is among those enumerated, so a
    tautology here is true in every Boolean algebra.

    Two inequation occurrences are the same atom when their sides are
    equal terms and each of their variables is bound by the same
    quantifier occurrence, or free in both.  Quantifier occurrences are
    numbered in walk order, as `canon` numbers its fresh names, so this is
    equality of the occurrences in `canon(A)` with its quantifiers
    stripped: a quantifier binds one name, so renaming each bound variable
    after its binder is one-to-one.  The nesting depth of the binder is
    not enough: in ((forall x. x != 0) -> 0 != 0) -> forall x. (x != 0 ->
    0 != 0) both x are bound at depth 0, by different quantifiers, and the
    sentence, false in {0,1}, would read as the tautology
    (p -> _|_) -> (p -> _|_).

    Atoms true or false in every algebra are pinned; the others are
    numbered 0..n-1 in order of first occurrence, left to right.  The
    truth table is an int of 2^n bits: bit b holds the matrix's value
    under the assignment that makes atom i true exactly when bit i of b
    is 1.  Atoms are collected from a to-do list of (subformula, binders
    in scope), antecedents first, so in pre-order; `_prop_table` reads
    the leaves' columns from an iterator passed down to it."""
    binders = itertools.count()
    index: dict[tuple, int] = {}  # distinct atoms, in order of first occurrence
    pins: list[bool | None] = []  # each distinct atom's pinned truth value
    leaves: list[int] = []  # each leaf's atom, left to right
    todo: list[tuple[Formula, dict[str, int]]] = [(A, {})]
    while todo:
        f, env = todo.pop()
        if isinstance(f, Impl):
            todo.append((f.cons, env))
            todo.append((f.ante, env))
        elif isinstance(f, Forall):
            todo.append((f.body, {**env, f.var: next(binders)}))
        else:
            names = sorted(f._free)
            i = index.setdefault((f.lhs, f.rhs, *map(env.get, names)),
                                 len(index))
            if i == len(pins):
                pins.append(False if f.lhs == f.rhs
                            else None if names else eval_formula_01(f))
            leaves.append(i)
    n = pins.count(None)
    if n > MAX_PROP_ATOMS:
        return False
    ones = (1 << (1 << n)) - 1
    columns = []
    i = 0
    for pin in pins:
        if pin is None:
            columns.append(_column(i, ones))
            i += 1
        else:
            columns.append(ones if pin else 0)
    return _prop_table(A, ones, map(columns.__getitem__, leaves)) == ones


def _prop_table(f: Formula, ones: int, column) -> int:
    if isinstance(f, Neq):
        return next(column)
    if isinstance(f, Forall):
        return _prop_table(f.body, ones, column)
    ante = _prop_table(f.ante, ones, column)
    return (ones ^ ante) | _prop_table(f.cons, ones, column)


def _in_01(A: Formula) -> tuple[Justification, bool] | None:
    """For a closed ground or Horn A, its justification and its truth in
    {0,1}, which is its truth in every Boolean algebra with at least two
    elements; None for any other A.  Ground terms land in the two-element
    subalgebra {0,1}, which embeds in every such algebra.  A universal
    Horn sentence true in {0,1} is true in every Boolean algebra, since
    each is a subalgebra of a power of {0,1}; one false in {0,1} is false
    in every algebra that embeds {0,1}.  `eval_formula_01` tries both
    values of each read variable and one of a vacuous quantifier's.  A
    Horn A that reads more than MAX_PROP_ATOMS variables holds its
    outermost extra ones at 0, so at most 2^MAX_PROP_ATOMS assignments
    are tried: it is false if one of them fails it, and None otherwise.
    A None sentence goes on to `is_prop_tautology` and the family, whose
    depth guard answers."""
    if is_ground(A):
        return Justification.GROUND, eval_formula_01(A)
    reads, body = [], A
    while isinstance(body, Forall):
        if body.var in body.body._free:
            reads.append(body)
        body = body.body
    if horn_shape(A) is HornKind.NOT_HORN:
        return None
    # a shadowed binder reads nothing, so the held names are distinct
    held = reads[:-MAX_PROP_ATOMS]
    holds = eval_formula_01(held[-1].body if held else A,
                            {f.var: 0 for f in held})
    return None if held and holds else (Justification.HORN, holds)


def valid_all_bas(A: Formula,
                  family: Sequence[BASpec] = DEFAULT_FAMILY) -> Verdict:
    """Three-valued verdict on truth in every Boolean algebra with at
    least two elements.  An empty family would pass every formula, so it
    is refused."""
    closed(A, "valid_all_bas")
    family = tuple(family)  # an iterator is truthy however empty
    if not family:
        raise UsageError("valid_all_bas needs a nonempty family")
    decided = _in_01(A)
    if decided is not None:
        just, holds = decided
        if holds:
            return Verdict("valid", just)
        try:  # only for the trace: {0,1} has refuted A already
            refutation = _compile(A)(PowerFinite(1))
        except GuardExceeded:
            refutation = None
        return Verdict("refuted", witness=PowerFinite(1),
                       trace=_trace(refutation) if refutation else ())
    if is_prop_tautology(A):
        return Verdict("valid", Justification.TAUTOLOGY)
    check = _compile(A)
    for spec in family:
        try:
            refutation = check(spec)
        except GuardExceeded as e:
            return Verdict("unknown", detail=f"guard: {e}")
        if refutation is not None:
            return Verdict("refuted", witness=spec, trace=_trace(refutation))
    return Verdict("unknown", detail="family-passed")


# --------------------------------------------------------------------------
# Theory oracles
# --------------------------------------------------------------------------

@dataclass
class TheoryOracle:
    """Membership in the intersection of the complete theories of a family
    of Boolean algebras.  Such an intersection is closed under classical
    deduction, and every member algebra has at least two elements, so the
    background axioms all belong.  For the same reason a ground sentence,
    or a Horn one that reads at most MAX_PROP_ATOMS variables, is decided
    in {0,1}, as `valid_all_bas` decides it, whatever the family: no guard
    of the family's algebras is reached.  Any other sentence is compiled
    once and checked in each member; if a member's guard is met, a
    propositional tautology still answers True."""
    family: tuple[BASpec, ...] = DEFAULT_FAMILY

    def __post_init__(self):
        self.family = tuple(self.family)  # an iterator is truthy however empty
        if not self.family:
            raise UsageError("a theory oracle needs a nonempty family")

    def membership(self, A: Formula) -> bool:
        closed(A, "TheoryOracle.membership")
        decided = _in_01(A)
        if decided is not None:
            return decided[1]
        check = _compile(A)
        try:
            return all(check(spec) is None for spec in self.family)
        except GuardExceeded:
            if is_prop_tautology(A):
                return True
            raise
