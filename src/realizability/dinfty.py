"""Finite-rank approximation of the reflexive lattice model.

Rank 0 is the two-point lattice; rank n+1 is the lattice of monotone maps
from rank n to itself, ordered pointwise.  Values are represented by
canonical tables: a rank-0 value is 0 or 1 (equal to its enumeration
index), and a rank-(n+1) value is a tuple assigning to each enumeration
index of rank n an enumeration index of rank n.  Enumeration is in
lexicographic order, which is inductively a linear extension of the
pointwise order, so index 0 is bottom and the last index is top.  No rank
is listed to find its size or a value: a table is built entry by entry,
and the state after some entries are placed is the tuple of lower bounds
they force on the rest (`_moves`).  The number of monotone completions of
each state is memoised (`_count`; rank 3 has 417 states), so
`level_size(n)` is the count of the empty state and `val(n, i)` unranks
index i by walking the entries and subtracting completion counts.
`tables(n)` streams the tables by a depth-first walk over the same states,
in order, and `level(n)` keeps them; only ranks 1 and 2 are kept, for
`idx_of`.  The order and the join of each rank below MAX_RANK are one
pair of index matrices, built once per rank from `level(n)` (`_matrices`),
not a memo per pair of indices.  `tbl_leq` and `tbl_join`, the one order
and join, read them entrywise, and so do `_moves`, `arrow` and `lam`'s
monotonicity check.  Rank 3 has no matrix; its order and join are taken
entrywise from rank 2's, so neither builds rank 3's index map.

The projection pair between ranks n and n+1 is cached the same way, as
maps of enumeration indices (`phi_idx`, `psi_idx`), and the table forms
`phi_tbl` and `psi_tbl` read them entrywise.

Elements of the limit are families of per-rank components coherent under
the downward projections; they are built lazily and memoised, and carry
no tag beyond their home rank.  MAX_RANK (3) bounds both the enumerated
ranks and the components that can be materialised, so rank-4 components
are never built.  The truncated control element is built once.

On top: step functions (arrow), application and abstraction through the
retraction, the truncated control-operator element, denotations of machine
terms and of closed formulas, formula synthesis from an element, and the
sequentialisability check.  The term search's candidates of each size
are built once, when a search first reaches that size, and kept until the
cache is cleared (`_candidates`); their components are computed on
demand, when a comparison first reads them, and a candidate whose rank-2
component needs a rank above MAX_RANK does not dominate.  θ codes read the
values of rank n - 1 by index from `level(n - 1)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .bamodels import DEFAULT_FAMILY, valid_all_bas
from .formulas import (
    Formula, Forall, Impl, Neq, ONE, UsageError, ZERO, eval_term_01,
    closed, forall_many, rows_term,
)
from .lcterms import (
    App, CC, Cc, EMPTY, Gamma, Kont, LVar, Lam, LcTerm, Process, check_closed,
    stack_to_list, walk,
)


class RankCapError(Exception):
    """An operation demanded a rank above MAX_RANK."""


MAX_RANK = 3  # rank-4 tables are astronomically many


# --------------------------------------------------------------------------
# Level enumeration and table algebra
# --------------------------------------------------------------------------

def _check_rank(n: int) -> None:
    if n < 0:
        raise UsageError("negative rank")
    if n > MAX_RANK:
        raise RankCapError(f"rank {n} exceeds the enumeration cap {MAX_RANK}")


def tables(n: int):
    """The values of rank n in lexicographic order, one at a time: a
    depth-first walk over the states of `_moves`, which lists each entry's
    values in increasing order, so tables come out sorted."""
    _check_rank(n)
    if n == 0:
        yield from (0, 1)
        return
    yield from _completions(n, 0, (0,) * level_size(n - 1), ())


def _completions(n: int, i: int, lows: tuple, prefix: tuple):
    if not lows:
        yield prefix
        return
    for c, after in _moves(n, i, lows):
        yield from _completions(n, i + 1, after, prefix + (c,))


@lru_cache(maxsize=None)
def level(n: int) -> tuple:
    """All values of rank n, in lexicographic order."""
    return tuple(tables(n))


@lru_cache(maxsize=None)
def _moves(n: int, i: int, lows: tuple) -> tuple:
    """The values entry i of a rank-n table can take, in increasing order,
    each paired with the state it leaves.  The state after entries 0..i-1
    are placed is the tuple of lower bounds they force on entries i..: for
    j < k with value(j) <= value(k) pointwise, monotonicity forces
    table[k] >= table[j].  Lexicographic index order is a linear
    extension, so each constraint bounds an entry by an earlier one, and
    lower bounds are all a state needs."""
    order, joins = _matrices(n - 1)
    above_i = order[i][i + 1:]
    out = []
    for c, ok in enumerate(order[lows[0]]):
        if ok:
            with_c = joins[c]
            out.append((c, tuple(with_c[lo] if up else lo
                                 for up, lo in zip(above_i, lows[1:]))))
    return tuple(out)


@lru_cache(maxsize=None)
def _count(n: int, i: int, lows: tuple) -> int:
    """The number of monotone completions of a state."""
    if not lows:
        return 1
    return sum(_count(n, i + 1, after) for _, after in _moves(n, i, lows))


@lru_cache(maxsize=None)
def level_size(n: int) -> int:
    _check_rank(n)
    return 2 if n == 0 else _count(n, 0, (0,) * level_size(n - 1))


@lru_cache(maxsize=None)
def val(n: int, i: int):
    """The rank-n value at enumeration index i, unranked without listing
    the rank: each entry takes the value whose completions contain i."""
    if not 0 <= i < level_size(n):
        raise IndexError(f"index {i} out of range at rank {n}")
    if n == 0:
        return i
    lows, out = (0,) * level_size(n - 1), []
    for k in range(len(lows)):
        for c, after in _moves(n, k, lows):
            if i < _count(n, k + 1, after):
                break
            i -= _count(n, k + 1, after)
        out.append(c)
        lows = after
    return tuple(out)


@lru_cache(maxsize=None)
def _index_map(n: int) -> dict:
    return {v: i for i, v in enumerate(level(n))}


def idx_of(n: int, v) -> int:
    return v if n == 0 else _index_map(n)[v]


@lru_cache(maxsize=None)
def _matrices(n: int) -> tuple[tuple[tuple[bool, ...], ...],
                               tuple[tuple[int, ...], ...]]:
    """Rank n's order and join as index matrices, for n < MAX_RANK: row i
    of the first holds at column j whether value i <= value j, row i of
    the second the index of their join.  Built once per rank from
    level(n), pointwise from the matrices of rank n - 1."""
    if n < 0:
        raise UsageError("negative rank")
    if n >= MAX_RANK:
        raise RankCapError(f"rank {n} has no order matrix")
    if n == 0:
        return ((True, True), (False, True)), ((0, 1), (1, 1))
    order, joins = _matrices(n - 1)
    vs, index = level(n), _index_map(n)
    leq_rows = tuple(
        tuple(all(order[a][b] for a, b in zip(x, y)) for y in vs) for x in vs)
    join_rows = tuple(
        tuple(index[tuple(joins[a][b] for a, b in zip(x, y))] for y in vs)
        for x in vs)
    return leq_rows, join_rows


def tbl_leq(n: int, x, y) -> bool:
    """Pointwise order on rank-n values."""
    if n == 0:
        return x <= y
    order = _matrices(n - 1)[0]
    return all(order[a][b] for a, b in zip(x, y))


def tbl_join(n: int, x, y):
    """Pointwise join on rank-n values."""
    if n == 0:
        return x | y
    joins = _matrices(n - 1)[1]
    return tuple(joins[a][b] for a, b in zip(x, y))


# --------------------------------------------------------------------------
# Projection pairs
# --------------------------------------------------------------------------

def phi_tbl(n: int, a):
    """The rank-raising half: D_n -> D_{n+1}."""
    if n == 0:
        return (a, a)  # the constant map
    return tuple(phi_idx(n - 1, a[psi_idx(n - 1, i)])
                 for i in range(level_size(n)))


def psi_tbl(n: int, f):
    """The rank-lowering half: D_{n+1} -> D_n."""
    if n == 0:
        return f[0]  # evaluate at bottom
    return tuple(psi_idx(n - 1, f[phi_idx(n - 1, i)])
                 for i in range(level_size(n - 1)))


@lru_cache(maxsize=None)
def phi_idx(n: int, i: int) -> int:
    return idx_of(n + 1, phi_tbl(n, val(n, i)))


@lru_cache(maxsize=None)
def psi_idx(n: int, i: int) -> int:
    return idx_of(n, psi_tbl(n, val(n + 1, i)))


# --------------------------------------------------------------------------
# Limit elements
# --------------------------------------------------------------------------

class DElem:
    """A lazily materialised family of per-rank components.

    ``fn(n)`` supplies the component at ranks >= home; below home the
    component is the downward projection of the one above.
    """

    __slots__ = ("home", "_fn", "_memo")

    def __init__(self, home: int, fn: Callable[[int], object]):
        self.home = home
        self._fn = fn
        self._memo: dict[int, object] = {}

    def component(self, n: int):
        if n < 0:
            raise UsageError("negative rank")
        if n > MAX_RANK:
            raise RankCapError(f"component({n}) exceeds the rank cap {MAX_RANK}")
        if n not in self._memo:
            if n >= self.home:
                self._memo[n] = self._fn(n)
            else:
                self._memo[n] = psi_tbl(n, self.component(n + 1))
        return self._memo[n]

    def __repr__(self):
        shown = {n: self._memo[n] for n in sorted(self._memo)}
        return f"DElem(home={self.home}, computed={shown})"


def elem(home: int, v) -> DElem:
    """The coherent family through a single rank-`home` value, raised by
    phi above and projected by psi below.  `fn` keeps only home and v and
    raises v a rank at a time, so the family does not refer to itself."""
    def fn(n: int):
        raised = v
        for k in range(home, n):
            raised = phi_tbl(k, raised)
        return raised

    return DElem(home, fn)


def bottom() -> DElem:
    return elem(0, 0)


def top() -> DElem:
    return elem(0, 1)


def join(*xs: DElem) -> DElem:
    """Componentwise join; coherent because the projections preserve
    finite joins."""
    if not xs:
        return bottom()
    # keep the highest home so lower components come from projections
    home = max(x.home for x in xs)

    def fn(n: int):
        acc = xs[0].component(n)
        for x in xs[1:]:
            acc = tbl_join(n, acc, x.component(n))
        return acc

    return DElem(home, fn)


def leq(x: DElem, y: DElem, rank: int) -> bool:
    """Order comparison of all components up to the given rank."""
    return all(tbl_leq(n, x.component(n), y.component(n))
               for n in range(rank + 1))


def eq_at(x: DElem, y: DElem, rank: int) -> bool:
    return all(x.component(n) == y.component(n) for n in range(rank + 1))


def arrow(x: DElem, y: DElem) -> DElem:
    """The least element whose applicative behaviour sends x above y: at
    each rank above its home it is the step table v |-> y if v >= x,
    bottom otherwise."""
    h = max(x.home, y.home) + 1

    def fn(n: int):
        above_x = _matrices(n - 1)[0][idx_of(n - 1, x.component(n - 1))]
        yi = idx_of(n - 1, y.component(n - 1))
        return tuple(yi if ok else 0 for ok in above_x)

    return DElem(h, fn)


def app(f: DElem, a: DElem) -> DElem:
    """Application through the retraction: the rank-n component reads the
    rank-(n+1) table of f at the rank-n component of a."""
    def fn(n: int):
        ft = f.component(n + 1)
        return val(n, ft[idx_of(n, a.component(n))])

    return DElem(0, fn)


def lam(body: Callable[[DElem], DElem]) -> DElem:
    """Abstraction through the retraction: the rank-(n+1) table maps each
    rank-n value v to the rank-n component of body at the embedding of v.
    The body must be monotone at the ranks used (checked)."""

    def fn(n: int):
        if n == 0:
            return body(bottom()).component(0)
        order = _matrices(n - 1)[0]
        tbl = tuple(idx_of(n - 1, body(elem(n - 1, v)).component(n - 1))
                    for v in level(n - 1))
        for i, row in enumerate(order):
            above = order[tbl[i]]
            for j, ok in enumerate(row):
                if ok and not above[tbl[j]]:
                    raise UsageError("non-monotone abstraction body")
        return tbl

    return DElem(0, fn)


@lru_cache(maxsize=None)
def cc_elem() -> DElem:
    """Truncated control-operator element: the join of the dominance
    pattern ((b -> c) -> b) -> b over all b, c of rank 0.  Over rank-n
    values the pattern has home rank n + 3, so under MAX_RANK only rank 0
    can be built.  The full element joins over the whole limit, so this
    is a lower bound."""
    rank0 = (bottom(), top())
    return join(*(arrow(arrow(arrow(b, c), b), b)
                  for b in rank0 for c in rank0))


# --------------------------------------------------------------------------
# Denotation of machine terms
# --------------------------------------------------------------------------

def denote(t: LcTerm) -> DElem:
    """Denotation of a closed machine term.  A tagged instruction denotes
    bottom; a stack constant denotes the term that replays its entries.
    t is checked closed here, the entries of its k[...] and its tags too,
    as a process facing the empty stack."""
    check_closed(Process(t, EMPTY))
    return _denote(t)


def _denote(t: LcTerm) -> DElem:
    """`denote` of a term known closed, unchecked: the term search's
    candidates are built closed.  The walk is `_denote_in`, whose state is
    the environment of the binders in scope, passed down to it."""
    return _denote_in(t, {})


def _denote_in(t: LcTerm, env: dict[str, DElem]) -> DElem:
    if isinstance(t, LVar):
        return env[t.name]
    if isinstance(t, App):
        return app(_denote_in(t.fn, env), _denote_in(t.arg, env))
    if isinstance(t, Lam):
        return lam(lambda d: _denote_in(t.body, {**env, t.var: d}))
    if isinstance(t, Cc):
        return cc_elem()
    if isinstance(t, Gamma):
        return bottom()
    if isinstance(t, Kont):
        # The entries are closed, so the binder y captures none of them.
        expansion: LcTerm = LVar("y")
        for u in stack_to_list(t.stack):
            expansion = App(expansion, u)
        return _denote_in(Lam("y", expansion), env)
    raise TypeError(f"not a term: {t!r}")


# --------------------------------------------------------------------------
# Denotation and synthesis of closed formulas
# --------------------------------------------------------------------------

def denote_formula(A: Formula) -> DElem:
    """Denotation of a closed formula: a true inequation is bottom and a
    false one top; implication is the step function; a quantifier is the
    join of its two instances.  Closedness is checked here once, and an
    instance is the body read with its variable bound to a bit in env, so
    no term is rebuilt."""
    closed(A, "denote_formula")
    return _denote_formula(A, {})


def _denote_formula(f: Formula, env: dict[str, int]) -> DElem:
    if isinstance(f, Neq):
        truth = eval_term_01(f.lhs, env) != eval_term_01(f.rhs, env)
        return bottom() if truth else top()
    if isinstance(f, Impl):
        return arrow(_denote_formula(f.ante, env), _denote_formula(f.cons, env))
    if isinstance(f, Forall):
        return join(_denote_formula(f.body, {**env, f.var: 0}),
                    _denote_formula(f.body, {**env, f.var: 1}))
    raise TypeError(f"not a formula: {f!r}")


def _selectors(n: int) -> tuple[int, list[int]]:
    """A rank-n code's selector width r and its 2^r selector values."""
    m = level_size(n - 1)
    r = max(1, math.ceil(math.log2(max(m, 2))))
    return r, [min(i, m - 1) for i in range(1 << r)]  # padding repeats top


def _famcode(n: int, fam: list, us: tuple[str, ...],
             start: int) -> tuple[Formula, int]:
    """A formula in the variables us whose denotation at each 0/1
    instantiation of us is a rank-n value of fam: fam[b] at row number b,
    which counts the instantiations in `itertools.product` order with the
    first variable as the most significant bit.  Paired with the first
    index past the names u<start>, u<start+1>, ... that it binds.

    Rank 0 values are coded by an inequation against 0 whose left side is
    the truth table with a 1 exactly in the rows where fam holds bottom.
    Rank n+1 values are coded as a quantified implication whose selector
    variables sweep the rank-n values: the instance at selector index s is
    (code of value_s) -> (code of fam[b] applied to value_s), and the
    join of those step functions is fam[b] itself.  The antecedent, the
    selector code, reads fam only through len(fam), and the names that
    it binds start at a position fixed by n alone, so it is one formula
    for every alpha of a rank: `_selcode` builds it once per key (rank,
    count, us, start), and perfbench/run.py clears that cache with every
    package lru_cache before each pass."""
    if n == 0:
        return Neq(rows_term([x == 0 for x in fam], us), ZERO), start
    r, sel = _selectors(n)
    vs = tuple(f"u{i}" for i in range(start, start + r))
    ante, start = _selcode(n - 1, len(fam), us + vs, start + r)
    values = level(n - 1)
    cons, start = _famcode(n - 1, [values[t[s]] for t in fam for s in sel],
                           us + vs, start)
    return forall_many(vs, Impl(ante, cons)), start


@lru_cache(maxsize=None)
def _selcode(n: int, count: int, us: tuple[str, ...],
             start: int) -> tuple[Formula, int]:
    """`_famcode` of count copies of the rank-(n+1) selector values."""
    values, sel = level(n), _selectors(n + 1)[1]
    return _famcode(n, [values[s] for _ in range(count) for s in sel],
                    us, start)


def theta(alpha: DElem) -> Formula:
    """A closed formula whose denotation agrees with alpha at and below
    alpha's home rank.  Its selector codes come from the `_selcode` cache
    (see `_famcode`), shared by every θ of the rank until the cache is
    cleared, so a warm rank-3 θ builds one truth table, its innermost
    consequent, instead of eight."""
    n = alpha.home
    v = alpha.component(n)
    if n == 0:
        return Neq(ZERO, ONE) if v == 0 else Neq(ZERO, ZERO)
    return _famcode(n, [v], (), 0)[0]


# --------------------------------------------------------------------------
# Term search and the sequentialisability check
# --------------------------------------------------------------------------

def _debruijn_terms(size: int, depth: int, allow_cc: bool):
    """Terms of exactly the given size, closed under `depth` enclosing
    binders x0 .. x<depth-1>; variables cost 1, abstraction and
    application cost 1 plus their parts."""
    if size <= 0:
        return
    if size == 1:
        for i in range(depth):
            yield LVar(f"x{depth - 1 - i}")
        if allow_cc:
            yield CC
    if size >= 2:
        for b in _debruijn_terms(size - 1, depth + 1, allow_cc):
            yield Lam(f"x{depth}", b)
    for left in range(1, size - 1):
        for f in _debruijn_terms(left, depth, allow_cc):
            for a in _debruijn_terms(size - 1 - left, depth, allow_cc):
                yield App(f, a)


@lru_cache(maxsize=None)
def _candidates(size: int, allow_cc: bool) -> tuple[tuple[LcTerm, DElem], ...]:
    """The terms of one size that `term_search` tries, in enumeration
    order, each with its denotation, whose components are left unbuilt:
    a search computes one when it first compares it, and the element
    keeps it for every later search until this cache is cleared.
    `_debruijn_terms` builds each term closed, so none is checked again.
    The cc pass keeps only terms that use cc, since the pure pass tried
    the rest."""
    return tuple((t, _denote(t)) for t in _debruijn_terms(size, 0, allow_cc)
                 if not allow_cc or any(type(n) is Cc for n, _, _ in walk(t)))


def term_search(alpha: DElem, size_budget: int = 5) -> LcTerm | None:
    """First closed machine term (abstraction, application, control
    operator) whose denotation dominates alpha at rank 2.  Terms without
    the control operator are tried first at every size.  The candidates
    of each size do not depend on alpha: they are built once, when a
    search first reaches that size, and kept by `_candidates` until its
    cache is cleared.  A candidate's components at ranks 0-2 are computed
    on demand, rank by rank, and only as far as the comparison reads
    them.  The seven cc terms of size 5 and 6 whose rank-2 component needs
    rank 4 raise RankCapError when it is read, and such a term does not
    dominate: no search could return it."""
    want = [alpha.component(n) for n in range(3)]
    for allow_cc in (False, True):
        for size in range(1, size_budget + 1):
            for t, d in _candidates(size, allow_cc):
                try:
                    if all(tbl_leq(n, a, d.component(n))
                           for n, a in enumerate(want)):
                        return t
                except RankCapError:
                    continue
    return None


@dataclass(frozen=True)
class SeqVerdict:
    status: str                 # "sequentialisable" | "not-sequentialisable" | "unknown"
    witness: LcTerm | None = None
    detail: str = ""


def seq_check(alpha: DElem, *, family=DEFAULT_FAMILY) -> SeqVerdict:
    """Is some closed machine term denoted at or above alpha?  Equivalent
    to truth of the synthesized formula in every Boolean algebra with at
    least two elements, which is decided as far as the validity layer
    allows; a dominance witness (a searched term, checked at rank 2, or
    the truncated control element) corroborates or settles the positive
    side."""
    v = valid_all_bas(theta(alpha), family)
    if v.is_refuted:
        return SeqVerdict("not-sequentialisable")
    if v.is_valid:
        w = term_search(alpha)
        if w is None and _cc_dominates(alpha):
            w = CC
        return SeqVerdict("sequentialisable", witness=w,
                          detail="" if w else "no witness within budget")
    # Validity undecided: a dominance witness still settles the question.
    if _cc_dominates(alpha):
        return SeqVerdict("sequentialisable", witness=CC,
                          detail="dominated by the truncated control element")
    w = term_search(alpha)
    if w is not None:
        return SeqVerdict("sequentialisable", witness=w,
                          detail="search witness; validity layer undecided")
    return SeqVerdict("unknown", detail=v.detail)


def _cc_dominates(alpha: DElem) -> bool:
    """alpha's home is at most MAX_RANK: seq_check has built theta(alpha)."""
    return leq(alpha, cc_elem(), alpha.home)
