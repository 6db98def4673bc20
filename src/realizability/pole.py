"""The inductive pole over a Boolean-algebra theory.

⫫_0 is empty; p ∈ ⫫_{k+1} iff either the machine takes p to some q ∈ ⫫_k,
or p is a tagged instruction facing a stack and the two-level decomposition
of its tag admits a witness: bits for the outer quantifier variables making
the head equality true such that, for every premise and every bit choice
for its inner variables making that premise's head equality true, the
corresponding stack entry facing the premise's sub-tags is in ⫫_k.

in_pole computes a process's least level directly.  Any process but a
tagged instruction enters one level after its successor, so the machine
runs, a level per step, to a tag, a stuck state (absent) or the end of
the budget.  A tag enters at 1 + the least, over witness bits, of the
greatest level of the premise processes the bits oblige (1 if none),
each asked with one level less.  PoleConfig.memo holds tags only, keyed
by the process as written, read flat by _memo_key, and the remaining
budget, valued by level or 0 (absent within that budget).  Alpha-variant
questions are kept apart, which costs only a miss, and the pole renames
nothing, so it makes none of its own.  Each ⫫_k is decided exactly,
unless a tag has more than 2^MAX_PROP_ATOMS bit choices to read, which
raises GuardExceeded; the union is semi-decided up to k_max.

The pole consults no theory: a tag's witness bits are checked by
evaluating its head equality in {0,1}.

The two-level decomposition is formulas.decompose applied twice: once
to the tag, then once to each premise, whose witnesses are read under
the bits in scope at its block.  Both reads keep the formula's own
binder names.  Neither read is kept: a tag is read again for each
stack and budget it meets, and formulas.Decomposition is a named tuple,
so reading a spine costs about what keeping it would save.
Every variable the pole reads gets a bit, and a bit cannot be captured,
so nothing is renamed.

Closedness is checked once where a process, term or formula comes in
(in_pole, realizes_bounded, canonical_falsity_stacks) and relied on
below: the machine keeps processes closed, and every tag the pole builds
has each variable replaced by a bit.  A process or term is checked by
lcterms.check_closed, a formula by formulas.closed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Iterator

from .bamodels import GuardExceeded, MAX_PROP_ATOMS, Verdict, valid_all_bas
from .formulas import (
    Formula, Impl, ONE, UsageError, ZERO, bot, closed, decompose,
    eval_term_01, subst_formula,
)
from .lcterms import (
    EMPTY, Gamma, LVar, Lam, LcTerm, Process, SPush, StackT, check_closed,
    constraint_of, stack_of, walk,
)
from .machine import step


@dataclass
class PoleConfig:
    k_max: int = 32
    memo: dict = field(default_factory=dict, repr=False)


def _subst_bits(A: Formula, env: dict[str, int]) -> Formula:
    names = list(env)
    return subst_formula(A, names, [ONE if env[n] else ZERO for n in names])


def _witnesses(A: Formula, env: dict[str, int] | None = None
               ) -> Iterator[list[tuple[Formula, dict[str, int]]]]:
    """For each choice of bits for A's spine variables under which A's
    head equality holds in {0,1}, env giving A's free variables: A's
    premises, each with the bits in scope at its block.  Choices come in
    itertools.product order, the first variable most significant.  A
    binder that a later one of its own block shadows gets no bit, since
    decompose leaves it out; a name bound in two blocks takes the later
    binder's bit from that binder on.  Each call decomposes A afresh.  A
    call visits at most 2^MAX_PROP_ATOMS choices and raises GuardExceeded
    on the next one."""
    blocks, tail_vars, head = decompose(A)
    env = env or {}
    names = [v for vs, _ in blocks for v in vs] + list(tail_vars)
    rows = itertools.product((0, 1), repeat=len(names))
    for row, bits in enumerate(rows):
        if row == 1 << MAX_PROP_ATOMS:
            raise GuardExceeded(
                f"a tag with {len(names)} spine variables exceeds the guard "
                f"of 2^{MAX_PROP_ATOMS} bit choices")
        scope = {**env, **dict(zip(names, bits))}
        if eval_term_01(head.lhs, scope) != eval_term_01(head.rhs, scope):
            continue
        scope, rest, premises = env, iter(bits), []
        for vs, premise in blocks:
            scope = {**scope, **dict(zip(vs, rest))}  # takes len(vs) bits
            premises.append((premise, scope))
        yield premises


def in_pole(p: Process, k: int, cfg: PoleConfig) -> int | None:
    """The least level ≤ k at which p enters the pole, or None: truthy
    exactly when p ∈ ⫫_k."""
    check_closed(p)
    return _in_pole(p, k, cfg)


def _in_pole(p: Process, k: int, cfg: PoleConfig) -> int | None:
    """in_pole for a closed p.  Premise questions nest about as deep as
    the budget, so they wait on an explicit stack rather than Python's."""
    pending, answer = [_least_level(p, k, cfg)], None
    while pending:
        try:
            pending.append(_least_level(*pending[-1].send(answer), cfg))
            answer = None
        except StopIteration as done:
            pending.pop()
            answer = done.value
    return answer


def _least_level(p: Process, k: int, cfg: PoleConfig) -> Generator:
    """in_pole's recursion: it yields each premise question (process,
    budget) and is sent the answer."""
    for steps in range(k):
        if isinstance(p.term, Gamma):
            key = (_memo_key(p), k - steps)
            level = cfg.memo.get(key)
            if level is None:
                level = cfg.memo[key] = yield from _tag_level(p, k - steps)
            return steps + level if level else None
        s = step(p)
        if s is None:
            return None
        p = s[0]
    return None


def _memo_key(p: Process) -> tuple:
    """p as a flat tuple, read in one `walk`: each node's class, followed
    by its binder name, variable name or tag.  Each class has a fixed
    arity, so two keys are equal iff the processes are ==.  Building or
    hashing a key recurses through no stack, k[...] or application
    spine, however long; only a tag is hashed as a whole."""
    key = []
    for t, _, _ in walk(p):
        cls = type(t)
        if cls is Lam:
            key += (cls, t.var)
        elif cls is LVar:
            key += (cls, t.name)
        elif cls is Gamma:
            key += (cls, t.tag)
        else:
            key.append(cls)
    return tuple(key)


def _tag_level(p: Process, k: int) -> Generator:
    """The least level ≤ k of a tagged instruction facing a stack, or 0;
    it asks its premise questions as _least_level does.  The tag is
    decomposed once per call, and each premise once per witness that
    reaches it."""
    best = 0
    for premises in _witnesses(p.term.tag):
        ts, pi = [], p.stack
        for _ in premises:
            if not isinstance(pi, SPush):
                return 0
            ts.append(pi.head)
            pi = pi.tail
        worst = 1
        for q in _premises(premises, ts, pi):
            level = yield q, k - 1
            if not level:
                break
            worst = max(worst, level + 1)
        else:
            best = min(best, worst) if best else worst
            if best == 1:
                break
    return best


def _premises(premises: list[tuple[Formula, dict[str, int]]],
              ts: list[LcTerm], pi: StackT) -> Iterator[Process]:
    """The processes that one witness obliges to enter the pole: each
    stack entry facing the sub-tags of every true-head instance of its
    premise, the premise decomposed by _witnesses as it is reached."""
    for t, (premise, scope) in zip(ts, premises):
        for subs in _witnesses(premise, scope):
            tags = (Gamma(_subst_bits(sub, env)) for sub, env in subs)
            yield Process(t, stack_of(*tags, tail=pi))


def in_pole_limit(p: Process, cfg: PoleConfig | None = None) -> int | None:
    """Least k ≤ k_max with p ∈ ⫫_k, if any.  The levels are cumulative,
    so absence below k_max is the only negative information available."""
    cfg = cfg or PoleConfig()
    return in_pole(p, cfg.k_max, cfg)


# --------------------------------------------------------------------------
# Canonical falsity stacks and bounded realizability testing
# --------------------------------------------------------------------------

def _tail_pool(depth: int) -> list[StackT]:
    """The stacks of 0 to depth g{_|_} entries over the empty stack."""
    pool: list[StackT] = [EMPTY]
    for _ in range(depth):
        pool.append(SPush(Gamma(bot()), pool[-1]))
    return pool


def canonical_falsity_stacks(A: Formula, depth: int = 2) -> list[StackT]:
    """Stacks guaranteed to oppose any realizer of A: for every choice of
    outer bits making the head equality true, the premise instances are
    pushed as tagged instructions over a pool of continuations, the empty
    stack and up to `depth` g{_|_} entries over it, 0 <= depth <= 2."""
    if not 0 <= depth <= 2:
        raise UsageError(f"depth must be in 0..2, got {depth}")
    closed(A, "canonical_falsity_stacks")
    seen = set()
    out: list[StackT] = []
    for premises in _witnesses(A):
        tags = tuple(_subst_bits(premise, env) for premise, env in premises)
        if tags in seen:
            continue
        seen.add(tags)
        for pi in _tail_pool(depth):
            out.append(stack_of(*(Gamma(tag) for tag in tags), tail=pi))
    return out


@dataclass
class TestReport:
    results: list[tuple[StackT, int | None]]

    @property
    def failures(self) -> list[StackT]:
        return [pi for pi, k in self.results if k is None]

    @property
    def clean(self) -> bool:
        return not self.failures


def realizes_bounded(t: LcTerm, A: Formula, cfg: PoleConfig | None = None,
                     depth: int = 2) -> TestReport:
    """Evidence (not proof) of realizability: t must enter the pole against
    every canonical falsity stack of A.  t is checked here and A by
    canonical_falsity_stacks, once each; the stacks hold only tags with
    every variable a bit, so each process goes to the pole unchecked."""
    check_closed(Process(t, EMPTY))
    cfg = cfg or PoleConfig()
    results = [(pi, _in_pole(Process(t, pi), cfg.k_max, cfg))
               for pi in canonical_falsity_stacks(A, depth)]
    return TestReport(results)


def constraint_check(p: Process) -> Verdict:
    """Soundness cross-check: membership of p in the pole implies the
    negation of the conjunction of its instruction tags holds in every
    Boolean algebra with at least two elements.  valid_all_bas refuses
    open tags."""
    return valid_all_bas(Impl(constraint_of(p), bot()))
