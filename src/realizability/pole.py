"""The inductive pole over a Boolean-algebra theory.

⫫_0 is empty; p ∈ ⫫_{k+1} iff either the machine takes p to some q ∈ ⫫_k,
or p is a tagged instruction facing a stack and the two-level decomposition
of its tag admits a witness: bits for the outer quantifier variables making
the head equality true such that, for every premise and every bit choice
for its inner variables making that premise's head equality true, the
corresponding stack entry facing the premise's sub-tags is in ⫫_k.

Membership in each ⫫_k is decided exactly; membership in the union is
semi-decided up to a bound k_max.

The pole consults no theory: a tag's witness bits are checked by
evaluating its head equality in {0,1}.  Only gamma_classify asks a
theory, and it takes its oracle as an argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .bamodels import GuardExceeded, Verdict, valid_all_bas
from .formulas import (
    Formula, Impl, InnerDecomposition, ONE, UsageError, ZERO,
    alpha_eq, bot, decompose, eval_term_01, free_vars, recompose_inner,
    subst_formula,
)
from .lcterms import (
    EMPTY, Gamma, LcTerm, Process, SPush, StackT, canon_process,
    constraint_of, stack_of, stack_to_list,
)
from .machine import step1


class GammaClass(Enum):
    UNRESTRICTED = "unrestricted"
    RESTRICTED = "restricted"


@dataclass
class ExplicitTheory:
    """A finite formula list with membership up to alpha-equivalence.
    Not closed under deduction; adequate for the pole itself, which only
    needs a membership function."""
    formulas: tuple[Formula, ...]

    def membership(self, A: Formula) -> bool:
        return any(alpha_eq(A, B) for B in self.formulas)


def gamma_classify(A: Formula, oracle) -> GammaClass:
    if free_vars(A):
        raise UsageError("gamma_classify needs a closed formula")
    try:
        member = oracle.membership(A)
    except GuardExceeded:
        member = False  # conservative: unknown tags count as restricted
    return GammaClass.UNRESTRICTED if member else GammaClass.RESTRICTED


@dataclass
class PoleConfig:
    k_max: int = 32
    memo: dict = field(default_factory=dict, repr=False)


def _bits_env(names: Sequence[str], bits: Sequence[int]) -> dict[str, int]:
    return dict(zip(names, bits))


def _subst_bits(A: Formula, env: dict[str, int]) -> Formula:
    names = list(env)
    return subst_formula(A, names, [ONE if env[n] else ZERO for n in names])


def _head_true(lhs, rhs, env: dict[str, int]) -> bool:
    return eval_term_01(lhs, env) == eval_term_01(rhs, env)


def in_pole(p: Process, k: int, cfg: PoleConfig) -> bool:
    """Exact membership of p in ⫫_k."""
    if k <= 0:
        return False
    key = (canon_process(p), k)
    hit = cfg.memo.get(key)
    if hit is not None:
        return hit
    result = _in_pole_raw(p, k, cfg)
    cfg.memo[key] = result
    return result


def _in_pole_raw(p: Process, k: int, cfg: PoleConfig) -> bool:
    q = step1(p)
    if q is not None and in_pole(q, k - 1, cfg):
        return True
    if not isinstance(p.term, Gamma):
        return False
    A = p.term.tag
    if free_vars(A):
        raise UsageError(f"open instruction tag: {A!r}")
    d = decompose(A)
    m = len(d.blocks)
    entries = stack_to_list(p.stack)
    if len(entries) < m:
        return False
    ts = entries[:m]
    pi = p.stack
    for _ in range(m):
        pi = pi.tail
    outer = d.all_vars
    for beta in itertools.product((0, 1), repeat=len(outer)):
        env = _bits_env(outer, beta)
        if not _head_true(d.head_lhs, d.head_rhs, env):
            continue
        if all(_block_ok(ts[i], inner, env, pi, k - 1, cfg)
               for i, (_, inner) in enumerate(d.blocks)):
            return True
    return False


def _block_ok(t: LcTerm, inner: InnerDecomposition, env: dict[str, int],
              pi: StackT, k: int, cfg: PoleConfig) -> bool:
    ivars = inner.all_vars
    for delta in itertools.product((0, 1), repeat=len(ivars)):
        env2 = dict(env)
        env2.update(_bits_env(ivars, delta))
        if not _head_true(inner.head_lhs, inner.head_rhs, env2):
            continue
        tags = [_subst_bits(sub, env2) for _, sub in inner.blocks]
        proc = Process(t, stack_of(*(Gamma(tag) for tag in tags), tail=pi))
        if not in_pole(proc, k, cfg):
            return False
    return True


def in_pole_limit(p: Process, cfg: PoleConfig | None = None) -> int | None:
    """Least k ≤ k_max with p ∈ ⫫_k, if any.  The levels are cumulative,
    so absence below k_max is the only negative information available."""
    cfg = cfg or PoleConfig()
    for k in range(1, cfg.k_max + 1):
        if in_pole(p, k, cfg):
            return k
    return None


# --------------------------------------------------------------------------
# Canonical falsity stacks and bounded realizability testing
# --------------------------------------------------------------------------

def _tail_pool(depth: int, pool_size: int = 3) -> list[StackT]:
    pool: list[StackT] = [EMPTY]
    for _ in range(depth):
        if len(pool) >= pool_size:
            break
        pool.append(SPush(Gamma(bot()), pool[-1]))
    return pool


def canonical_falsity_stacks(A: Formula, depth: int = 2) -> list[StackT]:
    """Stacks guaranteed to oppose any realizer of A: for every choice of
    outer bits making the head equality true, the premise instances are
    pushed as tagged instructions over a small pool of continuations."""
    if free_vars(A):
        raise UsageError("canonical_falsity_stacks needs a closed formula")
    d = decompose(A)
    outer = d.all_vars
    seen = set()
    out: list[StackT] = []
    for beta in itertools.product((0, 1), repeat=len(outer)):
        env = _bits_env(outer, beta)
        if not _head_true(d.head_lhs, d.head_rhs, env):
            continue
        tags = tuple(_subst_bits(recompose_inner(inner), env)
                     for _, inner in d.blocks)
        if tags in seen:
            continue
        seen.add(tags)
        for pi in _tail_pool(depth):
            out.append(stack_of(*(Gamma(tag) for tag in tags), tail=pi))
    return out


@dataclass
class TestReport:
    term: LcTerm
    formula: Formula
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
    every canonical falsity stack of A."""
    cfg = cfg or PoleConfig()
    results = []
    for pi in canonical_falsity_stacks(A, depth):
        results.append((pi, in_pole_limit(Process(t, pi), cfg)))
    return TestReport(t, A, results)


def constraint_check(p: Process, cfg: PoleConfig | None = None) -> Verdict:
    """Soundness cross-check: membership of p in the pole implies the
    negation of the conjunction of its instruction tags holds in every
    Boolean algebra with at least two elements."""
    A = constraint_of(p)
    if free_vars(A):
        raise UsageError("constraint_check needs closed instruction tags")
    return valid_all_bas(Impl(A, bot()))
