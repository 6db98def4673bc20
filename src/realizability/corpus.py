"""Reproducible corpora: random terms, formulas, Horn clauses, machine
terms and processes, plus the exhaustive small-formula enumeration used by
the instance suites.  Everything is driven by a seeded generator."""

from __future__ import annotations

import random
from typing import Sequence

from .formulas import (
    And, BTerm, Formula, Forall, Impl, Neq, Not, ONE, Or, Var, ZERO, bot,
    eq, forall_many,
)
from .lcterms import (
    App, CC, Gamma, Kont, LVar, Lam, LcTerm, Process, StackT, stack_of,
)

VARS = ("z", "w", "v")


def random_bterm(rng: random.Random, vars: Sequence[str], depth: int = 2) -> BTerm:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([ZERO, ONE, *map(Var, vars)])
    op = rng.randrange(3)
    if op == 0:
        return Not(random_bterm(rng, vars, depth - 1))
    ctor = And if op == 1 else Or
    return ctor(random_bterm(rng, vars, depth - 1),
                random_bterm(rng, vars, depth - 1))


def random_formula(rng: random.Random, *, height: int = 3,
                   max_qdepth: int = 3, vars: tuple[str, ...] = ()) -> Formula:
    """A closed formula: quantifiers bind the fixed variable pool in order,
    so the quantifier depth is bounded by the pool size."""
    can_quantify = len(vars) < max_qdepth and len(vars) < len(VARS)
    if height <= 0:
        return Neq(random_bterm(rng, vars), random_bterm(rng, vars))
    r = rng.random()
    if r < 0.35:
        return Neq(random_bterm(rng, vars), random_bterm(rng, vars))
    if r < 0.7 or not can_quantify:
        return Impl(random_formula(rng, height=height - 1,
                                   max_qdepth=max_qdepth, vars=vars),
                    random_formula(rng, height=height - 1,
                                   max_qdepth=max_qdepth, vars=vars))
    z = VARS[len(vars)]
    return Forall(z, random_formula(rng, height=height - 1,
                                    max_qdepth=max_qdepth, vars=vars + (z,)))


def random_horn_clause(rng: random.Random) -> Formula:
    vars = VARS[:rng.randrange(len(VARS) + 1)]
    body: Formula
    if rng.random() < 0.5:
        body = Neq(random_bterm(rng, vars), random_bterm(rng, vars))  # goal
    else:
        body = eq(random_bterm(rng, vars), random_bterm(rng, vars))
    for _ in range(rng.randrange(3)):
        body = Impl(eq(random_bterm(rng, vars), random_bterm(rng, vars)),
                    body)
    return forall_many(vars, body)


def formula_corpus(n: int, seed: int, *, height: int = 3,
                   max_qdepth: int = 3) -> list[Formula]:
    rng = random.Random(seed)
    return [random_formula(rng, height=height, max_qdepth=max_qdepth)
            for _ in range(n)]


def horn_corpus(n: int, seed: int) -> list[Formula]:
    rng = random.Random(seed)
    return [random_horn_clause(rng) for _ in range(n)]


# --------------------------------------------------------------------------
# Machine terms and processes
# --------------------------------------------------------------------------

def random_lcterm(rng: random.Random, vars: tuple[str, ...] = (),
                  depth: int = 3) -> LcTerm:
    leaves: list[LcTerm] = [CC, Gamma(bot()), Gamma(Neq(ZERO, ONE))]
    if vars:
        leaves = [LVar(rng.choice(vars))] * 3 + leaves
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    r = rng.random()
    if r < 0.45:
        return App(random_lcterm(rng, vars, depth - 1),
                   random_lcterm(rng, vars, depth - 1))
    if r < 0.85:
        x = f"x{len(vars)}"
        return Lam(x, random_lcterm(rng, vars + (x,), depth - 1))
    return Kont(random_stack(rng, depth - 1))


def random_stack(rng: random.Random, depth: int = 2) -> StackT:
    entries = [random_lcterm(rng, (), depth)
               for _ in range(rng.randrange(3))]
    return stack_of(*entries)


def random_process(rng: random.Random, depth: int = 3) -> Process:
    return Process(random_lcterm(rng, (), depth), random_stack(rng, depth - 1))


def process_corpus(n: int, seed: int) -> list[Process]:
    rng = random.Random(seed)
    return [random_process(rng) for _ in range(n)]


def lcterm_corpus(n: int, seed: int) -> list[LcTerm]:
    rng = random.Random(seed)
    return [random_lcterm(rng) for _ in range(n)]


# --------------------------------------------------------------------------
# Exhaustive small formulas over the subterm pool {0, 1, z}
# --------------------------------------------------------------------------

def _atoms(vars: tuple[str, ...]) -> list[Formula]:
    pool: list[BTerm] = [ZERO, ONE] + [Var(v) for v in vars]
    return [Neq(a, b) for a in pool for b in pool]


def exhaustive_formulas_height2() -> list[Formula]:
    """All closed formulas of height <= 2 whose terms are drawn from
    {0, 1, z}, deduplicated."""
    closed0 = _atoms(())
    open0 = _atoms(("z",))
    closed1 = closed0 + [Impl(a, b) for a in closed0 for b in closed0] \
        + [Forall("z", a) for a in open0]
    open1 = open0 + [Impl(a, b) for a in open0 for b in open0] \
        + [Forall("z", a) for a in open0]
    closed2 = closed1 + [Impl(a, b) for a in closed1 for b in closed1] \
        + [Forall("z", a) for a in open1]
    seen = set()
    out = []
    for f in closed2:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out
