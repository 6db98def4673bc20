"""lcterms.walk against the recursive and per-root walkers it replaced.

The oracles below are the earlier free_lvars, dinfty._uses_cc, the name
sweep of typecheck._all_lvars, the root-by-root loops of
the earlier pole._check_closed (now lcterms.check_closed) and
lcterms.iter_tags, and the recursive alpha-canonical keys canon_term and
canon_stack, kept here as they were.  Last, a warm call of each layer
function that walks formulas or terms must leave no cyclic garbage."""

import gc
import itertools
import random

import pytest

from realizability import bamodels, dinfty, formulas, pole
from realizability.cli import main
from realizability.corpus import lcterm_corpus, process_corpus
from realizability.dinfty import _debruijn_terms
from realizability.formulas import Impl, UsageError, canon, free_vars
from realizability.lcterms import (
    App, Cc, Gamma, Kont, LVar, Lam, Process, SPush, check_closed,
    free_lvars, iter_tags, lc_alpha_eq, proc_alpha_eq, stack_of,
    stack_to_list, walk,
)
from realizability.syntax import (
    parse_formula, parse_lcterm, parse_process, print_formula,
)
from realizability.typecheck import (
    Derivation, Judgement, _all_lvars, parse_derivation,
)


def old_free_lvars(t):
    if isinstance(t, LVar):
        return frozenset((t.name,))
    if isinstance(t, App):
        return old_free_lvars(t.fn) | old_free_lvars(t.arg)
    if isinstance(t, Lam):
        return old_free_lvars(t.body) - {t.var}
    return frozenset()


def old_uses_cc(t):
    if isinstance(t, Cc):
        return True
    if isinstance(t, Lam):
        return old_uses_cc(t.body)
    if isinstance(t, App):
        return old_uses_cc(t.fn) or old_uses_cc(t.arg)
    return False


def old_lterm(t, out):
    if isinstance(t, LVar):
        out.add(t.name)
    elif isinstance(t, App):
        old_lterm(t.fn, out)
        old_lterm(t.arg, out)
    elif isinstance(t, Lam):
        out.add(t.var)
        old_lterm(t.body, out)


def old_all_lvars(d, out=None):
    out = set() if out is None else out
    out.update(x for x, _ in d.conclusion.context)
    old_lterm(d.conclusion.subject, out)
    for p in d.premises:
        old_all_lvars(p, out)
    return out


def old_iter_tags(x):
    todo = [x]
    while todo:
        x = todo.pop()
        if isinstance(x, Process):
            todo += (x.stack, x.term)
        elif isinstance(x, SPush):
            todo += (x.tail, x.head)
        elif isinstance(x, Gamma):
            yield x.tag
        elif isinstance(x, App):
            todo += (x.arg, x.fn)
        elif isinstance(x, Lam):
            todo.append(x.body)
        elif isinstance(x, Kont):
            todo.append(x.stack)


def old_check_closed(p):
    roots = [(p.term, "process terms"),
             *((u, "stack entries") for u in stack_to_list(p.stack))]
    open_tag = None
    for root, what in roots:
        todo = [(root, frozenset())]
        while todo:
            t, bound = todo.pop()
            if isinstance(t, LVar):
                if t.name not in bound:
                    raise UsageError(f"{what} must be closed: {root!r}")
            elif isinstance(t, App):
                todo += ((t.arg, bound), (t.fn, bound))
            elif isinstance(t, Lam):
                todo.append((t.body, bound | {t.var}))
            elif isinstance(t, Kont):
                roots += ((u, "stack entries") for u in stack_to_list(t.stack))
            elif isinstance(t, Gamma) and open_tag is None:
                open_tag = t.tag if free_vars(t.tag) else None
    if open_tag is not None:
        raise UsageError(f"open instruction tag: {open_tag!r}")


def old_canon_term(t, env=None, counter=None):
    env = env or {}
    counter = counter if counter is not None else itertools.count()
    if isinstance(t, LVar):
        return ("var", env.get(t.name, t.name))
    if isinstance(t, App):
        return ("app", old_canon_term(t.fn, env, counter),
                old_canon_term(t.arg, env, counter))
    if isinstance(t, Lam):
        lvl = next(counter)
        env2 = dict(env)
        env2[t.var] = lvl
        return ("lam", old_canon_term(t.body, env2, counter))
    if isinstance(t, Cc):
        return ("cc",)
    if isinstance(t, Kont):
        return ("kont", old_canon_stack(t.stack, counter))
    if isinstance(t, Gamma):
        return ("gamma", canon(t.tag))
    raise TypeError(f"not a term: {t!r}")


def old_canon_stack(pi, counter=None):
    counter = counter if counter is not None else itertools.count()
    key = ["stack"]
    while isinstance(pi, SPush):
        key.append(old_canon_term(pi.head, None, counter))
        pi = pi.tail
    return tuple(key)


def old_canon_process(p):
    counter = itertools.count()
    return ("proc", old_canon_term(p.term, None, counter),
            old_canon_stack(p.stack, counter))


def check_message(check, p):
    try:
        check(p)
    except UsageError as e:
        return str(e)
    return None


def _size(t):
    if isinstance(t, App):
        return 1 + _size(t.fn) + _size(t.arg)
    if isinstance(t, Lam):
        return 1 + _size(t.body)
    return 1


def open_mutant(t, rng):
    """t with one node outside every k[...] replaced by a lambda variable,
    bound above it or free."""
    var = LVar(rng.choice(["x0", "x1", "y"]))

    def go(t, i):  # replace the node at pre-order index i of t
        if i == 0:
            return var
        if isinstance(t, Lam):
            return Lam(t.var, go(t.body, i - 1))
        n = _size(t.fn)
        if i <= n:
            return App(go(t.fn, i - 1), t.arg)
        return App(t.fn, go(t.arg, i - 1 - n))

    return go(t, rng.randrange(_size(t)))


def _process_mutant(p, rng):
    entries = stack_to_list(p.stack)
    i = rng.randrange(len(entries) + 1)
    if i == len(entries):
        return Process(open_mutant(p.term, rng), p.stack)
    entries[i] = open_mutant(entries[i], rng)
    return Process(p.term, stack_of(*entries))


def _corpus(seed):
    rng = random.Random(seed)
    procs = process_corpus(300, seed)
    terms = lcterm_corpus(300, seed)
    procs += [_process_mutant(p, rng) for p in procs]
    terms += [open_mutant(t, rng) for t in terms]
    return procs, terms


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_walk_agrees_with_the_earlier_walkers(seed):
    procs, terms = _corpus(seed)
    kinds = set()
    for p in procs:
        msg = check_message(check_closed, p)
        assert msg == check_message(old_check_closed, p), p
        kinds.add(msg.split(":")[0] if msg else None)
        assert list(iter_tags(p)) == list(old_iter_tags(p))
        assert list(iter_tags(p.stack)) == list(old_iter_tags(p.stack))
    assert kinds == {None, "process terms must be closed",
                     "stack entries must be closed"}
    opened = 0
    for t in terms:
        new = {n.name for n, bound, _ in walk(t)
               if isinstance(n, LVar) and n.name not in bound}
        assert free_lvars(t) == new == old_free_lvars(t), t
        opened += bool(new)
        assert list(iter_tags(t)) == list(old_iter_tags(t))
    assert 100 < opened < len(terms)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_name_sweep_agrees_outside_k_entries(seed):
    # the earlier sweep skipped the entries of a k[...]; the walk reads
    # them, so it finds the same names and those of the entries
    rng = random.Random(seed)
    closed = lcterm_corpus(300, seed)
    f = parse_formula("0 != 1")
    for _ in range(50):
        subjects = rng.sample(closed, 3)
        leaves = tuple(
            Derivation("Axiom", (), Judgement((("c", f), (f"h{i}", f)), t, f))
            for i, t in enumerate(subjects[1:]))
        d = Derivation("App", leaves, Judgement((), subjects[0], f))
        new, old = _all_lvars(d), old_all_lvars(d)
        assert old <= new
        konts = [n for t in subjects for n, _, _ in walk(t)
                 if isinstance(n, Kont)]
        assert new == old or konts


def test_cc_filter_agrees_on_the_searched_terms():
    # the terms term_search tries hold no k[...], where _uses_cc did not
    # look
    n = 0
    for size in range(1, 8):
        for t in _debruijn_terms(size, 0, True):
            uses_cc = any(type(u) is Cc for u, _, _ in walk(t))
            assert uses_cc == old_uses_cc(t)
            n += 1
    assert n > 500


def test_free_lvars_reads_k_entries():
    # k[...] entries are closed terms, so no binder outside reaches them;
    # the earlier free_lvars did not look inside
    t = Lam("y", Kont(stack_of(LVar("x"))))
    assert free_lvars(t) == {"x"} and old_free_lvars(t) == frozenset()
    assert free_lvars(Lam("x", Kont(stack_of(LVar("x"))))) == {"x"}


def test_walk_names_the_closed_term_each_node_lies_in():
    inner = Lam("z", LVar("z"))
    t = Lam("y", App(LVar("y"), Kont(stack_of(inner))))
    p = Process(t, stack_of(Gamma(parse_formula("0 != 1"))))
    got = [(type(n).__name__, bound, root) for n, bound, root in walk(p)]
    # binders are numbered in walk order: y is 0, z is 1
    assert got == [
        ("Lam", {}, t), ("App", {"y": 0}, t), ("LVar", {"y": 0}, t),
        ("Kont", {"y": 0}, t), ("SPush", {"y": 0}, t), ("Lam", {}, inner),
        ("LVar", {"z": 1}, inner), ("SEmpty", {"y": 0}, t),
        ("SPush", {}, p.stack), ("Gamma", {}, p.stack.head),
        ("SEmpty", {}, p.stack)]


def test_free_lvars_on_a_deep_lambda_nest():
    t = LVar("x")
    for _ in range(3000):
        t = Lam("x", t)
    assert free_lvars(t) == frozenset()
    assert free_lvars(App(t, LVar("w"))) == {"w"}


def test_pole_member_on_a_long_application_spine(capsys):
    # a Push and a Grab per application, then g{_|_} enters at 1
    src = "(\\x. x) " * 3000 + "g{_|_} * []"
    assert main(["pole-member", src, "--k", "10000"]) == 0
    assert capsys.readouterr().out == "k=6001\n"


def test_a_flat_implication_chain_parses_and_prints(capsys):
    src = "z != 0 -> " * 2000 + "_|_"
    f = parse_formula(src)
    assert isinstance(f, Impl)
    text = print_formula(f)
    assert text == "z != 0 -> " * 2000 + "0 != 0"
    assert print_formula(parse_formula(text)) == text
    assert main(["parse", "formula", src]) == 0
    assert capsys.readouterr().out.count("->") == 2000


NAMES = ("x0", "x1", "x2", "y")


def rename_binders(t, rng, env=None):
    """t with each binder renamed at random from NAMES, and the variables
    it binds with it; a new name may capture or be shadowed, so the result
    is alpha-equivalent to t or not."""
    env = env or {}
    if isinstance(t, LVar):
        return LVar(env.get(t.name, t.name))
    if isinstance(t, App):
        return App(rename_binders(t.fn, rng, env),
                   rename_binders(t.arg, rng, env))
    if isinstance(t, Lam):
        v = rng.choice(NAMES)
        return Lam(v, rename_binders(t.body, rng, {**env, t.var: v}))
    if isinstance(t, Kont):
        return Kont(rename_stack(t.stack, rng))
    return t


def rename_stack(pi, rng):
    return stack_of(*(rename_binders(u, rng) for u in stack_to_list(pi)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_alpha_eq_agrees_with_the_recursive_keys(seed):
    rng = random.Random(seed)
    procs, terms = _corpus(seed)
    equal = unequal = 0
    term_pairs = [(t, rename_binders(t, rng)) for t in terms]
    term_pairs += [(rng.choice(terms), rng.choice(terms)) for _ in terms]
    term_pairs += [(u, rename_binders(t, rng)) for t, u in term_pairs[-300:]]
    for t, u in term_pairs:
        old = old_canon_term(t) == old_canon_term(u)
        assert lc_alpha_eq(t, u) == old, (t, u)
        equal += old
        unequal += not old
    proc_pairs = [(p, Process(rename_binders(p.term, rng),
                              rename_stack(p.stack, rng))) for p in procs]
    proc_pairs += [(rng.choice(procs), rng.choice(procs)) for _ in procs]
    for p, q in proc_pairs:
        old = old_canon_process(p) == old_canon_process(q)
        assert proc_alpha_eq(p, q) == old, (p, q)
        equal += old
        unequal += not old
    assert equal > 500 and unequal > 500, (equal, unequal)


@pytest.mark.parametrize("a, b, same", [
    ("\\x. \\x. x", "\\y. \\x. x", True),
    ("\\x. \\x. x", "\\x. \\y. x", False),
    ("\\x. \\y. x", "\\y. \\x. y", True),
    ("\\x. (\\x. x) x", "\\y. (\\x. x) y", True),
    ("\\x. (\\x. x) x", "\\x. (\\y. x) x", False),
    ("\\x. k[\\x. x]", "\\y. k[\\z. z]", True),
    ("\\x. k[\\x. x, \\y. \\x. y]", "\\y. k[\\z. z, \\y. \\z. z]", False),
    # a free name is read as itself, never as a binder's number
    ("(\\y. y) x", "(\\x. x) x", True),
    ("\\z. x", "\\z. y", False),
    ("\\z. z x", "\\x. x x", False),
])
def test_alpha_eq_on_shadowed_binders_and_free_names(a, b, same):
    t, u = parse_lcterm(a), parse_lcterm(b)
    assert lc_alpha_eq(t, u) == same
    assert (old_canon_term(t) == old_canon_term(u)) == same


def _nest(names, body):
    for v in reversed(names):
        body = Lam(v, body)
    return body


def test_alpha_eq_on_a_deep_lambda_nest():
    n = 3000
    t = _nest([f"x{i}" for i in range(n)], App(LVar("x0"), LVar("x2999")))
    u = _nest([f"y{i}" for i in range(n)], App(LVar("y0"), LVar("y2999")))
    deeper = Lam("w", t)
    assert lc_alpha_eq(t, u)
    assert not lc_alpha_eq(t, deeper)
    assert proc_alpha_eq(Process(t, stack_of(u)), Process(u, stack_of(t)))
    with pytest.raises(RecursionError):
        old_canon_term(t)


_A = parse_formula("forall z. forall w. z /\\ w != 0 -> z != 0")
_IDENT = Lam("x", LVar("x"))
_DERIVATION = """(Abs (premises (Axiom (premises)
                   (judgement ((x "0 != 1")) "x" "0 != 1")))
                 (judgement () "\\x. x" "0 != 1 -> 0 != 1"))"""
_WARM_CALLS = {
    "valid_all_bas": lambda: bamodels.valid_all_bas(_A),
    "is_prop_tautology": lambda: bamodels.is_prop_tautology(
        parse_formula("forall z. z \\/ ~z == 1")),
    "canon": lambda: canon(_A),
    "subst_formula": lambda: formulas.subst_formula(
        parse_formula("forall z. z != w"), ["w"], [formulas.Var("z")]),
    "denote_formula": lambda: dinfty.denote_formula(_A),
    "brute_check": lambda: bamodels.brute_check(_A, 2),
    "parse_derivation": lambda: parse_derivation(_DERIVATION),
    "tables": lambda: list(dinfty.tables(1)),
    "model_check": lambda: bamodels.model_check(_A, bamodels.PowerFinite(2)),
    "membership": lambda: bamodels.TheoryOracle(
        bamodels.DEFAULT_FAMILY).membership(_A),
    "eval_formula_01": lambda: formulas.eval_formula_01(_A),
    "denote": lambda: dinfty.denote(_IDENT),
    "realizes_bounded": lambda: pole.realizes_bounded(
        _IDENT, parse_formula("forall z. z != 0 -> z != 0"),
        pole.PoleConfig(k_max=4)),
    "in_pole_limit": lambda: pole.in_pole_limit(parse_process(
        "g{forall z. ((z != 0 -> _|_) -> _|_)} * g{_|_} . []"),
        pole.PoleConfig(k_max=4)),
    **{f"{name}-rank{n}":
       lambda fn=fn, n=n, i=i: fn(dinfty.elem(n, dinfty.val(n, i)))
       for name, fn in (("theta", dinfty.theta),
                        ("seq_check", dinfty.seq_check),
                        ("term_search", dinfty.term_search))
       for n, i in ((2, 5), (3, 33481))},
}


@pytest.mark.parametrize("name", _WARM_CALLS)
def test_a_warm_call_leaves_no_cyclic_garbage(name):
    # every walk keeps its state in parameters, not in a closure that
    # refers to itself, so reference counting frees all a call leaves
    call = _WARM_CALLS[name]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
