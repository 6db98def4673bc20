import dataclasses
import hashlib
import random
import re
from collections import Counter

import pytest

from realizability.corpus import (
    formula_corpus, lcterm_corpus, process_corpus, random_bterm,
)
from realizability.dinfty import elem, level_size, theta, val
from realizability.formulas import (
    And, Forall, Impl, Neq, Not, One, Or, UsageError, Var, Zero, alpha_eq,
)
from realizability.lcterms import (
    LVar, Lam, check_closed, lc_alpha_eq, proc_alpha_eq,
)
from realizability import syntax
from realizability.syntax import (
    ParseError, _lex, _positions, parse_bterm, parse_formula, parse_lcterm,
    parse_process, parse_stack, print_bterm, print_formula, print_lcterm,
    print_process, print_stack,
)


def test_bterm_precedence():
    t = parse_bterm("z \\/ w /\\ ~v")
    assert print_bterm(t) == "z \\/ w /\\ ~v"
    assert print_bterm(parse_bterm("(z \\/ w) /\\ v")) == "(z \\/ w) /\\ v"


def test_ascii_synonyms():
    assert parse_bterm("z & w") == parse_bterm("z /\\ w")
    assert parse_bterm("z | w") == parse_bterm("z \\/ w")


def test_formula_sugar():
    assert alpha_eq(parse_formula("_|_"), parse_formula("0 != 0"))
    f = parse_formula("z == w")
    assert alpha_eq(f, parse_formula("(z != w) -> _|_"))


def test_impl_right_assoc():
    f = parse_formula("z != 0 -> w != 0 -> 0 != 1")
    g = parse_formula("z != 0 -> (w != 0 -> 0 != 1)")
    assert alpha_eq(f, g)


def test_quantifiers():
    f = parse_formula("forall z. z != 0 -> z != 1")
    assert print_formula(f) == "forall z. z != 0 -> z != 1"
    parse_formula("exists z. z != 0")


def test_lcterm_shapes():
    t = parse_lcterm("\\x. x (\\y. y) cc")
    assert print_lcterm(t) == "\\x. x (\\y. y) cc"
    assert print_lcterm(parse_lcterm("g{z != 0}")) == "g{z != 0}"
    for gone in ("zeta<2>", "eta<0>"):
        with pytest.raises(ParseError, match="unexpected character '<'"):
            parse_lcterm(gone)
    assert print_lcterm(parse_lcterm("k[cc, \\x. x]")) == "k[cc, \\x. x]"


def test_cc_is_no_binder():
    # cc in a body is always the control operator, so \cc. cc would be
    # the constant function of cc, not the identity it is printed from
    for src in ("\\cc. cc", "\\x. \\cc. x"):
        with pytest.raises(ParseError, match="expected a variable after"):
            parse_lcterm(src)
    with pytest.raises(ParseError):
        parse_lcterm(print_lcterm(Lam("cc", LVar("cc"))))


def test_stack_and_process():
    pi = parse_stack("cc . g{_|_} . []")
    assert print_stack(pi) == "cc . g{0 != 0} . []"
    p = parse_process("cc * []")
    assert print_process(p) == "cc * []"


def test_stack_errors_keep_their_order():
    # the parser reads syntax only, so an open entry parses and a syntax
    # error is reported wherever it stands
    with pytest.raises(ParseError):
        parse_stack("x . ( . []")
    assert print_stack(parse_stack("x . y . []")) == "x . y . []"
    # closedness is checked at entry, in walk order: the process term
    # first, then the entries from the first to the last
    with pytest.raises(UsageError, match="process terms must be closed"):
        check_closed(parse_process("x * y . []"))
    with pytest.raises(UsageError, match="stack entries must be closed: "
                                         "LVar\\(name='x'\\)"):
        check_closed(parse_process("cc * x . y . []"))


_ERRORS = [
    # unexpected characters, after spaces, a tab and a newline
    (parse_formula, "z != #", "unexpected character '#'", 5),
    (parse_formula, "z  \t!= \n @ 0", "unexpected character '@'", 9),
    (parse_formula, "z !=\n\t$", "unexpected character '$'", 6),
    # a missing term, and eat() at the end of the input
    (parse_formula, "z != ", "expected a term, found ''", 5),
    (parse_bterm, "z \\/ _|_", "expected a term, found '_|_'", 5),
    (parse_formula, "(z != 0", "expected ')', found 'end of input'", 7),
    (parse_formula, "(z", "expected ')', found 'end of input'", 2),
    (parse_formula, "(a) != ", "expected a term, found ''", 7),
    (parse_process, "\\x. x", "expected '*', found 'end of input'", 5),
    # trailing input
    (parse_formula, "z != 0 )", "trailing input ')'", 7),
    (parse_formula, "z != 0 w", "trailing input 'w'", 7),
    # a term with no comparison after it
    (parse_formula, "z -> 0", "expected != or ==, found '->'", 2),
    (parse_formula, "(z) 0", "expected != or ==, found '0'", 4),
    (parse_formula, "(z != 0) -> w", "expected != or ==, found ''", 13),
    # numeric constants
    (parse_formula, "z != 2", "numeric constants are 0 and 1, found 2", 5),
    # a missing variable after a quantifier or a lambda
    (parse_formula, "forall . z != 0", "expected a variable after forall", 7),
    (parse_formula, "exists _|_. z != 0",
     "expected a variable after exists", 7),
    (parse_lcterm, "\\0. x", "expected a variable after \\, found '0'", 1),
    # forall and exists are reserved, so neither names a variable
    (parse_formula, "(forall) != 0", "expected a variable after forall", 7),
    (parse_formula, "z \\/ exists != 0", "expected a term, found 'exists'", 5),
]


def test_parse_errors_carry_position():
    for parse, src, msg, pos in _ERRORS:
        with pytest.raises(ParseError) as info:
            parse(src)
        assert str(info.value) == f"{msg} (at position {pos})", src
        assert info.value.pos == pos, src


# token soups: operands and operators drawn in turn from one alphabet, a
# formula's, a machine term's or both, where an operand may take a prefix
# or be a smaller soup in brackets; any name may stand anywhere
_NAMES = ("0", "1", "_|_", "z", "x'", "_", "cc", "g", "k", "forall", "exists",
          "[]", "7")
_FORMULA = (("!=", "==", "!=", "==", "->", "\\/", "/\\", "&", "|"),
            ("", "", "~", "forall z .", "exists _ ."), ("()",))
_MACHINE = (("", ".", ".", ",", "*"), ("", "", "\\ z .", "\\ x' .", "g", "k"),
            ("()", "{}", "[]"))
_BOTH = tuple(a + b for a, b in zip(_FORMULA, _MACHINE))
_PRINTERS = {parse_bterm: print_bterm, parse_formula: print_formula,
             parse_lcterm: print_lcterm, parse_stack: print_stack,
             parse_process: print_process}


def _soup(rng, alphabet, depth=2):
    operators, prefixes, brackets = alphabet
    parts = []
    for _ in range(rng.randint(1, 3)):
        if depth and rng.random() < 0.3:
            left, right = rng.choice(brackets)
            operand = f"{left} {_soup(rng, alphabet, depth - 1)} {right}"
        else:
            operand = rng.choice(_NAMES)
        parts += [rng.choice(prefixes), operand, rng.choice(operators)]
    return " ".join(part for part in parts[:-1] if part)


def test_every_accepted_text_prints_to_a_text_that_parses_back():
    # a parser that read forall as a name accepted (forall) != 0 and
    # printed it as forall != 0, which it rejected
    rng = random.Random(38)
    texts = ["(forall) != 0", "(exists) == z", "g{(forall) != 0} * []"]
    texts += [_soup(rng, rng.choice((_FORMULA, _FORMULA, _MACHINE, _BOTH)))
              for _ in range(15000)]
    accepted = Counter()
    for text in texts:
        for parse, show in _PRINTERS.items():
            try:
                x = parse(text)
            except ParseError:
                continue
            accepted[parse] += 1
            printed = show(x)
            assert parse(printed) == x, (text, printed)
    assert min(accepted.values()) > 0 and accepted[parse_formula] > 300


def test_formula_roundtrip_corpus():
    for a in formula_corpus(150, seed=5, height=3, max_qdepth=3):
        assert alpha_eq(parse_formula(print_formula(a)), a)


def test_lcterm_roundtrip_corpus():
    for t in lcterm_corpus(150, seed=6):
        assert lc_alpha_eq(parse_lcterm(print_lcterm(t)), t)


def test_process_roundtrip_corpus():
    for p in process_corpus(100, seed=7):
        assert proc_alpha_eq(parse_process(print_process(p)), p)


def _reference_print_bterm(t, prec=0):
    # a plain recursive printer that keeps no text between or within calls
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Not):
        return "~" + _reference_print_bterm(t.arg, 3)
    if isinstance(t, And):
        s = (f"{_reference_print_bterm(t.lhs, 2)} /\\ "
             f"{_reference_print_bterm(t.rhs, 3)}")
        return f"({s})" if prec > 2 else s
    s = (f"{_reference_print_bterm(t.lhs, 1)} \\/ "
         f"{_reference_print_bterm(t.rhs, 2)}")
    return f"({s})" if prec > 1 else s


def _reference_print_formula(f, prec=0):
    if isinstance(f, Neq):
        return (f"{_reference_print_bterm(f.lhs)} != "
                f"{_reference_print_bterm(f.rhs)}")
    if isinstance(f, Impl):
        s = (f"{_reference_print_formula(f.ante, 2)} -> "
             f"{_reference_print_formula(f.cons, 1)}")
        return f"({s})" if prec > 1 else s
    s = f"forall {f.var}. {_reference_print_formula(f.body, 0)}"
    return f"({s})" if prec > 0 else s


def test_printers_match_the_recursive_reference():
    # each corpus item also sits under the parents that print it at every
    # other precedence: formulas 1 and 2, terms 1, 2 and 3
    for a in formula_corpus(300, seed=8, height=4, max_qdepth=3):
        for f in (a, Impl(a, a)):
            assert print_formula(f) == _reference_print_formula(f)
    rng = random.Random(8)
    for _ in range(300):
        t = random_bterm(rng, ("z", "w", "v"), depth=4)
        for u in (t, Or(t, t), And(t, t), Not(t)):
            assert print_bterm(u) == _reference_print_bterm(u)


def test_rank3_thetas_print_as_the_recursive_reference():
    # theta's terms are DAGs: minterm prefixes and literals are shared
    rng = random.Random(12)
    for _ in range(40):
        A = theta(elem(3, val(3, rng.randrange(level_size(3)))))
        assert print_formula(A) == _reference_print_formula(A)


def test_a_shared_node_prints_by_its_own_precedence():
    # one Or node, in parentheses under an And and bare at the top: a memo
    # keyed on the node alone prints whichever occurrence came first twice
    o = Or(Var("z"), Var("w"))
    under = And(o, Var("v"))
    assert print_formula(Neq(under, o)) == "(z \\/ w) /\\ v != z \\/ w"
    assert print_formula(Neq(o, under)) == "z \\/ w != (z \\/ w) /\\ v"
    A = Forall("z", Impl(Neq(under, o), Neq(o, under)))
    assert print_formula(A) == _reference_print_formula(A)
    assert print_bterm(Or(under, o)) == "(z \\/ w) /\\ v \\/ (z \\/ w)"


def _neq_sides(f):
    if isinstance(f, Neq):
        yield from (f.lhs, f.rhs)
    elif isinstance(f, Impl):
        yield from _neq_sides(f.ante)
        yield from _neq_sides(f.cons)
    else:
        yield from _neq_sides(f.body)


def test_kept_text_matches_the_recursive_reference():
    # each \/ and /\ node keeps its text once printed, so every input is
    # printed twice, and the rank-3 thetas share their minterms' texts
    rng = random.Random(26)
    thetas = [theta(elem(3, val(3, rng.randrange(level_size(3)))))
              for _ in range(5)]
    for A in formula_corpus(150, seed=26, height=4, max_qdepth=3) + thetas:
        want = _reference_print_formula(A)
        assert print_formula(A) == want
        assert print_formula(A) == want
        for t in _neq_sides(A):
            for u in (t, Not(t), And(t, t)):
                assert print_bterm(u) == _reference_print_bterm(u)


@pytest.mark.parametrize("under_first", [False, True])
def test_kept_text_takes_no_parentheses(under_first):
    # one Or node, kept in parentheses under an And and bare at the top,
    # printed in either order: whichever print comes first fills its text
    o = Or(Var("z"), Var("w"))
    under = And(o, Var("v"))
    prints = [(o, "z \\/ w"), (under, "(z \\/ w) /\\ v")]
    if under_first:
        prints.reverse()
    for t, want in prints + prints:
        assert print_bterm(t) == want == _reference_print_bterm(t)
    top = Or(under, o)
    assert print_bterm(top) == _reference_print_bterm(top)
    assert print_formula(Neq(o, under)) == "z \\/ w != (z \\/ w) /\\ v"


@pytest.mark.parametrize("under_first", [False, True])
def test_kept_formula_text_takes_no_parentheses(under_first):
    # a quantifier keeps its text once printed, as \/ and /\ do; a kept
    # quantifier is parenthesized where it is an operand of -> and bare at
    # the top, whichever print comes first
    A = Forall("z", Neq(Var("z"), Zero()))
    both = Impl(A, A)
    prints = [(A, "forall z. z != 0"),
              (both, "(forall z. z != 0) -> (forall z. z != 0)")]
    if under_first:
        prints.reverse()
    for f, want in prints + prints:
        assert print_formula(f) == want == _reference_print_formula(f)
    assert A._text == "forall z. z != 0"
    fresh = Forall("z", Neq(Var("z"), Zero()))
    assert fresh._text is None
    assert fresh == A and hash(fresh) == hash(A) and repr(fresh) == repr(A)
    assert [f.name for f in dataclasses.fields(A)] == ["var", "body"]


def test_kept_text_is_no_field():
    # a printed node equals, hashes and shows as a node never printed
    printed = And(Or(Var("z"), Not(Var("w"))), Var("v"))
    print_bterm(printed)
    assert printed._text is not None and printed.lhs._text is not None
    fresh = And(Or(Var("z"), Not(Var("w"))), Var("v"))
    assert fresh._text is None
    for a, b in [(printed, fresh), (printed.lhs, fresh.lhs)]:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.fields(a) == dataclasses.fields(b)
        assert [f.name for f in dataclasses.fields(a)] == ["lhs", "rhs"]


@pytest.mark.parametrize("op", [Or, And])
def test_long_chains_print_and_reparse(op):
    # a left-nested chain prints in one loop, so its length has no limit;
    # the texts are compared, since == on such terms still recurses
    t = Var("z0")
    for i in range(1, 5000):
        t = op(t, Var(f"z{i % 7}") if i % 3 else Not(Var("w")))
    text = print_bterm(t)
    assert text.count("z") + text.count("w") == 5000
    assert print_bterm(parse_bterm(text)) == text
    assert print_formula(parse_formula(f"{text} != 0")) == f"{text} != 0"


# -- the lexer and the parser's outcomes --------------------------------

_INSERTS = ("(", ")", "~", "!=", "==", "_|_", "->", "forall", "exists", ".",
            "&", "|", "\\/", "/\\", "0", "1", "7", "z", "x'", " ", "\t", "\n",
            "[", "]", "{", "}", ",", "*", "\\", "g", "k", "cc", "<")


def _mutants(rng, text):
    """One insertion, one deletion and one truncation of text."""
    i = rng.randrange(len(text) + 1)
    yield text[:i] + rng.choice(_INSERTS) + text[i:]
    j = rng.randrange(len(text))
    yield text[:j] + text[j + 1:]
    yield text[:rng.randrange(len(text))]


def _corpus_texts():
    rng = random.Random(22)
    texts = [print_formula(a)
             for a in formula_corpus(200, seed=22, height=3, max_qdepth=2)]
    texts += [print_lcterm(t) for t in lcterm_corpus(150, seed=23)]
    texts += [print_process(p) for p in process_corpus(150, seed=24)]
    for text in texts[:]:
        for _ in range(2):
            texts += _mutants(rng, text)
    return texts


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except ParseError as e:
        return f"ParseError {e} {e.pos}"
    except UsageError as e:
        return f"UsageError {e}"


_PARSERS = (parse_bterm, parse_formula, parse_lcterm, parse_stack,
            parse_process)
# computed with the parser that decides a formula's ( by lookahead alone
# and reserves forall and exists; a change of outcomes is classified in
# CHANGES.md before the digest is re-pinned
_OUTCOMES_SHA256 = (
    "7c415813327393f9d092e94f22727da0788d836af49677a8068f6b5b4b5b680c")


def test_parse_outcomes_are_pinned():
    # every parse result or error text, with its position, of 3,500 corpus
    # texts and their mutants through each entry point
    outcomes = [_outcome(parse, text)
                for text in _corpus_texts() for parse in _PARSERS]
    assert len(outcomes) == 17500
    errors = sum(o.startswith("ParseError") for o in outcomes)
    assert 10000 < errors < 17000
    assert not any(o.startswith("UsageError") for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _OUTCOMES_SHA256, (
        f"the parse outcomes changed: sha256 {digest}, "
        f"{len(outcomes) - errors} ok and {errors} ParseError")


# the per-token lexer that the one-split lexer replaced, kept as an oracle
_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<bot>_\|_)
  | (?P<op>/\\|\\/|->|!=|==|[~&|.,*()\[\]{}\\])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
""", re.VERBOSE)


def _reference_lex(src):
    toks = []
    pos = 0
    while pos < len(src):
        m = _REFERENCE_TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append((m.group(), pos))
        pos = m.end()
    toks.append(("", len(src)))
    return toks


def _lex_outcome(lex, src):
    try:
        return lex(src)
    except ParseError as e:
        return str(e), e.pos


def test_lexer_matches_the_per_token_reference():
    rng = random.Random(25)
    texts = ["a_|_", "_|_a", "a'_|_'", "x' y'' z_'1", "__|_|_", "1x2 y3",
             "\\x'. x'", "a b", "z != ٣", " z\x1c", ""]
    for text in _corpus_texts()[:1500]:
        for _ in range(2):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice((" \t", "\n", "\t\n ", "")) + text[i:]
        texts.append(text)
    for src in texts:
        expected = _lex_outcome(_reference_lex, src)
        got = _lex_outcome(_lex, src)
        if isinstance(expected, tuple):  # an error: its text and position
            assert got == expected, src
        else:  # the tokens; their positions are found only for an error
            assert got == [tok for tok, _ in expected], src
            assert _positions(src) == [pos for _, pos in expected], src


def test_nested_groups_raise_no_parse_error(monkeypatch):
    # one lookahead decides whether a ( opens a formula or a term, so no
    # group is read twice and none raises on the way
    raised = []
    init = ParseError.__init__

    def counting_init(self, msg, pos):
        raised.append(msg)
        init(self, msg, pos)

    monkeypatch.setattr(ParseError, "__init__", counting_init)
    texts = ["(z != 0 -> " * 200 + "_|_" + ")" * 200,
             "(" * 200 + "z == w" + ")" * 200,
             "(" * 100 + "(z) != (w)" + ")" * 100]
    for src in texts:
        parse_formula(src)
    assert raised == []


def test_nested_formula_groups_are_scanned_in_linear_time(monkeypatch):
    # the lookahead marks every ( still open where it meets a formula
    # token, so the groups inside one it scanned are not scanned again
    scanned = 0
    real_islice = syntax.islice

    def counting_islice(*args):
        nonlocal scanned
        for tok in real_islice(*args):
            scanned += 1
            yield tok

    monkeypatch.setattr(syntax, "islice", counting_islice)
    n = 400
    f = parse_formula("(" * n + "z != 0" + ")" * n)
    assert f == parse_formula("z != 0")
    assert 0 < scanned < 20 * n
