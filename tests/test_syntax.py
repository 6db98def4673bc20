import pytest

from realizability.corpus import formula_corpus, lcterm_corpus, process_corpus
from realizability.formulas import UsageError, alpha_eq
from realizability.lcterms import lc_alpha_eq, proc_alpha_eq
from realizability.syntax import (
    ParseError, parse_bterm, parse_formula, parse_lcterm, parse_process,
    parse_stack, print_bterm, print_formula, print_lcterm, print_process,
    print_stack,
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
    assert print_lcterm(parse_lcterm("zeta<2>")) == "zeta<2>"
    assert print_lcterm(parse_lcterm("k[cc, \\x. x]")) == "k[cc, \\x. x]"


def test_stack_and_process():
    pi = parse_stack("cc . g{_|_} . []")
    assert print_stack(pi) == "cc . g{0 != 0} . []"
    p = parse_process("cc * []")
    assert print_process(p) == "cc * []"


def test_stack_errors_keep_their_order():
    # every syntax error comes first, then closedness from the last entry
    with pytest.raises(ParseError):
        parse_stack("x . ( . []")
    with pytest.raises(UsageError, match="stack entries must be closed: "
                                         "LVar\\(name='y'\\)"):
        parse_stack("x . y . []")
    with pytest.raises(UsageError, match="stack entries"):
        parse_process("x * y . []")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_formula("z != ")
    with pytest.raises(ParseError):
        parse_process("\\x. x")  # missing stack


def test_formula_roundtrip_corpus():
    for a in formula_corpus(150, seed=5, height=3, max_qdepth=3):
        assert alpha_eq(parse_formula(print_formula(a)), a)


def test_lcterm_roundtrip_corpus():
    for t in lcterm_corpus(150, seed=6):
        assert lc_alpha_eq(parse_lcterm(print_lcterm(t)), t)


def test_process_roundtrip_corpus():
    for p in process_corpus(100, seed=7):
        assert proc_alpha_eq(parse_process(print_process(p)), p)
