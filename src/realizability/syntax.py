"""Text syntax for terms, formulas, machine terms, stacks and processes.

Boolean terms      0 | 1 | x | ~a | a /\\ b | a \\/ b        (sugar: & |)
Formulas           a != b | A -> B | forall z. A
                   (sugar: _|_ , a == b , exists z. A)
Machine terms      x | t u | \\x. t | cc | k[t1,...,tn] | g{A}
Stacks             t1 . t2 . []
Processes          t * pi

`->` is right-associative, `~` binds tightest, application is
left-associative, a lambda body extends as far right as possible (so a
lambda used as a stack entry or argument needs parentheses).  Sugar is
expanded at parse time; printers emit the primitive syntax and satisfy
parse(print(x)) alpha-equivalent to x.  The parser reads syntax only: an
open process term or stack entry parses, and the functions that need
closed input check it once, at entry (`lcterms.check_closed`).

The lexer splits a text with one regex into gap, token, gap, ..., gap;
a gap that is not all whitespace holds an unexpected character.  Tokens
are plain strings, and a token's kind is read from its text.  Their
positions are found only when an error is raised, by the same split.
`forall`, `exists` and `_|_` are reserved: none of them names a
variable, so every name that parses prints to a text that parses back.
A ( where a formula starts opens a parenthesized formula or a
comparison's left term, and one lookahead decides which: a group that
holds !=, ==, _|_, forall or exists is a formula, since every formula
holds one of them and no term can, and any other group is the left term
of a comparison.  So no parse path backtracks.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice

from .formulas import (
    And, BTerm, Formula, Forall, Impl, Neq, Not, ONE, One, Or, Var, ZERO,
    Zero, _set, bot, eq, exists,
)
from .lcterms import (
    App, CC, Cc, Gamma, Kont, LVar, Lam, LcTerm, Process, SPush,
    StackT, stack_of,
)


class ParseError(Exception):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"""(
    _\|_
  | /\\|\\/|->|!=|==|[~&|.,*()\[\]{}\\]
  | \d+
  | [A-Za-z_][A-Za-z0-9_']*
)""", re.VERBOSE)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "abcdefghijklmnopqrstuvwxyz_")
_RESERVED = frozenset({"_|_", "forall", "exists"})


def _lex(src: str) -> list[str]:
    """The token texts, ending with "" for the end of the input.  Their
    positions are found only for an error (`_positions`)."""
    parts = _TOKEN_RE.split(src)
    gaps = parts[::2]
    if "".join(gaps).strip():
        for gap, end in zip(gaps, _positions(src)):
            junk = gap.lstrip()
            if junk:
                raise ParseError(f"unexpected character {junk[0]!r}",
                                 end - len(junk))
    toks = parts[1::2]
    toks.append("")
    return toks


def _positions(src: str) -> list[int]:
    """The position of each of `_lex`'s tokens in src, the end's too."""
    return list(accumulate(map(len, _TOKEN_RE.split(src))))[::2]


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START and tok not in _RESERVED


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _lex(src)
        self.i = 0
        self.formula_groups: set[int] = set()  # ( known to hold a formula

    def at(self, i: int) -> int:
        """The position of token i, for an error message."""
        return _positions(self.src)[i]

    def eat(self, text: str):
        tok = self.toks[self.i]
        if tok != text:
            raise ParseError(f"expected {text!r}, found "
                             f"{tok or 'end of input'!r}", self.at(self.i))
        self.i += 1

    def holds_formula(self) -> bool:
        """Whether the ( at the cursor opens a group, to its matching )
        or the end, that holds !=, ==, _|_, forall or exists, which every
        formula holds and no term can.  A scan that meets one of them, or a
        marked (, marks every ( still open there, so nesting costs O(n)."""
        opened = []
        for k, tok in enumerate(islice(self.toks, self.i, None), self.i):
            if k in self.formula_groups or tok in (
                    "!=", "==", "_|_", "forall", "exists"):
                self.formula_groups.update(opened)
                return True
            if tok == "(":
                opened.append(k)
            elif tok == ")" and opened.pop() == self.i:
                return False
        return False

    # -- Boolean terms ----------------------------------------------------

    def bterm(self) -> BTerm:
        left = self.bconj()
        while self.toks[self.i] in ("\\/", "|"):
            self.i += 1
            left = Or(left, self.bconj())
        return left

    def bconj(self) -> BTerm:
        left = self.batom()
        while self.toks[self.i] in ("/\\", "&"):
            self.i += 1
            left = And(left, self.batom())
        return left

    def batom(self) -> BTerm:
        tok = self.toks[self.i]
        self.i += 1
        if tok == "~":
            return Not(self.batom())
        if tok == "(":
            t = self.bterm()
            self.eat(")")
            return t
        if tok == "0":
            return ZERO
        if tok == "1":
            return ONE
        if _is_ident(tok):
            return Var(tok)
        pos = self.at(self.i - 1)
        if tok[:1].isdecimal():
            raise ParseError(f"numeric constants are 0 and 1, found {tok}", pos)
        raise ParseError(f"expected a term, found {tok!r}", pos)

    # -- Formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        f = self.fatom()
        if self.toks[self.i] != "->":  # the common case builds no list
            return f
        antes = []
        while self.toks[self.i] == "->":
            self.i += 1
            antes.append(f)
            f = self.fatom()
        for ante in reversed(antes):
            f = Impl(ante, f)
        return f

    def fatom(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "_|_":
            self.i += 1
            return bot()
        if tok in ("forall", "exists"):
            var = self.toks[self.i + 1]
            if not _is_ident(var):
                raise ParseError(f"expected a variable after {tok}",
                                 self.at(self.i + 1))
            self.i += 2
            self.eat(".")
            body = self.formula()
            return Forall(var, body) if tok == "forall" else exists(var, body)
        if tok == "(" and self.holds_formula():
            self.i += 1
            f = self.formula()
            self.eat(")")
            return f
        return self._relop(self.bterm())

    def _relop(self, a: BTerm) -> Formula:
        tok = self.toks[self.i]
        self.i += 1
        if tok == "!=":
            return Neq(a, self.bterm())
        if tok == "==":
            return eq(a, self.bterm())
        raise ParseError(f"expected != or ==, found {tok!r}",
                         self.at(self.i - 1))

    # -- Machine terms, stacks, processes ---------------------------------

    _STOPPERS = {")", "]", "}", ".", ",", "*", "", "->", "!=", "==",
                 "/\\", "\\/", "&", "|"}

    def lcterm(self) -> LcTerm:
        t = self.lcatom()
        while self.toks[self.i] not in self._STOPPERS:
            t = App(t, self.lcatom())
        return t

    def lcatom(self) -> LcTerm:
        tok = self.toks[self.i]
        self.i += 1
        if tok == "\\":
            var = self.toks[self.i]
            if not _is_ident(var) or var == "cc":
                raise ParseError(f"expected a variable after \\, found {var!r}",
                                 self.at(self.i))
            self.i += 1
            self.eat(".")
            return Lam(var, self.lcterm())
        if tok == "(":
            t = self.lcterm()
            self.eat(")")
            return t
        if _is_ident(tok):
            if tok == "cc":
                return CC
            if tok == "g" and self.toks[self.i] == "{":
                self.i += 1
                tag = self.formula()
                self.eat("}")
                return Gamma(tag)
            if tok == "k" and self.toks[self.i] == "[":
                self.i += 1
                entries = []
                if self.toks[self.i] != "]":
                    entries.append(self.lcterm())
                    while self.toks[self.i] == ",":
                        self.i += 1
                        entries.append(self.lcterm())
                self.eat("]")
                return Kont(stack_of(*entries))
            return LVar(tok)
        raise ParseError(f"expected a machine term, found {tok!r}",
                         self.at(self.i - 1))

    def stack(self) -> StackT:
        """Entries are read in a loop, so a written stack has no length
        limit."""
        entries = []
        while self.toks[self.i] != "[":
            entries.append(self.lcterm())
            self.eat(".")
        self.i += 1
        self.eat("]")
        return stack_of(*entries)

    def process(self) -> Process:
        t = self.lcterm()
        self.eat("*")
        pi = self.stack()
        return Process(t, pi)


def _parse(src: str, rule):
    p = _Parser(src)
    x = rule(p)
    if p.toks[p.i]:
        raise ParseError(f"trailing input {p.toks[p.i]!r}", p.at(p.i))
    return x


def parse_bterm(src: str) -> BTerm:
    return _parse(src, _Parser.bterm)


def parse_formula(src: str) -> Formula:
    return _parse(src, _Parser.formula)


def parse_lcterm(src: str) -> LcTerm:
    return _parse(src, _Parser.lcterm)


def parse_stack(src: str) -> StackT:
    return _parse(src, _Parser.stack)


def parse_process(src: str) -> Process:
    return _parse(src, _Parser.process)


# --------------------------------------------------------------------------
# Printers
# --------------------------------------------------------------------------

def print_bterm(t: BTerm) -> str:
    return _bterm(t, 0)


def print_formula(f: Formula) -> str:
    return _formula(f, 0)


# term precedence: \/ = 1, /\ = 2, ~ = 3; each left-nested connective
# with its precedence and separator (its right operand binds one tighter)
_SPINES = {Or: (1, " \\/ "), And: (2, " /\\ ")}


def _bterm(t: BTerm, prec: int) -> str:
    """t's text at precedence prec.  Terms are DAGs, so a \\/ or /\\ node
    keeps its text, unparenthesized, in its `_text` slot from its first
    print on, and the caller adds the parentheses that prec needs.  The
    text lives and dies with the node: a cache keyed on `id` would hand
    the text of a collected node to a new one that reuses its id.  Leaves
    and ~ keep nothing, as their text costs no more to make than to look
    up.  A left-nested chain of one connective is printed with one loop
    and one join, down to the first link that holds its text, so it has
    no length limit and no link copies the text below it.  A right
    operand that is a \\/ or /\\ and keeps its text is read in place.
    Dispatched on the node's exact class, spines first."""
    cls = type(t)
    spine = _SPINES.get(cls)
    if spine is not None:
        own, sep = spine
        s = t._text
        if s is None:
            parts, link = [], t
            while type(link) is cls and link._text is None:
                r = link.rhs
                kept = _SPINES.get(type(r))
                if kept is None or r._text is None:
                    parts.append(_bterm(r, own + 1))
                else:
                    parts.append(r._text if kept[0] > own
                                 else f"({r._text})")
                link = link.lhs
            parts.append(_bterm(link, own))
            parts.reverse()
            s = sep.join(parts)
            _set(t, "_text", s)
        return f"({s})" if prec > own else s
    if cls is Var:
        return t.name
    if cls is Not:
        return "~" + _bterm(t.arg, 3)
    if cls is Zero:
        return "0"
    if cls is One:
        return "1"
    raise TypeError(f"not a term: {t!r}")


def _formula(f: Formula, prec: int) -> str:
    """f's text at precedence prec.  -> has precedence 1 and nests to
    the right; atoms and quantifiers are tight, except that a quantifier
    body extends right, so it parenthesizes at prec > 0.  A quantifier
    keeps its text, unparenthesized, in its `_text` slot from its first
    print on, as \\/ and /\\ do in `_bterm`, so the selector codes that
    rank-3 thetas share are printed once.  A chain of -> is printed with
    one loop and one join, so it has no length limit."""
    if isinstance(f, Neq):
        return f"{_bterm(f.lhs, 0)} != {_bterm(f.rhs, 0)}"
    if isinstance(f, Impl):
        parts = []
        while isinstance(f, Impl):
            parts.append(_formula(f.ante, 2))
            f = f.cons
        parts.append(_formula(f, 1))
        s = " -> ".join(parts)
        return f"({s})" if prec > 1 else s
    if isinstance(f, Forall):
        s = f._text
        if s is None:
            s = f"forall {f.var}. {_formula(f.body, 0)}"
            _set(f, "_text", s)
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def print_lcterm(t: LcTerm, prec: int = 0) -> str:
    """t's text at precedence prec: a lambda 0, an application 1, an atom
    2; a lambda body extends right, so a lambda parenthesizes at prec > 0.
    Machine states share their subterms, so an App or Lam keeps its text,
    unparenthesized, in its `_text` slot from its first print on, and the
    caller adds the parentheses that prec needs, as `_bterm` does.  Other
    nodes keep nothing.  An application spine is printed with one loop
    and one join, down to the first link that holds its text, so it has
    no length limit and no link copies the text below it."""
    kind = type(t)
    if kind is App:
        s = t._text
        if s is None:
            fn, parts = t.fn, [print_lcterm(t.arg, 2)]
            while type(fn) is App and fn._text is None:
                parts.append(print_lcterm(fn.arg, 2))
                fn = fn.fn
            parts.append(print_lcterm(fn, 1))
            parts.reverse()
            s = " ".join(parts)
            _set(t, "_text", s)
        return f"({s})" if prec > 1 else s
    if kind is LVar:
        return t.name
    if kind is Lam:
        s = t._text
        if s is None:
            s = f"\\{t.var}. {print_lcterm(t.body, 0)}"
            _set(t, "_text", s)
        return f"({s})" if prec > 0 else s
    if kind is Cc:
        return "cc"
    if kind is Kont:
        entries = []
        pi = t.stack
        while type(pi) is SPush:
            entries.append(print_lcterm(pi.head, 0))
            pi = pi.tail
        return "k[" + ", ".join(entries) + "]"
    if kind is Gamma:
        return "g{" + print_formula(t.tag) + "}"
    raise TypeError(f"not a machine term: {t!r}")


def print_stack(pi: StackT) -> str:
    parts = []
    while isinstance(pi, SPush):
        parts.append(print_lcterm(pi.head, 1))
        pi = pi.tail
    parts.append("[]")
    return " . ".join(parts)


def print_process(p: Process) -> str:
    return f"{print_lcterm(p.term, 1)} * {print_stack(p.stack)}"
