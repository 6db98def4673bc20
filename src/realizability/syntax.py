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
parse(print(x)) alpha-equivalent to x.  The parser checks that process
terms and stack entries, in k[...] too, are closed.
"""

from __future__ import annotations

import re

from .formulas import (
    And, BTerm, Formula, Forall, Impl, Neq, Not, ONE, One, Or, Var, ZERO,
    Zero, bot, eq, exists,
)
from .lcterms import (
    App, CC, Cc, EMPTY, Gamma, Kont, LVar, Lam, LcTerm, Process, SPush,
    StackT, _closed, stack_of,
)


class ParseError(Exception):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<bot>_\|_)
  | (?P<op>/\\|\\/|->|!=|==|[~&|.,*()\[\]{}\\])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
""", re.VERBOSE)


def _lex(src: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            toks.append((kind, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def eat(self, text: str):
        kind, val, pos = self.toks[self.i]
        if val != text:
            found = val if kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", pos)
        self.i += 1

    def done(self):
        kind, val, pos = self.toks[self.i]
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)

    # -- Boolean terms ----------------------------------------------------

    def bterm(self) -> BTerm:
        left = self.bconj()
        while self.peek()[1] in ("\\/", "|"):
            self.next()
            left = Or(left, self.bconj())
        return left

    def bconj(self) -> BTerm:
        left = self.batom()
        while self.peek()[1] in ("/\\", "&"):
            self.next()
            left = And(left, self.batom())
        return left

    def batom(self) -> BTerm:
        kind, val, pos = self.next()
        if val == "~":
            return Not(self.batom())
        if val == "(":
            t = self.bterm()
            self.eat(")")
            return t
        if kind == "num":
            if val == "0":
                return ZERO
            if val == "1":
                return ONE
            raise ParseError(f"numeric constants are 0 and 1, found {val}", pos)
        if kind == "ident":
            return Var(val)
        raise ParseError(f"expected a term, found {val!r}", pos)

    # -- Formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        left = self.fatom()
        if self.peek()[1] == "->":
            self.next()
            return Impl(left, self.formula())
        return left

    def fatom(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "bot":
            self.next()
            return bot()
        if val in ("forall", "exists"):
            self.next()
            vk, vname, vpos = self.next()
            if vk != "ident":
                raise ParseError(f"expected a variable after {val}", vpos)
            self.eat(".")
            body = self.formula()
            return Forall(vname, body) if val == "forall" else exists(vname, body)
        if val == "(":
            # Either a parenthesized formula or the left term of a
            # comparison; try the comparison reading first.
            save = self.i
            try:
                a = self.bterm()
                if self.peek()[1] in ("!=", "=="):
                    return self._relop(a)
            except ParseError:
                pass
            self.i = save
            self.next()
            f = self.formula()
            self.eat(")")
            return f
        a = self.bterm()
        return self._relop(a)

    def _relop(self, a: BTerm) -> Formula:
        kind, val, pos = self.next()
        if val == "!=":
            return Neq(a, self.bterm())
        if val == "==":
            return eq(a, self.bterm())
        raise ParseError(f"expected != or ==, found {val!r}", pos)

    # -- Machine terms, stacks, processes ---------------------------------

    _STOPPERS = {")", "]", "}", ".", ",", "*", "", "->", "!=", "==",
                 "/\\", "\\/", "&", "|"}

    def lcterm(self) -> LcTerm:
        t = self.lcatom()
        while self.peek()[1] not in self._STOPPERS:
            t = App(t, self.lcatom())
        return t

    def lcatom(self) -> LcTerm:
        kind, val, pos = self.next()
        if val == "\\":
            vk, vname, vpos = self.next()
            if vk != "ident" or vname == "cc":
                raise ParseError(f"expected a variable after \\, found {vname!r}",
                                 vpos)
            self.eat(".")
            return Lam(vname, self.lcterm())
        if val == "(":
            t = self.lcterm()
            self.eat(")")
            return t
        if kind == "ident":
            if val == "cc":
                return CC
            if val == "g" and self.peek()[1] == "{":
                self.next()
                tag = self.formula()
                self.eat("}")
                return Gamma(tag)
            if val == "k" and self.peek()[1] == "[":
                self.next()
                entries = []
                if self.peek()[1] != "]":
                    entries.append(self.lcterm())
                    while self.peek()[1] == ",":
                        self.next()
                        entries.append(self.lcterm())
                self.eat("]")
                return Kont(stack_of(*(_closed(t, "stack entries")
                                       for t in entries)))
            return LVar(val)
        raise ParseError(f"expected a machine term, found {val!r}", pos)

    def stack(self) -> StackT:
        """Entries are read in a loop, so a written stack has no length
        limit.  Every syntax error comes before any closedness error, and
        the entries are checked from the last to the first."""
        entries = []
        while self.peek()[1] != "[":
            entries.append(self.lcterm())
            self.eat(".")
        self.next()
        self.eat("]")
        pi = EMPTY
        for head in reversed(entries):
            pi = SPush(_closed(head, "stack entries"), pi)
        return pi

    def process(self) -> Process:
        t = self.lcterm()
        self.eat("*")
        pi = self.stack()
        return Process(_closed(t, "process terms"), pi)


def parse_bterm(src: str) -> BTerm:
    p = _Parser(src)
    t = p.bterm()
    p.done()
    return t


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    f = p.formula()
    p.done()
    return f


def parse_lcterm(src: str) -> LcTerm:
    p = _Parser(src)
    t = p.lcterm()
    p.done()
    return t


def parse_stack(src: str) -> StackT:
    p = _Parser(src)
    pi = p.stack()
    p.done()
    return pi


def parse_process(src: str) -> Process:
    p = _Parser(src)
    proc = p.process()
    p.done()
    return proc


# --------------------------------------------------------------------------
# Printers
# --------------------------------------------------------------------------

def print_bterm(t: BTerm) -> str:
    return _bterm(t, 0, {})


def print_formula(f: Formula) -> str:
    return _formula(f, 0, {})


# term precedence: \/ = 1, /\ = 2, ~ = 3; each left-nested connective
# with its precedence and separator (its right operand binds one tighter)
_SPINES = {Or: (1, " \\/ "), And: (2, " /\\ ")}


def _bterm(t: BTerm, prec: int, memo: dict) -> str:
    """t's text at precedence prec.  Terms are DAGs, so the text of each
    \\/ or /\\ node is made once per call for each precedence it is printed
    at, and reused: the key holds prec because a node may sit both where
    it needs parentheses and where it does not.  Leaves and ~ skip the
    memo, as their text costs no more to make than to look up.  A
    left-nested chain of one connective is printed with one loop and one
    join, so it has no length limit and no link copies the text below
    it."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Not):
        return "~" + _bterm(t.arg, 3, memo)
    key = (id(t), prec)
    s = memo.get(key)
    if s is not None:
        return s
    cls = type(t)
    spine = _SPINES.get(cls)
    if spine is None:
        raise TypeError(f"not a term: {t!r}")
    own, sep = spine
    parts = []
    link = t
    while type(link) is cls:
        parts.append(_bterm(link.rhs, own + 1, memo))
        link = link.lhs
    parts.append(_bterm(link, own, memo))
    parts.reverse()
    s = sep.join(parts)
    if prec > own:
        s = f"({s})"
    memo[key] = s
    return s


def _formula(f: Formula, prec: int, memo: dict) -> str:
    """f's text at precedence prec; its terms share `memo`.  -> has
    precedence 1 and nests to the right; atoms and quantifiers are tight,
    except that a quantifier body extends right, so it parenthesizes at
    prec > 0."""
    if isinstance(f, Neq):
        return f"{_bterm(f.lhs, 0, memo)} != {_bterm(f.rhs, 0, memo)}"
    if isinstance(f, Impl):
        s = f"{_formula(f.ante, 2, memo)} -> {_formula(f.cons, 1, memo)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, Forall):
        s = f"forall {f.var}. {_formula(f.body, 0, memo)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def print_lcterm(t: LcTerm, prec: int = 0) -> str:
    # precedence: lambda=0, application=1, atom=2
    if isinstance(t, LVar):
        return t.name
    if isinstance(t, Lam):
        s = f"\\{t.var}. {print_lcterm(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, App):
        s = f"{print_lcterm(t.fn, 1)} {print_lcterm(t.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, Cc):
        return "cc"
    if isinstance(t, Kont):
        entries = []
        pi = t.stack
        while isinstance(pi, SPush):
            entries.append(print_lcterm(pi.head, 0))
            pi = pi.tail
        return "k[" + ", ".join(entries) + "]"
    if isinstance(t, Gamma):
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
