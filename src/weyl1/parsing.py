"""Expression parser for algebra elements.

Grammar (no implicit multiplication; multiplication is noncommutative
and left-associative):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := 'X' | 'Y' | 'H' | rational | '(' expr ')' | '[' expr ',' expr ']'
    rational := nat ('/' nat)?

'H' is surface syntax for Y*X; brackets are commutators.  The leading
minus exists so canonical printer output like "-1 + Y*X" parses back:
the printer, `core.format_element`, and parse are mutually inverse on
canonical forms.  The descent turns one token stream into a postfix
program, run only once the whole text has parsed: a syntax error
is reported before any power is formed.  A `+`/`-` chain is one op, its
terms added into one term map over one denominator (`core._combine`).
"""

from __future__ import annotations

import re
import sys

from .core import H, ZERO, WeylElement, X, Y, _combine, commutator

MAX_EXPONENT = 4096
#: Deepest nesting of parentheses and commutator brackets.  The parser
#: recurses once per level, so the limit keeps it far below the
#: interpreter's stack limit.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Only space, tab, CR and LF are blanks, and only ASCII digits make a
# numeral (str.isspace() also takes "　", str.isdigit() "²" and "３").
# A token is (kind, text, pos): the kind of a numeral is "nat", that of
# a generator or operator its own text.
_TOKEN = re.compile(r"[ \t\r\n]*(?:([0-9]+)|([-+*/^()\[\],XYH])|([^ \t\r\n]))")


def _nat(tok: tuple, what: str = "numeral", limit: int | None = None) -> int:
    # a value above the limit or a digit run int() refuses is bad input
    _, text, pos = tok
    try:
        n = int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits() if limit is None else limit
        raise ParseError(f"{what} of {len(text)} digits exceeds the limit {limit}", pos) from None
    if limit is not None and n > limit:
        raise ParseError(f"{what} {n} exceeds the limit {limit}", pos)
    return n


_GENERATORS = {"X": X, "Y": Y, "H": H}


class _Parser:
    """Recursive descent that appends the postfix program: an element is
    pushed, "*" and "[" (commutator) pop two operands, an int raises the
    top to that power, and a tuple of signs +-1 pops one operand per sign
    and pushes their signed sum (a `+`/`-` chain, its leading minus the
    first sign)."""

    def __init__(self, text: str):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            tok, pos = m[group], m.start(group)
            if group == 3:
                raise ParseError(f"unexpected character {tok!r}", pos)
            self.tokens.append(("nat" if group == 1 else tok, tok, pos))
        self.tokens.append(("end", "", len(text)))
        self.k = 0
        self.depth = 0
        self.program = []

    def accept(self, *kinds: str) -> tuple | None:
        tok = self.tokens[self.k]
        if tok[0] in kinds:
            self.k += 1
            return tok
        return None

    def expect(self, want: str) -> tuple:
        tok = self.accept(want)
        if tok is None:
            kind, text, pos = self.tokens[self.k]
            if kind == "end":
                raise ParseError(f"unexpected end of input, wanted {want}", pos)
            raise ParseError(f"expected {want}, found {text!r}", pos)
        return tok

    def expr(self) -> None:
        signs = [-1 if self.accept("-") else 1]
        self.term()
        while op := self.accept("+", "-"):
            self.term()
            signs.append(1 if op[0] == "+" else -1)
        if signs != [1]:
            self.program.append(tuple(signs))

    def term(self) -> None:
        self.factor()
        while self.accept("*"):
            self.factor()
            self.program.append("*")

    def factor(self) -> None:
        self.atom()
        if self.accept("^"):
            self.program.append(_nat(self.expect("nat"), "exponent", MAX_EXPONENT))

    def atom(self) -> None:
        kind, text, pos = tok = self.tokens[self.k]
        self.k += 1
        if kind in ("(", "["):
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting deeper than the limit {MAX_NESTING}", pos)
            self.depth += 1
            self.expr()
            if kind == "[":
                self.expect(",")
                self.expr()
                self.program.append("[")
            self.expect(")" if kind == "(" else "]")
            self.depth -= 1
        elif kind in _GENERATORS:
            self.program.append(_GENERATORS[kind])
        elif kind == "nat":
            n, d = _nat(tok), 1
            if self.accept("/"):
                den = self.expect("nat")
                d = _nat(den)
                if d == 0:
                    raise ParseError("zero denominator", den[2])
            self.program.append(WeylElement._cleared({(0, 0): n}, d) if n else ZERO)
        elif kind == "end":
            raise ParseError("unexpected end of input", pos)
        else:
            raise ParseError(f"expected an atom, found {text!r}", pos)


_BINARY = {"*": WeylElement.__mul__, "[": commutator}


def parse(text: str) -> WeylElement:
    """Parse to the exact element the expression denotes."""
    parser = _Parser(text)
    parser.expr()
    kind, rest, pos = parser.tokens[parser.k]
    if kind != "end":
        raise ParseError(f"trailing input {rest!r}", pos)
    stack = []
    for op in parser.program:
        if isinstance(op, WeylElement):
            stack.append(op)
        elif isinstance(op, int):
            stack[-1] = stack[-1] ** op
        elif isinstance(op, tuple):
            terms = stack[-len(op):]
            del stack[-len(op):]
            stack.append(_combine([(s, t._den, t._ints) for s, t in zip(op, terms)]))
        else:
            rhs = stack.pop()
            stack[-1] = _BINARY[op](stack[-1], rhs)
    return stack[0]
