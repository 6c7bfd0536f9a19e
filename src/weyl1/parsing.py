"""Expression parser and canonical printer for algebra elements.

Grammar (no implicit multiplication; multiplication is noncommutative
and left-associative):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := 'X' | 'Y' | 'H' | rational | '(' expr ')' | '[' expr ',' expr ']'
    rational := nat ('/' nat)?

'H' is surface syntax for Y*X; brackets are commutators.  The leading
minus exists so canonical printer output like "-1 + Y*X" parses back.
format_element (re-exported here as print_element) and parse are mutually
inverse on canonical forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import H, WeylElement, X, Y, commutator, format_element, scalar
from .scalars import rat

MAX_EXPONENT = 4096
#: Deepest nesting of parentheses and commutator brackets.  The parser
#: recurses once per level, so the limit keeps it far below the
#: interpreter's stack limit.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# AST nodes: ('num', Rat) ('gen', name) ('neg', t) ('add'|'sub'|'mul', l, r)
# ('pow', t, n) ('comm', l, r)
Expr = Tuple


@dataclass
class _Token:
    kind: str  # 'nat' 'name' 'op'
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch in " \t\r\n":  # ASCII blanks only: str.isspace() also takes "\u3000"
            k += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() also takes "²" and "３"
            start = k
            while k < n and "0" <= text[k] <= "9":
                k += 1
            out.append(_Token("nat", text[start:k], start))
            continue
        if ch in "XYH":
            out.append(_Token("name", ch, k))
            k += 1
            continue
        if ch in "+-*/^()[],":
            out.append(_Token("op", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, wanted {text or kind}", len(self.text))
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {text or kind}, found {tok.text!r}", tok.pos)
        self.k += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in ops

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        if self.at_op("-"):
            self.take("op", "-")
            node: Expr = ("neg", self.term())
        else:
            node = self.term()
        while self.at_op("+", "-"):
            op = self.take("op").text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*"):
            self.take("op", "*")
            node = ("mul", node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.atom()
        if self.at_op("^"):
            tok = self.take("op", "^")
            num = self.take("nat")
            n = int(num.text)
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent {n} exceeds the limit {MAX_EXPONENT}", num.pos)
            node = ("pow", node, n)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.kind == "op" and tok.text in ("(", "["):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"nesting deeper than the limit {MAX_NESTING}", tok.pos
                )
            self.depth += 1
            node = self.group(tok.text)
            self.depth -= 1
            return node
        if tok.kind == "name":
            self.take("name")
            return ("gen", tok.text)
        if tok.kind == "nat":
            self.take("nat")
            value = rat(int(tok.text))
            if self.at_op("/"):
                self.take("op", "/")
                den = self.take("nat")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                value = rat(int(tok.text), int(den.text))
            return ("num", value)
        raise ParseError(f"expected an atom, found {tok.text!r}", tok.pos)

    def group(self, opener: str) -> Expr:
        self.take("op", opener)
        if opener == "(":
            node = self.expr()
            self.take("op", ")")
            return node
        lhs = self.expr()
        self.take("op", ",")
        rhs = self.expr()
        self.take("op", "]")
        return ("comm", lhs, rhs)


_GENERATORS = {"X": X, "Y": Y, "H": H}


_CHAINS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_expr(node: Expr) -> WeylElement:
    """Evaluate an AST to its unique element."""
    op = node[0]
    if op in _CHAINS:
        # walk the left spine of X + X + ... + X instead of recursing down
        # it, so a long flat sum or product cannot exhaust the stack
        links = []
        while node[0] in _CHAINS:
            links.append(node)
            node = node[1]
        acc = eval_expr(node)
        for kind, _, rhs in reversed(links):
            acc = _CHAINS[kind](acc, eval_expr(rhs))
        return acc
    if op == "num":
        return scalar(node[1])
    if op == "gen":
        return _GENERATORS[node[1]]
    if op == "neg":
        return -eval_expr(node[1])
    if op == "pow":
        return eval_expr(node[1]) ** node[2]
    if op == "comm":
        return commutator(eval_expr(node[1]), eval_expr(node[2]))
    raise ValueError(f"unknown AST node {op!r}")


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def parse(text: str) -> WeylElement:
    """Parse to the exact element the expression denotes."""
    return eval_expr(parse_expr(text))


#: Canonical printing lives next to the element type; mirrored here so the
#: parsing module exposes both directions of the round trip.
print_element = format_element
