"""Recursive-descent parser for the coefficient expression language.

Grammar (| separates alternatives, * is repetition):

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor  |  power
    power   :=  atom ('^' factor)?          # right-associative
    atom    :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are the variable ``x``, a declared parameter, or one of the fixed
functions sin, cos, tan, tanh, sinh, cosh, sech, exp, log, sqrt,
arcsinh, abs.  ``-x^2`` is rejected as ambiguous: write ``(-x)^2`` or
``-(x^2)``.

A parsed tree is compiled once, with its parameters bound, into a
function of x built from numpy operations; one call then evaluates a
scalar or a whole array of x.  Compiling is where names are resolved:
a name that is neither x nor a given parameter raises ExpressionError
with its line and column.  Arithmetic follows numpy: where an
expression is undefined the result is NaN or inf, not an exception.
"""

import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sech": lambda v: 1.0 / np.cosh(v),
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "arcsinh": np.arcsinh,
    "abs": np.abs,
}

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}


class ExpressionError(ValueError):
    """Syntax or name error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    """The variable x or a parameter reference."""
    name: str
    line: int = 1
    column: int = 1


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Name, Neg, Bin, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExpressionError(f"unexpected character {stripped[0]!r}", line, col)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num") + 1))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(message, self.line, tok[2])

    def expect_op(self, op):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            self.fail(f"expected {op!r}")
        return self.next()

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected trailing input {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.next()
            operand = self.factor_after_minus()
            return Neg(operand)
        return self.power()

    def factor_after_minus(self):
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self.factor_after_minus())
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.fail("ambiguous '-' before '^': write (-x)^2 or -(x^2)")
        return node

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            node = Bin("^", node, self.factor())
        return node

    def atom(self):
        kind, value, col = self.peek()
        if kind == "num":
            self.next()
            return Num(float(value))
        if kind == "name":
            self.next()
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", self.line, col)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Name(value, self.line, col)
        if (kind, value) == ("op", "("):
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(f"expected a number, name, or '(', got {value!r}" if value else "unexpected end of expression")


def parse_expression(text: str, line: int = 1) -> Node:
    """Parse one expression; ``line`` seeds error locations."""
    return _Parser(_tokenize(text, line), line).parse()


def compile_expression(node: Node, params: dict) -> Callable:
    """A function of x that evaluates the tree with numpy.

    Parameters are looked up now, so an unknown name raises
    ExpressionError here rather than at evaluation.  The function takes a
    scalar or a numpy array of x.
    """
    body = _compile(node, {name: np.float64(value) for name, value in params.items()})
    return lambda x: body(np.asarray(x, dtype=float))


def _compile(node, params):
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda x: value
    if isinstance(node, Name):
        if node.name == "x":
            return lambda x: x
        try:
            value = params[node.name]
        except KeyError:
            raise ExpressionError(f"unknown name {node.name!r}", node.line, node.column) from None
        return lambda x: value
    if isinstance(node, Neg):
        operand = _compile(node.operand, params)
        return lambda x: -operand(x)
    if isinstance(node, Call):
        func, arg = FUNCTIONS[node.func], _compile(node.arg, params)
        return lambda x: func(arg(x))
    op = _OPERATORS[node.op]
    left, right = _compile(node.left, params), _compile(node.right, params)
    return lambda x: op(left(x), right(x))
