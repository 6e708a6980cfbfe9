"""Tiny arithmetic grammar for closed-form density expressions.

Supports numbers, the variables supplied by the caller (x, and y in 2D),
constants pi and e, the usual operators (+ - * / ^, unary minus), and a
small function set.  Evaluation is vectorized over numpy arrays.  Numbers
and constants are ``np.float64``, so scalar arithmetic follows numpy's
rules as array arithmetic does: ``1/0`` or ``10^400`` is inf and
``(-1)^0.5`` nan (with numpy's warnings), never a Python exception.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExpressionError

__all__ = ["evaluate"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or
                                     (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^(),":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r} in expression")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() != "end":
            raise ExpressionError(f"trailing input {self.tokens[self.pos][1]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.unary()  # right associative
            return base ** exponent
        return base

    def atom(self):
        kind, text = self.take()
        if kind == "num":
            try:
                return np.float64(text)
            except ValueError as exc:
                raise ExpressionError(f"bad number literal {text!r}") from exc
        if kind == "(":
            value = self.expr()
            self.take(")")
            return value
        if kind == "name":
            if self.peek() == "(":
                if text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {text!r}")
                self.take("(")
                arg = self.expr()
                self.take(")")
                return _FUNCTIONS[text](arg)
            if text in self.variables:
                return self.variables[text]
            if text in _CONSTANTS:
                return _CONSTANTS[text]
            raise ExpressionError(f"unknown name {text!r}")
        raise ExpressionError(f"unexpected token {text!r}")


def evaluate(text: str, **variables):
    """Evaluate the expression with the given variable arrays or scalars."""
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    parser = _Parser(_tokenize(text), variables)
    try:
        value = parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    return np.asarray(value, dtype=float)
