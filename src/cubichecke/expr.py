"""Micro-grammar for eigenvalue literals, ideal names and module labels.

Eigenvalue expressions use rationals, ``theta``, ``i``, ``*``, ``/``, ``^``,
``+``, ``-`` and parentheses.  Ideal arguments parse as polynomial
expressions in ``l1, l2, l3`` and are matched against the Theorem-A catalog
up to a unit multiple.  Module labels use the monomial syntax
``l1^3*l2^2*l3`` with an optional ``:theta`` / ``:theta2`` suffix for the
nine-dimensional pair.
"""

from __future__ import annotations

import re


from .catalog import ModuleLabel, PrimeIdealSpec, ideal_for_generator, label4, spec_for
from .cyclotomic import Cyclotomic, I_UNIT, THETA
from .laurent import LaurentPoly


class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>theta|i|l1|l2|l3)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("cannot tokenize %r at position %d" % (text, pos))
        pos = m.end()
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    """Recursive descent over + - * / ^ with unary minus; values are Laurent
    polynomials over Q(zeta12) (constants included), so one grammar covers
    both eigenvalue literals and ideal polynomials."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> LaurentPoly:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError("trailing input at token %d" % self.pos)
        return value

    def expr(self) -> LaurentPoly:
        kind, op = self.peek()
        negate = False
        if kind == "op" and op in "+-":
            self.take()
            negate = op == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if op == "-" else value + rhs
            else:
                return value

    def term(self) -> LaurentPoly:
        value = self.power()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.take()
                rhs = self.power()
                if op == "*":
                    value = value * rhs
                else:
                    if not rhs.is_monomial():
                        raise ParseError("division only by monomials")
                    value = value * rhs ** (-1)
            else:
                return value

    def power(self) -> LaurentPoly:
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.take()
            sign = 1
            kind2, op2 = self.peek()
            if kind2 == "op" and op2 == "-":
                self.take()
                sign = -1
            kind2, val = self.take()
            if kind2 != "num":
                raise ParseError("exponent must be an integer")
            if sign < 0 and not base.is_monomial():
                raise ParseError("negative powers only of monomials")
            try:
                return base ** (sign * val)
            except OverflowError as exc:
                raise ParseError(str(exc)) from None
        return base

    def atom(self) -> LaurentPoly:
        kind, val = self.take()
        if kind == "num":
            return LaurentPoly.const(Cyclotomic.from_rational(val))
        if kind == "name":
            if val == "theta":
                return LaurentPoly.const(THETA)
            if val == "i":
                return LaurentPoly.const(I_UNIT)
            return LaurentPoly.var(int(val[1]) - 1)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind2, val2 = self.take()
            if (kind2, val2) != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return inner
        if kind == "op" and val == "-":
            return -self.atom()
        raise ParseError("unexpected token %r" % (val,))


def parse_poly(text: str) -> LaurentPoly:
    return _Parser(text).parse()


def parse_scalar(text: str) -> Cyclotomic:
    poly = parse_poly(text)
    if not poly.is_const():
        raise ParseError("expected a constant expression, got %s" % poly)
    return poly.const_value()


def parse_point(text: str):
    """Three comma-separated eigenvalue literals."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("expected three comma-separated eigenvalues")
    return tuple(parse_scalar(p) for p in parts)


def parse_ideal(text: str) -> PrimeIdealSpec:
    poly = parse_poly(text)
    try:
        return ideal_for_generator(poly)
    except KeyError as exc:
        raise ParseError(str(exc)) from None


def parse_label(text: str) -> ModuleLabel:
    text = text.strip()
    theta = 0
    if text.endswith(":theta2"):
        theta = 2
        text = text[: -len(":theta2")]
    elif text.endswith(":theta"):
        theta = 1
        text = text[: -len(":theta")]
    poly = parse_poly(text)
    if not poly.is_monomial():
        raise ParseError("module labels are monomials in l1, l2, l3")
    ((exps, coeff),) = poly.term_items()
    if not coeff.is_one():
        raise ParseError("module labels carry no coefficient")
    label = label4(exps, theta)
    try:
        spec_for(label)
    except KeyError:
        raise ParseError("%s is not a catalogued regular module" % text) from None
    return label
