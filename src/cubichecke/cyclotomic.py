"""Exact arithmetic in the cyclotomic field Q(z) with z a primitive 12th root of unity.

An element is (n0 + n1*z + n2*z^2 + n3*z^3) / d with Python ints ni and one
positive int d, reduced modulo the minimal polynomial z^4 = z^2 - 1.  The
stored form is canonical: gcd(n0, n1, n2, n3, d) == 1 and zero is 0/1, so
equal elements store equal integers.  Arithmetic is fraction-free; a result
whose denominator is 1 (the common case) skips the gcd.  ``Fraction`` appears
only at the boundary, in constructor input.

The field contains

    theta = z^4 = z^2 - 1   (a primitive third root of unity), and
    i     = z^3             (a primitive fourth root of unity),

which is all the root-of-unity content the Hecke-algebra data ever needs.

Inverses use the norm.  With s_k the automorphism z -> z^k (k = 5, 7, 11),
a^-1 = s5(a)*s7(a)*s11(a) / N(a), where N(a) = a*s5(a)*s7(a)*s11(a) is a
positive rational.  Since s11 = s5*s7, the numerator is s7(a)*s5(b) with
b = a*s7(a) in Q(z^2), and N(a) = b*s5(b).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO_N = (0, 0, 0, 0)


class Cyclotomic:
    """An element of Q(z), z^4 = z^2 - 1: four int numerators ``n`` over one int ``d > 0``."""

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = [Fraction(c) for c in (c0, c1, c2, c3)]
        d = lcm(*(c.denominator for c in cs))
        # d is the lcm of reduced denominators, so gcd(n, d) == 1 already
        self.n = tuple(c.numerator * (d // c.denominator) for c in cs)
        self.d = d

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        q = Fraction(q)
        return _raw((q.numerator, 0, 0, 0), q.denominator)

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == _ZERO_N

    def is_one(self) -> bool:
        return self.d == 1 and self.n == (1, 0, 0, 0)

    def coeff_strs(self) -> list:
        """The four coefficients ni/d in lowest terms, rendered "p" or "p/q"."""
        d = self.d
        out = []
        for x in self.n:
            g = gcd(x, d)
            out.append(str(x // g) if g == d else "%d/%d" % (x // g, d // g))
        return out

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        ad, bd = self.d, other.d
        if ad == bd:
            n = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            return _raw(n, 1) if ad == 1 else _canon(n, ad)
        return _canon(
            (a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, a3 * bd + b3 * ad),
            ad * bd,
        )

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        ad, bd = self.d, other.d
        if ad == bd:
            n = (a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            return _raw(n, 1) if ad == 1 else _canon(n, ad)
        return _canon(
            (a0 * bd - b0 * ad, a1 * bd - b1 * ad, a2 * bd - b2 * ad, a3 * bd - b3 * ad),
            ad * bd,
        )

    def __neg__(self) -> "Cyclotomic":
        a0, a1, a2, a3 = self.n
        return _raw((-a0, -a1, -a2, -a3), self.d)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        d = self.d * other.d
        # rational fast paths dominate in practice
        if not (b1 or b2 or b3):
            if b0 == 1 == other.d:
                return self
            if not (a1 or a2 or a3):
                n = (a0 * b0, 0, 0, 0)
            else:
                n = (a0 * b0, a1 * b0, a2 * b0, a3 * b0)
        elif not (a1 or a2 or a3):
            if a0 == 1 == self.d:
                return other
            n = (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
        else:
            t4 = a1 * b3 + a2 * b2 + a3 * b1
            t5 = a2 * b3 + a3 * b2
            # z^4 = z^2 - 1,  z^5 = z^3 - z,  z^6 = -1
            n = (
                a0 * b0 - t4 - a3 * b3,
                a0 * b1 + a1 * b0 - t5,
                a0 * b2 + a1 * b1 + a2 * b0 + t4,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + t5,
            )
        return _raw(n, 1) if d == 1 else _canon(n, d)

    @staticmethod
    def from_power_sums(c, d: int) -> "Cyclotomic":
        """The canonical form of (c0 + c1*z + ... + c6*z^6) / d for ints ci and d != 0.

        A sum of products of numerator tuples, left unreduced, has these seven
        power sums; the reduction is the one :meth:`__mul__` applies to each product.
        """
        c0, c1, c2, c3, c4, c5, c6 = c
        # z^4 = z^2 - 1,  z^5 = z^3 - z,  z^6 = -1
        return _canon((c0 - c4 - c6, c1 - c5, c2 + c4, c3 + c5), d)

    def inverse(self) -> "Cyclotomic":
        a0, a1, a2, a3 = self.n
        if not (a1 or a2 or a3):
            if not a0:
                raise ZeroDivisionError("division by zero in Q(zeta12)")
            return _canon((self.d, 0, 0, 0), a0)
        # b = a*s7(a) = b0 + b2*z^2 with s7(a) = a0 - a1*z + a2*z^2 - a3*z^3
        b0 = a0 * a0 - a2 * a2 + 2 * a1 * a3 + a3 * a3
        b2 = 2 * a0 * a2 - a1 * a1 + a2 * a2 - 2 * a1 * a3
        # s5(b) = c0 + c2*z^2 and N = b*s5(b) = |b|^2 > 0
        c0, c2 = b0 + b2, -b2
        d = self.d
        return _canon(
            (
                d * (a0 * c0 - a2 * c2),
                d * (-a1 * c0 + a3 * c2),
                d * (a0 * c2 + a2 * c0 + a2 * c2),
                d * (-a1 * c2 - a3 * c0 - a3 * c2),
            ),
            b0 * b0 + b0 * b2 + b2 * b2,
        )

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Cyclotomic) and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self):
        return "Cyclotomic(%s)" % (self,)

    def __str__(self):
        parts = []
        for k, coeff in enumerate(self.coeff_strs()):
            if coeff == "0":
                continue
            mono = "" if k == 0 else ("z" if k == 1 else "z^%d" % k)
            if k == 0:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(mono)
            elif coeff == "-1":
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (coeff, mono))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += ("+" + p) if not p.startswith("-") else p
        return out


def _raw(n: tuple, d: int) -> Cyclotomic:
    """An element from numerators and a denominator already in canonical form."""
    obj = object.__new__(Cyclotomic)
    obj.n = n
    obj.d = d
    return obj


def _canon(n: tuple, d: int) -> Cyclotomic:
    """The canonical form of n/d for any nonzero int d."""
    g = gcd(*n, d)
    if d < 0:
        g = -g
    if g != 1:
        n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
        d //= g
    return _raw(n, d)


ZERO = Cyclotomic()
ONE = Cyclotomic(1)
MINUS_ONE = Cyclotomic(-1)
ZETA = Cyclotomic(0, 1)
THETA = Cyclotomic(-1, 0, 1)        # z^2 - 1, a primitive cube root of unity
THETA2 = Cyclotomic(0, 0, -1)       # theta^2 = -z^2
I_UNIT = Cyclotomic(0, 0, 0, 1)     # z^3, a primitive fourth root of unity
