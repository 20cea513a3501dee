"""Sparse Laurent polynomials in l1, l2, l3 over Q(zeta12), on integer numerators.

A polynomial stores one positive int denominator ``d`` and a dict ``terms``
from a packed exponent to four int numerators (n0, n1, n2, n3): the
coefficient of l^e is (n0 + n1*z + n2*z^2 + n3*z^3) / d with z^4 = z^2 - 1,
as in :mod:`~cubichecke.cyclotomic`.  The form is canonical: no numerator
tuple is zero, gcd(all numerators, d) == 1, and zero is {} over 1, so equal
polynomials store equal data and hash alike.

A packed exponent holds e0, e1, e2 in three 20-bit fields, each biased by
2^19, with e0 in the high field, so integer order on keys is lexicographic
order on exponent tuples, and the key of a product term is the sum of its
operands' keys less the key of (0, 0, 0).  Every exponent satisfies
|e| < 2^19.  Each polynomial carries bounds ``lo <= e <= hi`` on all its
exponents, from which an operation checks once per operand that its result
fits; one that would not raises OverflowError, and no field ever wraps.
The bounds are exact for products of what the constructor built and may be
loose after cancellation, which never matters at this library's degrees.

The kernel (products, sums, substitution, division, evaluation) works on the
integer tuples: the z^4 = z^2 - 1 reduction is applied per product, and each
result takes one gcd against its denominator.  ``Cyclotomic`` is the scalar
type at the boundary only: the constructor from {exponent tuple: Cyclotomic},
``term_items``, ``sorted_terms``, ``leading``, ``const_value``, and the
coefficients of ``scale`` and ``mul_monomial``.  Division and GCD treat their
inputs as ordinary polynomials (no negative exponents); everything that needs
them first strips the monomial content.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .cyclotomic import MINUS_ONE, ONE, ZERO, Cyclotomic, _canon, mul_numerators, power

_NAMES = ("l1", "l2", "l3")
_BIAS = 1 << 19                 # the field value of exponent 0; |e| < _BIAS
_MASK = (1 << 20) - 1
_SHIFTS = (40, 20, 0)
_KEY0 = (_BIAS << 40) | (_BIAS << 20) | _BIAS   # the key of (0, 0, 0)
_ZN = (0, 0, 0, 0)
_UNIT = (1, 0, 0, 0)


def monomial_name(exps) -> str:
    """l1^a*l2^b*l3^c with exponent 1 left bare and exponent 0 left out; ""
    for the constant monomial."""
    return "*".join(
        _NAMES[k] if e == 1 else "%s^%d" % (_NAMES[k], e) for k, e in enumerate(exps) if e
    )


def _pack(exps) -> int:
    e0, e1, e2 = exps
    return ((e0 + _BIAS) << 40) | ((e1 + _BIAS) << 20) | (e2 + _BIAS)


def _unpack(k: int) -> tuple:
    return (k >> 40) - _BIAS, ((k >> 20) & _MASK) - _BIAS, (k & _MASK) - _BIAS


def _check(lo: int, hi: int) -> tuple:
    """(lo, hi), the bounds of a result's exponents, if they fit the packed range."""
    if lo <= -_BIAS or hi >= _BIAS:
        raise OverflowError("exponent outside the packed range |e| < 2^19")
    return lo, hi


def _times(terms: dict, shift: int, c) -> dict:
    """{k + shift: n * c} for a nonzero numerator tuple c (no product is zero)."""
    c0, c1, c2, c3 = c
    if c1 or c2 or c3:
        return {k + shift: mul_numerators(n, c) for k, n in terms.items()}
    if c0 == 1:
        return {k + shift: n for k, n in terms.items()} if shift else dict(terms)
    return {k + shift: (c0 * n0, c0 * n1, c0 * n2, c0 * n3) for k, (n0, n1, n2, n3) in terms.items()}


def _make(terms: dict, d: int, lo: int, hi: int) -> "LaurentPoly":
    """A polynomial from nonzero numerator tuples over d > 0, with the
    common factor of the numerators and d divided out."""
    if d != 1:
        g = d
        for n in terms.values():
            g = gcd(g, *n)
            if g == 1:
                break
        if g != 1:
            d //= g
            terms = {k: (n0 // g, n1 // g, n2 // g, n3 // g) for k, (n0, n1, n2, n3) in terms.items()}
    p = object.__new__(LaurentPoly)
    p.terms = terms
    if terms:
        p.d, p.lo, p.hi = d, lo, hi
    else:
        p.d, p.lo, p.hi = 1, 0, 0
    return p


def _accumulate(out: dict, terms: dict):
    """Add the numerator tuples of ``terms`` into ``out`` in place, dropping
    the keys that cancel."""
    get = out.get
    for k, (n0, n1, n2, n3) in terms.items():
        c = get(k)
        if c is None:
            out[k] = (n0, n1, n2, n3)
        else:
            c = (c[0] + n0, c[1] + n1, c[2] + n2, c[3] + n3)
            if c == _ZN:
                del out[k]
            else:
                out[k] = c


class LaurentPoly:
    """A Laurent polynomial in l1, l2, l3 over Q(zeta12)."""

    # _box, _rat and _hash are facts about the immutable terms, each computed
    # on first use: the exponent box, whether every coefficient is rational,
    # and the hash
    __slots__ = ("terms", "d", "lo", "hi", "_box", "_rat", "_hash")

    def __init__(self, terms: dict):
        """From {exponent tuple: Cyclotomic}; zero coefficients are dropped."""
        items = [(e, c) for e, c in terms.items() if not c.is_zero()]
        d = lcm(*[c.d for _e, c in items])
        exps = [x for e, _c in items for x in e]
        self.lo, self.hi = _check(min(exps, default=0), max(exps, default=0))
        # d is the lcm of canonical denominators, so gcd(numerators, d) == 1
        self.terms = {
            _pack(e): c.n if c.d == d else mul_numerators(c.n, (d // c.d, 0, 0, 0)) for e, c in items
        }
        self.d = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _make({}, 1, 0, 0)

    @classmethod
    def const(cls, coeff: Cyclotomic) -> "LaurentPoly":
        return cls({(0, 0, 0): coeff})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _make({_KEY0: _UNIT}, 1, 0, 0)

    @classmethod
    def var(cls, index: int) -> "LaurentPoly":
        return _make({_KEY0 + (1 << _SHIFTS[index]): _UNIT}, 1, 0, 1)

    @classmethod
    def monomial(cls, exps, coeff: Cyclotomic = ONE) -> "LaurentPoly":
        return cls({tuple(exps): coeff})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.d == 1 and self.terms.get(_KEY0) == _UNIT

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _KEY0 in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def const_value(self) -> Cyclotomic:
        if self.is_zero():
            return ZERO
        ((k, n),) = self.terms.items()
        if k != _KEY0:
            raise ValueError("not a constant: %s" % self)
        return _canon(n, self.d)

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _addsub(self, other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _addsub(self, other, -1)

    def __neg__(self) -> "LaurentPoly":
        return self.scale(MINUS_ONE)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly.zero()
        lo, hi = _check(self.lo + other.lo, self.hi + other.hi)
        d = self.d * other.d
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ka, ca),) = a.items()
            return _make(_times(b, ka - _KEY0, ca), d, lo, hi)
        if self._is_rational() and other._is_rational():
            acc: dict = {}
            get = acc.get
            for ka, n in a.items():
                a0 = n[0]
                ka -= _KEY0
                for kb, m in b.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + a0 * m[0]
            p = _make({k: (v, 0, 0, 0) for k, v in acc.items() if v}, d, lo, hi)
            p._rat = True
            return p
        out: dict = {}
        for ka, ca in a.items():
            _accumulate(out, _times(b, ka - _KEY0, ca))
        return _make(out, d, lo, hi)

    def scale(self, coeff: Cyclotomic) -> "LaurentPoly":
        if coeff.is_zero():
            return LaurentPoly.zero()
        if coeff.is_one():
            return self
        return _make(_times(self.terms, 0, coeff.n), self.d * coeff.d, self.lo, self.hi)

    def mul_monomial(self, exps, coeff: Cyclotomic = ONE) -> "LaurentPoly":
        if coeff.is_zero():
            return LaurentPoly.zero()
        if not any(exps):
            return self.scale(coeff)
        lo, hi = _check(self.lo + min(exps), self.hi + max(exps))
        return _make(_times(self.terms, _pack(exps) - _KEY0, coeff.n), self.d * coeff.d, lo, hi)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            ((e, c),) = self.term_items()
            return LaurentPoly.monomial(tuple(-x for x in e), c.inverse()) ** -n
        return power(self, n, LaurentPoly.one())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((frozenset(self.terms.items()), self.d))
            return h

    def _is_rational(self) -> bool:
        try:
            return self._rat
        except AttributeError:
            r = self._rat = True
            for n in self.terms.values():
                if n[1] or n[2] or n[3]:
                    r = self._rat = False
                    break
            return r

    def _bounds(self):
        """((min e0, min e1, min e2), (max e0, max e1, max e2)) over the terms
        of a nonzero polynomial."""
        try:
            return self._box
        except AttributeError:
            t = self.terms
            f1 = [(k >> 20) & _MASK for k in t]
            f2 = [k & _MASK for k in t]
            box = self._box = (
                ((min(t) >> 40) - _BIAS, min(f1) - _BIAS, min(f2) - _BIAS),
                ((max(t) >> 40) - _BIAS, max(f1) - _BIAS, max(f2) - _BIAS),
            )
            return box

    # -- structure helpers -------------------------------------------------------

    def term_items(self):
        """(exponent tuple, Cyclotomic) pairs, in storage order."""
        d = self.d
        return ((_unpack(k), _canon(n, d)) for k, n in self.terms.items())

    def sorted_terms(self):
        """Terms in ascending canonical (lex) order; the last one is leading."""
        d = self.d
        return [(_unpack(k), _canon(n, d)) for k, n in sorted(self.terms.items())]

    def leading(self):
        """(exponents, coefficient) of the lex-largest term."""
        k = max(self.terms)
        return _unpack(k), _canon(self.terms[k], self.d)

    def min_exps(self):
        return self._bounds()[0]

    def degree(self, var: int) -> int:
        return self._bounds()[1][var]

    def active_vars(self):
        """Indices of variables occurring with nonzero exponent."""
        mins, maxs = self._bounds()
        return {v for v in range(3) if mins[v] or maxs[v]}

    def shift_nonnegative(self) -> tuple["LaurentPoly", tuple]:
        """Strip monomial content: self = l^shift * ordinary, ordinary min exps 0."""
        if self.is_zero():
            return self, (0, 0, 0)
        mins = self.min_exps()
        if not any(mins):
            return self, mins
        return self.mul_monomial((-mins[0], -mins[1], -mins[2])), mins

    # -- substitution and evaluation -------------------------------------------------

    def substitute(self, var: int, coeff: Cyclotomic, exps) -> "LaurentPoly":
        """Replace variable ``var`` by ``coeff * l^exps`` (exps[var] must be 0)."""
        parts = _split(self, var)
        if list(parts) in ([], [0]):
            return self
        # a new exponent is 0 (at var) or e_j + m * exps[j] with lo <= e_j <= hi
        # and m between the least and the greatest power of var
        shifts = [m * x for m in (min(parts), max(parts)) for x in exps]
        lo, hi = _check(min(self.lo, 0) + min(shifts), max(self.hi, 0) + max(shifts))
        step = _pack(exps) - _KEY0
        table, den = _power_table(coeff, min(parts), max(parts))
        out: dict = {}
        for m, part in parts.items():
            if table[m] != _ZN:
                _accumulate(out, _times(part, m * step, table[m]))
        return _make(out, self.d * den, lo, hi)

    def eval_point(self, values) -> Cyclotomic:
        """Evaluate at a tuple of Cyclotomic values (nonzero where exponents are
        negative): the terms sum as integer tuples over one common denominator,
        from one power table per point and variable, into one Cyclotomic."""
        terms = self.terms
        if not terms:
            return ZERO
        den = self.d
        tables = []
        for v, lo, hi, s in zip(values, *self._bounds(), _SHIFTS):
            if lo or hi:
                table, vden = _power_table(v, lo, hi)
                tables.append((s, table))
                den *= vden
        total = _ZN
        for k, n in terms.items():
            for s, table in tables:
                n = mul_numerators(n, table[((k >> s) & _MASK) - _BIAS])
            total = (total[0] + n[0], total[1] + n[1], total[2] + n[2], total[3] + n[3])
        return _canon(total, den)

    # -- rendering ------------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in reversed(self.sorted_terms()):
            mono = monomial_name(e)
            cs = str(c)
            composite = ("+" in cs[1:]) or ("-" in cs[1:])
            if not mono:
                parts.append("(%s)" % cs if composite else cs)
            elif c.is_one():
                parts.append(mono)
            elif (-c).is_one():
                parts.append("-" + mono)
            else:
                parts.append(("(%s)*" % cs if composite else cs + "*") + mono)
        out = parts[0]
        for p in parts[1:]:
            out += ("+" + p) if not p.startswith("-") else p
        return out

    __repr__ = __str__


def _addsub(a: LaurentPoly, b: LaurentPoly, sign: int) -> LaurentPoly:
    """a + sign * b over the least common denominator."""
    g = gcd(a.d, b.d)
    out = _times(a.terms, 0, (b.d // g, 0, 0, 0))
    _accumulate(out, _times(b.terms, 0, (sign * a.d // g, 0, 0, 0)))
    return _make(out, a.d // g * b.d, min(a.lo, b.lo), max(a.hi, b.hi))


@lru_cache(maxsize=32)
def _power_table(v: Cyclotomic, lo: int, hi: int) -> tuple[dict, int]:
    """({e: numerator of v^e over den} for lo <= e <= hi, den), from running
    products of the numerators of v and of 1/v (when lo < 0), with no gcd."""
    w = v.inverse() if lo < 0 else v
    up, down = [(_UNIT, 1)], [(_UNIT, 1)]
    for _ in range(hi):
        n, d = up[-1]
        up.append((mul_numerators(n, v.n), d * v.d))
    for _ in range(-lo):
        n, d = down[-1]
        down.append((mul_numerators(n, w.n), d * w.d))
    powers = {e: up[e] if e >= 0 else down[-e] for e in range(lo, hi + 1)}
    den = lcm(*[d for _n, d in powers.values()])
    return {e: mul_numerators(n, (den // d, 0, 0, 0)) for e, (n, d) in powers.items()}, den


# -- exact division and GCD machinery ------------------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly, budget: int | None = None) -> LaurentPoly:
    """Exact quotient f / g; raises ValueError when the division is not exact.

    Both inputs are treated as ordinary polynomials (no negative exponents).
    ``budget`` caps the number of quotient terms; exceeding it raises
    ValueError, which callers using division only as an opportunistic
    cancellation treat as "not divisible".

    The next quotient term comes off a max-heap of remainder keys with lazy
    deletion (Monagan and Pearce, JSC 2011).  The remainder holds integer
    numerator tuples: with F, G the numerators of f, g it divides s*F by G,
    for an int s that grows only when a quotient term would not be integral,
    and f / g = (s*F / G) * g.d / (s * f.d).
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return LaurentPoly.zero()
    ft, gt = f.terms, g.terms
    (fmin, fmax), (gmin, gmax) = f._bounds(), g._bounds()
    if len(gt) == 1:
        if any(x < y for x, y in zip(fmin, gmin)):
            raise ValueError("inexact division")
        _, hi = _check(0, max(x - y for x, y in zip(fmax, gmin)))
        ((kg, cg),) = gt.items()
        inv = _canon(cg, g.d).inverse()
        return _make(_times(ft, _KEY0 - kg, inv.n), f.d * inv.d, 0, hi)
    # cheap rejections: the leading and trailing monomials of an exact product
    # are products of the factors' leading and trailing monomials
    if any(x < y for x, y in zip(_unpack(min(ft)), _unpack(min(gt)))):
        raise ValueError("inexact division")
    # and 0 <= q_i <= max_i(f) - max_i(g) for every quotient exponent q (the
    # Newton polytope of a product is the sum of its factors'), which keeps
    # every remainder key inside the exponent box of f
    room = [x - y for x, y in zip(fmax, gmax)]
    if min(room) < 0:
        raise ValueError("inexact division")
    _, hi = _check(0, max(room))
    kg = max(gt)
    # the biased fields of a remainder key whose quotient term lies in that box
    l0, l1, l2 = kg >> 40, (kg >> 20) & _MASK, kg & _MASK
    h0, h1, h2 = l0 + room[0], l1 + room[1], l2 + room[2]
    inv = _canon(gt[kg], 1).inverse()
    iv, idn = inv.n, inv.d
    rest = [(k - kg, n) for k, n in gt.items() if k != kg]
    rem = dict(ft)
    heap = [-k for k in rem]
    heapify(heap)
    quotient: dict = {}
    scale = 1
    while heap:
        e = -heappop(heap)
        r = rem.pop(e, None)
        if r is None:
            continue
        if not (l0 <= e >> 40 <= h0 and l1 <= (e >> 20) & _MASK <= h1 and l2 <= e & _MASK <= h2):
            raise ValueError("inexact division")
        if budget is not None and len(quotient) >= budget:
            raise ValueError("division budget exceeded")
        q0, q1, q2, q3 = mul_numerators(r, iv)
        if idn != 1:
            c = gcd(idn, q0, q1, q2, q3)
            m = idn // c
            if m != 1:
                # make this quotient term integral: scale all the work so far by m
                scale *= m
                rem, quotient = _times(rem, 0, (m, 0, 0, 0)), _times(quotient, 0, (m, 0, 0, 0))
            q0, q1, q2, q3 = q0 // c, q1 // c, q2 // c, q3 // c
        quotient[e - kg + _KEY0] = (q0, q1, q2, q3)
        nq = (-q0, -q1, -q2, -q3)
        for k, n in rest:
            k += e
            if q1 or q2 or q3:
                p0, p1, p2, p3 = mul_numerators(n, nq)
            else:
                p0, p1, p2, p3 = -q0 * n[0], -q0 * n[1], -q0 * n[2], -q0 * n[3]
            c = rem.get(k)
            if c is None:
                rem[k] = (p0, p1, p2, p3)
                heappush(heap, -k)
            else:
                c = (c[0] + p0, c[1] + p1, c[2] + p2, c[3] + p3)
                if c == _ZN:
                    del rem[k]
                else:
                    rem[k] = c
    if g.d != 1:
        quotient = _times(quotient, 0, (g.d, 0, 0, 0))
    return _make(quotient, scale * f.d, 0, hi)


def multiplicity(g: LaurentPoly, f: LaurentPoly, most=None, budget=None) -> tuple[int, LaurentPoly]:
    """(k, f / g^k) for the largest k, up to ``most`` when given, with g^k
    dividing the ordinary polynomial f.  Without ``most``, f must be nonzero
    and g no constant, or the count never ends.  Each division carries
    ``budget`` as in :func:`exact_div`, so one that runs out of it ends the
    count as an inexact one does."""
    k = 0
    while k != most:
        try:
            f = exact_div(f, g, budget)
        except ValueError:
            break
        k += 1
    return k, f


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    return multiplicity(g, f, 1)[0] == 1


def _split(f: LaurentPoly, var: int) -> dict:
    """{e: the numerator dict of the terms of f with l_var^e, l_var set to 1}."""
    s = _SHIFTS[var]
    parts: dict = {}
    for k, n in f.terms.items():
        e = ((k >> s) & _MASK) - _BIAS
        parts.setdefault(e, {})[k - (e << s)] = n
    return parts


def _coeffs_in_var(f: LaurentPoly, var: int) -> dict[int, LaurentPoly]:
    """View f as a polynomial in ``var``: degree -> coefficient poly (var-free)."""
    lo, hi = min(f.lo, 0), max(f.hi, 0)
    return {e: _make(t, f.d, lo, hi) for e, t in _split(f, var).items()}


def _lc_in_var(f: LaurentPoly, var: int):
    d = f.degree(var)
    s = _SHIFTS[var]
    top = d + _BIAS
    lc = {k - (d << s): n for k, n in f.terms.items() if (k >> s) & _MASK == top}
    return d, _make(lc, f.d, min(f.lo, 0), max(f.hi, 0))


def _mul_var_power(f: LaurentPoly, var: int, d: int) -> LaurentPoly:
    exps = [0, 0, 0]
    exps[var] = d
    return f.mul_monomial(tuple(exps))


def pseudo_rem(f: LaurentPoly, g: LaurentPoly, var: int) -> LaurentPoly:
    """Pseudo-remainder of f by g in the variable ``var``."""
    n = f.degree(var)
    m = g.degree(var)
    if n < m:
        raise ValueError("pseudo_rem needs deg(f) >= deg(g)")
    _, lcg = _lc_in_var(g, var)
    r = f
    steps = n - m + 1
    while not r.is_zero():
        dr = r.degree(var)
        if dr < m:
            break
        _, lcr = _lc_in_var(r, var)
        r = lcg * r - _mul_var_power(lcr * g, var, dr - m)
        steps -= 1
    for _ in range(steps):
        r = lcg * r
    return r


def _normalize_monic(f: LaurentPoly) -> LaurentPoly:
    if f.is_zero():
        return f
    _, c = f.leading()
    if c.is_one():
        return f
    return f.scale(c.inverse())


def _content_in_var(f: LaurentPoly, var: int) -> LaurentPoly:
    coeffs = _coeffs_in_var(f, var)
    it = iter(sorted(coeffs))
    c = coeffs[next(it)]
    for d in it:
        if c.is_one():
            return c
        c = poly_gcd(c, coeffs[d])
    return c


def _subresultant_last(f: LaurentPoly, g: LaurentPoly, var: int) -> LaurentPoly:
    """Last nonzero member of the subresultant PRS of f, g (both primitive in var)."""
    n, m = f.degree(var), g.degree(var)
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    minus_one = LaurentPoly.const(MINUS_ONE)
    b = minus_one if d % 2 == 0 else LaurentPoly.one()
    h = pseudo_rem(f, g, var) * b
    _, lc = _lc_in_var(g, var)
    c = lc ** d
    while not h.is_zero():
        k = h.degree(var)
        f, g, m, d = g, h, k, m - k
        b = -(lc * (c ** d))
        h = pseudo_rem(f, g, var)
        h = exact_div(h, b)
        _, lc = _lc_in_var(g, var)
        if d > 1:
            c = exact_div((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return g


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """GCD of ordinary polynomials over Q(zeta12), monic in the lex term order.

    Content/primitive-part recursion with subresultant remainder sequences;
    monomial content is split off first so intermediate objects stay small.
    """
    if f.is_zero():
        return _normalize_monic(g)
    if g.is_zero():
        return _normalize_monic(f)
    fs, fmin = f.shift_nonnegative()
    gs, gmin = g.shift_nonnegative()
    common = tuple(min(a, b) for a, b in zip(fmin, gmin))
    core = _gcd_core(fs, gs)
    if any(common):
        core = core.mul_monomial(common)
    return _normalize_monic(core)


def _gcd_core(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    if f.is_const() or g.is_const():
        return LaurentPoly.one()
    if f.is_monomial() or g.is_monomial():
        mins_f = f.min_exps()
        mins_g = g.min_exps()
        return LaurentPoly.monomial(tuple(min(a, b) for a, b in zip(mins_f, mins_g)))
    if f == g:
        return f
    av_f, av_g = f.active_vars(), g.active_vars()
    both = av_f & av_g
    if not both:
        return LaurentPoly.one()
    var = min(both, key=lambda v: min(f.degree(v), g.degree(v)))
    cf = _content_in_var(f, var)
    cg = _content_in_var(g, var)
    ppf = exact_div(f, cf) if not cf.is_one() else f
    ppg = exact_div(g, cg) if not cg.is_one() else g
    c = _gcd_core(cf, cg)
    h = _subresultant_last(ppf, ppg, var)
    if h.degree(var) == 0:
        return c
    hc = _content_in_var(h, var)
    if not hc.is_one():
        h = exact_div(h, hc)
    return c * h
