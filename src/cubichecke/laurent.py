"""Sparse Laurent polynomials over Q(zeta12) with exact GCD support.

Terms are kept in a dict mapping integer exponent tuples to nonzero
:class:`~cubichecke.cyclotomic.Cyclotomic` coefficients.  Exponents may be
negative (the eigenvalue variables are invertible); everything that needs
ordinary polynomials (division, GCD) first strips the monomial content.

The canonical term order used for leading terms, normalization and
serialization is lexicographic on exponent tuples.
"""

from __future__ import annotations

from .cyclotomic import Cyclotomic, ONE, ZERO

_NAMES = ("l1", "l2", "l3")


def monomial_name(exps) -> str:
    """l1^a*l2^b*l3^c with exponent 1 left bare and exponent 0 left out; ""
    for the constant monomial."""
    return "*".join(
        _NAMES[k] if e == 1 else "%s^%d" % (_NAMES[k], e) for k, e in enumerate(exps) if e
    )


class LaurentPoly:
    """A Laurent polynomial in l1, l2, l3 over Q(zeta12)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def const(cls, coeff: Cyclotomic) -> "LaurentPoly":
        if coeff.is_zero():
            return cls({})
        return cls({(0, 0, 0): coeff})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0, 0): ONE})

    @classmethod
    def var(cls, index: int) -> "LaurentPoly":
        exps = [0, 0, 0]
        exps[index] = 1
        return cls({tuple(exps): ONE})

    @classmethod
    def monomial(cls, exps, coeff: Cyclotomic = ONE) -> "LaurentPoly":
        if coeff.is_zero():
            return cls({})
        return cls({tuple(exps): coeff})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return not any(e) and c.is_one()

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def const_value(self) -> Cyclotomic:
        if self.is_zero():
            return ZERO
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError("not a constant: %s" % self)
        return c

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = -c
            else:
                s = cur - c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly({})
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if not any(ea):
                for eb, cb in b.items():
                    p = ca * cb
                    if not p.is_zero():
                        out[eb] = p
                return LaurentPoly(out)
            a0, a1, a2 = ea
            for (b0, b1, b2), cb in b.items():
                p = ca * cb
                if not p.is_zero():
                    out[(a0 + b0, a1 + b1, a2 + b2)] = p
            return LaurentPoly(out)
        get = out.get
        for (a0, a1, a2), ca in a.items():
            for (b0, b1, b2), cb in b.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                p = ca * cb
                cur = get(e)
                if cur is None:
                    if not p.is_zero():
                        out[e] = p
                else:
                    s = cur + p
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return LaurentPoly(out)

    def scale(self, coeff: Cyclotomic) -> "LaurentPoly":
        if coeff.is_zero():
            return LaurentPoly({})
        if coeff.is_one():
            return self
        return LaurentPoly({e: c * coeff for e, c in self.terms.items()})

    def mul_monomial(self, exps, coeff: Cyclotomic = ONE) -> "LaurentPoly":
        x0, x1, x2 = exps
        if not (x0 or x1 or x2):
            return self.scale(coeff)
        out = {}
        for (e0, e1, e2), c in self.terms.items():
            p = c * coeff
            if not p.is_zero():
                out[(e0 + x0, e1 + x1, e2 + x2)] = p
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            ((e, c),) = self.terms.items()
            return LaurentPoly.monomial(tuple(-x for x in e), c.inverse()) ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure helpers -------------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending canonical (lex) order; the last one is leading."""
        return sorted(self.terms.items())

    def leading(self):
        """(exponents, coefficient) of the lex-largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def min_exps(self):
        its = iter(self.terms)
        first = next(its)
        mins = list(first)
        for e in its:
            for k, x in enumerate(e):
                if x < mins[k]:
                    mins[k] = x
        return tuple(mins)

    def degree(self, var: int) -> int:
        return max(e[var] for e in self.terms)

    def active_vars(self):
        """Indices of variables occurring with nonzero exponent."""
        seen = set()
        for e in self.terms:
            for k, x in enumerate(e):
                if x:
                    seen.add(k)
        return seen

    def shift_nonnegative(self) -> tuple["LaurentPoly", tuple]:
        """Strip monomial content: self = l^shift * ordinary, ordinary min exps 0."""
        if self.is_zero():
            return self, (0, 0, 0)
        mins = self.min_exps()
        if not any(mins):
            return self, mins
        neg = tuple(-m for m in mins)
        return self.mul_monomial(neg), mins

    # -- substitution and evaluation -------------------------------------------------

    def substitute(self, var: int, coeff: Cyclotomic, exps) -> "LaurentPoly":
        """Replace variable ``var`` by ``coeff * l^exps`` (exps[var] must be 0)."""
        exps = tuple(exps)
        out: dict = {}
        cache: dict[int, Cyclotomic] = {0: ONE}
        for e, c in self.terms.items():
            m = e[var]
            if m not in cache:
                cache[m] = coeff ** m
            newc = c * cache[m]
            if newc.is_zero():
                continue
            newe = tuple(
                (0 if k == var else x) + m * exps[k] for k, x in enumerate(e)
            )
            cur = out.get(newe)
            if cur is None:
                out[newe] = newc
            else:
                s = cur + newc
                if s.is_zero():
                    del out[newe]
                else:
                    out[newe] = s
        return LaurentPoly(out)

    def eval_point(self, values) -> Cyclotomic:
        """Evaluate at a tuple of Cyclotomic values (nonzero where exponents are negative)."""
        total = ZERO
        for e, c in self.terms.items():
            acc = ONE
            for v, x in zip(values, e):
                if x:
                    acc = acc * (v ** x)
            total = total + c * acc
        return total

    # -- rendering ------------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
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


# -- exact division and GCD machinery ------------------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly, budget: int | None = None) -> LaurentPoly:
    """Exact quotient f / g; raises ValueError when the division is not exact.

    Both inputs are treated as ordinary polynomials (no negative exponents).
    ``budget`` caps the number of quotient terms; exceeding it raises
    ValueError, which callers using division only as an opportunistic
    cancellation treat as "not divisible".
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return LaurentPoly.zero()
    if g.is_monomial():
        (((g0, g1, g2), cg),) = g.terms.items()
        inv = cg.inverse()
        out = {}
        for (e0, e1, e2), c in f.terms.items():
            q0, q1, q2 = e0 - g0, e1 - g1, e2 - g2
            if q0 < 0 or q1 < 0 or q2 < 0:
                raise ValueError("inexact division")
            out[(q0, q1, q2)] = c * inv
        return LaurentPoly(out)
    # cheap rejections: the leading and trailing monomials of an exact product
    # are products of the factors' leading and trailing monomials
    if any(x < y for x, y in zip(min(f.terms), min(g.terms))):
        raise ValueError("inexact division")
    rem = dict(f.terms)
    eg, cg = g.leading()
    g0, g1, g2 = eg
    gitems = [(e, c) for e, c in g.terms.items() if e != eg]
    inv = cg.inverse()
    qterms: dict = {}
    steps = 0
    while rem:
        e = max(rem)
        q0, q1, q2 = e[0] - g0, e[1] - g1, e[2] - g2
        if q0 < 0 or q1 < 0 or q2 < 0:
            raise ValueError("inexact division")
        steps += 1
        if budget is not None and steps > budget:
            raise ValueError("division budget exceeded")
        qc = rem.pop(e) * inv
        qterms[(q0, q1, q2)] = qc
        for (h0, h1, h2), gc in gitems:
            key = (q0 + h0, q1 + h1, q2 + h2)
            cur = rem.get(key)
            v = qc * gc
            if cur is None:
                rem[key] = -v
            else:
                s = cur - v
                if s.is_zero():
                    del rem[key]
                else:
                    rem[key] = s
    return LaurentPoly(qterms)


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ValueError:
        return False


def _coeffs_in_var(f: LaurentPoly, var: int) -> dict[int, LaurentPoly]:
    """View f as a polynomial in ``var``: degree -> coefficient poly (var-free)."""
    out: dict[int, LaurentPoly] = {}
    for e, c in f.terms.items():
        d = e[var]
        key = tuple(0 if k == var else x for k, x in enumerate(e))
        cur = out.get(d)
        if cur is None:
            out[d] = LaurentPoly({key: c})
        else:
            cur.terms[key] = c
    return out


def _lc_in_var(f: LaurentPoly, var: int):
    coeffs = _coeffs_in_var(f, var)
    d = max(coeffs)
    return d, coeffs[d]


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
    minus_one = LaurentPoly.const(Cyclotomic(-1))
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
    if f.terms == g.terms:
        return f
    av_f, av_g = f.active_vars(), g.active_vars()
    both = av_f & av_g
    if not both:
        return LaurentPoly.one()
    var = min(both, key=lambda v: min(f.degree(v), g.degree(v)))
    if f.degree(var) == 0:
        return _gcd_core(f, _content_in_var(g, var))
    if g.degree(var) == 0:
        return _gcd_core(_content_in_var(f, var), g)
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
