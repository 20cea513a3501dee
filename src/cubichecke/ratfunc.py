"""The universal scalar field: rational functions in l1, l2, l3 over Q(zeta12).

Denominators are kept as multisets of monic polynomial factors, the keys of
``fac``; the variables are invertible, so monomial denominators live inside
the numerator as negative exponents.  Cancellation then amounts to
exact-division tests against individual factors, which keeps the
nine-dimensional symbolic assemblies tractable; a full multivariate GCD pass
is reserved for the explicit ``reduce`` normalization.

Two keys need not be coprime: ``reduce`` stores its whole denominator as one
key, such as (l1 - l2)(l1 - l3) beside a key l1 - l2.  Common denominators
built from such keys repeat the shared primes.  Where many products and sums
happen, ``coprime_base`` and ``rebase`` first rewrite the keys over one set of
pairwise coprime cores.

Equality is always semantic (difference has zero numerator), independent of
the representative, and ``reduce`` is idempotent.
"""

from __future__ import annotations

from .cyclotomic import Cyclotomic, ONE
from .laurent import LaurentPoly, exact_div, poly_gcd

# try factor cancellation once a numerator grows past this many terms
_AUTO_CANCEL_SIZE = 120


def _norm_factor(p: LaurentPoly):
    """Split p into (laurent monomial with unit, monic ordinary core).

    Returns (mono_exps, unit_inverse, core) with p = unit * l^mono * core and
    core monic with zero minimum exponents, or core None when p is a monomial.
    """
    shifted, mins = p.shift_nonnegative()
    _, lc = shifted.leading()
    inv = lc if lc.is_one() else lc.inverse()
    if shifted.is_monomial():
        return mins, inv, None
    return mins, inv, shifted.scale(inv)


class RatFunc:
    __slots__ = ("num", "fac", "_den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None, fac: dict | None = None):
        """``den`` may be any nonzero polynomial; it is normalized into factors."""
        self.num = num
        self._den = None
        if fac is not None:
            self.fac = {} if num.is_zero() else fac
            return
        if den is None or den.is_one():
            self.fac = {}
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        mins, unit_inv, core = _norm_factor(den)
        num = num.mul_monomial(tuple(-m for m in mins), unit_inv)
        self.num = num
        self.fac = {core: 1} if (core is not None and not num.is_zero()) else {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(LaurentPoly.one())

    @classmethod
    def const(cls, c: Cyclotomic) -> "RatFunc":
        return cls(LaurentPoly.const(c))

    @classmethod
    def var(cls, index: int) -> "RatFunc":
        return cls(LaurentPoly.var(index))

    @classmethod
    def monomial(cls, exps, coeff: Cyclotomic = ONE) -> "RatFunc":
        return cls(LaurentPoly.monomial(exps, coeff))

    @property
    def den(self) -> LaurentPoly:
        """The denominator as one polynomial (product of the stored factors)."""
        if self._den is None:
            out = LaurentPoly.one()
            for f, e in self.fac.items():
                for _ in range(e):
                    out = out * f
            self._den = out
        return self._den

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return self._addsub(other, False)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self._addsub(other, True)

    def _addsub(self, other: "RatFunc", negate: bool) -> "RatFunc":
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return -other if negate else other
        if self.fac == other.fac:
            n = self.num - other.num if negate else self.num + other.num
            return RatFunc(n, fac=dict(self.fac))._auto()
        return rat_sum((self, -other if negate else other))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, fac=dict(self.fac))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc.zero()
        fac = dict(self.fac)
        for f, e in other.fac.items():
            fac[f] = fac.get(f, 0) + e
        return RatFunc(self.num * other.num, fac=fac)._auto()

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        out = RatFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- cancellation and normalization ----------------------------------------------

    def _auto(self) -> "RatFunc":
        if self.fac and len(self.num.terms) > _AUTO_CANCEL_SIZE:
            return self.cancel()
        return self

    def cancel(self) -> "RatFunc":
        """Cancel denominator factors that divide the numerator exactly.

        Opportunistic: division attempts carry a step budget, so a missed
        cancellation only leaves a larger (still correct) representative.
        """
        if not self.fac or self.num.is_zero():
            return RatFunc(self.num) if self.fac else self
        num = self.num
        shifted, mins = num.shift_nonnegative()
        budget = 2 * len(shifted.terms) + 48
        fac = {}
        changed = False
        for f, e in self.fac.items():
            while e > 0:
                try:
                    shifted = exact_div(shifted, f, budget=budget)
                except ValueError:
                    break
                e -= 1
                changed = True
            if e:
                fac[f] = e
        if not changed:
            return self
        return RatFunc(shifted.mul_monomial(mins), fac=fac)

    def reduce(self) -> "RatFunc":
        """Fully reduced, canonically normalized representative.

        Common polynomial factors of numerator and denominator are removed and
        the denominator's leading coefficient in the canonical term order is 1.
        Idempotent.
        """
        r = self.cancel()
        if not r.fac:
            return r
        num, den = r.num, r.den
        nshift, nmin = num.shift_nonnegative()
        g = poly_gcd(nshift, den)
        if not g.is_one():
            nshift = exact_div(nshift, g)
            den = exact_div(den, g)
        return RatFunc(nshift.mul_monomial(nmin), den)

    # -- semantic equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num.is_zero():
            return other.num.is_zero()
        if other.num.is_zero():
            return False
        if self.fac == other.fac:
            return self.num == other.num
        return self._addsub(other, True).num.is_zero()

    # -- maps --------------------------------------------------------------------------

    def eval_point(self, values) -> Cyclotomic:
        d = ONE
        for f, e in self.fac.items():
            v = f.eval_point(values)
            if v.is_zero():
                r = self.reduce()
                dv = r.den.eval_point(values)
                if dv.is_zero():
                    raise ZeroDivisionError("pole at evaluation point")
                return r.num.eval_point(values) / dv
            d = d * (v ** e)
        return self.num.eval_point(values) / d

    def __str__(self):
        if not self.fac:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def rat_sum(items) -> RatFunc:
    """Sum of rational functions over one common denominator.

    The denominator is the factor-wise maximum of the terms' keys, formed
    once, which is much cheaper than folding pairwise additions inside matrix
    products.  It is the least common denominator only when the keys are
    pairwise coprime (see ``rebase``); keys that share a prime give a correct
    but larger one.
    """
    items = [r for r in items if not r.num.is_zero()]
    if not items:
        return RatFunc.zero()
    if len(items) == 1:
        return items[0]
    lcd: dict = {}
    for r in items:
        for f, e in r.fac.items():
            if e > lcd.get(f, 0):
                lcd[f] = e
    total = None
    for r in items:
        num = r.num
        for f, e in lcd.items():
            need = e - r.fac.get(f, 0)
            for _ in range(need):
                num = num * f
        total = num if total is None else total + num
    return RatFunc(total, fac=lcd)._auto()


def _multiplicity(gen: LaurentPoly, p: LaurentPoly) -> tuple[int, LaurentPoly]:
    """(k, p / gen^k) for the largest k with gen^k dividing the nonzero
    ordinary polynomial p."""
    k = 0
    while True:
        try:
            p = exact_div(p, gen)
        except ValueError:
            return k, p
        k += 1


def valuation(f: RatFunc, gen: LaurentPoly) -> int:
    """Order of f along the prime polynomial ``gen``; negative at a pole.

    Computed factor by factor on the stored representative, with no GCD pass;
    that is valid because ``gen`` is prime.  Raises ValueError when f is 0.
    """
    if f.is_zero():
        raise ValueError("the valuation of 0 is infinite")
    order = _multiplicity(gen, f.num.shift_nonnegative()[0])[0]
    for p, e in f.fac.items():
        order -= e * _multiplicity(gen, p)[0]
    return order


def coprime_base(polys) -> list:
    """A gcd-free basis of the monic denominator keys ``polys``: monic,
    pairwise coprime cores, each key a product of powers of them.

    Two members that share a factor g are replaced by g and their quotients
    by g until no two do; each split lowers the sum of the squared degrees,
    so the refinement ends.
    """
    base: list = []
    todo = list(polys)
    while todo:
        p = todo.pop()
        if p.is_const():
            continue
        for k, q in enumerate(base):
            g = poly_gcd(p, q)
            if not g.is_one():
                del base[k]
                todo += [g, exact_div(p, g), exact_div(q, g)]
                break
        else:
            base.append(p)
    return base


def rebase(r: RatFunc, base: list, splits: dict) -> RatFunc:
    """r with each denominator key replaced by its factorization over the
    cores ``base``; the numerator, and so the value, is unchanged.

    ``splits`` keeps each key's factorization (key -> (core, power) pairs)
    for the next call.  A key that is not a product of the cores is an
    internal error, so it raises RuntimeError, not ValueError.
    """
    fac: dict = {}
    for f, e in r.fac.items():
        if f not in splits:
            rest, split = f, []
            for core in base:
                k, rest = _multiplicity(core, rest)
                if k:
                    split.append((core, k))
            if not rest.is_one():
                raise RuntimeError("denominator factor %s does not factor over its coprime base" % f)
            splits[f] = split
        for core, k in splits[f]:
            fac[core] = fac.get(core, 0) + e * k
    return RatFunc(r.num, fac=fac)
