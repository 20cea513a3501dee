"""Specializations: passage to the vanishing locus of a prime ideal.

A :class:`Specialization` is an ordered, triangular list of substitutions
``l_k := c * l_i^a * l_j^b``; applying it in order is a ring homomorphism
whose kernel contains the originating ideal generators.  It realizes the
quotient field of the coordinate ring modulo the ideal as a rational function
field in the surviving variables.

:class:`BinomialLocus` covers the double loci whose residue field needs a
square root that Q(zeta12) does not contain: a prime binomial on a base
specialization, supporting exact vanishing tests only, never matrix assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .errors import PoleOnLocus
from .laurent import LaurentPoly, divides, monomial_name
from .matrix import Matrix
from .ratfunc import RatFunc


@dataclass(frozen=True)
class Substitution:
    var: int                 # variable being eliminated
    coeff: Cyclotomic        # nonzero
    exps: tuple              # monomial in the other variables (exps[var] == 0)

    def __str__(self):
        names = ("l1", "l2", "l3")
        mono = monomial_name(self.exps)
        c = str(self.coeff)
        if not mono:
            return "%s := %s" % (names[self.var], c)
        if self.coeff.is_one():
            return "%s := %s" % (names[self.var], mono)
        return "%s := (%s)*%s" % (names[self.var], c, mono)


class Specialization:
    """Ordered triangular substitutions plus the ideal generators they kill."""

    def __init__(self, subs: tuple[Substitution, ...], generators: tuple[LaurentPoly, ...]):
        self.subs = tuple(subs)
        self.generators = tuple(generators)
        self._check()

    def _check(self):
        eliminated: list[int] = []
        for s in self.subs:
            if s.coeff.is_zero():
                raise ValueError("zero coefficient in substitution")
            if s.exps[s.var] != 0:
                raise ValueError("substitution uses its own variable")
            eliminated.append(s.var)
        for pos, s in enumerate(self.subs):
            for later in self.subs[pos + 1 :]:
                if later.exps[s.var] != 0:
                    raise ValueError("substitutions are not triangular")
        if len(set(eliminated)) != len(eliminated):
            raise ValueError("variable eliminated twice")
        self.eliminated = tuple(eliminated)
        for g in self.generators:
            if not self.apply_poly(g).is_zero():
                raise ValueError("specialization does not kill generator %s" % g)

    def apply_poly(self, p: LaurentPoly) -> LaurentPoly:
        for s in self.subs:
            p = p.substitute(s.var, s.coeff, s.exps)
        return p

    def apply_ratfunc(self, f: RatFunc) -> RatFunc:
        fac: dict[LaurentPoly, int] = {}
        dead = False
        for fact, e in f.fac.items():
            img = self.apply_poly(fact)
            if img.is_zero():
                dead = True
                break
            fac[img] = fac.get(img, 0) + e
        if not dead:
            out = RatFunc(self.apply_poly(f.num))
            for img, e in fac.items():
                out = out * RatFunc(LaurentPoly.one(), img) ** e
            return out
        # a denominator factor contains the locus: cancel via full reduction
        r = f.reduce()
        den = self.apply_poly(r.den)
        if den.is_zero():
            raise PoleOnLocus(f)
        return RatFunc(self.apply_poly(r.num), den)

    def apply_matrix(self, m):
        return Matrix([[self.apply_ratfunc(a) for a in row] for row in m.entries])

    def vanishes(self, p: LaurentPoly) -> bool:
        return self.apply_poly(p).is_zero()

    def free_vars(self) -> tuple[int, ...]:
        return tuple(v for v in range(3) if v not in self.eliminated)

    def compose_sub(self, sub: Substitution, extra_gens: tuple[LaurentPoly, ...]) -> "Specialization":
        """Append one more substitution (applied after the existing ones)."""
        return Specialization(self.subs + (sub,), self.generators + extra_gens)

    def point(self, values: dict[int, Cyclotomic]) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
        """A point on the locus from nonzero values for the free variables."""
        vals: dict[int, Cyclotomic] = dict(values)
        for s in reversed(self.subs):
            acc = s.coeff
            for k, e in enumerate(s.exps):
                if e:
                    acc = acc * (vals[k] ** e)
            vals[s.var] = acc
        return (vals[0], vals[1], vals[2])

    def random_point(self, rng) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
        """A random rational point on the locus with pairwise distinct coordinates."""
        for _ in range(200):
            values = {
                v: Cyclotomic.from_rational(Fraction(rng.randint(2, 400), rng.randint(1, 7)))
                for v in self.free_vars()
            }
            pt = self.point(values)
            if not any(pt[a] == pt[b] for a in range(3) for b in range(a + 1, 3)):
                return pt
        raise RuntimeError("could not sample a point with distinct eigenvalues")

    def __str__(self):
        return "{" + "; ".join(str(s) for s in self.subs) + "}"

    __repr__ = __str__

    def __eq__(self, other):
        return (
            isinstance(other, Specialization)
            and self.subs == other.subs
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash(self.subs)


@dataclass(frozen=True)
class BinomialLocus:
    """One branch ``factor = 0`` of a base locus, where ``factor = l_x^2 - w*l_y^2``
    in the two free variables of ``base`` is irreducible over Q(zeta12).

    Irreducibility means w is not a square in Q(zeta12), so the residue field
    needs sqrt(w); the binomial is then prime, and Galois conjugation
    sqrt(w) -> -sqrt(w) swaps its two root branches l_x = +-sqrt(w)*l_y.  A
    polynomial therefore vanishes on one branch exactly when it vanishes on
    both, that is when the binomial divides its image on the base locus.
    Only vanishing tests are supported, never matrix assembly.
    """

    base: Specialization
    factor: LaurentPoly

    def vanishes(self, p: LaurentPoly) -> bool:
        img = self.base.apply_poly(p)
        return img.is_zero() or divides(self.factor, img.shift_nonnegative()[0])
