"""Static catalog of module labels, dimensions, central scalars, weights,
restriction rules, prime ideals and the S3 permutation action.

Labels are written ``{det(sigma1)}``: a level-4 module is identified by the
exponent triple of that determinant monomial, plus a cube-root tag for the two
nine-dimensional modules, plus (for the non-generic simple modules) a star or
a split marker.  Every family -- the regular modules at levels 4 and 3, the
Theorem-A ideals, the Table-2 rows (ideal names stored with each level-4 base)
and the Table-3 exceptional modules -- is one base member, or one per theta
tag, and its S3 orbit (``_orbit``), so the whole catalog is S3-equivariant by
construction.

Every catalogued simple module, generic (Table 1) or exceptional (Table 3), is
one ``ModuleSpec``: dimension, central scalar, weights and level-3 restriction,
plus, for an exceptional module, the polynomial whose locus it lives on.

Frozen path-order convention: the level-3 constituents of each level-4 module
are listed in a fixed order per family (recorded in ``_BASE4``), and paths
inside a constituent are ordered by the eigenvalue index of their level-2
label.  All golden matrices depend on this order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .cyclotomic import Cyclotomic, I_UNIT, MINUS_ONE, ONE, THETA, THETA2
from .laurent import LaurentPoly, monomial_name
from .ratfunc import RatFunc
from .specialize import Specialization, Substitution

PERMS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)
def perm_exps(p, exps):
    out = [0, 0, 0]
    for k, e in enumerate(exps):
        out[p[k]] = e
    return tuple(out)


def perm_poly(p, poly: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({perm_exps(p, e): c for e, c in poly.term_items()})


def perm_ratfunc(p, f: RatFunc) -> RatFunc:
    return RatFunc(perm_poly(p, f.num), perm_poly(p, f.den))


@dataclass(frozen=True, order=True)
class ModuleLabel:
    """A simple-module label; see the module docstring for the encoding."""

    level: int
    exps: tuple
    theta: int = 0            # 0 = none, 1 = theta, 2 = theta^2
    star: bool = False
    bar: tuple | None = None  # exponents of the part left of the bar

    @property
    def name(self) -> str:
        if self.bar is not None:
            rest = tuple(a - b for a, b in zip(self.exps, self.bar))
            return "{%s|%s}%s" % (
                _mono_name(self.bar), _mono_name(rest), _theta_suffix(self.theta)
            )
        if self.star:
            return "{%s}*" % _mono_name(self.exps)
        if is_exceptional(self):
            return "{%s}%s" % (_mono_name(self.exps), _theta_suffix(self.theta))
        return _mono_name(self.exps) + _theta_suffix(self.theta)

    def __str__(self):
        return self.name

    __repr__ = __str__


def _theta_suffix(theta: int) -> str:
    return "" if theta == 0 else (":theta" if theta == 1 else ":theta2")


def _mono_name(exps) -> str:
    return monomial_name(exps) or "1"


def _shape(exps):
    return tuple(sorted(exps, reverse=True))


def label4(exps, theta=0) -> ModuleLabel:
    return ModuleLabel(4, tuple(exps), theta)


def label3(exps) -> ModuleLabel:
    return ModuleLabel(3, tuple(exps))


def label2(i) -> ModuleLabel:
    exps = [0, 0, 0]
    exps[i - 1] = 1
    return ModuleLabel(2, tuple(exps))


def perm_label(p, label: ModuleLabel) -> ModuleLabel:
    return ModuleLabel(
        label.level,
        perm_exps(p, label.exps),
        label.theta,
        label.star,
        None if label.bar is None else perm_exps(p, label.bar),
    )


@dataclass(frozen=True)
class Path:
    g2: ModuleLabel
    g3: ModuleLabel
    g4: ModuleLabel

    @property
    def eigen_index(self) -> int:
        """1-based index i with sigma1 acting by l_i along this path."""
        return self.g2.exps.index(1) + 1

    def __str__(self):
        return "(%s->%s->%s)" % (self.g2.name, self.g3.name, self.g4.name)

    __repr__ = __str__


@dataclass(frozen=True)
class ModuleSpec:
    """A catalogued simple module: generic (Table 1), or exceptional (Table 3)
    when it carries a defining polynomial, valid over a locus iff that vanishes."""

    label: ModuleLabel
    dim: int
    delta_sq: RatFunc
    weights: tuple            # ((i, j, multiplicity), ...)
    restriction: tuple        # level-3 labels: the frozen path order, or the K3 content
    defining: LaurentPoly | None = None

    def weight_multiset(self) -> dict:
        return {(i, j): m for (i, j, m) in self.weights}


# -- S3 orbits and the regular modules ----------------------------------------------


def _w(*pairs):
    return tuple((i, j, 1) for (i, j) in pairs)


def _l3(*index_sets):
    return tuple(label3(tuple(int(i in s) for i in (1, 2, 3))) for s in index_sets)


def _orbit(bases, image, key) -> tuple:
    """The images ``image(p, base)`` under PERMS, in PERMS order, keeping the
    first image of each key; the base members are iterated inside each p."""
    seen = {}
    for p in PERMS:
        for base in bases:
            member = image(p, base)
            seen.setdefault(key(member), member)
    return tuple(seen.values())


def _perm_weights(p, weights) -> tuple:
    return tuple((p[i - 1] + 1, p[j - 1] + 1, m) for (i, j, m) in weights)


def _perm_spec(p, spec: ModuleSpec) -> ModuleSpec:
    return ModuleSpec(
        perm_label(p, spec.label),
        spec.dim,
        perm_ratfunc(p, spec.delta_sq),
        _perm_weights(p, spec.weights),
        tuple(perm_label(p, g3) for g3 in spec.restriction),
        None if spec.defining is None else perm_poly(p, spec.defining),
    )


# each level-4 base with its Table-2 row, as ideal names for the base member
_BASE4 = (
    # nine-dimensional, theta tag 1 and 2
    *(
        (
            ModuleSpec(
                label=label4((3, 3, 3), e),
                dim=9,
                delta_sq=RatFunc.monomial((4, 4, 4), theta),
                weights=_w(*[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]),
                restriction=_l3({1, 2}, {1, 3}, {1, 2, 3}, {2, 3}),
            ),
            (
                "l1+theta*l2", "l2+theta*l1", "l1+theta*l3", "l3+theta*l1",
                "l2+theta*l3", "l3+theta*l2",
                "l1^2-%s*l2*l3" % name, "l2^2-%s*l1*l3" % name, "l3^2-%s*l1*l2" % name,
            ),
        )
        for e, theta, name in ((1, THETA, "theta"), (2, THETA2, "theta^2"))
    ),
    (
        ModuleSpec(
            label=label4((4, 2, 2)),
            dim=8,
            delta_sq=RatFunc.monomial((6, 3, 3)),
            weights=((1, 1, 2),) + _w((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)),
            restriction=_l3({1}, {1, 2}, {1, 2, 3}, {1, 3}),
        ),
        ("l2^3-l1^2*l3", "l3^3-l1^2*l2", "l1^2-theta*l2*l3", "l1^2-theta^2*l2*l3"),
    ),
    (
        ModuleSpec(
            label=label4((3, 2, 1)),
            dim=6,
            delta_sq=RatFunc.monomial((6, 4, 2)),
            weights=_w((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)),
            restriction=_l3({1, 2, 3}, {1, 2}, {1}),
        ),
        ("l1+l3", "l2+l3", "l2^2+l1*l3", "l1^3-l2^2*l3"),
    ),
    (
        ModuleSpec(
            label=label4((1, 1, 1)),
            dim=3,
            delta_sq=RatFunc.monomial((4, 4, 4)),
            weights=_w((1, 1), (2, 2), (3, 3)),
            restriction=_l3({1, 2, 3}),
        ),
        ("l1^2+l2*l3", "l2^2+l1*l3", "l3^2+l1*l2"),
    ),
    (
        ModuleSpec(
            label=label4((2, 1, 0)),
            dim=3,
            delta_sq=RatFunc.monomial((8, 4, 0)),
            weights=_w((1, 1), (1, 2), (2, 1)),
            restriction=_l3({1, 2}, {1}),
        ),
        ("l1+i*l2", "l2+i*l1"),
    ),
    (
        ModuleSpec(
            label=label4((1, 1, 0)),
            dim=2,
            delta_sq=RatFunc.monomial((6, 6, 0)),
            weights=_w((1, 1), (2, 2)),
            restriction=_l3({1, 2}),
        ),
        ("l1+theta*l2", "l2+theta*l1"),
    ),
    (
        ModuleSpec(
            label=label4((1, 0, 0)),
            dim=1,
            delta_sq=RatFunc.monomial((12, 0, 0)),
            weights=_w((1, 1)),
            restriction=_l3({1}),
        ),
        (),
    ),
)

_BASE3 = (
    ModuleSpec(
        label=label3((1, 1, 1)),
        dim=3,
        delta_sq=RatFunc.monomial((2, 2, 2)),
        weights=_w((1, 1), (2, 2), (3, 3)),
        restriction=_l3({1}, {2}, {3}),
    ),
    ModuleSpec(
        label=label3((1, 1, 0)),
        dim=2,
        delta_sq=RatFunc.monomial((3, 3, 0), MINUS_ONE),
        weights=_w((1, 1), (2, 2)),
        restriction=_l3({1}, {2}),
    ),
    ModuleSpec(
        label=label3((1, 0, 0)),
        dim=1,
        delta_sq=RatFunc.monomial((6, 0, 0)),
        weights=_w((1, 1)),
        restriction=_l3({1}),
    ),
)


def _families(bases, image) -> tuple:
    """The S3 orbit of each family, a run of base members of one shape, in turn."""
    return tuple(
        spec
        for _, family in groupby(bases, key=lambda s: _shape(s.label.exps))
        for spec in _orbit(tuple(family), image, lambda s: s.label)
    )


@lru_cache(maxsize=None)
def catalog_regular(level: int) -> tuple:
    """All regular-module specs at the given level (24 at level 4, 7 at level 3)."""
    if level == 4:
        return _families((spec for spec, _row in _BASE4), _perm_spec)
    if level == 3:
        return _families(_BASE3, _perm_spec)
    raise ValueError("catalog_regular is defined for levels 3 and 4")


def _find(specs, label: ModuleLabel, kind: str) -> ModuleSpec:
    for spec in specs:
        if spec.label == label:
            return spec
    raise KeyError("unknown %s label %s" % (kind, label))


@lru_cache(maxsize=None)
def spec_for(label: ModuleLabel) -> ModuleSpec:
    return _find(catalog_regular(label.level), label, "regular")


def delta_scalar(label: ModuleLabel) -> RatFunc:
    """The scalar by which the square of the level's half-twist acts."""
    if label.level == 2:
        return RatFunc.monomial(tuple(2 * e for e in label.exps))
    if label.level in (3, 4):
        return module_spec(label).delta_sq
    raise ValueError("no delta scalar at level %d" % label.level)


def enumerate_paths(g4: ModuleLabel) -> tuple:
    """All paths of the module in the frozen deterministic order."""
    spec = spec_for(g4)
    out = []
    for g3 in spec.restriction:
        for i in (1, 2, 3):
            if g3.exps[i - 1]:
                out.append(Path(label2(i), g3, g4))
    return tuple(out)


# -- prime ideals (Theorem A families) --------------------------------------------


@dataclass(frozen=True)
class PrimeIdealSpec:
    family: str
    name: str
    generator: LaurentPoly
    param: Specialization | None   # None only for the excluded li - lj family

    def __str__(self):
        return self.name

    __repr__ = __str__


def _v(i):
    return LaurentPoly.var(i - 1)


def _mono(coeff: Cyclotomic, exps) -> LaurentPoly:
    return LaurentPoly.monomial(tuple(exps), coeff)


# one (name, generator) base member per family; sq_theta has one per power of theta
_IDEAL_BASES = (
    ("diff", (("l1-l2", _v(1) - _v(2)),)),
    ("sum", (("l1+l2", _v(1) + _v(2)),)),
    ("theta_sum", (("l1+theta*l2", _v(1) + _v(2).scale(THETA)),)),
    ("i_sum", (("l1+i*l2", _v(1) + _v(2).scale(I_UNIT)),)),
    ("sq_plus", (("l1^2+l2*l3", _mono(ONE, (2, 0, 0)) + _mono(ONE, (0, 1, 1))),)),
    (
        "sq_theta",
        (
            ("l1^2-theta*l2*l3", _mono(ONE, (2, 0, 0)) - _mono(THETA, (0, 1, 1))),
            ("l1^2-theta^2*l2*l3", _mono(ONE, (2, 0, 0)) - _mono(THETA2, (0, 1, 1))),
        ),
    ),
    ("cubic", (("l1^3-l2^2*l3", _mono(ONE, (3, 0, 0)) - _mono(ONE, (0, 2, 1))),)),
)


def _perm_name(p, name: str) -> str:
    return re.sub(r"l([123])", lambda m: "l%d" % (p[int(m.group(1)) - 1] + 1), name)


def parametrize(gen: LaurentPoly) -> Specialization:
    """Solve the binomial ``gen`` for its highest-indexed variable that occurs
    linearly: c*l_v*m + c'*m' = 0 gives l_v := -(c'/c) * m'/m."""
    terms = list(gen.term_items())
    for v in (2, 1, 0):
        for (e, c), (e_other, c_other) in (terms, terms[::-1]):
            if e[v] == 1 and e_other[v] == 0:
                exps = tuple(0 if k == v else e_other[k] - e[k] for k in range(3))
                sub = Substitution(v, -(c_other * c.inverse()), exps)
                return Specialization((sub,), (gen,))
    raise ValueError("%s has no variable to solve for" % gen)


@lru_cache(maxsize=None)
def ideal_catalog() -> tuple:
    """Every Theorem-A polynomial family with all index assignments.

    Each family is the S3 orbit of its base members; an ideal's name is the
    base name with l1, l2, l3 renamed, and ideals whose generators agree up
    to a scalar are one.  The li - lj family is carried for completeness but
    has no parametrization; downstream operations reject it (the eigenvalues
    stay pairwise distinct).  Every other parametrization eliminates the
    highest-indexed variable that occurs linearly in the generator, so the
    image is always a pure rational-function field.
    """

    def image(p, base):
        family, (name, gen) = base
        gen = perm_poly(p, gen)
        param = None if family == "diff" else parametrize(gen)
        return PrimeIdealSpec(family, _perm_name(p, name), gen, param)

    def monic(spec):
        return spec.generator.scale(spec.generator.leading()[1].inverse())

    return tuple(
        spec
        for family, bases in _IDEAL_BASES
        for spec in _orbit(tuple((family, b) for b in bases), image, monic)
    )


@lru_cache(maxsize=None)
def ideal_by_name(name: str) -> PrimeIdealSpec:
    for spec in ideal_catalog():
        if spec.name == name:
            return spec
    raise KeyError("unknown ideal %r" % name)


def ideal_for_generator(gen: LaurentPoly) -> PrimeIdealSpec:
    """The catalog entry whose generator equals ``gen`` up to a unit monomial."""
    for spec in ideal_catalog():
        g = spec.generator
        if len(g.terms) != len(gen.terms):
            continue
        # gen == u * g for a monomial u iff gen * lt(g) == g * lt(gen)
        eg, cg = g.leading()
        en, cn = gen.leading()
        if g.mul_monomial(en, cn) == gen.mul_monomial(eg, cg):
            return spec
    raise KeyError("polynomial %s is not in the Theorem-A catalog" % gen)


def perm_ideal(p, spec: PrimeIdealSpec) -> PrimeIdealSpec:
    return ideal_for_generator(perm_poly(p, spec.generator))


@lru_cache(maxsize=None)
def vanishing_for_module(label: ModuleLabel) -> tuple:
    """The Table-2 row of the module: ideals where it fails to be semisimple.
    A level-3 module has the row of the level-4 module with its exponents."""
    g4 = label4(label.exps) if label.level == 3 else label
    for base, row in _BASE4:
        for p in PERMS:
            if perm_label(p, base.label) == g4:
                return tuple(perm_ideal(p, ideal_by_name(name)) for name in row)
    raise KeyError("unknown regular label %s" % label)


# -- exceptional simple modules (Table 3) -------------------------------------------


# the base members; the 7-dim family has one per theta tag
_BASE_EXCEPTIONAL = (
    ModuleSpec(
        label=ModuleLabel(4, (1, 1, 0), star=True),
        dim=2,
        delta_sq=RatFunc.monomial((6, 6, 0), MINUS_ONE),
        weights=_w((1, 2), (2, 1)),
        restriction=(label3((1, 1, 0)),),
        defining=_mono(ONE, (2, 0, 0)) + _mono(ONE, (0, 2, 0)),
    ),
    ModuleSpec(
        label=ModuleLabel(4, (1, 1, 1), bar=(1, 0, 0)),
        dim=3,
        delta_sq=RatFunc.monomial((4, 4, 4)),
        weights=_w((1, 1), (2, 3), (3, 2)),
        restriction=(label3((1, 1, 1)),),
        defining=_v(2) + _v(3),
    ),
    ModuleSpec(
        label=ModuleLabel(4, (2, 1, 1)),
        dim=4,
        delta_sq=RatFunc.monomial((6, 3, 3), MINUS_ONE),
        weights=_w((1, 2), (2, 1), (1, 3), (3, 1)),
        restriction=(label3((1, 1, 1)), label3((1, 0, 0))),
        defining=_v(2) + _v(3),
    ),
    ModuleSpec(
        label=ModuleLabel(4, (2, 2, 1), bar=(2, 0, 0)),
        dim=5,
        delta_sq=RatFunc.monomial((4, 6, 2)),
        weights=_w((1, 1), (2, 1), (1, 2), (2, 3), (3, 2)),
        restriction=(label3((1, 1, 1)), label3((1, 1, 0))),
        defining=_mono(ONE, (0, 3, 0)) - _mono(ONE, (2, 0, 1)),
    ),
    *(
        ModuleSpec(
            label=ModuleLabel(4, (3, 2, 2), theta=e),
            dim=7,
            delta_sq=RatFunc.monomial((4, 4, 4), theta),
            weights=_w((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)),
            restriction=(label3((1, 1, 1)), label3((1, 1, 0)), label3((1, 0, 1))),
            defining=_mono(ONE, (2, 0, 0)) - _mono(theta, (0, 1, 1)),
        )
        for e, theta in ((1, THETA), (2, THETA2))
    ),
)


@lru_cache(maxsize=None)
def exceptional_catalog() -> tuple:
    return _families(_BASE_EXCEPTIONAL, _perm_spec)


@lru_cache(maxsize=None)
def exceptional_spec(label: ModuleLabel) -> ModuleSpec:
    return _find(exceptional_catalog(), label, "exceptional")


def is_exceptional(label: ModuleLabel) -> bool:
    # the 7-dim {li^3 lj^2 lk^2} and 4-dim {li^2 lj lk} are not Table-1 shapes
    return label.star or label.bar is not None or (
        label.level == 4 and _shape(label.exps) in ((3, 2, 2), (2, 1, 1))
    )


def module_spec(label: ModuleLabel) -> ModuleSpec:
    """The catalog entry of a level-3 or level-4 label, exceptional or regular."""
    return exceptional_spec(label) if is_exceptional(label) else spec_for(label)
