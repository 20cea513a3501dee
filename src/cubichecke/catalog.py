"""Static catalog of module labels, dimensions, central scalars, weights,
restriction rules, prime ideals and the S3 permutation action.

Labels are written ``{det(sigma1)}``: a level-4 module is identified by the
exponent triple of that determinant monomial, plus a cube-root tag for the two
nine-dimensional modules, plus (for the non-generic simple modules) a star or
a split marker.  All data for permuted instances is generated from one base
family per shape, so the catalog is S3-equivariant by construction.

Frozen path-order convention: the level-3 constituents of each level-4 module
are listed in a fixed order per family (recorded in ``_BASE4``), and paths
inside a constituent are ordered by the eigenvalue index of their level-2
label.  All golden matrices depend on this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import Cyclotomic, ONE, theta_power
from .laurent import LaurentPoly
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
    return LaurentPoly({perm_exps(p, e): c for e, c in poly.terms.items()})


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
    names = ("l1", "l2", "l3")
    parts = [
        names[k] if e == 1 else "%s^%d" % (names[k], e) for k, e in enumerate(exps) if e
    ]
    return "*".join(parts) if parts else "1"


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
class RegularModuleSpec:
    label: ModuleLabel
    dim: int
    delta_sq: RatFunc
    weights: tuple            # ((i, j, multiplicity), ...)
    restriction: tuple        # ordered lower-level labels (the frozen path order)

    def weight_multiset(self) -> dict:
        return {(i, j): m for (i, j, m) in self.weights}


# -- base level-4 families -------------------------------------------------------
# (exps, theta) -> dim, delta_sq monomial (coeff, exps), weights, restriction order

def _w(*pairs):
    return tuple((i, j, 1) for (i, j) in pairs)


def _l3(*index_sets):
    out = []
    for s in index_sets:
        exps = [0, 0, 0]
        for i in s:
            exps[i - 1] = 1
        out.append(label3(tuple(exps)))
    return tuple(out)


_BASE4 = [
    # nine-dimensional, theta tag 1 and 2
    dict(
        exps=(3, 3, 3),
        theta=1,
        dim=9,
        delta=(1, (4, 4, 4)),  # theta^1 * l1^4 l2^4 l3^4
        weights=_w(*[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]),
        restriction=_l3({1, 2}, {1, 3}, {1, 2, 3}, {2, 3}),
    ),
    dict(
        exps=(3, 3, 3),
        theta=2,
        dim=9,
        delta=(2, (4, 4, 4)),
        weights=_w(*[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]),
        restriction=_l3({1, 2}, {1, 3}, {1, 2, 3}, {2, 3}),
    ),
    dict(
        exps=(4, 2, 2),
        theta=0,
        dim=8,
        delta=(0, (6, 3, 3)),
        weights=((1, 1, 2),) + _w((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)),
        restriction=_l3({1}, {1, 2}, {1, 2, 3}, {1, 3}),
    ),
    dict(
        exps=(3, 2, 1),
        theta=0,
        dim=6,
        delta=(0, (6, 4, 2)),
        weights=_w((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)),
        restriction=_l3({1, 2, 3}, {1, 2}, {1}),
    ),
    dict(
        exps=(1, 1, 1),
        theta=0,
        dim=3,
        delta=(0, (4, 4, 4)),
        weights=_w((1, 1), (2, 2), (3, 3)),
        restriction=_l3({1, 2, 3}),
    ),
    dict(
        exps=(2, 1, 0),
        theta=0,
        dim=3,
        delta=(0, (8, 4, 0)),
        weights=_w((1, 1), (1, 2), (2, 1)),
        restriction=_l3({1, 2}, {1}),
    ),
    dict(
        exps=(1, 1, 0),
        theta=0,
        dim=2,
        delta=(0, (6, 6, 0)),
        weights=_w((1, 1), (2, 2)),
        restriction=_l3({1, 2}),
    ),
    dict(
        exps=(1, 0, 0),
        theta=0,
        dim=1,
        delta=(0, (12, 0, 0)),
        weights=_w((1, 1)),
        restriction=_l3({1}),
    ),
]


def _mono_ratfunc(coeff_theta_power: int, exps) -> RatFunc:
    return RatFunc.monomial(tuple(exps), theta_power(coeff_theta_power))


def _instance4(base: dict, p) -> RegularModuleSpec:
    lbl = ModuleLabel(4, perm_exps(p, base["exps"]), base["theta"])
    coeff_pow, dexps = base["delta"]
    delta = _mono_ratfunc(coeff_pow, perm_exps(p, dexps))
    weights = tuple(
        (p[i - 1] + 1, p[j - 1] + 1, m) for (i, j, m) in base["weights"]
    )
    restriction = tuple(perm_label(p, g3) for g3 in base["restriction"])
    return RegularModuleSpec(lbl, base["dim"], delta, weights, restriction)


@lru_cache(maxsize=None)
def catalog_regular(level: int) -> tuple:
    """All regular-module specs at the given level (24 at level 4, 7 at level 3)."""
    if level == 4:
        seen = {}
        for base in _BASE4:
            for p in PERMS:
                spec = _instance4(base, p)
                if spec.label not in seen:
                    seen[spec.label] = spec
        return tuple(seen.values())
    if level == 3:
        out = []
        for exps, dim in (((1, 1, 1), 3),):
            out.append(
                RegularModuleSpec(
                    label3(exps), dim, delta_scalar(label3(exps)),
                    _w((1, 1), (2, 2), (3, 3)),
                    _l3({1}, {2}, {3}),
                )
            )
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            exps = [0, 0, 0]
            exps[i - 1] = exps[j - 1] = 1
            lbl = label3(tuple(exps))
            out.append(
                RegularModuleSpec(
                    lbl, 2, delta_scalar(lbl), _w((i, i), (j, j)), _l3({i}, {j})
                )
            )
        for i in (1, 2, 3):
            lbl = label3(tuple(1 if k == i - 1 else 0 for k in range(3)))
            out.append(
                RegularModuleSpec(lbl, 1, delta_scalar(lbl), _w((i, i)), _l3({i}))
            )
        return tuple(out)
    raise ValueError("catalog_regular is defined for levels 3 and 4")


@lru_cache(maxsize=None)
def spec_for(label: ModuleLabel) -> RegularModuleSpec:
    for spec in catalog_regular(label.level):
        if spec.label == label:
            return spec
    raise KeyError("unknown regular label %s" % label)


def delta_scalar(label: ModuleLabel) -> RatFunc:
    """The scalar by which the square of the level's half-twist acts."""
    if label.level == 2:
        return RatFunc.monomial(tuple(2 * e for e in label.exps))
    if label.level == 3:
        n = sum(label.exps)
        if n == 1:
            return RatFunc.monomial(tuple(6 * e for e in label.exps))
        if n == 2:
            return RatFunc.monomial(
                tuple(3 * e for e in label.exps), Cyclotomic.from_rational(-1)
            )
        return RatFunc.monomial((2, 2, 2))
    if label.level == 4:
        return _spec(label).delta_sq
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
    indices: tuple
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


def _exps_one(*indices):
    out = [0, 0, 0]
    for i in indices:
        out[i - 1] += 1
    return tuple(out)


def _sub(var_1b, coeff, exps) -> Substitution:
    return Substitution(var_1b - 1, coeff, tuple(exps))


def _ideal(family, indices, name, generator, sub) -> PrimeIdealSpec:
    param = None
    if sub is not None:
        param = Specialization((sub,), (generator,))
    return PrimeIdealSpec(family, indices, name, generator, param)


@lru_cache(maxsize=None)
def ideal_catalog() -> tuple:
    """Every Theorem-A polynomial family with all index assignments.

    The li - lj family is carried for completeness but has no parametrization;
    downstream operations reject it (the eigenvalues stay pairwise distinct).
    Parametrizations eliminate the highest-indexed variable that occurs
    linearly, so the image is always a pure rational-function field.
    """
    out = []
    theta = theta_power(1)
    theta2 = theta_power(2)
    i_unit = Cyclotomic(0, 0, 0, 1)
    minus = Cyclotomic.from_rational(-1)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        out.append(
            _ideal("diff", (i, j), "l%d-l%d" % (i, j), _v(i) - _v(j), None)
        )
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        out.append(
            _ideal(
                "sum", (i, j), "l%d+l%d" % (i, j), _v(i) + _v(j),
                _sub(j, minus, _exps_one(i)),
            )
        )
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            gen = _v(i) + _v(j).scale(theta)
            hi, lo = max(i, j), min(i, j)
            coeff = -theta2 if hi == j else -theta
            out.append(
                _ideal(
                    "theta_sum", (i, j), "l%d+theta*l%d" % (i, j), gen,
                    _sub(hi, coeff, _exps_one(lo)),
                )
            )
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            gen = _v(i) + _v(j).scale(i_unit)
            hi, lo = max(i, j), min(i, j)
            coeff = i_unit if hi == j else (minus * i_unit)
            out.append(
                _ideal(
                    "i_sum", (i, j), "l%d+i*l%d" % (i, j), gen,
                    _sub(hi, coeff, _exps_one(lo)),
                )
            )
    for i in (1, 2, 3):
        j, k = [x for x in (1, 2, 3) if x != i]
        gen = _mono(ONE, _exps_one(i, i)) + _mono(ONE, _exps_one(j, k))
        exps = [0, 0, 0]
        exps[i - 1] = 2
        exps[j - 1] = -1
        out.append(
            _ideal(
                "sq_plus", (i,), "l%d^2+l%d*l%d" % (i, j, k), gen,
                _sub(k, minus, tuple(exps)),
            )
        )
    for i in (1, 2, 3):
        j, k = [x for x in (1, 2, 3) if x != i]
        for e in (1, 2):
            gen = _mono(ONE, _exps_one(i, i)) - _mono(theta_power(e), _exps_one(j, k))
            exps = [0, 0, 0]
            exps[i - 1] = 2
            exps[j - 1] = -1
            tname = "theta" if e == 1 else "theta^2"
            out.append(
                _ideal(
                    "sq_theta", (i, e), "l%d^2-%s*l%d*l%d" % (i, tname, j, k), gen,
                    _sub(k, theta_power(3 - e), tuple(exps)),
                )
            )
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            k = [x for x in (1, 2, 3) if x not in (i, j)][0]
            gen = _mono(ONE, _exps_one(i, i, i)) - _mono(ONE, _exps_one(j, j, k))
            exps = [0, 0, 0]
            exps[i - 1] = 3
            exps[j - 1] = -2
            out.append(
                _ideal(
                    "cubic", (i, j), "l%d^3-l%d^2*l%d" % (i, j, k), gen,
                    _sub(k, ONE, tuple(exps)),
                )
            )
    return tuple(out)


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
def vanishing_for_module(g4: ModuleLabel) -> tuple:
    """The Table-2 row of the module: ideals where it fails to be semisimple."""
    base, p = _base_and_perm(g4)
    shape = _shape(base["exps"])
    names: list[str] = []
    if shape == (3, 3, 3):
        for (i, j) in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            names.append("l%d+theta*l%d" % (i, j))
        e = base["theta"]
        for i in (1, 2, 3):
            j, k = [x for x in (1, 2, 3) if x != i]
            tname = "theta" if e == 1 else "theta^2"
            names.append("l%d^2-%s*l%d*l%d" % (i, tname, j, k))
        return tuple(ideal_by_name(n) for n in names)
    if shape == (4, 2, 2):
        i1, i2, i3 = (p[0] + 1, p[1] + 1, p[2] + 1)
        lo, hi = min(i2, i3), max(i2, i3)
        out = [
            ideal_for_generator(
                _mono(ONE, _exps_one(i2, i2, i2)) - _mono(ONE, _exps_one(i1, i1, i3))
            ),
            ideal_for_generator(
                _mono(ONE, _exps_one(i3, i3, i3)) - _mono(ONE, _exps_one(i1, i1, i2))
            ),
        ]
        for e in (1, 2):
            out.append(
                ideal_for_generator(
                    _mono(ONE, _exps_one(i1, i1))
                    - _mono(theta_power(e), _exps_one(lo, hi))
                )
            )
        return tuple(out)
    if shape == (3, 2, 1):
        i1, i2, i3 = (p[0] + 1, p[1] + 1, p[2] + 1)
        return (
            ideal_for_generator(_v(i1) + _v(i3)),
            ideal_for_generator(_v(i2) + _v(i3)),
            ideal_for_generator(
                _mono(ONE, _exps_one(i2, i2)) + _mono(ONE, _exps_one(i1, i3))
            ),
            ideal_for_generator(
                _mono(ONE, _exps_one(i1, i1, i1)) - _mono(ONE, _exps_one(i2, i2, i3))
            ),
        )
    if shape == (1, 1, 1):
        return vanishing_for_k3(label3((1, 1, 1)))
    if shape == (2, 1, 0):
        i1 = g4.exps.index(2) + 1
        i2 = g4.exps.index(1) + 1
        return (
            ideal_by_name("l%d+i*l%d" % (i1, i2)),
            ideal_by_name("l%d+i*l%d" % (i2, i1)),
        )
    if shape == (1, 1, 0):
        i1, i2 = [k + 1 for k, e in enumerate(g4.exps) if e]
        return (
            ideal_by_name("l%d+theta*l%d" % (i1, i2)),
            ideal_by_name("l%d+theta*l%d" % (i2, i1)),
        )
    return ()


def _base_and_perm(g4: ModuleLabel):
    for base in _BASE4:
        if base["theta"] != g4.theta:
            continue
        for p in PERMS:
            if perm_exps(p, base["exps"]) == g4.exps:
                return base, p
    raise KeyError("unknown level-4 label %s" % g4)


def vanishing_for_k3(g3: ModuleLabel) -> tuple:
    n = sum(g3.exps)
    if n == 1:
        return ()
    if n == 2:
        i, j = [k + 1 for k, e in enumerate(g3.exps) if e]
        return (ideal_by_name("l%d+theta*l%d" % (i, j)), ideal_by_name("l%d+theta*l%d" % (j, i)))
    return tuple(
        ideal_by_name("l%d^2+l%d*l%d" % (i, *[x for x in (1, 2, 3) if x != i]))
        for i in (1, 2, 3)
    )


# -- exceptional simple modules (Table 3) -------------------------------------------


@dataclass(frozen=True)
class ExceptionalSpec:
    label: ModuleLabel
    dim: int
    delta_sq: RatFunc
    weights: tuple
    k3_content: tuple            # generic level-3 labels, with multiplicity
    defining: LaurentPoly        # valid over a locus iff this vanishes there

    def weight_multiset(self) -> dict:
        return {(i, j): m for (i, j, m) in self.weights}


def _star2(i, j) -> ExceptionalSpec:
    exps = _exps_one(i, j)
    lbl = ModuleLabel(4, exps, star=True)
    delta = RatFunc.monomial(tuple(6 * e for e in exps), Cyclotomic.from_rational(-1))
    defining = _mono(ONE, _exps_one(i, i)) + _mono(ONE, _exps_one(j, j))
    return ExceptionalSpec(
        lbl, 2, delta, _w((i, j), (j, i)), (label3(exps),), defining
    )


def _bar3(i) -> ExceptionalSpec:
    j, k = [x for x in (1, 2, 3) if x != i]
    lbl = ModuleLabel(4, (1, 1, 1), bar=_exps_one(i))
    delta = RatFunc.monomial((4, 4, 4))
    defining = _v(j) + _v(k)
    return ExceptionalSpec(
        lbl, 3, delta, _w((i, i), (j, k), (k, j)), (label3((1, 1, 1)),), defining
    )


def _four(i) -> ExceptionalSpec:
    j, k = [x for x in (1, 2, 3) if x != i]
    exps = tuple(2 if x == i - 1 else 1 for x in range(3))
    lbl = ModuleLabel(4, exps)
    dexps = tuple(6 if x == i - 1 else 3 for x in range(3))
    delta = RatFunc.monomial(dexps, Cyclotomic.from_rational(-1))
    defining = _v(j) + _v(k)
    return ExceptionalSpec(
        lbl, 4, delta, _w((i, j), (j, i), (i, k), (k, i)),
        (label3((1, 1, 1)), label3(_exps_one(i))),
        defining,
    )


def _five(a, b, c) -> ExceptionalSpec:
    exps = [0, 0, 0]
    exps[a - 1] = 2
    exps[b - 1] = 2
    exps[c - 1] = 1
    lbl = ModuleLabel(4, tuple(exps), bar=tuple(2 if x == a - 1 else 0 for x in range(3)))
    dexps = [0, 0, 0]
    dexps[b - 1] = 6
    dexps[a - 1] = 4
    dexps[c - 1] = 2
    delta = RatFunc.monomial(tuple(dexps))
    defining = _mono(ONE, _exps_one(b, b, b)) - _mono(ONE, _exps_one(a, a, c))
    return ExceptionalSpec(
        lbl, 5, delta, _w((a, a), (b, a), (a, b), (b, c), (c, b)),
        (label3((1, 1, 1)), label3(_exps_one(a, b))),
        defining,
    )


def _seven(i, e) -> ExceptionalSpec:
    j, k = [x for x in (1, 2, 3) if x != i]
    exps = tuple(3 if x == i - 1 else 2 for x in range(3))
    lbl = ModuleLabel(4, exps, theta=e)
    delta = RatFunc.monomial((4, 4, 4), theta_power(e))
    defining = _mono(ONE, _exps_one(i, i)) - _mono(theta_power(e), _exps_one(j, k))
    return ExceptionalSpec(
        lbl, 7, delta,
        _w((i, i), (i, j), (j, i), (i, k), (k, i), (j, k), (k, j)),
        (label3((1, 1, 1)), label3(_exps_one(i, j)), label3(_exps_one(i, k))),
        defining,
    )


@lru_cache(maxsize=None)
def exceptional_catalog() -> tuple:
    out = []
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        out.append(_star2(i, j))
    for i in (1, 2, 3):
        out.append(_bar3(i))
    for i in (1, 2, 3):
        out.append(_four(i))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            c = [x for x in (1, 2, 3) if x not in (a, b)][0]
            out.append(_five(a, b, c))
    for i in (1, 2, 3):
        for e in (1, 2):
            out.append(_seven(i, e))
    return tuple(out)


@lru_cache(maxsize=None)
def exceptional_spec(label: ModuleLabel) -> ExceptionalSpec:
    for spec in exceptional_catalog():
        if spec.label == label:
            return spec
    raise KeyError("unknown exceptional label %s" % label)


def is_exceptional(label: ModuleLabel) -> bool:
    # the 7-dim {li^3 lj^2 lk^2} and 4-dim {li^2 lj lk} are not Table-1 shapes
    return label.star or label.bar is not None or (
        label.level == 4 and _shape(label.exps) in ((3, 2, 2), (2, 1, 1))
    )


def _spec(label: ModuleLabel):
    """The catalog entry of a level-3 or level-4 label, exceptional or regular."""
    return exceptional_spec(label) if is_exceptional(label) else spec_for(label)


def module_dim(label: ModuleLabel) -> int:
    if label.level == 2:
        return 1
    return _spec(label).dim


def module_weights(label: ModuleLabel) -> dict:
    return _spec(label).weight_multiset()


def module_k3_content(label: ModuleLabel) -> tuple:
    if is_exceptional(label):
        return exceptional_spec(label).k3_content
    return spec_for(label).restriction
