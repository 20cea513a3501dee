"""Classification engine: semisimplicity, blocks, composition series, census.

The single-ideal machinery assembles a module, at level 3 or 4, over the
ideal's parametrized locus and reads its composition series off the invariant
chain of the generators; factors are identified against the catalog of the
label's level by dimension, central scalar, and weight data.  Assembly is the
only route to a nontrivial series: every Table-2 pair assembles in the row
gauge, and an assembly failure propagates.

``split_on_locus`` reads the simple factors of a module on any locus, one
ideal or a branch of two, at either level, through the cached
``single_ideal_factors``; one loop over it builds every census.  A two-ideal
locus is composed branch by branch and decomposed iteratively, mirroring the
uniqueness key of the catalogued simple modules; a branch whose residue field
needs a square root outside Q(zeta12) is its base locus plus one prime
binomial, tested for vanishing by divisibility (never assembled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .builder import assemble, path_weights
from .catalog import (
    ModuleLabel,
    PrimeIdealSpec,
    catalog_regular,
    delta_scalar,
    exceptional_catalog,
    ideal_catalog,
    module_spec,
    parametrize,
    spec_for,
    vanishing_for_module,
)
from .cyclotomic import ZETA
from .errors import CubicHeckeError, IncompatibleIdeals, UnidentifiedFactor
from .laurent import LaurentPoly, exact_div
from .matrix import Matrix, components
from .ratfunc import RatFunc
from .specialize import BinomialLocus


# -- semisimplicity (Theorem A) --------------------------------------------------------


@dataclass(frozen=True)
class SemisimplicityReport:
    input_desc: str
    vanishing: tuple          # PrimeIdealSpec entries whose generator vanishes
    semisimple: bool


def _check_point(point):
    """The eigenvalues of a point must be invertible and pairwise distinct."""
    for a in range(3):
        if point[a].is_zero():
            raise ValueError("zero eigenvalue l%d = 0" % (a + 1))
        for b in range(a + 1, 3):
            if point[a] == point[b]:
                raise ValueError("repeated eigenvalues l%d = l%d" % (a + 1, b + 1))


def classify_point(point) -> SemisimplicityReport:
    """Exact Theorem-A test at a point with nonzero pairwise distinct eigenvalues."""
    _check_point(point)
    vanishing = tuple(
        spec
        for spec in ideal_catalog()
        if spec.family != "diff" and spec.generator.eval_point(point).is_zero()
    )
    desc = "point(%s)" % ", ".join(str(c) for c in point)
    return SemisimplicityReport(desc, vanishing, not vanishing)


def classify_ideals(ideals) -> SemisimplicityReport:
    """Theorem-A vanishing list on the (composed) locus of the given ideals."""
    if not 1 <= len(ideals) <= 2:
        raise ValueError("classify accepts one or two ideals, got %d" % len(ideals))
    if any(p.family == "diff" for p in ideals):
        raise ValueError("the eigenvalues are assumed pairwise distinct")
    if len(ideals) == 1:
        locus = ideals[0].param
    else:
        locus = compose_pair(*ideals)[0].locus
    vanishing = tuple(
        spec
        for spec in ideal_catalog()
        if spec.family != "diff" and locus.vanishes(spec.generator)
    )
    desc = "ideal(%s)" % ", ".join(p.name for p in ideals)
    return SemisimplicityReport(desc, vanishing, not vanishing)


# -- blocks (Theorem B) -------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    classes: tuple               # nontrivial linked classes, each ordered
    singletons: tuple
    congruence_classes: tuple    # the raw central-character classes


def _delta_sort_key(label: ModuleLabel):
    d = delta_scalar(label)
    ((exps, _c),) = d.num.terms.items()
    return tuple(-e for e in exps), label.name


def blocks(p: PrimeIdealSpec) -> BlockDecomposition:
    """Blocks of the four-strand algebra over the quotient field of p.

    Labels are first grouped by congruent central scalar (gamma ~ gamma' iff
    the specialized scalars agree); a congruence group is then refined by
    linkage, keeping together exactly the members that share a composition
    factor.  A congruence group can strictly contain its linked classes: two
    non-isomorphic modules that stay simple may accidentally share a central
    character, and then they are separate blocks.

    Classes are ordered by descending lexicographic order on the exponent
    vector of the central-scalar monomial (the 'alphabetical order' of those
    monomials, fixed up to overall reversal by transpose freedom).
    """
    if p.family == "diff":
        raise ValueError("blocks are not defined over li - lj")
    groups: list[list] = []
    for spec in catalog_regular(4):
        image = p.param.apply_ratfunc(spec.delta_sq)
        for g in groups:
            if g[0][1] == image:
                g.append((spec.label, image))
                break
        else:
            groups.append([(spec.label, image)])
    congruence = []
    classes = []
    singletons = []
    for g in groups:
        labels = sorted((lbl for lbl, _ in g), key=_delta_sort_key)
        congruence.append(tuple(labels))
        if len(labels) == 1:
            singletons.append(labels[0])
            continue
        for part in _linkage_refinement(labels, p):
            if len(part) == 1:
                singletons.append(part[0])
            else:
                classes.append(tuple(sorted(part, key=_delta_sort_key)))
    classes.sort(key=lambda c: tuple(l.name for l in c))
    congruence.sort(key=lambda c: tuple(l.name for l in c))
    return BlockDecomposition(
        tuple(classes),
        tuple(sorted(singletons, key=_delta_sort_key)),
        tuple(congruence),
    )


def _linkage_refinement(labels, p: PrimeIdealSpec):
    facs = {lbl: set(f.name for f in single_ideal_factors(lbl, p)) for lbl in labels}
    edges = [(a, b) for a in labels for b in labels if a.name < b.name and facs[a] & facs[b]]
    return components(labels, edges)[0]


# -- composition series ------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionFactor:
    label: ModuleLabel
    dim: int
    indices: tuple             # path indices spanning the factor
    weights: dict


@dataclass(frozen=True)
class CompositionSeries:
    orientation: str
    factors: tuple             # ordered submodule first
    route: str                 # "trivial" | "assembly"
    certificate: dict = field(default_factory=dict)

    @property
    def factor_labels(self) -> tuple:
        return tuple(f.label for f in self.factors)


def invariant_chain(mats: list[Matrix]) -> list[list[int]]:
    """The maximal chain of invariant coordinate subspaces of the generators.

    The strongly connected components of the nonzero pattern (v_s -> v_t when
    entry (t, s) is nonzero), in the order Tarjan's algorithm emits them:
    successors first, so every prefix spans an invariant subspace.  That
    invariance is certified before the chain is returned.
    """
    n = mats[0].rows
    adj = [
        sorted({t for m in mats for t in range(n) if t != s and not m.entries[t][s].is_zero()})
        for s in range(n)
    ]
    index: dict = {}
    low: dict = {}
    stack: list[int] = []
    chain: list[list[int]] = []

    def strongconnect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in adj[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = stack[stack.index(v):]
            del stack[stack.index(v):]
            chain.append(sorted(comp))

    for v in range(n):
        if v not in index:
            strongconnect(v)
    closed: set[int] = set()
    for comp in chain:
        closed.update(comp)
        if any(not closed.issuperset(adj[s]) for s in closed):
            raise CubicHeckeError("invariant-subspace certificate failed")
    return chain


def _identify(pool, parent: ModuleLabel, p: PrimeIdealSpec, dim: int, weights: dict) -> ModuleLabel:
    """The label of the one spec in the pool that is valid mod p and has the
    factor's dimension and weights and, mod p, the parent's central scalar."""
    target_delta = p.param.apply_ratfunc(delta_scalar(parent))
    matches = [
        spec.label
        for spec in pool
        if spec.dim == dim
        and spec.weight_multiset() == weights
        and _valid_on(p.param, spec)
        and p.param.apply_ratfunc(spec.delta_sq) == target_delta
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise UnidentifiedFactor(
            "no catalogued simple matches dim=%d weights=%s inside %s mod %s"
            % (dim, sorted(weights.items()), parent, p.name)
        )
    raise UnidentifiedFactor(
        "ambiguous factor identification inside %s mod %s: %s"
        % (parent, p.name, matches)
    )


@lru_cache(maxsize=None)
def _candidate_pool(level: int) -> tuple:
    """What a factor at the level can be: the regular modules, and at level 4
    also the exceptional ones."""
    return catalog_regular(level) + (exceptional_catalog() if level == 4 else ())


def composition_series(
    label: ModuleLabel, p: PrimeIdealSpec, orientation: str = "as-given"
) -> CompositionSeries:
    """Composition series of a regular module, at level 3 or 4, over the
    quotient field of p.

    A module that stays simple mod p (p outside its Table-2 row) is its own
    series.  Otherwise the module is assembled over the parametrized locus in
    the row gauge and its series is the invariant chain of the generators;
    each factor is identified against the catalog of its level by dimension,
    weights (read off S3, or S1 at level 3) and central scalar.  An assembly
    or identification failure propagates.
    """
    if orientation not in ("as-given", "transpose"):
        raise ValueError("orientation must be 'as-given' or 'transpose'")
    if p.family == "diff":
        raise ValueError("composition series are not defined over li - lj")
    if p not in vanishing_for_module(label):
        spec = spec_for(label)
        factor = CompositionFactor(label, spec.dim, tuple(range(spec.dim)), spec.weight_multiset())
        return CompositionSeries(orientation, (factor,), "trivial")
    g = assemble(label, p.param)
    mats = g.matrices
    if orientation == "transpose":
        mats = {k: m.transpose() for k, m in mats.items()}
    lams = g.eigenvalues()
    weight_gen = mats[3 if label.level == 4 else 1]
    factors = []
    for comp in invariant_chain([mats[i] for i in sorted(mats)]):
        weights = path_weights(g.basis, weight_gen, comp, lams)
        factor = _identify(_candidate_pool(label.level), label, p, len(comp), weights)
        factors.append(CompositionFactor(factor, len(comp), tuple(comp), weights))
    return CompositionSeries(
        orientation, tuple(factors), "assembly",
        {"gauge": g.gauge, "chain": [f.indices for f in factors]},
    )


# -- exact sequences ---------------------------------------------------------------------


@dataclass(frozen=True)
class ExactSequence:
    labels: tuple                  # ordered module labels
    factor_chain: tuple            # factor labels K_0 .. K_r with V_i = K_{i-1} + K_i


def exact_sequence(p: PrimeIdealSpec, class_labels) -> ExactSequence:
    """The exact sequence carried by one block class (two or more linked
    labels, as ``blocks`` returns them), with factor matching.

    Every module's series is computed mod p; per-module transpose freedom is
    resolved so that the submodule of each term equals the quotient of its
    predecessor.  Raises on inconsistent factor matching.
    """
    series = {lbl: single_ideal_factors(lbl, p) for lbl in class_labels}
    for direction in (tuple(class_labels), tuple(reversed(class_labels))):
        chain = _match_chain(direction, series)
        if chain is not None:
            return ExactSequence(direction, chain)
    raise CubicHeckeError(
        "no consistent exact sequence for class %s mod %s"
        % ([l.name for l in class_labels], p.name)
    )


def _match_chain(order, series) -> tuple | None:
    chain: list[ModuleLabel] = []
    first = series[order[0]]
    if len(first) != 1:
        return None
    chain.append(first[0])
    for lbl in order[1:]:
        fac = series[lbl]
        if len(fac) == 1:
            if fac[0] != chain[-1]:
                return None
        elif len(fac) == 2:
            a, b = fac
            if a == chain[-1]:
                chain.append(b)
            elif b == chain[-1]:
                chain.append(a)
            else:
                return None
        else:
            return None
    if len(series[order[-1]]) != 1:
        return None
    alt = 0
    for k, lbl in enumerate(order):
        alt += (1 if k % 2 == 0 else -1) * spec_for(lbl).dim
    if alt != 0:
        return None
    return tuple(chain)


# -- census (Theorems B and C) --------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    label: ModuleLabel
    dim: int
    weights: dict
    delta_sq: RatFunc


@dataclass(frozen=True)
class Census:
    context: str
    entries: tuple
    branch: str = ""

    @property
    def sum_dim_sq(self) -> int:
        return sum(e.dim * e.dim for e in self.entries)


def census_generic() -> Census:
    entries = tuple(
        CensusEntry(s.label, s.dim, s.weight_multiset(), s.delta_sq)
        for s in catalog_regular(4)
    )
    return Census("generic", entries)


def census_single(p: PrimeIdealSpec) -> Census:
    if p.family == "diff":
        raise ValueError("the eigenvalues are assumed pairwise distinct")
    return _census("ideal(%s)" % p.name, p.param)


def _census(context: str, locus, branch: str = "") -> Census:
    """The simple factors of every regular level-4 module on the locus."""
    found: dict = {}
    for spec in catalog_regular(4):
        for lbl in split_on_locus(locus, spec.label):
            found.setdefault(lbl.name, lbl)
    return Census(context, _census_entries(found.values()), branch)


def _census_entries(labels) -> tuple:
    """Census entries of the labels, largest dimension first, then by name."""
    specs = sorted(map(module_spec, labels), key=lambda s: (-s.dim, s.label.name))
    return tuple(CensusEntry(s.label, s.dim, s.weight_multiset(), s.delta_sq) for s in specs)


# -- two-ideal loci ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    locus: object                  # Specialization | BinomialLocus
    description: str


def compose_pair(p1: PrimeIdealSpec, p2: PrimeIdealSpec) -> list[Branch]:
    """All branches of the combined locus of two Theorem-A ideals.

    A branch forcing two eigenvalues to coincide is rejected; when all
    branches are rejected, the pair is incompatible and the error carries the
    eigenvalue-difference witnesses.
    """
    if p1.family == "diff" or p2.family == "diff":
        raise ValueError("li - lj ideals are excluded")
    if p1.name == p2.name:
        raise ValueError("the two ideals must be distinct")
    base = p1.param
    residual = base.apply_poly(p2.generator)
    if residual.is_zero():
        raise ValueError("ideal %s contains %s on its locus" % (p1.name, p2.name))
    shifted, _ = residual.shift_nonnegative()
    branches = []
    witnesses = []
    free = base.free_vars()
    for factor in _factor_residual(shifted, free):
        if factor.degree(free[0]) == 1:
            (sub,) = parametrize(factor).subs
            try:
                locus = base.compose_sub(sub, (p2.generator,))
            except ValueError:
                continue
            description = "%s, %s" % (locus, factor)
        else:
            locus = BinomialLocus(base, factor)
            description = "quadratic branch %s" % factor
        witness = _distinct_witness(locus)
        if witness is not None:
            witnesses.append(witness)
            continue
        branches.append(Branch(locus, description))
    if not branches:
        raise IncompatibleIdeals(sorted(set(witnesses)))
    return branches


_UNITS = tuple(ZETA ** k for k in range(12))


def _factor_residual(poly: LaurentPoly, free) -> list:
    """The distinct factors l_x^k - u*l_y^k (k = 1, 2; u a 12th root of unity)
    of a two-variable residual, which is a monomial times powers of them.

    The residuals arising from composing catalog parametrizations split this
    way.  Every linear factor is divided out before any quadratic one, so a
    quadratic factor left has no root in Q(zeta12) and is prime.
    """
    x, y = free  # variable indices, x < y
    out = []
    work = poly
    for degree in (1, 2):
        if work.is_monomial():
            break
        ex = tuple(degree if k == x else 0 for k in range(3))
        ey = tuple(degree if k == y else 0 for k in range(3))
        for u in _UNITS:
            factor = LaurentPoly.monomial(ex) - LaurentPoly.monomial(ey, u)
            power = 0
            while True:
                try:
                    work = exact_div(work, factor)
                except ValueError:
                    break
                power += 1
            if power:
                out.append(factor)
    if not work.is_monomial():
        raise CubicHeckeError("residual %s does not split into catalog branches" % poly)
    return out


def _distinct_witness(locus):
    """The first li - lj vanishing on the locus, as a name, or None."""
    for a in range(3):
        for b in range(a + 1, 3):
            if locus.vanishes(LaurentPoly.var(a) - LaurentPoly.var(b)):
                return "l%d-l%d" % (a + 1, b + 1)
    return None


# -- iterated decomposition over a combined locus ------------------------------------------------


def _delta_congruent(locus, r1: RatFunc, r2: RatFunc) -> bool:
    diff = r1.num * r2.den - r2.num * r1.den
    return locus.vanishes(diff)


def _valid_on(locus, spec) -> bool:
    return spec.defining is None or locus.vanishes(spec.defining)


def _regular_dead(locus, label: ModuleLabel):
    return [
        q for q in vanishing_for_module(label) if locus.vanishes(q.generator)
    ]


def _simple_on(locus, spec) -> bool:
    if spec.defining is None:
        return not _regular_dead(locus, spec.label)
    return _valid_on(locus, spec) and _finest_cover(locus, spec) is None


def _k3_content_mod(locus, spec):
    return tuple(
        sorted(
            sum((list(split_on_locus(locus, g3)) for g3 in spec.restriction), []),
            key=lambda l: l.name,
        )
    )


def _finest_cover(locus, spec):
    """The unique partition of the spec's weights into smaller valid simple
    candidates with matching central scalar and K3 content, as labels, or None."""
    weights = spec.weight_multiset()
    candidates = []
    for cand in _candidate_pool(4):
        if cand.dim >= spec.dim:
            continue
        if not _valid_on(locus, cand):
            continue
        cw = cand.weight_multiset()
        if any(cw.get(k, 0) > weights.get(k, 0) for k in cw):
            continue
        if not _delta_congruent(locus, cand.delta_sq, spec.delta_sq):
            continue
        if not _simple_on(locus, cand):
            continue
        candidates.append(cand)
    solutions: list = []
    target_k3 = _k3_content_mod(locus, spec)

    def rec(remaining: dict, chosen: list):
        if len(solutions) > 1:
            return
        if not any(remaining.values()):
            k3 = sorted(
                sum((list(_k3_content_mod(locus, c)) for c in chosen), []),
                key=lambda l: l.name,
            )
            if k3 == list(target_k3):
                sol = sorted((c.label for c in chosen), key=lambda l: l.name)
                if sol not in solutions:
                    solutions.append(sol)
            return
        pivot = min(k for k, v in remaining.items() if v)
        for cand in candidates:
            cw = cand.weight_multiset()
            if cw.get(pivot, 0) == 0:
                continue
            if any(cw.get(w, 0) > remaining.get(w, 0) for w in cw):
                continue
            nxt = dict(remaining)
            for w, m in cw.items():
                nxt[w] -= m
            chosen.append(cand)
            rec(nxt, chosen)
            chosen.pop()

    rec(dict(weights), [])
    if not solutions:
        return None
    if len(solutions) > 1:
        raise UnidentifiedFactor(
            "ambiguous decomposition of %s on the combined locus" % spec.label
        )
    return tuple(solutions[0])


@lru_cache(maxsize=None)
def single_ideal_factors(label: ModuleLabel, p: PrimeIdealSpec) -> tuple:
    return composition_series(label, p).factor_labels


def split_on_locus(locus, label: ModuleLabel) -> tuple:
    """Multiset of simple factor labels of a catalogued module on the locus."""
    spec = module_spec(label)
    if spec.defining is None:
        dead = _regular_dead(locus, label)
        if not dead:
            return (label,)
        out: list = []
        for f in single_ideal_factors(label, dead[0]):
            out.extend(split_on_locus(locus, f))
        return tuple(sorted(out, key=lambda l: l.name))
    if not _valid_on(locus, spec):
        raise UnidentifiedFactor("label %s is not defined on the locus" % label)
    # the cover is already sorted by name
    return _finest_cover(locus, spec) or (label,)


def census_pair(p1: PrimeIdealSpec, p2: PrimeIdealSpec) -> list[Census]:
    """Census over every branch of a compatible ideal pair (Table-4 engine)."""
    context = "ideals(%s, %s)" % (p1.name, p2.name)
    return [_census(context, b.locus, b.description) for b in compose_pair(p1, p2)]


# -- the level-3 algebra ------------------------------------------------------------------------


@dataclass(frozen=True)
class K3Report:
    entries: tuple                # census of simple level-3 labels
    sequences: tuple              # ExactSequence-like tuples of level-3 labels

    @property
    def sum_dim_sq(self) -> int:
        return sum(sum(l.exps) ** 2 for l in self.entries)


def k3_structure(p: PrimeIdealSpec | None = None) -> K3Report:
    """Blocks, sequences and census of the three-strand algebra."""
    if p is None:
        return K3Report(tuple(s.label for s in catalog_regular(3)), ())
    if p.family == "diff":
        raise ValueError("distinct eigenvalues are assumed")
    found: dict = {}
    sequences = []
    for s in catalog_regular(3):
        if p in vanishing_for_module(s.label):
            series = single_ideal_factors(s.label, p)
            for lbl in series:
                found.setdefault(lbl.name, lbl)
            sequences.append((s.label, series))
        else:
            found.setdefault(s.label.name, s.label)
    entries = tuple(sorted(found.values(), key=lambda l: (-sum(l.exps), l.name)))
    return K3Report(entries, tuple(sequences))
