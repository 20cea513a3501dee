"""Assembly of the braid generator matrices of a regular module in its path basis.

The label's level says which algebra: a level-4 module has S1, S2 and S3, a
level-3 module S1 and S2.  S1 is diagonal (the eigenvalue along each path),
S2 and S3 are block diagonal with blocks reconstructed from their projection
data; at level 3, S2 is a single block.  The blocks fix each generator only
up to a diagonal rescaling of the basis; at level 4 the braid relation
between S2 and S3 pins the remaining freedom.  The solver works with one
scalar per path: a spanning forest of the bipartite path graph (level-3
constituents versus level-2 labels) is pinned to 1, and the few remaining
cycle scalars are solved from braid-residual entries that are linear in a
single unknown, followed by full verification of every defining relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .catalog import (
    ModuleLabel,
    delta_scalar,
    enumerate_paths,
    spec_for,
)
from .errors import CubicHeckeError, GaugeInconsistent, PoleOnLocus
from .jm import ab2_matrix, block_spec
from .matrix import Matrix, components
from .ratfunc import RatFunc, coprime_base, rat_sum, rebase, valuation
from .specialize import Specialization


@dataclass(frozen=True)
class GeneratorSet:
    label: ModuleLabel
    basis: tuple                      # ordered Path list
    matrices: MappingProxyType        # generator index -> Matrix
    context: Specialization | None
    gauge: str
    certificate: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        cert = dict(self.certificate)
        if "solved" in cert:
            cert["solved"] = MappingProxyType(dict(cert["solved"]))
        object.__setattr__(self, "matrices", MappingProxyType(dict(self.matrices)))
        object.__setattr__(self, "certificate", MappingProxyType(cert))

    @property
    def S1(self) -> Matrix:
        return self.matrices[1]

    @property
    def S3(self) -> Matrix:
        return self.matrices[3]

    def generators(self):
        return [self.matrices[i] for i in sorted(self.matrices)]

    def eigenvalues(self) -> tuple:
        """Images of the three eigenvalues in the working field."""
        lams = tuple(RatFunc.var(k) for k in range(3))
        if self.context is None:
            return lams
        return tuple(self.context.apply_ratfunc(l) for l in lams)

    @cached_property
    def product_view(self) -> MappingProxyType:
        """The generator matrices with every denominator key rewritten over one
        coprime base of all their keys: the same values, but sums of products
        then form least common denominators.  Built on first use, so a set
        that is never multiplied never pays for it."""
        keys = dict.fromkeys(f for m in self.matrices.values()
                             for row in m.entries for a in row for f in a.fac)
        base, splits = coprime_base(keys), {}
        return MappingProxyType({i: m.map(lambda a: rebase(a, base, splits))
                                 for i, m in self.matrices.items()})

    def delta_matrix(self) -> Matrix:
        """The half twist: the word ``HALF_TWIST`` of the set's level."""
        return eval_word(HALF_TWIST[self.label.level], self.product_view, Matrix.__mul__, {})


def _block_diag(n: int, placements) -> Matrix:
    at = {(i, j): block.entries[a][b] for idx, block in placements
          for a, i in enumerate(idx) for b, j in enumerate(idx)}
    zero = RatFunc.zero()
    return Matrix([[at.get((i, j), zero) for j in range(n)] for i in range(n)])


def _groups(paths, attr: str) -> list[list[int]]:
    """Path indices grouped by the path's ``attr`` label (g3 for S2, g2 for S3)."""
    groups: dict = {}
    for k, t in enumerate(paths):
        groups.setdefault(getattr(t, attr), []).append(k)
    return list(groups.values())


@lru_cache(maxsize=None)
def _generic_block(kind: str, g2: ModuleLabel | None, g4: ModuleLabel, gauge: str) -> Matrix:
    spec = block_spec(g2, g4, 2 if kind == "s2" else 3)
    return ab2_matrix(spec, spec.rank1_eigenvalue, gauge)


def _adapted_scalars(mats: list[Matrix], gen) -> list[int]:
    """Powers of the prime generator rescaling the path basis into the local
    ring: the difference constraints k_t - k_r <= ord(entry_rt) over every
    generator matrix, solved by shortest-path relaxation.  Infeasibility is a
    genuine pole on the locus.
    """
    n = mats[0].rows
    best: dict = {}
    for m in mats:
        for r in range(n):
            for t in range(n):
                a = m.entries[r][t]
                if r == t or a.is_zero():
                    continue
                o = valuation(a, gen)
                if (r, t) not in best or o < best[(r, t)]:
                    best[(r, t)] = o
    if all(o >= 0 for o in best.values()):
        return [0] * n
    k = [0] * n
    for _ in range(n + 1):
        changed = False
        for (r, t), o in best.items():
            if k[r] + o < k[t]:
                k[t] = k[r] + o
                changed = True
        if not changed:
            return k
    raise PoleOnLocus("no locus-adapted diagonal gauge exists")


def _conjugate_by_powers(m: Matrix, gen, k: list[int]) -> Matrix:
    gpoly = RatFunc(gen)
    return Matrix([[a * gpoly ** (k[r] - k[t]) if k[r] != k[t] and not a.is_zero() else a
                    for t, a in enumerate(row)] for r, row in enumerate(m.entries)])


def _on_locus(mats, ctx: Specialization) -> tuple[dict, tuple]:
    """Rescale the path basis into the locus-adapted gauge, one ideal
    generator at a time, then map every entry onto the locus.

    Returns the specialized matrices and the powers used per generator.
    """
    adaptation = []
    for gen in ctx.generators:
        k = _adapted_scalars(list(mats.values()), gen)
        if any(k):
            mats = {i: _conjugate_by_powers(m, gen, k) for i, m in mats.items()}
        adaptation.append(tuple(k))
    return {i: ctx.apply_matrix(m) for i, m in mats.items()}, tuple(adaptation)


@lru_cache(maxsize=None)
def assemble_generic(label: ModuleLabel, gauge: str = "row") -> GeneratorSet:
    """Generic-field assembly: blocks in canonical gauge plus, at level 4, the
    solved diagonal rescaling enforcing the braid relation.  A level-3 module
    is one S2 block with nothing to solve.

    Returns the cache entry itself, one per label and gauge; it is read-only,
    so every caller can share it.
    """
    paths = block_spec(None, label, 2).paths if label.level == 3 else enumerate_paths(label)
    n = len(paths)
    lam = [RatFunc.var(k) for k in range(3)]
    s1 = Matrix.diagonal([lam[t.eigen_index - 1] for t in paths])
    if label.level == 3:
        s2 = _generic_block("s2", None, label, "row")
        return GeneratorSet(label, paths, {1: s1, 2: s2}, None, gauge, {"pinned": n})
    s2 = _block_diag(n, [(idx, _generic_block("s2", None, paths[idx[0]].g3, "row"))
                         for idx in _groups(paths, "g3")])
    s3 = _block_diag(n, [(idx, _generic_block("s3", paths[idx[0]].g2, label, gauge))
                         for idx in _groups(paths, "g2")])
    s3_final, certificate = _solve_gauge(paths, s2, s3)
    certificate["gauge"] = gauge
    return GeneratorSet(label, paths, {1: s1, 2: s2, 3: s3_final}, None, gauge, certificate)


def assemble(label: ModuleLabel, ctx: Specialization | None = None, gauge: str = "row") -> GeneratorSet:
    """Build the generator matrices of a regular module: S1 and S2 at level 3,
    S1, S2 and S3 at level 4.

    Generic assembly happens once per label and gauge; a specialization then
    rescales the path basis into the locus-adapted gauge (powers of the ideal
    generators clearing every entry pole) and maps the entries.  The locus may
    only fail through PathBasisUnavailable (length-3 center eigenvalues
    collide inside a level-4 block, breaking the path basis) or PoleOnLocus
    (no adapted gauge exists there).

    The returned set is read-only and may be shared: with no specialization
    it is the generic cache entry itself.
    """
    base = assemble_generic(label, gauge)
    if ctx is None:
        return base
    paths = base.basis
    if label.level == 4:
        for idx in _groups(paths, "g2"):
            block_spec(paths[idx[0]].g2, label, 3).check_x_distinct(ctx)
    mats, adaptation = _on_locus(base.matrices, ctx)
    certificate = {**base.certificate, "adapted_powers": adaptation}
    return GeneratorSet(label, paths, mats, ctx, gauge, certificate)


# -- gauge solving ------------------------------------------------------------------
#
# Unknowns: one scalar per path; S3 is conjugated by diag(X).  A spanning
# forest of the bipartite graph (level-3 groups | level-2 groups, one edge per
# path) is pinned to X = 1, leaving one unknown per independent cycle (at most
# three for the nine-dimensional modules).  The braid residual
# S2 S3' S2 - S3' S2 S3' is never formed as a matrix: the solver asks for one
# entry at a time, as a Laurent polynomial in the unsolved scalars with the
# solved ones already multiplied into its coefficients, and reads a scalar off
# every entry that has shrunk to a binomial in a single unknown.


def _gauge_unknowns(paths) -> tuple[dict, int]:
    edges = [(("g3", t.g3), ("g2", t.g2)) for t in paths]
    joined = components([v for e in edges for v in e], edges)[1]
    assignment = {}
    n_unknown = 0
    for k, forest_edge in enumerate(joined):
        if forest_edge:
            assignment[k] = None          # forest edge: pinned to 1
        else:
            assignment[k] = n_unknown     # cycle edge: unknown scalar
            n_unknown += 1
    return assignment, n_unknown


def _solve_gauge(paths, s2: Matrix, s3: Matrix):
    assignment, n_unknown = _gauge_unknowns(paths)
    pinned = sum(1 for v in assignment.values() if v is None)
    if n_unknown == 0:
        return s3, {"pinned": pinned, "solved": {}}
    n = len(paths)
    solution: dict[int, RatFunc] = {}

    def nonzero(m: Matrix):
        return [[(j, a) for j, a in enumerate(row) if not a.is_zero()] for row in m.entries]

    rows2, rows3 = nonzero(s2), nonzero(s3)

    def scaled(a: RatFunc, *factors) -> tuple[RatFunc, tuple]:
        """a * prod X_p / X_q over the (p, q) factors: the solved scalars go
        into the coefficient, the exponents of the unsolved ones are returned."""
        e = [0] * n_unknown
        for p, q in factors:
            for k, d in ((p, 1), (q, -1)):
                if assignment[k] is not None:
                    e[assignment[k]] += d
        for u, d in enumerate(e):
            if d and u in solution:
                a = a * (solution[u] ** d)
                e[u] = 0
        return a, tuple(e)

    def residual(i: int, j: int) -> dict:
        """Entry (i, j) of S2 S3' S2 - S3' S2 S3': exponent vector -> RatFunc."""
        acc: dict = {}

        def add(coeff, e):
            cur = acc.get(e)
            if cur is None:
                acc[e] = coeff
            else:
                s = cur + coeff
                if s.is_zero():
                    del acc[e]
                else:
                    acc[e] = s

        for k, a in rows2[i]:
            for l, b in rows3[k]:
                c = s2.entries[l][j]
                if not c.is_zero():
                    add(*scaled(a * b * c, (k, l)))
        for k, a in rows3[i]:
            for l, b in rows2[k]:
                c = s3.entries[l][j]
                if not c.is_zero():
                    add(*scaled(-(a * b * c), (i, k), (l, j)))
        return acc

    free_pins = 0
    while len(solution) < n_unknown:
        progress = False
        for i, j in product(range(n), repeat=2):
            if len(solution) == n_unknown:
                break
            eq = residual(i, j)
            if len(eq) != 2:
                continue
            (e1, c1), (e2, c2) = eq.items()
            diff = [x - y for x, y in zip(e1, e2)]
            live = [u for u, d in enumerate(diff) if d]
            if len(live) != 1 or abs(diff[live[0]]) != 1:
                continue
            u = live[0]
            # c1 * g^e1 + c2 * g^e2 = 0  =>  g_u^(+-1) = -c2/c1
            val = -(c2 / c1)
            if diff[u] == -1:
                val = val.inv()
            solution[u] = val.reduce()
            progress = True
        if not progress:
            # no residual entry pins the remaining scalars: genuinely free
            # parameters on this locus; pin them to 1 and let the full
            # residual decide
            for u in range(n_unknown):
                if u not in solution:
                    solution[u] = RatFunc.one()
                    free_pins += 1
            if any(residual(i, j) for i, j in product(range(n), repeat=2)):
                raise GaugeInconsistent(
                    "braid residual nonzero after pinning %d free scalar(s)" % free_pins
                )

    s3_final = Matrix([[scaled(a, (i, j))[0] if not a.is_zero() else a for j, a in enumerate(row)]
                       for i, row in enumerate(s3.entries)])
    cert = {
        "pinned": pinned,
        "free_pinned": free_pins,
        "solved": {u: str(v) for u, v in solution.items()},
    }
    return s3_final, cert


# -- verification ----------------------------------------------------------------------
#
# The defining relations as data.  A word is a tuple of generator indices
# multiplied left to right, an entry that is itself a word a bracketed factor,
# and DELTA the half twist of the set's level.  A row's rhs is a word, CUBIC
# for (S - l1)(S - l2)(S - l3) = 0 of the generator in lhs, or a diagonal: a
# function of ``central`` (label -> its scalar of Delta^2) and the set.

HALF_TWIST = {3: (1, 2, 1), 4: (1, 2, 3, 1, 2, 1)}
DELTA, CUBIC = "D", "cubic"
_D3, _D4 = HALF_TWIST[3], HALF_TWIST[4]


@dataclass(frozen=True)
class Relation:
    lhs: tuple
    rhs: object
    shortcut: tuple = ()    # (premise checks, identities implying the row once all passed)


# check name -> relation, in report order
RELATIONS = {
    "commute_S1_S3": Relation((1, 3), (3, 1)),
    "braid_S1_S2": Relation((_D3,), (2, 1, 2)),     # Delta3 bracketed: the Delta rows reuse it
    "braid_S2_S3": Relation((2, 3, 2), (3, 2, 3)),
    **{"cubic_S%d" % a: Relation((a,), CUBIC) for a in (1, 2, 3)},
    # in B4, Delta4^2 = Delta3^2 (s3 s2 s1^2 s2 s3), and Delta3^2 acts on each
    # path by the central scalar of its level-3 label
    "delta_sq_scalar": Relation((DELTA, DELTA), lambda c, g: [c(g.label)] * len(g.basis), (
        ("commute_S1_S3", "braid_S1_S2", "braid_S2_S3"),
        (Relation((_D3, _D3), lambda c, g: [c(t.g3) for t in g.basis]),
         Relation((3, (2, (1, 1), 2), 3), lambda c, g: [c(g.label) / c(t.g3) for t in g.basis])),
    )),
    **{"delta_flip_S%d" % a: Relation((_D4, a), (4 - a, _D4)) for a in (1, 2, 3)},
}


def _resolve(word: tuple, level: int) -> tuple:
    return tuple(HALF_TWIST[level] if f == DELTA else f for f in word)


def _letters(word: tuple) -> set:
    return {x for f in word for x in (_letters(f) if isinstance(f, tuple) else (f,))}


def eval_word(word: tuple, mats, mul, memo: dict):
    """The product of ``word`` over ``mats`` (generator index -> matrix) by
    ``mul``.  ``memo`` keeps every proper prefix and bracketed factor, so the
    words that share one form it once; a whole word is not kept, so a product
    that nothing shares is freed after its check."""
    acc = None
    for k, f in enumerate(word, 1):
        if word[:k] in memo:
            acc = memo[word[:k]]
            continue
        if isinstance(f, tuple) and f not in memo:
            memo[f] = eval_word(f, mats, mul, memo)
        m = memo[f] if isinstance(f, tuple) else mats[f]
        acc = m if acc is None else mul(acc, m)
        if k < len(word):
            memo[word[:k]] = acc
    return acc


def relation_sides(rel: Relation, level: int, mats, mul, memo: dict, diagonal):
    """Both sides of a non-cubic row; ``diagonal`` makes a diagonal rhs a matrix."""
    lhs = eval_word(_resolve(rel.lhs, level), mats, mul, memo)
    if isinstance(rel.rhs, tuple):
        return lhs, eval_word(_resolve(rel.rhs, level), mats, mul, memo)
    return lhs, diagonal(rel.rhs)


def first_difference(lhs, rhs) -> tuple | None:
    """(i, j) of the first entry, in row-major order, where two arrays of rows
    differ, or None."""
    return next(((i, j) for i, (ra, rb) in enumerate(zip(lhs, rhs))
                 for j, (a, b) in enumerate(zip(ra, rb)) if a != b), None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: tuple | None = None   # (i, j) of the first nonzero residual entry


@dataclass(frozen=True)
class VerifyReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify(g: GeneratorSet) -> VerifyReport:
    """Exact verification of each row of ``RELATIONS`` whose generators the
    set has, on the set's ``product_view``.  delta_sq_scalar takes its
    shortcut only if its three premises, commute_S1_S3, braid_S1_S2 and
    braid_S2_S3, passed in this report, and otherwise squares the half twist,
    so corrupted inputs fail faithfully."""
    level, mats, lams, memo = g.label.level, g.product_view, g.eigenvalues(), {}
    mul = Matrix.__mul__

    @lru_cache(maxsize=None)
    def central(label: ModuleLabel) -> RatFunc:
        c = delta_scalar(label)
        return c if g.context is None else g.context.apply_ratfunc(c)

    def diagonal(d) -> Matrix:
        return Matrix.diagonal(d(central, g))

    def residual(rel: Relation):
        if rel.rhs == CUBIC:
            f = [mats[rel.lhs[0]].add_scalar(-l) for l in lams]
            lhs, rhs = mul(mul(f[0], f[1]), f[2]), Matrix.zero(f[0].rows, f[0].rows)
        else:
            lhs, rhs = relation_sides(rel, level, mats, mul, memo, diagonal)
        return first_difference(lhs.entries, rhs.entries)

    passed, checks = {}, []
    for name, rel in RELATIONS.items():
        words = rel.lhs + rel.rhs if isinstance(rel.rhs, tuple) else rel.lhs
        if not _letters(_resolve(words, level)) <= mats.keys():
            continue
        if rel.shortcut and all(passed.get(p) for p in rel.shortcut[0]):
            loc = next(filter(None, map(residual, rel.shortcut[1])), None)
        else:
            loc = residual(rel)
        passed[name] = loc is None
        checks.append(CheckResult(name, loc is None, loc))
    return VerifyReport(checks)


# -- weight diagnostics (generic context) -----------------------------------------------


def scaled_projection(m: Matrix, r: int, lams) -> Matrix:
    """P_{k r} = prod_{s != r} (S_k - l_s), the scaled weight projection;
    ``lams`` are the images of l1, l2, l3 in the working field."""
    a, b = (m.add_scalar(-lams[s - 1]) for s in (1, 2, 3) if s != r)
    return a * b


def weight_operator(g: GeneratorSet, i: int, j: int) -> Matrix:
    """B(i, j) = P_{1 i} P_{3 j}; its image is the (i, j) weight space."""
    lams, mats = g.eigenvalues(), g.product_view
    return scaled_projection(mats[1], i, lams) * scaled_projection(mats[3], j, lams)


def path_weights(basis, s: Matrix, idx, lams) -> dict:
    """Weight multiplicities {(i, j): m} of the paths ``idx``: m is the nullity
    of S - l_j on the paths of ``idx`` along which sigma1 acts by l_i.

    S (S3, or S1 at level 3) is block-diagonal on those groups of paths and
    diagonalizable, as it satisfies the cubic relation with distinct roots, so
    that nullity is the rank of B(i, j) = P_{1 i} P_{3 j} on the paths.
    """
    out = {}
    for i in (1, 2, 3):
        group = [k for k in idx if basis[k].eigen_index == i]
        for j in (1, 2, 3):
            m = len(group) - s.submatrix(group).add_scalar(-lams[j - 1]).rank()
            if m > 0:
                out[(i, j)] = m
    return out


@dataclass(frozen=True)
class WeightReport:
    ranks: dict                    # (i, j) -> multiplicity of the weight
    d_scalars: dict                # 6-dim module only
    expected: dict

    @property
    def ranks_match(self) -> bool:
        return self.ranks == self.expected


def weight_report(g: GeneratorSet) -> WeightReport:
    """Multiplicities of all weights, plus the d(i, j) scalars for the 6-dim module."""
    if g.context is not None:
        raise ValueError("weight diagnostics are defined in the generic context")
    lams = g.eigenvalues()
    ranks = path_weights(g.basis, g.S3, range(len(g.basis)), lams)
    d_scalars = {}
    if sorted(g.label.exps, reverse=True) == [3, 2, 1]:
        p23 = scaled_projection(g.product_view[2], 3, lams)
        for (i, j) in ranks:
            op = weight_operator(g, i, j)
            d_scalars[(i, j)] = extract_scalar(op * p23 * op, op)
    return WeightReport(ranks, d_scalars, spec_for(g.label).weight_multiset())


def extract_scalar(lhs: Matrix, rhs: Matrix) -> RatFunc:
    """The scalar c with lhs = c * rhs; verified on every entry."""
    loc = first_difference(rhs.entries, Matrix.zero(rhs.rows, rhs.cols).entries)
    if loc is None:
        raise ValueError("cannot extract a scalar against the zero matrix")
    i, j = loc
    c = (lhs.entries[i][j] / rhs.entries[i][j]).reduce()
    if lhs != rhs.scale(c):
        raise ValueError("matrices are not proportional")
    return c


def alpha_scalar(g: GeneratorSet, ki: tuple, lj: tuple) -> RatFunc:
    """alpha with B(k,i) S2 B(l,j) S2 B(k,i) = alpha B(k,i) (8- and 9-dim modules)."""
    b1 = weight_operator(g, *ki)
    b2 = weight_operator(g, *lj)
    s2 = g.product_view[2]
    return extract_scalar(b1 * s2 * b2 * s2 * b1, b1)


def delta4_weight_charpoly(g: GeneratorSet) -> tuple:
    """Characteristic polynomial of Delta4 P1(l1) P3(l1) with normalized projections.

    Defined for the generic module with exponent shape (4, 2, 2); the module's
    distinguished eigenvalue is the one with exponent 4.  P = P1 P3 has rank 2.
    With I the rows and columns where P is nonzero, the columns of Delta4 P
    outside I vanish, so the polynomial is x^(n-2) (x^2 - e1 x + e2) for
    A = Delta4[I, I] P[I, I], which has rank at most 2: e1 = tr A and e2 is
    the sum of the principal 2x2 minors of A, (e1^2 - tr A^2) / 2.  Summing
    the minors keeps each term small; tr A^2 as one sum is several times
    slower.
    """
    if sorted(g.label.exps, reverse=True) != [4, 2, 2] or g.context is not None:
        raise ValueError("defined for the generic 8-dimensional modules")
    r = g.label.exps.index(4) + 1
    lam = g.eigenvalues()
    # 1 / prod (l_r - l_s), one key per factor, as the product view keeps them
    inv = RatFunc.one()
    for s in (1, 2, 3):
        if s != r:
            inv = inv * (lam[r - 1] - lam[s - 1]).inv()
    mats = g.product_view
    proj1 = scaled_projection(mats[1], r, lam).scale(inv)
    proj3 = scaled_projection(mats[3], r, lam).scale(inv)
    p = proj1 * proj3
    idx = sorted({
        k for i, row in enumerate(p.entries) for j, x in enumerate(row) if not x.is_zero()
        for k in (i, j)
    })
    p = p.submatrix(idx)
    rank = p.rank()
    if rank != 2:
        raise CubicHeckeError("P1 P3 of %s has rank %d, not 2" % (g.label.name, rank))
    a = (g.delta_matrix().submatrix(idx) * p).entries
    e1 = rat_sum([a[i][i] for i in range(len(idx))]).reduce()
    e2 = rat_sum([
        a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in combinations(range(len(idx)), 2)
    ]).reduce()
    return (RatFunc.zero(),) * (g.S1.rows - 2) + (e2, -e1, RatFunc.one())
