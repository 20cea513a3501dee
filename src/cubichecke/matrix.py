"""Dense exact matrices over the rational function field.

Everything here is exact; there is no floating point anywhere in the package.
Symbolic matrices have RatFunc entries; the point-side helpers work on
matrices of Cyclotomic values evaluated at one point.
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import Cyclotomic, ONE, ZERO
from .ratfunc import RatFunc, rat_sum


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        """Rows are stored as tuples, so a matrix is never written into."""
        self.entries = tuple(map(tuple, entries))
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        z = RatFunc.zero()
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: list[RatFunc]) -> "Matrix":
        n = len(values)
        z = RatFunc.zero()
        return cls([[values[i] if i == j else z for j in range(n)] for i in range(n)])

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        out = []
        zero = RatFunc.zero()
        for row in self.entries:
            nz = [(k, a) for k, a in enumerate(row) if not a.is_zero()]
            new_row = []
            for col in bt:
                terms = []
                for k, a in nz:
                    b = col[k]
                    if not b.is_zero():
                        terms.append(a * b)
                new_row.append(rat_sum(terms) if terms else zero)
            out.append(new_row)
        return Matrix(out)

    def scale(self, s: RatFunc) -> "Matrix":
        return Matrix([[a * s for a in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def add_scalar(self, s: RatFunc) -> "Matrix":
        """self + s*I."""
        rows = enumerate(self.entries)
        return Matrix([[a + s if i == j else a for j, a in enumerate(r)] for i, r in rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        raise TypeError("matrices are unhashable")

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in row] for row in self.entries])

    def submatrix(self, idx: list[int]) -> "Matrix":
        return Matrix([[self.entries[i][j] for j in idx] for i in idx])

    # -- rank ----------------------------------------------------------------

    def rank(self) -> int:
        work = list(self.entries)
        m, n = self.rows, self.cols
        rank = 0
        row = 0
        for col in range(n):
            pivot = None
            best = None
            for i in range(row, m):
                a = work[i][col]
                if not a.is_zero():
                    size = len(a.num.terms) + len(a.den.terms)
                    if best is None or size < best:
                        best = size
                        pivot = i
            if pivot is None:
                continue
            work[row], work[pivot] = work[pivot], work[row]
            inv = work[row][col].inv()
            for i in range(row + 1, m):
                a = work[i][col]
                if a.is_zero():
                    continue
                factor = (a * inv).reduce()
                work[i] = [
                    (x - factor * y).reduce() if not y.is_zero() else x
                    for x, y in zip(work[i], work[row])
                ]
            row += 1
            rank += 1
            if row == m:
                break
        return rank


def components(nodes, edges) -> tuple[list[list], list[bool]]:
    """Connected components of an undirected graph, by union-find.

    Returns ``(groups, joined)``: each group lists its nodes in the order of
    ``nodes``, groups are ordered by their first node, and ``joined[k]`` says
    whether edge k merged two components (False for an edge closing a cycle).
    """
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for a, b in edges:
        ra, rb = find(a), find(b)
        joined.append(ra != rb)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values()), joined


def eval_matrix(m: Matrix, values) -> list[list[Cyclotomic]]:
    """Exact evaluation of every entry at a point in Q(zeta12)^3."""
    return [[a.eval_point(values) for a in row] for row in m.entries]


# -- numeric (Cyclotomic-valued) helpers for the random-point oracles -----------------


def num_mat_mul(a, b):
    """The exact product of two Cyclotomic matrices, computed without fractions.

    Each operand is cleared once: D*a = N0 + N1*z + N2*z^2 + N3*z^3 with D the
    lcm of its denominators and Nk integer matrices.  The z^e coefficient of the
    product is the sum of the integer products Nk*Ml with k + l = e, over the
    nonzero entries only, and each entry becomes one canonical Cyclotomic over
    Da*Db at the end.
    """
    da, ca = _cleared(a)
    db, cb = _cleared(b)
    rows, cols = len(a), len(b[0])
    sums = [None] * 7
    for k, ak in enumerate(ca):
        for l, bl in enumerate(cb):
            if ak is None or bl is None:
                continue
            s = sums[k + l]
            if s is None:
                s = sums[k + l] = [[0] * cols for _ in range(rows)]
            for arow, srow in zip(ak, s):
                for t, x in arow:
                    for j, y in bl[t]:
                        srow[j] += x * y
    d = da * db
    zero = [0] * cols
    return [
        [Cyclotomic.from_power_sums(c, d) for c in zip(*[s[i] if s else zero for s in sums])]
        for i in range(rows)
    ]


def _cleared(a):
    """(D, parts) for a Cyclotomic matrix: D is the lcm of the entry denominators,
    and parts[k] lists, row by row, the (column, int) pairs of the nonzero z^k
    coefficients of D*a, or is None when D*a has no z^k term."""
    d = lcm(*(x.d for row in a for x in row))
    parts = [[[] for _ in a] for _ in range(4)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x.is_zero():
                continue
            f = d // x.d
            for part, c in zip(parts, x.n):
                if c:
                    part[i].append((j, c * f))
    return d, [p if any(p) else None for p in parts]


def num_eigenprojection(a, mu: Cyclotomic, others: list[Cyclotomic]):
    """Normalized eigenprojection of an exactly-evaluated matrix: the product of
    the factors a - nu*I over ``others``, divided once by the product of mu - nu."""
    n = len(a)
    proj = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    denom = ONE
    for nu in others:
        factor = [[x - nu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        proj = num_mat_mul(proj, factor)
        denom = denom * (mu - nu)
    inv = denom.inverse()
    return [[x * inv for x in row] for row in proj]
