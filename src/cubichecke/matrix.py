"""Dense exact matrices over the rational function field.

Everything here is exact; there is no floating point anywhere in the package.
The characteristic polynomial first splits the matrix into connected blocks of
its nonzero pattern (the braid generator matrices are block diagonal in a path
basis), expands small blocks directly and uses the division-controlled
Faddeev-LeVerrier recursion for anything larger.
"""

from __future__ import annotations

from itertools import permutations as _perms
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
    def identity(cls, n: int) -> "Matrix":
        one = RatFunc.one()
        zero = RatFunc.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

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

    def _rows_with(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return zip(self.entries, other.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in self._rows_with(other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in self._rows_with(other)])

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

    def trace(self) -> RatFunc:
        t = RatFunc.zero()
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

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

    # -- spectral helpers ------------------------------------------------------

    def eigenprojection(self, mu: RatFunc, spectrum: list[tuple[RatFunc, int]]) -> "Matrix":
        """Normalized spectral projection onto the mu-eigenspace.

        ``spectrum`` lists (eigenvalue, multiplicity) with pairwise distinct
        eigenvalues; the matrix must be diagonalizable with that spectrum.
        Raises ValueError when the residual (M - mu) P is nonzero.
        """
        n = self.rows
        proj = Matrix.identity(n)
        mult = None
        for nu, m in spectrum:
            if nu == mu:
                mult = m
                continue
            factor = self.add_scalar(-nu)
            denom = mu - nu
            if denom.is_zero():
                raise ValueError("spectrum contains mu twice")
            proj = (proj * factor).scale(denom.inv())
        if mult is None:
            raise ValueError("mu not in spectrum")
        if not ((self.add_scalar(-mu)) * proj).is_zero():
            raise ValueError("spectrum mismatch: (M - mu)P != 0")
        return proj

    # -- characteristic polynomial ------------------------------------------------

    def charpoly(self) -> list[RatFunc]:
        """Coefficients [c0, c1, ..., cn] of det(x I - M), cn = 1, exact."""
        if self.rows != self.cols:
            raise ValueError("charpoly needs a square matrix")
        n = self.rows
        if n == 0:
            return [RatFunc.one()]
        # blocks: the connected components of the symmetrized nonzero pattern
        edges = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and not self.entries[i][j].is_zero()
        ]
        out = [RatFunc.one()]
        for idx in components(range(n), edges)[0]:
            out = _poly_mul_coeffs(out, _block_charpoly(self.submatrix(idx)))
        return out


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


def _poly_mul_coeffs(a: list[RatFunc], b: list[RatFunc]) -> list[RatFunc]:
    out = [RatFunc.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return out


def _block_charpoly(m: Matrix) -> list[RatFunc]:
    n = m.rows
    if n == 1:
        return [-m.entries[0][0], RatFunc.one()]
    if n <= 4:
        # direct expansion of det(xI - M): elementary symmetric sums of
        # principal minors, each minor a signed permutation expansion
        coeffs = [RatFunc.zero() for _ in range(n + 1)]
        coeffs[n] = RatFunc.one()
        from itertools import combinations

        for k in range(1, n + 1):
            acc = RatFunc.zero()
            for idx in combinations(range(n), k):
                acc = acc + _det_leibniz(m, idx)
            sign = -1 if k % 2 else 1
            coeffs[n - k] = acc if sign == 1 else -acc
        return coeffs
    return _faddeev_leverrier(m)


def _det_leibniz(m: Matrix, idx) -> RatFunc:
    acc = RatFunc.zero()
    for perm in _perms(range(len(idx))):
        term = None
        for r, c in enumerate(perm):
            a = m.entries[idx[r]][idx[c]]
            if a.is_zero():
                term = None
                break
            term = a if term is None else term * a
        if term is None:
            continue
        if _perm_sign(perm) < 0:
            term = -term
        acc = acc + term
    return acc.reduce()


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _faddeev_leverrier(m: Matrix) -> list[RatFunc]:
    n = m.rows
    coeffs = [RatFunc.zero() for _ in range(n + 1)]
    coeffs[n] = RatFunc.one()
    work = m
    for k in range(1, n + 1):
        t = work.trace().reduce()
        ck = t.scale(Cyclotomic.from_rational(-1) / Cyclotomic.from_rational(k)).reduce()
        coeffs[n - k] = ck
        if k < n:
            work = (m * work.add_scalar(ck)).map(
                lambda a: a.reduce() if len(a.num.terms) + len(a.den.terms) > 120 else a
            )
    return coeffs


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
