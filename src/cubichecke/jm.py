"""Block spectra and eigenprojection formulas for the two-generator affine
braid relation ATAT = TATA = delta.

A braid generator acts on a path basis as a direct sum of small blocks; on
each block the pair (A, T) = (generator, length-2 center) satisfies the affine
relation with T diagonal.  Knowing only the block data -- the T-eigenvalue
list x, the scalar delta, and the spectrum of A -- the diagonal entries of the
rank-1 eigenprojection of A, and then A itself up to diagonal conjugation, are
given by closed formulas.  This module implements those formulas exactly.

One formula serves every block size.  The "pair" of a multiplicity-1
eigenvalue mu is the two eigenvalues left after one copy of mu; 1- and 2-blocks
are the cases with pair (mu, mu) and (lambda, lambda), and each keeps its own
consistency condition as a hypothesis (delta = x^2 mu^2, delta + mu*lambda*x_r*x_s = 0).

Gauge convention: "row" writes the rank-1 projection as p[r][s] = d_r, which
is the default; "column" (p[r][s] = d_s) builds the transpose-dual module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import (
    ModuleLabel,
    Path,
    delta_scalar,
    enumerate_paths,
    label2,
    spec_for,
)
from .errors import HypothesisViolated, PathBasisUnavailable
from .matrix import Matrix
from .ratfunc import RatFunc
from .specialize import Specialization


@dataclass(frozen=True)
class AB2BlockSpec:
    """One generator block: T-eigenvalues, delta, and the spectrum of A."""

    x: tuple                      # T eigenvalues, one per path, block order
    delta: RatFunc
    a_spectrum: tuple             # ((eigenvalue, multiplicity), ...)
    rank1_eigenvalue: RatFunc     # designated multiplicity-1 eigenvalue
    paths: tuple = ()             # provenance, when built from the catalog

    @property
    def size(self) -> int:
        return len(self.x)

    def check_x_distinct(self, context: Specialization | None = None):
        xs = self.x
        if context is not None:
            xs = [context.apply_ratfunc(x) for x in xs]
        for r in range(len(xs)):
            for s in range(r + 1, len(xs)):
                if xs[r] == xs[s]:
                    raise PathBasisUnavailable(
                        "coinciding center eigenvalues x_%d = x_%d" % (r + 1, s + 1)
                    )


def _lam(i: int) -> RatFunc:
    return RatFunc.var(i - 1)


def _designate(spectrum) -> RatFunc:
    """Minimal-multiplicity eigenvalue, ties broken by eigenvalue index order."""
    low = min(m for (_e, m) in spectrum)
    return next(ev for (ev, m) in spectrum if m == low)


def block_spec(g2: ModuleLabel, g4: ModuleLabel, generator_index: int) -> AB2BlockSpec:
    """The AB2 data of one block of S2 or S3 in a path basis.

    ``generator_index=3``: the block of S3 on the paths of the level-4 module
    ``g4`` passing through the level-2 label ``g2``; delta is the product of
    the level-2 and level-4 central scalars.

    ``generator_index=2``: ``g2`` is ignored and ``g4`` names a level-3 module;
    the block is all of it, with T = sigma1^2 and delta its central scalar.
    """
    if generator_index == 2:
        nu = g4
        if nu.level != 3:
            raise ValueError("generator_index 2 expects a level-3 label")
        paths = tuple(Path(label2(i), nu, nu) for i in (1, 2, 3) if nu.exps[i - 1])
        x = tuple(delta_scalar(t.g2) for t in paths)
        spectrum = tuple((_lam(t.eigen_index), 1) for t in paths)
        return AB2BlockSpec(x, delta_scalar(nu), spectrum, _designate(spectrum), paths)
    if generator_index != 3:
        raise ValueError("generator_index must be 2 or 3")
    paths = tuple(t for t in enumerate_paths(g4) if t.g2 == g2)
    if not paths:
        raise ValueError("no paths from %s into %s" % (g2, g4))
    x = tuple(delta_scalar(t.g3) for t in paths)
    delta = delta_scalar(g2) * delta_scalar(g4)
    i = g2.exps.index(1) + 1
    wm = spec_for(g4).weight_multiset()
    spectrum = tuple(
        (_lam(j), wm[(i, j)]) for j in (1, 2, 3) if (i, j) in wm
    )
    if all(m >= 2 for (_e, m) in spectrum):
        raise HypothesisViolated("no multiplicity-1 eigenvalue in block %s -> %s" % (g2, g4))
    return AB2BlockSpec(x, delta, spectrum, _designate(spectrum), paths)


def _spectrum_mult(spec: AB2BlockSpec, mu: RatFunc) -> int:
    for ev, m in spec.a_spectrum:
        if ev == mu:
            return m
    return 0


def _pair_for(spectrum, mu: RatFunc) -> tuple:
    """The two eigenvalues left after one copy of mu (equal when they coincide)."""
    others = []
    for ev, m in spectrum:
        if ev == mu:
            m -= 1
        others.extend([ev] * m)
    distinct = []
    for o in others:
        if all(o != d for d in distinct):
            distinct.append(o)
    if not distinct:
        return (mu, mu)
    if len(distinct) == 1:
        return (distinct[0], distinct[0])
    if len(distinct) > 2:
        raise HypothesisViolated("more than three distinct eigenvalues in a block")
    return (distinct[0], distinct[1])


def ab2_diag(spec: AB2BlockSpec, mu: RatFunc) -> tuple:
    """Diagonal entries of the rank-1 eigenprojection of A for eigenvalue mu."""
    if _spectrum_mult(spec, mu) != 1:
        raise HypothesisViolated("eigenvalue %s does not have multiplicity 1" % mu)
    spec.check_x_distinct()
    l1, l2 = _pair_for(spec.a_spectrum, mu)
    _check_hypotheses(spec, mu, l1, l2)
    if spec.size == 1:
        # the general formula divides by (l1 - mu)(l2 - mu) = 0 here
        return (RatFunc.one(),)
    return tuple(_d_entry(spec, mu, l1, l2, r).reduce() for r in range(spec.size))


def _check_hypotheses(spec: AB2BlockSpec, mu: RatFunc, l1: RatFunc, l2: RatFunc):
    delta = spec.delta
    if spec.size == 1:
        x = spec.x[0]
        if not (delta - x * x * mu * mu).is_zero():
            raise HypothesisViolated("1-block needs delta = x^2 lambda^2")
        return
    if spec.size == 2:
        xr, xs = spec.x
        if not (delta + mu * l1 * xr * xs).is_zero():
            raise HypothesisViolated("2-block with delta + mu*lambda*x_r*x_s != 0")
    if ((l1 - mu) * (l2 - mu)).is_zero():
        raise HypothesisViolated("(lambda_1 - mu)(lambda_2 - mu) = 0")
    for r, xr in enumerate(spec.x):
        for s, xs in enumerate(spec.x):
            if (delta + l1 * l2 * xr * xs).is_zero():
                raise HypothesisViolated(
                    "delta + lambda_1*lambda_2*x_%d*x_%d = 0" % (r + 1, s + 1)
                )
        for lk in (l1, l2):
            if (delta - lk * lk * xr * xr).is_zero():
                raise HypothesisViolated("delta = lambda_k^2 x_%d^2" % (r + 1))


def _b_value(spec: AB2BlockSpec, mu: RatFunc, l1: RatFunc, l2: RatFunc, r: int) -> RatFunc:
    n = spec.size
    eps = 1 if n % 2 == 0 else 0
    delta = spec.delta
    xr = spec.x[r]
    prod_x = RatFunc.one()
    for xt in spec.x:
        prod_x = prod_x * xt
    first = mu * (l1 * l2 * xr + delta / xr) / delta * prod_x
    if (n - 1) % 2 == 1:
        first = -first
    power = (-(delta / (l1 * l2))) ** ((n - 1 - eps) // 2)
    second = (l1 + l2) * power
    if eps:
        second = second * xr
    return first - second


def _d_entry(spec: AB2BlockSpec, mu: RatFunc, l1: RatFunc, l2: RatFunc, r: int) -> RatFunc:
    delta = spec.delta
    xr = spec.x[r]
    out = mu * _b_value(spec, mu, l1, l2, r) / ((l1 - mu) * (l2 - mu))
    for s, xs in enumerate(spec.x):
        if s == r:
            continue
        out = out * (delta + l1 * l2 * xr * xs) / (delta * (xr - xs))
    return out


def ab2_matrix(spec: AB2BlockSpec, mu: RatFunc, gauge: str = "row") -> Matrix:
    """The block of the braid generator reconstructed from its projection data."""
    if gauge not in ("row", "column"):
        raise ValueError("gauge must be 'row' or 'column'")
    n = spec.size
    d = ab2_diag(spec, mu)
    l1, l2 = _pair_for(spec.a_spectrum, mu)
    delta = spec.delta
    # 0 for a 1-block, whose entry 2*mu*delta/(delta + mu^2 x^2) is then mu
    factor = (l1 - mu) * (l2 - mu) / mu
    entries = []
    for r in range(n):
        row = []
        for s in range(n):
            p = d[r] if gauge == "row" else d[s]
            val = factor * p
            if r == s:
                val = val + l1 + l2
            val = val * delta / (delta + l1 * l2 * spec.x[r] * spec.x[s])
            row.append(val.reduce())
        entries.append(row)
    return Matrix(entries)
