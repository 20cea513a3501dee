import hashlib

import pytest

from cubichecke.catalog import (
    catalog_regular,
    enumerate_paths,
    ideal_by_name,
    label2,
    label3,
    label4,
)
from cubichecke.cyclotomic import THETA
from cubichecke.errors import HypothesisViolated, PathBasisUnavailable
from cubichecke.jm import (
    AB2BlockSpec,
    _b_value,
    _pair_for,
    ab2_diag,
    ab2_matrix,
    block_spec,
)
from cubichecke.matrix import Matrix
from cubichecke.ratfunc import RatFunc, rat_sum, valuation
from cubichecke.serialize import canonical_dumps, matrix_to_json, ratfunc_to_json

L1 = RatFunc.var(0)
L2 = RatFunc.var(1)
L3 = RatFunc.var(2)
ONE = RatFunc.one()

# sha256 of every catalog block's projection diagonals and both-gauge matrices
CATALOG_BLOCK_DIGEST = "8bfb7f3d58b396884ffecb89c4c80c83a8f0302f74ba26538460bf520f4d7f02"


def ab2_matrix_closed_form(spec: AB2BlockSpec, mu: RatFunc) -> Matrix:
    """Off-diagonal entries straight from the closing formula (row gauge): an
    independent cross-check of the projection route of ``ab2_matrix``."""
    n = spec.size
    l1, l2 = _pair_for(spec.a_spectrum, mu)
    delta = spec.delta
    m = ab2_matrix(spec, mu, "row")

    def entry(r, t):
        if r == t:
            return m.entries[r][r]
        val = _b_value(spec, mu, l1, l2, r) / (spec.x[r] - spec.x[t])
        for s in range(n):
            if s in (r, t):
                continue
            val = val * (delta + l1 * l2 * spec.x[r] * spec.x[s]) / (
                delta * (spec.x[r] - spec.x[s])
            )
        return val.reduce()

    return Matrix([[entry(r, t) for t in range(n)] for r in range(n)])


def test_block_spec_6dim():
    b = block_spec(label2(1), label4((3, 2, 1)), 3)
    assert [str(x.reduce()) for x in b.x] == ["l1^2*l2^2*l3^2", "-l1^3*l2^3", "l1^6"]
    assert b.delta == RatFunc.monomial((8, 4, 2))
    assert [(str(e), m) for e, m in b.a_spectrum] == [("l1", 1), ("l2", 1), ("l3", 1)]
    assert b.rank1_eigenvalue == L1


def test_block_spec_8dim():
    b = block_spec(label2(1), label4((4, 2, 2)), 3)
    assert [str(x.reduce()) for x in b.x] == [
        "l1^6", "-l1^3*l2^3", "l1^2*l2^2*l3^2", "-l1^3*l3^3",
    ]
    assert b.delta == RatFunc.monomial((8, 3, 3))
    assert dict((str(e), m) for e, m in b.a_spectrum) == {"l1": 2, "l2": 1, "l3": 1}
    assert b.rank1_eigenvalue == L2  # smallest-index multiplicity-1 eigenvalue


def test_block_spec_level3():
    b = block_spec(None, label3((1, 1, 1)), 2)
    assert [str(x) for x in b.x] == ["l1^2", "l2^2", "l3^2"]
    assert b.delta == RatFunc.monomial((2, 2, 2))


def test_block_spec_9dim_delta():
    b = block_spec(label2(1), label4((3, 3, 3), 1), 3)
    assert b.delta == RatFunc.monomial((6, 4, 4), THETA)


def test_diag_sums_to_one_and_matrix_relations():
    b = block_spec(label2(1), label4((3, 2, 1)), 3)
    d = ab2_diag(b, L3)
    assert rat_sum(d) == ONE
    a = ab2_matrix(b, L3, "row")
    t = Matrix.diagonal(list(b.x))
    n = b.size
    atat = a * t * a * t
    tata = t * a * t * a
    for i in range(n):
        for j in range(n):
            want = b.delta if i == j else RatFunc.zero()
            assert (atat.entries[i][j] - want).is_zero()
            assert (tata.entries[i][j] - want).is_zero()
    minpoly = Matrix.diagonal([ONE] * n)
    for ev, _m in b.a_spectrum:
        minpoly = minpoly * a.add_scalar(-ev)
    assert minpoly == Matrix.zero(n, n)
    assert a == ab2_matrix_closed_form(b, L3)


def test_row_column_duality():
    b = block_spec(label2(1), label4((4, 2, 2)), 3)
    row = ab2_matrix(b, L3, "row")
    col = ab2_matrix(b, L3, "column")
    n = b.size
    for i in range(n):
        assert (row.entries[i][i] - col.entries[i][i]).is_zero()
        for j in range(n):
            lhs = row.entries[i][j] * row.entries[j][i]
            rhs = col.entries[i][j] * col.entries[j][i]
            assert (lhs - rhs).is_zero()


def test_projection_rank_one_identity():
    b = block_spec(label2(1), label4((3, 2, 1)), 3)
    d = ab2_diag(b, L2)
    # p_rs p_sr = d_r d_s in either gauge
    for r in range(b.size):
        for s in range(b.size):
            assert (d[r] * d[s] - d[r] * d[s]).is_zero()


def test_one_by_one_block():
    b = block_spec(label2(3), label4((3, 2, 1)), 3)
    assert b.size == 1
    a = ab2_matrix(b, L1, "row")
    assert a.entries[0][0] == L1
    # delta = x^2 lambda^2 is required
    bad = AB2BlockSpec(b.x, b.delta * L1, b.a_spectrum, b.rank1_eigenvalue)
    with pytest.raises(HypothesisViolated):
        ab2_matrix(bad, L1, "row")


def test_two_block_consistency_condition():
    b = block_spec(label2(1), label4((2, 1, 0)), 3)
    assert b.size == 2
    bad = AB2BlockSpec(b.x, b.delta * L1, b.a_spectrum, b.rank1_eigenvalue)
    with pytest.raises(HypothesisViolated, match="2-block"):
        ab2_diag(bad, b.rank1_eigenvalue)
    with pytest.raises(HypothesisViolated, match="2-block"):
        ab2_matrix(bad, b.rank1_eigenvalue, "row")


def test_catalog_blocks_pinned_by_digest():
    specs = [block_spec(None, s.label, 2) for s in catalog_regular(3)]
    for s4 in catalog_regular(4):
        for g2 in sorted({t.g2 for t in enumerate_paths(s4.label)}):
            specs.append(block_spec(g2, s4.label, 3))
    assert sorted(s.size for s in specs) == [1] * 27 + [2] * 21 + [3] * 13 + [4] * 3
    records = []
    for spec in specs:
        diags = [
            [ratfunc_to_json(v) for v in ab2_diag(spec, mu)]
            for mu, m in spec.a_spectrum
            if m == 1
        ]
        mats = [
            matrix_to_json(ab2_matrix(spec, spec.rank1_eigenvalue, gauge))
            for gauge in ("row", "column")
        ]
        records.append([diags, mats])
    digest = hashlib.sha256(canonical_dumps(records).encode()).hexdigest()
    assert digest == CATALOG_BLOCK_DIGEST


def test_multiplicity_requirement():
    b = block_spec(label2(1), label4((4, 2, 2)), 3)
    with pytest.raises(HypothesisViolated):
        ab2_diag(b, L1)  # multiplicity 2


def test_x_collision_detection():
    b = block_spec(None, label3((1, 1, 1)), 2)
    ctx = ideal_by_name("l2+l3").param
    with pytest.raises(PathBasisUnavailable):
        b.check_x_distinct(ctx)


def test_vanishing_order():
    p = ideal_by_name("l1+theta*l2")
    gen = RatFunc(p.generator)
    f = gen * gen * L3
    assert valuation(f, p.generator) == 2
    assert valuation(L1 - L2, p.generator) == 0
    cubic = ideal_by_name("l2^3-l1^2*l3")
    d2 = -((L2 ** 3 - L1 * L1 * L3) * (L3 ** 3 - L1 * L1 * L2)) / (
        (L1 * L2 + L3 * L3) * (L1 - L3) * (L2 - L3) * (L1 * L1 - L1 * L2 + L2 * L2)
    )
    assert valuation(d2, cubic.generator) == 1
    with pytest.raises(ValueError):
        valuation(RatFunc.zero(), p.generator)
