from fractions import Fraction
from math import gcd
import random

import pytest

from cubichecke.cyclotomic import Cyclotomic
from cubichecke.matrix import Matrix, components, eval_matrix, num_eigenprojection, num_mat_mul
from cubichecke.ratfunc import RatFunc

L1 = RatFunc.var(0)
L2 = RatFunc.var(1)
L3 = RatFunc.var(2)
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def test_components_order_and_cycle_edges():
    # nodes in a scrambled order: groups follow it, inside and across groups
    nodes = ["e", "b", "d", "a", "c", "f"]
    edges = [("a", "b"), ("c", "d"), ("b", "e"), ("e", "a"), ("d", "c")]
    groups, joined = components(nodes, edges)
    assert groups == [["e", "b", "a"], ["d", "c"], ["f"]]
    # ("e", "a") closes the triangle, ("d", "c") repeats an edge
    assert joined == [True, True, True, False, False]
    assert components(range(3), []) == ([[0], [1], [2]], [])


def test_rows_are_read_only_and_add_scalar_builds_a_new_matrix():
    m = Matrix([[L1, ONE], [ZERO, L2]])
    with pytest.raises(TypeError):
        m.entries[0][0] = L3
    with pytest.raises(TypeError):
        m.entries[0] = (L3, L3)
    assert m.add_scalar(L3) == Matrix([[L1 + L3, ONE], [ZERO, L2 + L3]])
    assert m == Matrix([[L1, ONE], [ZERO, L2]])


def test_eigenprojection_diag():
    pt = (Cyclotomic(2), Cyclotomic(5), Cyclotomic(7))
    m = eval_matrix(Matrix.diagonal([L1, L2]), pt)
    p = num_eigenprojection(m, Cyclotomic(2), [Cyclotomic(5)])
    q = num_eigenprojection(m, Cyclotomic(5), [Cyclotomic(2)])
    one, zero = Cyclotomic(1), Cyclotomic(0)
    assert p == [[one, zero], [zero, zero]]
    # resolution of identity, orthogonality and spectral reconstruction
    assert [[x + y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)] == [[one, zero], [zero, one]]
    assert num_mat_mul(p, q) == [[zero, zero], [zero, zero]]
    assert [
        [Cyclotomic(2) * x + Cyclotomic(5) * y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)
    ] == m


def test_eigenprojection_trace_is_multiplicity():
    pt = (Cyclotomic(2), Cyclotomic(5), Cyclotomic(7))
    m = eval_matrix(Matrix.diagonal([L1, L1, L2]), pt)
    p = num_eigenprojection(m, Cyclotomic(2), [Cyclotomic(5)])
    assert p[0][0] + p[1][1] + p[2][2] == Cyclotomic(2)


def test_rank():
    m = Matrix([[L1, L2], [L1 * L3, L2 * L3]])
    assert m.rank() == 1
    assert Matrix.diagonal([ONE] * 3).rank() == 3
    assert Matrix.zero(2, 2).rank() == 0


def test_eval_and_numeric_projection():
    m = Matrix.diagonal([L1, L2])
    pt = (Cyclotomic(2), Cyclotomic(5), Cyclotomic(7))
    nm = eval_matrix(m, pt)
    proj = num_eigenprojection(nm, Cyclotomic(2), [Cyclotomic(5)])
    assert proj[0][0] == Cyclotomic(1)
    assert proj[1][1] == Cyclotomic(0)


def test_evaluation_commutes_with_product():
    import random

    rng = random.Random(17)

    def rand_entry():
        num = LaurentPoly_rand(rng)
        den = LaurentPoly_rand(rng, nonzero=True)
        return RatFunc(num, den)

    def LaurentPoly_rand(rng, nonzero=False):
        from cubichecke.laurent import LaurentPoly

        out = LaurentPoly.zero()
        for _ in range(rng.randint(0 if not nonzero else 1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + LaurentPoly.monomial(exps, Cyclotomic(rng.randint(-3, 3)))
        if nonzero and out.is_zero():
            out = LaurentPoly.one()
        return out

    a = Matrix([[rand_entry() for _ in range(2)] for _ in range(2)])
    b = Matrix([[rand_entry() for _ in range(2)] for _ in range(2)])
    pt = (Cyclotomic(3), Cyclotomic(5), Cyclotomic(11))
    lhs = eval_matrix(a * b, pt)
    rhs = num_mat_mul(eval_matrix(a, pt), eval_matrix(b, pt))
    assert lhs == rhs


def _random_cyclotomic(rng):
    """Zero, a rational, an element of Q(z^2) or a general element of Q(zeta12),
    with denominators up to 12."""
    kind = rng.randrange(4)
    if kind == 0:
        return Cyclotomic()
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(4)]
    if kind == 1:
        coeffs[1:] = [0, 0, 0]
    elif kind == 2:
        coeffs[1] = coeffs[3] = 0
    return Cyclotomic(*coeffs)


def _random_cyc_matrix(rng, rows, cols, zero_rows=(), zero_cols=()):
    return [
        [Cyclotomic() if i in zero_rows or j in zero_cols else _random_cyclotomic(rng)
         for j in range(cols)]
        for i in range(rows)
    ]


def _reference_mul(a, b):
    """The schoolbook product, one Cyclotomic product and sum per term."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Cyclotomic()) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@pytest.mark.parametrize(
    "shape_a, shape_b, zeros_a, zeros_b",
    [
        ((4, 4), (4, 4), ((), ()), ((), ())),
        ((5, 5), (5, 5), ((1, 3), (2,)), ((0,), (1, 4))),
        ((3, 3), (3, 3), ((0, 1, 2), ()), ((), ())),
        ((3, 3), (3, 3), ((), ()), ((), (0, 1, 2))),
        ((2, 3), (3, 4), ((), ()), ((), ())),
        ((2, 3), (3, 4), ((1,), ()), ((), (2,))),
    ],
    ids=["square", "zero-rows-cols", "zero-left", "zero-right", "rect", "rect-zeros"],
)
def test_num_mat_mul_matches_reference_fold(shape_a, shape_b, zeros_a, zeros_b):
    rng = random.Random(repr((shape_a, shape_b, zeros_a, zeros_b)))
    for _ in range(10):
        a = _random_cyc_matrix(rng, *shape_a, *zeros_a)
        b = _random_cyc_matrix(rng, *shape_b, *zeros_b)
        got = num_mat_mul(a, b)
        assert got == _reference_mul(a, b)
        assert len(got) == shape_a[0] and all(len(row) == shape_b[1] for row in got)
        for x in (x for row in got for x in row):
            assert x.d > 0 and gcd(*x.n, x.d) == 1
            if x.is_zero():
                assert x.d == 1
