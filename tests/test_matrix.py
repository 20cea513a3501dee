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


def test_charpoly_identity():
    cp = Matrix.identity(2).charpoly()
    # (x-1)^2 = 1 - 2x + x^2
    assert cp[0] == ONE and cp[1] == -(ONE + ONE) and cp[2] == ONE


def test_charpoly_diagonal():
    cp = Matrix.diagonal([L1, L2]).charpoly()
    assert cp[0] == L1 * L2
    assert cp[1] == -(L1 + L2)
    assert cp[2] == ONE


def test_charpoly_block_structure():
    m = Matrix([
        [L1, ONE, ZERO, ZERO],
        [L2, L1, ZERO, ZERO],
        [ZERO, ZERO, L3, ZERO],
        [ZERO, ZERO, ZERO, L2],
    ])
    cp = m.charpoly()
    # det(xI - M) evaluated at x = l3 vanishes
    total = ZERO
    power = ONE
    for c in cp:
        total = total + c * power
        power = power * L3
    assert total.is_zero()


def test_components_order_and_cycle_edges():
    # nodes in a scrambled order: groups follow it, inside and across groups
    nodes = ["e", "b", "d", "a", "c", "f"]
    edges = [("a", "b"), ("c", "d"), ("b", "e"), ("e", "a"), ("d", "c")]
    groups, joined = components(nodes, edges)
    assert groups == [["e", "b", "a"], ["d", "c"], ["f"]]
    # ("e", "a") closes the triangle, ("d", "c") repeats an edge
    assert joined == [True, True, True, False, False]
    assert components(range(3), []) == ([[0], [1], [2]], [])


def test_charpoly_matches_sympy_on_random_rationals():
    import sympy

    rng = random.Random(11)
    n = 5
    entries = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    m = Matrix([[RatFunc.const(Cyclotomic.from_rational(q)) for q in row] for row in entries])
    cp = m.charpoly()
    sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(entries[i][j]))
    x = sympy.symbols("x")
    want = sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]
    for ours, theirs in zip(cp, want):
        assert ours.num.const_value().rational_value() == Fraction(theirs)


def test_cayley_hamilton_exact():
    m = Matrix(
        [
            [L1, L2, ZERO],
            [ONE, L3, L1 / (L1 - L2)],
            [ZERO, L2, L1 + L3],
        ]
    )
    cp = m.charpoly()
    total = Matrix.zero(3, 3)
    power = Matrix.identity(3)
    for c in cp:
        total = total + power.scale(c)
        power = power * m
    assert total.is_zero()


def test_rows_are_read_only_and_add_scalar_builds_a_new_matrix():
    m = Matrix([[L1, ONE], [ZERO, L2]])
    with pytest.raises(TypeError):
        m.entries[0][0] = L3
    with pytest.raises(TypeError):
        m.entries[0] = (L3, L3)
    assert m.add_scalar(L3) == Matrix([[L1 + L3, ONE], [ZERO, L2 + L3]])
    assert m == Matrix([[L1, ONE], [ZERO, L2]])


@pytest.mark.parametrize("other", [Matrix.identity(3), Matrix.zero(2, 3), Matrix.zero(3, 2)])
def test_add_and_sub_reject_a_shape_mismatch(other):
    m = Matrix.identity(2)
    with pytest.raises(ValueError, match="shape mismatch"):
        m + other
    with pytest.raises(ValueError, match="shape mismatch"):
        m - other


def test_eigenprojection_diag():
    m = Matrix.diagonal([L1, L2])
    p = m.eigenprojection(L1, [(L1, 1), (L2, 1)])
    assert p.entries[0][0] == ONE
    assert p.entries[1][1].is_zero()
    assert p.trace() == ONE
    # resolution of identity
    q = m.eigenprojection(L2, [(L1, 1), (L2, 1)])
    assert (p + q) == Matrix.identity(2)
    assert (p * q).is_zero()
    # spectral reconstruction
    assert (p.scale(L1) + q.scale(L2)) == m


def test_eigenprojection_trace_is_multiplicity():
    m = Matrix.diagonal([L1, L1, L2])
    p = m.eigenprojection(L1, [(L1, 2), (L2, 1)])
    assert p.trace() == ONE + ONE


def test_eigenprojection_spectrum_mismatch():
    import pytest

    m = Matrix.diagonal([L1, L2])
    with pytest.raises(ValueError):
        m.eigenprojection(L1, [(L1, 1), (L3, 1)])


def test_rank():
    m = Matrix([[L1, L2], [L1 * L3, L2 * L3]])
    assert m.rank() == 1
    assert Matrix.identity(3).rank() == 3
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


def test_cayley_hamilton_on_assembled_generators():
    from cubichecke.builder import assemble
    from cubichecke.catalog import label4

    cases = [
        (label4((3, 2, 1)), (2, 3)),   # both six-dimensional generators
        (label4((3, 3, 3), 1), (2,)),  # the size-9 block-diagonal generator
    ]
    for label, indices in cases:
        g = assemble(label)
        for idx in indices:
            m = g.matrices[idx]
            cp = m.charpoly()
            total = Matrix.zero(m.rows, m.rows)
            power = Matrix.identity(m.rows)
            for k, c in enumerate(cp):
                if not c.is_zero():
                    total = total + power.scale(c)
                if k < len(cp) - 1:
                    power = power * m
            assert total.is_zero()
