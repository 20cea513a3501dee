from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubichecke.cyclotomic import Cyclotomic, THETA
from cubichecke.laurent import LaurentPoly, divides, exact_div, poly_gcd
from test_cyclotomic import rational_value

L1 = LaurentPoly.var(0)
L2 = LaurentPoly.var(1)
L3 = LaurentPoly.var(2)


def _small_polys(max_terms=4, max_exp=3):
    coeff = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3)
    term = st.tuples(
        st.tuples(*(st.integers(min_value=0, max_value=max_exp) for _ in range(3))),
        coeff,
    )
    def build(terms):
        out = LaurentPoly.zero()
        for exps, c in terms:
            out = out + LaurentPoly.monomial(exps, Cyclotomic.from_rational(c))
        return out
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def test_exact_div_examples():
    f = L1 * L1 - L2 * L2
    assert exact_div(f, L1 - L2) == L1 + L2
    assert exact_div(f, L1 + L2) == L1 - L2
    with pytest.raises(ValueError):
        exact_div(L1 * L1 + L2, L1 + L2)


def test_gcd_examples():
    assert poly_gcd(L1 * L1 - L2 * L2, L1 - L2) == L1 - L2
    g = poly_gcd((L1 + L2 * L3) * (L1 - L3), (L1 + L2 * L3) * (L2 + L3))
    assert g == L1 + L2 * L3
    p = L1 + L2.scale(THETA)
    assert poly_gcd(p * (L1 * L2 - L3 * L3), p * (L2 + L3)) == p
    # one-variable inputs take the same subresultant path
    one = LaurentPoly.one()
    assert poly_gcd(L1 * L1 - one, (L1 + one) * (L1 + one)) == L1 + one
    assert poly_gcd(L1 * L1 * L1 - one, L1 * L1 + L1 + one) == L1 * L1 + L1 + one
    assert poly_gcd(L1 * L1 + one, L1 + one) == one


def test_gcd_of_monomials():
    a = LaurentPoly.monomial((2, 1, 0))
    b = LaurentPoly.monomial((1, 3, 0))
    assert poly_gcd(a, b) == LaurentPoly.monomial((1, 1, 0))


def test_laurent_shift():
    f = (L1 * L1 - L2 * L2).mul_monomial((-3, 1, 0))
    shifted, mins = f.shift_nonnegative()
    assert mins == (-3, 1, 0)
    assert shifted == L1 * L1 - L2 * L2
    assert shifted.mul_monomial(mins) == f


def test_substitute():
    f = L1 + L2.scale(THETA)
    out = f.substitute(0, -THETA, (0, 1, 0))
    assert out.is_zero()


def test_eval_point():
    f = L1 * L2 - L3
    pt = (Cyclotomic(2), Cyclotomic(3), Cyclotomic(5))
    assert f.eval_point(pt) == Cyclotomic(1)


@given(_small_polys(), _small_polys())
@settings(max_examples=40)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    if f.is_zero() and g.is_zero():
        return
    assert divides(d, f) or f.is_zero()
    assert divides(d, g) or g.is_zero()


@given(_small_polys(max_terms=3, max_exp=2), _small_polys(max_terms=3, max_exp=2))
@settings(max_examples=30)
def test_gcd_against_sympy(f, g):
    import sympy

    x, y, z = sympy.symbols("x y z")

    def to_sympy(p):
        out = 0
        for e, c in p.terms.items():
            out += sympy.Rational(rational_value(c)) * x ** e[0] * y ** e[1] * z ** e[2]
        return out

    if f.is_zero() or g.is_zero():
        return
    ours = poly_gcd(f, g)
    theirs = sympy.gcd(to_sympy(f), to_sympy(g))
    # compare degree profiles; normalizations differ
    ours_sym = to_sympy(ours)
    quotient = sympy.simplify(ours_sym / theirs)
    assert quotient.is_constant(), (ours_sym, theirs)


@given(_small_polys(max_terms=3), _small_polys(max_terms=3))
@settings(max_examples=40)
def test_product_division_roundtrip(f, g):
    if g.is_zero():
        return
    prod = f * g
    assert exact_div(prod, g) == f
