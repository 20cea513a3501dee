from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubichecke.cyclotomic import Cyclotomic, ONE, THETA, ZERO
from cubichecke.laurent import LaurentPoly, divides, exact_div, multiplicity, poly_gcd
from cubichecke.serialize import poly_from_json
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
        for e, c in p.term_items():
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


# -- the integer kernel against dict-of-Cyclotomic oracles ---------------------------
#
# The oracles are the term-by-term algorithms on {exponent tuple: Cyclotomic}
# dicts that the integer kernel replaced.


def _terms(p: LaurentPoly) -> dict:
    return dict(p.term_items())


def _accumulate(out: dict, e, c):
    s = out.get(e, ZERO) + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _accumulate(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, c)
    return out


def oracle_substitute(a: dict, var: int, coeff: Cyclotomic, exps) -> dict:
    out: dict = {}
    for e, c in a.items():
        m = e[var]
        new = tuple((0 if k == var else x) + m * exps[k] for k, x in enumerate(e))
        _accumulate(out, new, c * coeff ** m)
    return out


def oracle_eval(a: dict, values) -> Cyclotomic:
    total = ZERO
    for e, c in a.items():
        acc = c
        for v, x in zip(values, e):
            acc = acc * v ** x
        total = total + acc
    return total


def oracle_div(f: dict, g: dict, budget=None, cap=30) -> dict:
    """Division taking max(rem) over the whole remainder once per quotient
    term; a monomial divisor ignores the budget.  An inexact division can run
    long before a quotient exponent turns negative, so more than ``cap``
    quotient terms also raise (exact quotients in these tests have fewer)."""
    rem = dict(f)
    eg = max(g)
    inv = g[eg].inverse()
    if len(g) == 1:
        budget = None
    quotient: dict = {}
    steps = 0
    while rem:
        e = max(rem)
        q = tuple(x - y for x, y in zip(e, eg))
        if min(q) < 0:
            raise ValueError("inexact division")
        steps += 1
        if budget is not None and steps > budget or steps > cap:
            raise ValueError("division budget exceeded")
        qc = rem.pop(e) * inv
        quotient[q] = qc
        for h, c in g.items():
            if h != eg:
                _accumulate(rem, tuple(x + y for x, y in zip(q, h)), -(qc * c))
    return quotient


def assert_canonical(p: LaurentPoly):
    """d > 0, no zero numerator tuple, gcd(numerators, d) == 1, zero is {} over 1,
    and lo, hi bound every exponent."""
    assert isinstance(p.d, int) and p.d > 0
    assert all(len(n) == 4 and any(n) for n in p.terms.values())
    assert gcd(p.d, *chain.from_iterable(p.terms.values())) == 1
    assert p.terms or p.d == 1
    assert all(p.lo <= x <= p.hi for e, _c in p.term_items() for x in e)


_QS = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12)
COEFFS = {
    "rational": _QS.map(Cyclotomic),
    "z2": st.tuples(_QS, _QS).map(lambda t: Cyclotomic(t[0], 0, t[1])),
    "general": st.tuples(_QS, _QS, _QS, _QS).map(lambda t: Cyclotomic(*t)),
}


def laurent_polys(kind, low=-3, high=3, max_terms=5):
    exps = st.tuples(*(st.integers(min_value=low, max_value=high) for _ in range(3)))
    return st.dictionaries(exps, COEFFS[kind], max_size=max_terms).map(LaurentPoly)


KINDS = st.sampled_from(sorted(COEFFS))
POLYS = KINDS.flatmap(laurent_polys)
ORDINARY = KINDS.flatmap(lambda kind: laurent_polys(kind, low=0, high=2, max_terms=4))
NONZERO = COEFFS["general"].filter(lambda c: not c.is_zero())


@given(POLYS, POLYS, st.integers(min_value=0, max_value=2), NONZERO,
       st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in range(3))),
       st.tuples(NONZERO, NONZERO, NONZERO))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_oracles(a, b, var, coeff, exps, point):
    exps = tuple(0 if k == var else x for k, x in enumerate(exps))
    ta, tb = _terms(a), _terms(b)
    cases = [
        (a * b, oracle_mul(ta, tb)),
        (a + b, oracle_add(ta, tb)),
        (a - b, oracle_add(ta, {e: -c for e, c in tb.items()})),
        (a.substitute(var, coeff, exps), oracle_substitute(ta, var, coeff, exps)),
        (a.scale(coeff), {e: c * coeff for e, c in ta.items()}),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert _terms(got) == want
        assert got == LaurentPoly(want)
        assert hash(got) == hash(LaurentPoly(want))
    assert a.eval_point(point) == oracle_eval(ta, point)
    assert (a * b).eval_point(point) == a.eval_point(point) * b.eval_point(point)


@given(POLYS, POLYS)
@settings(max_examples=60, deadline=None)
def test_equality_agrees_with_hash(a, b):
    pairs = [(a * b, b * a), ((a + b) - b, a), (a - a, LaurentPoly.zero()), (a * LaurentPoly.one(), a)]
    for u, v in pairs:
        assert_canonical(u)
        assert u == v
        assert hash(u) == hash(v)


@given(ORDINARY, ORDINARY, st.sampled_from([None, 1, 3]))
@settings(max_examples=100, deadline=None)
def test_exact_div_matches_oracle(f, g, budget):
    assume(not g.is_zero() and not f.is_zero())
    for num in (f * g, f):
        try:
            want = oracle_div(_terms(num), _terms(g), budget)
        except ValueError:
            with pytest.raises(ValueError):
                exact_div(num, g, budget=budget)
        else:
            got = exact_div(num, g, budget=budget)
            assert_canonical(got)
            assert _terms(got) == want
    assert exact_div(f * g, g) == f


def test_multiplicity_examples():
    g = L1 - L2
    f = g * g * g * (L1 + L3)
    assert multiplicity(g, f) == (3, L1 + L3)
    # ``most`` caps the count
    assert multiplicity(g, f, 2) == (2, g * (L1 + L3))
    # a divisor that does not go leaves f as it is
    assert multiplicity(L1 + L2, f) == (0, f)
    assert multiplicity(L1 * L1 + L2, L1 * L1 * L1 + L2) == (0, L1 * L1 * L1 + L2)
    # ``budget`` caps the quotient terms of each division; f / g has 6 terms
    assert multiplicity(g, f, budget=5) == (0, f)
    assert multiplicity(g, f, budget=6) == (3, L1 + L3)
    assert divides(g, f) and not divides(L1 + L2, f)


@given(ORDINARY, ORDINARY, st.integers(min_value=0, max_value=3), st.sampled_from([None, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_multiplicity_splits_off_the_power(f, g, k, most):
    assume(not f.is_zero() and not g.is_const())
    f = f * g ** k
    got, q = multiplicity(g, f, most)
    assert_canonical(q)
    assert q * g ** got == f
    assert got >= min(k, most or k)
    assert got == most or not divides(g, q)


@given(POLYS, st.integers(min_value=0, max_value=6), NONZERO,
       st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(3))))
@settings(max_examples=40, deadline=None)
def test_powers_match_repeated_products(a, n, c, exps):
    out = LaurentPoly.one()
    for _ in range(n):
        out = out * a
    assert a ** n == out
    # a negative power is defined for a monomial only
    m = LaurentPoly.monomial(exps, c)
    inv = LaurentPoly.monomial(tuple(-x for x in exps), c.inverse())
    out = LaurentPoly.one()
    for _ in range(n):
        out = out * inv
    assert m ** -n == out
    if len(a.terms) > 1:
        with pytest.raises(ValueError):
            a ** -1


@given(ORDINARY, ORDINARY)
@settings(max_examples=60, deadline=None)
def test_exact_div_rejects_non_multiples(a, b):
    assume(not a.is_zero() and not b.is_const())
    # a*b + 1 is 1 modulo b, which is no unit
    with pytest.raises(ValueError):
        exact_div(a * b + LaurentPoly.one(), b)


@given(*(KINDS.flatmap(lambda kind: laurent_polys(kind, low=0, high=2, max_terms=3)),) * 3)
@settings(max_examples=25, deadline=None)
def test_gcd_keeps_a_common_factor(a, b, c):
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    g = poly_gcd(a * c, b * c)
    assert_canonical(g)
    assert divides(c, g)
    assert divides(g, a * c) and divides(g, b * c)


def test_exponents_outside_the_packed_range_raise():
    top = 2 ** 19 - 1
    for exps in ((top + 1, 0, 0), (0, -top - 1, 0), (0, 0, 2 ** 40)):
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(exps)
    with pytest.raises(ValueError):
        poly_from_json([[[0, top + 1, 0], ["1", "0", "0", "0"]]])
    # a product, a shift or a substitution that would carry into the next
    # field raises instead of wrapping
    high = LaurentPoly.monomial((0, top, 0))
    low = LaurentPoly.monomial((0, 0, -top))
    with pytest.raises(OverflowError):
        high * L2
    with pytest.raises(OverflowError):
        low * LaurentPoly.monomial((0, 0, -1))
    with pytest.raises(OverflowError):
        high.mul_monomial((0, 1, 0))
    with pytest.raises(OverflowError):
        LaurentPoly.monomial((1, top - 1, 0)).substitute(0, ONE, (0, 2, 0))
    half = LaurentPoly.monomial((2 ** 18, 0, 0))
    with pytest.raises(OverflowError):
        half * half
    # the largest exponents that fit are exact
    edge = LaurentPoly.monomial((0, top - 1, 0)) * L2
    assert edge.sorted_terms() == [((0, top, 0), ONE)]
    assert (low * L3).sorted_terms() == [((0, 0, 1 - top), ONE)]
    assert (high * low).sorted_terms() == [((0, top, -top), ONE)]
