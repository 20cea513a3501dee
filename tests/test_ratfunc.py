from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubichecke.cyclotomic import Cyclotomic
from cubichecke.laurent import LaurentPoly, poly_gcd
from cubichecke.ratfunc import RatFunc, coprime_base, rat_sum, rebase

L1 = RatFunc.var(0)
L2 = RatFunc.var(1)
L3 = RatFunc.var(2)


def _polys(max_terms=3, max_exp=2):
    coeff = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2)
    term = st.tuples(
        st.tuples(*(st.integers(min_value=-1, max_value=max_exp) for _ in range(3))),
        coeff,
    )
    def build(terms):
        out = LaurentPoly.zero()
        for exps, c in terms:
            out = out + LaurentPoly.monomial(exps, Cyclotomic.from_rational(c))
        return out
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def _ratfuncs():
    return st.builds(
        lambda n, d: RatFunc(n, d),
        _polys(),
        _polys().filter(lambda p: not p.is_zero()),
    )


def test_eq_examples():
    assert L1 / L2 == (L1 * L3) / (L2 * L3)
    assert (L1 * L1 - L2 * L2) / (L1 - L2) == L1 + L2
    assert not L1 / L2 == L2 / L1


def test_reduce_examples():
    f = (L1 * L1 * L2) / (L1 * L2 * L2)
    r = f.reduce()
    assert r == L1 / L2
    g = ((L1 * L1 - L2 * L2) / (L1 - L2)).reduce()
    assert g == L1 + L2
    assert g.den.is_one()
    # idempotence
    again = g.reduce()
    assert again.num == g.num and again.den == g.den


def test_reduce_unit_normalization():
    two = RatFunc.const(Cyclotomic(2))
    f = (L1 + L2) / (L1 * two - L2 * two)
    r = f.reduce()
    _, lc = r.den.leading()
    assert lc.is_one()
    assert r == f


def test_pole_is_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(LaurentPoly.one(), LaurentPoly.zero())


def test_division():
    f = (L1 + L2) / (L1 - L2)
    assert f / f == RatFunc.one()
    assert (f * f.inv()) == RatFunc.one()


def test_rat_sum_matches_fold():
    items = [L1 / (L1 - L2), L2 / (L1 + L2), RatFunc.one()]
    total = RatFunc.zero()
    for x in items:
        total = total + x
    assert rat_sum(items) == total


def test_eval_point_with_cancellation():
    f = (L1 * L1 - L2 * L2) / (L1 - L2)
    pt = (Cyclotomic(3), Cyclotomic(3), Cyclotomic(7))
    # the unreduced denominator vanishes at the point; the value is finite
    assert f.eval_point(pt) == Cyclotomic(6)


@given(_ratfuncs(), _ratfuncs(), _ratfuncs())
@settings(max_examples=40)
def test_eq_is_an_equivalence(a, b, c):
    assert a == a
    if a == b:
        assert b == a
    if a == b and b == c:
        assert a == c


@given(_ratfuncs())
@settings(max_examples=40)
def test_reduce_preserves_eq(a):
    assert a.reduce() == a


@given(_ratfuncs(), _ratfuncs())
@settings(max_examples=40)
def test_field_ops(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a / b) * b == a


@given(_ratfuncs(), _ratfuncs().filter(lambda r: not r.is_zero()), _ratfuncs())
@settings(max_examples=100)
def test_equality_survives_round_trips_and_reduce(a, b, c):
    for other in ((a * b) / b, (a + c) - c, a.reduce()):
        assert other == a


def _catalog_cores():
    """Cores shaped like the catalog's ideals and the block formulas'
    denominators: l_a - u l_b and l_a^2 - u l_b l_c, u a 12th root of unity."""
    p = [LaurentPoly.var(k) for k in range(3)]
    unit = st.integers(min_value=0, max_value=11).map(lambda k: LaurentPoly.const(Cyclotomic(0, 1) ** k))
    pair = st.permutations(range(3)).map(lambda t: t[:2])
    linear = st.builds(lambda ab, u: p[ab[0]] - u * p[ab[1]], pair, unit)
    quadratic = st.builds(
        lambda abc, u: p[abc[0]] * p[abc[0]] - u * p[abc[1]] * p[abc[2]],
        st.permutations(range(3)), unit,
    )
    return st.one_of(linear, quadratic)


def _product(polys) -> LaurentPoly:
    out = LaurentPoly.one()
    for q in polys:
        out = out * q
    return out


@st.composite
def _overlapping_products(draw):
    """Lists of cores drawn from one small pool, so that keys share cores."""
    pool = draw(st.lists(_catalog_cores(), min_size=1, max_size=4))
    return draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                         min_size=1, max_size=5))


@given(_overlapping_products(), _polys())
@settings(max_examples=40)
def test_coprime_base_and_rebase(products, num):
    # one denominator key per product; the products share cores
    r = RatFunc.one() if num.is_zero() else RatFunc(num)
    for cores in products:
        r = r * RatFunc(LaurentPoly.one(), _product(cores))
    base = coprime_base(r.fac)
    for k, a in enumerate(base):
        for b in base[k + 1:]:
            assert poly_gcd(a, b).is_one()
    splits: dict = {}
    out = rebase(r, base, splits)
    assert out.num is r.num
    assert set(out.fac) <= set(base)
    for key in r.fac:
        split = splits[key]
        assert all(k > 0 for _core, k in split)
        assert _product(core ** k for core, k in split) == key
    assert out == r


def test_rebase_rejects_a_key_outside_its_base():
    r = RatFunc(LaurentPoly.one(), (L1 - L2).num * (L1 - L3).num)
    base = coprime_base([(L1 - L2).num])
    with pytest.raises(RuntimeError, match="does not factor"):
        rebase(r, base, {})


def test_representatives_pinned():
    """The stored representative, not just the value, stays fixed: reports
    print it."""
    p1, p2, p3 = (LaurentPoly.var(k) for k in range(3))
    theta = Cyclotomic(-1, 0, 1, 0)
    two = Cyclotomic.from_rational(2)
    a = RatFunc(p1, p1 + p2)
    b = RatFunc(LaurentPoly.monomial((0, -1, 0), theta), p2.scale(two) - p3)
    cases = {
        # non-unit leading coefficient and a negative exponent in the numerator
        "inv": RatFunc(
            LaurentPoly.monomial((-1, 0, 2), Cyclotomic(3, 1)) + p2.scale(two), p1 + p3
        ).inv(),
        "reduce_nonmonic": RatFunc(
            (p1.scale(two) + p2.scale(Cyclotomic(3))) * (p1 - p3),
            (p1.scale(two) - p3) * (p2.scale(theta) - p3.scale(Cyclotomic(5))),
        ).reduce(),
        "reduce_gcd": (
            RatFunc(p1 * p1 - p2 * p2, (p1 - p2).scale(Cyclotomic(0, 0, 0, 3)) * (p1 + p3))
            * RatFunc(LaurentPoly.monomial((0, -1, 0)))
        ).reduce(),
        "add": a + b,
        "sub": a - b,
        "unit_monomial_den": RatFunc(p1 + p2, LaurentPoly.monomial((1, -2, 0), Cyclotomic(3, 1))),
    }
    expected = {
        "inv": "(1/2*l1^2+1/2*l1*l3)/(l1*l2+(3/2+1/2*z)*l3^2)",
        "reduce_nonmonic": "(-z^2*l1^2-3/2*z^2*l1*l2+z^2*l1*l3+3/2*z^2*l2*l3)"
        "/(l1*l2+5*z^2*l1*l3-1/2*l2*l3-5/2*z^2*l3^2)",
        "reduce_gcd": "(-1/3*z^3*l1*l2^-1-1/3*z^3)/(l1+l3)",
        "add": "(l1*l2-1/2*l1*l3+(-1/2+1/2*z^2)*l1*l2^-1+(-1/2+1/2*z^2))"
        "/(l1*l2-1/2*l1*l3+l2^2-1/2*l2*l3)",
        "sub": "(l1*l2-1/2*l1*l3+(1/2-1/2*z^2)*l1*l2^-1+(1/2-1/2*z^2))"
        "/(l1*l2-1/2*l1*l3+l2^2-1/2*l2*l3)",
        "unit_monomial_den": "(24/73-8/73*z+3/73*z^2-1/73*z^3)*l2^2"
        "+(24/73-8/73*z+3/73*z^2-1/73*z^3)*l1^-1*l2^3",
    }
    assert {k: str(v) for k, v in cases.items()} == expected
