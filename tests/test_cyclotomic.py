from fractions import Fraction

from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cubichecke.cyclotomic import (
    Cyclotomic,
    I_UNIT,
    MINUS_ONE,
    ONE,
    THETA,
    THETA2,
    ZERO,
    ZETA,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
elements = st.builds(Cyclotomic, rationals, rationals, rationals, rationals)


def rat(p, q=1) -> Cyclotomic:
    """The rational number p/q as a Cyclotomic."""
    return Cyclotomic.from_rational(Fraction(p, q))


def rational_value(c: Cyclotomic) -> Fraction:
    """A rational element as a Fraction; it must have no z, z^2 or z^3 part."""
    assert not any(c.n[1:]), "not a rational element: %r" % (c,)
    return Fraction(c.n[0], c.d)


def test_theta_is_a_primitive_cube_root():
    assert THETA * THETA * THETA == ONE
    assert THETA != ONE
    assert ONE + THETA + THETA * THETA == ZERO
    assert THETA * THETA == THETA2


def test_i_is_a_fourth_root():
    assert I_UNIT * I_UNIT == MINUS_ONE
    assert I_UNIT ** 4 == ONE


def test_division():
    x = Cyclotomic(3, -2, 1, Fraction(1, 2))
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_rational_fast_paths():
    assert rat(3, 4) * rat(8) == rat(6)
    assert rat(3) + THETA == Cyclotomic(2, 0, 1)


@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(elements)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(elements, st.integers(min_value=-3, max_value=6))
def test_powers(a, n):
    assume(n >= 0 or not a.is_zero())
    base = a if n >= 0 else a.inverse()
    out = ONE
    for _ in range(abs(n)):
        out = out * base
    assert a ** n == out


# -- the stored integer form against a Fraction reference --------------------


def _value(a):
    """The four rational coefficients of a."""
    return [Fraction(x, a.d) for x in a.n]


def _ref_mul(x, y):
    """Product of coefficient lists, reduced mod z^4 = z^2 - 1."""
    out = [Fraction(0)] * 7
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    for k in range(6, 3, -1):
        out[k - 2] += out[k]
        out[k - 4] -= out[k]
    return out[:4]


def _assert_canonical(a):
    assert isinstance(a.d, int) and a.d > 0
    assert all(isinstance(x, int) for x in a.n) and len(a.n) == 4
    assert gcd(*a.n, a.d) == 1
    if not any(a.n):
        assert a.d == 1


@given(elements, elements, st.integers(min_value=-3, max_value=5))
def test_operations_stay_canonical_and_match_reference(a, b, k):
    x, y = _value(a), _value(b)
    results = [
        (a + b, [p + q for p, q in zip(x, y)]),
        (a - b, [p - q for p, q in zip(x, y)]),
        (a * b, _ref_mul(x, y)),
        (-a, [-p for p in x]),
    ]
    if not a.is_zero():
        ref = [Fraction(1), 0, 0, 0]
        for _ in range(abs(k)):
            ref = _ref_mul(ref, x)
        inv = a.inverse()
        _assert_canonical(inv)
        assert _ref_mul(x, _value(inv)) == [1, 0, 0, 0]
        if k < 0:
            assert _ref_mul(_value(a ** k), ref) == [1, 0, 0, 0]
        else:
            results.append((a ** k, ref))
    for got, want in results:
        _assert_canonical(got)
        assert _value(got) == want


@given(elements, elements)
def test_equal_elements_hash_alike(a, b):
    pairs = [(a * b, b * a), ((a + b) - b, a), (a - a, ZERO), (a * ONE, a)]
    if not b.is_zero():
        pairs.append(((a * b) / b, a))
    for u, v in pairs:
        assert u == v
        assert hash(u) == hash(v)


@pytest.mark.parametrize(
    "a, expected",
    [
        (THETA, THETA2),
        (I_UNIT, -I_UNIT),
        (ZETA, Cyclotomic(0, 1, 0, -1)),
        (rat(-3, 4), rat(-4, 3)),
        (rat(-5), rat(-1, 5)),
        (Cyclotomic(0, 0, Fraction(-7, 2)), Cyclotomic(Fraction(-2, 7), 0, Fraction(2, 7))),
    ],
)
def test_inverse_cases(a, expected):
    inv = a.inverse()
    _assert_canonical(inv)
    assert inv == expected
    assert a * inv == ONE


@pytest.mark.parametrize(
    "a, expected",
    [
        (Cyclotomic(Fraction(1, 2), -1, 0, Fraction(3, 4)), "1/2-z+3/4*z^3"),
        (Cyclotomic(0, Fraction(-2, 3), 1, -1), "-2/3*z+z^2-z^3"),
        (Cyclotomic(Fraction(-5, 6)), "-5/6"),
        (Cyclotomic(0, 0, Fraction(7, 2)), "7/2*z^2"),
        (THETA, "-1+z^2"),
        (ZERO, "0"),
        (
            Cyclotomic(3, -2, 1, Fraction(1, 2)).inverse(),
            "124/305+64/305*z-28/305*z^2-42/305*z^3",
        ),
    ],
)
def test_str_pinned(a, expected):
    assert str(a) == expected
