from fractions import Fraction

import pytest

from cubichecke.cyclotomic import Cyclotomic, THETA
from cubichecke.laurent import LaurentPoly
from cubichecke.matrix import Matrix
from cubichecke.ratfunc import RatFunc
from cubichecke.serialize import (
    canonical_dumps,
    cyc_from_json,
    cyc_to_json,
    envelope,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    ratfunc_from_json,
    ratfunc_to_json,
)


def test_rational_rendering():
    c = Cyclotomic(Fraction(3), Fraction(-1, 2), 0, Fraction(7, 3))
    data = cyc_to_json(c)
    assert data == ["3", "-1/2", "0", "7/3"]
    assert cyc_from_json(data) == c


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError, match="zero coefficient"):
        poly_from_json([[[0, 0, 0], ["0", "0", "0", "0"]]])
    with pytest.raises(ValueError, match="zero coefficient"):
        poly_from_json([[[1, 0, 0], ["1/2", "0", "0", "0"]], [[0, 0, 0], ["0", "0/7", "0", "0"]]])


_ONE = ["1", "0", "0", "0"]

# one malformed build-file entry per rule; each must raise ValueError
MALFORMED_ENTRIES = [
    ("five_strings", {"num": [[[0, 0, 0], ["1", "0", "0", "0", "0"]]], "den": [[[0, 0, 0], _ONE]]}),
    ("two_strings", {"num": [[[0, 0, 0], ["1", "0"]]], "den": [[[0, 0, 0], _ONE]]}),
    ("zero_denominator_string", {"num": [[[0, 0, 0], ["1/0", "0", "0", "0"]]], "den": [[[0, 0, 0], _ONE]]}),
    ("float_coefficient", {"num": [[[0, 0, 0], [0.1, "0", "0", "0"]]], "den": [[[0, 0, 0], _ONE]]}),
    ("empty_denominator", {"num": [[[0, 0, 0], _ONE]], "den": []}),
    ("two_int_exponent", {"num": [[[1, 0], _ONE]], "den": [[[0, 0, 0], _ONE]]}),
    ("float_exponent", {"num": [[[0.5, 0, 0], _ONE]], "den": [[[0, 0, 0], _ONE]]}),
    ("bool_exponent", {"num": [[[True, 0, 0], _ONE]], "den": [[[0, 0, 0], _ONE]]}),
    ("term_not_pair", {"num": [5], "den": [[[0, 0, 0], _ONE]]}),
    ("num_not_list", {"num": 5, "den": [[[0, 0, 0], _ONE]]}),
    ("entry_not_object", [1, 2]),
]


@pytest.mark.parametrize(
    "entry", [e for _name, e in MALFORMED_ENTRIES], ids=[n for n, _e in MALFORMED_ENTRIES]
)
def test_malformed_entry_rejected(entry):
    with pytest.raises(ValueError):
        ratfunc_from_json(entry)


def test_poly_roundtrip_and_order():
    p = LaurentPoly.var(0) * LaurentPoly.var(1) + LaurentPoly.monomial((-1, 0, 2), THETA)
    data = poly_to_json(p)
    assert data[0][0] == [-1, 0, 2]  # canonical ascending term order
    assert poly_from_json(data) == p


def test_ratfunc_roundtrip_canonical():
    f = (RatFunc.var(0) ** 2 - RatFunc.var(1) ** 2) / (RatFunc.var(0) - RatFunc.var(1))
    data = ratfunc_to_json(f)
    # serialized form is fully reduced
    assert data["den"] == poly_to_json(LaurentPoly.one())
    assert ratfunc_from_json(data) == f


def test_matrix_roundtrip():
    m = Matrix.diagonal([RatFunc.var(0), RatFunc.var(2)])
    data = matrix_to_json(m)
    assert matrix_from_json(data, 2) == m


def test_canonical_dumps_deterministic():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'


def test_envelope_digest_stable():
    e1 = envelope(["classify", "x"], {"ok": True})
    e2 = envelope(["classify", "x"], {"ok": True})
    assert e1["input_digest"] == e2["input_digest"]
    assert canonical_dumps(e1) == canonical_dumps(e2)
