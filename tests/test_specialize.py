import random

import pytest

from cubichecke.catalog import ideal_by_name
from cubichecke.cyclotomic import Cyclotomic, ONE, THETA, THETA2
from cubichecke.errors import PoleOnLocus
from cubichecke.laurent import LaurentPoly
from cubichecke.matrix import Matrix
from cubichecke.ratfunc import RatFunc
from cubichecke.specialize import BinomialLocus, Specialization, Substitution
from cubichecke.structure import _distinct_witness

L1 = LaurentPoly.var(0)
L2 = LaurentPoly.var(1)
L3 = LaurentPoly.var(2)


def test_generator_maps_to_zero():
    s = Specialization((Substitution(0, -THETA, (0, 1, 0)),), (L1 + L2.scale(THETA),))
    assert s.apply_poly(L1 + L2.scale(THETA)).is_zero()


def test_monomial_substitution_kills_quadratic_generator():
    gen = LaurentPoly.monomial((2, 0, 0)) - LaurentPoly.monomial((0, 1, 1), THETA)
    s = Specialization(
        (Substitution(2, THETA2, (2, -1, 0)),), (gen,)
    )
    assert s.apply_poly(gen).is_zero()
    assert s.apply_poly(LaurentPoly.monomial((3, 0, 0)) - LaurentPoly.monomial((0, 2, 1))).is_zero() is False


def test_cubic_substitution():
    gen = LaurentPoly.monomial((3, 0, 0)) - LaurentPoly.monomial((0, 2, 1))
    s = Specialization((Substitution(2, ONE, (3, -2, 0)),), (gen,))
    assert s.apply_poly(gen).is_zero()


def test_triangularity_enforced():
    with pytest.raises(ValueError):
        Specialization(
            (
                Substitution(1, -THETA, (0, 0, 1)),
                Substitution(0, -THETA, (0, 1, 0)),  # uses the eliminated l2
            ),
            (),
        )
    with pytest.raises(ValueError):
        Specialization((Substitution(0, ONE, (1, 0, 0)),), ())


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        Specialization((Substitution(0, -THETA, (0, 1, 0)),), (L1 + L2,))


def test_specialize_is_a_homomorphism():
    rng = random.Random(5)
    s = ideal_by_name("l1^3-l2^2*l3").param
    for _ in range(20):
        def rand_poly():
            out = LaurentPoly.zero()
            for _ in range(3):
                exps = tuple(rng.randint(-2, 2) for _ in range(3))
                out = out + LaurentPoly.monomial(exps, Cyclotomic(rng.randint(-3, 3)))
            return out
        f, g = rand_poly(), rand_poly()
        assert s.apply_poly(f * g) == s.apply_poly(f) * s.apply_poly(g)
        assert s.apply_poly(f + g) == s.apply_poly(f) + s.apply_poly(g)


def test_ratfunc_pole_detection():
    s = ideal_by_name("l1+l2").param
    f = RatFunc(LaurentPoly.one(), L1 + L2)
    with pytest.raises(PoleOnLocus):
        s.apply_ratfunc(f)
    # in a matrix, the error names the entry with the pole
    zero = RatFunc.zero()
    with pytest.raises(PoleOnLocus) as err:
        s.apply_matrix(Matrix([[RatFunc.one(), zero], [zero, f]]))
    assert err.value.what is f
    # a removable pole specializes fine
    g = RatFunc((L1 + L2) * L3, L1 + L2)
    assert s.apply_ratfunc(g) == s.apply_ratfunc(RatFunc.var(2))


def test_random_point_lies_on_locus():
    rng = random.Random(9)
    for name in ("l1+theta*l2", "l2^3-l1^2*l3", "l1^2+l2*l3"):
        spec = ideal_by_name(name)
        pt = spec.param.random_point(rng)
        assert spec.generator.eval_point(pt).is_zero()
        assert len({str(c) for c in pt}) == 3


def test_binomial_locus_evaluation():
    # l2 = i l3 and l1^2 = -i l3^2: a double locus needing zeta8
    i_unit = Cyclotomic(0, 0, 0, 1)
    base = Specialization((Substitution(1, i_unit, (0, 0, 1)),), ())
    locus = BinomialLocus(
        base, LaurentPoly.monomial((2, 0, 0)) + LaurentPoly.monomial((0, 0, 2), i_unit)
    )
    gen1 = LaurentPoly.monomial((0, 3, 0)) - LaurentPoly.monomial((2, 0, 1))
    gen2 = LaurentPoly.monomial((0, 0, 3)) - LaurentPoly.monomial((2, 1, 0))
    sq = LaurentPoly.monomial((0, 2, 0)) + LaurentPoly.monomial((0, 0, 2))
    assert locus.vanishes(gen1)
    assert locus.vanishes(gen2)
    assert locus.vanishes(sq)
    assert not locus.vanishes(L2 + L3)
    assert _distinct_witness(locus) is None
