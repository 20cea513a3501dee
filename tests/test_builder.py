import dataclasses
from fractions import Fraction
import hashlib

import pytest

from cubichecke.builder import (
    HALF_TWIST,
    GeneratorSet,
    _solve_gauge,
    assemble,
    assemble_generic,
    delta4_weight_charpoly,
    eval_word,
    path_weights,
    scaled_projection,
    verify,
    weight_operator,
    weight_report,
)
from cubichecke.catalog import (
    catalog_regular,
    enumerate_paths,
    ideal_by_name,
    label3,
    label4,
)
from cubichecke.cyclotomic import Cyclotomic
from cubichecke.errors import CubicHeckeError, GaugeInconsistent
from cubichecke.matrix import Matrix, eval_matrix, num_eigenprojection, num_mat_mul
from cubichecke.ratfunc import RatFunc, coprime_base, rat_sum
from cubichecke.serialize import canonical_dumps, matrix_to_json
from test_cyclotomic import rational_value

L1 = RatFunc.var(0)
L2 = RatFunc.var(1)
L3 = RatFunc.var(2)


def test_small_generic_assemblies_verify():
    for exps, theta in (((1, 0, 0), 0), ((1, 1, 0), 0), ((2, 1, 0), 0), ((1, 1, 1), 0)):
        g = assemble(label4(exps, theta))
        rep = verify(g)
        assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


def test_six_dim_generic():
    g = assemble(label4((3, 2, 1)))
    rep = verify(g)
    assert rep.all_passed
    assert g.S1.entries[0][0] == L1
    # S2, S3 are block diagonal over the path groupings
    for k, t in enumerate(g.basis):
        for j, s in enumerate(g.basis):
            if t.g3 != s.g3:
                assert g.matrices[2].entries[k][j].is_zero()
            if t.g2 != s.g2:
                assert g.S3.entries[k][j].is_zero()


def test_three_dim_s3_copies_s1():
    g = assemble(label4((1, 1, 1)))
    assert g.S3 == g.S1


def test_k3_assembly():
    for exps in ((1, 0, 0), (1, 1, 0), (1, 1, 1)):
        g = assemble(label3(exps))
        rep = verify(g)
        assert rep.all_passed
        names = [c.name for c in rep.checks]
        assert names == ["braid_S1_S2", "cubic_S1", "cubic_S2", "delta_sq_scalar"]
    ctx = ideal_by_name("l1^2+l2*l3").param
    g = assemble(label3((1, 1, 1)), ctx)
    assert verify(g).all_passed


def test_specialized_assembly_verifies():
    six = label4((3, 2, 1))
    for name in ("l1+l3", "l1^3-l2^2*l3"):
        g = assemble(six, ideal_by_name(name).param)
        rep = verify(g)
        assert rep.all_passed, name


def test_specialized_assembly_charpoly_matches_generic():
    # equal power traces tr(S2^k), k = 1..6, give equal characteristic
    # polynomials of the 6x6 S2 in characteristic 0
    six = label4((3, 2, 1))
    p = ideal_by_name("l1^3-l2^2*l3")
    generic = assemble(six).matrices[2]
    special = assemble(six, p.param).matrices[2]

    def power_traces(m):
        power, out = m, []
        for _ in range(6):
            out.append(rat_sum([power.entries[i][i] for i in range(m.rows)]))
            power = (power * m).map(lambda a: a.reduce())
        return out

    for a, b in zip(power_traces(generic), power_traces(special)):
        assert (p.param.apply_ratfunc(a) - b).is_zero()


def test_gauge_certificate_reports_pins():
    g = assemble(label4((4, 2, 2)))
    assert g.certificate["pinned"] == 6
    assert set(g.certificate["solved"]) == {0, 1}


def test_gauge_free_pins_and_inconsistency():
    # with S2 = I the residual S3' - S3'^2 is one monomial per entry, so no
    # entry pins the two cycle scalars of the 8-dim module: both are pinned to
    # 1, which is consistent for S3 = I and not for S3 = 2I
    paths = enumerate_paths(label4((4, 2, 2)))
    one = Matrix.diagonal([RatFunc.one()] * len(paths))
    s3, cert = _solve_gauge(paths, one, one)
    assert s3 == one
    assert cert["free_pinned"] == 2
    with pytest.raises(GaugeInconsistent):
        _solve_gauge(paths, one, one.scale(RatFunc.const(Cyclotomic(2))))


# sha256 over the 24 level-4 labels in catalog order, row gauge then column
# gauge: canonical JSON of S1, S2, S3 and the gauge certificate of each
GENERIC_ASSEMBLY_DIGEST = "9c2f4771cda41106d1ea2e79af173b4c61a0bf6d5d878beb4f9f1dfd04324613"


def test_generic_assemblies_pinned_by_digest():
    lines = []
    for gauge in ("row", "column"):
        for spec in catalog_regular(4):
            g = assemble(spec.label, gauge=gauge)
            cert = {**g.certificate}
            if "solved" in cert:
                cert["solved"] = dict(cert["solved"])
            mats = [matrix_to_json(m) for m in g.generators()]
            lines.append(canonical_dumps([spec.label.name, gauge, mats, cert]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GENERIC_ASSEMBLY_DIGEST


# (distinct denominator keys in S1-S3, cores of their coprime base, total
# degree of the cores) per level-4 label, row gauge then column gauge.  Each
# is a bound: a change may lower it; one that raises it says why.
REPRESENTATION_SIZE = {
    "l1^3*l2^3*l3^3:theta": ((27, 13, 18), (27, 13, 22)),
    "l1^3*l2^3*l3^3:theta2": ((27, 13, 18), (27, 13, 22)),
    "l1^4*l2^2*l3^2": ((21, 12, 19), (21, 12, 19)),
    "l1^2*l2^4*l3^2": ((21, 10, 15), (21, 10, 15)),
    "l1^2*l2^2*l3^4": ((21, 11, 18), (20, 11, 18)),
    "l1^3*l2^2*l3": ((10, 7, 10), (12, 8, 12)),
    "l1^3*l2*l3^2": ((10, 7, 10), (12, 8, 12)),
    "l1^2*l2^3*l3": ((14, 9, 13), (14, 10, 15)),
    "l1*l2^3*l3^2": ((14, 8, 11), (14, 8, 13)),
    "l1^2*l2*l3^3": ((14, 9, 13), (14, 10, 15)),
    "l1*l2^2*l3^3": ((14, 8, 11), (14, 8, 13)),
    "l1*l2*l3": ((5, 4, 4), (5, 4, 4)),
    "l1^2*l2": ((2, 2, 3), (2, 2, 3)),
    "l1^2*l3": ((2, 2, 3), (2, 2, 3)),
    "l1*l2^2": ((2, 2, 3), (2, 2, 3)),
    "l2^2*l3": ((2, 2, 3), (2, 2, 3)),
    "l1*l3^2": ((2, 2, 3), (2, 2, 3)),
    "l2*l3^2": ((2, 2, 3), (2, 2, 3)),
    "l1*l2": ((1, 1, 1), (1, 1, 1)),
    "l1*l3": ((1, 1, 1), (1, 1, 1)),
    "l2*l3": ((1, 1, 1), (1, 1, 1)),
    "l1": ((0, 0, 0), (0, 0, 0)),
    "l2": ((0, 0, 0), (0, 0, 0)),
    "l3": ((0, 0, 0), (0, 0, 0)),
}


def test_representation_size_bounded():
    # sizes of the stored representation, which host noise cannot move
    assert set(REPRESENTATION_SIZE) == {spec.label.name for spec in catalog_regular(4)}
    for spec in catalog_regular(4):
        for gauge, bound in zip(("row", "column"), REPRESENTATION_SIZE[spec.label.name]):
            g = assemble(spec.label, gauge=gauge)
            keys = {f for m in g.generators() for row in m.entries for a in row for f in a.fac}
            base = coprime_base(keys)
            degree = sum(max(sum(e) for e in core.terms) for core in base)
            size = (len(keys), len(base), degree)
            assert all(x <= b for x, b in zip(size, bound)), (spec.label.name, gauge, size, bound)
            view_keys = {f for m in g.product_view.values()
                         for row in m.entries for a in row for f in a.fac}
            assert view_keys <= set(base)


def test_product_view_is_lazy_and_read_only():
    # a fresh assembly, not the shared cache entry, so no earlier test built it
    g = assemble_generic.__wrapped__(label4((3, 2, 1)))
    assert "product_view" not in vars(g)
    assert verify(g).all_passed
    view = g.product_view
    assert g.product_view is view
    assert all(view[i] == g.matrices[i] for i in g.matrices)
    with pytest.raises(TypeError):
        view[1] = g.S1


def test_weight_ranks_match_catalog():
    for exps, theta in (((3, 2, 1), 0), ((4, 2, 2), 0), ((3, 3, 3), 1), ((2, 3, 1), 0)):
        g = assemble(label4(exps, theta))
        wr = weight_report(g)
        assert wr.ranks_match
        # the paper's definition: the (i, j) weight space is the image of B(i, j)
        ranks = {(i, j): weight_operator(g, i, j).rank() for i in (1, 2, 3) for j in (1, 2, 3)}
        by_definition = {w: r for w, r in ranks.items() if r}
        assert by_definition == path_weights(g.basis, g.S3, range(len(g.basis)), g.eigenvalues())
        assert by_definition == wr.expected


def test_weight_flip_conjugation():
    g = assemble(label4((3, 2, 1)))
    delta = g.delta_matrix()
    b12 = weight_operator(g, 1, 2)
    b21 = weight_operator(g, 2, 1)
    # Delta4 B(1,2) = B(2,1) Delta4
    assert delta * b12 == b21 * delta


def _twice(a: RatFunc) -> RatFunc:
    return a * RatFunc.const(Cyclotomic(2))


def _plus_one(a: RatFunc) -> RatFunc:
    return a + RatFunc.one()


_NAMES = ["commute_S1_S3", "braid_S1_S2", "braid_S2_S3", "cubic_S1", "cubic_S2", "cubic_S3",
          "delta_sq_scalar", "delta_flip_S1", "delta_flip_S2", "delta_flip_S3"]
_OK, _AT = (True, None), (lambda *ij: (False, ij))


# one generator entry changed; the expected (passed, residual) of every check
# in report order
@pytest.mark.parametrize(
    "exps,gen,at,change,expected",
    [
        ((2, 1, 0), 2, (0, 1), _plus_one,
         [_OK, _AT(0, 0), _AT(0, 0), _OK, _AT(0, 0), _OK, _AT(0, 0), _AT(0, 0), _AT(0, 1), _AT(0, 0)]),
        ((3, 2, 1), 3, (0, 3), _twice,
         [_OK, _OK, _AT(0, 0), _OK, _OK, _AT(0, 0), _AT(0, 0), _AT(0, 0), _OK, _AT(0, 0)]),
        ((1, 1, 1), 1, (0, 0), _twice,
         [_OK, _AT(0, 0), _OK, _AT(0, 0), _OK, _OK, _AT(0, 0), _AT(0, 0), _AT(0, 1), _AT(0, 0)]),
    ],
    ids=["l1^2*l2-S2", "l1^3*l2^2*l3-S3", "l1*l2*l3-S1"],
)
def test_corrupted_module_fails_with_location(exps, gen, at, change, expected):
    g = assemble(label4(exps))
    rows = [list(row) for row in g.matrices[gen].entries]
    i, j = at
    rows[i][j] = change(rows[i][j])
    g = dataclasses.replace(g, matrices={**g.matrices, gen: Matrix(rows)})
    rep = verify(g)
    got = [(c.name, c.passed, c.residual) for c in rep.checks]
    assert got == [(name, *want) for name, want in zip(_NAMES, expected)]


@pytest.mark.parametrize("ideal", ["l1+l2", "l1+theta*l2"])
def test_delta_sq_shortcut_needs_far_commutation(ideal):
    # l1 times the standard 2-dim representation of the symmetric group on
    # (12), (23), (13): both braid relations hold, S1 S3 != S3 S1, and
    # Delta^2 is not the central scalar, so the Jucys-Murphy shortcut must
    # not certify it
    label = label4((1, 1, 0))
    ctx = ideal_by_name(ideal).param
    l1 = ctx.apply_ratfunc(L1)

    def gen(rows):
        return Matrix([[l1 * RatFunc.const(Cyclotomic(x)) for x in row] for row in rows])

    mats = {1: gen([[-1, 1], [0, 1]]), 2: gen([[1, 0], [1, -1]]), 3: gen([[0, -1], [-1, 0]])}
    g = GeneratorSet(label, enumerate_paths(label), mats, ctx, "row", {})
    checks = {c.name: (c.passed, c.residual) for c in verify(g).checks}
    assert checks["braid_S1_S2"] == checks["braid_S2_S3"] == (True, None)
    assert checks["commute_S1_S3"] == (False, (0, 0))
    assert checks["delta_sq_scalar"] == (False, (0, 0))


@pytest.mark.parametrize("kind", ["generic", "locus", "level3"])
def test_assembly_results_are_read_only(kind):
    # assembled sets are shared with the caches, so every write must raise
    lab = label4((2, 1, 0))
    build = {
        "generic": lambda: assemble(lab),
        "locus": lambda: assemble(lab, ideal_by_name("l1+i*l2").param),
        "level3": lambda: assemble(label3((1, 1, 0))),
    }[kind]
    g = build()
    with pytest.raises(TypeError):
        g.matrices[2].entries[0][0] = RatFunc.one()
    with pytest.raises(TypeError):
        g.matrices[2].entries[0] = g.S1.entries[0]
    with pytest.raises(TypeError):
        g.matrices[2] = g.S1
    with pytest.raises(TypeError):
        g.certificate["pinned"] = 0
    if "solved" in g.certificate:
        with pytest.raises(TypeError):
            g.certificate["solved"]["x"] = "1"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.matrices = {}
    assert build().matrices[2] == g.matrices[2]
    assert assemble(lab) is assemble(lab)
    assert verify(build()).all_passed


def test_delta4_weight_charpoly_wrong_label():
    g = assemble(label4((3, 2, 1)))
    with pytest.raises(ValueError):
        delta4_weight_charpoly(g)


def test_rank1_weight_charpoly_shape():
    # for a multiplicity-1 weight the analogous product has rank 1, so its
    # charpoly is x^(n-1) (x - tr)
    g = assemble(label4((2, 1, 0)))
    lam = [L1, L2, L3]
    r = 1
    denom = RatFunc.one()
    for s in (2, 3):
        denom = denom * (lam[r - 1] - lam[s - 1])
    p1 = scaled_projection(g.S1, r, g.eigenvalues()).scale(denom.inv())
    p3 = scaled_projection(g.S3, r, g.eigenvalues()).scale(denom.inv())
    b = g.delta_matrix() * p1 * p3
    assert b.rank() == 1


def test_delta4_weight_charpoly_at_a_rational_point():
    # the characteristic polynomial of Delta4 P1 P3 evaluated exactly at one
    # point, by sympy, equals the symbolic one evaluated there
    import sympy

    g = assemble(label4((4, 2, 2)))
    pt = tuple(Cyclotomic(v) for v in (2, 3, 7))
    lam, others = pt[0], [pt[1], pt[2]]
    mats = {i: eval_matrix(g.matrices[i], pt) for i in (1, 2, 3)}
    delta = eval_word(HALF_TWIST[4], mats, num_mat_mul, {})
    p1 = num_eigenprojection(mats[1], lam, others)
    p3 = num_eigenprojection(mats[3], lam, others)
    b = num_mat_mul(num_mat_mul(delta, p1), p3)
    x = sympy.symbols("x")
    sm = sympy.Matrix([[sympy.Rational(rational_value(v)) for v in row] for row in b])
    want = sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]
    got = [rational_value(c.eval_point(pt)) for c in delta4_weight_charpoly(g)]
    assert got == [Fraction(int(w.p), int(w.q)) for w in want]
    assert any(got[:-1])


def test_delta4_weight_charpoly_needs_rank_two():
    g = assemble(label4((4, 2, 2)))
    bad = dataclasses.replace(g, matrices={1: g.S1, 2: g.matrices[2], 3: g.S1})
    with pytest.raises(CubicHeckeError, match="rank 4"):
        delta4_weight_charpoly(bad)
