import hashlib

from cubichecke.catalog import (
    PERMS,
    catalog_regular,
    delta_scalar,
    enumerate_paths,
    exceptional_catalog,
    ideal_by_name,
    ideal_catalog,
    ideal_for_generator,
    label2,
    label3,
    label4,
    perm_ideal,
    perm_label,
    perm_ratfunc,
    spec_for,
    vanishing_for_module,
)
from cubichecke.cyclotomic import THETA, THETA2
from cubichecke.expr import parse_label
from cubichecke.ratfunc import RatFunc
from cubichecke.serialize import canonical_dumps, poly_to_json


def test_census_dimensions():
    level4 = catalog_regular(4)
    assert len(level4) == 24
    assert sum(s.dim ** 2 for s in level4) == 648
    level3 = catalog_regular(3)
    assert len(level3) == 7
    assert sum(s.dim ** 2 for s in level3) == 24


def test_nine_dim_row():
    spec = spec_for(label4((3, 3, 3), 1))
    assert spec.dim == 9
    assert spec.delta_sq == RatFunc.monomial((4, 4, 4), THETA)
    assert spec.weight_multiset() == {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)}


def test_six_dim_row():
    spec = spec_for(label4((3, 2, 1)))
    assert spec.delta_sq == RatFunc.monomial((6, 4, 2))
    assert spec.weight_multiset() == {
        (1, 1): 1, (1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 2): 1,
    }


def test_weight_symmetry_and_consistency():
    for spec in catalog_regular(4):
        wm = spec.weight_multiset()
        assert sum(wm.values()) == spec.dim
        for (i, j), m in wm.items():
            assert wm.get((j, i)) == m
        assert sum(sum(g3.exps) for g3 in spec.restriction) == spec.dim
        ((exps, _c),) = spec.delta_sq.num.terms.items()
        assert sum(exps) == 12


def test_delta_scalars():
    assert delta_scalar(label3((1, 1, 0))) == -RatFunc.monomial((3, 3, 0))
    assert delta_scalar(label3((1, 0, 0))) == RatFunc.monomial((6, 0, 0))
    assert delta_scalar(label3((1, 1, 1))) == RatFunc.monomial((2, 2, 2))
    assert delta_scalar(label2(2)) == RatFunc.monomial((0, 2, 0))
    assert delta_scalar(label4((2, 1, 0))) == RatFunc.monomial((8, 4, 0))


def test_enumerate_paths():
    eight = label4((4, 2, 2))
    paths = enumerate_paths(eight)
    assert len(paths) == 8
    assert [t.g3.name for t in paths] == [
        "l1", "l1*l2", "l1*l2", "l1*l2*l3", "l1*l2*l3", "l1*l2*l3", "l1*l3", "l1*l3",
    ]
    for spec in catalog_regular(4):
        assert len(enumerate_paths(spec.label)) == spec.dim
        for t in enumerate_paths(spec.label):
            assert t.g3 in spec.restriction
            assert t.g2.exps[t.eigen_index - 1] == 1


def test_ideal_catalog():
    cat = ideal_catalog()
    assert len(cat) == 33
    for spec in cat:
        if spec.param is not None:
            assert spec.param.apply_poly(spec.generator).is_zero()
    cubic = ideal_by_name("l2^3-l1^2*l3")
    assert str(cubic.param) == "{l3 := l1^-2*l2^3}"
    diff = ideal_by_name("l1-l2")
    assert diff.param is None


def test_vanishing_rows():
    assert [p.name for p in vanishing_for_module(label4((3, 2, 1)))] == [
        "l1+l3", "l2+l3", "l2^2+l1*l3", "l1^3-l2^2*l3",
    ]
    assert [p.name for p in vanishing_for_module(label4((1, 1, 0)))] == [
        "l1+theta*l2", "l2+theta*l1",
    ]
    assert vanishing_for_module(label4((1, 0, 0))) == ()
    eight = [p.name for p in vanishing_for_module(label4((4, 2, 2)))]
    assert eight == ["l2^3-l1^2*l3", "l3^3-l1^2*l2", "l1^2-theta*l2*l3", "l1^2-theta^2*l2*l3"]
    nine2 = [p.name for p in vanishing_for_module(label4((3, 3, 3), 2))]
    assert "l1^2-theta^2*l2*l3" in nine2 and "l1^2-theta*l2*l3" not in nine2


# Table 2 of the paper: the vanishing polynomials of each module, in catalog order.
TABLE2_ROWS = {
    "l1^3*l2^3*l3^3:theta": [
        "l1+theta*l2", "l2+theta*l1", "l1+theta*l3", "l3+theta*l1",
        "l2+theta*l3", "l3+theta*l2",
        "l1^2-theta*l2*l3", "l2^2-theta*l1*l3", "l3^2-theta*l1*l2",
    ],
    "l1^3*l2^3*l3^3:theta2": [
        "l1+theta*l2", "l2+theta*l1", "l1+theta*l3", "l3+theta*l1",
        "l2+theta*l3", "l3+theta*l2",
        "l1^2-theta^2*l2*l3", "l2^2-theta^2*l1*l3", "l3^2-theta^2*l1*l2",
    ],
    "l1^4*l2^2*l3^2": [
        "l2^3-l1^2*l3", "l3^3-l1^2*l2", "l1^2-theta*l2*l3", "l1^2-theta^2*l2*l3",
    ],
    "l1^3*l2^2*l3": ["l1+l3", "l2+l3", "l2^2+l1*l3", "l1^3-l2^2*l3"],
    "l1*l2*l3": ["l1^2+l2*l3", "l2^2+l1*l3", "l3^2+l1*l2"],
    "l1^2*l2": ["l1+i*l2", "l2+i*l1"],
    "l1*l2": ["l1+theta*l2", "l2+theta*l1"],
    "l1": [],
}


def test_table2_rows():
    assert len(TABLE2_ROWS) == 8
    for name, row in TABLE2_ROWS.items():
        assert [p.name for p in vanishing_for_module(parse_label(name))] == row


def test_apply_perm_on_labels():
    p12 = (1, 0, 2)
    assert perm_label(p12, label4((3, 2, 1))).name == "l1^2*l2^3*l3"
    assert perm_label(PERMS[0], label4((3, 2, 1))) == label4((3, 2, 1))


def test_perm_equivariance_of_delta():
    for p in PERMS:
        for spec in catalog_regular(4):
            image = perm_label(p, spec.label)
            assert perm_ratfunc(p, spec.delta_sq) == spec_for(image).delta_sq


def test_perm_on_ideals():
    p = (1, 0, 2)  # swap l1, l2
    q = perm_ideal(p, ideal_by_name("l1^3-l2^2*l3"))
    assert q.name == "l2^3-l1^2*l3"
    identity = perm_ideal((0, 1, 2), ideal_by_name("l1+theta*l2"))
    assert identity.name == "l1+theta*l2"


def test_perm_equivariance_of_vanishing_rows():
    for p in PERMS:
        for spec in catalog_regular(4):
            image = perm_label(p, spec.label)
            want = sorted(perm_ideal(p, q).name for q in vanishing_for_module(spec.label))
            got = sorted(q.name for q in vanishing_for_module(image))
            assert want == got, (spec.label, p)


def test_ideal_for_generator_up_to_unit():
    from cubichecke.laurent import LaurentPoly

    gen = ideal_by_name("l1+theta*l2").generator
    scaled = gen.mul_monomial((1, 0, -2), THETA2)
    assert ideal_for_generator(scaled).name == "l1+theta*l2"


def test_exceptional_catalog():
    exc = exceptional_catalog()
    assert len(exc) == 21
    dims = sorted(s.dim for s in exc)
    assert dims == [2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 7]
    for s in exc:
        assert sum(m for m in s.weight_multiset().values()) == s.dim
        assert sum(sum(g3.exps) for g3 in s.restriction) == s.dim


def _poly_text(p) -> str:
    return canonical_dumps(poly_to_json(p))


def _label_text(label) -> str:
    return "%s %r %r %r %r %r" % (
        label.name, label.level, label.exps, label.theta, label.star, label.bar
    )


def _delta_text(f) -> str:
    return "%s / %s" % (_poly_text(f.num), _poly_text(f.den))


def _catalog_lines():
    """Every catalog fact, in catalog order, one line each."""
    lines = []
    for spec in ideal_catalog():
        lines.append("ideal %s %s %s" % (spec.family, spec.name, _poly_text(spec.generator)))
        if spec.param is not None:
            for s in spec.param.subs:
                lines.append("  sub %d %s %r" % (s.var, s.coeff.coeff_strs(), s.exps))
            for g in spec.param.generators:
                lines.append("  kills %s" % _poly_text(g))
    for level in (4, 3):
        for spec in catalog_regular(level):
            lines.append("regular %s dim %d" % (_label_text(spec.label), spec.dim))
            lines.append("  delta %s" % _delta_text(spec.delta_sq))
            lines.append("  weights %r" % (spec.weights,))
            lines.append("  restriction %s" % [_label_text(g) for g in spec.restriction])
            row = vanishing_for_module(spec.label)
            lines.append("  row %s" % [p.name for p in row])
    for spec in exceptional_catalog():
        lines.append("exceptional %s dim %d" % (_label_text(spec.label), spec.dim))
        lines.append("  delta %s" % _delta_text(spec.delta_sq))
        lines.append("  weights %r" % (spec.weights,))
        lines.append("  k3 %s" % [_label_text(g) for g in spec.restriction])
        lines.append("  defining %s" % _poly_text(spec.defining))
    return lines


def test_catalog_facts_pinned():
    """Ideals with parametrizations, regular specs at levels 4 and 3 with their
    Table-2 rows, and Table-3 specs: 85 facts, pinned by digest."""
    lines = _catalog_lines()
    assert sum(not line.startswith("  ") for line in lines) == 85
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "291cfbd55f3e63f63c8cced7e8263ba17978f436abf00e34e2678913472deec2"
