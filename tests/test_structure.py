import hashlib

import pytest

from cubichecke.builder import assemble
from cubichecke.catalog import (
    catalog_regular,
    ideal_by_name,
    ideal_catalog,
    label3,
    label4,
    vanishing_for_module,
)
from cubichecke.cyclotomic import Cyclotomic, ONE, THETA, THETA2
from cubichecke.errors import CubicHeckeError, IncompatibleIdeals
from cubichecke.structure import (
    blocks,
    census_generic,
    census_pair,
    census_single,
    classify_ideals,
    classify_point,
    compose_pair,
    composition_series,
    exact_sequence,
    invariant_chain,
    k3_structure,
    split_on_locus,
)
from cubichecke.serialize import canonical_dumps, poly_to_json
from cubichecke.specialize import Specialization, Substitution


def test_classify_generic_point():
    report = classify_point((Cyclotomic(2), Cyclotomic(3), Cyclotomic(5)))
    assert report.semisimple and not report.vanishing


def test_classify_rejects_repeated():
    with pytest.raises(ValueError):
        classify_point((ONE, ONE, Cyclotomic(2)))


def test_classify_rejects_zero_coordinate():
    # the eigenvalues of the generators are invertible
    with pytest.raises(ValueError, match="zero eigenvalue l1"):
        classify_point((Cyclotomic(), ONE, Cyclotomic(2)))


def test_classify_double_locus_point():
    # (1, -theta^2, theta): l1 + theta l2 = 0 and l2 + theta l3 = 0
    pt = (ONE, -THETA2, THETA)
    report = classify_point(pt)
    names = {v.name for v in report.vanishing}
    assert "l1+theta*l2" in names and "l2+theta*l3" in names
    assert not report.semisimple


def test_classify_on_parametrized_locus():
    import random

    rng = random.Random(3)
    spec = ideal_by_name("l1^3-l2^2*l3")
    for _ in range(5):
        pt = spec.param.random_point(rng)
        report = classify_point(pt)
        assert "l1^3-l2^2*l3" in {v.name for v in report.vanishing}


def test_classify_ideal():
    report = classify_ideals([ideal_by_name("l1+theta*l2")])
    assert not report.semisimple
    assert [v.name for v in report.vanishing] == ["l1+theta*l2"]


def test_blocks_spec_examples():
    b = blocks(ideal_by_name("l1+theta*l2"))
    classes = [set(l.name for l in c) for c in b.classes]
    assert {"l1", "l1*l2", "l2"} in classes
    assert {"l1^2*l3", "l1^3*l2^3*l3^3:theta", "l1*l2^3*l3^2"} in classes
    assert {"l2^2*l3", "l1^3*l2^3*l3^3:theta2", "l1^3*l2*l3^2"} in classes
    assert len(b.classes) == 3

    b5 = blocks(ideal_by_name("l1^2-theta*l2*l3"))
    assert [set(l.name for l in c) for c in b5.classes] == [
        {"l2*l3", "l1^3*l2^3*l3^3:theta", "l1^4*l2^2*l3^2", "l1"}
    ]


def test_blocks_reject_diff():
    with pytest.raises(ValueError):
        blocks(ideal_by_name("l1-l2"))


def test_series_9dim_theta_sum():
    cs = composition_series(label4((3, 3, 3), 1), ideal_by_name("l1+theta*l2"))
    dims = sorted(f.dim for f in cs.factors)
    assert dims == [3, 6]
    by_dim = {f.dim: f for f in cs.factors}
    assert by_dim[3].label.name == "l1^2*l3"
    assert by_dim[3].weights == {(1, 1): 1, (1, 3): 1, (3, 1): 1}
    assert by_dim[6].label.name == "l1*l2^3*l3^2"


def test_series_8dim_theta_quadratic():
    cs = composition_series(label4((4, 2, 2)), ideal_by_name("l1^2-theta*l2*l3"))
    dims = sorted(f.dim for f in cs.factors)
    assert dims == [1, 7]
    seven = [f for f in cs.factors if f.dim == 7][0]
    assert seven.label.name == "{l1^3*l2^2*l3^2}:theta"
    assert seven.weights == {
        (1, 1): 1, (1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 3): 1, (3, 2): 1,
    }


def test_series_8dim_simple_cases():
    for name in ("l2+l3",):
        p = ideal_by_name(name)
        cs = composition_series(label4((4, 2, 2)), p)
        assert cs.route == "trivial"
        assert len(cs.factors) == 1


def test_series_8dim_invariant_subset():
    # the submodule spanned by the first, seventh and eighth path of the
    # lemma's ordering appears as the top factor of the as-given series
    cs = composition_series(label4((4, 2, 2)), ideal_by_name("l2^3-l1^2*l3"), "transpose")
    assert cs.factors[0].indices == (0, 6, 7)
    assert cs.factors[0].label.name == "l1^2*l3"


def test_series_orientation_duality():
    p = ideal_by_name("l1^3-l2^2*l3")
    fwd = composition_series(label4((3, 2, 1)), p, "as-given")
    bwd = composition_series(label4((3, 2, 1)), p, "transpose")
    assert [f.label for f in fwd.factors] == [f.label for f in reversed(bwd.factors)]


def test_every_table2_pair_assembles_in_row_gauge():
    # composition_series has no second route: every pair that reaches assembly
    # (a regular module and an ideal of its Table-2 row) must assemble as is
    pairs = [(s.label, p) for s in catalog_regular(4) for p in vanishing_for_module(s.label)]
    assert len(pairs) == 75
    for label, p in pairs:
        assert assemble(label, p.param).gauge == "row", (label, p.name)


def test_exact_sequence_cubic():
    p = ideal_by_name("l1^3-l2^2*l3")
    b = blocks(p)
    seq = exact_sequence(p, b.classes[0])
    names = [l.name for l in seq.labels]
    expected = ["l2^2*l3", "l1^2*l2^4*l3^2", "l1^3*l2^2*l3", "l1"]
    assert names == expected or names == expected[::-1]


def test_census_single_dedup():
    c = census_single(ideal_by_name("l1+i*l2"))
    names = [e.label.name for e in c.entries]
    assert "{l1*l2}*" in names
    assert len(names) == len(set(names))
    # the two 3-dim Hecke modules of the block are gone, the star module appears
    assert "l1^2*l2" not in names and "l1*l2^2" not in names


def test_census_generic_totals():
    c = census_generic()
    assert c.sum_dim_sq == 648


def test_census_pair_table4_last_row():
    pair = census_pair(ideal_by_name("l1+theta*l2"), ideal_by_name("l2+theta*l3"))
    assert len(pair) == 1
    names = {e.label.name for e in pair[0].entries}
    assert {"l1^2*l3", "l1*l2^2", "l2*l3^2"} <= names


def test_incompatible_pair():
    with pytest.raises(IncompatibleIdeals) as err:
        compose_pair(ideal_by_name("l1^2-theta*l2*l3"), ideal_by_name("l2^2-theta*l1*l3"))
    assert set(err.value.witness) & {"l1-l3", "l2-l3"}


def test_k3_generic():
    rep = k3_structure()
    assert len(rep.entries) == 7
    assert rep.sum_dim_sq == 24


def test_k3_sequences():
    rep = k3_structure(ideal_by_name("l1^2+l2*l3"))
    seqs = {g3.name: sorted(l.name for l in seq) for g3, seq in rep.sequences}
    assert seqs == {"l1*l2*l3": ["l1", "l2*l3"]}


def test_split_on_locus_regular_stays():
    p = ideal_by_name("l1+theta*l2")
    assert split_on_locus(p.param, label4((4, 2, 2))) == (label4((4, 2, 2)),)


def _point_locus(point) -> Specialization:
    return Specialization(tuple(Substitution(k, c, (0, 0, 0)) for k, c in enumerate(point)), ())


def _k3_point_census(point) -> list:
    """The simple level-3 factors of every regular level-3 module at the point."""
    locus = _point_locus(point)
    found: dict = {}
    for s in catalog_regular(3):
        for lbl in split_on_locus(locus, s.label):
            found.setdefault(lbl.name, lbl)
    return list(found.values())


def test_k3_point_census():
    assert len(_k3_point_census((Cyclotomic(2), Cyclotomic(3), Cyclotomic(5)))) == 7
    # the coincidence locus: l1 = -theta l2, l2 = -theta l3 leaves 1-dims
    # and the one surviving 2-dim module
    entries = _k3_point_census((ONE, -THETA2, THETA))
    dims = sorted(sum(l.exps) for l in entries)
    assert dims == [1, 1, 1, 2]
    assert any(l.name == "l1*l3" for l in entries)


@pytest.mark.parametrize(
    "point, factors",
    [
        ((2, 1, -4), ["l1", "l2*l3"]),
        ((1, 2, -4), ["l1*l3", "l2"]),
        ((1, -4, 2), ["l1*l2", "l3"]),
    ],
)
def test_k3_sq_plus_splits_off_the_squared_eigenvalue(point, factors):
    # l_i^2 + l_j*l_k vanishes at the point: l_i splits off, {j, k} stays together
    locus = _point_locus(tuple(map(Cyclotomic, point)))
    assert [l.name for l in split_on_locus(locus, label3((1, 1, 1)))] == factors


def _unit_exps(k: int) -> tuple:
    return tuple(1 if x == k else 0 for x in range(3))


def k3_factors_mod(locus, g3) -> tuple:
    """Oracle: the simple factors of a regular level-3 module on the locus,
    by the rule of its Table-2 row (that of the level-4 module with its
    exponents).  The 2-dim module splits into its two 1-dim constituents; row
    entry i of the 3-dim module is l_i^2 + l_j l_k, so l_i splits off and the
    pair {j, k} stays together."""
    for i, spec in enumerate(vanishing_for_module(label4(g3.exps))):
        if not locus.vanishes(spec.generator):
            continue
        if sum(g3.exps) == 2:
            return tuple(label3(_unit_exps(k)) for k, e in enumerate(g3.exps) if e)
        sub = tuple(0 if k == i else 1 for k in range(3))
        return tuple(
            sorted(
                k3_factors_mod(locus, label3(sub)) + (label3(_unit_exps(i)),),
                key=lambda l: l.name,
            )
        )
    return (g3,)


def test_k3_split_on_locus_matches_oracle():
    """Level-3 split_on_locus against the Table-2 rule, on every non-diff
    ideal and on every branch of every compatible pair."""
    ideals = _non_diff_ideals()
    loci = [p.param for p in ideals]
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            try:
                loci.extend(br.locus for br in compose_pair(ideals[a], ideals[b]))
            except (ValueError, CubicHeckeError):
                continue
    assert len(loci) == 30 + 372
    for locus in loci:
        for s in catalog_regular(3):
            assert split_on_locus(locus, s.label) == k3_factors_mod(locus, s.label), (locus, s.label)


def test_invariant_chain_sinks_first():
    from cubichecke.matrix import Matrix
    from cubichecke.ratfunc import RatFunc

    o, z = RatFunc.one(), RatFunc.zero()
    # v0 -> v2 and v2 <-> v1: the sink class {1, 2} comes first
    m = Matrix([[o, z, z], [z, o, o], [o, o, o]])
    assert invariant_chain([m]) == [[1, 2], [0]]


# -- pins: every Table-2 series, every level-3 report, every ideal pair ------------------


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _delta_text(f) -> str:
    return "%s / %s" % (canonical_dumps(poly_to_json(f.num)), canonical_dumps(poly_to_json(f.den)))


def _entry_text(e) -> str:
    return "%s dim %d weights %r delta %s" % (
        e.label.name, e.dim, sorted(e.weights.items()), _delta_text(e.delta_sq)
    )


def _non_diff_ideals():
    return [p for p in ideal_catalog() if p.family != "diff"]


def _table2_series_lines(orientation: str) -> list:
    lines = []
    for spec in catalog_regular(4):
        for p in vanishing_for_module(spec.label):
            lines.append("%s mod %s" % (spec.label.name, p.name))
            for f in composition_series(spec.label, p, orientation).factors:
                lines.append("  %s %r %r" % (f.label.name, f.indices, sorted(f.weights.items())))
    return lines


def test_table2_series_pinned():
    """Factor labels, path indices and weights of all 75 Table-2 series."""
    lines = _table2_series_lines("as-given")
    assert sum(not line.startswith("  ") for line in lines) == 75
    assert _digest(lines) == "a0d7bde1f4ab3f6a396ae8ae6d7dc1ddfac036879fe0347d5e04462ef466a2cd"


def test_table2_transposed_series_pinned():
    """The same 75 series read off the transposed generators."""
    lines = _table2_series_lines("transpose")
    assert sum(not line.startswith("  ") for line in lines) == 75
    assert _digest(lines) == "b351e1aaabc3033012a48d83a61b4c26e8b7037c29a15c2e6704fcb2adefcafb"


def test_single_censuses_pinned():
    """The census mod each non-diff ideal, one line per entry."""
    lines = []
    for p in _non_diff_ideals():
        c = census_single(p)
        lines.append(c.context)
        lines.extend("  %s" % _entry_text(e) for e in c.entries)
    assert sum(not line.startswith("  ") for line in lines) == 30
    assert _digest(lines) == "f82a68bb9ddc1521d9d5cc232c1a7f401d011256aa8e900cfc1cad33a33dfdf0"


def test_k3_reports_pinned():
    """Entries and sequences of the level-3 report mod each non-diff ideal."""
    lines = []
    for p in _non_diff_ideals():
        rep = k3_structure(p)
        lines.append("ideal(%s) %s" % (p.name, [l.name for l in rep.entries]))
        for g3, series in rep.sequences:
            lines.append("  %s %s" % (g3.name, [l.name for l in series]))
    assert sum(not line.startswith("  ") for line in lines) == 30
    assert _digest(lines) == "2a02deaffab9ca34d7271b8f8dbfac0ebe32d062f5dca44cd6de9896c1cd9f14"


def test_census_pair_outcomes_pinned():
    """The census_pair outcome of every pair of non-diff ideals: its branches
    with their entries, the incompatibility witness, or the error raised."""
    ideals = _non_diff_ideals()
    lines = []
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            p1, p2 = ideals[a], ideals[b]
            lines.append("%s, %s" % (p1.name, p2.name))
            try:
                branches = census_pair(p1, p2)
            except IncompatibleIdeals as err:
                lines.append("  incompatible %r" % (err.witness,))
                continue
            except CubicHeckeError as err:
                lines.append("  %s: %s" % (type(err).__name__, err))
                continue
            for census in branches:
                lines.append("  branch %s" % census.branch)
                lines.extend("    %s" % _entry_text(e) for e in census.entries)
    assert sum(not line.startswith("  ") for line in lines) == 435
    assert _digest(lines) == "0fffc56ace9fdc660ee74bdce10ebfe3c07cb140bc0d8ee58b3140e73fefe2cf"
