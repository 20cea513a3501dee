"""The full verification matrix: every published formula and table regenerated.

Each named check returns (passed, detail).  The "full" level regenerates the
projection formulas, the weight-basis scalars, the characteristic polynomial
of the half-twist on the doubled weight space, the semisimplicity classifier,
blocks, exact sequences, the exceptional-module table, the double-locus
census, and the property suites (traces, gauge invariance, transpose duality,
equivariance, and the random-point eigenprojection oracle).  The "fast" level
replays two rows of the relation table, braid_S2_S3 and the central scalar of
Delta^2, and the projection oracle at random exact points only.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction
from functools import lru_cache, partial

from . import golden
from .builder import (
    RELATIONS,
    alpha_scalar,
    assemble,
    assemble_generic,
    delta4_weight_charpoly,
    first_difference,
    relation_sides,
    verify,
    weight_report,
)
from .catalog import (
    PERMS,
    catalog_regular,
    delta_scalar,
    enumerate_paths,
    ideal_by_name,
    ideal_catalog,
    label2,
    label3,
    label4,
    module_spec,
    perm_ideal,
    perm_label,
    perm_ratfunc,
    spec_for,
    vanishing_for_module,
)
from .cyclotomic import Cyclotomic
from .errors import IncompatibleIdeals
from .jm import ab2_diag, ab2_matrix, block_spec
from .matrix import eval_matrix, num_eigenprojection, num_mat_mul
from .ratfunc import RatFunc, rat_sum
from .structure import (
    blocks,
    census_generic,
    classify_point,
    compose_pair,
    composition_series,
    exact_sequence,
    k3_structure,
    single_ideal_factors,
    split_on_locus,
)

_L = [RatFunc.var(k) for k in range(3)]


def _ok(cond, detail=""):
    return (bool(cond), detail)


# -- criterion 1-3: the projection formulas ------------------------------------------------


def _block_d_mismatch(args, expected: dict):
    """The first failure of the block ``block_spec(*args)`` against the
    expected d_i at each l_j, keyed by (i, j), or None: at each j in ascending
    order the trace identity sum_i d_i = 1, then the d_i in ascending order."""
    spec = block_spec(*args)
    for j in sorted({j for _i, j in expected}):
        d = ab2_diag(spec, _L[j - 1])
        if not rat_sum(d) == RatFunc.one():
            return "trace identity fails at l%d" % j
        for i in sorted(i for i, jj in expected if jj == j):
            if not d[i - 1] == expected[(i, j)]:
                return "d_%d(l%d) mismatch" % (i, j)
    return None


def check_jm_two_blocks():
    for args, expected in golden.two_block_rows():
        if _block_d_mismatch(args, expected):
            return _ok(False, "2-block mismatch for %s" % (args,))
    return _ok(True, "4 rows, 8 entries")


# the printed three- and four-path examples: block arguments, expected d_i by
# (i, j), pass detail; the numeric oracle draws its points in this order
_EXAMPLE_BLOCKS = {
    "jm_k3_example": ((None, label3((1, 1, 1)), 2), golden.three_block_k3_d, "9 entries"),
    "jm_6dim_example": ((label2(1), label4((3, 2, 1)), 3), golden.six_dim_block_d, "9 entries"),
    "jm_9dim_example": (
        (label2(1), label4((3, 3, 3), 1), 3),
        golden.nine_dim_block_d,
        "9 entries (one printed sign corrected, pinned by trace)",
    ),
    "jm_8dim_example": ((label2(1), label4((4, 2, 2)), 3), golden.eight_dim_block_d, "4 entries"),
}


def check_jm_example(args, expected, detail: str):
    """One printed example block against ``expected()``, its golden d_i by (i, j)."""
    bad = _block_d_mismatch(args, expected())
    return _ok(not bad, bad or detail)


def check_jm_8dim_remark():
    from .laurent import divides

    spec = block_spec(label2(1), label4((4, 2, 2)), 3)
    a = ab2_matrix(spec, _L[2], "row")
    cubic = ideal_by_name("l2^3-l1^2*l3").generator
    quartic = (
        RatFunc.monomial((4, 0, 0)) + RatFunc.monomial((2, 1, 1)) + RatFunc.monomial((0, 2, 2))
    ).num
    for gen, expect in (
        (cubic, {(r, s) for r in (2, 3) for s in (1, 4)}),
        (quartic, {(1, s) for s in (2, 3, 4)}),
    ):
        got = set()
        for r in range(4):
            for s in range(4):
                if r == s:
                    continue
                num, _ = a.entries[r][s].reduce().num.shift_nonnegative()
                if num.is_zero() or divides(gen, num):
                    got.add((r + 1, s + 1))
        if got != expect:
            return _ok(False, "vanishing pattern %s != %s mod %s" % (got, expect, gen))
    return _ok(True, "both congruence patterns")


# -- criterion 4: generic assembly --------------------------------------------------------


_BASE_LABELS = [
    label4((1, 0, 0)),
    label4((1, 1, 0)),
    label4((2, 1, 0)),
    label4((1, 1, 1)),
    label4((3, 2, 1)),
    label4((4, 2, 2)),
    label4((3, 3, 3), 1),
    label4((3, 3, 3), 2),
]


def _check_assembly(label):
    rep = verify(assemble(label))
    bad = [c.name for c in rep.checks if not c.passed]
    return _ok(not bad, "failed: %s" % bad if bad else "all relations exact")


# -- criterion 5-6: weight diagnostics ------------------------------------------------------


def check_weights_6dim():
    g = assemble(label4((3, 2, 1)))
    wr = weight_report(g)
    if not wr.ranks_match:
        return _ok(False, "weight ranks differ from the catalog")
    expected = golden.six_dim_weight_scalars()
    for key, val in expected.items():
        if not wr.d_scalars[key] == val:
            return _ok(False, "d%s mismatch" % (key,))
    # resolution of the scaled projection trace pins the corrected sign
    lam = _L
    total = RatFunc.zero()
    for (i, j), val in wr.d_scalars.items():
        scale = RatFunc.one()
        for t in (1, 2, 3):
            if t != i:
                scale = scale * (lam[i - 1] - lam[t - 1])
            if t != j:
                scale = scale * (lam[j - 1] - lam[t - 1])
        total = total + val / scale
    if not total == (_L[2] - _L[0]) * (_L[2] - _L[1]):
        return _ok(False, "trace resolution fails")
    return _ok(True, "4 printed values + symmetry + trace resolution")


@lru_cache(maxsize=None)
def _alpha(label, gauge: str, ki: tuple, lj: tuple) -> RatFunc:
    """alpha_scalar of a generic module, once per process: check_alpha and
    check_gauge_invariance both read alpha_{21,23} of the 8-dim module."""
    return alpha_scalar(assemble(label, gauge=gauge), ki, lj)


@lru_cache(maxsize=None)
def _charpoly_8dim(gauge: str) -> tuple:
    """delta4_weight_charpoly of l1^4*l2^2*l3^2, once per process: the
    charpoly and gauge-invariance checks both read the row gauge's."""
    return delta4_weight_charpoly(assemble(label4((4, 2, 2)), gauge=gauge))


def check_alpha(label, ki: tuple, lj: tuple, expected, vanishing, symmetric: bool, detail: str):
    """alpha_{ki,lj} of the generic module: its golden value ``expected()``,
    the sandwich symmetry alpha_{lj,ki} = alpha_{ki,lj} when ``symmetric``,
    equivariance under (23), and whether it vanishes mod each (ideal name,
    want zero)."""
    p23 = (0, 2, 1)

    def name(*weights):
        return "alpha_{%s}" % ",".join("%d%d" % w for w in weights)

    a = _alpha(label, "row", ki, lj)
    if not a == expected():
        return _ok(False, "%s mismatch" % name(ki, lj))
    if symmetric and not _alpha(label, "row", lj, ki) == a:
        return _ok(False, "sandwich symmetry fails")
    ki23, lj23 = (tuple(p23[k - 1] + 1 for k in w) for w in (ki, lj))
    if not _alpha(label, "row", ki23, lj23) == perm_ratfunc(p23, a):
        return _ok(False, "equivariance %s = (23) %s fails" % (name(ki23, lj23), name(ki, lj)))
    for ideal_name, want_zero in vanishing:
        img = ideal_by_name(ideal_name).param.apply_ratfunc(a)
        if img.is_zero() != want_zero:
            return _ok(False, "vanishing mod %s should be %s" % (ideal_name, want_zero))
    return _ok(True, detail)


def check_charpoly_8dim():
    cp = _charpoly_8dim("row")
    want = golden.charpoly_8dim_expected()
    if len(cp) != len(want) or any(not a == b for a, b in zip(cp, want)):
        return _ok(False, "characteristic polynomial differs")
    return _ok(True, "x^6 (x^2 - l1^6 l2^3 l3^3)")


# -- criterion 7: dimension identities ----------------------------------------------------------


def check_census_generic():
    c = census_generic()
    k = k3_structure()
    return _ok(
        len(c.entries) == 24 and c.sum_dim_sq == 648 and len(k.entries) == 7 and k.sum_dim_sq == 24,
        "24 simples / 648 and 7 simples / 24",
    )


# -- criterion 8: the classifier -----------------------------------------------------------------


def _random_generic_point(rng):
    while True:
        vals = [Fraction(rng.randint(2, 997), rng.randint(1, 9)) for _ in range(3)]
        if len(set(vals)) < 3:
            continue
        cubic_hit = False
        for (a, b, c) in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            if vals[a] ** 3 == vals[b] ** 2 * vals[c]:
                cubic_hit = True
        if cubic_hit:
            continue
        return tuple(Cyclotomic.from_rational(v) for v in vals)


_LOCUS_POINTS = 50
_GENERIC_POINTS = 500


def check_classifier():
    rng = random.Random(20260808)
    for spec in ideal_catalog():
        if spec.family == "diff":
            continue
        for _ in range(_LOCUS_POINTS):
            pt = spec.param.random_point(rng)
            report = classify_point(pt)
            names = [v.name for v in report.vanishing]
            if spec.name not in names:
                return _ok(False, "%s not flagged on its own locus" % spec.name)
            for other in names:
                if other != spec.name:
                    gen = ideal_by_name(other).generator
                    if not gen.eval_point(pt).is_zero():
                        return _ok(False, "false positive %s at %s" % (other, pt))
    for _ in range(_GENERIC_POINTS):
        pt = _random_generic_point(rng)
        report = classify_point(pt)
        if not report.semisimple:
            return _ok(
                False,
                "false non-semisimple verdict at (%s): %s"
                % (", ".join(map(str, pt)), [v.name for v in report.vanishing]),
            )
    return _ok(
        True,
        "%d points per locus, %d generic points, no misclassification"
        % (_LOCUS_POINTS, _GENERIC_POINTS),
    )


# -- criterion 9: blocks, sequences, Table 3 ------------------------------------------------------


def check_blocks_45():
    """The printed class lists, compared as sets: the printed member order
    mixes the central-character order with its reverse, and the meaningful
    order is fixed only by the exact sequences."""
    for ideal_name, expected_classes in golden.SECTION_45:
        b = blocks(ideal_by_name(ideal_name))
        got = [sorted(l.name for l in c) for c in b.classes]
        for exp in expected_classes:
            if sorted(exp) not in got:
                return _ok(False, "class %s missing mod %s (got %s)" % (exp, ideal_name, got))
        for g in got:
            if not any(sorted(exp) == g for exp in expected_classes):
                if not _is_perm_instance(g, expected_classes):
                    return _ok(False, "unexpected class %s mod %s" % (g, ideal_name))
    return _ok(True, "lists (1)-(6)")


def _is_perm_instance(got_names, expected_classes):
    got = set(got_names)
    for p in PERMS:
        for exp in expected_classes:
            image = set()
            for name in exp:
                from .expr import parse_label

                image.add(perm_label(p, parse_label(name)).name)
            if image == got:
                return True
    return False


def check_sequences_46():
    for ideal_name, expected in golden.SECTION_46.items():
        p = ideal_by_name(ideal_name)
        b = blocks(p)
        target = None
        for c in b.classes:
            names = set(l.name for l in c)
            if names == set(expected):
                target = c
        if target is None:
            return _ok(False, "no class matches the %s row" % ideal_name)
        seq = exact_sequence(p, target)
        names = [l.name for l in seq.labels]
        if names != expected and names != expected[::-1]:
            return _ok(False, "sequence %s != %s" % (names, expected))
    return _ok(True, "all 7 rows with factor matching")


def check_table3():
    for ideal_name, factor_name, dim, weights, delta in golden.TABLE3_ROWS:
        p = ideal_by_name(ideal_name)
        found = None
        for spec in catalog_regular(4):
            if p not in vanishing_for_module(spec.label):
                continue
            for f in single_ideal_factors(spec.label, p):
                if f.name == factor_name:
                    found = f
        if found is None:
            return _ok(False, "factor %s never appears mod %s" % (factor_name, ideal_name))
        spec = module_spec(found)
        if spec.dim != dim or spec.weight_multiset() != _mirrored(weights):
            return _ok(False, "wrong data for %s" % factor_name)
        if not spec.delta_sq == delta:
            return _ok(False, "central scalar of %s differs from the table" % factor_name)
    return _ok(True, "all rows with dim, weights, central scalar")


def check_corollary_6dimquot():
    six = label4((3, 2, 1))
    for ideal_name, factor_name, weights, other_name in golden.COROLLARY_6DIMQUOT:
        p = ideal_by_name(ideal_name)
        series = composition_series(six, p)
        names = sorted(f.label.name for f in series.factors)
        if names != sorted([factor_name, other_name]):
            return _ok(False, "factors %s mod %s" % (names, ideal_name))
        for f in series.factors:
            if f.label.name == factor_name and f.weights != _mirrored(weights):
                return _ok(False, "weights of %s mod %s" % (factor_name, ideal_name))
    return _ok(True, "all four loci")


def _mirrored(weights: dict) -> dict:
    """The table's weights completed by their transposes (i, j) -> (j, i)."""
    merged = dict(weights)
    for (i, j), m in weights.items():
        merged.setdefault((j, i), m)
    return merged


def check_k3():
    for ideal_name, module_name, factors in golden.K3_SEQUENCES:
        rep = k3_structure(ideal_by_name(ideal_name))
        if not any(
            g3.name == module_name and sorted(l.name for l in seq) == factors
            for g3, seq in rep.sequences
        ):
            return _ok(False, "K3 sequence at %s" % ideal_name)
    # double locus: l1 = -theta l2 and l2 = -theta l3 leaves one 2-dim simple
    pair = compose_pair(ideal_by_name("l1+theta*l2"), ideal_by_name("l2+theta*l3"))
    locus = pair[0].locus
    survivors = set()
    for s in catalog_regular(3):
        for f in split_on_locus(locus, s.label):
            survivors.add((f.name, sum(f.exps)))
    dims = sorted(d for _n, d in survivors)
    if dims != [1, 1, 1, 2]:
        return _ok(False, "double-locus K3 census %s" % sorted(survivors))
    if ("l1*l3", 2) not in survivors:
        return _ok(False, "expected the 2-dim survivor {l1*l3}")
    return _ok(True, "sequences and the coincidence locus")


# -- criterion 10: Table 4 -------------------------------------------------------------------------


def check_table4():
    from .expr import parse_label, parse_poly

    for mod_name, n1, n2, selector, expected in golden.TABLE4_ROWS:
        module = parse_label(mod_name)
        branches = compose_pair(ideal_by_name(n1), ideal_by_name(n2))
        sel_poly = parse_poly(selector) if selector else None
        matched = False
        for branch in branches:
            if sel_poly is not None and not branch.locus.vanishes(sel_poly):
                continue
            got = sorted(l.name for l in split_on_locus(branch.locus, module))
            if got != sorted(expected):
                return _ok(
                    False,
                    "row (%s; %s, %s): %s != %s" % (mod_name, n1, n2, got, sorted(expected)),
                )
            matched = True
        if not matched:
            return _ok(False, "no branch matches selector %s for (%s, %s)" % (selector, n1, n2))
    try:
        compose_pair(ideal_by_name("l1^2-theta*l2*l3"), ideal_by_name("l2^2-theta*l1*l3"))
        return _ok(False, "incompatible pair was not rejected")
    except IncompatibleIdeals as exc:
        if not set(exc.witness) & {"l1-l3", "l2-l3"}:
            return _ok(False, "witness %s lacks the forced difference" % (exc.witness,))
    return _ok(True, "all 10 rows + incompatible-pair rejection")


# -- criterion 11: property suites -----------------------------------------------------------------


def check_projection_traces():
    one = RatFunc.one()
    for spec4 in catalog_regular(4):
        paths = enumerate_paths(spec4.label)
        groups: dict = {}
        for t in paths:
            groups.setdefault(t.g2, []).append(t)
        for g2 in groups:
            spec = block_spec(g2, spec4.label, 3)
            for mu, mult in spec.a_spectrum:
                if mult == 1:
                    if not rat_sum(ab2_diag(spec, mu)) == one:
                        return _ok(False, "trace != 1 in %s block of %s" % (g2, spec4.label))
    for spec3 in catalog_regular(3):
        spec = block_spec(None, spec3.label, 2)
        for mu, mult in spec.a_spectrum:
            if mult == 1:
                if not rat_sum(ab2_diag(spec, mu)) == one:
                    return _ok(False, "trace != 1 in level-3 block %s" % spec3.label)
    return _ok(True, "every catalog block, every rank-1 eigenvalue")


def check_gauge_invariance():
    six_row = assemble(label4((3, 2, 1)), gauge="row")
    six_col = assemble(label4((3, 2, 1)), gauge="column")
    if weight_report(six_row).d_scalars != weight_report(six_col).d_scalars:
        return _ok(False, "6-dim weight scalars depend on the gauge")
    eight = label4((4, 2, 2))
    if not _alpha(eight, "row", (2, 1), (2, 3)) == _alpha(eight, "column", (2, 1), (2, 3)):
        return _ok(False, "8-dim alpha depends on the gauge")
    if any(not a == b for a, b in zip(_charpoly_8dim("row"), _charpoly_8dim("column"))):
        return _ok(False, "8-dim characteristic polynomial depends on the gauge")
    return _ok(True, "weight scalars, alpha, charpoly agree across gauges")


def check_transpose_duality():
    for lbl, pname in (
        (label4((3, 2, 1)), "l1^3-l2^2*l3"),
        (label4((4, 2, 2)), "l2^3-l1^2*l3"),
    ):
        p = ideal_by_name(pname)
        fwd = composition_series(lbl, p, "as-given")
        bwd = composition_series(lbl, p, "transpose")
        if [f.label for f in fwd.factors] != [f.label for f in reversed(bwd.factors)]:
            return _ok(False, "transpose series of %s mod %s is not the reverse" % (lbl, pname))
    row = assemble(label4((3, 2, 1)), gauge="row")
    col = assemble(label4((3, 2, 1)), gauge="column")
    for idx in (2, 3):
        a, b = row.matrices[idx], col.matrices[idx]
        n = a.rows
        for r in range(n):
            if not a.entries[r][r] == b.entries[r][r]:
                return _ok(False, "diagonal mismatch between gauges")
            for s in range(n):
                if not (a.entries[r][s] * a.entries[s][r]) == (b.entries[r][s] * b.entries[s][r]):
                    return _ok(False, "S%d two-cycles differ between gauges" % idx)
    return _ok(True, "series reversal and transpose-equivalent assemblies")


def check_equivariance():
    for p in PERMS:
        for spec in catalog_regular(4):
            image = perm_label(p, spec.label)
            ispec = spec_for(image)
            if perm_ratfunc(p, spec.delta_sq) != ispec.delta_sq:
                return _ok(False, "central scalar not equivariant at %s" % image)
            w1 = {(pw[0], pw[1]): m for (i, j, m) in spec.weights for pw in [( p[i-1]+1, p[j-1]+1)]}
            if w1 != ispec.weight_multiset():
                return _ok(False, "weights not equivariant at %s" % image)
    for name in ("l1+theta*l2", "l1^3-l2^2*l3"):
        p0 = ideal_by_name(name)
        for p in PERMS:
            q = perm_ideal(p, p0)
            b0 = blocks(p0)
            b1 = blocks(q)
            img = sorted(
                tuple(sorted(perm_label(p, l).name for l in c)) for c in b0.classes
            )
            got = sorted(tuple(sorted(l.name for l in c)) for c in b1.classes)
            if img != got:
                return _ok(False, "blocks not equivariant under %s for %s" % (p, name))
    spec = block_spec(label2(1), label4((3, 2, 1)), 3)
    d = ab2_diag(spec, _L[2])
    for p in PERMS:
        lbl = perm_label(p, label4((3, 2, 1)))
        g2 = label2(p[0] + 1)
        ispec = block_spec(g2, lbl, 3)
        mu = perm_ratfunc(p, _L[2])
        di = ab2_diag(ispec, mu)
        want = [perm_ratfunc(p, x) for x in d]
        perm_x = [perm_ratfunc(p, x) for x in spec.x]
        order = []
        for x in perm_x:
            for k, xi in enumerate(ispec.x):
                if xi == x:
                    order.append(k)
        got = [di[k] for k in order]
        if any(not a == b for a, b in zip(want, got)):
            return _ok(False, "projection diagonals not equivariant under %s" % (p,))
    return _ok(True, "catalog, blocks, projection diagonals")


_ORACLE_POINTS = 100


def check_numeric_oracle():
    rng = random.Random(424242)
    specs = [block_spec(*args) for args, _expected, _detail in _EXAMPLE_BLOCKS.values()]
    count = 0
    for spec in specs:
        mus = [ev for ev, m in spec.a_spectrum if m == 1]
        for mu in mus:
            d = ab2_diag(spec, mu)
            a = ab2_matrix(spec, mu, "row")
            others = [ev for ev, _m in spec.a_spectrum if not ev == mu]
            per_case = max(1, _ORACLE_POINTS // (len(specs) * 2))
            for _ in range(per_case):
                pt = _random_generic_point(rng)
                try:
                    anum = eval_matrix(a, pt)
                    mu_v = mu.eval_point(pt)
                    other_v = [o.eval_point(pt) for o in others]
                    dnum = [x.eval_point(pt) for x in d]
                except ZeroDivisionError:
                    continue
                proj = num_eigenprojection(anum, mu_v, other_v)
                for r in range(len(dnum)):
                    if proj[r][r] != dnum[r]:
                        return _ok(False, "oracle mismatch at %s" % (pt,))
                count += 1
    return _ok(count >= _ORACLE_POINTS, "%d exact point comparisons" % count)


def _check_fast_assembly(label):
    rng = random.Random(zlib.crc32(label.name.encode()) & 0xFFFF)
    g = assemble_generic(label)
    mats = {i: g.matrices[i].map(lambda a: a.reduce()) for i in (1, 2, 3)}
    for _ in range(100):
        pt = _random_generic_point(rng)
        try:
            num = {i: eval_matrix(m, pt) for i, m in mats.items()}
        except ZeroDivisionError:
            continue
        memo = {}

        def diagonal(d):
            v = d(lambda lbl: delta_scalar(lbl).eval_point(pt), g)
            return [[v[r] if r == s else Cyclotomic() for s in range(len(v))] for r in range(len(v))]

        for name, what in (("braid_S2_S3", "braid relation"), ("delta_sq_scalar", "central scalar")):
            sides = relation_sides(RELATIONS[name], label.level, num, num_mat_mul, memo, diagonal)
            if first_difference(*sides) is not None:
                return _ok(False, "%s fails numerically at %s" % (what, pt))
    return _ok(True, "100 exact points")


FULL_CHECKS = {
    "jm_two_blocks": check_jm_two_blocks,
    **{name: partial(check_jm_example, *case) for name, case in _EXAMPLE_BLOCKS.items()},
    "jm_8dim_remark": check_jm_8dim_remark,
    "weights_6dim": check_weights_6dim,
    "alpha_8dim": partial(
        check_alpha, label4((4, 2, 2)), (2, 1), (2, 3), golden.alpha_8dim_expected,
        (("l3^3-l1^2*l2", True), ("l2^3-l1^2*l3", False), ("l1^2-theta*l2*l3", False)),
        True, "value, symmetry, equivariance, vanishing pattern",
    ),
    "alpha_9dim": partial(
        check_alpha, label4((3, 3, 3), 1), (1, 1), (1, 2), golden.alpha_9dim_expected,
        (
            ("l1+theta*l2", True),
            ("l3^2-theta*l1*l2", True),
            ("l1+theta*l3", False),
            ("l3^2-theta^2*l1*l2", False),
        ),
        False, "value, equivariance, vanishing pattern matches Table 2",
    ),
    "charpoly_8dim": check_charpoly_8dim,
    "census_generic": check_census_generic,
    "classifier": check_classifier,
    "blocks_45": check_blocks_45,
    "sequences_46": check_sequences_46,
    "table3": check_table3,
    "corollary_6dimquot": check_corollary_6dimquot,
    "k3": check_k3,
    "table4": check_table4,
    "projection_traces": check_projection_traces,
    "gauge_invariance": check_gauge_invariance,
    "transpose_duality": check_transpose_duality,
    "equivariance": check_equivariance,
    "numeric_oracle": check_numeric_oracle,
    **{
        "assembly_%s" % spec.label.name: partial(_check_assembly, spec.label)
        for spec in catalog_regular(4)
    },
}

FAST_CHECKS = {
    "census_generic": check_census_generic,
    "numeric_oracle": check_numeric_oracle,
    **{"fast_assembly_%s" % lbl.name: partial(_check_fast_assembly, lbl) for lbl in _BASE_LABELS},
}


def run_check(name: str):
    checks = dict(FULL_CHECKS)
    checks.update(FAST_CHECKS)
    return checks[name]()


def run_level(level: str, names=None, workers: int = 1):
    checks = FULL_CHECKS if level == "full" else FAST_CHECKS
    selected = names or sorted(checks)
    results = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(run_check, name) for name in selected}
            for name, fut in futures.items():
                results[name] = fut.result()
    else:
        for name in selected:
            results[name] = checks[name]()
    return results
