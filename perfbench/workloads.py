"""One pass of a benchmark workload, run in a fresh Python process.

    python3 perfbench/workloads.py <workload> <seed> <trace 0|1>

``<workload>`` is ``setup`` (set up and exit), ``generic_verify``,
``point_checks`` or ``locus_census``.  The process sets up the library, runs
the workload's queries one at a time (a closed loop with one client), checks
every answer and prints one JSON object on its last stdout line.  With
trace 1 the layer tracer is installed around the queries.

The seed fixes the exact random points and, for locus_census, one S3
permutation of the eigenvalues.  Every pass of a run runs the same queries,
so each query gets several samples in a run.  Costs differ a lot between S3
images of one query (on a 2-core shared host the six 6-dim images took
5.6-11.5 s a rep build, and the 8-dim assembly varies by half), so
generic_verify and point_checks build the identity images (the labels as the
paper writes them) whatever the seed.  Cycling them through a coset of A3
instead, to balance the cost, left each query 1-2 samples in a run, and ten
seeds spread by 24-30% of the median.  The six images of locus_census cost
the same to within the host's noise (7-9.5 s a pass), so it runs the seeded
permutation.  It leaves out the theta_sum family: any theta_sum census
assembles both 9-dim modules, one 23-25 s query that a run could sample only
once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")
IDENTITY = (0, 1, 2)
POINTS_6DIM = 30                  # random points on the 6-dim module (point_checks)
POINTS_8DIM = 20                  # random points on the 8-dim module (point_checks)
CLASSIFY_POINTS = 150             # classify_point calls per pass (point_checks)

# pre-image ideals of locus_census, one per family but theta_sum (Table 4 uses
# the first pair)
CUBIC, SUM, SQ_PLUS = "l1^3-l2^2*l3", "l1+l3", "l2^2+l1*l3"


def setup():
    """Import the library and build the catalogs every query reads."""
    import cubichecke.cli  # noqa: F401
    from cubichecke import catalog

    catalog.catalog_regular(3)
    catalog.catalog_regular(4)
    catalog.ideal_catalog()
    catalog.exceptional_catalog()


def seeded(seed: int):
    """The S3 permutation the seed picks (locus_census)."""
    from cubichecke.catalog import PERMS

    return random.Random(seed).choice(PERMS)


def image(p, exps, theta=0) -> str:
    from cubichecke import catalog

    return catalog.perm_label(p, catalog.label4(exps, theta)).name


def ideal_image(p, name: str) -> str:
    from cubichecke import catalog

    return catalog.perm_ideal(p, catalog.ideal_by_name(name)).name


def generic_point(rng):
    """Distinct positive rationals off every Theorem-A locus (no cubic hits)."""
    from cubichecke.cyclotomic import Cyclotomic

    while True:
        vals = [Fraction(rng.randint(2, 997), rng.randint(1, 9)) for _ in range(3)]
        if len(set(vals)) < 3:
            continue
        if any(vals[a] ** 3 == vals[b] ** 2 * vals[c]
               for a in range(3) for b in range(3) for c in range(3)
               if len({a, b, c}) == 3):
            continue
        return tuple(Cyclotomic.from_rational(v) for v in vals)


# -- queries ------------------------------------------------------------------------
#
# A query is (name, thunk).  The thunk runs the query; it returns (ok, output)
# where output is the text whose sha256 is the query's digest.  Only the thunk
# is timed.  Each ``*_queries(p, rng)`` gives the queries for one permutation p.


def cli_query(argv):
    """A CLI query through ``cli.main``; it must exit 0."""
    from cubichecke import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code == 0, buf.getvalue()

    return " ".join(argv), run


def generic_verify_queries(p, rng) -> list:
    modules = [image(p, e) for e in ((3, 2, 1), (1, 1, 1), (2, 1, 0), (1, 1, 0), (1, 0, 0))]
    return [cli_query(["rep", "build", "--module", m]) for m in modules]


def _point_queries(label_name: str, npoints: int, rng) -> list:
    """Assemble and reduce one module, then check the braid relation and the
    central scalar of the squared half twist exactly at random points."""
    from cubichecke import builder, catalog, matrix
    from cubichecke.cyclotomic import Cyclotomic
    from cubichecke.expr import parse_label

    label = parse_label(label_name)
    points = [generic_point(rng) for _ in range(npoints)]
    state = {}

    def build():
        g = builder.assemble(label)
        state["mats"] = [g.matrices[i].map(lambda a: a.reduce()) for i in (1, 2, 3)]
        state["scalar"] = catalog.delta_scalar(label)
        return True, "".join(str(a) for m in state["mats"] for row in m.entries for a in row)

    def check(pt):
        def run():
            try:
                m1, m2, m3 = (matrix.eval_matrix(m, pt) for m in state["mats"])
            except ZeroDivisionError:
                return None, "skipped"
            mul = matrix.num_mat_mul
            braid = mul(mul(m2, m3), m2) == mul(mul(m3, m2), m3)
            d4 = mul(mul(mul(mul(mul(m1, m2), m3), m1), m2), m1)
            d4sq = mul(d4, d4)
            sc = state["scalar"].eval_point(pt)
            zero = Cyclotomic()
            central = all(d4sq[r][s] == (sc if r == s else zero)
                          for r in range(len(d4sq)) for s in range(len(d4sq)))
            return braid and central, str(sc)
        return run

    out = [("assemble " + label_name, build)]
    for k, pt in enumerate(points):
        out.append(("points %s #%d" % (label_name, k), check(pt)))
    return out


def point_checks_queries(p, rng) -> list:
    from cubichecke import structure

    queries = _point_queries(image(p, (3, 2, 1)), POINTS_6DIM, rng)
    queries += _point_queries(image(p, (4, 2, 2)), POINTS_8DIM, rng)

    def classify(pt):
        def run():
            report = structure.classify_point(pt)
            return report.semisimple, report.input_desc
        return run

    for k in range(CLASSIFY_POINTS):
        queries.append(("classify %s #%d" % (p, k), classify(generic_point(rng))))
    return queries


def locus_census_queries(p, rng) -> list:
    cubic, sum_, sq_plus = (ideal_image(p, n) for n in (CUBIC, SUM, SQ_PLUS))
    argvs = [
        ["structure", "census", "--ideal", cubic],
        ["structure", "census", "--ideal", sum_],
        ["structure", "census", "--ideal", sq_plus],
        ["structure", "census", "--ideal", sum_, "--ideal", cubic],
        ["structure", "sequence", "--ideal", cubic],
        ["structure", "blocks", "--ideal", sq_plus],
    ]
    return [cli_query(a) for a in argvs]


# workload -> (its queries for one permutation, the run's permutation from the seed)
WORKLOADS = {
    "generic_verify": (generic_verify_queries, lambda seed: IDENTITY),
    "point_checks": (point_checks_queries, lambda seed: IDENTITY),
    "locus_census": (locus_census_queries, seeded),
}


def pass_queries(workload: str, seed: int) -> list:
    """The queries of every pass of a run: the workload's queries for the
    run's permutation, with random points drawn from the seed."""
    queries, perm = WORKLOADS[workload]
    return queries(perm(seed), random.Random("%d/points" % seed))


def load_refs() -> dict:
    """sha256 of every CLI query's canonical JSON, per workload, for all six
    S3 images; captured with ``python3 perfbench/refs.py``."""
    with open(REFS) as fh:
        return json.load(fh)


def run_query(name: str, thunk, refs: dict | None) -> dict:
    """Time one query and check its answer; only the thunk is timed."""
    t0 = time.perf_counter()
    try:
        ok, output = thunk()
        error = None
    except Exception as exc:  # a query that raises is a failed query
        ok, output, error = False, "", "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(output.encode()).hexdigest()
    if ok and refs is not None and refs.get(name) != digest:
        ok, error = False, "digest differs from reference %s" % refs.get(name)
    return {"name": name, "seconds": seconds, "ok": ok, "digest": digest, "error": error}


def run_pass(queries: list, trace: bool, refs: dict | None) -> dict:
    """Run the queries of one pass; returns per-query records and the trace.

    ``refs`` maps query names to reference digests; every query must have one.
    ``None`` skips the comparison (point_checks, and reference capture).
    A record's ``ok`` is None for a point where a denominator vanishes.
    """
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        records = [run_query(name, thunk, refs) for name, thunk in queries]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"queries": records, "layers": tracer.counts() if tracer else None}


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    setup()
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}
    if workload != "setup":
        refs = load_refs().get(workload)
        result.update(run_pass(pass_queries(workload, seed), trace, refs))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
