"""Command-line surface.

Commands
--------
classify      semisimplicity at a point or on an ideal locus
rep           build or verify a regular-module generator file
structure     blocks, composition series, census, exact sequences
catalog       dump the module and ideal catalogs
verify-all    regenerate every published formula and table

Exit codes: 0 success/semisimple, 2 invalid input, 10 non-semisimple,
20 verification failure.  Reports are canonical JSON (byte-identical for
identical inputs); ``--format markdown`` renders the table view instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


from .builder import assemble, verify
from .catalog import (
    catalog_regular,
    ideal_catalog,
    vanishing_for_module,
)
from .errors import CubicHeckeError, IncompatibleIdeals
from .expr import ParseError, parse_ideal, parse_label, parse_point
from .serialize import (
    canonical_dumps,
    envelope,
    label_to_json,
    matrix_from_json,
    matrix_to_json,
    path_to_json,
    ratfunc_to_json,
)
from .structure import (
    blocks,
    census_generic,
    census_pair,
    census_single,
    classify_ideals,
    classify_point,
    composition_series,
    exact_sequence,
    invariant_chain,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SEMISIMPLE = 10
EXIT_VERIFY_FAILED = 20


def _emit(args, payload):
    text = canonical_dumps(payload)
    if getattr(args, "format", "json") == "markdown" and payload.get("markdown"):
        text = payload["markdown"]
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (args.out, exc.strerror)) from exc
    else:
        print(text)


def _weights_json(weights: dict) -> list:
    return [[i, j, m] for (i, j), m in sorted(weights.items())]


def cmd_classify(args) -> int:
    if args.lam:
        point = parse_point(args.lam)
        report = classify_point(point)
    elif args.ideal:
        report = classify_ideals([parse_ideal(t) for t in args.ideal])
    else:
        raise ParseError("classify needs --lambda or --ideal")
    result = {
        "input": report.input_desc,
        "semisimple": report.semisimple,
        "vanishing": [v.name for v in report.vanishing],
    }
    md = "| input | semisimple | vanishing |\n|---|---|---|\n| %s | %s | %s |" % (
        report.input_desc,
        report.semisimple,
        ", ".join(v.name for v in report.vanishing) or "-",
    )
    _emit(args, envelope(["classify", report.input_desc], result, md))
    return EXIT_OK if report.semisimple else EXIT_NOT_SEMISIMPLE


def _read_build_file(path) -> dict:
    """The "result" object of a build file, with its "label", "context" and
    "gauge" shapes checked; a file that cannot be read is invalid input."""
    if path is None:
        raise ParseError("rep verify needs --out <build file>")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read build file %s: %s" % (path, exc.strerror)) from exc
    result = payload.get("result", payload) if isinstance(payload, dict) else payload
    if not isinstance(result, dict):
        raise ValueError('a build file must be an object or hold one under "result"')
    label = result["label"]
    if not (isinstance(label, dict) and isinstance(label["name"], str)):
        raise ValueError('"label" must be an object whose "name" is a string')
    if not isinstance(result["context"], str):
        raise ValueError('"context" must be a string')
    if result["gauge"] not in ("row", "column"):
        raise ValueError('"gauge" must be "row" or "column"')
    return result


def _locus(ideal_text: str):
    """The parametrized locus of an ideal argument; an li - lj ideal has none."""
    param = parse_ideal(ideal_text).param
    if param is None:
        raise ValueError("the eigenvalues are assumed pairwise distinct")
    return param


def cmd_rep(args) -> int:
    if args.action == "build":
        if args.module is None:
            raise ParseError("rep build needs --module")
        label = parse_label(args.module)
        ctx = _locus(args.ideal) if args.ideal else None
        g = assemble(label, ctx, args.gauge)
        report = verify(g)
        result = {
            "label": label_to_json(label),
            "gauge": g.gauge,
            "context": args.ideal or "generic",
            "basis": [path_to_json(t) for t in g.basis],
            "matrices": {str(i): matrix_to_json(m) for i, m in g.matrices.items()},
            "certificate": {
                k: v for k, v in g.certificate.items() if k != "solved"
            },
            "checks": [[c.name, c.passed] for c in report.checks],
        }
        if ctx is not None:
            result["invariant_chain"] = invariant_chain(g.generators())
        _emit(args, envelope(["rep", "build", args.module, args.ideal or "", args.gauge], result))
        return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED
    # verify: re-read a build file and re-check all relations
    result = _read_build_file(args.out)
    label = parse_label(result["label"]["name"])
    from .catalog import enumerate_paths

    paths = enumerate_paths(label)
    mats = result["matrices"]
    if not (isinstance(mats, dict) and set(mats) == {"1", "2", "3"}):
        raise ValueError('"matrices" must be an object with exactly the keys "1", "2" and "3"')
    mats = {k: matrix_from_json(mats[str(k)], len(paths)) for k in (1, 2, 3)}
    from .builder import GeneratorSet

    ctx = _locus(result["context"]) if result["context"] != "generic" else None
    g = GeneratorSet(label, paths, mats, ctx, result["gauge"])
    report = verify(g)
    out = {
        "label": result["label"]["name"],
        "checks": [[c.name, c.passed, list(c.residual) if c.residual else None] for c in report.checks],
        "all_passed": report.all_passed,
    }
    infile = args.out
    args.out = None  # the file argument was the input; the report goes to stdout
    _emit(args, envelope(["rep", "verify", infile], out))
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _census_json(census) -> dict:
    return {
        "context": census.context,
        "branch": census.branch,
        "sum_dim_sq": census.sum_dim_sq,
        "entries": [
            {
                "label": e.label.name,
                "dim": e.dim,
                "weights": _weights_json(e.weights),
                "delta_sq": ratfunc_to_json(e.delta_sq),
            }
            for e in census.entries
        ],
    }


def _census_markdown(census) -> str:
    lines = ["| label | dim | weights |", "|---|---|---|"]
    for e in census.entries:
        lines.append(
            "| %s | %d | %s |"
            % (e.label.name, e.dim, " ".join("(%d,%d)x%d" % (i, j, m) for (i, j), m in sorted(e.weights.items())))
        )
    return "\n".join(lines)


def cmd_structure(args) -> int:
    ideals = [parse_ideal(t) for t in args.ideal or []]
    if args.action == "blocks":
        if len(ideals) != 1:
            raise ParseError("blocks needs exactly one --ideal")
        b = blocks(ideals[0])
        result = {
            "ideal": ideals[0].name,
            "classes": [[l.name for l in c] for c in b.classes],
            "singletons": [l.name for l in b.singletons],
            "congruence_classes": [[l.name for l in c] for c in b.congruence_classes],
        }
        md = "\n".join(
            "- [%s]" % ", ".join(l.name for l in c) for c in b.classes
        )
        _emit(args, envelope(["structure", "blocks", ideals[0].name], result, md))
        return EXIT_OK
    if args.action == "series":
        if len(ideals) != 1 or not args.module:
            raise ParseError("series needs --module and exactly one --ideal")
        label = parse_label(args.module)
        cs = composition_series(label, ideals[0], args.orientation)
        result = {
            "module": label.name,
            "ideal": ideals[0].name,
            "orientation": cs.orientation,
            "route": cs.route,
            "factors": [
                {
                    "label": f.label.name,
                    "dim": f.dim,
                    "paths": list(f.indices),
                    "weights": _weights_json(f.weights),
                }
                for f in cs.factors
            ],
            "certificate": {k: str(v) for k, v in cs.certificate.items()},
        }
        md = " -> ".join("%s (%d)" % (f.label.name, f.dim) for f in cs.factors)
        _emit(args, envelope(["structure", "series", label.name, ideals[0].name], result, md))
        return EXIT_OK
    if args.action == "sequence":
        if len(ideals) != 1:
            raise ParseError("sequence needs exactly one --ideal")
        b = blocks(ideals[0])
        sequences = []
        for c in b.classes:
            seq = exact_sequence(ideals[0], c)
            sequences.append(
                {
                    "labels": [l.name for l in seq.labels],
                    "factor_chain": [l.name for l in seq.factor_chain],
                }
            )
        result = {"ideal": ideals[0].name, "sequences": sequences}
        md = "\n".join(
            "0 -> " + " -> ".join(s["labels"]) + " -> 0" for s in sequences
        )
        _emit(args, envelope(["structure", "sequence", ideals[0].name], result, md))
        return EXIT_OK
    if args.action == "census":
        if args.expect == "paper":
            return _expect_paper(args)
        if not ideals:
            censuses = [census_generic()]
        elif len(ideals) == 1:
            censuses = [census_single(ideals[0])]
        elif len(ideals) == 2:
            censuses = census_pair(ideals[0], ideals[1])
        else:
            raise ParseError("census accepts at most two --ideal arguments")
        result = {"censuses": [_census_json(c) for c in censuses]}
        md = "\n\n".join(_census_markdown(c) for c in censuses)
        _emit(
            args,
            envelope(["structure", "census"] + [p.name for p in ideals], result, md),
        )
        return EXIT_OK
    raise ParseError("unknown structure action %r" % args.action)


def _expect_paper(args) -> int:
    from .verifyall import run_level

    names = ["blocks_45", "sequences_46", "table3", "table4", "corollary_6dimquot", "k3"]
    results = run_level("full", names=names)
    payload = {name: {"passed": ok, "detail": detail} for name, (ok, detail) in results.items()}
    _emit(args, envelope(["structure", "census", "--expect", "paper"], payload))
    return EXIT_OK if all(ok for ok, _ in results.values()) else EXIT_VERIFY_FAILED


def cmd_catalog(args) -> int:
    level4 = []
    for spec in catalog_regular(4):
        level4.append(
            {
                "label": spec.label.name,
                "dim": spec.dim,
                "delta_sq": ratfunc_to_json(spec.delta_sq),
                "weights": _weights_json(spec.weight_multiset()),
                "restriction": [g3.name for g3 in spec.restriction],
                "not_semisimple_on": [p.name for p in vanishing_for_module(spec.label)],
            }
        )
    level3 = [
        {
            "label": s.label.name,
            "dim": s.dim,
            "delta_sq": ratfunc_to_json(s.delta_sq),
        }
        for s in catalog_regular(3)
    ]
    ideals = [
        {
            "name": p.name,
            "family": p.family,
            "parametrization": str(p.param) if p.param else None,
        }
        for p in ideal_catalog()
    ]
    result = {"level4": level4, "level3": level3, "ideals": ideals}
    _emit(args, envelope(["catalog"], result))
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from .verifyall import run_level

    workers = int(os.environ.get("HECKE_NUM_WORKERS", "1"))
    results = run_level(args.level, workers=workers)
    payload = {
        name: {"passed": ok, "detail": detail}
        for name, (ok, detail) in sorted(results.items())
    }
    all_ok = all(ok for ok, _ in results.values())
    payload["_summary"] = {
        "level": args.level,
        "passed": sum(1 for ok, _ in results.values() if ok),
        "failed": sum(1 for ok, _ in results.values() if not ok),
    }
    md = "\n".join(
        "- %s: %s (%s)" % (name, "pass" if ok else "FAIL", detail)
        for name, (ok, detail) in sorted(results.items())
    )
    _emit(args, envelope(["verify-all", args.level], payload, md))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubichecke",
        description="Exact structure computations for the cubic Hecke algebras on 3 and 4 strands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Theorem-A semisimplicity test")
    p.add_argument("--lambda", dest="lam", help='eigenvalue literals "a,b,c"')
    p.add_argument("--ideal", action="append", help="ideal name, repeatable")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rep", help="build or verify generator matrices")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--module", help='label such as "l1^3*l2^2*l3" or "l1^3*l2^3*l3^3:theta"')
    p.add_argument("--ideal")
    p.add_argument("--gauge", choices=["row", "column"], default="row")
    p.add_argument("--out", help="output file (build) or input file (verify)")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("structure", help="blocks, series, census, sequences")
    p.add_argument("action", choices=["blocks", "series", "census", "sequence"])
    p.add_argument("--module")
    p.add_argument("--ideal", action="append")
    p.add_argument("--orientation", choices=["as-given", "transpose"], default="as-given")
    p.add_argument("--expect", choices=["paper"])
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("catalog", help="dump the module and ideal catalogs")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-all", help="regenerate the published data")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IncompatibleIdeals) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except CubicHeckeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
