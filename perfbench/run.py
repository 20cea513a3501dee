"""The cubichecke benchmark runner (stdlib only).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each pass of a workload runs in a
fresh Python process (``workloads.py``), one query at a time, with a fixed
``PYTHONHASHSEED`` and ``HECKE_NUM_WORKERS`` unset.  Every pass of a run runs
the same queries (see ``workloads.py``).  The runner first starts several
set-up-only processes, then runs untraced passes until the next one would end
after ``--seconds``, then starts set-up-only processes again.  A query's time
is the median of its samples.  With ``--trace 1`` it runs one untraced and
one traced pass and reports the layer metrics instead.

Every query is checked (see ``workloads.py``); every sample of a query must
also give the same digest.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the set-up and query timings and ``failed_frac``
for a reader.  Metric names and units come from ``BENCHMARK.json``;
``perfbench/METRICS.md`` says which layer metric should move which
end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6          # set-up-only processes before, and again after, the passes
RUN_LIMIT_S = 170         # every process of a run ends by then (the limit is 180 s)


def calibration_spin() -> float:
    """Seconds for a fixed pure-Fraction loop: a gauge of host speed.

    Reported as ``host.calib_s`` only; no metric is ever rescaled by it."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60000):
        acc += Fraction(k % 97 + 1, k % 89 + 2)
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_NUM_WORKERS", None)
    env.pop("HECKE_TRACE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"    # every set-up compiles the same way
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh process.  Returns its JSON report plus the pass's
    duration and the set-up time seen from here (process start to library
    imported and catalogs built)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
           "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d:\n%s" % (workload, proc.returncode, proc.stderr))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_done"] - start
    report["duration_s"] = time.monotonic() - start
    return report


def run(workload: str, seed: int, seconds: float, trace: bool):
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    calib = [calibration_spin()]

    def probe_setups():
        return [spawn("setup", seed, False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    def room() -> bool:
        longest = max(p["duration_s"] for p in passes)
        return time.monotonic() - t0 + longest <= seconds

    setups = probe_setups()
    passes = [spawn(workload, seed, False, deadline)]
    while not trace and room():
        passes.append(spawn(workload, seed, False, deadline))
    traced = [spawn(workload, seed, True, deadline)] if trace else []
    setups += probe_setups() + [p["setup_s"] for p in passes]
    calib.append(calibration_spin())
    return calib, setups, passes, traced


def check(passes: list) -> tuple[int, int, int]:
    """(attempted, failed, skipped) over all samples.

    A sample fails when its query raised, failed its own check, or gave
    another digest than the query's first sample."""
    attempted = failed = skipped = 0
    first: dict = {}
    for rep in passes:
        for q in rep["queries"]:
            if q["ok"] is None:
                skipped += 1
                continue
            attempted += 1
            if not q["ok"] or first.setdefault(q["name"], q["digest"]) != q["digest"]:
                failed += 1
                print("FAILED %s: %s" % (q["name"], q["error"] or "digest differs between samples"))
    return attempted, failed, skipped


def query_medians(passes: list) -> dict:
    samples: dict = {}
    for rep in passes:
        for q in rep["queries"]:
            samples.setdefault(q["name"], []).append(q["seconds"])
    return {name: statistics.median(s) for name, s in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cubichecke", "__init__.py")):
        print("error: no cubichecke sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    calib, setups, passes, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, skipped = check(passes + traced)
    medians = query_medians(passes)
    print(json.dumps({"env": {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": "0",
        "passes": len(passes),
        "setup_samples": len(setups),
    }}))
    slowest = sorted(medians.items(), key=lambda kv: -kv[1])[:3]
    print(json.dumps({"slowest_queries": slowest, "setup_s": setups, "host.calib_s": calib}))
    print("failed_frac %.4f (%d of %d queries; %d points skipped)"
          % (failed / attempted, failed, attempted, skipped))
    if traced:
        raw: dict = {}
        for rep in traced:
            for name, value in rep["layers"].items():
                raw[name] = raw.get(name, 0) + value
        measured = {m["name"]: 0 for m in spec["per_layer"]}   # counters never hit
        measured.update(tracer.metrics(raw))
        measured["trace_overhead"] = sum(q["seconds"] for rep in traced for q in rep["queries"]) / sum(
            q["seconds"] for rep in passes for q in rep["queries"])
        measured["host.calib_s"] = statistics.median(calib)
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(medians.values()),
            "slowest_query_s": max(medians.values()),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print("%-44s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
