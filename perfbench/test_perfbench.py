"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run small slices of each workload (a few seconds each) in fresh
processes, the way the benchmark runs its passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# One slice per workload: cheap queries that still reach the layers it covers.
SLICE = """
import json, sys, workloads
from cubichecke.catalog import PERMS
workloads.setup()
p, rng = PERMS[4], workloads.random.Random(7)
queries = [q for q in workloads.generic_verify_queries(p, rng) if "^3" not in q[0]]
queries += workloads._point_queries(workloads.image(p, (3, 2, 1)), 3, rng)
sq_plus = "structure census --ideal " + workloads.ideal_image(p, workloads.SQ_PLUS)
queries += [q for q in workloads.locus_census_queries(p, rng) if q[0] == sq_plus]
print(json.dumps(workloads.run_pass(queries, sys.argv[1] == "1", None)))
"""


def _slice(trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SLICE, "1" if trace else "0"],
        cwd=HERE, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def slices():
    return [_slice(True), _slice(True), _slice(False)]


def test_slice_covers_every_workload_kind(slices):
    names = [q["name"] for q in slices[0]["queries"]]
    assert any(n.startswith("rep build") for n in names)
    assert any(n.startswith("points") for n in names)
    assert any(n.startswith("structure census") for n in names)
    assert all(q["ok"] is not False for s in slices for q in s["queries"])


def test_traced_counts_repeat_exactly(slices):
    a, b = slices[0]["layers"], slices[1]["layers"]
    for name in ("laurent.mul.term_pairs", "cyclotomic.mul.calls", "matrix.mul.calls"):
        assert a[name] > 0
        assert a[name] == b[name], name


def test_tracing_does_not_change_outputs(slices):
    traced = [q["digest"] for q in slices[0]["queries"]]
    untraced = [q["digest"] for q in slices[2]["queries"]]
    assert traced == untraced
    assert slices[2]["layers"] is None


def _bindings():
    import cubichecke.cli  # noqa: F401

    out = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("cubichecke") and m]:
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    out[(mod.__name__, attr, name)] = member
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("cubichecke.cli", "verify") in changed
        assert ("cubichecke.structure", "assemble") in changed
        assert ("cubichecke.cyclotomic", "Cyclotomic", "__mul__") in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_seed_fixes_inputs():
    def classify_inputs(seed):
        queries = workloads.pass_queries("point_checks", seed)
        return [thunk()[1] for name, thunk in queries if name.startswith("classify")][:5]

    assert classify_inputs(11) == classify_inputs(11)
    assert classify_inputs(11) != classify_inputs(12)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
