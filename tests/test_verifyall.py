import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_RECORD_POINTS = """
from cubichecke import verifyall
from cubichecke.catalog import label4

points = []
draw = verifyall._random_generic_point


def recording(rng):
    pt = draw(rng)
    points.append(pt)
    return pt


verifyall._random_generic_point = recording
verifyall._check_fast_assembly(label4((1, 0, 0)))
print(points)
"""


# a cheap subset of the fast level: the census and three small assemblies
FAST_SUBSET = ["census_generic", "fast_assembly_l1", "fast_assembly_l1*l2", "fast_assembly_l1^2*l2"]

_RUN_SUBSET = """
from cubichecke.verifyall import run_level

print(sorted(run_level("fast", names=%r).items()))
""" % (FAST_SUBSET,)


def _run(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_fast_assembly_points_ignore_hash_seed():
    first = _run(_RECORD_POINTS, "1")
    assert first.startswith("[(")
    assert _run(_RECORD_POINTS, "2") == first


def test_fast_level_ignores_hash_seed():
    first = _run(_RUN_SUBSET, "1")
    assert first.startswith("[('census_generic', (True,")
    assert _run(_RUN_SUBSET, "2") == first


def test_fast_level_workers_match_serial():
    from cubichecke.verifyall import run_level

    serial = run_level("fast", names=FAST_SUBSET)
    assert sorted(serial) == sorted(FAST_SUBSET)
    assert run_level("fast", names=FAST_SUBSET, workers=2) == serial


@pytest.mark.parametrize(
    "gen,named", [(3, "braid relation"), (1, "central scalar")], ids=["braid", "central_scalar"]
)
def test_fast_assembly_names_a_broken_relation(monkeypatch, gen, named):
    # doubling the first diagonal entry of S3 breaks braid_S2_S3; doubling
    # that of S1 keeps it and breaks the central scalar of Delta^2
    import dataclasses

    from cubichecke import verifyall
    from cubichecke.builder import assemble, assemble_generic
    from cubichecke.catalog import label4
    from cubichecke.cyclotomic import Cyclotomic
    from cubichecke.matrix import Matrix
    from cubichecke.ratfunc import RatFunc

    label = label4((2, 1, 0))
    before = assemble_generic(label).matrices[gen]
    g = assemble(label)
    rows = [list(row) for row in g.matrices[gen].entries]
    rows[0][0] = rows[0][0] * RatFunc.const(Cyclotomic(2))
    tampered = dataclasses.replace(g, matrices={**g.matrices, gen: Matrix(rows)})
    monkeypatch.setattr(verifyall, "assemble_generic", lambda lbl, gauge="row": tampered)

    ok, detail = verifyall._check_fast_assembly(label)
    assert not ok
    assert named in detail
    assert assemble_generic(label).matrices[gen] == before
