import os
import subprocess
import sys
from pathlib import Path

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


def _fast_points(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _RECORD_POINTS], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_fast_assembly_points_ignore_hash_seed():
    first = _fast_points("1")
    assert first.startswith("[(")
    assert _fast_points("2") == first
