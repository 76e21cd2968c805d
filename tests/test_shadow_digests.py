"""Bit identity of the `shadow` command's CSV output on every bundled scene.

tests/shadow_digests.json holds, for each bundled scene at grids 7 and
16, the exit code of `shadow <scene> --grid G --format csv --allow-empty`
and the sha256 of its stdout and of its stderr.  The CSV carries every
reported shadow point's parameters, ambient position and residual at
full precision, so a change to the extraction that moves any reported
bit, or any error a scene raises, fails here.

Regenerate (only for a deliberate change of the extracted points) with

    PYTHONPATH=src python tests/test_shadow_digests.py
"""

import contextlib
import glob
import hashlib
import io
import json
import os

import pytest

from shadowgeom.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "shadow_digests.json")
SCENES = sorted(os.path.basename(p)[:-len(".scene")] for p in glob.glob(
    os.path.join(HERE, os.pardir, "src", "shadowgeom", "scenes", "*.scene")))
GRIDS = (7, 16)
CASES = [(scene, grid) for scene in SCENES for grid in GRIDS]


def _key(scene, grid):
    return f"{scene}/grid{grid}"


def shadow_digest(scene, grid) -> dict:
    """Exit code and sha256 of stdout and stderr of one `shadow` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["shadow", scene, "--grid", str(grid), "--format", "csv",
                    "--allow-empty"])
    return {
        "code": code,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def _frozen():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_bundled_scene_has_a_digest():
    assert sorted(_key(s, g) for s, g in CASES) == sorted(_frozen())


@pytest.mark.parametrize("scene,grid", CASES, ids=[_key(s, g) for s, g in CASES])
def test_shadow_csv_matches_frozen_digest(scene, grid):
    assert shadow_digest(scene, grid) == _frozen()[_key(scene, grid)]


if __name__ == "__main__":
    table = {_key(s, g): shadow_digest(s, g) for s, g in CASES}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} shadow digests to {DIGESTS}")
