"""Bit identity of chart evaluation for every bundled chart.

tests/chart_digests.json holds the sha256 of `eval_values` and of
`eval_jets` at orders 1 and 2 for each chart a bundled scene or test
shape builds: root patches, ambient constraints, nested charts and their
compositions, product charts and their stacked constraints, and tube
sweeps, plus a few operator charts that reach every primitive.  Each
chart is evaluated on a fixed grid plus fixed interior points of its
domain.  A change to the evaluator
that moves any value, Jacobian or Hessian bit fails here.

Regenerate (only for a deliberate change of the arithmetic) with

    PYTHONPATH=src python tests/test_chart_digests.py
"""

import glob
import hashlib
import json
import os

import numpy as np
import pytest

from shadowgeom.expr import compose, parse_chart
from shadowgeom.geometry import Box
from shadowgeom.helix import tube_patch
from shadowgeom.scene import load_scene
from shadowgeom.shadow import product_patch

import shapes

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "chart_digests.json")
SCENES = sorted(glob.glob(os.path.join(HERE, os.pardir, "src", "shadowgeom",
                                       "scenes", "*.scene")))


def _points(box):
    """A 4-per-axis grid of the box and 7 seeded points inside it."""
    rng = np.random.default_rng(20071)
    inner = rng.uniform(np.asarray(box.lo, dtype=float), np.asarray(box.hi, dtype=float),
                        size=(7, len(box.lo)))
    return np.concatenate([box.grid(4), inner])


def _patch_charts(label, patch):
    """(name, chart, points) for a patch chart and its ambient constraint."""
    pts = _points(patch.domain)
    yield f"{label}/chart", patch.chart, pts
    if patch.ambient.constraint is not None:
        yield f"{label}/constraint", patch.ambient.constraint, patch.chart.eval_values(pts)


# Every primitive with each operand kind (parameter-dependent or constant
# on either side), shared subexpressions and folded constants; only
# literal exponents, so every power takes the same path at any commit.
# (source, constants, lo, hi)
OPERATOR_CHARTS = [
    ("(sin(u)*cos(v)*exp(0.1*u) + u^3*v, atan2(u, 1 + v^2), sqrt(4 + u*v))",
     {}, (0.3, 0.3), (1.4, 1.4)),
    ("(u/v, 2/u, u/2, u - 3, 3 - u, -u + v, u^v, 2^u, log(u*v), tan(u/4))",
     {}, (0.3, 0.3), (1.4, 1.4)),
    ("(atan2(u, 2), atan2(2, v), atan2(0, u), atan2(v, 0), u^0, u^1, u^0.5, u^2, 1/u^3)",
     {}, (0.3, 0.3), (1.4, 1.4)),
    ("(u*sin(a)*cos(v), u*cos(a) - v/sin(a)^2, (u + v)*sin(u + v), exp(u + v) - (u + v))",
     {"a": 0.5}, (-1.3, -1.1), (1.2, 1.4)),
    ("(0*u, u*cos(v) - u*cos(v), -(u*v), 1.5, u - u, cos(u*v) - u, atan2(u + 2, v + 3))",
     {}, (-1.3, -1.1), (1.2, 1.4)),
]


def bundled_charts():
    """Every chart the bundled scenes and test shapes build, by name."""
    for k, (src, constants, lo, hi) in enumerate(OPERATOR_CHARTS):
        chart = parse_chart(src, ("u", "v"), constants)
        yield f"ops/{k}", chart, _points(Box(lo, hi, (False, False)))
    for path in SCENES:
        scene = load_scene(path)
        for name, patch in scene.patches.items():
            yield from _patch_charts(f"{scene.name}/{name}", patch)
        for name, spec in scene.nested.items():
            parent = scene.patches[spec.parent]
            yield f"{scene.name}/{name}/sub", spec.chart, _points(spec.domain)
            yield (f"{scene.name}/{name}/composed", compose(parent.chart, spec.chart),
                   _points(spec.domain))
        if scene.product is not None:
            a, b = (scene.patch(n) for n in scene.product)
            yield from _patch_charts(f"{scene.name}/product", product_patch(a, b))
        if scene.tube is not None:
            patch, sub = tube_patch(scene.patch(scene.tube.of), scene.tube.direction,
                                    scene.tube.eps)
            yield from _patch_charts(f"{scene.name}/tube", patch)
            yield f"{scene.name}/tube/sub", sub, _points(scene.patch(scene.tube.of).domain)
    for name in sorted(shapes.BUILTIN_PATCHES):
        yield from _patch_charts(f"shapes/{name}", shapes.build_patch(name))


def chart_digests(chart, points) -> dict:
    """sha256 of the value bytes at order 0 and the jet bytes at orders 1, 2."""
    out = {"o0": hashlib.sha256(chart.eval_values(points).tobytes()).hexdigest()}
    for order in (1, 2):
        jets = chart.eval_jets(points, order=order)
        h = hashlib.sha256(jets.value.tobytes())
        h.update(jets.jac.tobytes())
        if order == 2:
            h.update(jets.hess.tobytes())
        out[f"o{order}"] = h.hexdigest()
    return out


def _frozen():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


CHARTS = list(bundled_charts())


def test_every_bundled_chart_has_a_digest():
    assert sorted(name for name, _, _ in CHARTS) == sorted(_frozen())


@pytest.mark.parametrize("name,chart,points", CHARTS, ids=[c[0] for c in CHARTS])
def test_chart_jets_match_frozen_digest(name, chart, points):
    assert chart_digests(chart, points) == _frozen()[name]


if __name__ == "__main__":
    table = {name: chart_digests(chart, pts) for name, chart, pts in bundled_charts()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} chart digests to {DIGESTS}")
