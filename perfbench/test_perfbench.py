"""Self-tests of the benchmark.  Run from the repo root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402

TORUS = ("shadow", "torus_e3", "--grid", "256")
ENV = bench.worker_env(ROOT)


@pytest.fixture(scope="module")
def torus_report():
    return bench.spawn(list(TORUS), ENV)


def _corrupt_radius(stdout: str) -> str:
    """Push the first row (on the outer circle, x2 = 0) out by 1e-6."""
    lines = stdout.splitlines(keepends=True)
    cells = lines[1].split(",")
    assert float(cells[3]) == 0.0
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[1] = ",".join(cells)
    return "".join(lines)


def test_torus_output_passes_its_oracle(torus_report):
    assert bench.check_output(bench.command_key(TORUS), torus_report) is None


def test_corrupted_torus_radius_counts_as_failure(torus_report, monkeypatch):
    bad = dict(torus_report, stdout=_corrupt_radius(torus_report["stdout"]))
    assert "radius" in bench.check_output(bench.command_key(TORUS), bad)

    monkeypatch.setitem(bench.WORKLOADS, "torus-only", (TORUS,))
    monkeypatch.setattr(bench, "spawn", lambda *a, **kw: dict(bad))
    run = bench.Run(ROOT, "torus-only", 0, {"fixed": {}, "seeded": {}})
    run.one_round()
    assert (run.attempted, len(run.failures)) == (1, 1)


def test_frozen_table_covers_every_command_for_every_seed():
    with open(bench.FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for cmd in {c for cmds in bench.WORKLOADS.values() for c in cmds}:
        key = bench.command_key(cmd)
        for seed in (0, 1, bench.FROZEN_SEEDS - 1, bench.FROZEN_SEEDS, 12345):
            assert bench.frozen_digest(frozen, key, seed) is not None, (key, seed)
    assert bench.argv_for(("transport", "latitude_p3"), bench.FROZEN_SEEDS + 7)[-1] == "7"


@pytest.mark.parametrize("cmd", sorted({c for cmds in bench.WORKLOADS.values()
                                        for c in cmds}))
def test_outputs_match_with_wrappers_on_and_off(cmd):
    argv = bench.argv_for(cmd, 0)
    plain = bench.spawn(argv, ENV, trace=False)
    traced = bench.spawn(argv, ENV, trace=True)
    assert traced["layers"]["cli.run"]["calls"] == 1
    for report in (plain, traced):
        assert bench.check_output(bench.command_key(cmd), report) is None
    assert bench.output_digest(plain["stdout"]) == bench.output_digest(traced["stdout"])
    if cmd[0] == "shadow" and "--format" not in cmd:
        assert plain["stdout"] == traced["stdout"]


def test_tracer_wraps_every_binding_site_and_restores_them():
    import shadowgeom.cli  # noqa: F401

    mods = [m for k, m in sys.modules.items()
            if k == "shadowgeom" or k.startswith("shadowgeom.")]
    functions = {attr: getattr(sys.modules[mod], attr) for mod, attr, *_ in FUNCTIONS}
    methods = {(getattr(sys.modules[mod], cls), attr):
               getattr(sys.modules[mod], cls).__dict__[attr]
               for mod, cls, attr, *_ in METHODS}
    tracer = Tracer()
    tracer.install()
    try:
        for attr, orig in functions.items():
            assert not [m.__name__ for m in mods
                        if any(v is orig for v in vars(m).values())], attr
        for (cls, attr), orig in methods.items():
            assert cls.__dict__[attr] is not orig
    finally:
        tracer.uninstall()
    assert shadowgeom.shadow.frames_at is functions["frames_at"]
    assert shadowgeom.cli.run is functions["run"]
    for (cls, attr), orig in methods.items():
        assert cls.__dict__[attr] is orig
