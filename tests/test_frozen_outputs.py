"""Report bytes of the large-grid commands match the benchmark's frozen digests.

perfbench/frozen_outputs.json records the sha256 of each benchmark
command's output, `timings` removed; this test only reads it.  A speed-up
that changes any byte outside `timings` fails here.
"""

import importlib.util
import json
import os

import pytest

from shadowgeom.cli import run


def _load_benchmark():
    """perfbench/run.py as a module: its grid workload, digest and table."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_benchmark()


@pytest.mark.parametrize("argv", BENCH.WORKLOADS["grid"], ids=" ".join)
def test_grid_command_output_matches_frozen_digest(argv, capsys):
    with open(BENCH.FROZEN, encoding="utf-8") as fh:
        expected = json.load(fh)["fixed"][BENCH.command_key(argv)]
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert BENCH.output_digest(out) == expected
