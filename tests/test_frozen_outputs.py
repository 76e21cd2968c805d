"""Report bytes of every fixed benchmark command match its frozen digest.

perfbench/frozen_outputs.json records the sha256 of each benchmark
command's output, `timings` removed; this test only reads it.  Every
workload command with a digest under `fixed` (the seeded commands have
one per CLI seed instead) is run here, so a change that moves any byte
outside `timings` fails.  The test keeps the name it had when it covered
only the `grid` workload, so its ids stay stable.
"""

import importlib.util
import json
import os

import pytest

from shadowgeom.cli import run


def _load_benchmark():
    """perfbench/run.py as a module: its workloads, digest and table."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_benchmark()

with open(BENCH.FROZEN, encoding="utf-8") as _fh:
    FIXED = json.load(_fh)["fixed"]

COMMANDS = [cmd for cmds in BENCH.WORKLOADS.values() for cmd in cmds
            if BENCH.command_key(cmd) in FIXED]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_grid_command_output_matches_frozen_digest(argv, capsys):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert BENCH.output_digest(out) == FIXED[BENCH.command_key(argv)]
