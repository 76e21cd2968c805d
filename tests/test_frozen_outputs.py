"""Report bytes of the benchmark commands match their frozen digests.

perfbench/frozen_outputs.json records the sha256 of each benchmark
command's output, `timings` removed; these tests only read it.  Every
workload command with a digest under `fixed` is run, and so is every
seeded command (`transport`, `parallel-field`) at CLI seeds 0, 1 and 99
against its `seeded` digests, so a change that moves any byte outside
`timings` fails.  The fixed test keeps the name it had when it covered
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
    FROZEN = json.load(_fh)
FIXED = FROZEN["fixed"]

COMMANDS = [cmd for cmds in BENCH.WORKLOADS.values() for cmd in cmds
            if BENCH.command_key(cmd) in FIXED]
SEEDED = [(cmd, seed) for cmds in BENCH.WORKLOADS.values() for cmd in cmds
          if BENCH.command_key(cmd) in FROZEN["seeded"] for seed in (0, 1, 99)]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_grid_command_output_matches_frozen_digest(argv, capsys):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert BENCH.output_digest(out) == FIXED[BENCH.command_key(argv)]


@pytest.mark.parametrize("argv,seed", SEEDED,
                         ids=[f"{' '.join(c)} --seed {s}" for c, s in SEEDED])
def test_seeded_command_output_matches_frozen_digest(argv, seed, capsys):
    key = BENCH.command_key(argv)
    code = run(BENCH.argv_for(argv, seed))
    out = capsys.readouterr().out
    assert code == BENCH.CHECKS[key][0]
    assert BENCH.output_digest(out) == BENCH.frozen_digest(FROZEN, key, seed)
