"""Freeze the table of expected output digests (perfbench/frozen_outputs.json).

Usage (from the root of a checkout): python3 perfbench/freeze_outputs.py

Runs every workload command once in a fresh worker, and each seeded
command for every CLI seed the benchmark uses (0..run.FROZEN_SEEDS-1),
checks each output against its oracle, and records the sha256 of each
output with `timings` removed.  The benchmark compares later outputs
against this table and reports mismatches as `cli.outputs_changed`.
Refreezing is a deliberate act: do it only in a change that explains why
report bytes moved.
"""

import json
import os
import sys

import run as bench


def main() -> int:
    env = bench.worker_env(os.getcwd())
    table = {"fixed": {}, "seeded": {}}
    cmds = sorted({cmd for cmds in bench.WORKLOADS.values() for cmd in cmds})
    for cmd in cmds:
        key = bench.command_key(cmd)
        seeds = range(bench.FROZEN_SEEDS) if cmd[0] in bench.SEEDED else (0,)
        for seed in seeds:
            report = bench.spawn(bench.argv_for(cmd, seed), env)
            reason = bench.check_output(key, report)
            if reason is not None:
                print(f"{key} seed {seed}: {reason}", file=sys.stderr)
                return 1
            digest = bench.output_digest(report["stdout"])
            if cmd[0] in bench.SEEDED:
                table["seeded"].setdefault(key, {})[str(seed)] = digest
            else:
                table["fixed"][key] = digest
        print(f"{key}: {len(seeds)} output(s) frozen", file=sys.stderr)
    with open(bench.FROZEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
