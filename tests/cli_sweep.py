"""Run a fixed sweep of CLI commands and record what each one printed.

    python tests/cli_sweep.py OUT.json
    python tests/cli_sweep.py --compare A.json B.json

The first form runs every command in-process on the checkout this file
sits in (its `src/` goes first on the import path; copy the file into
another checkout to sweep that one) and writes, per command, the exit
code, the sha256 of stdout and stderr.  A JSON report is hashed with its
`timings` object dropped, so two runs of the same code give the same
file.  The second form prints the commands whose records differ and
exits 1 when any do.

The sweep: `verify-all`; every theorem, `validate`, `helix` and `shadow`
(JSON and CSV) on every bundled scene, each at the default grid and at
`--grid 5`; `transport`, `parallel-field`, `tube` and `shadow --format
obj` on every scene.  The file name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from shadowgeom import cli  # noqa: E402


def commands() -> list:
    scenes = sorted(name[: -len(".scene")] for name in os.listdir(cli.SCENES_DIR)
                    if name.endswith(".scene"))
    grids = ([], ["--grid", "5"])
    out = [["verify-all"] + g for g in grids]
    for scene in scenes:
        for g in grids:
            out += [["verify", theorem, scene] + g for theorem in cli.THEOREM_IDS]
            out += [["validate", scene] + g, ["helix", scene] + g,
                    ["shadow", scene, "--format", "json"] + g,
                    ["shadow", scene, "--format", "csv"] + g]
        out += [["transport", scene], ["parallel-field", scene], ["tube", scene],
                ["shadow", scene, "--format", "obj"]]
    return out


def _stdout_digest(text: str) -> str:
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if isinstance(report, dict) and "timings" in report:
        del report["timings"]
        text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_one(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # an escaped exception is a result too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"exit": code, "stdout_sha256": _stdout_digest(out.getvalue()),
            "stderr": err.getvalue()}


def sweep(path: str) -> int:
    records = {" ".join(argv): run_one(argv) for argv in commands()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(records)} commands -> {path}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differ:
        print(key)
        print(f"  A: {a.get(key)}")
        print(f"  B: {b.get(key)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} commands differ")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 1 and not argv[0].startswith("-"):
        return sweep(argv[0])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
