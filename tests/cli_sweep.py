"""Run a fixed sweep of CLI commands and record what each one printed.

    python tests/cli_sweep.py OUT.json
    python tests/cli_sweep.py --compare A.json B.json

The first form runs every command in-process on the checkout this file
sits in (its `src/` goes first on the import path; copy the file, with
the test files beside it, into another checkout to sweep that one) and
writes, per command, the exit code, stderr, the sha256 of stdout and
stdout itself: a JSON report as data, with its `timings` object dropped
(the digest is taken without it too), so two runs of the same code give
the same file; other output as text.  It also writes one record per
chart behind `tests/chart_digests.json`, keyed `chart <name>`: the
chart's digests as that file holds them, and its values, Jacobians and
Hessians at orders 0, 1 and 2 as data.  The second form first prints
the commands whose exit code or any `verdict` leaf moved, with those
moves, then every record whose exit code, stderr or digests differ, and
under each what moved: every differing leaf of a JSON report or of a
chart's jets as `path: A -> B`, a residual's `value` followed by its
move in units of that residual's `tol`, else the first differing line of
stdout.  It exits 1 when any record differs.

The sweep: `verify-all`; every theorem, `validate`, `helix` and `shadow`
(JSON and CSV) on every bundled scene, each at the default grid and at
`--grid 5`; `transport`, `parallel-field`, `tube` and `shadow --format
obj` on every scene; and the benchmark's own commands: both grid-256
`shadow` commands, the probe-loop commands at `--seed` 0, 1 and 99, and
`verify product-shadow product_spheres --grid 16`, a Newton grid past the
benchmark's; and the commands behind `tests/shadow_digests.json`, `shadow
<scene> --grid 7|16 --format csv --allow-empty`.  The file name keeps
pytest from collecting it.
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
    out += [["shadow", "torus_e3", "--grid", "256"],
            ["shadow", "sphere_e3", "--grid", "256", "--format", "json"],
            ["verify", "product-shadow", "product_spheres", "--grid", "16"]]
    for command, scene in (("transport", "latitude_p3"), ("parallel-field", "latitude_p3"),
                           ("parallel-field", "equator_in_s2")):
        out += [[command, scene, "--seed", seed] for seed in ("0", "1", "99")]
    out += [["shadow", scene, "--grid", grid, "--format", "csv", "--allow-empty"]
            for scene in scenes for grid in ("7", "16")]
    return out


def _stdout_record(text: str) -> dict:
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    record = {"stdout": text}
    if isinstance(report, dict):
        record = {"report": report}
        if "timings" in report:
            del report["timings"]
            text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return {"stdout_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), **record}


def run_one(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # an escaped exception is a result too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"exit": code, "stderr": err.getvalue(), **_stdout_record(out.getvalue())}


def chart_record(chart, points) -> dict:
    """A chart's digests, as `tests/chart_digests.json` holds them, and its
    jets at those points as data."""
    from test_chart_digests import chart_digests

    jets = {"o0": {"value": chart.eval_values(points).tolist()}}
    for order in (1, 2):
        jet = chart.eval_jets(points, order=order)
        jets[f"o{order}"] = {"value": jet.value.tolist(), "jac": jet.jac.tolist()}
        if order == 2:
            jets["o2"]["hess"] = jet.hess.tolist()
    return {"digests": chart_digests(chart, points), "jets": jets}


def chart_records() -> dict:
    """`chart <name>` -> record of every chart behind tests/chart_digests.json."""
    from test_chart_digests import bundled_charts

    return {f"chart {name}": chart_record(chart, points)
            for name, chart, points in bundled_charts()}


def sweep(path: str) -> int:
    records = {" ".join(argv): run_one(argv) for argv in commands()}
    records.update(chart_records())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(records)} records -> {path}")
    return 0


_ABSENT = "<absent>"
# what tells two records apart: a command's stdout digest, a chart's digests
_DIGESTS = ("stdout_sha256", "digests")


def _leaves(value, path=""):
    """(path, JSON text) of every leaf of a JSON value, in document order;
    an empty object or list is a leaf."""
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, json.dumps(value, sort_keys=True)


def _residual_tols(value, path=""):
    """(path of its `value` leaf, tol) of every residual entry in a JSON
    value, in the paths of `_leaves`."""
    if isinstance(value, dict):
        if {"label", "value", "tol", "floor", "status"} <= value.keys():
            yield f"{path}.value", value["tol"]
        for k, v in value.items():
            yield from _residual_tols(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _residual_tols(v, f"{path}[{i}]")


def _in_tols(a: str, b: str, tol) -> str:
    """The move from JSON number `a` to `b` in units of `tol`, or "" when
    either is no number or there is no tol."""
    try:
        return f" ({(float(b) - float(a)) / tol:+.3g} tol)"
    except (TypeError, ValueError, ZeroDivisionError):
        return ""


def _data(record: dict):
    """A record's JSON data: a command's report or a chart's jets; None
    for text output."""
    return record.get("report", record.get("jets"))


def _moves(ra: dict, rb: dict):
    """(what, "A -> B") pairs saying what differs between two records of
    one command or chart; `what` is `exit`, `stderr`, a leaf's path in a
    report or in a chart's jets, or a stdout line."""
    for field in ("exit", "stderr"):
        if ra.get(field) != rb.get(field):
            yield field, f"{ra.get(field)!r} -> {rb.get(field)!r}"
    if all(ra.get(field) == rb.get(field) for field in _DIGESTS):
        return
    da, db = _data(ra), _data(rb)
    if da is not None and db is not None:
        la, lb = dict(_leaves(da)), dict(_leaves(db))
        tols = {**dict(_residual_tols(da)), **dict(_residual_tols(db))}
        for path in list(la) + [p for p in lb if p not in la]:
            a, b = la.get(path, _ABSENT), lb.get(path, _ABSENT)
            if a != b:
                yield path or ".", f"{a} -> {b}" + _in_tols(a, b, tols.get(path))
        return
    lines_a = ra.get("stdout", json.dumps(ra.get("report"))).splitlines()
    lines_b = rb.get("stdout", json.dumps(rb.get("report"))).splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        la = lines_a[i] if i < len(lines_a) else _ABSENT
        lb = lines_b[i] if i < len(lines_b) else _ABSENT
        if la != lb:
            yield f"stdout line {i + 1}", f"{la} -> {lb}"
            return


def _is_outcome(what: str) -> bool:
    """Whether a move is of a command's outcome: its exit code, a verdict
    leaf, or the command itself missing from one side."""
    return what in ("exit", "only in") or what.endswith("verdict")


def _print_moves(moves: dict):
    for key, moved in moves.items():
        print(key)
        for what, text in moved:
            print(f"  {what}: {text}")


def _key(record):
    return None if record is None else tuple(record.get(f) for f in ("exit", "stderr")
                                             + _DIGESTS)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    differ = sorted(k for k in a.keys() | b.keys() if _key(a.get(k)) != _key(b.get(k)))
    moves = {key: list(_moves(a[key], b[key])) if key in a and key in b
             else [("only in", "B" if key in b else "A")] for key in differ}
    outcomes = {key: [m for m in moved if _is_outcome(m[0])] for key, moved in moves.items()}
    outcomes = {key: moved for key, moved in outcomes.items() if moved}
    print(f"{len(outcomes)} commands moved an exit code or a verdict")
    _print_moves(outcomes)
    print()
    _print_moves(moves)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} records differ")
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
