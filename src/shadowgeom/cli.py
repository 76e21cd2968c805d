"""Command line entry point: run geometry checks on scene files.

Commands take a scene file (a path, or the name of a bundled scene) and
print a canonical JSON report, except `shadow` which defaults to CSV
and `tube` which prints a generated scene.  Exit codes: 0 when every
verdict is confirmed or the command simply succeeded, 2 when any check
reports hypotheses-not-met (including a holonomy obstruction), 1 on
errors, counterexample flags and usage errors included.

Reports are deterministic for a fixed scene, flags, and version; only
the "timings" object varies between runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .curvature import gauss_kronecker
from .expr import EvalDomainError
from .fields import BlockField, ConstantField
from .geometry import GeometryError, validate_patch
from .helix import (
    _classify,
    _hypersurface_preconditions,
    classify_hypersurface_helix,
    geodesic_alignment_check,
    helix_constancy_report,
    minimality_criterion,
    orthogonal_tgs_check,
    tgs_helix_check,
    tube_patch,
)
from .reporting import (
    VERDICT_CONFIRMED,
    VERDICT_NOT_MET,
    ToleranceFloorError,
    _atomic_write,
    canonical_json,
    csv_text,
    obj_text,
)
from .scene import Scene, SceneError, load_scene
from .shadow import extract_shadow_set, product_patch, product_shadow_check
from .tolerances import Tolerances
from .transport import (
    HOLONOMY_STEPS,
    TransportField,
    construct_parallel_field,
    holonomy_loop,
    parallel_normal_frame_tgs_check,
    parallelity_residual,
    probe_loops,
)

__all__ = ["main", "run", "THEOREM_IDS", "VERIFY_PLAN"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_MET = 2

SCENES_DIR = os.path.join(os.path.dirname(__file__), "scenes")

# the check behind each theorem id; its `resolution` default is the grid
# `verify` runs when neither --grid nor the scene sets one
_THEOREMS = {
    "orthogonal-tgs": orthogonal_tgs_check,
    "tgs-helix": tgs_helix_check,
    "minimality": minimality_criterion,
    "parallel-normal-frame-tgs": parallel_normal_frame_tgs_check,
    "hypersurface-helix-classification": classify_hypersurface_helix,
    "geodesic-alignment": geodesic_alignment_check,
    "product-shadow": product_shadow_check,
}
THEOREM_IDS = tuple(_THEOREMS)

# scene, theorem, expected verdict; `verify-all` passes iff every row matches
VERIFY_PLAN = (
    ("equator_in_sphere", "orthogonal-tgs", "confirmed"),
    ("torus_outer_equator", "orthogonal-tgs", "confirmed"),
    ("line_in_plane", "orthogonal-tgs", "hypotheses-not-met"),
    ("equator_in_sphere", "tgs-helix", "confirmed"),
    ("ruling_in_cylinder", "tgs-helix", "confirmed"),
    ("latitude_in_sphere", "tgs-helix", "hypotheses-not-met"),
    ("equator_in_sphere", "minimality", "confirmed"),
    ("torus_outer_equator", "minimality", "confirmed"),
    ("tube_circle", "minimality", "confirmed"),
    ("cylinder_sinusoid", "minimality", "confirmed"),
    ("plane_e3", "parallel-normal-frame-tgs", "confirmed"),
    ("equator_in_s2", "parallel-normal-frame-tgs", "confirmed"),
    ("plane_e3", "hypersurface-helix-classification", "confirmed"),
    ("cylinder_e3", "hypersurface-helix-classification", "confirmed"),
    ("cone_axis", "hypersurface-helix-classification", "confirmed"),
    ("sphere_e3", "hypersurface-helix-classification", "hypotheses-not-met"),
    ("cone_axis", "geodesic-alignment", "confirmed"),
    ("tube_helix", "minimality", "confirmed"),
    ("tube_helix", "hypersurface-helix-classification", "confirmed"),
    ("product_circles", "product-shadow", "confirmed"),
    ("product_spheres", "product-shadow", "confirmed"),
)


# -- plumbing -----------------------------------------------------------------


def find_scene(path: str) -> str:
    """Resolve a scene argument: literal path, then the bundled corpus."""
    base = os.path.basename(path)
    candidates = [path, path + ".scene",
                  os.path.join(SCENES_DIR, base),
                  os.path.join(SCENES_DIR, base + ".scene")]
    for cand in candidates:
        if os.path.isfile(cand):
            return cand
    raise SceneError(f"scene not found: {path!r}", path)


def _tols_with_flags(scene: Scene, tol_flags) -> Tolerances:
    overrides = {}
    for item in tol_flags or ():
        name, eq, value = item.partition("=")
        if not eq:
            raise SceneError(f"--tol expects name=value, got {item!r}", scene.name)
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            raise SceneError(f"--tol {name}: not a number: {value!r}", scene.name)
    if not overrides:
        return scene.tols
    try:
        return scene.tols.with_overrides(overrides)
    except (KeyError, ValueError) as exc:
        raise SceneError(str(exc.args[0]), scene.name)


def _open_scene(name: str, tol_flags):
    """(scene, path, tols) for a scene argument and the --tol items."""
    path = find_scene(name)
    scene = load_scene(path)
    return scene, path, _tols_with_flags(scene, tol_flags)


def _grid(scene: Scene, args) -> dict:
    """--grid, else the scene's grid block, as the check's `resolution`
    keyword; empty when neither sets one, so the check keeps its default."""
    res = args.grid if args.grid is not None else scene.resolution
    return {} if res is None else {"resolution": res}


def _field(scene: Scene, name: str, tols: Tolerances):
    """The field bound to patch `name`, or None."""
    if name in scene.fields:
        return scene.fields[name]
    seed = scene.seeds.get(name)
    if seed is None or seed.vector is None:
        return None
    return TransportField(scene.patch(name), seed.base, seed.vector, tols=tols)


def _tube(scene: Scene, tols: Tolerances):
    """(swept patch, curve, curve chart in the swept patch) of the tube block."""
    if scene.tube is None:
        raise SceneError("scene declares no tube block", scene.name)
    curve = scene.patch(scene.tube.of)
    patch, sub_chart = tube_patch(curve, scene.tube.direction, scene.tube.eps, tols=tols)
    return patch, curve, sub_chart


def _root_setup(scene: Scene, tols: Tolerances):
    """Main subject of the scene: the declared tube or product, else the root."""
    if scene.tube is not None:
        patch, _, _ = _tube(scene, tols)
        return patch, ConstantField(scene.tube.direction)
    if scene.product is not None:
        a, b = (scene.patch(name) for name in scene.product)
        patch = product_patch(a, b)
        field_a, field_b = (_field(scene, name, tols) for name in scene.product)
        if field_a is None or field_b is None:
            return patch, None
        return patch, BlockField(field_a, field_b, a.n, a.m)
    name = scene.root_name
    return scene.patch(name), _field(scene, name, tols)


def _require_field(scene: Scene, patch, field):
    """(patch, field), or a SceneError when no field is bound to the patch."""
    if field is None:
        raise SceneError(f"no field bound to patch {patch.name!r}", scene.name)
    return patch, field


def _run_report(scene: Scene | None, path: str, command: str, results: dict,
                t0: float) -> dict:
    """The report envelope; scene None stands for the whole bundled corpus."""
    stanza = {"name": "corpus", "digest": "", "path": ""}
    if scene is not None:
        stanza = {"name": scene.name, "digest": scene.digest,
                  "path": os.path.basename(path)}
    return {
        "tool": {"name": "shadowgeom", "version": __version__},
        "scene": stanza,
        "command": command,
        "results": results,
        "timings": {"total_seconds": time.perf_counter() - t0},
    }


def _exit_for(verdicts) -> int:
    if any(v == VERDICT_NOT_MET for v in verdicts):
        return EXIT_NOT_MET
    if all(v == VERDICT_CONFIRMED for v in verdicts):
        return EXIT_OK
    return EXIT_ERROR


# -- commands -------------------------------------------------------------------
# each returns (exit code, results): a JSON report's `results` dict, or the
# text of a CSV, OBJ or scene export; `run` writes it


def cmd_validate(args, scene: Scene, tols: Tolerances):
    patch, field = _root_setup(scene, tols)
    report = validate_patch(patch, field=field, tols=tols, **_grid(scene, args))
    return (EXIT_OK if report.ok else EXIT_NOT_MET,
            {"patch": patch.name, "validation": report})


def _shadow_rows(patch, shadow_set):
    cert = shadow_set.certificate
    header = ([f"u_{i + 1}" for i in range(patch.n)]
              + [f"x_{j + 1}" for j in range(patch.m)]
              + ["|F|", "sigma_min", "smooth"])
    n = shadow_set.n_points
    sigma, flags = np.zeros(n), ["degenerate"] * n  # no certificate: degenerate or empty
    if cert is not None:
        sigma, flags = cert.sigma_min, np.where(cert.flags, "smooth", "singular").tolist()
    values = np.column_stack([shadow_set.params, shadow_set.ambient,
                              shadow_set.residuals, sigma]).tolist()
    return header, [row + [flag] for row, flag in zip(values, flags)]


def cmd_shadow(args, scene: Scene, tols: Tolerances):
    patch, field = _require_field(scene, *_root_setup(scene, tols))
    shadow_set = extract_shadow_set(patch, field, tols=tols, **_grid(scene, args))
    if args.format == "json":
        return EXIT_OK, {"patch": patch.name, "shadow": shadow_set}
    if shadow_set.n_points == 0 and not args.allow_empty:
        raise GeometryError(
            "shadow set is empty; pass --allow-empty to export anyway")
    if args.format == "obj":
        return EXIT_OK, obj_text(shadow_set.ambient, shadow_set.polylines)
    return EXIT_OK, csv_text(*_shadow_rows(patch, shadow_set))


def cmd_helix(args, scene: Scene, tols: Tolerances):
    patch, field = _require_field(scene, *_root_setup(scene, tols))
    # one frame build on the grid serves the constancy test, the
    # Gauss-Kronecker curvature and the classification
    constancy = helix_constancy_report(patch, field, tols=tols, **_grid(scene, args))
    results = {"patch": patch.name, "constancy": constancy}
    if patch.codim != 1:
        return EXIT_OK, results
    gk = gauss_kronecker(constancy.frames)
    i = int(np.argmax(np.abs(gk)))
    results["gauss_kronecker"] = {
        "max_abs": float(np.abs(gk[i])),
        "argmax": [float(v) for v in constancy.points[i]],
    }
    pre = _hypersurface_preconditions(patch, field, constancy.resolution, tols)
    results["classification"] = _classify(patch, field, constancy, pre, tols)
    return _exit_for([results["classification"].verdict]), results


def cmd_transport(args, scene: Scene, tols: Tolerances):
    patch, _ = _root_setup(scene, tols)
    loops = probe_loops(patch, levels=(1, 2), n_random=8, seed=args.seed)
    per = [{"label": hol.label, "deviation": hol.deviation, "rotation": hol.rotation}
           for hol in holonomy_loop(patch, loops, steps=HOLONOMY_STEPS, tols=tols)]
    # n_random=8 gives at least 8 loops; the first maximum is the worst
    worst = max(per, key=lambda entry: entry["deviation"])
    return EXIT_OK, {
        "patch": patch.name,
        "n_loops": len(per),
        "max_deviation": worst["deviation"],
        "worst_loop": worst["label"],
        "loops": per,
    }


def cmd_parallel_field(args, scene: Scene, tols: Tolerances):
    patch, _ = _root_setup(scene, tols)
    seed = scene.seeds.get(patch.name)
    base, vector = (seed.base, seed.vector) if seed is not None else (None, None)
    fld, report = construct_parallel_field(patch, base_point=base, vector=vector,
                                           seed=args.seed, tols=tols)
    results = {
        "patch": patch.name,
        "base_point": [float(v) for v in fld.base_point],
        "seed_vector": [float(v) for v in fld.vector],
        "obstruction": report,
    }
    if report.ok:
        residual, argmax = parallelity_residual(patch, fld, tols=tols)
        results["parallelity_residual"] = residual
        results["residual_argmax"] = [float(v) for v in argmax]
    return EXIT_OK if report.ok else EXIT_NOT_MET, results


def _run_theorem(scene: Scene, theorem: str, tols: Tolerances, grid: dict):
    """Run one theorem's check on the scene's subject; `grid` is `_grid`'s."""
    extra = {}
    if theorem in ("orthogonal-tgs", "tgs-helix", "minimality"):
        if scene.tube is not None:
            parent, curve, sub_chart = _tube(scene, tols)
            args = (parent, sub_chart, curve.domain, ConstantField(scene.tube.direction))
            extra["name"] = curve.name
        else:
            spec = scene.first_nested()
            parent, field = _require_field(scene, scene.patch(spec.parent),
                                           _field(scene, spec.parent, tols))
            args = (parent, spec.chart, spec.domain, field)
            extra["name"] = spec.name
    elif theorem == "product-shadow":
        if scene.product is None:
            raise SceneError("scene declares no product block", scene.name)
        args = ()
        for name in scene.product:
            args += _require_field(scene, scene.patch(name), _field(scene, name, tols))
    elif theorem == "parallel-normal-frame-tgs":
        args = _root_setup(scene, tols)[:1]
    else:
        args = _require_field(scene, *_root_setup(scene, tols))
    return _THEOREMS[theorem](*args, tols=tols, **grid, **extra)


def cmd_verify(args, scene: Scene, tols: Tolerances):
    report = _run_theorem(scene, args.theorem, tols, _grid(scene, args))
    return _exit_for([report.verdict]), {"theorem": args.theorem, "report": report}


def cmd_verify_all(args):
    rows = []
    for scene_name, theorem, expected in VERIFY_PLAN:
        scene, _, tols = _open_scene(scene_name, args.tol)
        report = _run_theorem(scene, theorem, tols, _grid(scene, args))
        rows.append({
            "scene": scene_name,
            "theorem": theorem,
            "expected": expected,
            "verdict": report.verdict,
            "match": report.verdict == expected,
            "report": report,
        })
    n_match = sum(1 for r in rows if r["match"])
    results = {"checks": rows, "n_checks": len(rows), "n_match": n_match,
               "all_match": n_match == len(rows)}
    mismatched = [r["verdict"] for r in rows if not r["match"]]
    return (_exit_for(mismatched) or EXIT_ERROR) if mismatched else EXIT_OK, results


def _fmt_num(v: float) -> str:
    return repr(float(v))


def _patch_block(name: str, chart, box, parent: str | None = None) -> list:
    head = f"patch {name} {{" if parent is None else f"patch {name} in {parent} {{"
    lines = [head,
             f"  chart = {chart.to_source()}",
             f"  params = {', '.join(chart.params)}"]
    if chart.constants:
        pairs = ", ".join(f"{k}: {_fmt_num(v)}" for k, v in chart.constants.items())
        lines.append(f"  constants = {pairs}")
    lines.append(f"  lo = {', '.join(_fmt_num(v) for v in box.lo)}")
    lines.append(f"  hi = {', '.join(_fmt_num(v) for v in box.hi)}")
    lines.append(f"  periodic = {', '.join('yes' if p else 'no' for p in box.periodic)}")
    lines.append("}")
    return lines


def cmd_tube(args, scene: Scene, tols: Tolerances):
    patch, curve, sub_chart = _tube(scene, tols)
    lines = [f"scene {scene.name}_swept", ""]
    lines += ["ambient {", f"  dim = {patch.m}", "}", ""]
    lines += _patch_block(patch.name, patch.chart, patch.domain)
    lines.append("")
    lines += _patch_block(curve.name, sub_chart, curve.domain, parent=patch.name)
    lines.append("")
    lines += ["field {",
              f"  constant = {', '.join(_fmt_num(v) for v in scene.tube.direction)}",
              "}", ""]
    return EXIT_OK, "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowgeom",
        description="Shadow sets, helix checks, and parallel transport on chart patches.",
    )
    parser.add_argument("--version", action="version",
                        version=f"shadowgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler, seed=False, scene=True, grid=True):
        sp.set_defaults(handler=handler)
        if scene:
            sp.add_argument("scene", help="scene file path or bundled scene name")
        if grid:
            sp.add_argument("--grid", type=int, default=None, metavar="N",
                            help="override the grid resolution")
        sp.add_argument("--tol", action="append", default=None,
                        metavar="NAME=VALUE", help="override a tolerance")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write output to a file instead of stdout")
        if seed:
            sp.add_argument("--seed", type=int, default=0, metavar="K",
                            help="seed for the random probe loops")

    common(sub.add_parser("validate", help="chart rank / constraint / field checks"),
           cmd_validate)
    sp = sub.add_parser("shadow", help="extract the shadow set")
    common(sp, cmd_shadow)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default="csv")
    sp.add_argument("--allow-empty", action="store_true",
                    help="export even when the set is empty")
    common(sub.add_parser("helix", help="helix constancy and classification"), cmd_helix)
    common(sub.add_parser("transport", help="holonomy probe loops"), cmd_transport,
           seed=True, grid=False)
    common(sub.add_parser("parallel-field",
                          help="construct a parallel field, probe obstructions"),
           cmd_parallel_field, seed=True, grid=False)
    sp = sub.add_parser("verify", help="run one theorem check")
    sp.add_argument("theorem", choices=THEOREM_IDS)
    common(sp, cmd_verify)
    common(sub.add_parser("tube", help="materialize the swept scene"), cmd_tube, grid=False)
    common(sub.add_parser("verify-all", help="run the bundled theorem suite"),
           cmd_verify_all, scene=False)
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of hypotheses-not-met
        # here; --help and --version exit 0
        if exc.code:
            return EXIT_ERROR
        raise
    t0 = time.perf_counter()
    if getattr(args, "grid", None) is not None and args.grid < 2:
        print(f"error: --grid must be at least 2, got {args.grid}", file=sys.stderr)
        return EXIT_ERROR
    try:
        # the checks read non-finite values themselves; numpy's warnings are noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "verify-all":
                scene, path = None, ""
                code, results = args.handler(args)
            else:
                scene, path, tols = _open_scene(args.scene, args.tol)
                code, results = args.handler(args, scene, tols)
            if not isinstance(results, str):
                label = f"verify {args.theorem}" if args.command == "verify" else args.command
                results = canonical_json(_run_report(scene, path, label, results, t0))
            if args.out:
                _atomic_write(args.out, results)
            else:
                sys.stdout.write(results)
        return code
    except (SceneError, EvalDomainError, GeometryError, ValueError, KeyError,
            OSError) as exc:
        note = ""
        if isinstance(exc, ToleranceFloorError) and args.tol:
            note = " (--tol in effect: " + ", ".join(args.tol) + ")"
        print(f"error: {exc}{note}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError as exc:
        print(f"error: expression is nested too deeply: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
