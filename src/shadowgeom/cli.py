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
from .fields import ConstantField
from .geometry import GeometryError, validate_patch
from .helix import (
    _classify,
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
from .shadow import (
    extract_shadow_set,
    product_field,
    product_patch,
    product_shadow_check,
)
from .tolerances import Tolerances
from .transport import (
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

# grid defaults per theorem when neither --grid nor the scene set one
_THEOREM_RES = {
    "orthogonal-tgs": 24,
    "tgs-helix": 24,
    "minimality": 24,
    "parallel-normal-frame-tgs": 7,
    "hypersurface-helix-classification": 16,
    "geodesic-alignment": 9,
    "product-shadow": 12,
}
THEOREM_IDS = tuple(_THEOREM_RES)

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


def _resolution(scene: Scene, args, fallback):
    if args.grid is not None:
        return args.grid
    if scene.resolution is not None:
        return scene.resolution
    return fallback


def _field_maybe(scene: Scene, name: str, tols: Tolerances):
    if name in scene.fields:
        return scene.fields[name]
    if name in scene.seeds:
        seed = scene.seeds[name]
        if seed.vector is None:
            return None
        return TransportField(scene.patch(name), seed.base, seed.vector, tols=tols)
    return None


def _root_setup(scene: Scene, tols: Tolerances):
    """Main subject of the scene: the declared tube or product, else the root."""
    if scene.tube is not None:
        curve = scene.patch(scene.tube.of)
        patch, _ = tube_patch(curve, scene.tube.direction, scene.tube.eps, tols=tols)
        return patch, ConstantField(scene.tube.direction)
    if scene.product is not None:
        a, b = scene.product
        patch = product_patch(scene.patch(a), scene.patch(b))
        field_a = _field_maybe(scene, a, tols)
        field_b = _field_maybe(scene, b, tols)
        field = None
        if field_a is not None and field_b is not None:
            field = product_field(field_a, field_b, scene.patch(a))
        return patch, field
    name = scene.root_name
    return scene.patch(name), _field_maybe(scene, name, tols)


def _require_field(scene: Scene, patch, field):
    if field is None:
        raise SceneError(f"no field bound to patch {patch.name!r}", scene.name)
    return field


def _nested_setup(scene: Scene, tols: Tolerances):
    """(parent, sub_chart, sub_domain, field, name) for the nested checks."""
    if scene.tube is not None:
        curve = scene.patch(scene.tube.of)
        parent, sub_chart = tube_patch(curve, scene.tube.direction, scene.tube.eps,
                                       tols=tols)
        field = ConstantField(scene.tube.direction)
        return parent, sub_chart, curve.domain, field, curve.name
    spec = scene.first_nested()
    parent = scene.patch(spec.parent)
    field = _require_field(scene, parent, _field_maybe(scene, spec.parent, tols))
    return parent, spec.chart, spec.domain, field, spec.name


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


def _emit(text: str, out_path):
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _exit_for(verdicts) -> int:
    if any(v == VERDICT_NOT_MET for v in verdicts):
        return EXIT_NOT_MET
    if all(v == VERDICT_CONFIRMED for v in verdicts):
        return EXIT_OK
    return EXIT_ERROR


# -- commands -------------------------------------------------------------------


def cmd_validate(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    patch, field = _root_setup(scene, tols)
    report = validate_patch(patch, field=field,
                            resolution=_resolution(scene, args, 9), tols=tols)
    results = {"patch": patch.name, "validation": report}
    _emit(canonical_json(_run_report(scene, path, "validate", results, t0)),
          args.out)
    return EXIT_OK if report.ok else EXIT_NOT_MET


def _shadow_summary(shadow_set) -> dict:
    d = shadow_set.as_dict()
    d["points"] = d.pop("n_points")
    if shadow_set.degenerate:
        d["set_equals_patch"] = True
    if shadow_set.certificate is not None:
        d["certificate"] = shadow_set.certificate.as_dict()
    return d


def _shadow_rows(patch, shadow_set):
    cert = shadow_set.certificate
    header = ([f"u_{i + 1}" for i in range(patch.n)]
              + [f"x_{j + 1}" for j in range(patch.m)]
              + ["|F|", "sigma_min", "smooth"])
    rows = []
    for i in range(shadow_set.n_points):
        if shadow_set.degenerate:
            sigma, flag = 0.0, "degenerate"
        else:
            sigma = float(cert.sigma_min[i])
            flag = "smooth" if cert.flags[i] else "singular"
        rows.append(tuple(float(v) for v in shadow_set.params[i])
                    + tuple(float(v) for v in shadow_set.ambient[i])
                    + (float(shadow_set.residuals[i]), sigma, flag))
    return header, rows


def cmd_shadow(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    patch, field = _root_setup(scene, tols)
    field = _require_field(scene, patch, field)
    shadow_set = extract_shadow_set(patch, field,
                                    resolution=_resolution(scene, args, 64),
                                    tols=tols)
    if args.format == "json":
        results = {"patch": patch.name, "shadow": _shadow_summary(shadow_set)}
        _emit(canonical_json(_run_report(scene, path, "shadow", results, t0)),
              args.out)
        return EXIT_OK

    if shadow_set.n_points == 0 and not args.allow_empty:
        raise GeometryError(
            "shadow set is empty; pass --allow-empty to export anyway")
    if args.format == "obj":
        _emit(obj_text(shadow_set.ambient, shadow_set.polylines), args.out)
    else:
        header, rows = _shadow_rows(patch, shadow_set)
        _emit(csv_text(header, rows), args.out)
    return EXIT_OK


def cmd_helix(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    patch, field = _root_setup(scene, tols)
    field = _require_field(scene, patch, field)
    res = _resolution(scene, args, 32)
    # one frame build on the grid serves the constancy test, the
    # Gauss-Kronecker curvature and the classification
    constancy = helix_constancy_report(patch, field, resolution=res, tols=tols)
    results = {"patch": patch.name, "constancy": constancy.as_dict()}
    verdicts = []
    if patch.codim == 1:
        gk = gauss_kronecker(constancy.frames)
        i = int(np.argmax(np.abs(gk)))
        results["gauss_kronecker"] = {
            "max_abs": float(np.abs(gk[i])),
            "argmax": [float(v) for v in constancy.points[i]],
        }
        classification = _classify(patch, field, constancy, tols)
        results["classification"] = classification.as_dict()
        verdicts.append(classification.verdict)
    _emit(canonical_json(_run_report(scene, path, "helix", results, t0)), args.out)
    return _exit_for(verdicts) if verdicts else EXIT_OK


def cmd_transport(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    patch, _ = _root_setup(scene, tols)
    loops = probe_loops(patch, levels=(1, 2), n_random=8, seed=args.seed)
    per = []
    worst = None
    for hol in holonomy_loop(patch, loops, steps=1024, tols=tols):
        per.append({"label": hol.label, "deviation": hol.deviation,
                    "rotation": hol.rotation})
        if worst is None or hol.deviation > worst.deviation:
            worst = hol
    results = {
        "patch": patch.name,
        "n_loops": len(per),
        "max_deviation": 0.0 if worst is None else worst.deviation,
        "worst_loop": "" if worst is None else worst.label,
        "loops": per,
    }
    _emit(canonical_json(_run_report(scene, path, "transport", results, t0)),
          args.out)
    return EXIT_OK


def cmd_parallel_field(args, scene: Scene, path: str, tols: Tolerances,
                       t0: float) -> int:
    patch, _ = _root_setup(scene, tols)
    seed_spec = scene.seeds.get(patch.name)
    base = seed_spec.base if seed_spec else None
    vector = seed_spec.vector if seed_spec is not None else None
    fld, report = construct_parallel_field(patch, base_point=base, vector=vector,
                                           seed=args.seed, tols=tols)
    results = {
        "patch": patch.name,
        "base_point": [float(v) for v in fld.base_point],
        "seed_vector": [float(v) for v in fld.vector],
        "obstruction": report.as_dict(),
    }
    if report.ok:
        residual, argmax = parallelity_residual(patch, fld, tols=tols)
        results["parallelity_residual"] = residual
        results["residual_argmax"] = [float(v) for v in argmax]
    _emit(canonical_json(_run_report(scene, path, "parallel-field", results, t0)),
          args.out)
    return EXIT_OK if report.ok else EXIT_NOT_MET


def _run_theorem(scene: Scene, theorem: str, res, tols: Tolerances):
    if theorem in ("orthogonal-tgs", "tgs-helix", "minimality"):
        parent, sub_chart, sub_domain, field, name = _nested_setup(scene, tols)
        check = {"orthogonal-tgs": orthogonal_tgs_check,
                 "tgs-helix": tgs_helix_check,
                 "minimality": minimality_criterion}[theorem]
        return check(parent, sub_chart, sub_domain, field, resolution=res,
                     name=name, tols=tols)
    if theorem == "parallel-normal-frame-tgs":
        patch, _ = _root_setup(scene, tols)
        return parallel_normal_frame_tgs_check(patch, resolution=res, tols=tols)
    if theorem == "hypersurface-helix-classification":
        patch, field = _root_setup(scene, tols)
        field = _require_field(scene, patch, field)
        return classify_hypersurface_helix(patch, field, resolution=res, tols=tols)
    if theorem == "geodesic-alignment":
        patch, field = _root_setup(scene, tols)
        field = _require_field(scene, patch, field)
        return geodesic_alignment_check(patch, field, resolution=res, tols=tols)
    if theorem == "product-shadow":
        if scene.product is None:
            raise SceneError("scene declares no product block", scene.name)
        a, b = scene.product
        field_a = _require_field(scene, scene.patch(a), _field_maybe(scene, a, tols))
        field_b = _require_field(scene, scene.patch(b), _field_maybe(scene, b, tols))
        return product_shadow_check(scene.patch(a), field_a, scene.patch(b),
                                    field_b, resolution=res, tols=tols)
    raise SceneError(f"unknown theorem {theorem!r}", scene.name)


def cmd_verify(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    res = _resolution(scene, args, _THEOREM_RES[args.theorem])
    report = _run_theorem(scene, args.theorem, res, tols)
    results = {"theorem": args.theorem, "report": report.as_dict()}
    _emit(canonical_json(_run_report(scene, path, f"verify {args.theorem}",
                                     results, t0)), args.out)
    return _exit_for([report.verdict])


def cmd_verify_all(args, t0: float) -> int:
    rows = []
    for scene_name, theorem, expected in VERIFY_PLAN:
        scene, _, tols = _open_scene(scene_name, args.tol)
        res = _resolution(scene, args, _THEOREM_RES[theorem])
        report = _run_theorem(scene, theorem, res, tols)
        rows.append({
            "scene": scene_name,
            "theorem": theorem,
            "expected": expected,
            "verdict": report.verdict,
            "match": report.verdict == expected,
            "report": report.as_dict(),
        })
    n_match = sum(1 for r in rows if r["match"])
    results = {"checks": rows, "n_checks": len(rows), "n_match": n_match,
               "all_match": n_match == len(rows)}
    _emit(canonical_json(_run_report(None, "", "verify-all", results, t0)), args.out)
    if n_match == len(rows):
        return EXIT_OK
    mismatched = [r["verdict"] for r in rows if not r["match"]]
    return _exit_for(mismatched) or EXIT_ERROR


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


def cmd_tube(args, scene: Scene, path: str, tols: Tolerances, t0: float) -> int:
    if scene.tube is None:
        raise SceneError("scene declares no tube block", scene.name)
    curve = scene.patch(scene.tube.of)
    patch, sub_chart = tube_patch(curve, scene.tube.direction, scene.tube.eps,
                                  tols=tols)
    lines = [f"scene {scene.name}_swept", ""]
    lines += ["ambient {", f"  dim = {patch.m}", "}", ""]
    lines += _patch_block(patch.name, patch.chart, patch.domain)
    lines.append("")
    lines += _patch_block(curve.name, sub_chart, curve.domain, parent=patch.name)
    lines.append("")
    lines += ["field {",
              f"  constant = {', '.join(_fmt_num(v) for v in scene.tube.direction)}",
              "}", ""]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowgeom",
        description="Shadow sets, helix checks, and parallel transport on chart patches.",
    )
    parser.add_argument("--version", action="version",
                        version=f"shadowgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, scene=True, grid=True):
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

    common(sub.add_parser("validate", help="chart rank / constraint / field checks"))
    sp = sub.add_parser("shadow", help="extract the shadow set")
    common(sp)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default="csv")
    sp.add_argument("--allow-empty", action="store_true",
                    help="export even when the set is empty")
    common(sub.add_parser("helix", help="helix constancy and classification"))
    common(sub.add_parser("transport", help="holonomy probe loops"), seed=True, grid=False)
    common(sub.add_parser("parallel-field",
                          help="construct a parallel field, probe obstructions"),
           seed=True, grid=False)
    sp = sub.add_parser("verify", help="run one theorem check")
    sp.add_argument("theorem", choices=THEOREM_IDS)
    common(sp)
    common(sub.add_parser("tube", help="materialize the swept scene"), grid=False)
    common(sub.add_parser("verify-all", help="run the bundled theorem suite"),
           scene=False)
    return parser


# commands on one scene; `verify-all` runs the bundled corpus instead
_HANDLERS = {
    "validate": cmd_validate,
    "shadow": cmd_shadow,
    "helix": cmd_helix,
    "transport": cmd_transport,
    "parallel-field": cmd_parallel_field,
    "verify": cmd_verify,
    "tube": cmd_tube,
}


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
        if args.command == "verify-all":
            return cmd_verify_all(args, t0)
        scene, path, tols = _open_scene(args.scene, args.tol)
        return _HANDLERS[args.command](args, scene, path, tols, t0)
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


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
