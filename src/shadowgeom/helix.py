"""Helix angle, hypersurface classification, and shadow-boundary duality.

Splitting the reference field Y at a patch point into its tangential and
normal parts assigns two numbers to the point: h = |tan(Y)| and
|nor(Y)|.  A patch is a helix patch for Y when h is the same everywhere;
h then plays the role of a global angle between Y and the patch.  The
checks in this module reduce statements about that splitting to named
residuals:

  * constancy of h and |nor(Y)| over a grid (the helix test itself),
  * the trichotomy for codimension-one helix patches (Y orthogonal /
    tangent / transversal, each with its own conclusion),
  * nested-patch equivalences: orthogonal field vs. totally geodesic,
    totally geodesic implies helix, and minimality vs. g(H, Y) = 0,
  * alignment of g(Y, gamma') along geodesics with the ambient geodesic
    defect of the curve,
  * the sweep construction u, lam -> x(u) + lam v, whose shadow set for
    Y = v is the whole sweep by construction.

Nested checks take the inner patch as a chart into the parent
parameters, so intrinsic quantities (second fundamental form in the
parent, membership residuals) come from the parent connection rather
than from a re-embedding.  One sampling stage, `_nested_sample`,
evaluates L's chart jets, L's frames and the parent's frames once each;
the curvature helpers and the membership residual read those.  Grid
frames are built once at order 2 and handed to `tgs_scan`.  Integral
curves of tan(Y) and the geodesic fan both come from
`transport.rk4_tracks`; a track that leaves the domain halves the
integration time, at most four times (`_halving_retry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (
    bang_decomposition_check,
    mean_curvature,
    nested_second_form,
    second_form_components,
    tangent_coords,
    tgs_scan,
)
from .expr import parse_chart, to_source
from .geometry import (
    Box,
    DomainExitError,
    FrameBatch,
    GeometryError,
    SubmanifoldPatch,
    composed_patch,
    frames_at,
)
from .reporting import Precondition, ResidualEntry, build_report
from .tolerances import DEFAULT_TOLS, Tolerances
from .transport import geodesic_traces, parallelity_residual, rk4_tracks, track_defects

__all__ = [
    "HelixReport",
    "helix_constancy_report",
    "classify_hypersurface_helix",
    "orthogonal_tgs_check",
    "tgs_helix_check",
    "minimality_criterion",
    "geodesic_alignment_check",
    "tube_patch",
]

_TINY = 1e-300
# consistency gate for the two-stage curvature decomposition cross-check
_DECOMPOSITION_TOL = 1e-6
# RK4 steps per integral curve of tan(Y) in the transversal case
_FLOW_STEPS = 512
# RK4 steps per geodesic of the alignment check's fan
_FAN_STEPS = 1024


# -- the tan/nor splitting ----------------------------------------------------


def _split_components(frames, y):
    """Per-point (|tan y|, |nor y|, |y_N|) against a frame batch.

    y_N is the part of y tangent to the ambient manifold; the three
    satisfy |tan|^2 + |nor|^2 = |y_N|^2 since the frame columns are
    orthonormal.
    """
    tan_c = np.einsum("bmi,bm->bi", frames.tangent, y)
    nor_c = np.einsum("bma,bm->ba", frames.normal, y)
    amb_c = np.einsum("bmd,bm->bd", frames.ambient, y)
    return (
        np.linalg.norm(tan_c, axis=1),
        np.linalg.norm(nor_c, axis=1),
        np.linalg.norm(amb_c, axis=1),
    )


@dataclass(frozen=True)
class HelixReport:
    """Constancy data for h = |tan Y| and |nor Y| over a grid.

    Verdicts compare deviations relative to the mean field magnitude, so
    rescaling the field never changes them.  ``orthogonal`` / ``tangent``
    flag the extreme splittings h = 0 and nor = 0.
    """

    points: np.ndarray  # (B, n)
    h: np.ndarray  # (B,)
    nor: np.ndarray  # (B,)
    y_norms: np.ndarray  # (B,)
    h_mean: float
    h_deviation: float
    nor_mean: float
    nor_deviation: float
    field_norm_drift: float
    scale: float  # mean |Y| over the grid
    is_helix: bool
    orthogonal: bool
    tangent: bool
    resolution: int
    frames: FrameBatch  # frames at `points`

    def as_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "n_points": int(self.h.shape[0]),
            "h_mean": float(self.h_mean),
            "h_deviation": float(self.h_deviation),
            "nor_mean": float(self.nor_mean),
            "nor_deviation": float(self.nor_deviation),
            "field_norm_mean": float(self.scale),
            "field_norm_drift": float(self.field_norm_drift),
            "is_helix": bool(self.is_helix),
            "orthogonal": bool(self.orthogonal),
            "tangent": bool(self.tangent),
            "h_values": [float(v) for v in self.h],
        }


def helix_constancy_report(patch: SubmanifoldPatch, field, resolution: int = 32,
                           tols: Tolerances = DEFAULT_TOLS) -> HelixReport:
    """Grid test of the helix property; meaningful for parallel fields.

    Reports the deviation of h from its mean and, alongside, the
    deviation of |nor Y| and the drift of |Y| itself, since for a
    parallel field all three are constant together.  Each axis needs at
    least 3 samples: a symmetric 2-point axis samples only mirror images,
    on which a non-helix patch can show a constant h.  The report keeps
    the grid frames, built at order 2 so that the second fundamental
    form on the grid reads them too.
    """
    grid = patch.domain.grid(resolution)
    if np.min(resolution) < 3:
        raise ValueError("the helix test needs a grid resolution of at least 3, "
                         f"got {resolution!r}")
    frames = frames_at(patch, grid, order=2, tols=tols)
    h, nor, ynorm = _split_components(frames, field.values(grid))
    scale = float(ynorm.mean())
    guard = max(scale, _TINY)
    h_mean = float(h.mean())
    nor_mean = float(nor.mean())
    h_dev = float(np.abs(h - h_mean).max())
    nor_dev = float(np.abs(nor - nor_mean).max())
    drift = float(np.abs(ynorm - scale).max())
    return HelixReport(
        points=grid,
        h=h,
        nor=nor,
        y_norms=ynorm,
        h_mean=h_mean,
        h_deviation=h_dev,
        nor_mean=nor_mean,
        nor_deviation=nor_dev,
        field_norm_drift=drift,
        scale=scale,
        is_helix=bool(h_dev <= tols.helix_tol * guard),
        orthogonal=bool(h.max(initial=0.0) <= tols.helix_tol * guard),
        tangent=bool(nor.max(initial=0.0) <= tols.helix_tol * guard),
        resolution=resolution,
        frames=frames,
    )


# -- integral curves of tan(Y) -------------------------------------------------


def _seed_grid(box: Box) -> np.ndarray:
    """Interior seed points at 0.35, 0.5 and 0.65 of every axis span."""
    fractions = np.array([0.35, 0.5, 0.65])
    axes = [np.asarray(box.lo)[i] + fractions * box.spans[i] for i in range(box.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _auto_t1(box: Box, seeds, vels, frac: float) -> float:
    """Largest safe integration time, at most 1, from per-axis seed speeds.

    Periodic axes impose no bound; for the others the displacement at
    the initial speed is kept to ``frac`` of the distance to the nearest
    wall.  Curvature of the flow is handled by the caller's retry.
    """
    t1 = 1.0
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    for i in range(box.n):
        if box.periodic[i]:
            continue
        dist = np.minimum(seeds[:, i] - lo[i], hi[i] - seeds[:, i])
        speed = np.abs(vels[:, i])
        mask = speed > 1e-12
        if mask.any():
            t1 = min(t1, float((frac * dist[mask] / speed[mask]).min()))
    return t1


def _tan_flow(patch: SubmanifoldPatch, field):
    """Right-hand side of du/dt = tan(Y) in chart coordinates."""
    return lambda u: tangent_coords(patch.chart.eval_jets(u, order=1).jac, field.values(u))


def _halving_retry(run, t1: float, what: str):
    """(run(t1), t1), halving t1 after each domain exit; four tries."""
    for _ in range(4):
        try:
            return run(t1), t1
        except DomainExitError:
            t1 *= 0.5
    raise GeometryError(f"{what} keep leaving the domain; starts too close to a wall")


# -- codimension-one classification --------------------------------------------


def _hypersurface_preconditions(patch: SubmanifoldPatch, field, resolution,
                                tols: Tolerances):
    """The codimension-one and field-parallel preconditions shared by the
    classification and the geodesic alignment check.  Parallelity is
    sampled on the check's grid, capped at 9 nodes per axis."""
    par_rel, _ = parallelity_residual(patch, field, resolution=np.minimum(resolution, 9),
                                      tols=tols)
    return [
        Precondition("codimension-one", patch.codim == 1, float(patch.codim), 1.0),
        Precondition("field-parallel", par_rel <= tols.tgs_tol, par_rel, tols.tgs_tol),
    ]


def classify_hypersurface_helix(patch: SubmanifoldPatch, field, resolution: int = 16,
                                tols: Tolerances = DEFAULT_TOLS):
    """Trichotomy for a codimension-one helix patch with parallel Y.

    The field is orthogonal, tangent, or transversal; constancy of h
    makes the choice global, so grid extrema with the transversality
    floor decide the case.  Each case carries its own conclusion:

      orthogonal:  the patch is totally geodesic,
      tangent:     tan(Y) = Y is a parallel field of the patch itself
                   (the local product splitting is out of scope),
      transversal: integral curves of tan(Y) are geodesics of the patch
                   and, on top, geodesics of the ambient space.
    """
    rep = helix_constancy_report(patch, field, resolution=resolution, tols=tols)
    return _classify(patch, field, rep, tols)


def _classify(patch: SubmanifoldPatch, field, rep: HelixReport, tols: Tolerances):
    """`classify_hypersurface_helix` from a helix report already built."""
    guard = max(rep.scale, _TINY)
    pre = _hypersurface_preconditions(patch, field, rep.resolution, tols)
    pre.append(Precondition("helix-certified", rep.is_helix, rep.h_deviation / guard,
                            tols.helix_tol))
    floor = tols.transversality_floor
    h_rel = rep.h / guard
    nor_rel = rep.nor / guard
    details: dict = {"h_mean": rep.h_mean, "nor_mean": rep.nor_mean}

    if h_rel.max() < floor:
        case = "orthogonal"
        witness = rep.points[int(np.argmax(h_rel))]
        tgs_value, tgs_point = tgs_scan(rep.frames)
        hyp = [ResidualEntry("tangential-part", float(h_rel.max()),
                             tols.helix_tol, floor)]
        concl = [ResidualEntry("second-form-residual", tgs_value,
                               tols.tgs_tol, tols.ntgs_floor)]
        details["second_form_argmax"] = list(tgs_point)
    elif nor_rel.max() < floor:
        case = "tangent"
        witness = rep.points[int(np.argmax(nor_rel))]
        dy = field.param_jacobian(rep.points)
        coef = np.einsum("bmi,bml->bil", rep.frames.tangent, dy)
        rel = np.linalg.norm(coef, axis=1).max(axis=1) / np.maximum(rep.y_norms, _TINY)
        hyp = [ResidualEntry("normal-part", float(nor_rel.max()),
                             tols.helix_tol, floor)]
        concl = [ResidualEntry("tangential-field-parallel", float(rel.max()),
                               tols.transport_tol, tols.ntgs_floor)]
        details["note"] = ("tangent case: the local product splitting is out of "
                           "scope; parallelity of tan(Y) along the patch is "
                           "verified instead")
    elif h_rel.min() > floor and nor_rel.min() > floor:
        case = "transversal"
        witness = rep.points[int(np.argmin(h_rel))]
        seeds = _seed_grid(patch.domain)
        flow = _tan_flow(patch, field)
        traj, t1 = _halving_retry(
            lambda t: rk4_tracks(flow, seeds, t / _FLOW_STEPS, _FLOW_STEPS, patch.domain, pad=-1e-9),
            _auto_t1(patch.domain, seeds, flow(seeds), frac=0.5), "integral curves")
        flat = traj.reshape(-1, patch.n)
        frames = frames_at(patch, flat, order=1, tols=tols)
        yc = tangent_coords(frames.jac, field.values(flat))
        vel_amb = np.einsum("bmi,bi->bm", frames.jac, yc)
        speeds = np.linalg.norm(vel_amb, axis=1).reshape(_FLOW_STEPS + 1, -1)
        tan_def, amb_def = track_defects(frames, speeds, t1 / _FLOW_STEPS)
        hyp = [ResidualEntry("integral-curve-patch-geodesic", float(tan_def.max()),
                             tols.tgs_tol, tols.ntgs_floor)]
        concl = [ResidualEntry("integral-curve-ambient-geodesic", float(amb_def.max()),
                               tols.tgs_tol, tols.ntgs_floor)]
        details["n_curves"] = int(traj.shape[1])
        details["t1"] = float(t1)
    else:
        # mixed signs at the floor resolution; the statement does not apply
        pre.append(Precondition("case-selection", False, float(h_rel.min()), floor))
        case = "undetermined"
        witness = rep.points[int(np.argmin(h_rel))]
        hyp = [ResidualEntry("tangential-part", float(h_rel.max()),
                             tols.helix_tol, floor)]
        concl = [ResidualEntry("normal-part", float(nor_rel.max()),
                               tols.helix_tol, floor)]

    details["case"] = case
    details["witness"] = [float(v) for v in witness]
    return build_report("hypersurface-helix-classification", patch.name,
                        hypotheses=hyp, conclusions=concl, preconditions=pre,
                        details=details)


# -- nested-patch checks -------------------------------------------------------


def _nested_ii_norms(nested) -> np.ndarray:
    """Pointwise invariant norm of the second form of L inside its parent.

    The components sit in the raw chart basis of L, so the induced
    metric inverse contracts both slots; the result is independent of
    how L is parametrized.
    """
    ginv = nested.metric_inv
    val = np.einsum("bpr,bqs,bmpq,bmrs->b", ginv, ginv,
                    nested.ii_in_parent, nested.ii_in_parent)
    return np.sqrt(np.maximum(val, 0.0))


def _nested_sample(parent: SubmanifoldPatch, sub_chart, sub_domain: Box, field,
                   resolution, name: str, tols: Tolerances):
    """L-side data every nested check starts from.

    Returns (pts, nested, frames_l, frames_m, y, h, nor, guard, mem): the
    grid of L, its second form in the parent, order-2 frames of L and of
    the parent at the mapped points, Y there, |tan Y| and |nor Y| against
    L, the floored mean |Y|, and the parent's membership residual max|F|
    over the mapped points.
    """
    sub = composed_patch(parent, sub_chart, sub_domain, name=name)
    pts = sub_domain.grid(resolution)
    frames_l = frames_at(sub, pts, order=2, tols=tols)
    sub_jets = sub_chart.eval_jets(pts, order=2)
    frames_m = frames_at(parent, sub_jets.value, order=2, tols=tols)
    nested = nested_second_form(sub_jets, frames_m)
    y = field.values(nested.parent_points)
    h, nor, ynorm = _split_components(frames_l, y)
    mem = np.abs(np.einsum("bmj,bm->bj", frames_m.normal, y)).max(initial=0.0)
    return (pts, nested, frames_l, frames_m, y, h, nor, max(float(ynorm.mean()), _TINY),
            float(mem))


def orthogonal_tgs_check(parent: SubmanifoldPatch, sub_chart, sub_domain: Box,
                         field, resolution: int = 24, name: str = "L",
                         tols: Tolerances = DEFAULT_TOLS):
    """Equivalence: L sits in the parent's shadow set for Y exactly when
    L is totally geodesic in the parent.

    Needs Y parallel along the parent, orthogonal to L, and L curved
    somewhere-free in the ambient space (a totally geodesic L makes the
    equivalence degenerate, so it is gated out).  Both directions are
    residuals: membership max|F| against the second form of L in the
    parent; the verdict accepts them simultaneously small or large.
    """
    pts, nested, frames_l, _, _, h, _, guard, mem = _nested_sample(
        parent, sub_chart, sub_domain, field, resolution, name, tols)
    tan_rel = float(h.max() / guard)
    _, orth = second_form_components(frames_l)
    curve_norms = np.sqrt(np.einsum("bija,bija->b", orth, orth))
    min_curv = float(curve_norms.min())
    par_rel, _ = parallelity_residual(parent, field, resolution=9, tols=tols)

    ii_norms = _nested_ii_norms(nested)
    ii_max = float(ii_norms.max())

    pre = [
        Precondition("nested-codimension-one", parent.n - sub_domain.n == 1,
                     float(parent.n - sub_domain.n), 1.0),
        Precondition("field-parallel-on-parent", par_rel <= tols.tgs_tol,
                     par_rel, tols.tgs_tol),
        Precondition("field-orthogonal-to-nested", tan_rel <= tols.helix_tol,
                     tan_rel, tols.helix_tol),
        Precondition("nested-curved-in-ambient", min_curv > tols.ntgs_floor,
                     min_curv, tols.ntgs_floor),
    ]
    hyp = [ResidualEntry("shadow-membership", mem, tols.extract_tol,
                         tols.ntgs_floor)]
    concl = [ResidualEntry("second-form-in-parent", ii_max, tols.tgs_tol,
                           tols.ntgs_floor)]
    details = {
        "n_points": int(pts.shape[0]),
        "second_form_argmax": [float(v) for v in pts[int(np.argmax(ii_norms))]],
        "min_ambient_curvature": min_curv,
    }
    return build_report("orthogonal-tgs", f"{name} in {parent.name}",
                        hypotheses=hyp, conclusions=concl, preconditions=pre,
                        details=details)


def tgs_helix_check(parent: SubmanifoldPatch, sub_chart, sub_domain: Box,
                    field, resolution: int = 24, name: str = "L",
                    tols: Tolerances = DEFAULT_TOLS):
    """Implication: a totally geodesic L inside the parent's shadow set
    is itself a helix patch for Y.

    Membership and the second form of L in the parent gate the check (a
    failed hypothesis is not a counterexample to an implication), then
    the conclusion is constancy of h along L.
    """
    pts, nested, _, _, _, h, nor, guard, mem = _nested_sample(
        parent, sub_chart, sub_domain, field, resolution, name, tols)
    h_mean = float(h.mean())
    h_dev = float(np.abs(h - h_mean).max())
    ii_max = float(_nested_ii_norms(nested).max())

    pre = [
        Precondition("shadow-membership", mem <= tols.extract_tol, mem,
                     tols.extract_tol),
        Precondition("totally-geodesic-in-parent", ii_max <= tols.tgs_tol,
                     ii_max, tols.tgs_tol),
    ]
    hyp = [
        ResidualEntry("shadow-membership", mem, tols.extract_tol, tols.ntgs_floor),
        ResidualEntry("second-form-in-parent", ii_max, tols.tgs_tol,
                      tols.ntgs_floor),
    ]
    concl = [ResidualEntry("helix-deviation", h_dev / guard, tols.helix_tol,
                           tols.ntgs_floor)]
    details = {
        "n_points": int(pts.shape[0]),
        "h_mean": h_mean,
        "orthogonal": bool(h.max() <= tols.helix_tol * guard),
        "tangent": bool(nor.max() <= tols.helix_tol * guard),
        "deviation_argmax": [float(v) for v in pts[int(np.argmax(np.abs(h - h_mean)))]],
    }
    return build_report("tgs-helix", f"{name} in {parent.name}",
                        hypotheses=hyp, conclusions=concl, preconditions=pre,
                        details=details)


def minimality_criterion(parent: SubmanifoldPatch, sub_chart, sub_domain: Box,
                         field, resolution: int = 24, name: str = "L",
                         tols: Tolerances = DEFAULT_TOLS):
    """Equivalence: L is minimal in the parent exactly when g(H, Y) = 0,
    H being the mean curvature of L in the ambient space.

    Applies to a chain L of codimension one in the parent, parent of
    codimension one in the ambient space, with L inside the parent's
    shadow set and Y transverse to L.  The two-stage decomposition of
    the second form is recomputed independently and gates the check.
    """
    pts, nested, frames_l, frames_m, y, _, nor, guard, mem = _nested_sample(
        parent, sub_chart, sub_domain, field, resolution, name, tols)
    trans_min = float((nor / guard).min())
    decomposition = bang_decomposition_check(nested, frames_l, frames_m)
    h_vec = mean_curvature(frames_l)
    align = np.abs(np.einsum("bm,bm->b", h_vec, y)) / guard
    mean_in_parent = np.linalg.norm(nested.mean_in_parent, axis=1)

    pre = [
        Precondition("nested-codimension-one", parent.n - sub_domain.n == 1,
                     float(parent.n - sub_domain.n), 1.0),
        Precondition("parent-codimension-one", parent.codim == 1,
                     float(parent.codim), 1.0),
        Precondition("shadow-membership", mem <= tols.extract_tol, mem,
                     tols.extract_tol),
        Precondition("field-transverse-to-nested",
                     trans_min >= tols.transversality_floor, trans_min,
                     tols.transversality_floor),
        Precondition("curvature-decomposition",
                     decomposition <= _DECOMPOSITION_TOL, decomposition,
                     _DECOMPOSITION_TOL),
    ]
    hyp = [ResidualEntry("mean-curvature-in-parent", float(mean_in_parent.max()),
                         tols.tgs_tol, tols.ntgs_floor)]
    concl = [ResidualEntry("mean-field-alignment", float(align.max()),
                           tols.tgs_tol, tols.ntgs_floor)]
    details = {
        "n_points": int(pts.shape[0]),
        "mean_curvature_argmax": [float(v) for v in pts[int(np.argmax(mean_in_parent))]],
        "alignment_argmax": [float(v) for v in pts[int(np.argmax(align))]],
        "decomposition_residual": decomposition,
    }
    return build_report("minimality", f"{name} in {parent.name}",
                        hypotheses=hyp, conclusions=concl, preconditions=pre,
                        details=details)


# -- geodesics paired with the field -------------------------------------------


def _fan_directions(rinv) -> np.ndarray:
    """Metric-unit velocity fan at one point with frame factor rinv (n, n),
    in chart coordinates: eight directions when n = 2, else +-e_i."""
    n = rinv.shape[0]
    if n == 2:
        angles = 2.0 * math.pi * np.arange(8) / 8
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        dirs = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    return dirs @ rinv.T


def geodesic_alignment_check(patch: SubmanifoldPatch, field, resolution: int = 9,
                             tols: Tolerances = DEFAULT_TOLS):
    """Along geodesics of a codimension-one patch with transverse
    parallel Y: when g(Y, gamma') stays constant, the curve is a
    geodesic of the ambient space as well.

    A fan of unit-speed geodesics leaves the domain midpoint, plus the
    tan(Y) direction when it does not degenerate.  Curves whose pairing
    drift stays below the transport tolerance are selected; the
    conclusion is their worst ambient geodesic defect.
    """
    grid = patch.domain.grid(resolution)
    frames_g = frames_at(patch, grid, order=1, tols=tols)
    y = field.values(grid)
    _, nor, ynorm = _split_components(frames_g, y)
    guard = max(float(ynorm.mean()), _TINY)
    trans_min = float((nor / guard).min())
    pre = _hypersurface_preconditions(patch, field, resolution, tols)
    pre.append(Precondition("field-transverse", trans_min >= tols.transversality_floor,
                            trans_min, tols.transversality_floor))

    center = 0.5 * (np.asarray(patch.domain.lo) + np.asarray(patch.domain.hi))
    frames_c = frames_at(patch, center[None, :], order=1, tols=tols)
    metric_c = frames_c.metric[0]
    dirs = _fan_directions(frames_c.rinv[0])
    yc = tangent_coords(frames_c.jac, field.values(center[None, :]))[0]
    yc_norm = math.sqrt(float(yc @ metric_c @ yc))
    if yc_norm > tols.transversality_floor * guard:
        dirs = np.concatenate([dirs, (yc / yc_norm)[None, :]], axis=0)

    g_count = dirs.shape[0]
    starts = np.repeat(center[None, :], g_count, axis=0)
    results, t1 = _halving_retry(
        lambda t: geodesic_traces(patch, starts, dirs, t1=t, steps=_FAN_STEPS, tols=tols),
        _auto_t1(patch.domain, starts, dirs, frac=0.4), "geodesic fan curves")

    xs = np.stack([r.positions for r in results], axis=1)  # (S+1, G, m)
    traj = np.stack([r.params for r in results], axis=1)
    h = t1 / _FAN_STEPS
    kk = 8

    def first_diff(lag):
        return (xs[2 * lag:] - xs[:-2 * lag]) / (2.0 * lag * h)

    xdot = (4.0 * first_diff(kk)[kk:-kk] - first_diff(2 * kk)) / 3.0
    mid = traj[2 * kk:-2 * kk]
    yv = field.values(mid.reshape(-1, patch.n))
    yv = yv.reshape(xdot.shape[0], g_count, -1)
    pairing = np.einsum("sgm,sgm->sg", yv, xdot)
    speed0 = np.maximum(np.linalg.norm(xdot[0], axis=1), _TINY)
    drift = np.abs(pairing - pairing[0]).max(axis=0) / (guard * speed0)
    ambient = np.array([r.ambient_residual for r in results])

    selected = drift <= tols.transport_tol
    pre.append(Precondition("aligned-curve-found", bool(selected.any()),
                            float(selected.sum()), 1.0))
    if selected.any():
        hyp_value = float(drift[selected].max())
        concl_value = float(ambient[selected].max())
    else:
        hyp_value = float(drift.min())
        concl_value = float(ambient.min())
    hyp = [ResidualEntry("pairing-drift", hyp_value, tols.transport_tol,
                         tols.ntgs_floor)]
    concl = [ResidualEntry("ambient-geodesic-residual", concl_value,
                           tols.tgs_tol, tols.ntgs_floor)]
    details = {
        "t1": float(t1),
        "n_curves": int(g_count),
        "n_selected": int(selected.sum()),
        "curves": [
            {
                "velocity": [float(v) for v in dirs[i]],
                "pairing_drift": float(drift[i]),
                "ambient_residual": float(ambient[i]),
                "selected": bool(selected[i]),
            }
            for i in range(g_count)
        ],
    }
    return build_report("geodesic-alignment", patch.name, hypotheses=hyp,
                        conclusions=concl, preconditions=pre, details=details)


# -- the sweep construction ----------------------------------------------------


def tube_patch(curve: SubmanifoldPatch, direction, eps: float = 0.25,
               tols: Tolerances = DEFAULT_TOLS):
    """Sweep a flat-ambient patch along a constant direction.

    Returns the swept patch with chart (u, lam) -> x(u) + lam*v over
    |lam| < eps, together with the chart embedding the original patch at
    lam = 0.  Every normal of the sweep is orthogonal to v, so the
    shadow set for Y = v is the whole patch; pairing the result with the
    minimality check needs v transverse to the original patch, which is
    enforced on a grid of 64 nodes per axis.
    """
    if curve.ambient.constraint is not None:
        raise GeometryError("sweep construction needs a flat ambient space")
    v = np.asarray(direction, dtype=float)
    if v.shape != (curve.m,):
        raise GeometryError(f"direction must have {curve.m} components")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise GeometryError("direction must be nonzero")
    if not eps > 0.0:
        raise GeometryError("thickness must be positive")

    grid = curve.domain.grid(64)
    frames = frames_at(curve, grid, order=1, tols=tols)
    vb = np.broadcast_to(v, (grid.shape[0], curve.m))
    tan_c = np.einsum("bmi,bm->bi", frames.tangent, vb)
    rel_nor = np.sqrt(np.maximum(vnorm ** 2 - np.einsum("bi,bi->b", tan_c, tan_c),
                                 0.0)) / vnorm
    i = int(np.argmin(rel_nor))
    if rel_nor[i] <= tols.transversality_floor:
        raise GeometryError(
            f"direction is tangent to the patch (normal part {rel_nor[i]:.3e})",
            grid[i],
        )

    lam = "lam"
    while lam in curve.chart.params or lam in curve.chart.constants:
        lam += "_"
    constants = dict(curve.chart.constants)
    pieces = []
    for j, out in enumerate(curve.chart.outputs):
        src = to_source(out)
        if v[j] != 0.0:
            cname = f"w{j + 1}"
            while cname in constants or cname in curve.chart.params or cname == lam:
                cname += "_"
            constants[cname] = float(v[j])
            src = f"({src}) + {cname}*{lam}"
        pieces.append(src)
    chart = parse_chart("(" + ", ".join(pieces) + ")",
                        curve.chart.params + (lam,), constants)
    box = Box(tuple(curve.domain.lo) + (-float(eps),),
              tuple(curve.domain.hi) + (float(eps),),
              tuple(curve.domain.periodic) + (False,))
    patch = SubmanifoldPatch(chart, box, curve.ambient,
                             name=f"{curve.name}_tube")
    sub_chart = parse_chart("(" + ", ".join(curve.chart.params) + ", 0)",
                            curve.chart.params)
    return patch, sub_chart
