"""Parallel transport, holonomy probes, geodesics, transported fields.

Vectors transported here are tangent to the ambient manifold N and move
along curves that run inside a patch.  Writing c for the constraint map
presenting N, a field V along x(t) is parallel for the Levi-Civita
connection of N exactly when dV/dt is normal to N, which closes to the
linear matrix equation

    dV/dt = -Dc(x)^T (Dc Dc^T)^{-1} (xdot . Hess c) V .

Flat ambient spaces carry no constraint, the right side vanishes, and
parallel fields are the constant ones.  Integration is classical
fourth-order Runge-Kutta on per-step matrices, with the projection onto
the tangent space of N folded into every step; all stage data is built
in batch before the sequential fold.  One builder, `_rk4_increments`,
does the stage math for curves, holonomy loops and transported fields;
each caller only scales the increment and applies the projector.  It
evaluates each distinct stage point once: a step start equal to the
previous step end, in parameter and velocity bit for bit, reuses that
end's rows, so an S-step segment costs 2S + 1 rows; at a polyline
vertex the velocity turns and both rows are evaluated.  It evaluates the
constraint once: stage points pass the one on-ambient rule,
`geometry.check_on_ambient`, and the step-end Jacobian rows give the
projectors.  The builder hands those rows on, so the seed tangency
check, the tangency drift and the holonomy base basis read them instead
of evaluating the constraint again.  One fold, `_fold`, turns step
matrices into running products by one sequential matmul a step.  Curves
and transported fields read every product; holonomy loops and the coarse
run of `parallel_transport` read only the last, so for them the fold
writes the products into two buffers in turn, with the same matmul calls
in the same order, and holds two products rather than S + 1.
Transported fields build a line's station matrices in one builder call.
`holonomy_loop` is batch-first: it takes all probe loops of a command,
builds them one builder call each, and folds loops that share a step
count together, one batched `_fold` per group of at most `_GROUP_BYTES`
of step matrices.
Patch geodesics here and the integral curves of tan(Y) in `helix` come
from one nonlinear RK4 integrator, `rk4_tracks`, which raises
DomainExitError when a track crosses a wall of the chart domain.  Each
set of tracks gets one order-1 frame build over all its points; the
positions, the speeds and `track_defects` read those frames.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .curvature import christoffels, tgs_scan
from .fields import FieldAlongM
from .geometry import (
    DomainExitError,
    GeometryError,
    SubmanifoldPatch,
    TangencyError,
    ambient_kernel,
    check_on_ambient,
    constraint_kernel,
    frames_at,
)
from .reporting import Precondition, ResidualEntry, build_report
from .tolerances import DEFAULT_TOLS, Tolerances

__all__ = [
    "OBSTRUCTION_CLEAR_NOTE",
    "HOLONOMY_STEPS",
    "ParamCurve",
    "TransportResult",
    "parallel_transport",
    "HolonomyResult",
    "holonomy_loop",
    "probe_loops",
    "TransportField",
    "ObstructionReport",
    "construct_parallel_field",
    "parallelity_residual",
    "parallel_normal_frame_tgs_check",
    "GeodesicResult",
    "geodesic_traces",
    "rk4_tracks",
    "track_defects",
]

# transported-field stations per domain span; a cached line sweep reaches
# two stations past either end
_STATIONS = 1024
_REACH = _STATIONS + 2
# stacked step matrices of one holonomy fold group stay within this many
# bytes; the fold keeps two running products a loop besides
_GROUP_BYTES = 1 << 21
# RK4 steps around each probe loop of `transport` and `parallel-field`
HOLONOMY_STEPS = 1024
OBSTRUCTION_CLEAR_NOTE = "no obstruction found at probe resolution"


# -- curves in parameter space -------------------------------------------------


class ParamCurve:
    """A polyline in patch parameters.

    Each segment is parametrized over unit time, so step counts are
    split among segments by length and every vertex lands exactly on a
    step boundary.
    """

    def __init__(self, vertices, label=""):
        self.label = label
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        keep = [0]
        for i in range(1, len(verts)):
            if np.linalg.norm(verts[i] - verts[keep[-1]]) > 0.0:
                keep.append(i)
        verts = verts[keep]
        if len(verts) < 2:
            raise ValueError("polyline needs two distinct vertices")
        self.vertices = verts

    @classmethod
    def polyline(cls, vertices, closed: bool = False, label: str = "polyline"):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if closed and np.linalg.norm(verts[0] - verts[-1]) > 0.0:
            verts = np.vstack([verts, verts[:1]])
        return cls(verts, label=label)

    @property
    def start(self):
        return self.vertices[0]

    def _allocate(self, steps: int):
        lengths = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        raw = steps * lengths / lengths.sum()
        alloc = np.maximum(1, np.floor(raw).astype(int))
        deficit = steps - int(alloc.sum())
        if deficit > 0:
            order = np.argsort(-(raw - np.floor(raw)), kind="stable")
            for i in order[:deficit]:
                alloc[i] += 1
        return alloc

    def stage_points(self, steps: int):
        """Per-step stage samples: (u (S,3,n), du (S,3,n), h (S,)).

        Stages are step start, midpoint, end; du is the parameter
        velocity at each stage for the step's own parametrization.
        """
        steps = int(steps)
        if steps < 1:
            raise ValueError("need at least one step")
        u_parts, du_parts, h_parts = [], [], []
        for seg, s_count in enumerate(self._allocate(steps)):
            a, b = self.vertices[seg], self.vertices[seg + 1]
            d = b - a
            tl = (np.arange(s_count)[:, None] + np.array([0.0, 0.5, 1.0])) / s_count
            u_parts.append(a + tl[:, :, None] * d)
            du_parts.append(np.broadcast_to(d, (s_count, 3, len(d))))
            h_parts.append(np.full(s_count, 1.0 / s_count))
        return (
            np.concatenate(u_parts),
            np.concatenate(du_parts).astype(float),
            np.concatenate(h_parts),
        )


# -- step matrices --------------------------------------------------------------


def _rk4_increments(patch: SubmanifoldPatch, u3, du3, h, tols: Tolerances):
    """Shared RK4 stage math for a batch of transport steps.

    Takes stage parameters u3 and parameter velocities du3, both (S, 3, n)
    at step start, midpoint and end, and step sizes h (S,).  Returns the
    increment k1 + 2 k2 + 2 k3 + k4 (S, m, m), the projector onto the
    ambient tangent space at each step end (S, m, m), the stage
    positions (S, 3, m) and the constraint Jacobian rows there
    (S, 3, kc, m).  Over a flat ambient the increment is zero, the
    projectors are the identity and there are no constraint rows.  The
    projectors come from the step-end rows of the one order-2 constraint
    evaluation.  A step start whose parameter and velocity equal the
    previous step end bit for bit is not evaluated again: every kernel
    here works row by row, so it takes that end's results unchanged.
    """
    s_count, n = u3.shape[0], u3.shape[2]
    bits = np.concatenate([u3, du3], axis=2).view(np.uint64)
    repeat = np.zeros((s_count, 3), dtype=bool)
    repeat[1:, 0] = (bits[1:, 0] == bits[:-1, 2]).all(axis=1)
    fresh = ~repeat.reshape(-1)
    # compact row of each stage row; a repeated start reads the row before
    src = np.cumsum(fresh) - 1
    flat_u = u3.reshape(-1, n)[fresh]
    jets = patch.chart.eval_jets(flat_u, order=1)
    x = jets.value
    m = x.shape[1]
    xr = x[src].reshape(s_count, 3, m)
    if patch.ambient.flat:
        eye = np.broadcast_to(np.eye(m), (s_count, m, m))
        return np.zeros((s_count, m, m)), eye, xr, np.zeros((s_count, 3, 0, m))
    xdot = np.einsum("bmn,bn->bm", jets.jac, du3.reshape(-1, n)[fresh])
    cjets = patch.ambient.constraint.eval_jets(x, order=2)
    check_on_ambient(cjets.value, x, flat_u, tols)
    dc = cjets.jac
    dcdot = np.einsum("bi,baij->baj", xdot, cjets.hess)
    gram = np.einsum("bai,bci->bac", dc, dc)
    w = np.linalg.solve(gram, dcdot)
    big_l = -np.einsum("bai,baj->bij", dc, w)[src].reshape(s_count, 3, m, m)
    l0, lm, le = big_l[:, 0], big_l[:, 1], big_l[:, 2]
    half = (0.5 * h)[:, None, None]
    k1 = l0
    k2 = lm + half * (lm @ k1)
    k3 = lm + half * (lm @ k2)
    k4 = le + h[:, None, None] * (le @ k3)
    dc3 = dc[src].reshape(s_count, 3, -1, m)
    basis = constraint_kernel(dc3[:, 2], u3[:, 2], tols)
    proj = np.einsum("bmd,bjd->bmj", basis, basis)
    return k1 + 2 * k2 + 2 * k3 + k4, proj, xr, dc3


def _step_matrices(patch: SubmanifoldPatch, curve: ParamCurve, steps: int,
                   tols: Tolerances):
    """RK4 step matrices (S, m, m) plus step-end parameters (S+1, n),
    positions (S+1, m) and constraint Jacobian rows (S+1, kc, m)."""
    u3, du3, h = curve.stage_points(steps)
    inc, proj, xr, dc3 = _rk4_increments(patch, u3, du3, h, tols)
    end_u, end_x, end_dc = (np.concatenate([a[:, 0], a[-1:, 2]], axis=0)
                            for a in (u3, xr, dc3))
    mats = np.eye(inc.shape[1]) + (h / 6.0)[:, None, None] * inc
    return proj @ mats, end_u, end_x, end_dc


def _fold(mats, every=True):
    """Running products of step matrices (..., S, m, m): (..., S+1, m, m)
    with P_0 = I and P_s = M_{s-1} ... M_0, one sequential matmul a step.

    With every=False only P_S (..., m, m) is returned: the products are
    written into two buffers in turn, by the same matmul calls in the same
    order, so P_S is the same bit for bit.
    """
    steps = np.moveaxis(mats, -3, 0)
    out = np.empty((steps.shape[0] + 1 if every else 2,) + steps.shape[1:])
    out[0] = np.eye(mats.shape[-1])
    matmul = np.matmul  # per-step call overhead, not the small product, sets the cost
    for s, step in enumerate(steps):
        matmul(step, out[s % len(out)], out[(s + 1) % len(out)])  # P_{s+1}
    if not every:
        return out[steps.shape[0] % 2]
    return np.moveaxis(out, 0, -3)


def _check_seed_tangent(dc, v, tols, point):
    """TangencyError at `point` unless Dc v vanishes, for the constraint
    Jacobian row dc (kc, m) there; a flat ambient has no rows."""
    defect = np.linalg.norm(dc @ v)
    if defect > tols.on_ambient_tol * (1.0 + np.linalg.norm(v)):
        raise TangencyError(
            f"seed vector is not tangent to the ambient manifold (defect {defect:.3e})",
            point,
        )


# -- transport along one curve --------------------------------------------------


@dataclass(frozen=True)
class TransportResult:
    vectors: np.ndarray  # (S+1, m) at the step ends
    norm_drift: float
    tangency_drift: float
    step_error: float  # Richardson estimate from a half-resolution run


def parallel_transport(patch: SubmanifoldPatch, curve: ParamCurve, vector, steps: int,
                       tols: Tolerances = DEFAULT_TOLS) -> TransportResult:
    """Transport an ambient-tangent vector along a curve in the patch."""
    v0 = np.asarray(vector, dtype=float)
    mats, end_u, _, dc = _step_matrices(patch, curve, steps, tols)
    _check_seed_tangent(dc[0], v0, tols, end_u[0])
    vecs = _fold(mats) @ v0
    coarse_mats = _step_matrices(patch, curve, max(steps // 2, 1), tols)[0]
    v_coarse = _fold(coarse_mats, every=False) @ v0
    step_error = float(np.linalg.norm(vecs[-1] - v_coarse) / 15.0)
    norms = np.linalg.norm(vecs, axis=1)
    norm_drift = float(np.abs(norms - norms[0]).max())
    dots = np.linalg.norm(np.einsum("bam,bm->ba", dc, vecs), axis=1)
    tangency_drift = float((dots / (1.0 + norms)).max())
    return TransportResult(
        vectors=vecs,
        norm_drift=norm_drift,
        tangency_drift=tangency_drift,
        step_error=step_error,
    )


# -- holonomy --------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyResult:
    """Loop transport expressed in the ambient tangent basis at the start."""

    matrix: np.ndarray  # (d, d)
    ambient_matrix: np.ndarray  # (m, m)
    deviation: float  # spectral distance from the identity
    rotation: float | None  # principal rotation angle when d == 2
    label: str


def holonomy_loop(patch: SubmanifoldPatch, loops, steps: int,
                  tols: Tolerances = DEFAULT_TOLS) -> list:
    """Full transport around each of a sequence of loops: one
    HolonomyResult per loop, in order.

    Each loop must close in ambient space; parameter-space endpoints may
    differ (periodic wrap loops do), only the chart images must agree.
    Loops are built and checked one at a time, in order, one builder call
    each, so an error names the loop a one-by-one walk would.  Loops with
    the same step count are stacked into groups of at most _GROUP_BYTES
    of step matrices, and each group is folded by one batched `_fold`: a
    group costs one matmul call a step, not one a step and loop.  The fold
    works matrix by matrix, so every result equals the one-loop fold bit
    for bit.
    """
    counts = [int(loop._allocate(steps).sum()) for loop in loops]
    left = Counter(counts)
    pending: dict = {}  # step count -> (stacked step matrices, loop heads)
    results = [None] * len(counts)
    for i, (loop, count) in enumerate(zip(loops, counts)):
        mats, end_u, end_x, dc = _step_matrices(patch, loop, steps, tols)
        gap = np.linalg.norm(end_x[-1] - end_x[0])
        if gap > tols.on_ambient_tol * (1.0 + np.linalg.norm(end_x[0])):
            raise GeometryError(
                f"loop does not close in the ambient space (gap {gap:.3e})", end_u[0]
            )
        if patch.ambient.flat:
            basis0 = np.eye(patch.m)
        else:
            basis0 = constraint_kernel(dc[:1], end_u[:1], tols)[0]
        if count not in pending:
            size = min(left[count], max(1, _GROUP_BYTES // mats.nbytes))
            pending[count] = (np.empty((size,) + mats.shape), [])
        stack, heads = pending[count]
        stack[len(heads)] = mats
        heads.append((i, basis0, loop.label))
        left[count] -= 1
        if len(heads) < len(stack):
            continue
        del pending[count]
        for (j, basis0, label), total in zip(heads, _fold(stack, every=False)):
            hol = basis0.T @ total @ basis0
            d = hol.shape[0]
            rotation = None
            if d == 2:
                tr = 0.5 * (hol[0, 0] + hol[1, 1])
                rotation = float(math.acos(min(1.0, max(-1.0, tr))))
            results[j] = HolonomyResult(
                matrix=hol,
                ambient_matrix=total,
                deviation=float(np.linalg.norm(hol - np.eye(d), ord=2)),
                rotation=rotation,
                label=label,
            )
    return results


def probe_loops(patch: SubmanifoldPatch, levels=(1, 2, 3), n_random: int = 20,
                seed: int = 0):
    """Deterministic probe family: dyadic cell boundaries over every axis
    pair, seeded random polygons, and one wrap segment per periodic axis."""
    box = patch.domain
    n = box.n
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    span = hi - lo
    mid = 0.5 * (lo + hi)
    loops = []
    for lev in levels:
        parts = 2 ** lev
        for i, j in itertools.combinations(range(n), 2):
            edges_i = lo[i] + span[i] * np.arange(parts + 1) / parts
            edges_j = lo[j] + span[j] * np.arange(parts + 1) / parts
            for a in range(parts):
                for b in range(parts):
                    corners = []
                    for ci, cj in ((a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1)):
                        p = mid.copy()
                        p[i] = edges_i[ci]
                        p[j] = edges_j[cj]
                        corners.append(p)
                    loops.append(
                        ParamCurve.polyline(
                            corners, closed=True,
                            label=f"cell-l{lev}-ax{i}{j}-{a}-{b}",
                        )
                    )
    rng = np.random.default_rng(seed)
    for r in range(n_random):
        k = int(rng.integers(3, 7))
        verts = lo + rng.random((k, n)) * span
        loops.append(ParamCurve.polyline(verts, closed=True, label=f"random-{r}"))
    for i in range(n):
        if box.periodic[i]:
            a = mid.copy()
            a[i] = lo[i]
            b = a.copy()
            b[i] = hi[i]
            loops.append(ParamCurve.polyline([a, b], label=f"wrap-ax{i}"))
    return loops


# -- transported fields -----------------------------------------------------------


class TransportField(FieldAlongM):
    """Field built by transporting a seed vector along axis staircases.

    The value at u transports the seed from the base point along the
    path that walks each parameter axis in index order: first axis 0
    from the base to u[0], then axis 1, and so on.  Cumulative station
    transports along each visited line are cached, so structured grids
    and repeated nearby queries cost one extra integrator step each.
    Stations are 1/1024 of the domain span apart on each axis.  The step
    matrices of all stations on newly visited lines are built one line
    per builder call, then folded by `_fold`.  Each segment is one
    unit-time RK4 step built by `_rk4_increments`, the builder curve
    transport uses; only the final scaling differs, S/6 against (h/6)*S,
    because the two round differently.

    Over a flat ambient the field is the constant seed vector.
    """

    def __init__(self, patch: SubmanifoldPatch, base_point, vector,
                 tols: Tolerances = DEFAULT_TOLS):
        self.patch = patch
        self.base_point = np.asarray(base_point, dtype=float)
        self.vector = np.asarray(vector, dtype=float)
        self.tols = tols
        box = patch.domain
        self._h = np.array([(b - a) / _STATIONS for a, b in zip(box.lo, box.hi)])
        self._lines: dict = {}
        base = self.base_point[None, :]
        _, dc = ambient_kernel(patch.ambient, patch.chart.eval_values(base), base, tols)
        _check_seed_tangent(dc[0], self.vector, tols, self.base_point)

    # one RK4 step per segment, batched; starts (B, n), lengths (B,)
    def _segment_matrices(self, starts, axis: int, lengths):
        b = starts.shape[0]
        offs = np.array([0.0, 0.5, 1.0])
        u3 = np.repeat(starts[:, None, :], 3, axis=1)
        u3[:, :, axis] += offs[None, :] * lengths[:, None]
        du3 = np.zeros_like(u3)
        du3[:, :, axis] = lengths[:, None]
        inc, proj, _, _ = _rk4_increments(self.patch, u3, du3, np.ones(b), self.tols)
        # S/6 here but (h/6)*S in _step_matrices: one shared final line
        # moves parallel-field report values by about 1e-16 relative
        return proj @ (np.eye(inc.shape[1]) + inc / 6.0)

    def _build_lines(self, axis: int, keys):
        """Cache cumulative station transports along axis for new keys."""
        missing = [k for k in dict.fromkeys(keys) if (axis, k) not in self._lines]
        if not missing:
            return
        m = self.patch.m
        h = self._h[axis]
        q = len(missing)
        # line start: walked coordinates from the key, the rest at the base
        starts = np.tile(self.base_point, (q, 1))
        for col in range(axis):
            starts[:, col] = [k[col] for k in missing]
        cum = np.empty((q, 2 * _REACH + 1, m, m))
        for sign in (1, -1):
            # station starts by the walk's own repeated addition, which
            # keeps them bit-identical to stepping one station at a time
            coord = np.full((q, _REACH), sign * h)
            coord[:, 0] = starts[:, axis]
            seg = np.repeat(starts[:, None, :], _REACH, axis=1)
            seg[:, :, axis] = np.add.accumulate(coord, axis=1)
            lengths = np.full(_REACH, sign * h)
            # larger builder calls run no faster but raise peak memory, by
            # about 9 MiB at 4,096 segments on a region of the 2-sphere
            mats = np.empty((q, _REACH, m, m))
            for i in range(q):
                mats[i] = self._segment_matrices(seg[i], axis, lengths)
            cum[:, _REACH::sign] = _fold(mats)
        for k, idx in zip(missing, range(q)):
            self._lines[(axis, k)] = cum[idx]

    def _leg_transport(self, axis: int, pts, vecs):
        """Advance vectors along one staircase leg, batched over queries."""
        base = self.base_point[axis]
        h = self._h[axis]
        delta = pts[:, axis] - base
        s = np.trunc(delta / h).astype(int)
        if np.abs(s).max() > _REACH:
            i = int(np.argmax(np.abs(s)))
            raise GeometryError(
                "transport query is outside the covered parameter band", pts[i]
            )
        rem = delta - s * h
        keys = [tuple(row) for row in pts[:, :axis]]
        self._build_lines(axis, keys)
        cums = np.stack([self._lines[(axis, k)][_REACH + si] for k, si in zip(keys, s)])
        out = np.einsum("bij,bj->bi", cums, vecs)
        # one extra step covers the off-station remainder
        starts = pts.copy()
        starts[:, axis] = base + s * h
        for j in range(axis + 1, pts.shape[1]):
            starts[:, j] = self.base_point[j]
        live = np.abs(rem) > 0.0
        if live.any():
            mats = self._segment_matrices(starts[live], axis, rem[live])
            out[live] = np.einsum("bij,bj->bi", mats, out[live])
        return out

    def values(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        b = pts.shape[0]
        m = self.patch.m
        vecs = np.broadcast_to(self.vector, (b, m)).copy()
        if not self.patch.ambient.flat:
            for axis in range(self.patch.n):
                vecs = self._leg_transport(axis, pts, vecs)
        return vecs

    def param_jacobian(self, points):
        """dY/du, (B, m, n), by central differences of step tols.field_fd_step."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[1]
        h = self.tols.field_fd_step
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            cols.append((self.values(points + e) - self.values(points - e)) / (2.0 * h))
        return np.stack(cols, axis=2)


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of probing a patch for holonomy obstructions; `per_loop`
    holds one {"label", "deviation"} entry per probe loop."""

    ok: bool
    max_deviation: float
    worst_loop: str
    n_loops: int
    note: str
    per_loop: tuple


def construct_parallel_field(patch: SubmanifoldPatch, base_point=None, vector=None,
                             *, seed: int = 0, tols: Tolerances = DEFAULT_TOLS):
    """Best-effort parallel extension of a seed vector over the patch.

    Returns the transported field together with an obstruction report:
    each probe loop (dyadic cells at levels 1-3, 20 seeded random
    polygons, the periodic wraps) transports the field's value at the
    loop base all the way around in HOLONOMY_STEPS steps, and the
    deviation from returning unchanged is recorded.  A clean report
    certifies flatness of the connection only at the probe resolution,
    which the note says verbatim.
    """
    box = patch.domain
    if base_point is None:
        base_point = 0.5 * (np.asarray(box.lo, float) + np.asarray(box.hi, float))
    base_point = np.asarray(base_point, dtype=float)
    if vector is None:
        x0 = patch.chart.eval_values(base_point[None, :])
        vector = ambient_kernel(patch.ambient, x0, base_point[None, :], tols)[0][0, :, 0]
    vector = np.asarray(vector, dtype=float)
    fld = TransportField(patch, base_point, vector, tols=tols)
    loops = probe_loops(patch, levels=(1, 2, 3), n_random=20, seed=seed)
    # batch the field values at all loop bases so line caches build once
    y_bases = fld.values(np.array([loop.start for loop in loops]))
    hols = holonomy_loop(patch, loops, steps=HOLONOMY_STEPS, tols=tols)
    per = [{"label": hol.label,
            "deviation": float(np.linalg.norm(hol.ambient_matrix @ y0 - y0))}
           for hol, y0 in zip(hols, y_bases)]
    worst = max(per, key=lambda loop: loop["deviation"])
    max_dev = worst["deviation"]
    ok = max_dev <= tols.holonomy_tol
    note = OBSTRUCTION_CLEAR_NOTE if ok else (
        f"holonomy moves the field by {max_dev:.3e} around loop {worst['label']}"
    )
    report = ObstructionReport(
        ok=ok,
        max_deviation=max_dev,
        worst_loop=worst["label"],
        n_loops=len(per),
        note=note,
        per_loop=tuple(per),
    )
    return fld, report


def parallelity_residual(patch: SubmanifoldPatch, field, resolution: int = 9,
                         tols: Tolerances = DEFAULT_TOLS):
    """Max over a grid of |tangential dY/du_i| / |Y|; (value, argmax)."""
    grid = patch.domain.grid(resolution)
    y = field.values(grid)
    jac = field.param_jacobian(grid)
    x = patch.chart.eval_values(grid)
    basis = ambient_kernel(patch.ambient, x, grid, tols)[0]
    comp = np.einsum("bmd,bmi->bdi", basis, jac)
    per_axis = np.linalg.norm(comp, axis=1)  # (B, n)
    rel = per_axis.max(axis=1) / np.maximum(np.linalg.norm(y, axis=1), 1e-300)
    i = int(np.argmax(rel))
    return float(rel[i]), tuple(grid[i])


def parallel_normal_frame_tgs_check(patch: SubmanifoldPatch, resolution: int = 7,
                                    tols: Tolerances = DEFAULT_TOLS):
    """Equivalence check: the normal frame transported from a base point
    stays normal to the patch exactly when the patch is totally geodesic."""
    if patch.codim == 0:
        return build_report("parallel-normal-frame-tgs", patch.name, (), (),
                            [Precondition("normal-directions", False, 0.0, 1.0)])
    box = patch.domain
    base = 0.5 * (np.asarray(box.lo, float) + np.asarray(box.hi, float))
    normals = frames_at(patch, base[None, :], order=1, tols=tols).normal[0]
    grid = box.grid(resolution)
    frames = frames_at(patch, grid, order=2, tols=tols)
    worst_overlap = 0.0
    worst_point = tuple(base)
    for normal in normals.T:
        fld = TransportField(patch, base, normal, tols=tols)
        yv = fld.values(grid)
        overlap = np.linalg.norm(
            np.einsum("bmi,bm->bi", frames.tangent, yv), axis=1
        ) / np.maximum(np.linalg.norm(yv, axis=1), 1e-300)
        i = int(np.argmax(overlap))
        if overlap[i] > worst_overlap:
            worst_overlap = float(overlap[i])
            worst_point = tuple(grid[i])
    tgs_value, tgs_point = tgs_scan(frames)
    hyp = [ResidualEntry("transported-frame-tangential-part", worst_overlap,
                         tols.tgs_tol, tols.ntgs_floor)]
    concl = [ResidualEntry("second-form-residual", tgs_value, tols.tgs_tol,
                           tols.ntgs_floor)]
    details = {"base_point": [float(v) for v in base], "overlap_argmax": list(worst_point),
               "second_form_argmax": list(tgs_point)}
    return build_report("parallel-normal-frame-tgs", patch.name, hypotheses=hyp,
                        conclusions=concl, details=details)


# -- geodesics --------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicResult:
    params: np.ndarray  # (S+1, n)
    positions: np.ndarray  # (S+1, m)
    speed_drift: float
    tangential_residual: float  # defect as a geodesic of the patch
    ambient_residual: float  # defect as a geodesic of the ambient manifold
    steps: int


def rk4_tracks(rhs, start, h: float, steps: int, box, pad: float) -> np.ndarray:
    """States (S+1, G, d) of classical RK4 for y' = rhs(y) from a (G, d) batch.

    The first ``box.n`` state columns are chart parameters; after each step
    a track outside ``box.contains(..., pad=pad)`` raises DomainExitError.
    """
    y = np.array(start, dtype=float)
    states = np.empty((steps + 1,) + y.shape)
    states[0] = y
    for s in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        inside = box.contains(y[:, :box.n], pad=pad)
        if not inside.all():
            bad = int(np.argmin(inside))
            raise DomainExitError(
                f"track left the chart domain at t={(s + 1) * h:.6f}", y[bad, :box.n]
            )
        states[s + 1] = y
    return states


def track_defects(frames, speeds, h: float):
    """Geodesic defects of recorded parameter tracks.

    ``frames`` are order-1 frames at every track point, step-major:
    row s * G + g holds step s of track g; ``speeds`` is (S+1, G), ``h``
    the time step.  The ambient track ``frames.x`` is differentiated
    twice by Richardson-extrapolated second differences and the
    acceleration is projected onto the patch tangent (patch-geodesic
    defect) and onto the ambient tangent (ambient-geodesic defect), both
    relative to the squared speed.  Returns per-track maxima, NaN when
    the track is too short.
    """
    steps, g_count = speeds.shape[0] - 1, speeds.shape[1]
    kk = 8
    if steps < 8 * kk:
        return np.full(g_count, np.nan), np.full(g_count, np.nan)
    m = frames.x.shape[1]
    xs = frames.x.reshape(steps + 1, g_count, m)

    def second_diff(lag):
        num = xs[2 * lag:] - 2.0 * xs[lag:-lag] + xs[:-2 * lag]
        return num / (lag * h) ** 2

    d_fine = second_diff(kk)[kk:-kk]
    d_coarse = second_diff(2 * kk)
    acc_flat = ((4.0 * d_fine - d_coarse) / 3.0).reshape(-1, m)  # (S+1-4k) G rows
    mid = slice(2 * kk * g_count, (steps + 1 - 2 * kk) * g_count)
    sp2 = np.maximum(speeds[2 * kk:-2 * kk].reshape(-1) ** 2, 1e-300)
    tan_res = (
        np.linalg.norm(np.einsum("bmi,bm->bi", frames.tangent[mid], acc_flat), axis=1)
        / sp2
    ).reshape(-1, g_count)
    amb_res = (
        np.linalg.norm(np.einsum("bmd,bm->bd", frames.ambient[mid], acc_flat), axis=1)
        / sp2
    ).reshape(-1, g_count)
    return tan_res.max(axis=0), amb_res.max(axis=0)


def geodesic_traces(patch: SubmanifoldPatch, starts, velocities, t1: float, steps: int,
                    tols: Tolerances = DEFAULT_TOLS):
    """Integrate several patch geodesics at once; returns one result each.

    The residuals are independent of the integrator: the recorded track
    is differentiated twice by Richardson-extrapolated second
    differences, and the acceleration is projected onto the patch
    tangent (patch-geodesic defect) and onto the ambient tangent
    (ambient-geodesic defect), both relative to the squared speed.
    One order-1 frame build over every track point gives the positions,
    the speeds and the defects.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    g_count, n = starts.shape
    h = t1 / steps

    def rhs(state):
        u, v = state[:, :n], state[:, n:]
        gam = christoffels(patch, u)
        return np.concatenate([v, -np.einsum("gkij,gi,gj->gk", gam, v, v)], axis=1)

    states = rk4_tracks(rhs, np.concatenate([starts, velocities], axis=1), h, steps,
                        patch.domain, pad=1e-12)
    traj, vels = states[..., :n], states[..., n:]

    frames = frames_at(patch, traj.reshape(-1, n), order=1, tols=tols)
    xs = frames.x.reshape(steps + 1, g_count, -1)
    vflat = vels.reshape(-1, n)
    speeds = np.sqrt(
        np.einsum("bi,bij,bj->b", vflat, frames.metric, vflat)
    ).reshape(steps + 1, g_count)
    speed_drift = np.abs(speeds - speeds[0]).max(axis=0)

    tangential, ambient = track_defects(frames, speeds, h)

    results = []
    for g in range(g_count):
        results.append(
            GeodesicResult(
                params=traj[:, g, :],
                positions=xs[:, g, :],
                speed_drift=float(speed_drift[g]),
                tangential_residual=float(tangential[g]),
                ambient_residual=float(ambient[g]),
                steps=steps,
            )
        )
    return results
