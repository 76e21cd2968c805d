"""Extrinsic curvature of embedded patches.

The second fundamental form of a patch is read off the chart Hessian:
for coordinate fields, II(d_p, d_q) is the normal-frame component of the
second chart derivative, since the normal frame already lies inside the
ambient tangent space.  Components are kept both in chart coordinates
and in the orthonormal tangent basis.

For a nested patch L inside M, II of L within M is computed
intrinsically from M's induced metric via its Christoffel symbols, which
keeps it independent of the ambient route and lets the two be compared.
The metric, Jacobian and Hessian of M come from M's order-2 frames at
the mapped points, so the caller that samples L evaluates each chart
once and every helper here works on the frames and jets it is handed;
L's induced metric is inverted once, into `NestedCurvature.metric_inv`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FrameBatch, GeometryError, SubmanifoldPatch, induced_metric

__all__ = [
    "second_form_coord",
    "second_form_components",
    "mean_curvature",
    "tangent_coords",
    "gauss_kronecker",
    "tgs_scan",
    "christoffels",
    "NestedCurvature",
    "nested_second_form",
    "bang_decomposition_check",
]


def second_form_coord(frames: FrameBatch) -> np.ndarray:
    """Batched chart-coordinate components coord[b, p, q, a], (B, n, n, k).

    The normal-frame components of the chart Hessian, without the
    orthonormal-basis change that `second_form_components` adds; callers
    that never read `orth` skip its n^4 k work per row.
    """
    if frames.hess is None:
        raise GeometryError("second-order frame data required")
    b, m, n = frames.jac.shape
    flat = np.einsum("bma,bmr->bar", frames.normal, frames.hess.reshape(b, m, n * n))
    return np.ascontiguousarray(flat.transpose(0, 2, 1)).reshape(b, n, n, frames.k)


def second_form_components(frames: FrameBatch):
    """Batched (coord, orth) components, shapes (B, n, n, k)."""
    coord = second_form_coord(frames)
    orth = np.einsum("bpi,bqj,bpqa->bija", frames.rinv, frames.rinv, coord)
    return coord, orth


def mean_curvature(frames: FrameBatch) -> np.ndarray:
    """Mean curvature vectors H = (1/n) trace II, (B, m)."""
    _, orth = second_form_components(frames)
    n = frames.tangent.shape[2]
    traces = np.einsum("biia->ba", orth) / n
    return np.einsum("bma,ba->bm", frames.normal, traces)


def gauss_kronecker(frames: FrameBatch) -> np.ndarray:
    """Determinants of the shape operator, (B,); hypersurfaces only."""
    if frames.k != 1:
        raise GeometryError(
            f"Gauss-Kronecker needs codimension 1, patch has codimension {frames.k}"
        )
    _, orth = second_form_components(frames)
    return np.linalg.det(orth[..., 0])


def tangent_coords(jac, y) -> np.ndarray:
    """Chart coordinates of the tangential part of ambient vectors y
    (B, m), g^-1 jac^T y, from chart Jacobians jac (B, m, n): (B, n)."""
    proj = np.einsum("bmi,bm->bi", jac, y)
    return np.linalg.solve(induced_metric(jac), proj[..., None])[..., 0]


def _direction_set(n: int):
    dirs = [np.eye(n)[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = e[j] = 1.0
            dirs.append(e)
            f = np.zeros(n)
            f[i], f[j] = 1.0, -1.0
            dirs.append(f)
    return np.asarray(dirs)


def tgs_scan(frames: FrameBatch):
    """Max totally-geodesic residual over order-2 frames and a spanning
    direction set (coordinate directions and their pairwise sums and
    differences).  Returns (max_residual, argmax_point)."""
    coord = second_form_coord(frames)
    dirs = _direction_set(frames.tangent.shape[2])
    comps = np.einsum("dp,dq,bpqa->bda", dirs, dirs, coord)
    vecs = np.einsum("bma,bda->bdm", frames.normal, comps)
    norms2 = np.einsum("dp,bpq,dq->bd", dirs, frames.metric, dirs)
    resid = np.linalg.norm(vecs, axis=2) / norms2
    flat_i = int(np.argmax(resid))
    bi = flat_i // resid.shape[1]
    return float(resid.reshape(-1)[flat_i]), tuple(frames.points[bi])


def christoffels(patch: SubmanifoldPatch, points) -> np.ndarray:
    """Christoffel symbols of the induced metric, (B, n, n, n) as [b, k, i, j].

    Metric derivatives come from the chart jet:
    d_l g_ij = <phi_li, phi_j> + <phi_i, phi_lj>.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    jets = patch.chart.eval_jets(pts, order=2)
    return _christoffels(jets.jac, jets.hess, induced_metric(jets.jac))


def _christoffels(jac, hess, metric) -> np.ndarray:
    """`christoffels` from chart Jacobians, Hessians and induced metrics."""
    ginv = np.linalg.inv(metric)
    e = np.einsum("bai,bajl->blij", jac, hess)  # <phi_i, phi_lj>
    dg = e.swapaxes(2, 3) + e  # d_l g_ij
    t1 = np.einsum("bkl,bijl->bkij", ginv, dg)  # reads dg[b,i,j,l] = d_i g_jl
    t3 = np.einsum("bkl,blij->bkij", ginv, dg)  # d_l g_ij
    return 0.5 * (t1 + t1.swapaxes(2, 3) - t3)  # t1 swapped reads d_j g_il


# -- nested patches ----------------------------------------------------------


@dataclass(frozen=True)
class NestedCurvature:
    """Curvature data of L inside M along a batch of L-parameters.

    ii_in_parent is the intrinsic second fundamental form of L within M
    (ambient vectors, (B, m, l, l)); mean_in_parent its metric trace."""

    parent_points: np.ndarray  # (B, n) images in M parameters
    tangent_coords: np.ndarray  # (B, n, l) dpsi
    metric_inv: np.ndarray  # (B, l, l) inverse induced metric of L
    ii_in_parent: np.ndarray  # (B, m, l, l)
    mean_in_parent: np.ndarray  # (B, m)


def nested_second_form(sub_jets, frames_m: FrameBatch) -> NestedCurvature:
    """Second fundamental form of the nested patch within its parent,
    computed from the parent metric and Christoffel symbols only.

    ``sub_jets`` are the order-2 jets of L's chart into the parent
    parameters; ``frames_m`` the parent's order-2 frames at their values.
    """
    if frames_m.hess is None:
        raise GeometryError("second-order frame data required")
    t = sub_jets.jac  # (B, n, l)
    g = frames_m.metric
    gamma = _christoffels(frames_m.jac, frames_m.hess, g)
    acc = sub_jets.hess + np.einsum("bkij,bia,bjc->bkac", gamma, t, t)
    # remove the g-orthogonal projection onto span(dpsi)
    g_l = np.einsum("bia,bij,bjc->bac", t, g, t)
    rhs = np.einsum("bia,bij,bjcd->bacd", t, g, acc)
    b, l = rhs.shape[:2]
    coef = np.linalg.solve(g_l, rhs.reshape(b, l, -1)).reshape(rhs.shape)
    perp = acc - np.einsum("bka,bacd->bkcd", t, coef)
    ii_amb = np.einsum("bmk,bkcd->bmcd", frames_m.jac, perp)
    gl_inv = np.linalg.inv(g_l)
    mean = np.einsum("bmcd,bcd->bm", ii_amb, gl_inv) / l
    return NestedCurvature(frames_m.points, t, gl_inv, ii_amb, mean)


# -- additivity of the second fundamental form --------------------------------


def bang_decomposition_check(nested: NestedCurvature, frames_l: FrameBatch,
                             frames_m: FrameBatch) -> float:
    """Check II(L in N) = II(L in M) + II(M in N) on L's tangent vectors.

    The three forms are computed by independent routes: the composite
    chart for L in N (``frames_l``, order-2 frames of L), the parent
    chart for M in N (``frames_m``, the parent's order-2 frames at the
    mapped points), and the intrinsic connection of M for L in M
    (``nested``).  Returns the absolute residual, maxed over the sampled
    points.  Mean curvatures are traces of these forms, so it bounds theirs.
    """
    coord_l = second_form_coord(frames_l)
    ii_n = np.einsum("bcda,bma->bmcd", coord_l, frames_l.normal)

    coord_m = second_form_coord(frames_m)
    t = nested.tangent_coords
    comps = np.einsum("bpc,bqd,bpqa->bacd", t, t, coord_m)
    ii_m = np.einsum("bma,bacd->bmcd", frames_m.normal, comps)

    diff = ii_n - nested.ii_in_parent - ii_m
    return float(np.linalg.norm(diff, axis=1).max())
