"""Independent numerical oracles used to freeze expected values.

Everything here recomputes quantities by routes the package does not
use: plain finite differences with Richardson extrapolation, least
squares fits, and dense sampling.
"""

from __future__ import annotations

import numpy as np

from shadowgeom.geometry import frames_at
from shadowgeom.shadow import shadow_system
from shadowgeom.tolerances import DEFAULT_TOLS

# central-difference step of the shadow Jacobian oracle
SHADOW_FD_STEP = 1e-4


def fd_jacobian(chart, u, h):
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fwd = chart.eval_values((u + e)[None, :])[0]
        bwd = chart.eval_values((u - e)[None, :])[0]
        cols.append((fwd - bwd) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_hessian(chart, u, h):
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    f0 = chart.eval_values(u[None, :])[0]
    m = f0.shape[0]
    hess = np.zeros((m, n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        fp = chart.eval_values((u + ei)[None, :])[0]
        fm = chart.eval_values((u - ei)[None, :])[0]
        hess[:, i, i] = (fp - 2.0 * f0 + fm) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            fpp = chart.eval_values((u + ei + ej)[None, :])[0]
            fpm = chart.eval_values((u + ei - ej)[None, :])[0]
            fmp = chart.eval_values((u - ei + ej)[None, :])[0]
            fmm = chart.eval_values((u - ei - ej)[None, :])[0]
            val = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
            hess[:, i, j] = val
            hess[:, j, i] = val
    return hess


def richardson_jacobian(chart, u, h=1e-4):
    """Central differences at steps h and h/2, Richardson combined."""
    return (4.0 * fd_jacobian(chart, u, h / 2.0) - fd_jacobian(chart, u, h)) / 3.0


def richardson_hessian(chart, u, h=1e-4):
    return (4.0 * fd_hessian(chart, u, h / 2.0) - fd_hessian(chart, u, h)) / 3.0


def fd_metric_derivative(chart, u, h=1e-5):
    """d_l g_ij by central differences of the metric itself."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]

    def metric(v):
        jac = richardson_jacobian(chart, v, h=1e-4)
        return jac.T @ jac

    out = np.zeros((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        out[l] = (metric(u + e) - metric(u - e)) / (2.0 * h)
    return out


def fit_line_residual(points):
    """Max distance of points to their best-fit straight line."""
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    q = pts - center
    _, _, vh = np.linalg.svd(q, full_matrices=False)
    direction = vh[0]
    proj = np.outer(q @ direction, direction)
    return float(np.linalg.norm(q - proj, axis=1).max())


def cone_development_angle(points, tangent_planes_axis):
    """Holonomy deficit of a closed curve via development of its tangent cone.

    points: (P, 3) dense samples of a closed curve on a surface whose
    tangent planes along the curve envelope a cone; tangent_planes_axis:
    (P, 3) the in-plane directions pointing along the cone rulings.
    The apex is fit by least squares over all ruling lines, then the
    developed total turning 2*pi*... is sum(ds / slant) and the deficit
    is 2*pi minus it.
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(tangent_planes_axis, dtype=float)
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    p = pts.shape[0]
    # apex a minimizing sum |(I - w w^T)(a - x)|^2
    a_mat = np.zeros((3, 3))
    b_vec = np.zeros(3)
    for i in range(p):
        proj = np.eye(3) - np.outer(w[i], w[i])
        a_mat += proj
        b_vec += proj @ pts[i]
    apex = np.linalg.solve(a_mat, b_vec)
    slant = np.linalg.norm(pts - apex, axis=1)
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    mid_slant = 0.5 * (slant + np.roll(slant, -1))
    developed = float(np.sum(seg / mid_slant))
    return 2.0 * np.pi - developed


def _frame_rotation(normals, anchor):
    """Orthogonal k x k factors R minimizing |N R - N0| per batch row."""
    m = np.einsum("bmi,bmj->bij", normals, anchor)
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def shadow_jacobian_consistency(patch, field, points, tols=DEFAULT_TOLS):
    """Max |analytic - central-difference| shadow Jacobian entry, with its
    argmax point.

    Differencing F requires the perturbed frames rotated back onto the
    center frame, since two or more normal columns carry an arbitrary
    rotation from point to point; meaningful where F is (near) zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _, jac, frames = shadow_system(patch, field, points, tols)
    h = SHADOW_FD_STEP
    n = points.shape[1]
    fd = np.empty_like(jac)
    for l in range(n):
        step = np.zeros(n)
        step[l] = h
        sided = []
        for sgn in (1.0, -1.0):
            pts = points + sgn * step
            fr = frames_at(patch, pts, order=1, tols=tols)
            rot = _frame_rotation(fr.normal, frames.normal)
            f = np.einsum("bmj,bm->bj", fr.normal, field.values(pts))
            sided.append(np.einsum("bij,bi->bj", rot, f))
        fd[:, :, l] = (sided[0] - sided[1]) / (2.0 * h)
    diff = np.abs(jac - fd)
    flat = int(np.argmax(diff))
    b = flat // (diff.shape[1] * diff.shape[2])
    return float(diff.max()), points[b]
