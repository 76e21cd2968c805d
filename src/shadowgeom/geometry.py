"""Embedded patches and adapted frames.

The ambient space N is either flat Euclidean space or the zero set of a
constraint map inside it.  A submanifold patch M is a chart into the
ambient coordinates over a box of parameters.  Frames are built over a
batch of points: at each, an orthonormal tangent basis from the chart
Jacobian, an orthonormal basis of the ambient tangent space from the
constraint kernel, and an orthonormal normal frame spanning the
complement of the patch tangent inside the ambient tangent.

One rule decides whether a chart point lies on the ambient manifold,
`check_on_ambient`: its constraint residual is at most on_ambient_tol *
(1 + |x|), else OffAmbientError names the caller's parameter point.
Frames, the transport steps and `validate_patch` all use it.

Tangent and ambient columns, and normal columns when there are two or
more, follow one deterministic sign convention: the component of largest
magnitude (first such index on ties) is made positive.  A single normal
(k = 1) is oriented instead: xi is signed so that det[d_1 x ... d_n x |
xi | grad c_1 ... grad c_kc] > 0, chart Jacobian columns first and
constraint gradients last (none when the ambient is flat).  Every column
of that matrix is continuous and the rank gates keep it invertible, so
xi is continuous over the whole patch, periodic seams included.  Two
evaluations at the same parameters produce bit-identical frames.
`normal_component` reads <v, xi> for that single normal as a ratio of
determinants, with the same gates and no frame built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import ChartExpr, compose
from .tolerances import DEFAULT_TOLS, Tolerances

__all__ = [
    "GeometryError",
    "ChartRankError",
    "DomainExitError",
    "OffAmbientError",
    "TangencyError",
    "Box",
    "AmbientSpace",
    "SubmanifoldPatch",
    "FrameBatch",
    "fix_column_signs",
    "orthonormal_span",
    "check_on_ambient",
    "ambient_tangent_basis",
    "ambient_kernel",
    "constraint_kernel",
    "frames_at",
    "normal_component",
    "composed_patch",
    "ValidationReport",
    "validate_patch",
]


class GeometryError(RuntimeError):
    def __init__(self, msg, point=None):
        if point is not None:
            point = tuple(np.asarray(point, dtype=float).tolist())
            msg = f"{msg} at parameters {point}"
        super().__init__(msg)
        self.point = point


class ChartRankError(GeometryError):
    pass


class DomainExitError(GeometryError):
    """A curve track crossed a non-periodic wall of the chart domain."""


class OffAmbientError(GeometryError):
    pass


class TangencyError(GeometryError):
    pass


# -- parameter domain -------------------------------------------------------

# largest grid `Box.grid` builds: 32 MiB of float64 coordinates per axis
MAX_GRID_ROWS = 2**22


@dataclass(frozen=True)
class Box:
    """Axis-aligned parameter domain; axes may be periodic."""

    lo: tuple
    hi: tuple
    periodic: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.periodic)):
            raise ValueError("box axis lists disagree in length")
        for a, b in zip(self.lo, self.hi):
            if not b > a:
                raise ValueError(f"empty box axis [{a}, {b}]")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def spans(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def wrap(self, points):
        """Map periodic coordinates into [lo, hi); clamp nothing else.

        A coordinate already in [lo, hi) is returned unchanged, bit for
        bit.  One outside that rounds onto hi (one just below lo, say) maps
        to lo, so the result lies in [lo, hi) and wrapping it again changes
        no bit.
        """
        pts = np.array(points, dtype=float, copy=True)
        flat = pts.reshape(-1, self.n)
        for i, per in enumerate(self.periodic):
            if per:
                lo, hi = self.lo[i], self.hi[i]
                x = flat[:, i]
                w = lo + np.mod(x - lo, hi - lo)
                flat[:, i] = np.where((x >= lo) & (x < hi), x, np.where(w < hi, w, lo))
        return pts

    def contains(self, points, pad: float = 0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for i, per in enumerate(self.periodic):
            if per:
                continue
            ok &= (pts[:, i] >= self.lo[i] - pad) & (pts[:, i] <= self.hi[i] + pad)
        return ok

    def axis_grid(self, i: int, res: int):
        if self.periodic[i]:
            return self.lo[i] + (self.hi[i] - self.lo[i]) * np.arange(res) / res
        return np.linspace(self.lo[i], self.hi[i], res)

    def grid(self, res):
        """Lexicographic (C-order) grid of parameter points, (prod(res), n).

        A grid of more than MAX_GRID_ROWS rows is refused before any of it
        is allocated.
        """
        res = self._res_tuple(res)
        rows = math.prod(res)
        if rows > MAX_GRID_ROWS:
            raise ValueError(f"grid of {rows} rows exceeds the cap of {MAX_GRID_ROWS} rows")
        axes = [self.axis_grid(i, r) for i, r in enumerate(res)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def cell_sizes(self, res):
        res = self._res_tuple(res)
        out = []
        for i, r in enumerate(res):
            cells = r if self.periodic[i] else r - 1
            out.append((self.hi[i] - self.lo[i]) / cells)
        return tuple(out)

    def _res_tuple(self, res):
        """Per-axis grid resolutions; each must be an integer of at least 2."""
        res = (res,) * self.n if np.isscalar(res) else tuple(res)
        if len(res) != self.n:
            raise ValueError(f"expected {self.n} resolutions, got {len(res)}")
        for r in res:
            if not isinstance(r, numbers.Integral) or r < 2:
                raise ValueError(f"grid resolution must be an integer of at least 2, got {r!r}")
        return tuple(int(r) for r in res)

    def param_distance(self, a, b):
        """Componentwise distance honoring periodic wrap."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = a - b
        for i, per in enumerate(self.periodic):
            if per:
                span = self.hi[i] - self.lo[i]
                d[..., i] = (d[..., i] + 0.5 * span) % span - 0.5 * span
        return np.linalg.norm(d, axis=-1)


# -- spaces ------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientSpace:
    """Flat R^m, or the zero set of a constraint map inside it."""

    dim: int
    constraint: ChartExpr | None = None

    def __post_init__(self):
        if self.constraint is not None:
            if self.constraint.n_params != self.dim:
                raise ValueError(
                    f"constraint expects {self.constraint.n_params} coordinates, ambient has {self.dim}"
                )
            if self.constraint.n_outputs >= self.dim:
                raise ValueError("constraint leaves no tangent directions")

    @property
    def flat(self) -> bool:
        return self.constraint is None

    @property
    def n_constraints(self) -> int:
        return 0 if self.constraint is None else self.constraint.n_outputs

    @property
    def tangent_dim(self) -> int:
        return self.dim - self.n_constraints


@dataclass(frozen=True)
class SubmanifoldPatch:
    chart: ChartExpr
    domain: Box
    ambient: AmbientSpace
    name: str = "M"

    def __post_init__(self):
        if self.chart.n_params != self.domain.n:
            raise ValueError("chart parameter count disagrees with domain")
        if self.chart.n_outputs != self.ambient.dim:
            raise ValueError(
                f"chart maps to R^{self.chart.n_outputs}, ambient is R^{self.ambient.dim}"
            )

    @property
    def n(self) -> int:
        return self.chart.n_params

    @property
    def m(self) -> int:
        return self.ambient.dim

    @property
    def codim(self) -> int:
        """Codimension inside the ambient tangent space."""
        return self.ambient.tangent_dim - self.n


def composed_patch(parent: SubmanifoldPatch, sub_chart: ChartExpr, sub_domain: Box, name="L"):
    """Ambient patch of a nested submanifold given by a chart into the
    parent's parameter space."""
    if sub_chart.n_outputs != parent.n:
        raise ValueError("nested chart must map into the parent parameters")
    return SubmanifoldPatch(
        chart=compose(parent.chart, sub_chart),
        domain=sub_domain,
        ambient=parent.ambient,
        name=name,
    )


# -- linear algebra helpers --------------------------------------------------

# rows whose certified rank bound is below this multiple of rank_tol take
# the exact SVD gate
_RANK_BOUND_SAFETY = 16.0


def column_signs(q):
    """Sign per column from the largest-magnitude component rule.

    Ties take the first index; exact zeros count positive.  q: (B, m, r).
    """
    idx = np.argmax(np.abs(q), axis=1)  # (B, r)
    vals = np.take_along_axis(q, idx[:, None, :], axis=1)[:, 0, :]
    return np.where(vals < 0.0, -1.0, 1.0)


def fix_column_signs(q):
    """Flip columns so each vector's largest-magnitude component is positive."""
    if q.shape[2] == 0:
        return q
    return q * column_signs(q)[:, None, :]


def orthonormal_span(mats, k: int, orthogonal_to, points):
    """Orthonormal basis of the leading k-dimensional column span of mats,
    taken orthogonal to the orthonormal columns of orthogonal_to.

    Pivoted modified Gram-Schmidt, vectorized over the batch: each round
    takes the column of largest remaining norm, re-orthogonalizes it, and
    deflates.  Ties pick the first column, so the result is deterministic.
    mats: (B, m, c) with c >= k, orthogonal_to: (B, m, r); returns
    (B, m, k).  A rank-deficient row raises at its parameter point.
    """
    work = mats
    first_norm = None
    cols = []
    for i in range(k):
        norms = np.linalg.norm(work, axis=1)  # (B, c)
        p = np.argmax(norms, axis=1)
        nv = np.take_along_axis(norms, p[:, None], axis=1)[:, 0]
        if first_norm is None:
            first_norm = np.maximum(nv, 1e-300)
        bad = nv <= 1e-12 * first_norm
        if bad.any():
            raise GeometryError("requested span is rank-deficient", points[int(np.argmax(bad))])
        q = np.take_along_axis(work, p[:, None, None], axis=2)[:, :, 0] / nv[:, None]
        q = q - np.einsum("bmr,br->bm", orthogonal_to, np.einsum("bmr,bm->br", orthogonal_to, q))
        for qprev in cols:
            q = q - qprev * np.einsum("bm,bm->b", qprev, q)[:, None]
        q = q / np.linalg.norm(q, axis=1)[:, None]
        cols.append(q)
        if i + 1 < k:
            work = work - q[:, :, None] * np.einsum("bm,bmc->bc", q, work)[:, None, :]
    return np.stack(cols, axis=2)


# -- frames ------------------------------------------------------------------


@dataclass(frozen=True)
class FrameBatch:
    """Per-point frame data over a batch of parameter points.

    tangent columns are an orthonormal basis of T_x M, ambient columns of
    T_x N, normal columns of the orthogonal complement of T_x M inside
    T_x N.  r is the sign-fixed R factor of jac = tangent @ r.

    metric (B, n, n), the induced metric jac^T jac, and rinv (B, n, n),
    the inverse of r, are computed on first read and kept; they are
    bit-identical to np.einsum("bmi,bmj->bij", jac, jac) and
    np.linalg.inv(r).  rinv converts orthonormal tangent coordinates to
    chart coordinates: e_i = jac @ rinv[:, i].
    """

    points: np.ndarray  # (B, n)
    x: np.ndarray  # (B, m)
    jac: np.ndarray  # (B, m, n)
    hess: np.ndarray | None  # (B, m, n, n)
    tangent: np.ndarray  # (B, m, n)
    r: np.ndarray  # (B, n, n)
    ambient: np.ndarray  # (B, m, d)
    normal: np.ndarray  # (B, m, k)

    @property
    def k(self) -> int:
        return self.normal.shape[2]

    @cached_property
    def metric(self) -> np.ndarray:
        return np.einsum("bmi,bmj->bij", self.jac, self.jac)

    @cached_property
    def rinv(self) -> np.ndarray:
        return np.linalg.inv(self.r)


def _on_ambient_residual(cvalues, x):
    """Constraint residuals |c(x)|_inf relative to 1 + |x|, (B,), from
    constraint values (B, kc) at ambient points x (B, m)."""
    return np.abs(cvalues).max(axis=1) / (1.0 + np.linalg.norm(x, axis=1))


def check_on_ambient(cvalues, x, points, tols: Tolerances):
    """The one on-ambient rule: a row of x passes when its
    `_on_ambient_residual` is at most on_ambient_tol, else OffAmbientError
    is raised at the caller's parameter point for that row."""
    bad = _on_ambient_residual(cvalues, x) > tols.on_ambient_tol
    if bad.any():
        i = int(np.argmax(bad))
        raise OffAmbientError(
            f"point is off the ambient manifold (constraint residual "
            f"{np.abs(cvalues[i]).max():.3e})",
            points[i],
        )


def ambient_tangent_basis(ambient: AmbientSpace, x, tols: Tolerances = DEFAULT_TOLS):
    """Orthonormal basis of ker Dc(x), (B, m, d); identity columns when
    flat.  Errors name the row of x, the only point this function is given."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return ambient_kernel(ambient, x, x, tols)[0]


def ambient_kernel(ambient: AmbientSpace, x, points, tols: Tolerances):
    """Orthonormal basis of ker Dc(x), (B, m, d), and the constraint
    Jacobian Dc(x) it came from, (B, kc, m); identity columns and no
    constraint rows when flat.  Errors name the row's parameter point."""
    b, m = x.shape
    if ambient.flat:
        return np.broadcast_to(np.eye(m), (b, m, m)).copy(), np.zeros((b, 0, m))
    jets = ambient.constraint.eval_jets(x, order=1)
    check_on_ambient(jets.value, x, points, tols)
    return constraint_kernel(jets.jac, points, tols), jets.jac


def constraint_kernel(dc, points, tols: Tolerances):
    """Sign-fixed orthonormal basis of ker Dc, (B, m, m - kc), from
    constraint Jacobians dc (B, kc, m); ChartRankError names the
    parameter point of a rank-deficient row."""
    _, svals, vh = np.linalg.svd(dc, full_matrices=True)
    _constraint_rank_gate(svals, points, tols)
    return fix_column_signs(vh[:, dc.shape[1]:, :].transpose(0, 2, 1))


def _constraint_rank_gate(svals, points, tols: Tolerances):
    """Raise ChartRankError at the first row whose constraint Jacobian
    singular values svals (B, kc) have sigma_min < rank_tol sigma_max."""
    bad = svals[:, -1] < tols.rank_tol * svals[:, 0]
    if bad.any():
        raise ChartRankError("constraint Jacobian is rank-deficient",
                             points[int(np.argmax(bad))])


def _rank_gate(jac, bound, points, tols: Tolerances):
    """Raise ChartRankError at the first row of jac whose exact singular
    value ratio sigma_min / sigma_max falls below rank_tol.

    bound (B,) is a certified lower bound on each row's ratio.  Only rows
    whose bound falls below _RANK_BOUND_SAFETY * rank_tol, or is NaN, take
    the exact SVD; a row that fails has a bound below that, so the error
    names the same first row and ratio whichever certified bound is given.
    """
    low = ~(bound >= _RANK_BOUND_SAFETY * tols.rank_tol)
    if not low.any():
        return
    jac, points = jac[low], points[low]
    svals = np.linalg.svd(jac, compute_uv=False)
    good = svals[:, -1] >= tols.rank_tol * np.maximum(svals[:, 0], 1e-300)
    if not good.all():
        i = int(np.argmax(~good))
        raise ChartRankError(
            f"chart Jacobian is rank-deficient (singular value ratio "
            f"{svals[i, -1] / max(svals[i, 0], 1e-300):.3e})",
            points[i],
        )


def _certified_qr(jac, points, tols: Tolerances):
    """Sign-fixed QR factors (q, r) of a rank-certified batch of chart
    Jacobians.

    Rank is certified from R without inverting it.  With sigma_max and
    sigma_min the extreme singular values of R (those of jac), |det R| is
    the product of all n of them, so |det R| <= sigma_min sigma_max^(n-1);
    and sigma_max <= |R|_F.  Hence

        sigma_min / sigma_max >= |det R| / sigma_max^n
                              >= |det R| / |R|_F^n = prod_i (|r_ii| / |R|_F),

    read off the pivots and the norm of R and handed to `_rank_gate`;
    when R is not square the whole batch takes the exact SVD.
    """
    q, r = np.linalg.qr(jac)
    signs = column_signs(q)
    q = q * signs[:, None, :]
    r = r * signs[:, :, None]
    if r.shape[1] != r.shape[2]:
        _rank_gate(jac, np.zeros(jac.shape[0]), points, tols)
        return q, r
    # floored so that a zero R gives a bound of 0 rather than 0 / 0
    r_norm = np.maximum(np.linalg.norm(r, axis=(1, 2)), 1e-300)
    bound = np.prod(np.abs(np.diagonal(r, axis1=1, axis2=2)) / r_norm[:, None], axis=1)
    _rank_gate(jac, bound, points, tols)
    return q, r


def _pow2_scaled(a):
    """a (r, c, B) times a power of two per batch column, chosen so that
    the column's largest |entry| lies in [0.5, 1); exact, and a zero or
    non-finite column is left as it is."""
    _, e = np.frexp(np.abs(a).max(axis=(0, 1)))
    return np.ldexp(a, -e)


def _det(a):
    """Determinants of batch-last k x k matrices a (k, k, B), (B,): the
    cofactor expansion for k <= 3, an LU beyond."""
    k = a.shape[0]
    if k == 1:
        return a[0, 0]
    if k == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if k == 3:
        return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return np.linalg.det(np.moveaxis(a, -1, 0))


def _gram(a):
    """Gram matrices a^T a of batch-last columns a (m, c, B), (c, c, B)."""
    return np.einsum("mib,mjb->ijb", a, a)


def _gram_error(n: int, m: int) -> float:
    """delta: a bound on |computed det g - det g| / (tr g)^n for the Gram
    matrix g = jac^T jac of an m x n chart Jacobian, taken generously
    over the roundings of g's products (about n m eps) and of `_det`
    (a few eps for the cofactor expansions, n^2 2^n eps for an LU with
    partial pivoting, whose growth is at most 2^(n-1))."""
    return n * (n + m) * 2.0**n * np.finfo(float).eps


def _gram_rank_bound(g, det_g):
    """Lower bound on sigma_min / sigma_max per batch column of chart
    Jacobians jac (m, n, B), from their Gram matrices g = jac^T jac
    (n, n, B) and det_g = `_det(g)`: (B,).

    With sigma_1 .. sigma_n the singular values of jac, det g = prod
    sigma_i^2 and tr g = sum sigma_i^2 >= sigma_max^2, so

        sqrt(det g) / (tr g)^(n/2) <= prod_i sigma_i / sigma_max^n
                                   <= sigma_min / sigma_max = rho.

    It is the QR bound of `_certified_qr` in other terms: |det R| =
    sqrt(det g) and |R|_F^2 = tr g.  Forming g squares the conditioning:
    the computed det g is off by at most delta (tr g)^n (`_gram_error`),
    so the computed bound is at most sqrt(rho^2 + delta).
    """
    n = g.shape[0]
    tr = np.trace(g)
    # a zero Jacobian gives a bound of 0 rather than 0 / 0
    tr = np.where(tr > 0.0, tr, 1.0)
    return np.sqrt(np.maximum(det_g, 0.0) / tr**n)


def _gram_rank_gated(jac, points, tols: Tolerances):
    """The chart-rank gate of `frames_at` read from Gram matrices, not a
    QR: raises its ChartRankError at the same first row, else returns jac
    (B, m, n) as batch-last columns scaled by `_pow2_scaled` (m, n, B),
    whose small products run over whole rows, and det g of those (B,).

    A row below rank_tol has a `_gram_rank_bound` of at most
    sqrt(rank_tol^2 + delta), so it still falls below the 16x margin of
    `_rank_gate` while rank_tol^2 + delta < (16 rank_tol)^2, that is
    while (16 rank_tol)^2 >> eps: at the default rank_tol of 1e-8 with
    n = 2 and m = 3, delta = 40 eps = 8.9e-15 against 2.56e-14.  Where
    it fails (a much smaller rank_tol, or a large n) every row takes the
    exact SVD; one unit of rank_tol^2 is kept spare for the roundings of
    the trace, the quotient and the root.  The power-of-two scaling
    leaves rho exact and keeps g clear of overflow and underflow.
    """
    _, m, n = jac.shape
    cols = _pow2_scaled(np.ascontiguousarray(jac.transpose(1, 2, 0)))
    g = _gram(cols)
    det_g = _det(g)
    if _gram_error(n, m) > (_RANK_BOUND_SAFETY**2 - 2.0) * tols.rank_tol**2:
        bound = np.zeros(jac.shape[0])
    else:
        bound = _gram_rank_bound(g, det_g)
    _rank_gate(jac, bound, points, tols)
    return cols, det_g


def frames_at(patch: SubmanifoldPatch, points, order: int = 2,
              tols: Tolerances = DEFAULT_TOLS) -> FrameBatch:
    """Build adapted frames at a batch of parameter points.

    Raises ChartRankError at the first point where the chart Jacobian is
    rank-deficient, sigma_min / sigma_max < rank_tol.  The ratio is
    certified from the QR factor R by the determinant bound
    sigma_min / sigma_max >= prod_i (|r_ii| / |R|_F), which follows from
    |det R| <= sigma_min sigma_max^(n-1) and sigma_max <= |R|_F; only
    rows the bound cannot clear by a safety margin fall back to the exact
    SVD (`_certified_qr`).  R is never inverted here: `FrameBatch.rinv`
    and `.metric` are computed when first read.

    A single normal (k = 1) is signed so that det[jac | xi | Dc^T] > 0,
    which makes it continuous across the patch; two or more normal
    columns take the largest-component sign convention.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jets = patch.chart.eval_jets(points, order=order)
    x, jac = jets.value, jets.jac
    b, m, n = jac.shape
    q, r = _certified_qr(jac, points, tols)
    amb, dc = ambient_kernel(patch.ambient, x, points, tols)
    d = amb.shape[2]
    k = d - n
    if k < 0:
        raise GeometryError(
            f"patch dimension {n} exceeds ambient tangent dimension {d}", points[0]
        )
    if k == 0:
        normal = np.zeros((b, m, 0))
    else:
        # flat: amb is the identity, and q^T amb is q^T up to the sign of
        # exact zeros, which amb - q q^T amb turns to +0 either way
        proj = q.mT if patch.ambient.flat else np.einsum("bmn,bmd->bnd", q, amb)
        resid = amb - q @ proj
        normal = orthonormal_span(resid, k, q, points)
        if k == 1:
            orient = np.concatenate([jac, normal, dc.transpose(0, 2, 1)], axis=2)
            normal = normal * np.where(np.linalg.slogdet(orient)[0] < 0, -1.0, 1.0)[:, None, None]
        else:
            normal = fix_column_signs(normal)
    return FrameBatch(points, x, jac, jets.hess, q, r, amb, normal)


def normal_component(patch: SubmanifoldPatch, points, vectors,
                     tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """<v, xi> at parameter points of a patch with one normal (k = 1),
    xi the normal `frames_at` builds, read as a ratio of determinants
    with no frame built: (B,).

    vectors(points) gives v (B, m); it is called once every gate has
    passed.  With A = [jac | Dc^T] (m x (m - 1); A = jac over a flat
    ambient), define w by <v, w> = det[jac | v | Dc^T] for every v.
    w is orthogonal to every column of A, so it spans the normal line of
    T M inside T N; |w|^2 = det(A^T A); and det[jac | w/|w| | Dc^T] =
    |w| > 0 is the orientation rule of `frames_at`.  So xi = w/|w| and

        <v, xi> = det[jac | v | Dc^T] / sqrt(det(A^T A)).

    It needs order-1 chart jets and, in a constrained ambient, order-1
    constraint jets.  The gates of `frames_at` run in its order and raise
    its errors at the same points: chart rank (`_rank_gate` on the Gram
    bound of `_gram_rank_bound`), the on-ambient rule and constraint rank
    (its rule, without the kernel basis).  Then a row whose det(A^T A) is
    not positive and finite raises GeometryError: Dc = 0 with one
    constraint, say, where `frames_at` takes an arbitrary kernel basis.
    jac and Dc are each scaled per row by a power of two first (the
    error prints det(A^T A) of the scaled columns); that is exact, the
    ratio is homogeneous of degree 0 in each, and it keeps the
    determinants clear of overflow and underflow.
    """
    if patch.codim != 1:
        raise ValueError(f"normal_component needs one normal, patch has {patch.codim}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jets = patch.chart.eval_jets(points, order=1)
    jac, det_g = _gram_rank_gated(jets.jac, points, tols)
    if patch.ambient.flat:
        dct, det_a = jac[:, :0], det_g
    else:
        cjets = patch.ambient.constraint.eval_jets(jets.value, order=1)
        check_on_ambient(cjets.value, jets.value, points, tols)
        _constraint_rank_gate(np.linalg.svd(cjets.jac, compute_uv=False), points, tols)
        dct = _pow2_scaled(np.ascontiguousarray(cjets.jac.transpose(2, 1, 0)))
        det_a = _det(_gram(np.concatenate([jac, dct], axis=1)))
    bad = ~(np.isfinite(det_a) & (det_a > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise GeometryError(
            f"normal direction is undefined (Gram determinant {det_a[i]:.3e})", points[i])
    v = vectors(points).T[:, None, :]
    return _det(np.concatenate([jac, v, dct], axis=1)) / np.sqrt(det_a)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_constraint_residual: float
    constraint_argmax: tuple | None
    min_jacobian_ratio: float
    jacobian_argmin: tuple | None
    max_tangency_residual: float
    tangency_argmax: tuple | None
    rank_failures: tuple
    messages: tuple

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_constraint_residual": self.max_constraint_residual,
            "constraint_argmax": list(self.constraint_argmax) if self.constraint_argmax else None,
            "min_jacobian_ratio": self.min_jacobian_ratio,
            "jacobian_argmin": list(self.jacobian_argmin) if self.jacobian_argmin else None,
            "max_tangency_residual": self.max_tangency_residual,
            "tangency_argmax": list(self.tangency_argmax) if self.tangency_argmax else None,
            "rank_failures": [list(u) for u in self.rank_failures],
            "messages": list(self.messages),
        }


def validate_patch(patch: SubmanifoldPatch, field=None, resolution=9,
                   tols: Tolerances = DEFAULT_TOLS) -> ValidationReport:
    """Sample a grid and report chart rank, constraint, and field health."""
    grid = patch.domain.grid(resolution)
    jets = patch.chart.eval_jets(grid, order=1)
    svals = np.linalg.svd(jets.jac, compute_uv=False)
    ratios = svals[:, -1] / np.maximum(svals[:, 0], 1e-300)
    i_rank = int(np.argmin(ratios))
    rank_bad = ratios < tols.rank_tol
    failures = tuple(tuple(u) for u in grid[rank_bad][:8])
    messages = []
    if rank_bad.any():
        messages.append(
            f"chart Jacobian rank-deficient at {int(rank_bad.sum())} of {len(grid)} grid points"
        )

    if not patch.ambient.flat:
        cres = _on_ambient_residual(patch.ambient.constraint.eval_values(jets.value), jets.value)
        i_cons = int(np.argmax(cres))
        max_cons = float(cres[i_cons])
        cons_arg = tuple(grid[i_cons])
        if max_cons > tols.on_ambient_tol:
            messages.append(
                f"chart leaves the ambient manifold (max constraint residual {max_cons:.3e})"
            )
    else:
        max_cons, cons_arg = 0.0, None

    max_tan, tan_arg = 0.0, None
    if field is not None:
        ok_rows = ~rank_bad
        if ok_rows.any() and max_cons <= tols.on_ambient_tol:
            pts = grid[ok_rows]
            y = field.values(pts)
            basis = ambient_kernel(patch.ambient, jets.value[ok_rows], pts, tols)[0]
            resid = y - np.einsum("bmd,bd->bm", basis, np.einsum("bmd,bm->bd", basis, y))
            norms = np.linalg.norm(resid, axis=1) / (1.0 + np.linalg.norm(y, axis=1))
            i_t = int(np.argmax(norms))
            max_tan = float(norms[i_t])
            tan_arg = tuple(pts[i_t])
            if max_tan > tols.on_ambient_tol:
                messages.append(
                    f"field is not tangent to the ambient manifold (max residual {max_tan:.3e})"
                )
        else:
            messages.append("field tangency not checked: chart unhealthy on grid")

    ok = not messages
    return ValidationReport(
        ok=ok,
        max_constraint_residual=max_cons,
        constraint_argmax=cons_arg,
        min_jacobian_ratio=float(ratios[i_rank]),
        jacobian_argmin=tuple(grid[i_rank]),
        max_tangency_residual=max_tan,
        tangency_argmax=tan_arg,
        rank_failures=failures,
        messages=tuple(messages),
    )
