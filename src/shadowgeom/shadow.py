"""Shadow sets of a patch relative to an ambient vector field.

The shadow set of (M, Y) collects the points where Y is tangent to M.
With an orthonormal normal frame xi_1..xi_k it is the zero set of the
residual F_j(u) = <Y(x(u)), xi_j(u)>.  On that zero set the parameter
Jacobian has the closed form

    dF_j/du_l = <dY/du_l, xi_j> - sum_p yc_p <xi_j, d2x/du_p du_l>

where yc are the chart coordinates of the tangential part of Y.  The
frame-rotation term <Y_nor, d xi_j> drops out because Y_nor = 0 there,
so the formula is exact at zeros for any smooth choice of frame.  Full
rank of this Jacobian certifies that the shadow set is locally a
submanifold of dimension n - rank.  A field whose type makes dY/du zero
(`FieldAlongM.constant`: a constant field, or a block field of two)
skips the <dY/du_l, xi_j> contraction and adds 0.0 in its place: the
contraction summed into a +0.0 output, so it turned J's -0.0 entries
into +0.0, and Newton's steps read that sign.

Extraction walks a parameter grid.  On curves and surfaces with one
normal direction, one edge scan finds the roots: a zero at a grid node
is keyed by the node, so every edge that reports it gives one point,
and a strict sign change is bisected and keyed by its edge.  Curves
yield those isolated points; on surfaces marching squares pairs the
edge keys inside each cell in one vectorised pass (a four-crossing cell
by the asymptotic decider on its corner values) and chains the segments
into polylines.  `frames_at` orients a single normal continuously, so
there F is one continuous function and the scan, the bisection and the
decider read its raw signs; the bisection takes each bracket's start
sign from the scan.  Everything else goes through damped Gauss-Newton
from grid seeds.  Newton iterates only the active set: a seed is
evaluated again only when its coordinates changed in the previous
iteration and it stayed in the box; every other seed carries the
residual of its last evaluation.  Seeds whose coordinates meet bit for
bit after a step follow one trajectory from then on, so only the one
with the lowest index stays active and the others take its final point,
residual and box membership.

Each F has one evaluator.  The edge route reads F of its one normal as
det[x_u | Y | Dc^T] / sqrt(det(A^T A)), A = [x_u | Dc^T], building no
frame (`geometry.normal_component`); the Newton route and every
reported point read frame F (`shadow_system`).  The two agree up to
rounding.

Every number reported for an extracted point comes from one evaluation
at that exact point, wrapped into the box: the smoothness certificate's
order-2 `shadow_system` call gives the points' residuals max|F|, their
ambient positions and their rank.  A degenerate set, the grid itself,
reports residuals from `shadow_system` too, streamed over the grid, so
every reported F is read off a frame.

Every evaluation over the whole grid, and every Newton iteration, runs
its points through one slicing loop, `_evaluate_slices`, `_slice_rows`
rows at a time.  The grid scan (`_stream_rows`) keeps per row only what
the next step reads: max|F|, and F (B, 1) on the edge route or the
Gauss-Newton step (B, n) on the Newton route, so J exists for one slice
at a time.  Newton takes each later step inside the slice that evaluated
it, so per seed it keeps only u, its residual, its box membership, its
leader and the active index; the gathered rows, the step and the moved
point live for one slice.  The chart points x are kept by no scan (a
degenerate set evaluates its grid's chart values).  A slice's frames are
freed before the next slice is built, so memory follows the grid's point
count and not the size of its frames: traced peaks grow by about 55
bytes a grid row on the edge route (torus_e3, grids 128 to 1024) and 210
on the Newton route (product_spheres, grids 12 to 20).  Every numpy
kernel on this path, `pinv`, the step's clamp, the wrap and the box test
included, works row by row or matrix by matrix, so neither the slicing
nor the merging of met seeds changes a bit of any result; when rows in
two slices are faulty, the fault of the earlier slice is raised, and a
merged seed's leader is the earlier row, so the same one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import second_form_coord, tangent_coords
from .expr import ChartExpr, product_chart
from .fields import BlockField, FieldAlongM
from .geometry import (
    AmbientSpace,
    Box,
    GeometryError,
    SubmanifoldPatch,
    frames_at,
    normal_component,
    rank_ok,
    rank_ratio,
    singular_values,
)
from .reporting import ResidualEntry, TheoremReport, build_report
from .tolerances import DEFAULT_TOLS, Tolerances

__all__ = [
    "ShadowSet",
    "SmoothnessReport",
    "shadow_system",
    "extract_shadow_set",
    "smoothness_certificate",
    "product_patch",
    "product_shadow_check",
]

DEGENERATE_FRACTION = 0.95
_BISECT_TOL = 1e-10
_NEWTON_ITERS = 30
_CHUNK_ROWS = 2048
_SLICE_BYTES = 2**20


# -- residual and Jacobian ---------------------------------------------------


def shadow_system(patch: SubmanifoldPatch, field: FieldAlongM, points,
                  tols: Tolerances = DEFAULT_TOLS):
    """Residual, Jacobian and frames in one pass: (F (B,k), J (B,k,n), frames).

    J is exact where F vanishes and first-order accurate elsewhere.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    frames = frames_at(patch, points, order=2, tols=tols)
    y = field.values(points)
    f = np.einsum("bmj,bm->bj", frames.normal, y)
    coord = second_form_coord(frames)                  # (B, n, n, k)
    jac = -np.einsum("bp,bpla->bal", tangent_coords(frames.jac, y), coord)
    if field.constant:
        # <xi, dY> is zero.  einsum sums it into a +0.0 output, so adding
        # it turned J's -0.0 entries into +0.0; adding 0.0 keeps those bits
        jac += 0.0
    else:
        jac += np.einsum("bma,bml->bal", frames.normal, field.param_jacobian(points))
    return f, jac, frames


def _slice_rows(patch, order):
    """Rows per `_stream_rows` slice: `_CHUNK_ROWS`, or fewer where the
    slice's chart jets, m (1 + n) doubles a row and m n^2 more at order 2,
    would pass `_SLICE_BYTES`."""
    n = patch.n
    row_bytes = 8 * patch.m * (1 + n + (n * n if order == 2 else 0))
    return max(1, min(_CHUNK_ROWS, _SLICE_BYTES // row_bytes))


def _spans(total, size):
    """Consecutive slices of at most `size` rows over `total` rows: the one
    slicing loop of the grid scan and of Newton."""
    return (slice(start, start + size) for start in range(0, total, size))


def _evaluate_slices(patch, field, points, tols, order, index=None):
    """Per slice of `_slice_rows` rows of `points`, or of `points[index]`:
    (rows, max|F| (b,), tail), where rows is the slice, or the slice of
    `index`, that selects them.  tail is F (b, k) at order 1 or, at order
    2, the Gauss-Newton step -pinv(J) F (b, n) of every row whose max|F|
    exceeds extract_tol (zero on the others).

    Order 1, for patches with one normal, goes through
    `geometry.normal_component` (the determinant form, which builds no
    frame), order 2 through `shadow_system`.  Only the slice's own rows
    are gathered, and J lives only inside its slice; `pinv` and the step's
    einsum work matrix by matrix, so a row's step does not depend on its
    slice.
    """
    total = points.shape[0] if index is None else index.size
    for span in _spans(total, _slice_rows(patch, order)):
        rows = span if index is None else index[span]
        pts = points[rows]
        if order == 2:
            f, jac = shadow_system(patch, field, pts, tols)[:2]  # frames freed here
            mag = np.max(np.abs(f), axis=1)
            move = mag > tols.extract_tol
            tail = np.zeros((pts.shape[0], patch.n))
            pinv = np.linalg.pinv(jac[move], rcond=1e-10)
            tail[move] = -np.einsum("bnk,bk->bn", pinv, f[move])
        else:
            tail = normal_component(patch, pts, field.values, tols)[:, None]
            mag = np.max(np.abs(tail), axis=1)
        yield rows, mag, tail


def _stream_rows(patch, field, points, tols, order):
    """max|F| per row (B,) and the tail (B, k) or (B, n) of
    `_evaluate_slices`, stacked over all of `points`."""
    mag, tail = np.empty(points.shape[0]), None
    for rows, m, t in _evaluate_slices(patch, field, points, tols, order):
        if tail is None:
            tail = np.empty((points.shape[0], t.shape[1]))
        mag[rows], tail[rows] = m, t
    return mag, tail


# -- extraction --------------------------------------------------------------


@dataclass(frozen=True)
class ShadowSet:
    """Extracted shadow set in parameter space.

    `polylines` holds index tuples into `params` for chained crossing
    curves (surface patches with one normal direction); other routes
    leave it empty.  A degenerate set (residual below tolerance on
    nearly every grid node and cell centre) is materialized as the grid
    itself.
    `certificate` is the smoothness certificate of the extracted points,
    None for a degenerate or empty set; `as_dict` reports its min_ratio
    and ok as `rank_ratio` and `rank_ok`, an empty set's max_residual as null.
    """

    params: np.ndarray
    ambient: np.ndarray
    residuals: np.ndarray
    polylines: tuple
    degenerate: bool
    degenerate_fraction: float
    resolution: tuple
    certificate: SmoothnessReport | None
    dropped_seeds: int = 0

    @property
    def n_points(self) -> int:
        return int(self.params.shape[0])

    @property
    def n_components(self):
        if self.degenerate:
            return 1
        if self.polylines:
            return len(self.polylines)
        return self.n_points

    def as_dict(self) -> dict:
        cert = self.certificate
        d = {
            "points": self.n_points,
            "n_components": self.n_components,
            "degenerate": self.degenerate,
            "degenerate_fraction": self.degenerate_fraction,
            "resolution": list(self.resolution),
            "max_residual": float(self.residuals.max()) if self.n_points else None,
            "rank_ratio": None if cert is None else cert.min_ratio,
            "rank_ok": None if cert is None else cert.ok,
            "dropped_seeds": self.dropped_seeds,
        }
        if self.degenerate:
            d["set_equals_patch"] = True
        if cert is not None:
            d["certificate"] = cert
        return d


def _sign(values):
    return np.where(values < 0.0, -1.0, 1.0)


def _classify_edges(f, axis, periodic, ztol):
    """Start residuals fa of every grid edge along `axis`, and the edges
    split into strict sign changes and single-vertex zeros.

    sign(0) has to pick a side, so a root sitting on a grid node defeats
    a plain sign test; node zeros are classified separately and taken as
    roots as-is.  Returns (fa, strict, vertex, za).
    """
    fa, fb = f, np.roll(f, -1, axis=axis)
    if not periodic:  # the last node along a walled axis starts no edge
        last = f.shape[axis] - 1
        fa, fb = np.delete(fa, last, axis=axis), np.delete(fb, last, axis=axis)
    za = np.abs(fa) <= ztol
    zb = np.abs(fb) <= ztol
    return fa, ~za & ~zb & (fa * fb < 0.0), za ^ zb, za


def _bisect(patch, field, a_pts, b_pts, s_lo, tols):
    """Roots of the scalar residual F on segments [a, b], batched; s_lo is
    the sign of F at each a, which the grid scan has already evaluated."""
    lo = np.array(a_pts, dtype=float)
    hi = np.array(b_pts, dtype=float)
    for _ in range(64):
        if float(np.max(np.linalg.norm(hi - lo, axis=1))) <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        same = _sign(normal_component(patch, mid, field.values, tols)) == s_lo
        lo = np.where(same[:, None], mid, lo)
        hi = np.where(same[:, None], hi, mid)
    return 0.5 * (lo + hi)


def _edge_roots(patch, field, f, grid, res, tols):
    """Roots of F (on the scan's grid) on every grid edge of a curve or
    surface patch (k = 1).

    Returns (points, ids); ids maps each edge key (axis, *start) that
    reports a root to that root's point id.  A zero at a grid node is
    keyed by the node (its index taken mod res on a periodic axis), so
    every edge that reports it maps to one point, with the coordinates of
    the first edge to report it.  A strict sign change is bisected and
    keyed by its own edge.  Node points come first, then bisected points,
    each in axis-then-edge order.  A zero node that no edge reports, its
    neighbours all being zeros too (as at grid 2 when both nodes of an
    axis are zeros), follows the node points, keyed by no edge.
    """
    box = patch.domain
    shape = tuple(res)
    ff = f[:, 0].reshape(shape)
    starts = grid.reshape(shape + (box.n,))
    node_keys, node_of, node_pts = [], [], []
    bis_keys, bis_a, bis_b, bis_s = [], [], [], []
    for axis, h in enumerate(box.cell_sizes(res)):
        fa, strict, vertex, za = _classify_edges(ff, axis, box.periodic[axis],
                                                 tols.extract_tol)
        off = np.zeros(box.n)
        off[axis] = h
        idx = np.nonzero(vertex)
        at_a = za[idx]
        ends = np.array(idx)
        ends[axis] = (ends[axis] + ~at_a) % shape[axis]
        node_keys += [(axis, *s) for s in np.transpose(idx).tolist()]
        node_of.append(np.ravel_multi_index(ends, shape))
        node_pts.append(np.where(at_a[:, None], starts[idx], starts[idx] + off))
        idx = np.nonzero(strict)
        bis_keys += [(axis, *s) for s in np.transpose(idx).tolist()]
        bis_a.append(starts[idx])
        bis_b.append(starts[idx] + off)
        bis_s.append(_sign(fa[idx]))

    reported, first, inverse = np.unique(np.concatenate(node_of), return_index=True,
                                         return_inverse=True)
    rank = np.argsort(np.argsort(first))  # node -> point id, by first report
    ids = dict(zip(node_keys, rank[inverse].tolist()))
    keep = np.sort(first)
    # a zero node whose neighbours are all zeros starts or ends no
    # single-zero edge; it is a point of its own, keyed by no edge
    lone = np.setdiff1d(np.flatnonzero(np.abs(ff) <= tols.extract_tol), reported,
                        assume_unique=True)
    pts = [np.concatenate(node_pts)[keep], starts.reshape(-1, box.n)[lone]]
    if bis_keys:
        first_id = keep.size + lone.size
        ids.update(zip(bis_keys, range(first_id, first_id + len(bis_keys))))
        pts.append(_bisect(patch, field, np.concatenate(bis_a), np.concatenate(bis_b),
                           np.concatenate(bis_s), tols))
    return box.wrap(np.concatenate(pts)), ids


def _march_cells(point_ids, saddle_fn, res, periodic):
    """Pair edge crossings inside each grid cell into segments.

    point_ids maps an edge key (axis, i, j) to its crossing's point id.
    A cell's sides, in order, are the axis-0 edges at columns j and j + 1
    and the axis-1 edges at rows i and i + 1.  Two crossings pair up in
    side order; four (a saddle) are paired by `saddle_fn`, which gets the
    saddle cells in row-major order and says per cell whether corners
    (i, j) and (i + 1, j + 1) connect; other counts give no segment.
    """
    r0, r1 = res
    c0 = r0 if periodic[0] else r0 - 1
    c1 = r1 if periodic[1] else r1 - 1
    # one id table with a last row and column that repeat the first (read
    # only across a periodic seam), so every side is a view of it
    ids = np.full((2, r0 + 1, r1 + 1), -1, dtype=np.int64)
    for (axis, i, j), pid in point_ids.items():
        ids[axis, i, j] = pid
    ids[:, r0] = ids[:, 0]
    ids[:, :, r1] = ids[:, :, 0]
    sides = (ids[0, :c0, :c1], ids[0, :c0, 1:c1 + 1], ids[1, :c0, :c1], ids[1, 1:c0 + 1, :c1])
    hits = np.zeros((c0, c1), dtype=np.int8)
    for side in sides:
        hits += side >= 0
    two = hits == 2
    pairs = np.stack([side[two] for side in sides], axis=1)  # (cells, 4), row-major
    pairs = pairs[pairs >= 0].reshape(-1, 2)
    saddle_i, saddle_j = np.nonzero(hits == 4)
    if saddle_i.size:
        cells = list(zip(saddle_i.tolist(), saddle_j.tolist()))
        through = np.asarray(saddle_fn(cells), dtype=bool)
        a0, a1, b0, b1 = (side[saddle_i, saddle_j] for side in sides)
        # per cell (a0, b1), (b0, a1) when `through`, else (a0, b0), (a1, b1)
        quads = np.stack([a0, np.where(through, b1, b0),
                          np.where(through, b0, a1), np.where(through, a1, b1)], axis=1)
        pairs = np.vstack([pairs, quads.reshape(-1, 2)])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return [tuple(p) for p in pairs.tolist()]


def _chain(segments, n_points):
    """Chain unordered segments into polylines; deterministic order."""
    neighbors = [[] for _ in range(n_points)]
    for a, b in sorted(segments):
        neighbors[a].append(b)
        neighbors[b].append(a)
    for lst in neighbors:
        lst.sort()
    used = set()
    lines = []

    def walk(start):
        line = [start]
        prev = -1
        cur = start
        while True:
            nxt = [x for x in neighbors[cur] if x != prev and (min(cur, x), max(cur, x)) not in used]
            if not nxt:
                break
            step = nxt[0]
            used.add((min(cur, step), max(cur, step)))
            line.append(step)
            prev, cur = cur, step
            if cur == start:
                break
        return line

    degree = [len(lst) for lst in neighbors]
    for start in range(n_points):
        if degree[start] == 1 and all(
            (min(start, x), max(start, x)) in used for x in neighbors[start]
        ):
            continue
        if degree[start] == 1:
            lines.append(tuple(walk(start)))
    for start in range(n_points):
        if neighbors[start] and any(
            (min(start, x), max(start, x)) not in used for x in neighbors[start]
        ):
            lines.append(tuple(walk(start)))
    return tuple(lines)


def _extract_marching(patch, field, f, grid, res, tols):
    """Edge roots of a surface patch, paired per cell and chained."""
    pts, ids = _edge_roots(patch, field, f, grid, res, tols)
    ff = f[:, 0].reshape(res)

    def corners_connect(cells):
        # asymptotic decider (Nielson & Hamann 1991): corners (i, j) and
        # (i + 1, j + 1) connect when the bilinear interpolant's saddle value
        # (f00 f11 - f01 f10) / (f00 + f11 - f01 - f10) has the sign of f00,
        # taken as the product of the two signs
        i, j = np.array(cells).T
        i1, j1 = (i + 1) % res[0], (j + 1) % res[1]
        f00, f01, f10, f11 = ff[i, j], ff[i, j1], ff[i1, j], ff[i1, j1]
        saddle = _sign(f00 * f11 - f01 * f10) * _sign(f00 + f11 - f01 - f10)
        return saddle == _sign(f00)

    segments = _march_cells(ids, corners_connect, res, patch.domain.periodic)
    return pts, _chain(segments, pts.shape[0])


def _dedup(box: Box, points, radius):
    if points.shape[0] == 0:
        return points
    pts = points[np.lexsort(points.T[::-1])]
    scale = max(radius, 1e-300)
    bins = np.floor((pts - box.lo) / scale).astype(np.int64)
    # the first point of every bin: a stable sort by bin, then the start
    # of each run of equal bins
    by_bin = np.lexsort(bins.T[::-1])
    starts = np.zeros(by_bin.size, dtype=bool)
    starts[0] = True
    for col in bins.T:
        col = col[by_bin]
        starts[1:] |= col[1:] != col[:-1]
    keep_pts: list[np.ndarray] = []
    for p in pts[np.sort(by_bin[starts])]:
        if keep_pts and bool(np.any(box.param_distance(np.array(keep_pts), p) < radius)):
            continue
        keep_pts.append(p)
    return np.array(keep_pts).reshape(-1, box.n)


def _merge_met(u, active, leader):
    """`active` (ascending) less every row whose `u` equals, bit for bit,
    that of an active row with a lower index; `leader` maps each dropped
    row to the lowest of them.  One stable lexsort over the rows' bits
    puts equal rows next to each other, lowest index first; the rows are
    gathered again in that order, so one copy of them is alive at a time."""
    order = np.lexsort(u[active].view(np.int64).T)
    bits = u[active[order]].view(np.int64)
    met = np.zeros(order.size, dtype=bool)
    met[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    if not met.any():
        return active
    first = np.maximum.accumulate(np.where(met, 0, np.arange(order.size)))
    leader[active[order[met]]] = active[order[first[met]]]
    return np.sort(active[order[~met]])


def _extract_newton(patch, field, grid, res, tols, mag, step):
    """Damped Gauss-Newton from every grid seed; returns (points, dropped
    seeds).

    `mag` and `step` are max|F| and the Gauss-Newton step of the grid
    scan, so the first step evaluates nothing.  Each later pass evaluates
    its rows through `_evaluate_slices`, so no pass holds more than one
    slice of frames or Jacobians.

    Per seed the loop keeps only `u`, its residual, its box membership,
    its leader and the active index.  Each step is taken inside the slice
    that evaluated it (in the first pass, inside the same slices of the
    scan's arrays), so the gathered rows, max|F|, the step, its clamp, the
    wrap, the box test and the moved flags live for one slice at a time;
    each of them reads only its own row, so the slicing moves no bit.

    Only the active rows, those whose coordinates changed bit for bit in
    the previous iteration and are still inside the padded box, are
    evaluated again.  A row whose `u` did not change would get
    the same F and the same step again (a zero step where the Jacobian is
    singular, or one below an ulp), so it keeps the residual of its last
    evaluation instead.  Rows whose `u` is equal bit for bit after a step
    get the same F and step from then on, so only the lowest of them stays
    active (`_merge_met`, once a pass over the whole active set); at the
    end each of the others takes the final `u`, residual and box
    membership of that leader.  The loop makes `_NEWTON_ITERS` steps and
    one pass more, which evaluates the rows still active and takes no
    step, so every carried residual is that of the row's final `u`.  The
    residuals only decide which rows are kept; the reported ones come from
    the certificate.
    """
    box = patch.domain
    cell = np.array(box.cell_sizes(res))
    diag = float(np.linalg.norm(cell))
    pad = float(cell.max())
    u = grid.copy()
    alive = np.ones(u.shape[0], dtype=bool)
    resid = np.empty(u.shape[0])
    active = np.arange(u.shape[0])
    leader = active.copy()
    passes = ((active[s], mag[s], step[s])
              for s in _spans(active.size, _slice_rows(patch, 2)))
    for it in range(_NEWTON_ITERS + 1):
        if it:
            passes = _evaluate_slices(patch, field, u, tols, 2, active)
        kept = []
        for rows, row_mag, row_step in passes:
            resid[rows] = row_mag
            move = row_mag > tols.extract_tol
            if it == _NEWTON_ITERS:
                continue  # the last pass only records residuals
            rows, row_step = rows[move], row_step[move]
            norms = np.linalg.norm(row_step, axis=1)
            row_step *= np.minimum(1.0, diag / np.maximum(norms, 1e-300))[:, None]
            old = u[rows]
            new = box.wrap(old + row_step)
            u[rows] = new
            inside = box.contains(new, pad=pad)
            alive[rows] = inside
            moved = np.any(new.view(np.int64) != old.view(np.int64), axis=1)
            kept.append(rows[moved & inside])
        if it == _NEWTON_ITERS:
            break
        active = _merge_met(u, np.concatenate(kept), leader)
        if not active.size:
            break
    # a leader may itself have met a row of a lower index later on
    while not np.array_equal(leader[leader], leader):
        leader = leader[leader]
    u = u[leader[alive[leader] & (resid[leader] <= tols.extract_tol)]]
    u = u[box.contains(u, pad=1e-9)]
    return _dedup(box, u, 0.5 * diag), int(grid.shape[0] - u.shape[0])


def _cell_centres(box: Box, grid, res):
    """Centres of the grid cells, (prod(cells), n): every node of `grid`
    shifted by half a cell, less the last node of each walled axis."""
    cells = tuple(r if per else r - 1 for r, per in zip(res, box.periodic))
    nodes = grid.reshape(res + (box.n,))[tuple(slice(c) for c in cells)]
    return nodes.reshape(-1, box.n) + 0.5 * np.array(box.cell_sizes(res))


def extract_shadow_set(patch: SubmanifoldPatch, field: FieldAlongM,
                       resolution=64, tols: Tolerances = DEFAULT_TOLS) -> ShadowSet:
    """Locate the zero set of F on the chart domain.

    A grid scan (`resolution` nodes an axis, 64 by default) decides
    degeneracy first: F must vanish on at least DEGENERATE_FRACTION of
    the nodes and of the cell centres, since a coarse grid can sit on
    zeros of a thin set.  Otherwise zeros are pinned by bisection
    (curves and surface level sets) or damped Gauss-Newton (higher
    codimension); the certificate's evaluation at the extracted points
    also gives their residuals and positions.
    """
    box = patch.domain
    res = box._res_tuple(resolution)
    grid = box.grid(res)
    edges = patch.codim == 1 and patch.n in (1, 2)
    # the edge scan reads F as a ratio of determinants and builds no frame;
    # Newton's first step is taken in this scan, from order-2 frames
    order = 1 if edges else 2
    flat_mag, tail = _stream_rows(patch, field, grid, tols, order)
    frac = float(np.mean(flat_mag < tols.extract_tol))

    if frac >= DEGENERATE_FRACTION:
        centre_mag, _ = _stream_rows(patch, field, _cell_centres(box, grid, res), tols, order)
        if np.mean(centre_mag < tols.extract_tol) >= DEGENERATE_FRACTION:
            # reported residuals are read off frames, as the certificate's
            # are; the Newton route's scan already did
            resid = _stream_rows(patch, field, grid, tols, order=2)[0] if edges else flat_mag
            return ShadowSet(
                params=grid,
                ambient=patch.chart.eval_values(grid),
                residuals=resid,
                polylines=(),
                degenerate=True,
                degenerate_fraction=frac,
                resolution=res,
                certificate=None,
            )

    dropped, lines = 0, ()
    if edges and patch.n == 1:
        pts = _edge_roots(patch, field, tail, grid, res, tols)[0]
    elif edges:
        pts, lines = _extract_marching(patch, field, tail, grid, res, tols)
    else:
        pts, dropped = _extract_newton(patch, field, grid, res, tols, flat_mag, tail)

    cert = smoothness_certificate(patch, field, pts, tols) if pts.shape[0] else None
    return ShadowSet(
        params=pts,
        ambient=np.zeros((0, patch.m)) if cert is None else cert.ambient,
        residuals=np.zeros(0) if cert is None else cert.residuals,
        polylines=lines,
        degenerate=False,
        degenerate_fraction=frac,
        resolution=res,
        certificate=cert,
        dropped_seeds=dropped,
    )


# -- smoothness certificate --------------------------------------------------


@dataclass(frozen=True)
class SmoothnessReport:
    """Per-point Jacobian conditioning over a set of shadow points.

    `ratios` holds `geometry.rank_ratio` per point; `flags` marks the
    points that pass `geometry.rank_ok`; `ok` means all of them do.
    `residuals` (max|F|) and `ambient` (the chart images x(u)) come from
    the same evaluation as the Jacobian.
    """

    ratios: np.ndarray
    flags: np.ndarray
    sigma_min: np.ndarray
    min_ratio: float
    argmin: np.ndarray
    ok: bool
    n_points: int
    expected_dim: int
    residuals: np.ndarray
    ambient: np.ndarray

    def as_dict(self) -> dict:
        return {
            "min_ratio": self.min_ratio,
            "argmin": list(np.asarray(self.argmin, dtype=float)),
            "ok": self.ok,
            "n_certified": int(np.count_nonzero(self.flags)),
            "n_points": self.n_points,
            "expected_dim": self.expected_dim,
        }


def smoothness_certificate(patch: SubmanifoldPatch, field: FieldAlongM, points,
                           tols: Tolerances = DEFAULT_TOLS) -> SmoothnessReport:
    """Full-rank check of the shadow Jacobian at given zero-set points.

    `geometry.rank_ok` at every point certifies the set as a submanifold
    of dimension n - min(k, n) near those points; a non-finite row fails.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise GeometryError("no points to certify")
    f, jac, frames = shadow_system(patch, field, points, tols)
    svals = singular_values(jac)
    ratios = rank_ratio(svals)
    flags = rank_ok(svals, tols)
    i = int(np.argmin(ratios))
    rank = min(jac.shape[1], jac.shape[2])
    return SmoothnessReport(
        ratios=ratios,
        flags=flags,
        sigma_min=svals[:, -1],
        min_ratio=float(ratios[i]),
        argmin=points[i],
        ok=bool(flags.all()),
        n_points=points.shape[0],
        expected_dim=patch.n - rank,
        residuals=np.max(np.abs(f), axis=1),
        ambient=frames.x,
    )


# -- products ----------------------------------------------------------------


def _product_ambient(a: AmbientSpace, b: AmbientSpace) -> AmbientSpace:
    m = a.dim + b.dim
    if a.flat and b.flat:
        return AmbientSpace(m, None)
    charts = (ChartExpr(tuple(f"x{i + 1}" for i in range(s.dim)), ()) if s.flat
              else s.constraint for s in (a, b))
    return AmbientSpace(m, product_chart(*charts))


def product_patch(a: SubmanifoldPatch, b: SubmanifoldPatch) -> SubmanifoldPatch:
    """Block patch of a Cartesian product, constraints stacked."""
    chart = product_chart(a.chart, b.chart)
    box = Box(a.domain.lo + b.domain.lo, a.domain.hi + b.domain.hi,
              a.domain.periodic + b.domain.periodic)
    return SubmanifoldPatch(chart, box, _product_ambient(a.ambient, b.ambient),
                            name=f"{a.name}x{b.name}")


def _pair_grid(pts_a, pts_b):
    return np.hstack([np.repeat(pts_a, pts_b.shape[0], axis=0),
                      np.tile(pts_b, (pts_a.shape[0], 1))])


def _hausdorff(box: Box, a, b):
    if a.shape[0] == 0 and b.shape[0] == 0:
        return 0.0
    if a.shape[0] == 0 or b.shape[0] == 0:
        return float("inf")
    d = box.param_distance(a[:, None, :], b[None, :, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def product_shadow_check(patch_a: SubmanifoldPatch, field_a: FieldAlongM,
                         patch_b: SubmanifoldPatch, field_b: FieldAlongM,
                         resolution=12,
                         tols: Tolerances = DEFAULT_TOLS) -> TheoremReport:
    """Shadow set of a product vs product of factor shadow sets.

    Both are point clouds in product parameter space; agreement means
    symmetric Hausdorff distance under one grid-cell diagonal.  A
    degenerate factor contributes its whole grid.
    """
    prod = product_patch(patch_a, patch_b)
    pf = BlockField(field_a, field_b, patch_a.n, patch_a.m)

    direct = extract_shadow_set(prod, pf, resolution, tols)
    sa = extract_shadow_set(patch_a, field_a, resolution, tols)
    sb = extract_shadow_set(patch_b, field_b, resolution, tols)
    reference = _pair_grid(sa.params, sb.params)

    res = prod.domain._res_tuple(resolution)
    cell_diag = float(np.linalg.norm(prod.domain.cell_sizes(res)))
    gap = _hausdorff(prod.domain, direct.params, reference)

    # an extraction that kept no point is no evidence against a side that
    # kept some: its NaN makes the entry ambiguous (np.max, unlike max,
    # returns NaN in any position); two empty sides agree
    empty = np.nan if (direct.n_points == 0) != (reference.shape[0] == 0) else 0.0
    residuals = [0.0] + [s.residuals.max() if s.n_points else empty
                         for s in (direct, sa, sb) if not s.degenerate]
    hyp = [ResidualEntry("extraction-residual", float(np.max(residuals)),
                         tols.extract_tol * 10.0, 1e-3)]
    concl = [ResidualEntry("hausdorff-gap", gap, cell_diag, 2.0 * cell_diag)]
    return build_report(
        "product-shadow",
        prod.name,
        hypotheses=hyp,
        conclusions=concl,
        details={
            "n_direct": direct.n_points,
            "n_reference": int(reference.shape[0]),
            "cell_diagonal": cell_diag,
            "direct_degenerate": direct.degenerate,
            "factor_degenerate": [sa.degenerate, sb.degenerate],
        },
    )
