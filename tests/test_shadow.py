import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from shadowgeom import geometry, shadow
from shadowgeom.cli import SCENES_DIR, _root_setup, find_scene
from shadowgeom.expr import parse_chart
from shadowgeom.fields import ConstantField, ExprField
from shadowgeom.geometry import (
    AmbientSpace,
    Box,
    ChartRankError,
    GeometryError,
    OffAmbientError,
    SubmanifoldPatch,
    frames_at,
    validate_patch,
)
from shadowgeom.scene import load_scene
from shadowgeom.shadow import (
    extract_shadow_set,
    product_field,
    product_patch,
    product_shadow_check,
    shadow_system,
    shadow_values,
    smoothness_certificate,
)
from shadowgeom.tolerances import DEFAULT_TOLS

import shapes
from oracles import shadow_jacobian_consistency

E1 = ConstantField([1.0, 0.0, 0.0])
E2 = ConstantField([0.0, 1.0, 0.0])
E3 = ConstantField([0.0, 0.0, 1.0])


# -- residual values -----------------------------------------------------------


def test_sphere_residual_is_cos_theta():
    sp = shapes.sphere()
    pts = sp.domain.grid(9)
    f = shadow_values(sp, E3, pts)
    assert f.shape == (81, 1)
    # single normal is +-(position vector), so |F| = |cos theta|
    np.testing.assert_allclose(np.abs(f[:, 0]), np.abs(np.cos(pts[:, 0])), atol=1e-12)


def test_cylinder_axis_field_residual_vanishes():
    cy = shapes.cylinder()
    f = shadow_values(cy, E3, cy.domain.grid(8))
    np.testing.assert_allclose(f, 0.0, atol=1e-14)


def test_shadow_residual_bundle():
    pl = shapes.plane()
    f, jac, _ = shadow_system(pl, E3, [[0.3, -0.4]])
    assert abs(abs(f[0, 0]) - 1.0) < 1e-12
    assert np.abs(f[0]).max() >= DEFAULT_TOLS.extract_tol
    np.testing.assert_allclose(jac[0], 0.0, atol=1e-14)

    cy = shapes.cylinder()
    f, _, _ = shadow_system(cy, E3, [[1.0, 0.3]])
    assert np.abs(f[0]).max() < DEFAULT_TOLS.extract_tol


def test_sphere_jacobian_closed_form_at_equator():
    sp = shapes.sphere()
    _, jac, _ = shadow_system(sp, E3, np.array([[np.pi / 2, 1.1]]))
    # F = +-cos theta, so |dF/dtheta| = 1 and dF/dphi = 0 on the equator
    np.testing.assert_allclose(np.abs(jac[0]), [[1.0, 0.0]], atol=1e-12)


# -- Jacobian consistency ------------------------------------------------------


def test_jacobian_consistency_sphere_equator():
    sp = shapes.sphere()
    pts = np.stack([np.full(16, np.pi / 2), np.linspace(0, 2 * np.pi, 16, endpoint=False)], axis=1)
    diff, _ = shadow_jacobian_consistency(sp, E3, pts)
    assert diff < 1e-5


def test_jacobian_consistency_plane_tilted_field():
    pl = shapes.plane()
    tilted = ConstantField(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    diff, _ = shadow_jacobian_consistency(pl, tilted, pl.domain.grid(5))
    assert diff < 1e-11


def test_jacobian_consistency_torus_full_grid():
    # exact for a single unit normal even off the zero set
    to = shapes.torus()
    diff, _ = shadow_jacobian_consistency(to, E3, to.domain.grid(32))
    assert diff < 1e-5


# -- extraction: curves on surfaces --------------------------------------------


def test_extract_sphere_equator():
    sp = shapes.sphere()
    s = extract_shadow_set(sp, E3, 64)
    assert not s.degenerate
    assert s.n_points == 64
    assert len(s.polylines) == 1
    line = s.polylines[0]
    assert line[0] == line[-1] and len(line) == 65
    np.testing.assert_allclose(s.params[:, 0], np.pi / 2, atol=1e-9)
    assert np.max(np.abs(s.ambient[:, 2])) < 1e-9
    assert np.all(s.residuals < 1e-8)
    assert s.certificate.ok


def test_extract_torus_two_circles():
    to = shapes.torus()
    s = extract_shadow_set(to, E3, 64)
    assert s.n_components == 2
    for line in s.polylines:
        assert line[0] == line[-1]
    tvals = s.params[:, 0]
    dist = np.minimum(np.abs(tvals), np.abs(tvals - np.pi))
    dist = np.minimum(dist, np.abs(tvals - 2 * np.pi))
    assert np.max(dist) < 1e-8
    assert s.n_points == 128
    cert = smoothness_certificate(to, E3, s.params)
    assert cert.ok and bool(cert.flags.all())


def test_extract_circle_two_points():
    c = shapes.circle2()
    s = extract_shadow_set(c, ConstantField([0.0, 1.0]), 64)
    assert s.n_points == 2
    xs = np.sort(s.ambient[:, 0])
    np.testing.assert_allclose(xs, [-1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(s.ambient[:, 1], 0.0, atol=1e-9)


def test_extract_cylinder_degenerate():
    cy = shapes.cylinder()
    s = extract_shadow_set(cy, E3, 32)
    assert s.degenerate
    assert s.degenerate_fraction == 1.0
    assert s.n_points == 32 * 32
    assert s.certificate is None
    d = s.as_dict()
    assert d["degenerate"] and d["n_components"] == 1


def test_extract_plane_empty():
    s = extract_shadow_set(shapes.plane(), E3, 32)
    assert s.n_points == 0
    assert not s.degenerate
    assert s.polylines == ()


def test_extract_saddle_line():
    sa = shapes.saddle()
    s = extract_shadow_set(sa, E1, 48)
    # normal ~ (-a v, -a u, 1): e1-component zero exactly on v = 0
    assert s.n_points == 48
    np.testing.assert_allclose(s.params[:, 1], 0.0, atol=1e-9)
    assert len(s.polylines) == 1
    line = s.polylines[0]
    assert line[0] != line[-1]  # open chain, domain is not periodic


def test_extract_cylinder_sideways_two_rulings():
    cy = shapes.cylinder()
    s = extract_shadow_set(cy, E1, 64)
    assert s.n_components == 2
    uvals = np.unique(np.round(s.params[:, 0], 8))
    np.testing.assert_allclose(uvals, [np.pi / 2, 3 * np.pi / 2], atol=1e-8)


def test_polyline_neighbors_within_cell():
    to = shapes.torus()
    res = 64
    s = extract_shadow_set(to, E3, res)
    diag = np.linalg.norm(to.domain.cell_sizes(res))
    for line in s.polylines:
        pts = s.params[list(line)]
        gaps = to.domain.param_distance(pts[1:], pts[:-1])
        assert np.max(gaps) <= diag + 1e-12


def test_polyline_orthogonal_to_gradient():
    # level-curve tangent vs residual gradient: within 2 degrees of square
    for patch, field in ((shapes.sphere(), E3), (shapes.torus(), E3)):
        s = extract_shadow_set(patch, field, 48)
        _, jac, _ = shadow_system(patch, field, s.params)
        grad = jac[:, 0, :]
        box = patch.domain
        span = np.array(box.hi) - np.array(box.lo)
        for line in s.polylines:
            idx = np.array(line)
            d = s.params[idx[1:]] - s.params[idx[:-1]]
            for i, per in enumerate(box.periodic):
                if per:
                    d[:, i] = (d[:, i] + 0.5 * span[i]) % span[i] - 0.5 * span[i]
            g = grad[idx[:-1]]
            cosang = np.abs(np.einsum("bn,bn->b", d, g))
            cosang /= np.linalg.norm(d, axis=1) * np.linalg.norm(g, axis=1)
            assert np.max(cosang) < np.sin(np.radians(2.0))


def test_extract_deterministic():
    to = shapes.torus()
    a = extract_shadow_set(to, E3, 48)
    b = extract_shadow_set(to, E3, 48)
    assert np.array_equal(a.params, b.params)
    assert a.polylines == b.polylines


# -- extraction: Newton route --------------------------------------------------


def test_newton_circle_in_r3():
    c3 = shapes.circle3()
    s = extract_shadow_set(c3, E2, 64)
    assert s.n_points == 2
    us = np.sort(s.params[:, 0])
    np.testing.assert_allclose(us, [0.0, np.pi], atol=1e-9)
    assert np.all(s.residuals <= 1e-8)
    cert = smoothness_certificate(c3, E2, s.params)
    assert cert.ok
    assert cert.expected_dim == 0


def test_newton_empty_when_never_tangent():
    c3 = shapes.circle3()
    s = extract_shadow_set(c3, E3, 48)
    assert s.n_points == 0
    assert s.dropped_seeds == 48


def test_equator_in_sphere_ambient_empty():
    eq = shapes.circle3(ambient=shapes.sphere_ambient())
    s = extract_shadow_set(eq, E3, 48)
    assert s.n_points == 0 and not s.degenerate


def test_meridian_in_sphere_ambient_degenerate():
    me = shapes.meridian_circle()
    s = extract_shadow_set(me, E3, 48)
    assert s.degenerate


# -- certificates ---------------------------------------------------------------


def test_certificate_rank_deficient_case():
    pl = shapes.plane()
    cert = smoothness_certificate(pl, E1, np.array([[0.1, 0.2], [0.0, 0.0]]))
    assert not cert.ok
    assert cert.min_ratio == 0.0


def test_certificate_reads_the_rank_rule_of_the_chart_gates(monkeypatch):
    # sigma_min = rank_tol * sigma_max passes, as it does in the chart gate;
    # a Jacobian row with a NaN entry reads ratio 0 and is flagged singular
    # instead of sending LAPACK a matrix it cannot decompose
    tol = DEFAULT_TOLS.rank_tol
    real = shadow.shadow_system
    rows = {"tie": np.diag([1.0, tol]), "nan": np.array([[np.nan, 0.0], [0.0, 1.0]])}
    pts = np.array([[1.0, 0.5], [1.2, 0.7]])

    def certify(*kinds):
        def system(patch, field, points, tols):
            frames = real(patch, field, points, tols)[2]
            return np.zeros((2, 2)), np.array([rows[k] for k in kinds]), frames

        monkeypatch.setattr(shadow, "shadow_system", system)
        return smoothness_certificate(shapes.sphere(), E3, pts)

    cert = certify("tie", "tie")
    assert cert.flags.tolist() == [True, True] and cert.ok
    assert cert.min_ratio == tol
    cert = certify("tie", "nan")
    assert cert.flags.tolist() == [True, False] and not cert.ok
    assert cert.ratios.tolist() == [tol, 0.0]
    assert cert.min_ratio == 0.0 and cert.argmin.tolist() == pts[1].tolist()
    assert np.isnan(cert.sigma_min[1])


def test_certificate_empty_raises():
    with pytest.raises(GeometryError):
        smoothness_certificate(shapes.plane(), E1, np.zeros((0, 2)))


# -- products -------------------------------------------------------------------


def test_product_circles_in_r4():
    c = shapes.circle2()
    y = ConstantField([0.0, 1.0])
    rep = product_shadow_check(c, y, shapes.circle2(), y, resolution=24)
    assert rep.verdict == "confirmed"
    assert rep.details["n_direct"] == 4
    assert rep.details["n_reference"] == 4
    assert rep.conclusions[0].label == "hausdorff-gap"
    assert rep.conclusions[0].value < rep.details["cell_diagonal"]


def test_product_tori_in_spheres_full():
    me = shapes.meridian_circle()
    zero = ConstantField([0.0, 0.0, 0.0])
    rep = product_shadow_check(me, E3, shapes.meridian_circle(), zero, resolution=16)
    assert rep.verdict == "confirmed"
    assert rep.details["direct_degenerate"]
    assert rep.details["factor_degenerate"] == [True, True]
    assert rep.conclusions[0].value == 0.0


def test_product_tori_in_spheres_empty():
    eq = shapes.circle3(ambient=shapes.sphere_ambient())
    zero = ConstantField([0.0, 0.0, 0.0])
    rep = product_shadow_check(eq, E3, shapes.meridian_circle(), zero, resolution=16)
    assert rep.verdict == "confirmed"
    assert rep.details["n_direct"] == 0 and rep.details["n_reference"] == 0
    assert rep.conclusions[0].value == 0.0


def test_product_zero_field_factor_contributes_everything():
    c = shapes.circle2()
    rep = product_shadow_check(c, ConstantField([0.0, 1.0]),
                               shapes.circle2(), ConstantField([0.0, 0.0]),
                               resolution=24)
    assert rep.verdict == "confirmed"
    assert rep.details["factor_degenerate"] == [False, True]
    assert rep.details["n_reference"] == 2 * 24
    assert rep.conclusions[0].value < rep.details["cell_diagonal"]


def test_product_patch_constraints_stack():
    eq = shapes.circle3(ambient=shapes.sphere_ambient())
    me = shapes.meridian_circle()
    pp = product_patch(eq, me)
    assert pp.m == 6
    assert pp.ambient.n_constraints == 2
    report = validate_patch(pp, resolution=7)
    assert report.ok


def test_product_mixed_flat_and_curved():
    c2 = shapes.circle2()
    me = shapes.meridian_circle()
    pp = product_patch(c2, me)
    assert pp.m == 5
    assert pp.ambient.n_constraints == 1
    assert validate_patch(pp, resolution=7).ok
    # either order: the stacked constraint is the curved factor's, bit for
    # bit, on its own coordinates, and has no derivative along the flat ones
    sphere = me.ambient.constraint
    for pp, curved, flat in ((pp, slice(2, 5), slice(0, 2)),
                             (product_patch(me, c2), slice(0, 3), slice(3, 5))):
        assert validate_patch(pp, resolution=7).ok
        x = pp.chart.eval_values(pp.domain.grid(5))
        jets = pp.ambient.constraint.eval_jets(x, order=1)
        ref = sphere.eval_jets(x[:, curved], order=1)
        assert jets.value.tobytes() == ref.value.tobytes()
        assert jets.jac[:, :, curved].tobytes() == ref.jac.tobytes()
        assert not jets.jac[:, :, flat].any()


def test_block_field_jacobian_consistency():
    c = shapes.circle2()
    y = ConstantField([0.0, 1.0])
    pp = product_patch(c, shapes.circle2())
    pf = product_field(y, y, c)
    pts = np.array([[0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi]])
    diff, _ = shadow_jacobian_consistency(pp, pf, pts)
    assert diff < 1e-6


# -- Newton active set ------------------------------------------------------------


def _newton_full_batch(patch, field, grid, res, tols):
    """Reference Newton loop: every alive seed goes through shadow_system on
    every iteration, and the final residuals come from shadow_system too,
    once to filter and once more at the kept points."""
    box = patch.domain
    cell = np.array(box.cell_sizes(res))
    diag = float(np.linalg.norm(cell))
    u = grid.copy()
    alive = np.ones(u.shape[0], dtype=bool)
    for _ in range(shadow._NEWTON_ITERS):
        f, jac, _ = shadow_system(patch, field, u[alive], tols)
        bad = np.max(np.abs(f), axis=1)
        move = bad > tols.extract_tol
        if not bool(move.any()):
            break
        pinv = np.linalg.pinv(jac[move], rcond=1e-10)
        step = -np.einsum("bnk,bk->bn", pinv, f[move])
        norms = np.linalg.norm(step, axis=1)
        scale = np.minimum(1.0, diag / np.maximum(norms, 1e-300))
        idx = np.nonzero(alive)[0][move]
        u[idx] += step * scale[:, None]
        u[idx] = box.wrap(u[idx])
        alive[idx] = box.contains(u[idx], pad=float(cell.max()))
        if not bool(alive.any()):
            break
    if not bool(alive.any()):
        return np.zeros((0, box.n)), np.zeros(0), int(u.shape[0])
    u = box.wrap(u[alive])
    f = shadow_system(patch, field, u, tols)[0]
    resid = np.max(np.abs(f), axis=1)
    good = (resid <= tols.extract_tol) & box.contains(u, pad=1e-9)
    dropped = int(grid.shape[0] - np.count_nonzero(good))
    pts = shadow._dedup(box, u[good], 0.5 * diag)
    return pts, np.max(np.abs(shadow_system(patch, field, pts, tols)[0]), axis=1), dropped


def _product_spheres():
    sp = shapes.sphere()
    return product_patch(sp, sp), product_field(E3, E3, sp), 12


def _product_circles(resolution=24):
    c = shapes.circle2()
    y = ConstantField([0.0, 1.0])
    return product_patch(c, c), product_field(y, y, c), resolution


def _grid_newton(patch, field, res):
    """`_extract_newton` from the grid scan's max|F| and steps, as
    extract_shadow_set runs it."""
    grid = patch.domain.grid(res)
    mag, step = shadow._stream_rows(patch, field, grid, DEFAULT_TOLS, order=2)
    return shadow._extract_newton(patch, field, grid, res, DEFAULT_TOLS, mag, step)


def _run_newton(make):
    patch, field, resolution = make()
    res = patch.domain._res_tuple(resolution)
    grid = patch.domain.grid(res)
    return (_grid_newton(patch, field, res),
            _newton_full_batch(patch, field, grid, res, DEFAULT_TOLS))


@pytest.mark.parametrize("make, iters", [
    (_product_spheres, None),
    (_product_circles, None),
    # loop cut short: rows still moving are evaluated again, all or some of them
    (_product_spheres, 2),
    (_product_spheres, 4),
], ids=["product-spheres", "product-circles", "product-spheres-2-iters",
        "product-spheres-4-iters"])
def test_newton_active_set_matches_full_batch(make, iters, monkeypatch):
    if iters is not None:
        monkeypatch.setattr(shadow, "_NEWTON_ITERS", iters)
    (pts, dropped), (ref_pts, ref_resid, ref_dropped) = _run_newton(make)
    assert pts.shape[0] > 0
    assert pts.tobytes() == ref_pts.tobytes()
    # the residuals reported with the points are the certificate's
    patch, field, _ = make()
    cert = smoothness_certificate(patch, field, pts)
    assert cert.residuals.tobytes() == ref_resid.tobytes()
    assert dropped == ref_dropped


def test_scans_make_no_inverse_call(monkeypatch):
    # the order-1 edge scan, its bisection and the Newton route read no
    # FrameBatch.rinv, so no R factor is ever inverted
    calls = []
    inv = np.linalg.inv

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", spy)
    torus, torus_field = _scene_subject("torus_e3")
    assert extract_shadow_set(torus, torus_field, 64).n_points > 0
    patch, field, resolution = _product_spheres()
    assert extract_shadow_set(patch, field, resolution).n_points > 0
    assert calls == []


def _slices(rows, size):
    return [min(size, rows - s) for s in range(0, rows, size)]


def test_newton_evaluates_only_moving_rows(monkeypatch):
    passes, calls, order1_rows = [], [], []
    real_stream, real_system = shadow._stream_rows, shadow.shadow_system
    real_frames = shadow.frames_at

    def stream_spy(patch, field, points, tols, order):
        passes.append(len(points))
        return real_stream(patch, field, points, tols, order)

    def system_spy(patch, field, points, tols=DEFAULT_TOLS):
        calls.append(len(points))
        return real_system(patch, field, points, tols)

    def frames_spy(patch, points, order=2, tols=DEFAULT_TOLS):
        if order == 1:
            order1_rows.append(len(points))
        return real_frames(patch, points, order=order, tols=tols)

    monkeypatch.setattr(shadow, "_stream_rows", stream_spy)
    monkeypatch.setattr(shadow, "shadow_system", system_spy)
    monkeypatch.setattr(shadow, "frames_at", frames_spy)
    patch, field, resolution = _product_spheres()
    _grid_newton(patch, field, patch.domain._res_tuple(resolution))
    # the grid scan, then one pass per Newton iteration after the first; the
    # full-batch loop ran 6 x 20,736 = 124,416 rows, then 20,736 order-1
    # rows, and the unmerged active set 95,040 rows
    assert passes == [20736, 20736, 20736, 17016, 6854, 248]
    assert sum(passes) == 86326
    # each pass reaches shadow_system in slices of 1,040 rows, the order-2
    # jets of a 6 x 4 chart being 1,008 bytes a row
    size = shadow._slice_rows(patch, 2)
    assert size == 1040
    assert calls == [c for rows in passes for c in _slices(rows, size)]
    assert order1_rows == []


def test_newton_route_builds_grid_frames_once(monkeypatch):
    # the degeneracy scan builds order-2 frames slice by slice, and Newton's
    # first step takes its F and J instead of building grid frames again
    calls = []
    real_frames = shadow.frames_at
    patch, field, resolution = _product_spheres()
    grid = patch.domain.grid(resolution)

    def frames_spy(patch, points, order=2, tols=DEFAULT_TOLS):
        calls.append((order, np.array(points)))
        return real_frames(patch, points, order=order, tols=tols)

    monkeypatch.setattr(shadow, "frames_at", frames_spy)
    extract_shadow_set(patch, field, resolution)
    assert max(len(points) for _, points in calls) <= shadow._CHUNK_ROWS
    assert [order for order, _ in calls if order == 1] == []
    built = Counter(map(bytes, np.concatenate([p for order, p in calls if order == 2])))
    assert [built[bytes(row)] for row in grid] == [1] * grid.shape[0]


@pytest.mark.parametrize("resolution, rows, calls", [(12, 512, 6), (24, 2971, 9)])
def test_newton_drops_seeds_that_cannot_move(resolution, rows, calls, monkeypatch):
    # seeds where the Jacobian is singular get a zero step; once they stop
    # moving they leave the active set instead of running all 30 iterations
    batches = []
    real_system = shadow.shadow_system

    def system_spy(patch, field, points, tols=DEFAULT_TOLS):
        batches.append(len(points))
        return real_system(patch, field, points, tols)

    monkeypatch.setattr(shadow, "shadow_system", system_spy)
    patch, field, resolution = _product_circles(resolution)
    pts, _ = _grid_newton(patch, field, patch.domain._res_tuple(resolution))
    assert pts.shape[0] == 4
    assert (sum(batches), len(batches)) == (rows, calls)


def _newton_unmerged(patch, field, grid, res, tols, mag, step):
    """Reference `_extract_newton` with no merging: every active row is
    evaluated again, also when another row has reached the same `u`."""
    box = patch.domain
    cell = np.array(box.cell_sizes(res))
    diag = float(np.linalg.norm(cell))
    u = grid.copy()
    alive = np.ones(u.shape[0], dtype=bool)
    resid = np.empty(u.shape[0])
    active = np.arange(u.shape[0])
    for it in range(shadow._NEWTON_ITERS + 1):
        if it:
            mag, step = shadow._stream_rows(patch, field, u[active], tols, order=2)
        resid[active] = mag
        move = mag > tols.extract_tol
        active = active[move]
        if it == shadow._NEWTON_ITERS or not active.size:
            break
        step = step[move]
        norms = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, diag / np.maximum(norms, 1e-300))[:, None]
        old = u[active]
        new = box.wrap(old + step)
        u[active] = new
        inside = box.contains(new, pad=float(cell.max()))
        alive[active] = inside
        moved = np.any(new.view(np.int64) != old.view(np.int64), axis=1)
        active = active[moved & inside]
        if not active.size:
            break
    if not bool(alive.any()):
        return np.zeros((0, box.n)), int(u.shape[0])
    u, resid = u[alive], resid[alive]
    good = (resid <= tols.extract_tol) & box.contains(u, pad=1e-9)
    dropped = int(grid.shape[0] - np.count_nonzero(good))
    return shadow._dedup(box, u[good], 0.5 * diag), dropped


@pytest.mark.parametrize("make", [
    _product_spheres,
    lambda: _product_circles(12),
    lambda: _product_circles(24),
], ids=["product-spheres-12", "product-circles-12", "product-circles-24"])
def test_merged_newton_matches_unmerged_reference(make):
    # rows that meet bit for bit follow one trajectory, so merging them
    # moves no bit of the points and no dropped-seed count
    patch, field, resolution = make()
    res = patch.domain._res_tuple(resolution)
    grid = patch.domain.grid(res)
    mag, step = shadow._stream_rows(patch, field, grid, DEFAULT_TOLS, order=2)
    pts, dropped = shadow._extract_newton(patch, field, grid, res, DEFAULT_TOLS,
                                          mag, step)
    ref_pts, ref_dropped = _newton_unmerged(patch, field, grid, res, DEFAULT_TOLS,
                                            mag, step)
    assert pts.shape[0] > 0
    assert pts.tobytes() == ref_pts.tobytes()
    assert dropped == ref_dropped


def test_merge_met_keeps_the_lowest_row_of_each_meeting():
    # rows 1, 4 and 6 meet row 0's u, row 5 meets row 3's; -0.0 and 0.0
    # differ in their bits, so row 2 meets no one; row 7 is not active
    u = np.array([[1.0, 2.0], [1.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [1.0, 2.0],
                  [0.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    leader = np.arange(8)
    active = shadow._merge_met(u, np.arange(7), leader)
    assert active.tolist() == [0, 2, 3]
    assert leader.tolist() == [0, 0, 2, 3, 0, 3, 0, 7]


def _dedup_unique(box, points, radius):
    """Reference `_dedup`: the first point of each bin by np.unique over
    the bin rows."""
    pts = points[np.lexsort(points.T[::-1])]
    bins = np.floor((pts - box.lo) / max(radius, 1e-300)).astype(np.int64)
    _, first = np.unique(bins, axis=0, return_index=True)
    first.sort()
    keep_pts = []
    for p in pts[first]:
        if keep_pts and bool(np.any(box.param_distance(np.array(keep_pts), p) < radius)):
            continue
        keep_pts.append(p)
    return np.array(keep_pts).reshape(-1, box.n)


def test_dedup_matches_unique_reference():
    # clusters a bin wide, with exact repeats, over a box with periodic axes
    rng = np.random.default_rng(11)
    box = _product_spheres()[0].domain
    lo, hi = np.array(box.lo), np.array(box.hi)
    centres = lo + (hi - lo) * rng.random((40, box.n))
    points = np.repeat(centres, 60, axis=0) + 0.2 * rng.standard_normal((2400, box.n))
    points = box.wrap(np.vstack([points, points[::7]]))
    got = shadow._dedup(box, points, 0.3)
    want = _dedup_unique(box, points, 0.3)
    assert 40 <= got.shape[0] < 2400
    assert got.tobytes() == want.tobytes()


# -- edge roots --------------------------------------------------------------------


def _grid_residuals(patch, field, resolution):
    res = patch.domain._res_tuple(resolution)
    grid = patch.domain.grid(res)
    frames = frames_at(patch, grid, order=1, tols=DEFAULT_TOLS)
    f = np.einsum("bmj,bm->bj", frames.normal, field.values(grid))
    return f, frames.normal[:, :, 0], res


def _merge_roots(box, roots, keys, radius):
    """Reference: cluster near-coincident roots; points, key->id."""
    wrapped = box.wrap(roots)
    points, idmap = [], {}
    for key, p in zip(keys, wrapped):
        if points:
            d = box.param_distance(np.array(points), p)
            j = int(np.argmin(d))
            if d[j] < radius:
                idmap[key] = j
                continue
        idmap[key] = len(points)
        points.append(p)
    return np.array(points).reshape(-1, box.n), idmap


def _bisect_from(patch, field, a_pts, b_pts):
    """`_bisect` with the start signs evaluated afresh."""
    f = shadow_values(patch, field, a_pts, DEFAULT_TOLS)[:, 0]
    return shadow._bisect(patch, field, a_pts, b_pts, np.where(f < 0.0, -1.0, 1.0),
                          DEFAULT_TOLS)


def _flipped_edges(f, normals, axis, periodic, ztol):
    """Reference: endpoint residuals and edge classes along `axis`, each
    edge's far residual flipped when its endpoint normals disagree."""
    if periodic:
        fa, fb = f, np.roll(f, -1, axis=axis)
        na, nb = normals, np.roll(normals, -1, axis=axis)
    else:
        n = f.shape[axis]
        fa, fb = np.take(f, range(n - 1), axis=axis), np.take(f, range(1, n), axis=axis)
        na = np.take(normals, range(n - 1), axis=axis)
        nb = np.take(normals, range(1, n), axis=axis)
    flip = np.where(np.einsum("...m,...m->...", na, nb) < 0.0, -1.0, 1.0)
    za = np.abs(fa) <= ztol
    zb = np.abs(fb) <= ztol
    strict = ~za & ~zb & (fa * (flip * fb) < 0.0)
    return fa, fb, strict, za ^ zb, za


def _surface_roots_loop(patch, field, f, normals, res, tols):
    """Reference: edge-by-edge root collection, then distance merging."""
    r0, r1 = res
    ff = f[:, 0].reshape(r0, r1)
    nn = normals.reshape(r0, r1, -1)
    box = patch.domain
    g0, g1 = box.axis_grid(0, r0), box.axis_grid(1, r1)
    h0, h1 = box.cell_sizes(res)
    bis_keys, bis_a, bis_off = [], [], []
    roots, keys = [], []
    for axis, h in ((0, h0), (1, h1)):
        _, _, strict, vertex, za = _flipped_edges(ff, nn, axis, box.periodic[axis],
                                                  tols.extract_tol)
        off = (h, 0.0) if axis == 0 else (0.0, h)
        for i, j in zip(*np.nonzero(strict)):
            bis_keys.append((axis, int(i), int(j)))
            bis_a.append((g0[i], g1[j]))
            bis_off.append(off)
        for i, j in zip(*np.nonzero(vertex)):
            a = np.array((g0[i], g1[j]))
            keys.append((axis, int(i), int(j)))
            roots.append(a if za[i, j] else a + off)
    if bis_keys:
        a_pts = np.array(bis_a)
        roots.extend(_bisect_from(patch, field, a_pts, a_pts + np.array(bis_off)))
        keys.extend(bis_keys)
    return _merge_roots(box, np.array(roots), keys, 1e-6 * min(h0, h1))


def _curve_roots_loop(patch, field, f, normals, res, tols):
    """Reference: bisected crossings first, then node zeros, then merging."""
    box = patch.domain
    fa, _, strict, vertex, za = _flipped_edges(f[:, 0], normals, 0, box.periodic[0],
                                               tols.extract_tol)
    grid = box.axis_grid(0, res[0])[: fa.shape[0]]
    h = box.cell_sizes(res)[0]
    keys, roots = [], []
    idx = np.nonzero(strict)[0]
    if idx.size:
        a = grid[idx][:, None]
        keys.extend((0, int(i)) for i in idx)
        roots.extend(_bisect_from(patch, field, a, a + h))
    for i in np.nonzero(vertex)[0]:
        keys.append((0, int(i)))
        roots.append(np.array([grid[i] if za[i] else grid[i] + h]))
    return _merge_roots(box, np.array(roots), keys, 1e-6 * h)


def _scene_subject(name):
    scene = load_scene(find_scene(name))
    (patch_name, patch), = scene.patches.items()
    return patch, scene.fields[patch_name]


@pytest.mark.parametrize("subject, resolution", [
    (lambda: _scene_subject("torus_e3"), 256),
    (lambda: _scene_subject("sphere_e3"), 256),
    (lambda: (shapes.saddle(), E1), 48),
    (lambda: (shapes.cylinder(), E1), 64),
], ids=["torus-256", "sphere-256", "saddle-48", "cylinder-sideways-64"])
def test_edge_roots_match_merged_edge_loop_on_surfaces(subject, resolution):
    patch, field = subject()
    f, normals, res = _grid_residuals(patch, field, resolution)
    pts, ids = shadow._edge_roots(patch, field, f, patch.domain.grid(res), res,
                                  DEFAULT_TOLS)
    ref_pts, ref_ids = _surface_roots_loop(patch, field, f, normals, res, DEFAULT_TOLS)
    assert pts.shape[0] > 0
    assert pts.tobytes() == ref_pts.tobytes()
    assert ids == ref_ids


@pytest.mark.parametrize("resolution", [33, 64])
def test_edge_roots_match_merged_edge_loop_on_curves(resolution):
    # u = 0 is a grid node, reported by edge 0 and by the last, wrapping edge
    patch, field = _scene_subject("circle_r2_e2")
    f, normals, res = _grid_residuals(patch, field, resolution)
    pts, ids = shadow._edge_roots(patch, field, f, patch.domain.grid(res), res,
                                  DEFAULT_TOLS)
    ref_pts, ref_ids = _curve_roots_loop(patch, field, f, normals, res, DEFAULT_TOLS)
    assert ids[(0, 0)] == ids[(0, resolution - 1)] == 0
    assert ref_ids[(0, 0)] == ref_ids[(0, resolution - 1)]
    assert pts.shape == (2, 1)
    assert np.sort(pts, axis=0).tobytes() == np.sort(ref_pts, axis=0).tobytes()


def test_seam_edge_root_residual_is_taken_at_the_reported_point():
    # a circle over [0.25 - 2 pi, 0.25) with a root inside the seam edge,
    # from the last node to the wrap; its residual must be the
    # certificate's |F| at the wrapped point it reports
    hi, res = 0.25, 16
    h = 2 * np.pi / res
    root = hi - 0.3 * h
    patch = SubmanifoldPatch(parse_chart("(cos(u), sin(u))", ("u",)),
                             Box((hi - 2 * np.pi,), (hi,), (True,)), AmbientSpace(2, None))
    field = ConstantField([np.sin(-root), np.cos(-root)])
    s = extract_shadow_set(patch, field, res)
    assert s.n_points == 2
    assert np.count_nonzero(s.params[:, 0] > hi - h) == 1
    f = np.abs(shadow_system(patch, field, s.params, DEFAULT_TOLS)[0][:, 0])
    assert s.residuals.tobytes() == f.tobytes()
    assert s.ambient.tobytes() == patch.chart.eval_values(s.params).tobytes()


# -- marching cells ----------------------------------------------------------------


def _march_cells_loop(point_ids, saddle_fn, res, periodic):
    """Reference cell-by-cell pairing of edge crossings."""
    r0, r1 = res
    c0 = r0 if periodic[0] else r0 - 1
    c1 = r1 if periodic[1] else r1 - 1
    segments = []
    saddles = []
    for i in range(c0):
        for j in range(c1):
            sides = [(0, i, j), (0, i, (j + 1) % r1), (1, i, j), (1, (i + 1) % r0, j)]
            hit = [s for s in sides if point_ids.get(s) is not None]
            if len(hit) == 2:
                a, b = point_ids[hit[0]], point_ids[hit[1]]
                if a != b:
                    segments.append((a, b))
            elif len(hit) == 4:
                saddles.append((i, j))
    if saddles:
        flags = saddle_fn(saddles)
        for (i, j), through in zip(saddles, flags):
            a0 = point_ids[(0, i, j)]
            a1 = point_ids[(0, i, (j + 1) % r1)]
            b0 = point_ids[(1, i, j)]
            b1 = point_ids[(1, (i + 1) % r0, j)]
            pairs = ((a0, b1), (b0, a1)) if through else ((a0, b0), (a1, b1))
            segments.extend(p for p in pairs if p[0] != p[1])
    return segments


def _random_id_map(rng, res, periodic, n_ids):
    r0, r1 = res
    ids = {}
    for i in range(r0 if periodic[0] else r0 - 1):
        for j in range(r1):
            if rng.random() < 0.5:
                ids[(0, i, j)] = int(rng.integers(n_ids))
    for i in range(r0):
        for j in range(r1 if periodic[1] else r1 - 1):
            if rng.random() < 0.5:
                ids[(1, i, j)] = int(rng.integers(n_ids))
    return ids


@pytest.mark.parametrize("periodic", [(False, False), (True, False), (False, True), (True, True)])
def test_march_cells_matches_cell_loop(periodic):
    rng = np.random.default_rng(7)
    hit_counts = Counter()
    self_pairs = 0
    for trial in range(20):
        res = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        ids = _random_id_map(rng, res, periodic, n_ids=6)
        calls = {"new": [], "loop": []}

        def signs(key):
            def fn(cells):
                calls[key].append(list(cells))
                return [(3 * i + j + trial) % 2 == 0 for i, j in cells]
            return fn

        got = shadow._march_cells(ids, signs("new"), res, periodic)
        want = _march_cells_loop(ids, signs("loop"), res, periodic)
        unordered = lambda segs: Counter(tuple(sorted(p)) for p in segs)  # noqa: E731
        assert unordered(got) == unordered(want)
        assert all(type(a) is int and type(b) is int for a, b in got)
        assert calls["new"] == calls["loop"]

        r0, r1 = res
        for i in range(r0 if periodic[0] else r0 - 1):
            for j in range(r1 if periodic[1] else r1 - 1):
                sides = [(0, i, j), (0, i, (j + 1) % r1), (1, i, j), (1, (i + 1) % r0, j)]
                hit = [ids[s] for s in sides if s in ids]
                hit_counts[len(hit)] += 1
                self_pairs += len(hit) == 2 and hit[0] == hit[1]
    assert set(hit_counts) == {0, 1, 2, 3, 4}
    assert self_pairs > 0


@pytest.mark.parametrize("c, a", [(1e-3, 0.25), (-1e-3, 0.25), (-1e-3, 0.125)],
                         ids=["0.001", "-0.001", "off-centre"])
def test_saddle_cell_pairs_hyperbola_branches(c, a):
    # F = (u - a)(v - a) + c on the plane: the grid-9 cell [0, 1/2]^2 sees
    # four crossings; the hyperbola's saddle sits at (a, a), at the cell
    # center for a = 1/4 and off it for a = 1/8, where F at the center has
    # the other sign
    field = ExprField(parse_chart("(0, 0, (u - a)*(v - a) + c)", ("u", "v"),
                                  {"a": a, "c": c}))
    s = extract_shadow_set(shapes.plane(), field, 9)
    assert len(s.polylines) == 2
    quadrants = set()
    for line in s.polylines:
        signs = np.unique(np.sign(s.params[list(line)] - a), axis=0)
        assert signs.shape[0] == 1  # each branch stays in one quadrant
        assert signs[0, 0] * signs[0, 1] == -np.sign(c)
        quadrants.add(tuple(signs[0]))
    assert len(quadrants) == 2


# -- one continuous normal (k = 1) -------------------------------------------------


@pytest.mark.parametrize("name, resolution, values, expected", [
    ("cone_axis", 2, lambda s: s.params[:, 0], []),
    ("cone_axis", 3, lambda s: s.params[:, 0], []),
    ("circle_r2_e2", 2, lambda s: s.params[:, 0], [0.0, np.pi]),
    ("circle_r2_e2", 3, lambda s: s.params[:, 0], [0.0, np.pi]),
    ("torus_e3", 2, lambda s: np.hypot(s.ambient[:, 0], s.ambient[:, 1]), [1.0, 3.0]),
    ("torus_e3", 3, lambda s: np.hypot(s.ambient[:, 0], s.ambient[:, 1]), [1.0, 3.0]),
    ("sphere_e3", 2, lambda s: s.ambient[:, 2], [0.0]),
], ids=["cone-2", "cone-3", "circle-2", "circle-3", "torus-2", "torus-3", "sphere-2"])
def test_coarse_grid_shadow_sets(name, resolution, values, expected):
    # an edge whose normal turns by more than 90 degrees still brackets
    # every sign change of F, and no edge without one reports a root:
    # the cone's axis field is nowhere tangent, the circle's set is
    # {0, pi}, the torus has both circles (radii 1 and 3), the sphere's
    # points lie on the equator; at grid 2 every node of the circle and
    # the torus is a zero of F, but no cell centre is, so the set is not
    # degenerate, and each node is a point even with no edge to report it
    patch, field = _scene_subject(name)
    s = extract_shadow_set(patch, field, resolution)
    assert not s.degenerate
    np.testing.assert_allclose(np.unique(np.round(values(s), 6)), expected, atol=1e-6)


_SCENES = [load_scene(os.path.join(SCENES_DIR, f)) for f in sorted(os.listdir(SCENES_DIR))]
CODIM1 = [(s, name) for s in _SCENES for name, p in s.patches.items() if p.codim == 1]
WITH_FIELD = [(s, name) for s, name in CODIM1 if s.patches[name].n <= 2 and name in s.fields]


def _ids(cases):
    return [f"{s.name}-{name}" for s, name in cases]


@pytest.mark.parametrize("scene, name", WITH_FIELD, ids=_ids(WITH_FIELD))
def test_coarse_grid_shadow_points_are_zeros(scene, name):
    patch, field, tols = scene.patches[name], scene.fields[name], scene.tols
    for resolution in range(2, 9):
        s = extract_shadow_set(patch, field, resolution, tols)
        if s.n_points:
            f = shadow_values(patch, field, s.params, tols)
            assert np.abs(f).max() <= tols.extract_tol, resolution


@pytest.mark.parametrize("scene, name", CODIM1, ids=_ids(CODIM1))
def test_normals_agree_along_every_grid_edge(scene, name):
    patch, res = scene.patches[name], 64
    grid = patch.domain.grid(res)
    normals = frames_at(patch, grid, order=1, tols=scene.tols).normal[:, :, 0]
    normals = normals.reshape((res,) * patch.n + (patch.m,))
    for axis, periodic in enumerate(patch.domain.periodic):
        dots = np.einsum("...m,...m->...", normals, np.roll(normals, -1, axis=axis))
        if not periodic:  # the last node along a walled axis starts no edge
            dots = np.delete(dots, -1, axis=axis)
        assert dots.min() > 0.0, axis


# -- F as a ratio of determinants (k = 1) ----------------------------------------


def _det_subjects():
    """(scene, patch, field) of every bundled scene whose main subject has
    one normal and a field."""
    for scene in _SCENES:
        patch, field = _root_setup(scene, scene.tols)
        if patch.codim == 1 and field is not None:
            yield scene, patch, field


DET_SUBJECTS = list(_det_subjects())


@pytest.mark.parametrize("resolution", [7, 16, 64])
@pytest.mark.parametrize("scene, patch, field", DET_SUBJECTS,
                         ids=[s.name for s, _, _ in DET_SUBJECTS])
def test_determinant_f_matches_frame_f(scene, patch, field, resolution):
    grid = patch.domain.grid(resolution)
    f = shadow_values(patch, field, grid, scene.tols)[:, 0]
    y = field.values(grid)
    normal = frames_at(patch, grid, order=1, tols=scene.tols).normal[:, :, 0]
    frame_f = np.einsum("bm,bm->b", normal, y)
    zero = np.abs(f) <= scene.tols.extract_tol
    assert np.array_equal(zero, np.abs(frame_f) <= scene.tols.extract_tol)
    # inside the zero class the two may part in sign (0 against 1e-17)
    assert np.array_equal(np.sign(f[~zero]), np.sign(frame_f[~zero]))
    slack = 16 * np.finfo(float).eps * (1.0 + np.linalg.norm(y, axis=1))
    assert np.all(np.abs(f - frame_f) <= slack)


@pytest.mark.parametrize("scale", [2.0**-300, 2.0**300], ids=["2^-300", "2^300"])
def test_determinant_f_is_scale_free(scale):
    # det g of this sphere's chart Jacobian would underflow to 0 or overflow
    # to inf; each row is scaled by a power of two first, so F keeps the
    # bits it has on the unit sphere
    def sphere(s):
        chart = parse_chart("(s*sin(u)*cos(v), s*sin(u)*sin(v), s*cos(u))", ("u", "v"),
                            {"s": s})
        return SubmanifoldPatch(chart, Box((0.1, 0.0), (np.pi - 0.1, 2 * np.pi),
                                           (False, True)), AmbientSpace(3))
    grid = sphere(1.0).domain.grid(16)
    field = ConstantField([0.3, -0.4, 1.0])
    want = shadow_values(sphere(1.0), field, grid)
    assert shadow_values(sphere(scale), field, grid).tobytes() == want.tobytes()


def _equator_in_s2():
    # tangent to the sphere along the equator, with F = cos s up to sign
    patch = load_scene(find_scene("equator_in_s2")).patches["equator"]
    return patch, ExprField(parse_chart("(-sin(s)^2, sin(s)*cos(s), cos(s))", ("s",)))


@pytest.mark.parametrize("subject, resolution", [
    (lambda: _scene_subject("torus_e3"), 33),
    (lambda: _scene_subject("sphere_e3"), 32),
    (lambda: _scene_subject("circle_r2_e2"), 33),
    (_equator_in_s2, 33),
], ids=["torus", "sphere", "circle", "equator-in-s2"])
def test_scan_and_bisection_build_no_frames(subject, resolution, monkeypatch):
    # resolutions that put a root inside some grid edge, so it is bisected
    patch, field = subject()
    calls, bisected = [], []
    real_frames, real_bisect = frames_at, shadow._bisect

    def frames_spy(patch, points, *args, **kwargs):
        calls.append(len(points))
        return real_frames(patch, points, *args, **kwargs)

    def bisect_spy(patch, field, a_pts, *args):
        bisected.append(len(a_pts))
        return real_bisect(patch, field, a_pts, *args)

    monkeypatch.setattr(shadow, "frames_at", frames_spy)
    monkeypatch.setattr(geometry, "frames_at", frames_spy)
    monkeypatch.setattr(shadow, "_bisect", bisect_spy)
    res = patch.domain._res_tuple(resolution)
    grid = patch.domain.grid(res)
    f = shadow._stream_rows(patch, field, grid, DEFAULT_TOLS, order=1)[1]
    shadow._edge_roots(patch, field, f, grid, res, DEFAULT_TOLS)
    assert bisected and calls == []
    # the certificate's evaluation is then the one frame build
    s = extract_shadow_set(patch, field, resolution)
    assert calls == [s.n_points]


def _gate_error(fn):
    with pytest.raises(GeometryError) as info:
        fn()
    return type(info.value), str(info.value), info.value.point


@pytest.mark.parametrize("chart, params, ambient, points", [
    # phi_u = 0 at u = 0
    ("(u^3, v, 0)", ("u", "v"), (3, None), [(0.5, 0.1), (0.0, 0.2), (0.0, 0.3)]),
    # healthy pivots, singular value ratio 1e-10: the bound sends it to the SVD
    ("(u + 1e5*v, v, 0)", ("u", "v"), (3, None), [(0.5, 0.25), (0.0, 0.0)]),
    ("(1.2*cos(s), 1.2*sin(s), 0)", ("s",), (3, "(x1^2 + x2^2 + x3^2 - 1)"),
     [(0.1,), (0.2,)]),
    # the second constraint's gradient is x3 times the first's on the ambient
    ("(cos(s), sin(s), 0.5, 0)", ("s",),
     (4, "(x1^2 + x2^2 - 1, (x1^2 + x2^2 - 1)*x3)"), [(0.1,), (0.2,)]),
], ids=["chart-rank", "chart-rank-bound", "off-ambient", "constraint-rank"])
def test_shadow_values_raises_what_frames_at_raises(chart, params, ambient, points):
    dim, constraint = ambient
    names = tuple(f"x{i + 1}" for i in range(dim))
    amb = AmbientSpace(dim, None if constraint is None else parse_chart(constraint, names))
    patch = SubmanifoldPatch(parse_chart(chart, params),
                             Box((-1.0,) * len(params), (1.0,) * len(params),
                                 (False,) * len(params)), amb)
    assert patch.codim == 1
    field = ConstantField([0.0] * (dim - 1) + [1.0])
    pts = np.array(points)
    got = _gate_error(lambda: shadow_values(patch, field, pts))
    assert got == _gate_error(lambda: frames_at(patch, pts, order=1))
    assert got[0] in (ChartRankError, OffAmbientError)


def test_vanishing_constraint_gradient_raises():
    # c = (|x|^2 - 1)^2 vanishes on the unit sphere with Dc = 0 there: the
    # normal of the equator inside the ambient is undefined, and the
    # constraint-rank rule says so before any determinant is formed
    amb = AmbientSpace(3, parse_chart("((x1^2 + x2^2 + x3^2 - 1)^2)", ("x1", "x2", "x3")))
    patch = SubmanifoldPatch(parse_chart("(cos(s), sin(s), 0)", ("s",)),
                             Box((0.0,), (2 * np.pi,), (True,)), amb)
    with pytest.raises(ChartRankError, match=r"^constraint Jacobian is rank-deficient "
                       r"\(singular value ratio 0\.000e\+00\) at parameters \(0\.5,\)$"):
        shadow_values(patch, E3, [(0.5,), (1.0,)])


def test_shadow_values_needs_one_normal():
    # frame F with two or more normals comes only from shadow_system
    patch, field, _ = _product_spheres()
    with pytest.raises(ValueError, match="needs one normal, patch has 2"):
        shadow_values(patch, field, patch.domain.grid(2))


# -- streaming in row slices -------------------------------------------------------


def _set_bytes(s):
    cert = s.certificate
    return (s.params.tobytes(), s.ambient.tobytes(), s.residuals.tobytes(), s.polylines,
            s.degenerate_fraction, s.dropped_seeds, cert.ratios.tobytes(),
            cert.sigma_min.tobytes(), cert.flags.tobytes(), cert.argmin.tobytes())


@pytest.mark.parametrize("subject, resolution", [
    (lambda: _product_spheres()[:2], 12),
    (lambda: _scene_subject("torus_e3"), 64),
    (lambda: _scene_subject("circle_r2_e2"), 64),
], ids=["product-spheres-newton", "torus-marching", "circle-edge-roots"])
def test_chunk_size_cannot_change_the_shadow_set(subject, resolution, monkeypatch):
    # 7-row slices divide none of the grids (20,736, 4,096 and 64 rows), the
    # defaults slice order 2 at 1,040 rows and order 1 at 2,048, and the
    # last pair holds every grid in one slice
    patch, field = subject()
    runs = []
    for rows, budget in ((7, shadow._SLICE_BYTES), (shadow._CHUNK_ROWS, shadow._SLICE_BYTES),
                         (2**30, 2**60)):
        monkeypatch.setattr(shadow, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(shadow, "_SLICE_BYTES", budget)
        s = extract_shadow_set(patch, field, resolution)
        assert s.n_points > 0
        runs.append(_set_bytes(s))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", ["tube_circle", "tube_helix"])
def test_degenerate_set_ambient_is_the_jets_value_row(name):
    # the grid scan keeps no chart points; a degenerate set evaluates the
    # chart values of its grid, which equal the jets' value rows bit for bit
    scene = load_scene(find_scene(name))
    patch, field = _root_setup(scene, scene.tols)
    s = extract_shadow_set(patch, field, 16, scene.tols)
    assert s.degenerate
    want = patch.chart.eval_jets(patch.domain.grid(16), order=1).value
    assert s.ambient.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [3, 4], ids=["marching", "newton"])
def test_faulty_row_in_a_later_chunk_raises_as_unchunked(m, monkeypatch):
    # x = |z|^2 z has Jacobian singular values 3|z|^2 and |z|^2, so only the
    # origin, grid row 40 of 81 and the sixth slice of 7 rows, is rank-deficient
    chart = parse_chart("((u^2 + v^2)*u, (u^2 + v^2)*v" + ", 0" * (m - 2) + ")", ("u", "v"))
    patch = SubmanifoldPatch(chart, Box((-1.0, -1.0), (1.0, 1.0), (False, False)),
                             AmbientSpace(m))
    field = ConstantField([0.0] * (m - 1) + [1.0])
    errors = []
    for rows in (7, 2**30):
        monkeypatch.setattr(shadow, "_CHUNK_ROWS", rows)
        with pytest.raises(GeometryError) as info:
            extract_shadow_set(patch, field, 9)
        errors.append((type(info.value), info.value.point))
    assert errors[0] == errors[1] == (ChartRankError, (0.0, 0.0))


def _traced_peak(patch, field, resolution):
    tracemalloc.start()
    try:
        extract_shadow_set(patch, field, resolution)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("subject, resolutions, cap", [
    (lambda: _product_spheres()[:2], (12, 16), 400),
    (lambda: _scene_subject("torus_e3"), (128, 256), 80),
], ids=["product-spheres-12", "torus-256"])
def test_extraction_peak_memory_follows_the_chunk(subject, resolutions, cap):
    # traced peak bytes per grid row between two grid sizes, so the fixed
    # cost of a slice cancels; keeping J, x and the whole-grid pinv cost
    # 667 and 118 bytes a row
    patch, field = subject()
    (r0, p0), (r1, p1) = [(g ** patch.n, _traced_peak(patch, field, g)) for g in resolutions]
    assert (p1 - p0) / (r1 - r0) <= cap
