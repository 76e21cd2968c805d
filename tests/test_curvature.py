"""Second fundamental forms, Christoffel symbols, nested curvature."""

import math

import numpy as np
import pytest

from shadowgeom.curvature import (
    bang_decomposition_check,
    christoffels,
    gauss_kronecker,
    mean_curvature,
    nested_second_form,
    second_form_components,
    tgs_scan,
)
from shadowgeom.expr import ChartExpr, parse_chart
from shadowgeom.fields import ConstantField
from shadowgeom.geometry import Box, GeometryError, composed_patch, frames_at
from shadowgeom.helix import minimality_criterion, orthogonal_tgs_check, tgs_helix_check

import shapes
from oracles import fd_metric_derivative

TWO_PI = 2.0 * math.pi


# -- hand-checked second forms -------------------------------------------------


def _frames(patch, *points):
    return frames_at(patch, np.array(points, dtype=float))


def _principal_curvatures(frames):
    """Eigenvalues of the shape operator of the one normal, ascending, (B, n)."""
    return np.linalg.eigvalsh(second_form_components(frames)[1][..., 0])


def test_sphere_second_form_is_minus_metric():
    # outward radial normal: II(w, w) = -<w, w> x on the unit sphere
    frames = _frames(shapes.sphere(), (math.pi / 2, 0.3))
    _, orth = second_form_components(frames)
    np.testing.assert_allclose(orth[0, :, :, 0], -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(_principal_curvatures(frames)[0], [-1.0, -1.0],
                               atol=1e-12)
    gk = gauss_kronecker(_frames(shapes.sphere(), (1.1, 2.0)))
    assert gk[0] == pytest.approx(1.0, abs=1e-10)


def test_sphere_mean_curvature_vector():
    h = mean_curvature(_frames(shapes.sphere(), (math.pi / 2, 0.0)))
    np.testing.assert_allclose(h[0], [-1.0, 0.0, 0.0], atol=1e-12)


def test_torus_outer_equator_curvatures():
    # the oriented normal points inward here, so both curvatures are positive;
    # the mean curvature vector does not depend on the normal's sign
    frames = _frames(shapes.torus(), (0.0, 0.0))
    np.testing.assert_allclose(frames.normal[0, :, 0], [-1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(_principal_curvatures(frames)[0], [1.0 / 3.0, 1.0],
                               atol=1e-12)
    _, orth = second_form_components(frames)
    np.testing.assert_allclose(orth[0, :, :, 0], np.diag([1.0, 1.0 / 3.0]), atol=1e-12)
    assert gauss_kronecker(frames)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(mean_curvature(frames)[0], [-2.0 / 3.0, 0.0, 0.0],
                               atol=1e-12)


def test_cylinder_curvatures():
    frames = _frames(shapes.cylinder(), (0.3, 0.2))
    np.testing.assert_allclose(_principal_curvatures(frames)[0], [-1.0, 0.0], atol=1e-12)
    assert gauss_kronecker(frames)[0] == pytest.approx(0.0, abs=1e-12)


def test_saddle_origin():
    frames = _frames(shapes.saddle(a=0.5), (0.0, 0.0))
    coord, _ = second_form_components(frames)
    np.testing.assert_allclose(coord[0, :, :, 0], [[0.0, 0.5], [0.5, 0.0]], atol=1e-13)
    np.testing.assert_allclose(_principal_curvatures(frames)[0], [-0.5, 0.5], atol=1e-13)
    assert gauss_kronecker(frames)[0] == pytest.approx(-0.25, abs=1e-13)
    np.testing.assert_allclose(mean_curvature(frames)[0], 0.0, atol=1e-13)


def test_second_form_vector_contraction():
    # the ambient vector II(d_theta, d_theta) = normal . coord[theta, theta]
    frames = _frames(shapes.sphere(), (math.pi / 2, 0.0))
    coord, _ = second_form_components(frames)
    v = frames.normal[0] @ coord[0, 0, 0]
    np.testing.assert_allclose(v, [-1.0, 0.0, 0.0], atol=1e-12)


def test_circle_curvature_vector():
    h = mean_curvature(_frames(shapes.circle3(), (0.0,)))
    np.testing.assert_allclose(h[0], [-1.0, 0.0, 0.0], atol=1e-12)


def test_gauss_kronecker_requires_hypersurface():
    with pytest.raises(GeometryError):
        gauss_kronecker(_frames(shapes.circle3(), (0.0,)))


def test_orth_components_symmetric():
    frames = frames_at(shapes.torus(), np.array([[0.4, 1.3], [2.0, 5.1]]))
    coord, orth = second_form_components(frames)
    np.testing.assert_array_equal(coord, coord.transpose(0, 2, 1, 3))
    np.testing.assert_allclose(orth, orth.transpose(0, 2, 1, 3), atol=1e-12)


# -- totally geodesic residuals --------------------------------------------------


def test_plane_is_totally_geodesic():
    patch = shapes.plane()
    worst, _ = tgs_scan(frames_at(patch, patch.domain.grid(7)))
    assert worst < 1e-13
    worst, _ = tgs_scan(_frames(patch, (0.3, -0.4)))
    assert worst < 1e-13


def test_sphere_tgs_residual_is_one():
    # |II(w,w)| / <w,w> = 1 for every direction on the unit sphere
    worst, _ = tgs_scan(frames_at(shapes.sphere(), shapes.sphere().domain.grid(5)))
    assert worst == pytest.approx(1.0, abs=1e-10)


def test_latitude_residual_is_cotangent():
    theta0 = math.pi / 3
    patch = shapes.sphere_cap(theta0)
    got, _ = tgs_scan(_frames(patch, (0.4,)))
    assert got == pytest.approx(1.0 / math.tan(theta0), abs=1e-12)


def test_equator_in_sphere_is_geodesic():
    patch = shapes.circle3(shapes.sphere_ambient())
    worst, _ = tgs_scan(frames_at(patch, patch.domain.grid(9)))
    assert worst < 1e-10


# -- Christoffel symbols -------------------------------------------------------


def test_sphere_christoffels_closed_form():
    th = 0.9
    gamma = christoffels(shapes.sphere(), np.array([[th, 1.3]]))[0]
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -math.sin(th) * math.cos(th)
    expected[1, 0, 1] = expected[1, 1, 0] = math.cos(th) / math.sin(th)
    np.testing.assert_allclose(gamma, expected, atol=1e-10)


def test_torus_christoffels_match_finite_differences():
    patch = shapes.torus()
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.5, 5.5, size=(5, 2))
    got = christoffels(patch, pts)
    ginv = np.linalg.inv(
        np.einsum("bmi,bmj->bij", *(frames_at(patch, pts, order=1).jac,) * 2)
    )
    for b, u in enumerate(pts):
        dg = fd_metric_derivative(patch.chart, u)  # [l, i, j]
        expected = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    s = 0.0
                    for l in range(2):
                        s += ginv[b, k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    expected[k, i, j] = 0.5 * s
        np.testing.assert_allclose(got[b], expected, atol=1e-6)


def test_christoffel_symmetry_in_lower_indices():
    gamma = christoffels(shapes.torus(), np.array([[0.7, 2.2]]))
    np.testing.assert_allclose(gamma, gamma.transpose(0, 1, 3, 2), atol=1e-12)


# -- nested curvature ----------------------------------------------------------


def _nested(parent, sub_chart, points):
    """(nested form, parent frames) of L at its parameter points."""
    jets = sub_chart.eval_jets(np.asarray(points, dtype=float), order=2)
    frames_m = frames_at(parent, jets.value)
    return nested_second_form(jets, frames_m), frames_m


def _decomposition(parent, sub_chart, box, resolution=9):
    pts = box.grid(resolution)
    nested, frames_m = _nested(parent, sub_chart, pts)
    frames_l = frames_at(composed_patch(parent, sub_chart, box), pts)
    return bang_decomposition_check(nested, frames_l, frames_m)


def test_equator_nested_in_sphere_is_geodesic():
    sub = parse_chart("(pi/2, s)", ("s",))
    s = np.linspace(0.1, 6.0, 9)[:, None]
    nested, _ = _nested(shapes.sphere(), sub, s)
    assert np.abs(nested.ii_in_parent).max() < 1e-10
    assert np.abs(nested.mean_in_parent).max() < 1e-10


def test_nested_second_form_evaluates_parent_jets_once(monkeypatch):
    # each nested check evaluates the parent chart once, at order 2: the
    # parent frames at the mapped points serve the second form in the
    # parent, the membership residual and the decomposition check
    parent = shapes.sphere()
    sub = parse_chart("(pi/2, s)", ("s",))
    field = ConstantField([0.0, 0.0, 1.0])
    calls = []
    eval_jets = ChartExpr.eval_jets

    def spy(self, points, order=2):
        if self is parent.chart:
            calls.append(order)
        return eval_jets(self, points, order)

    monkeypatch.setattr(ChartExpr, "eval_jets", spy)
    for check in (orthogonal_tgs_check, tgs_helix_check, minimality_criterion):
        calls.clear()
        check(parent, sub, Box((0.0,), (TWO_PI,), (True,)), field, resolution=7)
        assert calls == [2], check.__name__


def test_latitude_nested_mean_is_geodesic_curvature():
    theta0 = math.pi / 3
    sub = parse_chart("(th0, s)", ("s",), {"th0": theta0})
    s = np.linspace(0.0, 6.0, 7)[:, None]
    nested, _ = _nested(shapes.sphere(), sub, s)
    norms = np.linalg.norm(nested.mean_in_parent, axis=1)
    np.testing.assert_allclose(norms, 1.0 / math.tan(theta0), atol=1e-10)
    # the curvature vector stays tangent to the sphere
    x = shapes.sphere().chart.eval_values(nested.parent_points)
    rad = np.einsum("bm,bm->b", nested.mean_in_parent, x)
    np.testing.assert_allclose(rad, 0.0, atol=1e-10)


def test_decomposition_residuals_vanish():
    eq = parse_chart("(pi/2, s)", ("s",))
    loop = Box((0.0,), (TWO_PI,), (True,))
    rep = _decomposition(shapes.sphere(), eq, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9

    lat = parse_chart("(th0, s)", ("s",), {"th0": math.pi / 3})
    rep = _decomposition(shapes.sphere(), lat, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9

    outer = parse_chart("(0, s)", ("s",))
    rep = _decomposition(shapes.torus(), outer, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9
    assert rep.n_points == 9


def test_decomposition_on_tilted_curve():
    # a non-symmetric curve inside the torus still satisfies additivity
    sub = parse_chart("(s, 2*s)", ("s",))
    rep = _decomposition(shapes.torus(), sub, Box((0.0,), (TWO_PI,), (True,)),
                         resolution=11)
    assert rep.ii_residual < 1e-8
    assert rep.mean_residual < 1e-8

