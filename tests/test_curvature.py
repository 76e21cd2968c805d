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
    normal_connection_derivative,
    principal_curvatures,
    second_form_components,
    second_fundamental_form,
    shape_operator,
    tgs_scan,
    totally_geodesic_residual,
)
from shadowgeom.expr import parse_chart
from shadowgeom.fields import ConstantField, ExprField
from shadowgeom.geometry import Box, GeometryError, frames_at

import shapes
from oracles import fd_metric_derivative

TWO_PI = 2.0 * math.pi


# -- hand-checked second forms -------------------------------------------------


def test_sphere_second_form_is_minus_metric():
    # outward radial normal: II(w, w) = -<w, w> x on the unit sphere
    sf = second_fundamental_form(shapes.sphere(), (math.pi / 2, 0.3))
    np.testing.assert_allclose(sf.orth[:, :, 0], -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        principal_curvatures(shapes.sphere(), (math.pi / 2, 0.3)), [-1.0, -1.0],
        atol=1e-12,
    )
    assert gauss_kronecker(shapes.sphere(), (1.1, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_sphere_mean_curvature_vector():
    h = mean_curvature(shapes.sphere(), (math.pi / 2, 0.0))
    np.testing.assert_allclose(h, [-1.0, 0.0, 0.0], atol=1e-12)


def test_torus_outer_equator_curvatures():
    patch = shapes.torus()
    ks = principal_curvatures(patch, (0.0, 0.0))
    np.testing.assert_allclose(ks, [-1.0, -1.0 / 3.0], atol=1e-12)
    s = shape_operator(patch, (0.0, 0.0))
    np.testing.assert_allclose(s, np.diag([-1.0, -1.0 / 3.0]), atol=1e-12)
    assert gauss_kronecker(patch, (0.0, 0.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    h = mean_curvature(patch, (0.0, 0.0))
    np.testing.assert_allclose(h, [-2.0 / 3.0, 0.0, 0.0], atol=1e-12)


def test_cylinder_curvatures():
    patch = shapes.cylinder()
    ks = principal_curvatures(patch, (0.3, 0.2))
    np.testing.assert_allclose(ks, [-1.0, 0.0], atol=1e-12)
    assert gauss_kronecker(patch, (0.3, 0.2)) == pytest.approx(0.0, abs=1e-12)


def test_saddle_origin():
    patch = shapes.saddle(a=0.5)
    sf = second_fundamental_form(patch, (0.0, 0.0))
    np.testing.assert_allclose(sf.coord[:, :, 0], [[0.0, 0.5], [0.5, 0.0]], atol=1e-13)
    np.testing.assert_allclose(
        principal_curvatures(patch, (0.0, 0.0)), [-0.5, 0.5], atol=1e-13
    )
    assert gauss_kronecker(patch, (0.0, 0.0)) == pytest.approx(-0.25, abs=1e-13)
    np.testing.assert_allclose(mean_curvature(patch, (0.0, 0.0)), 0.0, atol=1e-13)


def test_second_form_vector_contraction():
    sf = second_fundamental_form(shapes.sphere(), (math.pi / 2, 0.0))
    v = sf.vector(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(v, [-1.0, 0.0, 0.0], atol=1e-12)


def test_circle_curvature_vector():
    h = mean_curvature(shapes.circle3(), (0.0,))
    np.testing.assert_allclose(h, [-1.0, 0.0, 0.0], atol=1e-12)


def test_gauss_kronecker_requires_hypersurface():
    with pytest.raises(GeometryError):
        gauss_kronecker(shapes.circle3(), (0.0,))


def test_orth_components_symmetric():
    frames = frames_at(shapes.torus(), np.array([[0.4, 1.3], [2.0, 5.1]]))
    coord, orth = second_form_components(frames)
    np.testing.assert_array_equal(coord, coord.transpose(0, 2, 1, 3))
    np.testing.assert_allclose(orth, orth.transpose(0, 2, 1, 3), atol=1e-12)


# -- totally geodesic residuals --------------------------------------------------


def test_plane_is_totally_geodesic():
    patch = shapes.plane()
    worst, _ = tgs_scan(patch, patch.domain.grid(7))
    assert worst < 1e-13
    assert totally_geodesic_residual(patch, (0.3, -0.4), (1.0, 2.0)) < 1e-13


def test_sphere_tgs_residual_is_one():
    # |II(w,w)| / <w,w> = 1 for every direction on the unit sphere
    worst, _ = tgs_scan(shapes.sphere(), shapes.sphere().domain.grid(5))
    assert worst == pytest.approx(1.0, abs=1e-10)


def test_latitude_residual_is_cotangent():
    theta0 = math.pi / 3
    patch = shapes.sphere_cap(theta0)
    got = totally_geodesic_residual(patch, (0.4,), (1.0,))
    assert got == pytest.approx(1.0 / math.tan(theta0), abs=1e-12)


def test_equator_in_sphere_is_geodesic():
    patch = shapes.circle3(shapes.sphere_ambient())
    worst, _ = tgs_scan(patch, patch.domain.grid(9))
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


def test_equator_nested_in_sphere_is_geodesic():
    sub = parse_chart("(pi/2, s)", ("s",))
    s = np.linspace(0.1, 6.0, 9)[:, None]
    nested = nested_second_form(shapes.sphere(), sub, s)
    assert np.abs(nested.ii_in_parent).max() < 1e-10
    assert np.abs(nested.mean_in_parent).max() < 1e-10


def test_latitude_nested_mean_is_geodesic_curvature():
    theta0 = math.pi / 3
    sub = parse_chart("(th0, s)", ("s",), {"th0": theta0})
    s = np.linspace(0.0, 6.0, 7)[:, None]
    nested = nested_second_form(shapes.sphere(), sub, s)
    norms = np.linalg.norm(nested.mean_in_parent, axis=1)
    np.testing.assert_allclose(norms, 1.0 / math.tan(theta0), atol=1e-10)
    # the curvature vector stays tangent to the sphere
    x = shapes.sphere().chart.eval_values(nested.parent_points)
    rad = np.einsum("bm,bm->b", nested.mean_in_parent, x)
    np.testing.assert_allclose(rad, 0.0, atol=1e-10)


def test_decomposition_residuals_vanish():
    eq = parse_chart("(pi/2, s)", ("s",))
    loop = Box((0.0,), (TWO_PI,), (True,))
    rep = bang_decomposition_check(shapes.sphere(), eq, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9

    lat = parse_chart("(th0, s)", ("s",), {"th0": math.pi / 3})
    rep = bang_decomposition_check(shapes.sphere(), lat, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9

    outer = parse_chart("(0, s)", ("s",))
    rep = bang_decomposition_check(shapes.torus(), outer, loop)
    assert rep.ii_residual < 1e-9
    assert rep.mean_residual < 1e-9
    assert rep.n_points == 9


def test_decomposition_on_tilted_curve():
    # a non-symmetric curve inside the torus still satisfies additivity
    sub = parse_chart("(s, 2*s)", ("s",))
    rep = bang_decomposition_check(
        shapes.torus(), sub, Box((0.0,), (TWO_PI,), (True,)), resolution=11
    )
    assert rep.ii_residual < 1e-8
    assert rep.mean_residual < 1e-8


# -- normal connection ----------------------------------------------------------


def test_cylinder_outward_normal_is_connection_parallel():
    patch = shapes.cylinder()
    nu = ExprField(parse_chart("(cos(u), sin(u), 0)", ("u", "v")))
    for w in ((1.0, 0.0), (0.0, 1.0)):
        d = normal_connection_derivative(patch, nu, (0.4, 0.1), w)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)


def test_normal_connection_rejects_tangent_field():
    patch = shapes.cylinder()
    axial = ConstantField([0.0, 0.0, 1.0])  # tangent along the rulings
    with pytest.raises(GeometryError):
        normal_connection_derivative(patch, axial, (0.4, 0.1), (1.0, 0.0))
