"""Adapted frames, tangent/normal splitting, and patch validation."""

import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowgeom import geometry
from shadowgeom.expr import parse_chart
from shadowgeom.fields import ConstantField, ExprField
from shadowgeom.geometry import (
    AmbientSpace,
    Box,
    ChartRankError,
    OffAmbientError,
    SubmanifoldPatch,
    ambient_tangent_basis,
    column_signs,
    composed_patch,
    frames_at,
    validate_patch,
)
from shadowgeom.cli import SCENES_DIR
from shadowgeom.helix import _split_components, tube_patch
from shadowgeom.reporting import canonical_json
from shadowgeom.scene import SceneError, load_scene, parse_scene
from shadowgeom.shadow import product_patch
from shadowgeom.tolerances import DEFAULT_TOLS
from shadowgeom.transport import parallelity_residual

import shapes

TWO_PI = 2.0 * math.pi


# -- parameter boxes ----------------------------------------------------------


def test_box_grids_and_wrap():
    box = Box((0.0, 0.0), (TWO_PI, 1.0), (True, False))
    np.testing.assert_allclose(
        box.axis_grid(0, 4), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    )
    np.testing.assert_allclose(box.axis_grid(1, 3), [0.0, 0.5, 1.0])

    grid = box.grid((4, 3))
    assert grid.shape == (12, 2)
    np.testing.assert_allclose(grid[0], [0.0, 0.0])
    np.testing.assert_allclose(grid[1], [0.0, 0.5])  # last axis varies fastest
    np.testing.assert_allclose(grid[3], [math.pi / 2, 0.0])

    wrapped = box.wrap([[TWO_PI + 0.3, 2.0]])
    np.testing.assert_allclose(wrapped, [[0.3, 2.0]])  # only periodic axes move

    assert box.cell_sizes((4, 3)) == (TWO_PI / 4, 0.5)
    assert not box.contains([0.5, 1.2])[0]
    assert box.contains([0.5, 1.2], pad=0.3)[0]
    assert box.contains([99.0, 0.5])[0]  # periodic axis never excludes

    d = box.param_distance(np.array([0.1, 0.0]), np.array([TWO_PI - 0.1, 0.0]))
    assert d == pytest.approx(0.2, abs=1e-12)


def test_wrap_maps_just_below_lo_to_lo():
    box = Box((0.0,), (TWO_PI,), (True,))
    # -1e-17 + 2 pi rounds to 2 pi itself, which lies outside [0, 2 pi)
    assert box.wrap([[-1e-17]])[0, 0] == 0.0


_WRAP_BOXES = (Box((0.0,), (TWO_PI,), (True,)), Box((0.2,), (2.0,), (True,)),
               Box((-math.pi,), (math.pi,), (True,)))


def _near(edge):
    offset = st.one_of(st.floats(-1e-12, 1e-12), st.floats(-50.0, 50.0),
                       st.integers(-4, 4).map(lambda n: n * 1e-16))
    return offset.map(lambda d: edge + d)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(range(len(_WRAP_BOXES))), data=st.data())
def test_wrap_lands_in_box_and_is_idempotent(which, data):
    box = _WRAP_BOXES[which]
    lo, hi = box.lo[0], box.hi[0]
    x = data.draw(st.one_of(_near(lo), _near(hi),
                            st.sampled_from([np.nextafter(lo, -np.inf),
                                             np.nextafter(hi, np.inf), lo, hi])))
    w = box.wrap([[x]])
    assert lo <= w[0, 0] < hi
    assert box.wrap(w).tobytes() == w.tobytes()


def test_wrap_returns_in_range_coordinates_unchanged():
    # lo + mod(x - lo, span) re-rounds x whenever lo != 0: on [-pi, pi) it
    # moved 9,144 of these 10,000 points, by up to 2.2e-16
    box = Box((-math.pi, 0.0), (math.pi, 1.0), (True, False))
    x = np.random.default_rng(0).uniform(-0.3, 0.3, size=(10000, 2))
    assert box.wrap(x).tobytes() == x.tobytes()
    edges = np.array([[-math.pi, 0.5], [np.nextafter(math.pi, 0.0), 0.5]])
    assert box.wrap(edges).tobytes() == edges.tobytes()


def test_box_rejects_empty_axis():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,), (False,))


# -- frames on classical patches ----------------------------------------------


def test_sphere_frame_at_equator():
    f = frames_at(shapes.sphere(), [(math.pi / 2, 0.0)])
    np.testing.assert_allclose(f.x[0], [1.0, 0.0, 0.0], atol=1e-15)
    # d_theta = (0,0,-1) flips sign under the largest-component rule
    np.testing.assert_allclose(f.tangent[0, :, 0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(f.tangent[0, :, 1], [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f.normal[0, :, 0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f.metric[0], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.jac[0] @ f.rinv[0], f.tangent[0], atol=1e-14)


def test_circle_in_flat_space_normal_frame_order():
    f = frames_at(shapes.circle3(), [(0.0,)])
    np.testing.assert_allclose(f.tangent[0, :, 0], [0.0, 1.0, 0.0], atol=1e-15)
    assert f.normal.shape == (1, 3, 2)
    # pivoted span ties resolve to the first ambient axis, signs positive
    np.testing.assert_allclose(f.normal[0, :, 0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f.normal[0, :, 1], [0.0, 0.0, 1.0], atol=1e-15)


def test_equator_inside_sphere_ambient():
    patch = shapes.circle3(shapes.sphere_ambient())
    assert patch.codim == 1
    f = frames_at(patch, [(0.0,)])
    amb = f.ambient[0]
    assert amb.shape == (3, 2)
    np.testing.assert_allclose(amb.T @ amb, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(amb.T @ f.x[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(f.normal[0, :, 0], [0.0, 0.0, 1.0], atol=1e-12)


def test_frame_gram_identities_on_torus():
    patch = shapes.torus()
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, TWO_PI, size=(17, 2))
    frames = frames_at(patch, pts)
    eye_n = np.broadcast_to(np.eye(2), (17, 2, 2))
    np.testing.assert_allclose(
        np.einsum("bmi,bmj->bij", frames.tangent, frames.tangent), eye_n, atol=1e-10
    )
    k = frames.k
    np.testing.assert_allclose(
        np.einsum("bmi,bmj->bij", frames.normal, frames.normal),
        np.broadcast_to(np.eye(k), (17, k, k)),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        np.einsum("bmi,bmj->bij", frames.tangent, frames.normal), 0.0, atol=1e-10
    )
    np.testing.assert_allclose(
        np.einsum("bmn,bnj->bmj", frames.jac, frames.rinv), frames.tangent, atol=1e-9
    )
    np.testing.assert_allclose(
        frames.metric, np.einsum("bmi,bmj->bij", frames.jac, frames.jac), atol=1e-13
    )


def test_frames_are_bit_deterministic():
    patch = shapes.torus()
    pts = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(9, 2))
    a = frames_at(patch, pts)
    b = frames_at(patch, pts)
    assert np.array_equal(a.tangent, b.tangent)
    assert np.array_equal(a.normal, b.normal)
    assert np.array_equal(a.ambient, b.ambient)
    assert np.array_equal(a.rinv, b.rinv)


@pytest.mark.parametrize("make, res", [
    (shapes.torus, 32),
    (lambda: product_patch(shapes.sphere(), shapes.sphere()), 12),
], ids=["torus", "product-spheres"])
def test_lazy_frame_fields_match_eager_bits(make, res):
    patch = make()
    frames = frames_at(patch, patch.domain.grid(res))
    assert "metric" not in vars(frames) and "rinv" not in vars(frames)
    eager_metric = np.einsum("bmi,bmj->bij", frames.jac, frames.jac)
    assert frames.metric.tobytes() == eager_metric.tobytes()
    assert frames.rinv.tobytes() == np.linalg.inv(frames.r).tobytes()
    assert frames.rinv is frames.rinv and frames.metric is frames.metric


def _bundled_flat_patches():
    """Every patch over a flat ambient that a bundled scene or test shape
    builds: root patches, products, tubes and composed nested patches."""
    for path in sorted(glob.glob(os.path.join(SCENES_DIR, "*.scene"))):
        scene = load_scene(path)
        patches = dict(scene.patches)
        for name, spec in scene.nested.items():
            patches[name] = composed_patch(scene.patches[spec.parent], spec.chart,
                                           spec.domain, name)
        if scene.product is not None:
            patches["product"] = product_patch(*(scene.patch(n) for n in scene.product))
        if scene.tube is not None:
            patches["tube"] = tube_patch(scene.patch(scene.tube.of), scene.tube.direction,
                                         scene.tube.eps)[0]
        for name, patch in patches.items():
            yield f"{scene.name}/{name}", patch
    for name in sorted(shapes.BUILTIN_PATCHES):
        yield f"shapes/{name}", shapes.build_patch(name)


FLAT_PATCHES = [(name, p) for name, p in _bundled_flat_patches()
                if p.ambient.flat and p.codim > 0]


def _einsum_form_normal(frames):
    """The normal as built with q^T amb taken by an einsum against the
    identity, the flat ambient's basis."""
    q, amb = frames.tangent, frames.ambient
    k = amb.shape[2] - q.shape[2]
    resid = amb - q @ np.einsum("bmn,bmd->bnd", q, amb)
    normal = geometry.orthonormal_span(resid, k, q, frames.points)
    if k > 1:
        return geometry.fix_column_signs(normal)
    orient = np.concatenate([frames.jac, normal], axis=2)
    return normal * np.where(np.linalg.slogdet(orient)[0] < 0, -1.0, 1.0)[:, None, None]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name, patch", FLAT_PATCHES, ids=[n for n, _ in FLAT_PATCHES])
def test_flat_frames_match_the_identity_contraction(name, patch, order):
    # q^T differs from einsum(q, eye) only in the sign of exact zeros,
    # which amb - q q^T amb turns to +0 either way
    rng = np.random.default_rng(19)
    box = patch.domain
    pts = np.concatenate([box.grid(7), rng.uniform(box.lo, box.hi, size=(9, box.n))])
    frames = frames_at(patch, pts, order=order)
    assert frames.normal.tobytes() == _einsum_form_normal(frames).tobytes()


def test_order_one_frames_skip_hessian():
    frames = frames_at(shapes.plane(), np.zeros((1, 2)), order=1)
    assert frames.hess is None
    full = frames_at(shapes.plane(), np.zeros((1, 2)), order=2)
    assert full.hess.shape == (1, 3, 2, 2)


# -- constraint ambients -------------------------------------------------------


def test_product_quadric_kernel_basis():
    names = tuple(f"x{i}" for i in range(1, 7))
    constraint = parse_chart(
        "(x1^2 + x2^2 + x3^2 - 1, x4^2 + x5^2 + x6^2 - 1)", names
    )
    ambient = AmbientSpace(dim=6, constraint=constraint)
    assert ambient.tangent_dim == 4
    x = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    basis = ambient_tangent_basis(ambient, x)
    assert basis.shape == (1, 6, 4)
    np.testing.assert_allclose(
        np.einsum("bmi,bmj->bij", basis, basis)[0], np.eye(4), atol=1e-12
    )
    # gradients at x point along e1 and e6, so the kernel avoids both rows
    np.testing.assert_allclose(basis[0, 0, :], 0.0, atol=1e-12)
    np.testing.assert_allclose(basis[0, 5, :], 0.0, atol=1e-12)
    dc = constraint.eval_jets(x, order=1).jac
    np.testing.assert_allclose(np.einsum("bcm,bmi->bci", dc, basis), 0.0, atol=1e-12)


def test_off_ambient_point_rejected():
    ambient = shapes.sphere_ambient()
    with pytest.raises(OffAmbientError):
        ambient_tangent_basis(ambient, np.array([[1.1, 0.0, 0.0]]))


# -- rank handling ---------------------------------------------------------


def test_cone_apex_rank_failure():
    patch = shapes.cone(r0=0.0)
    with pytest.raises(ChartRankError):
        frames_at(patch, [(0.0, 1.0)])


def _svd_gate_reference(jac, points, tols=DEFAULT_TOLS):
    """The rank gate as an exact SVD of each row in turn, then QR and
    signs; a row with a non-finite entry fails with ratio 0."""
    for i, row in enumerate(jac):
        ratio = 0.0
        if np.isfinite(row).all():
            svals = np.linalg.svd(row, compute_uv=False)
            if svals[-1] >= tols.rank_tol * max(svals[0], 1e-300):
                continue
            ratio = svals[-1] / max(svals[0], 1e-300)
        raise ChartRankError(
            f"chart Jacobian is rank-deficient (singular value ratio {ratio:.3e})",
            points[i],
        )
    q, r = np.linalg.qr(jac)
    signs = column_signs(q)
    return q * signs[:, None, :], r * signs[:, :, None]


def _gate_outcome(gate, jac, points):
    """What a gate does: the error type, message and point, or the bits of q
    and of the inverse of its R factor."""
    try:
        q, r = gate(jac, points, DEFAULT_TOLS)
        rinv = np.linalg.inv(r)
    except (ChartRankError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)
    return q.tobytes(), rinv.tobytes()


def _rank_error(gate, jac, points):
    """The error type, message and point a gate raises, or None."""
    try:
        gate(jac, points, DEFAULT_TOLS)
    except (ChartRankError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)
    return None


def _assert_gates_agree(jac):
    # the QR gate of frames_at and the Gram gate of normal_component both
    # raise what the exact SVD of every row raises
    points = np.arange(2.0 * jac.shape[0]).reshape(-1, 2)
    assert (_gate_outcome(geometry._certified_qr, jac, points)
            == _gate_outcome(_svd_gate_reference, jac, points))
    assert (_rank_error(geometry._gram_rank_gated, jac, points)
            == _rank_error(_svd_gate_reference, jac, points))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), m=st.integers(1, 5),
       data=st.data())
def test_rank_gate_matches_exact_svd_gate(seed, b, m, data):
    # columns scaled so sigma_min / sigma_max spans 1e-6 to 1e-11 around
    # rank_tol = 1e-8, mixed with healthy rows and any overall magnitude;
    # a large shear then makes columns nearly parallel with no small pivot
    # of R, so the QR bound, not the pivot test, has to send the row on
    n = data.draw(st.integers(1, m))

    def per_row(low, high):
        return data.draw(st.lists(st.one_of(st.floats(*low), st.floats(*high)),
                                  min_size=b, max_size=b))

    decades = np.array(per_row((-11.0, -6.0), (-1.0, 0.0)))
    shears = np.array(per_row((-2.0, 0.0), (2.5, 6.0)))
    scale = data.draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(seed)
    steps = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    cols = 10.0 ** (decades[:, None] * rng.permutation(steps)[None, :] + scale)
    upper = np.eye(n) + 10.0 ** shears[:, None, None] * np.triu(np.ones((n, n)), 1)
    _assert_gates_agree((rng.standard_normal((b, m, n)) * cols[:, None, :]) @ upper)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       decade=st.floats(-12.0, 0.0), shear=st.floats(-2.0, 6.0),
       scale=st.floats(-3.0, 3.0))
def test_rank_bound_never_exceeds_singular_value_ratio(seed, n, decade, shear, scale):
    # prod (|r_ii| / |R|_F) <= sigma_min / sigma_max, the bound `_certified_qr`
    # clears rows with; the slack covers the rounding of the SVD's sigma_min
    # (about eps * sigma_max), far inside the _RANK_BOUND_SAFETY margin
    rng = np.random.default_rng(seed)
    steps = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    cols = 10.0 ** (decade * rng.permutation(steps) + scale)
    upper = np.eye(n) + 10.0 ** shear * np.triu(np.ones((n, n)), 1)
    r = np.linalg.qr((rng.standard_normal((n, n)) * cols) @ upper)[1]
    bound = np.prod(np.abs(np.diagonal(r)) / np.linalg.norm(r))
    svals = np.linalg.svd(r, compute_uv=False)
    assert bound <= svals[-1] / svals[0] + 8 * n * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), extra=st.integers(0, 2),
       decade=st.floats(-12.0, 0.0), shear=st.floats(-2.0, 6.0),
       scale=st.floats(-250.0, 250.0))
def test_gram_rank_bound_slack(seed, n, extra, decade, shear, scale):
    # sqrt(det g) / (tr g)^(n/2) <= rho holds exactly; computed, the bound
    # exceeds rho by at most its stated slack, sqrt(rho^2 + delta) with
    # delta = `_gram_error(n, m)`, at any overall magnitude; the extra
    # 8 n eps covers the rounding of the SVD's rho, as above
    m = n + extra
    rng = np.random.default_rng(seed)
    steps = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    cols = 10.0 ** (decade * rng.permutation(steps) + scale)
    upper = np.eye(n) + 10.0 ** shear * np.triu(np.ones((n, n)), 1)
    jac = ((rng.standard_normal((m, n)) * cols) @ upper)[None]
    scaled = geometry._pow2_scaled(np.ascontiguousarray(jac.transpose(1, 2, 0)))
    g = geometry._gram(scaled)
    bound = geometry._gram_rank_bound(g, geometry._det(g))[0]
    svals = np.linalg.svd(jac[0], compute_uv=False)
    rho = svals[-1] / svals[0] + 8 * n * np.finfo(float).eps
    assert bound <= math.sqrt(rho**2 + geometry._gram_error(n, m))


def test_gram_gate_defers_to_svd_below_its_certified_range():
    # nearly parallel columns with sigma_min / sigma_max = 5.2e-14: forming
    # g squares that below eps, and the computed bound reads 5.8e-9.  At
    # rank_tol = 1e-12 that would clear the 16x margin, so there every row
    # takes the exact SVD instead; at the default 1e-8 the bound is low
    a = np.array([1.0, 0.9, 0.1])
    jac = np.stack([a, a + 1e-13 * np.array([1.0, -1.0, 0.0])], axis=1)[None]
    g = geometry._gram(geometry._pow2_scaled(np.ascontiguousarray(jac.transpose(1, 2, 0))))
    assert 16e-12 < geometry._gram_rank_bound(g, geometry._det(g))[0] < 16e-8
    for rank_tol in (1e-12, 1e-8):
        tols = DEFAULT_TOLS.with_overrides({"rank_tol": rank_tol})
        with pytest.raises(ChartRankError, match=r"ratio 5\.231e-14\) at parameters \(0\.0,\)"):
            geometry._gram_rank_gated(jac, np.zeros((1, 1)), tols)


def test_rank_gate_bound_catches_healthy_pivots():
    # R = [[1, 1e5], [0, 1]]: no pivot is small, but sigma_min / sigma_max
    # is about 1e-10, so only the exact SVD of the low-bound row rejects it
    patch = SubmanifoldPatch(parse_chart("(u + 1e5*v, v, 0)", ("u", "v")),
                             Box((-1.0, -1.0), (1.0, 1.0), (False, False)),
                             AmbientSpace(3))
    pts = np.array([[0.5, 0.25], [0.0, 0.0]])
    jac = patch.chart.eval_jets(pts, order=1).jac
    r = np.linalg.qr(jac)[1]
    assert np.abs(np.diagonal(r, axis1=1, axis2=2)).min() == 1.0
    with pytest.raises(ChartRankError) as caught:
        frames_at(patch, pts)
    with pytest.raises(ChartRankError) as expected:
        _svd_gate_reference(jac, pts)
    assert str(caught.value) == str(expected.value)
    assert "singular value ratio 1.000e-10" in str(caught.value)
    _assert_gates_agree(jac)


def test_rank_gate_exactly_singular_column():
    patch = SubmanifoldPatch(parse_chart("(u, u^2, 0)", ("u", "v")),
                             Box((-1.0, -1.0), (1.0, 1.0), (False, False)),
                             AmbientSpace(3))
    with pytest.raises(ChartRankError, match=r"singular value ratio 0\.000e\+00\) "
                       r"at parameters \(0\.5, 0\.0\)"):
        frames_at(patch, [(0.5, 0.0)])
    jac = np.random.default_rng(5).standard_normal((4, 3, 2))
    jac[2, :, 1] = 0.0
    _assert_gates_agree(jac)
    jac[2, :, 1] = jac[2, :, 0]
    _assert_gates_agree(jac)
    jac[2] = 0.0
    _assert_gates_agree(jac)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 1)])
def test_rank_gate_non_finite_jacobian(bad, where):
    jac = np.random.default_rng(7).standard_normal((3, 3, 2))
    jac[where] = bad
    _assert_gates_agree(jac)
    jac[:] = bad
    _assert_gates_agree(jac)


WIDE_SCENE = """scene wide

ambient {
  dim = 1
}

patch w {
  chart = (u + v)
  params = u, v
  lo = 0, 0
  hi = 1, 1
}
"""


def test_patch_wider_than_flat_ambient_is_refused_at_construction():
    # two parameters in R^1: R would be 1 x 2 and k = -1, so no frame exists;
    # the patch is refused before any is asked for, and a scene names the line
    with pytest.raises(ValueError, match=r"patch dimension 2 exceeds ambient "
                       r"tangent dimension 1"):
        SubmanifoldPatch(parse_chart("(u + v)", ("u", "v")),
                         Box((0.0, 0.0), (1.0, 1.0), (False, False)), AmbientSpace(1))
    with pytest.raises(SceneError, match=r"^wide:7: patch dimension 2 exceeds ambient "
                       r"tangent dimension 1$"):
        parse_scene(WIDE_SCENE, "wide")


def test_patch_wider_than_its_constraint_leaves_is_refused():
    # the unit circle in R^2 has one tangent direction; a 2-parameter chart
    # into it has R^2 to map into but no room for both parameters
    circle = AmbientSpace(2, parse_chart("(x1^2 + x2^2 - 1)", ("x1", "x2")))
    with pytest.raises(ValueError, match=r"patch dimension 2 exceeds ambient "
                       r"tangent dimension 1"):
        SubmanifoldPatch(parse_chart("(cos(u + v), sin(u + v))", ("u", "v")),
                         Box((0.0, 0.0), (1.0, 1.0), (False, False)), circle)


def test_rank_rule_fails_zero_and_nan_rows():
    svals = np.array([[2.0, 1.0], [1.0, 1e-9], [0.0, 0.0], [np.nan, np.nan], [1.0, np.nan]])
    assert geometry.rank_ok(svals, DEFAULT_TOLS).tolist() == [True, False, False, False,
                                                              False]
    points = np.array([[0.5], [1.0]])
    gates = (("chart", np.array([np.eye(3, 2)] * 2),
              lambda jac: geometry._rank_gate(jac, np.zeros(2), points, DEFAULT_TOLS)),
             ("constraint", np.array([[[1.0, 0.0, 0.0]]] * 2),
              lambda dc: geometry.constraint_kernel(dc, points, DEFAULT_TOLS)))
    # a zero row, and a row with an infinite entry, whose singular values are
    # NaN and whose ratio reads 0
    for what, healthy, gate in gates:
        for where, bad, ratio in ((0, 0.0, r"0\.000e\+00"), ((0, 0), np.inf, r"0\.000e\+00")):
            jac = healthy.copy()
            jac[where] = bad
            with pytest.raises(ChartRankError, match=rf"^{what} Jacobian is rank-deficient "
                               rf"\(singular value ratio {ratio}\) at parameters \(0\.5,\)$"):
                gate(jac)


def test_validate_counts_a_nan_chart_row_as_a_rank_failure(monkeypatch):
    patch = SubmanifoldPatch(parse_chart("(u, v, 0)", ("u", "v")),
                             Box((0.0, 0.0), (1.0, 1.0), (False, False)), AmbientSpace(3))
    real = type(patch.chart).eval_jets

    def jets(chart, points, order=2):
        out = real(chart, points, order=order)
        out.jac[1, 2, 0] = np.inf  # the singular values of row (0, 0.5) are NaN
        return out

    monkeypatch.setattr(type(patch.chart), "eval_jets", jets)
    rep = validate_patch(patch, resolution=3)
    assert not rep.ok
    assert rep.rank_failures == ((0.0, 0.5),)
    assert rep.messages == ("chart Jacobian rank-deficient at 1 of 9 grid points",)


def test_healthy_grid_frames_make_no_svd_call(monkeypatch):
    # the QR bound certifies every row of the product_spheres Newton grid
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(geometry.np.linalg, "svd", spy)
    patch = product_patch(shapes.sphere(), shapes.sphere())
    grid = patch.domain.grid(12)
    assert grid.shape == (20736, 4)
    frames_at(patch, grid, order=1)
    frames_at(patch, grid, order=2)
    assert calls == []
    # the spy does see the exact gate when a row needs it
    jac = np.array([np.eye(3, 2)] * 3)
    jac[1, 0, 1] = 1e5
    with pytest.raises(ChartRankError):
        geometry._certified_qr(jac, np.zeros((3, 2)), DEFAULT_TOLS)
    assert calls == [(1, 3, 2)]


# -- splitting and derivatives ---------------------------------------------


def test_split_tangent_normal_on_sphere():
    # |tan| and |nor| of a tangent and of a normal vector at the equator
    frames = frames_at(shapes.sphere(), np.array([(math.pi / 2, 0.0)]), order=1)
    h, nor, ynorm = _split_components(frames, np.array([[0.0, 0.3, 0.4]]))
    np.testing.assert_allclose([h[0], nor[0], ynorm[0]], [0.5, 0.0, 0.5], atol=1e-14)
    h, nor, ynorm = _split_components(frames, np.array([[0.7, 0.0, 0.0]]))
    np.testing.assert_allclose([h[0], nor[0], ynorm[0]], [0.0, 0.7, 0.7], atol=1e-14)


def test_split_recombines_everywhere():
    patch = shapes.torus()
    rng = np.random.default_rng(5)
    for _ in range(6):
        u = rng.uniform(0.0, TWO_PI, size=(1, 2))
        v = rng.normal(size=3)
        h, nor, ynorm = _split_components(frames_at(patch, u, order=1), v[None, :])
        np.testing.assert_allclose(h**2 + nor**2, np.dot(v, v), atol=1e-12)
        np.testing.assert_allclose(ynorm, np.linalg.norm(v), atol=1e-12)


def test_covariant_derivative_plane_circle():
    # |d/du (-sin u, cos u)| = 1 = |Y|, all of it tangent to the flat plane
    patch = shapes.circle2()
    field = ExprField(parse_chart("(-sin(u), cos(u))", ("u",)))
    got, _ = parallelity_residual(patch, field)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_equator_tangent_field_is_sphere_parallel():
    # the ambient-tangential derivative of the equator's unit tangent vanishes
    patch = shapes.circle3(shapes.sphere_ambient())
    field = ExprField(parse_chart("(-sin(u), cos(u), 0)", ("u",)))
    got, _ = parallelity_residual(patch, field)
    assert got < 1e-10


# -- composition -------------------------------------------------------------


def test_composed_patch_matches_parent_chart():
    parent = shapes.torus()
    sub_chart = parse_chart("(s, 2*s)", ("s",))
    sub_domain = Box((0.0,), (TWO_PI,), (False,))
    nested = composed_patch(parent, sub_chart, sub_domain)
    s = np.array([[0.3], [1.7]])
    expected = parent.chart.eval_values(np.column_stack([s[:, 0], 2 * s[:, 0]]))
    np.testing.assert_array_equal(nested.chart.eval_values(s), expected)
    assert nested.ambient is parent.ambient


def test_composed_patch_checks_arity():
    parent = shapes.torus()
    bad = parse_chart("(s, s, s)", ("s",))
    with pytest.raises(ValueError):
        composed_patch(parent, bad, Box((0.0,), (1.0,), (False,)))


# -- validation --------------------------------------------------------------


def test_validate_healthy_torus():
    rep = validate_patch(shapes.torus())
    assert rep.ok
    assert rep.max_constraint_residual == 0.0
    assert rep.min_jacobian_ratio == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.jacobian_argmin[0] == pytest.approx(0.0)
    assert rep.rank_failures == ()
    d = json.loads(canonical_json(rep))
    assert d["ok"] is True and d["rank_failures"] == [] and d["constraint_argmax"] is None


def test_validate_flags_cone_apex():
    rep = validate_patch(shapes.cone(r0=0.0))
    assert not rep.ok
    assert rep.rank_failures
    assert any("rank-deficient" in m for m in rep.messages)
    assert rep.min_jacobian_ratio < 1e-8


def test_validate_flags_chart_off_ambient():
    chart = parse_chart("(1.1*cos(u), 1.1*sin(u), 0)", ("u",))
    patch = SubmanifoldPatch(
        chart, Box((0.0,), (TWO_PI,), (True,)), shapes.sphere_ambient()
    )
    rep = validate_patch(patch)
    assert not rep.ok
    assert any("leaves the ambient manifold" in m for m in rep.messages)
    assert rep.max_constraint_residual == pytest.approx(0.21 / 2.1, rel=1e-6)


def test_validate_field_tangency():
    patch = shapes.circle3(shapes.sphere_ambient())
    good = validate_patch(patch, field=ConstantField([0.0, 0.0, 1.0]))
    assert good.ok
    bad = validate_patch(patch, field=ConstantField([1.0, 0.0, 0.0]))
    assert not bad.ok
    assert any("not tangent" in m for m in bad.messages)
    assert bad.max_tangency_residual > 1e-3
