"""Helix angle constancy, hypersurface trichotomy, duality and minimality checks."""

import math
import sys

import numpy as np
import pytest

from shadowgeom import geometry, helix, transport
from shadowgeom.cli import _root_setup, find_scene
from shadowgeom.curvature import gauss_kronecker, mean_curvature
from shadowgeom.expr import parse_chart
from shadowgeom.fields import ConstantField
from shadowgeom.geometry import (
    Box,
    ChartRankError,
    DomainExitError,
    GeometryError,
    SubmanifoldPatch,
    frames_at,
)
from shadowgeom.helix import (
    _auto_t1,
    _halving_retry,
    _seed_grid,
    _split_components,
    _tan_flow,
    classify_hypersurface_helix,
    geodesic_alignment_check,
    helix_constancy_report,
    minimality_criterion,
    orthogonal_tgs_check,
    tgs_helix_check,
    tube_patch,
)
from shadowgeom.scene import load_scene
from shadowgeom.transport import rk4_tracks

import shapes
from shapes import flat_ambient

TWO_PI = 2.0 * math.pi
E1 = ConstantField([1.0, 0.0, 0.0])
E3 = ConstantField([0.0, 0.0, 1.0])

CIRCLE_BOX = Box((0.0,), (TWO_PI,), (True,))


def equator_chart(theta0=math.pi / 2):
    return parse_chart("(t0, s)", ("s",), {"t0": theta0})


def cylinder_sector():
    chart = parse_chart("(cos(u), sin(u), v)", ("u", "v"))
    box = Box((-0.6, -1.0), (0.6, 1.0), (False, False))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="cylinder_sector")


# -- angle and constancy --------------------------------------------------------


def test_cylinder_angle_is_one_everywhere():
    rep = helix_constancy_report(shapes.cylinder(), E3)
    assert rep.h_mean == 1.0
    assert rep.h_deviation == 0.0
    assert rep.is_helix and rep.tangent and not rep.orthogonal


def test_cone_angle_is_cos_half_angle():
    alpha = 0.5
    rep = helix_constancy_report(shapes.cone(alpha=alpha), E3)
    assert abs(rep.h_mean - math.cos(alpha)) < 1e-12
    assert rep.h_deviation < 1e-8
    assert abs(rep.nor_mean - math.sin(alpha)) < 1e-12
    assert rep.is_helix


def test_sphere_angle_is_sin_colatitude_and_not_constant():
    patch = shapes.sphere(margin=0.1)
    theta = math.pi / 3
    at = np.array([[theta, 0.4]])
    h, _, _ = _split_components(frames_at(patch, at, order=1), E3.values(at))
    assert abs(h[0] - math.sin(theta)) < 1e-12
    rep = helix_constancy_report(patch, E3)
    assert not rep.is_helix
    assert rep.h_deviation > 0.5


def test_plane_with_orthogonal_field_is_orthogonal_helix():
    rep = helix_constancy_report(shapes.plane(), E3)
    assert rep.orthogonal and rep.is_helix
    assert rep.h_mean == 0.0


def test_splitting_pythagoras_on_corpus():
    for patch in (shapes.sphere(), shapes.torus(), shapes.cone(), shapes.saddle()):
        grid = patch.domain.grid(11)
        h, nor, ynorm = _split_components(frames_at(patch, grid, order=1), E3.values(grid))
        np.testing.assert_allclose(h**2 + nor**2, ynorm**2, atol=1e-10)


def test_helix_verdict_invariant_under_field_rescaling():
    big = ConstantField([0.0, 0.0, 1e6])
    small = ConstantField([0.0, 0.0, 1e-6])
    for field in (big, small):
        rep = helix_constancy_report(shapes.cone(), field)
        assert rep.is_helix
        rep = helix_constancy_report(shapes.sphere(), field)
        assert not rep.is_helix


def test_report_as_dict_carries_grid_and_flags():
    rep = helix_constancy_report(shapes.cylinder(), E3, resolution=4)
    d = rep.as_dict()
    assert d["n_points"] == 16
    assert len(d["h_values"]) == 16
    assert d["is_helix"] is True and d["tangent"] is True


# -- codimension-one trichotomy ---------------------------------------------------


def test_classify_orthogonal_case_on_plane():
    report = classify_hypersurface_helix(shapes.plane(), E3)
    assert report.verdict == "confirmed"
    assert report.details["case"] == "orthogonal"
    assert report.conclusions[0].label == "second-form-residual"
    assert report.conclusions[0].value <= 1e-12


def test_classify_tangent_case_on_cylinder():
    report = classify_hypersurface_helix(shapes.cylinder(), E3)
    assert report.verdict == "confirmed"
    assert report.details["case"] == "tangent"
    assert report.conclusions[0].label == "tangential-field-parallel"
    assert report.conclusions[0].value <= 1e-12
    assert "splitting" in report.details["note"]


def test_classify_transversal_case_on_cone():
    report = classify_hypersurface_helix(shapes.cone(), E3)
    assert report.verdict == "confirmed"
    assert report.details["case"] == "transversal"
    # rulings: geodesics of the cone that are straight lines in space
    assert report.hypotheses[0].value < 1e-7
    assert report.conclusions[0].value < 1e-7


def test_classify_rejects_non_helix_sphere():
    report = classify_hypersurface_helix(shapes.sphere(), E3)
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["helix-certified"] is False


def test_classify_rejects_codimension_two():
    report = classify_hypersurface_helix(shapes.circle3(), E3)
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["codimension-one"] is False
    assert report.verdict == "hypotheses-not-met"


# -- integral curves of tan(Y) ------------------------------------------------


def _flow_loop_reference(rhs, box, seeds, t1, steps):
    """The tan(Y) stepping loop as it was before `rk4_tracks`: (traj, vels)."""
    g_count, n = seeds.shape
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    hard = [i for i in range(n) if not box.periodic[i]]
    h = t1 / steps
    u = seeds.copy()
    traj = np.empty((steps + 1, g_count, n))
    vels = np.empty((steps + 1, g_count, n))
    traj[0] = u
    for s in range(steps):
        k1 = rhs(u)
        vels[s] = k1
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        for i in hard:
            assert not (u[:, i] < lo[i] + 1e-9).any()
            assert not (u[:, i] > hi[i] - 1e-9).any()
        traj[s + 1] = u
    vels[steps] = rhs(u)
    return traj, vels


def test_tan_flow_matches_the_reference_loop_bit_for_bit():
    cone = shapes.cone()
    flow = _tan_flow(cone, E3)
    seeds = _seed_grid(cone.domain)
    t1 = _auto_t1(cone.domain, seeds, flow(seeds), frac=0.5)
    ref_traj, ref_vels = _flow_loop_reference(flow, cone.domain, seeds, t1, 512)
    traj = rk4_tracks(flow, seeds, t1 / 512, 512, cone.domain, pad=-1e-9)
    assert np.array_equal(traj, ref_traj)
    assert np.array_equal(flow(traj.reshape(-1, 2)).reshape(traj.shape), ref_vels)


@pytest.mark.parametrize("exits", [0, 1, 3])
def test_halving_retry_halves_t1_once_per_domain_exit(exits):
    tried = []

    def run(t1):
        tried.append(t1)
        if len(tried) <= exits:
            raise DomainExitError("track left the chart domain")
        return "tracks"

    assert _halving_retry(run, 1.0, "curves") == ("tracks", 0.5 ** exits)
    assert tried == [0.5 ** k for k in range(exits + 1)]


def test_halving_retry_gives_up_after_four_exits_and_retries_nothing_else():
    def exits(t1):
        raise DomainExitError("track left the chart domain")

    with pytest.raises(GeometryError, match="curves keep leaving the domain"):
        _halving_retry(exits, 1.0, "curves")

    tried = []

    def rank_drop(t1):
        tried.append(t1)
        raise ChartRankError("rank drop")

    with pytest.raises(ChartRankError):
        _halving_retry(rank_drop, 1.0, "curves")
    assert tried == [1.0]


@pytest.mark.parametrize("resolution", [2, (3, 2)])
def test_helix_test_rejects_a_two_point_axis(resolution):
    # a symmetric 2-point axis samples mirror images only, on which the
    # sphere reads as a constant-angle surface
    with pytest.raises(ValueError, match="at least 3"):
        helix_constancy_report(shapes.sphere(), E3, resolution=resolution)


# -- orthogonal field vs totally geodesic ----------------------------------------


def test_orthogonal_tgs_equator_both_sides_small():
    report = orthogonal_tgs_check(shapes.sphere(), equator_chart(), CIRCLE_BOX,
                                  E3, name="equator")
    assert report.verdict == "confirmed"
    assert report.hypotheses[0].value < 1e-9
    assert report.conclusions[0].value < 1e-8


def test_orthogonal_tgs_latitude_both_sides_large():
    report = orthogonal_tgs_check(shapes.sphere(), equator_chart(math.pi / 3),
                                  CIRCLE_BOX, E3, name="latitude")
    assert report.verdict == "confirmed"
    # membership residual cos(pi/3), geodesic curvature cot(pi/3)
    assert abs(report.hypotheses[0].value - 0.5) < 1e-12
    assert abs(report.conclusions[0].value - 1.0 / math.tan(math.pi / 3)) < 1e-12


def test_orthogonal_tgs_outer_torus_equator():
    report = orthogonal_tgs_check(shapes.torus(), parse_chart("(0, s)", ("s",)),
                                  CIRCLE_BOX, E3, name="outer_equator")
    assert report.verdict == "confirmed"
    assert report.hypotheses[0].status == "small"
    assert report.conclusions[0].status == "small"


def test_orthogonal_tgs_gates_out_flat_nested_patch():
    # a line in a plane is totally geodesic in space: the equivalence degenerates
    report = orthogonal_tgs_check(shapes.plane(), parse_chart("(s, 0)", ("s",)),
                                  Box((-1.5,), (1.5,), (False,)), E3, name="line")
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["nested-curved-in-ambient"] is False


# -- totally geodesic implies helix ----------------------------------------------


def test_tgs_helix_equator_is_orthogonal_helix():
    report = tgs_helix_check(shapes.sphere(), equator_chart(), CIRCLE_BOX, E3,
                             name="equator")
    assert report.verdict == "confirmed"
    assert report.details["orthogonal"] is True


def test_tgs_helix_outer_torus_equator():
    report = tgs_helix_check(shapes.torus(), parse_chart("(0, s)", ("s",)),
                             CIRCLE_BOX, E3, name="outer_equator")
    assert report.verdict == "confirmed"


def test_tgs_helix_vertical_ruling_has_unit_angle():
    ruling = parse_chart("(u0, s)", ("s",), {"u0": math.pi / 2})
    report = tgs_helix_check(shapes.cylinder(), ruling, Box((-0.9,), (0.9,), (False,)),
                             E3, name="ruling")
    assert report.verdict == "confirmed"
    assert abs(report.details["h_mean"] - 1.0) < 1e-12
    assert report.details["tangent"] is True


def test_tgs_helix_gates_on_curved_nested_patch():
    # a latitude is not a geodesic of the sphere: implication does not apply
    report = tgs_helix_check(shapes.sphere(), equator_chart(math.pi / 3), CIRCLE_BOX,
                             E3, name="latitude")
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["shadow-membership"] is False
    assert gate["totally-geodesic-in-parent"] is False


# -- minimality ------------------------------------------------------------------


def test_minimality_equator_in_sphere():
    report = minimality_criterion(shapes.sphere(), equator_chart(), CIRCLE_BOX, E3,
                                  name="equator")
    assert report.verdict == "confirmed"
    assert report.hypotheses[0].status == "small"
    assert report.conclusions[0].status == "small"


@pytest.mark.parametrize("resolution", [1, 0, 16.9])
def test_minimality_rejects_a_degenerate_grid(resolution):
    # one sample cannot support a verdict; a fractional count is no grid
    with pytest.raises(ValueError, match="at least 2"):
        minimality_criterion(shapes.sphere(), equator_chart(), CIRCLE_BOX, E3,
                             resolution=resolution)


def test_minimality_outer_torus_equator():
    report = minimality_criterion(shapes.torus(), parse_chart("(0, s)", ("s",)),
                                  CIRCLE_BOX, E3, name="outer_equator")
    assert report.verdict == "confirmed"


def test_minimality_both_sides_large_on_cylinder_sinusoid():
    # closed curve v = a sin(u) on the unit cylinder: the whole cylinder is the
    # shadow set for e3, the curve is transverse to e3, and it is neither
    # minimal in the cylinder nor g(H, e3)-free
    a = 0.75
    sinusoid = parse_chart("(s, a*sin(s))", ("s",), {"a": a})
    report = minimality_criterion(shapes.cylinder(), sinusoid, CIRCLE_BOX, E3,
                                  name="sinusoid")
    assert report.verdict == "confirmed"
    gate = {p.label: p.value for p in report.preconditions}
    assert abs(gate["field-transverse-to-nested"] - 1.0 / math.sqrt(1 + a * a)) < 1e-12
    assert report.hypotheses[0].status == "large"
    assert report.conclusions[0].status == "large"
    # flat-cylinder curvature of (s, a sin s) peaks at a near s = pi/2
    assert abs(report.hypotheses[0].value - a) < 1e-2
    assert abs(report.conclusions[0].value - a) < 1e-2


def test_minimality_meridian_with_perpendicular_field():
    # e2 is perpendicular to the whole meridian plane: transverse, tangent to
    # the torus along the curve, and the profile circle is a geodesic whose
    # space curvature vector stays in that plane -- both sides vanish
    meridian = parse_chart("(s, 0)", ("s",))
    report = minimality_criterion(shapes.torus(), meridian, CIRCLE_BOX,
                                  ConstantField([0.0, 1.0, 0.0]), name="meridian")
    assert report.verdict == "confirmed"
    assert report.hypotheses[0].value < 1e-10
    assert report.conclusions[0].value < 1e-10


def test_minimality_gates_on_tangent_field():
    # e2 is tangent to the outer equator at p = 0, so transversality fails
    # (and the membership residual sin(p) is large away from the axis plane)
    outer = parse_chart("(0, s)", ("s",))
    report = minimality_criterion(shapes.torus(), outer, CIRCLE_BOX,
                                  ConstantField([0.0, 1.0, 0.0]), name="outer_e2")
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["field-transverse-to-nested"] is False
    assert gate["shadow-membership"] is False


# -- geodesics paired with the field ----------------------------------------------


def test_alignment_selects_rulings_on_cylinder_sector():
    report = geodesic_alignment_check(cylinder_sector(), E1)
    assert report.verdict == "confirmed"
    assert report.details["n_selected"] == 2
    selected = [c for c in report.details["curves"] if c["selected"]]
    for c in selected:
        # vertical rulings: no angular velocity component
        assert abs(c["velocity"][0]) < 1e-12
        assert c["ambient_residual"] < 1e-7


def test_alignment_selects_cone_rulings():
    report = geodesic_alignment_check(shapes.cone(), E3)
    assert report.verdict == "confirmed"
    assert report.details["n_selected"] >= 1
    assert report.conclusions[0].value < 1e-7


def test_alignment_needs_transverse_field():
    # e3 is tangent to the cylinder everywhere: the pairing never sees
    # the normal direction
    report = geodesic_alignment_check(cylinder_sector(), E3)
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p.ok for p in report.preconditions}
    assert gate["field-transverse"] is False


@pytest.mark.parametrize("resolution", [8, 64])
def test_alignment_tests_transversality_at_the_fan_start(resolution):
    # an even grid on the sphere skips the equator, where e3 is tangent;
    # the fan starts there, at the domain midpoint
    report = geodesic_alignment_check(shapes.sphere(), E3, resolution)
    assert report.verdict == "hypotheses-not-met"
    gate = {p.label: p for p in report.preconditions}
    assert gate["field-transverse"].ok is False
    assert gate["field-transverse"].value < 1e-12


# -- cheap gates --------------------------------------------------------------------

# the measuring stages of the checks, by the module that defines them
_STAGES = {"geodesic_traces": transport, "rk4_tracks": transport,
           "TransportField": transport, "helix_constancy_report": helix,
           "_nested_sample": helix, "frames_at": geometry}


def _product_spheres():
    scene = load_scene(find_scene("product_spheres"))
    return _root_setup(scene, scene.tols)


@pytest.mark.parametrize("check, subject, frame_orders", [
    (geodesic_alignment_check, _product_spheres, ()),
    (geodesic_alignment_check, lambda: (shapes.torus(), E3), (1,)),
    (classify_hypersurface_helix, _product_spheres, ()),
    (transport.parallel_normal_frame_tgs_check, lambda: (shapes.sphere_region(),), ()),
], ids=["alignment-codim-2", "alignment-tangent-field", "classification-codim-2",
        "normal-frame-codim-0"])
def test_failed_cheap_gate_runs_no_stage(monkeypatch, check, subject, frame_orders):
    # codimension one and Y parallel are free; Y transverse needs one
    # order-1 frame batch, built only once both hold (`frame_orders`), so
    # no fan, flow, helix grid, nested sample, transported field or other
    # frame batch may follow a failed gate
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            if name != "frames_at" or kwargs.get("order", 2) not in frame_orders:
                calls.append(name)
            return real(*args, **kwargs)
        return call

    for name, home in _STAGES.items():
        real = getattr(home, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("shadowgeom")]:
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, spy(name, real))
    report = check(*subject())
    assert calls == []
    assert report.hypotheses == report.conclusions == ()
    assert report.verdict == "hypotheses-not-met"
    assert not all(p.ok for p in report.preconditions)


# -- sweeps ------------------------------------------------------------------------


def test_tube_of_circle_is_cylinder():
    tube, emb = tube_patch(shapes.circle3(), [0.0, 0.0, 1.0], eps=0.5)
    assert tube.n == 2 and tube.m == 3
    pts = tube.domain.grid(5)
    xs = tube.chart.eval_values(pts)
    np.testing.assert_allclose(xs[:, 0]**2 + xs[:, 1]**2, 1.0, atol=1e-12)
    report = minimality_criterion(tube, emb, shapes.circle3().domain, E3,
                                  name="circle")
    assert report.verdict == "confirmed"
    assert report.hypotheses[0].status == "small"


def test_tube_of_helix_curve_confirms_minimality():
    curve = shapes.helix_curve()
    tube, emb = tube_patch(curve, [0.0, 0.0, 1.0], eps=0.4)
    report = minimality_criterion(tube, emb, curve.domain, E3, name="helix_curve")
    assert report.verdict == "confirmed"
    gate = {p.label: p.value for p in report.preconditions}
    # transversality 1/sqrt(1 + pitch^2) for the unit-circle projection
    assert abs(gate["field-transverse-to-nested"] - 1.0 / math.sqrt(1.0625)) < 1e-12
    # the helix mean curvature points at the axis: g(H, e3) = 0
    assert report.conclusions[0].value < 1e-10


def test_tube_rejects_tangent_direction():
    with pytest.raises(GeometryError, match="tangent"):
        tube_patch(shapes.circle3(), [0.0, 1.0, 0.0])


def test_tube_rejects_curved_ambient_and_bad_direction():
    with pytest.raises(GeometryError, match="flat"):
        tube_patch(shapes.meridian_circle(), [0.0, 0.0, 1.0])
    with pytest.raises(GeometryError, match="nonzero"):
        tube_patch(shapes.circle3(), [0.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="components"):
        tube_patch(shapes.circle3(), [1.0, 0.0])


def test_tube_shadow_set_is_whole_patch():
    from shadowgeom.shadow import extract_shadow_set

    tube, _ = tube_patch(shapes.circle3(), [0.0, 0.0, 1.0], eps=0.5)
    result = extract_shadow_set(tube, E3, resolution=16)
    assert result.degenerate


# -- plane consistency: minimal, helix, and flat at once ---------------------------


def test_plane_is_minimal_helix_with_zero_gauss_kronecker():
    patch = shapes.plane()
    rep = helix_constancy_report(patch, E3)
    assert rep.is_helix and rep.orthogonal
    frames = frames_at(patch, patch.domain.grid(5)[::6])
    assert np.linalg.norm(mean_curvature(frames), axis=1).max() < 1e-12
    assert np.abs(gauss_kronecker(frames)).max() < 1e-12


def test_cylinder_gauss_kronecker_vanishes():
    patch = shapes.cylinder()
    frames = frames_at(patch, patch.domain.grid(7)[::5])
    assert np.abs(gauss_kronecker(frames)).max() < 1e-9
