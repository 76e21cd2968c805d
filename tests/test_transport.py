"""Transport, holonomy probing, transported fields, geodesic traces."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowgeom.cli import find_scene
from shadowgeom.curvature import christoffels
from shadowgeom.expr import ChartExpr, parse_chart
from shadowgeom.fields import ExprField
from shadowgeom.geometry import (
    Box,
    DomainExitError,
    GeometryError,
    OffAmbientError,
    SubmanifoldPatch,
    TangencyError,
    ambient_tangent_basis,
    constraint_kernel,
)
from shadowgeom.helix import geodesic_alignment_check
from shadowgeom.scene import load_scene
from shadowgeom.shadow import product_patch
from shadowgeom.tolerances import Tolerances
import shadowgeom.transport as transport
from shadowgeom.transport import (
    _REACH,
    OBSTRUCTION_CLEAR_NOTE,
    ParamCurve,
    TransportField,
    construct_parallel_field,
    geodesic_traces,
    holonomy_loop,
    parallel_normal_frame_tgs_check,
    parallel_transport,
    parallelity_residual,
    probe_loops,
    rk4_tracks,
    _fold,
    _rk4_increments,
    _step_matrices,
)

import shapes
from oracles import cone_development_angle

TWO_PI = 2.0 * math.pi
THETA0 = math.pi / 3.0


def latitude(theta0=THETA0):
    return shapes.sphere_cap(theta0)


def wrap_loop():
    return ParamCurve.polyline([[0.0], [TWO_PI]], label="wrap")


# -- curves ---------------------------------------------------------------------


def test_polyline_steps_split_by_length():
    curve = ParamCurve.polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    u, du, h = curve.stage_points(9)
    assert u.shape == (9, 3, 2)
    # lengths 1 and 2 get 3 and 6 steps; the corner is an exact boundary
    np.testing.assert_array_equal(u[2, 2], [1.0, 0.0])
    np.testing.assert_array_equal(u[3, 0], [1.0, 0.0])
    np.testing.assert_allclose(h[:3], 1.0 / 3.0)
    np.testing.assert_allclose(h[3:], 1.0 / 6.0)
    np.testing.assert_array_equal(du[0, 0], [1.0, 0.0])
    np.testing.assert_array_equal(du[-1, 2], [0.0, 2.0])


def test_polyline_drops_duplicate_vertices():
    curve = ParamCurve.polyline([[0.0], [0.0], [1.0]])
    assert curve.vertices.shape == (2, 1)
    with pytest.raises(ValueError):
        ParamCurve.polyline([[0.5], [0.5]])


# -- transport -------------------------------------------------------------------


def test_flat_ambient_transport_is_exact_identity():
    patch = shapes.torus()
    curve = ParamCurve.polyline([[0.0, 0.0], [2.0, 1.0], [4.0, 5.0]])
    res = parallel_transport(patch, curve, [0.3, -0.2, 0.9], steps=64)
    assert np.array_equal(res.vectors, np.tile([0.3, -0.2, 0.9], (65, 1)))
    assert res.norm_drift == 0.0
    assert res.tangency_drift == 0.0
    assert res.step_error == 0.0


def test_latitude_transport_drifts_stay_tiny():
    res = parallel_transport(latitude(), wrap_loop(), [0.0, 1.0, 0.0], steps=2048)
    assert res.norm_drift < 1e-12
    assert res.tangency_drift < 1e-12
    assert res.step_error < 1e-12


def test_transport_round_trip_restores_seed():
    patch = latitude()
    seed = np.array([-math.sin(0.2), math.cos(0.2), 0.0])
    fwd = parallel_transport(patch, ParamCurve.polyline([[0.2], [2.5]]), seed, steps=1024)
    back = parallel_transport(patch, ParamCurve.polyline([[2.5], [0.2]]), fwd.vectors[-1], steps=1024)
    np.testing.assert_allclose(back.vectors[-1], seed, atol=1e-10)


def test_seed_vector_must_be_ambient_tangent():
    x0 = latitude().chart.eval_values(np.zeros((1, 1)))[0]
    with pytest.raises(TangencyError):
        parallel_transport(latitude(), wrap_loop(), x0, steps=64)  # radial seed


def test_off_ambient_curve_is_named_by_its_parameter():
    # 0.44 off the unit sphere; a tolerance scaled by |u| ~ 1e8 lets it pass
    chart = parse_chart("(1.2*cos(u), 1.2*sin(u), 0)", ("u",))
    patch = SubmanifoldPatch(chart, Box((1e8,), (1e8 + 1.0,), (False,)),
                             shapes.sphere_ambient())
    curve = ParamCurve.polyline([[1e8], [1e8 + 1.0]])
    with pytest.raises(OffAmbientError, match="constraint residual 4.400e-01") as err:
        parallel_transport(patch, curve, [0.0, 0.0, 1.0], steps=8)
    assert err.value.point == (1e8,)


def _constraint_spy(monkeypatch, patch):
    """List of (order, rows) of every evaluation of the patch's constraint."""
    constraint = patch.ambient.constraint
    calls = []
    eval_jets = ChartExpr.eval_jets

    def spy(self, points, order=2):
        if self is constraint:
            calls.append((order, len(points)))
        return eval_jets(self, points, order)

    monkeypatch.setattr(ChartExpr, "eval_jets", spy)
    return calls


def test_step_builder_evaluates_the_constraint_once(monkeypatch):
    patch = latitude()
    u3, du3, h = ParamCurve.polyline([[0.2], [2.5]]).stage_points(16)
    calls = _constraint_spy(monkeypatch, patch)
    _, proj, xr, _ = _rk4_increments(patch, u3, du3, h, Tolerances())
    # each step start but the first is the previous step end: 2 * 16 + 1 rows
    assert calls == [(2, 33)]
    # the step-end projectors are the ones the order-1 ambient basis gives
    basis = ambient_tangent_basis(patch.ambient, xr[:, 2])
    assert np.array_equal(proj, np.einsum("bmd,bjd->bmj", basis, basis))


def test_transport_reads_the_builder_constraint_rows(monkeypatch):
    # the seed check and the tangency drift read the step builder's rows:
    # one evaluation on the 2 * 2,048 + 1 distinct stage points, one on the
    # half-step run
    patch = latitude()
    calls = _constraint_spy(monkeypatch, patch)
    res = parallel_transport(patch, wrap_loop(), [0.0, 1.0, 0.0], steps=2048)
    assert calls == [(2, 4097), (2, 2049)]
    assert res.tangency_drift < 1e-12


def test_holonomy_evaluates_the_constraint_once(monkeypatch):
    # the base basis comes from the builder's row at the loop start
    patch = latitude()
    calls = _constraint_spy(monkeypatch, patch)
    hol, = holonomy_loop(patch, [wrap_loop()], steps=256)
    assert calls == [(2, 513)]
    x0 = patch.chart.eval_values(np.zeros((1, 1)))
    basis = ambient_tangent_basis(patch.ambient, x0)[0]
    np.testing.assert_array_equal(hol.matrix, basis.T @ hol.ambient_matrix @ basis)


def test_step_builder_keeps_both_rows_at_a_polyline_corner(monkeypatch):
    # 3 + 5 steps on an L: each leg shares its inner step ends, but the
    # velocity turns at the corner, so the corner is evaluated twice
    patch = shapes.sphere_region()
    u3, du3, h = ParamCurve.polyline([[1.0, 0.7], [1.2, 0.7], [1.2, 1.0]]).stage_points(8)
    assert list(h) == [1.0 / 3.0] * 3 + [0.2] * 5
    calls = _constraint_spy(monkeypatch, patch)
    got = _rk4_increments(patch, u3, du3, h, Tolerances())
    assert calls == [(2, (2 * 3 + 1) + (2 * 5 + 1))]
    # and every output equals the step-by-step build, which shares nothing
    alone = [_rk4_increments(patch, u3[s:s + 1], du3[s:s + 1], h[s:s + 1], Tolerances())
             for s in range(8)]
    for out, parts in zip(got, zip(*alone)):
        assert np.array_equal(out, np.concatenate(parts))


# -- holonomy ---------------------------------------------------------------------


def test_latitude_holonomy_rotation():
    hol, = holonomy_loop(latitude(), [wrap_loop()], steps=2048)
    assert hol.rotation == pytest.approx(TWO_PI * (1.0 - math.cos(THETA0)), abs=1e-9)
    assert hol.deviation == pytest.approx(
        2.0 * abs(math.sin(math.pi * (1.0 - math.cos(THETA0)))), abs=1e-9
    )
    other, = holonomy_loop(latitude(1.0), [wrap_loop()], steps=2048)
    assert other.rotation == pytest.approx(TWO_PI * (1.0 - math.cos(1.0)), abs=1e-9)


def test_equator_holonomy_trivial():
    hol, = holonomy_loop(latitude(math.pi / 2), [wrap_loop()], steps=2048)
    assert hol.deviation < 1e-10


def test_sphere_cell_holonomy_equals_enclosed_area():
    # Gauss-Bonnet on the unit sphere: the rotation equals the cell area
    chart = parse_chart("(sin(th)*cos(ph), sin(th)*sin(ph), cos(th))", ("th", "ph"))
    region = SubmanifoldPatch(
        chart, Box((0.5, 0.0), (1.8, 1.5), (False, False)), shapes.sphere_ambient()
    )
    loop = ParamCurve.polyline(
        [[1.0, 0.2], [1.6, 0.2], [1.6, 1.0], [1.0, 1.0]], closed=True
    )
    hol, = holonomy_loop(region, [loop], steps=4096)
    area = (math.cos(1.0) - math.cos(1.6)) * 0.8
    assert hol.rotation == pytest.approx(area, abs=1e-8)


def test_cone_holonomy_matches_development():
    alpha = 0.6
    slant = 1.5
    chart = parse_chart(
        "(s*sin(alpha)*cos(u), s*sin(alpha)*sin(u), s*cos(alpha))",
        ("u",),
        {"alpha": alpha, "s": slant},
    )
    patch = SubmanifoldPatch(
        chart, Box((0.0,), (TWO_PI,), (True,)), shapes.cone_ambient(alpha)
    )
    hol, = holonomy_loop(patch, [wrap_loop()], steps=2048)
    assert hol.rotation == pytest.approx(TWO_PI * (1.0 - math.sin(alpha)), abs=1e-9)

    # independent check: develop the circle onto the plane around the fit apex
    pts = patch.chart.eval_values(patch.domain.grid(4096))
    rulings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    deficit = cone_development_angle(pts, rulings)
    assert hol.rotation == pytest.approx(deficit, abs=1e-6)


def test_loop_must_close_in_ambient_space():
    with pytest.raises(GeometryError):
        holonomy_loop(latitude(), [ParamCurve.polyline([[0.0], [math.pi]])], steps=64)


def _reference_holonomy(patch, loop, steps):
    """(ambient matrix, matrix, deviation, rotation) of one loop, folded alone."""
    tols = Tolerances()
    mats, end_u, _, dc = _step_matrices(patch, loop, steps, tols)
    total = _fold(mats)[-1]
    if patch.ambient.flat:
        basis0 = np.eye(patch.m)
    else:
        basis0 = constraint_kernel(dc[:1], end_u[:1], tols)[0]
    hol = basis0.T @ total @ basis0
    d = hol.shape[0]
    rotation = None
    if d == 2:
        rotation = math.acos(min(1.0, max(-1.0, 0.5 * (hol[0, 0] + hol[1, 1]))))
    return total, hol, float(np.linalg.norm(hol - np.eye(d), ord=2)), rotation


def _assert_batch_matches_loops(patch, loops, steps):
    results = holonomy_loop(patch, loops, steps=steps)
    assert [r.label for r in results] == [loop.label for loop in loops]
    for loop, res in zip(loops, results):
        total, hol, deviation, rotation = _reference_holonomy(patch, loop, steps)
        assert np.array_equal(res.ambient_matrix, total)
        assert np.array_equal(res.matrix, hol)
        assert res.deviation == deviation
        assert res.rotation == rotation
    return results


def test_batched_holonomy_matches_each_loop_on_latitude_p3():
    # n = 1 in a curved ambient: the random polygons and the wrap
    patch = load_scene(find_scene("latitude_p3")).patch()
    loops = probe_loops(patch, levels=(1, 2), n_random=8, seed=0)
    assert len(loops) == 9
    _assert_batch_matches_loops(patch, loops, 1024)


def test_batched_holonomy_matches_each_loop_on_sphere_cells():
    loops = probe_loops(shapes.sphere_region(), levels=(1, 2), n_random=2, seed=5)
    assert len(loops) == 4 + 16 + 2
    _assert_batch_matches_loops(shapes.sphere_region(), loops, 256)


def test_batched_holonomy_matches_each_loop_on_a_flat_patch():
    loops = probe_loops(shapes.torus(), levels=(1,), n_random=3, seed=1)
    results = _assert_batch_matches_loops(shapes.torus(), loops, 256)
    assert all(res.deviation == 0.0 for res in results)


def test_batched_holonomy_groups_mixed_step_counts():
    # at steps=2 every segment still gets a step: 4, 3, 4, 5 and 4 steps
    square = [[0.8, 0.7], [1.2, 0.7], [1.2, 1.2], [0.8, 1.2]]
    polygons = [square, square[:3], square[::-1],
                square + [[0.7, 1.0]], [[1.0, 0.6], [1.3, 0.9], [1.0, 1.4], [0.7, 0.9]]]
    loops = [ParamCurve.polyline(v, closed=True, label=f"poly-{i}")
             for i, v in enumerate(polygons)]
    _assert_batch_matches_loops(shapes.sphere_region(), loops, 2)
    assert [int(loop._allocate(2).sum()) for loop in loops] == [4, 3, 4, 5, 4]


def test_holonomy_folds_once_per_group(monkeypatch):
    # a budget of three loops' step matrices: 20 cells fold as 3 * 6 + 2
    patch = shapes.sphere_region()
    loops = probe_loops(patch, levels=(1, 2), n_random=0)
    one_loop = _step_matrices(patch, loops[0], 64, Tolerances())[0].nbytes
    monkeypatch.setattr(transport, "_GROUP_BYTES", 3 * one_loop + 1)
    sizes = []

    def spy(mats, every=True):
        sizes.append(mats.shape[:-3])
        return _fold(mats, every)

    monkeypatch.setattr(transport, "_fold", spy)
    _assert_batch_matches_loops(patch, loops, 64)
    assert sizes == [(3,)] * 6 + [(2,)]


@pytest.mark.parametrize("shape", [(1, 3, 3), (2, 3, 3), (7, 3, 3), (4, 5, 2, 2)])
def test_fold_of_the_last_product_matches_the_full_fold(shape):
    # the two-buffer fold makes the full fold's matmul calls in its order
    mats = np.random.default_rng(3).standard_normal(shape)
    last = _fold(mats, every=False)
    assert last.shape == shape[:-3] + shape[-2:]
    assert last.tobytes() == _fold(mats)[..., -1, :, :].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    polygons=st.lists(
        st.lists(st.tuples(st.floats(0.6, 1.4), st.floats(0.5, 1.5)),
                 min_size=2, max_size=6),
        min_size=1, max_size=4,
    ),
    steps=st.integers(1, 40),
)
def test_batched_holonomy_matches_each_loop_on_random_polygons(polygons, steps):
    assume(all(len(set(verts)) > 1 for verts in polygons))
    loops = [ParamCurve.polyline(verts, closed=True, label=f"random-{i}")
             for i, verts in enumerate(polygons)]
    _assert_batch_matches_loops(shapes.sphere_region(), loops, steps)


def test_parallel_field_holonomy_memory_is_bounded():
    # 526 probe loops of 1,024 6 x 6 step matrices: about 150 MiB if all
    # were stacked at once
    scene = load_scene(find_scene("product_spheres"))
    patch = product_patch(scene.patch("A"), scene.patch("B"))
    tracemalloc.start()
    try:
        _, rep = construct_parallel_field(patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_loops == 526
    assert peak <= 12 * 2**20


# -- probe loops and obstruction ----------------------------------------------------


def test_probe_loops_deterministic_and_counted():
    a = probe_loops(shapes.torus(), seed=7)
    b = probe_loops(shapes.torus(), seed=7)
    assert len(a) == (4 + 16 + 64) + 20 + 2
    assert [l.label for l in a] == [l.label for l in b]
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.vertices, lb.vertices)


def test_flat_ambient_has_exactly_zero_obstruction():
    fld, rep = construct_parallel_field(shapes.torus(), seed=3)
    assert rep.ok
    assert rep.max_deviation == 0.0
    assert rep.note == OBSTRUCTION_CLEAR_NOTE
    pts = shapes.torus().domain.grid(5)
    np.testing.assert_array_equal(fld.values(pts), np.tile(fld.vector, (25, 1)))


def test_equator_field_certificate_wording():
    _, rep = construct_parallel_field(latitude(math.pi / 2), seed=3)
    assert rep.ok
    assert rep.note == "no obstruction found at probe resolution"
    assert rep.max_deviation < 1e-9


def test_latitude_obstruction_found_on_wrap():
    _, rep = construct_parallel_field(latitude(), seed=3)
    assert not rep.ok
    assert rep.worst_loop == "wrap-ax0"
    assert rep.n_loops == 21
    assert rep.max_deviation == pytest.approx(
        2.0 * abs(math.sin(math.pi * (1.0 - math.cos(THETA0)))), abs=1e-8
    )
    assert rep.note != OBSTRUCTION_CLEAR_NOTE


def test_curved_region_obstruction_found():
    _, rep = construct_parallel_field(shapes.sphere_region(), seed=3)
    assert not rep.ok
    assert rep.max_deviation > 1e-3


# -- transported fields ---------------------------------------------------------------


def test_transport_field_is_parallel_along_latitude():
    fld = TransportField(latitude(), np.array([math.pi]), np.array([0.0, -1.0, 0.0]))
    value, _ = parallelity_residual(latitude(), fld, resolution=17)
    assert value < 1e-8


def test_coordinate_tangent_parallelity_residual():
    tangent = ExprField(
        parse_chart(
            "(-sin(th0)*sin(u), sin(th0)*cos(u), 0)", ("u",), {"th0": THETA0}
        )
    )
    value, _ = parallelity_residual(latitude(), tangent, resolution=17)
    assert value == pytest.approx(math.cos(THETA0), abs=1e-10)


def test_transport_field_batch_independent():
    fld = TransportField(latitude(), np.array([0.0]), np.array([0.0, 1.0, 0.0]))
    batch = fld.values(np.array([[1.0], [2.0], [3.0]]))
    alone = fld.values(np.array([[2.0]]))
    np.testing.assert_array_equal(batch[1], alone[0])


def walked_lines(fld, axis, keys):
    """Reference line caches: one _segment_matrices call per station."""
    m = fld.patch.m
    reach = _REACH
    h = fld._h[axis]
    starts = np.tile(fld.base_point, (len(keys), 1))
    for col in range(axis):
        starts[:, col] = [k[col] for k in keys]
    cum = np.empty((len(keys), 2 * reach + 1, m, m))
    cum[:, reach] = np.eye(m)
    for sign in (1.0, -1.0):
        pos = starts.copy()
        run = np.repeat(np.eye(m)[None], len(keys), axis=0)
        lengths = np.full(len(keys), sign * h)
        for s in range(1, reach + 1):
            run = fld._segment_matrices(pos, axis, lengths) @ run
            cum[:, reach + int(sign) * s] = run
            pos[:, axis] += sign * h
    return cum


def region_field():
    base = np.array([1.0, 1.0])
    seed = np.array([math.cos(1.0) ** 2, math.cos(1.0) * math.sin(1.0), -math.sin(1.0)])
    return TransportField(shapes.sphere_region(), base, seed)


def latitude_field():
    seed = np.array([-math.sin(1.3), math.cos(1.3), 0.0])
    return TransportField(latitude(), np.array([1.3]), seed)


@pytest.mark.parametrize("case", ["latitude", "region"])
def test_transport_field_lines_match_station_walk(case):
    if case == "latitude":
        fld, axis, keys = latitude_field(), 0, [()]
    else:
        fld, axis = region_field(), 1
        keys = [(0.6,), (0.75,), (1.0,), (1.2,), (1.4,)]
    fld._build_lines(axis, keys)
    ref = walked_lines(fld, axis, keys)
    for k, want in zip(keys, ref):
        np.testing.assert_array_equal(fld._lines[(axis, k)], want)


def test_transport_field_line_evaluates_each_station_once(monkeypatch):
    # _REACH segments a sign share their inner ends: 2 * _REACH + 1 rows
    fld = latitude_field()
    calls = _constraint_spy(monkeypatch, fld.patch)
    fld._build_lines(0, [()])
    assert calls == [(2, 2 * _REACH + 1)] * 2


def test_segment_step_matches_curve_step():
    # one builder serves both; only the final scaling rounds differently
    fld = region_field()
    start, length = np.array([1.0, 0.7]), 0.05
    seg = fld._segment_matrices(start[None, :], 1, np.array([length]))
    curve = ParamCurve.polyline([start, start + [0.0, length]])
    mats = _step_matrices(fld.patch, curve, 1, fld.tols)[0]
    assert not np.allclose(seg[0], np.eye(3))
    np.testing.assert_allclose(seg[0], mats[0], rtol=1e-14)


@pytest.mark.parametrize("case", ["region", "latitude"])
def test_transport_field_builder_calls_are_capped(monkeypatch, case):
    # each builder call holds one line
    if case == "region":
        fld, axis = region_field(), 1
        keys = [(0.6 + 0.8 * i / 27,) for i in range(28)]
    else:
        fld, axis, keys = latitude_field(), 0, [()]
    sizes = []
    build = fld._segment_matrices

    def spy(starts, axis, lengths):
        sizes.append(starts.shape[0])
        return build(starts, axis, lengths)

    monkeypatch.setattr(fld, "_segment_matrices", spy)
    fld._build_lines(axis, keys)
    assert sizes == [_REACH] * (2 * len(keys))


def test_transport_field_value_at_base_is_seed():
    seed = 0.7 * np.array([-math.sin(1.3), math.cos(1.3), 0.0])
    fld = TransportField(latitude(), np.array([1.3]), seed)
    got = fld.values(np.array([[1.3]]))[0]
    np.testing.assert_allclose(got, seed, atol=1e-15)


def test_transport_field_differences_at_its_own_step():
    # the field's tolerances set the step, not the default field_fd_step
    step = 1e-3
    seed = np.array([-math.sin(1.3), math.cos(1.3), 0.0])
    fld = TransportField(latitude(), np.array([1.3]), seed,
                         tols=Tolerances(field_fd_step=step))
    pts = np.array([[0.9], [1.7]])
    central = (fld.values(pts + step) - fld.values(pts - step)) / (2.0 * step)
    assert np.array_equal(fld.param_jacobian(pts), central[:, :, None])


# -- frame transport theorem ---------------------------------------------------------


def test_parallel_frame_check_equator_confirmed_small():
    rep = parallel_normal_frame_tgs_check(shapes.circle3(shapes.sphere_ambient()))
    assert rep.verdict == "confirmed"
    assert all(e.status == "small" for e in rep.hypotheses)
    assert all(e.status == "small" for e in rep.conclusions)


def test_parallel_frame_check_latitude_confirmed_large():
    rep = parallel_normal_frame_tgs_check(latitude())
    assert rep.verdict == "confirmed"
    assert rep.hypotheses[0].status == "large"
    assert rep.conclusions[0].value == pytest.approx(1.0 / math.tan(THETA0), abs=1e-9)
    assert rep.conclusions[0].status == "large"


def test_parallel_frame_check_flat_patches():
    assert parallel_normal_frame_tgs_check(shapes.plane()).verdict == "confirmed"
    rep = parallel_normal_frame_tgs_check(shapes.torus())
    assert rep.verdict == "confirmed"
    assert rep.hypotheses[0].status == "large"


def test_parallel_frame_check_needs_normal_directions():
    rep = parallel_normal_frame_tgs_check(shapes.sphere_region())
    assert rep.verdict == "hypotheses-not-met"
    assert not rep.preconditions[0].ok


# -- geodesics -------------------------------------------------------------------------


def test_great_circle_is_patch_geodesic_not_ambient_geodesic():
    g, = geodesic_traces(shapes.sphere(), [(math.pi / 2, 0.0)], [(0.0, 1.0)], t1=5.0,
                         steps=2048)
    assert np.abs(g.params[:, 0] - math.pi / 2).max() < 1e-12
    assert g.speed_drift < 1e-12
    assert g.tangential_residual < 1e-9
    assert g.ambient_residual == pytest.approx(1.0, abs=1e-6)


def test_plane_geodesic_is_straight():
    g, = geodesic_traces(shapes.plane(), [(0.0, 0.0)], [(0.3, 0.2)], t1=2.0, steps=512)
    np.testing.assert_allclose(g.params[-1], [0.6, 0.4], atol=1e-12)
    assert g.tangential_residual < 1e-10
    assert g.ambient_residual < 1e-10


def test_cone_ruling_is_both_patch_and_ambient_geodesic():
    g, = geodesic_traces(shapes.cone(), [(0.5, 1.0)], [(1.0, 0.0)], t1=1.0, steps=1024)
    assert g.tangential_residual < 1e-8
    assert g.ambient_residual < 1e-8
    np.testing.assert_allclose(g.params[-1], [1.5, 1.0], atol=1e-10)


def test_geodesic_tracks_get_one_frame_build(monkeypatch):
    # positions, speeds and both defects read one order-1 frame build over
    # every track point; the chart is evaluated for no other track rows
    frame_calls, jet_rows = [], []
    real_frames, real_jets = transport.frames_at, ChartExpr.eval_jets

    def frames_spy(patch, points, order=2, tols=Tolerances()):
        frame_calls.append((order, len(points)))
        return real_frames(patch, points, order=order, tols=tols)

    def jets_spy(chart, points, order=2):
        jet_rows.append((order, len(points)))
        return real_jets(chart, points, order)

    monkeypatch.setattr(transport, "frames_at", frames_spy)
    monkeypatch.setattr(ChartExpr, "eval_jets", jets_spy)
    results = geodesic_traces(shapes.cone(), [(0.5, 1.0), (0.6, 1.2)],
                              [(1.0, 0.0), (0.3, 0.4)], t1=0.5, steps=128)
    assert frame_calls == [(1, 2 * 129)]
    assert [r for r in jet_rows if r[0] == 1] == [(1, 2 * 129)]
    assert all(np.isfinite(r.ambient_residual) for r in results)


def test_geodesic_domain_exit_raises():
    with pytest.raises(GeometryError):
        geodesic_traces(shapes.plane(), [(0.0, 0.0)], [(1.0, 0.0)], t1=3.0, steps=256)


def _geodesic_loop_reference(patch, starts, velocities, t1, steps):
    """The geodesic stepping loop as it was before `rk4_tracks`: u tracks."""
    g_count, n = starts.shape
    h = t1 / steps
    u, v = starts.copy(), velocities.copy()
    traj = np.empty((steps + 1, g_count, n))
    traj[0] = u

    def acc(uu, vv):
        gam = christoffels(patch, uu)
        return -np.einsum("gkij,gi,gj->gk", gam, vv, vv)

    for s in range(steps):
        k1u, k1v = v, acc(u, v)
        u2 = u + 0.5 * h * k1u
        k2u = v + 0.5 * h * k1v
        k2v = acc(u2, k2u)
        u3 = u + 0.5 * h * k2u
        k3u = v + 0.5 * h * k2v
        k3v = acc(u3, k3u)
        u4 = u + h * k3u
        k4u = v + h * k3v
        k4v = acc(u4, k4u)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        assert patch.domain.contains(u, pad=1e-12).all()
        traj[s + 1] = u
    return traj


def test_geodesic_fan_matches_the_reference_loop_bit_for_bit():
    scene = load_scene(find_scene("cone_axis"))
    patch, field = scene.patch(), scene.fields[scene.root_name]
    details = geodesic_alignment_check(patch, field).details
    dirs = np.array([c["velocity"] for c in details["curves"]])
    assert dirs.shape == (9, 2)
    starts = np.repeat(0.5 * (np.array(patch.domain.lo) + patch.domain.hi)[None, :],
                       len(dirs), axis=0)
    results = geodesic_traces(patch, starts, dirs, t1=details["t1"], steps=1024)
    traj = np.stack([r.params for r in results], axis=1)
    assert np.array_equal(traj, _geodesic_loop_reference(patch, starts, dirs,
                                                         details["t1"], 1024))


def test_track_exit_reports_time_and_point():
    def east(y):
        return np.tile([1.0, 0.0], (len(y), 1))

    box = Box((0.0, -1.0), (1.0, 1.0), (False, False))
    start = np.array([[0.0, 0.0], [0.5, 0.0]])  # the second track exits first
    with pytest.raises(DomainExitError, match=r"t=0\.750000") as exc:
        rk4_tracks(east, start, 0.25, 8, box, pad=0.0)
    assert exc.value.point == pytest.approx((1.25, 0.0))
    # a periodic axis is never a wall
    ring = Box((0.0, -1.0), (1.0, 1.0), (True, False))
    assert rk4_tracks(east, start, 0.25, 8, ring, pad=0.0).shape == (9, 2, 2)
