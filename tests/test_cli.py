"""Command line behavior: exit codes, artifacts, determinism."""

import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

import cli_sweep
from shadowgeom import cli, geometry, helix, shadow
from shadowgeom.cli import SCENES_DIR, VERIFY_PLAN, find_scene, run
from shadowgeom.expr import parse_chart
from shadowgeom.geometry import MAX_GRID_ROWS, ChartRankError, frames_at, validate_patch
from shadowgeom.scene import SceneError, load_scene
from shadowgeom.tolerances import DEFAULT_TOLS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


def test_find_scene_resolves_bundled_names():
    path = find_scene("sphere_e3")
    assert path.endswith("sphere_e3.scene") and os.path.isfile(path)
    assert find_scene(path) == path
    with pytest.raises(SceneError, match="scene not found"):
        find_scene("no_such_scene")


def test_every_bundled_scene_validates(capsys):
    for name in sorted(os.listdir(SCENES_DIR)):
        code, out, err = invoke(capsys, "validate", name[: -len(".scene")])
        assert code == 0, f"{name}: {err}"
        rep = report_of(out)
        assert rep["results"]["validation"]["ok"] is True
        assert rep["scene"]["digest"]


# -- shadow command ---------------------------------------------------------------


def test_shadow_circle_csv_has_two_rows(capsys):
    code, out, _ = invoke(capsys, "shadow", "circle_r2_e2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u_1,x_1,x_2,|F|,sigma_min,smooth"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "smooth"
        x, y = float(cells[1]), float(cells[2])
        assert abs(abs(x) - 1.0) < 1e-9 and abs(y) < 1e-9


def test_shadow_sphere_obj_single_closed_loop(capsys):
    code, out, _ = invoke(capsys, "shadow", "sphere_e3", "--format", "obj")
    assert code == 0
    loops = [l for l in out.splitlines() if l.startswith("l ")]
    assert len(loops) == 1
    idx = loops[0].split()[1:]
    assert idx[0] == idx[-1]  # closed


def test_shadow_torus_obj_two_loops(capsys):
    code, out, _ = invoke(capsys, "shadow", "torus_e3", "--format", "obj")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("l ")) == 2


@pytest.mark.parametrize("scene, dim", [("product_circles", 4), ("product_spheres", 6)])
def test_shadow_obj_refuses_an_ambient_beyond_three_dimensions(capsys, scene, dim):
    # OBJ reads a fourth vertex coordinate as a weight
    code, out, err = invoke(capsys, "shadow", scene, "--format", "obj")
    assert (code, out) == (1, "")
    assert err == f"error: OBJ needs a 2- or 3-dimensional ambient, got {dim}\n"


def test_shadow_empty_report(capsys):
    code, out, _ = invoke(capsys, "shadow", "plane_e3", "--format", "json")
    assert code == 0
    shadow = report_of(out)["results"]["shadow"]
    assert shadow["points"] == 0
    assert shadow["degenerate"] is False
    # an empty sample measured nothing, so its residual is null, not small
    assert shadow["max_residual"] is None


def test_shadow_empty_export_needs_allow_empty(capsys):
    code, out, err = invoke(capsys, "shadow", "plane_e3")
    assert code == 1
    assert "--allow-empty" in err
    code, out, _ = invoke(capsys, "shadow", "plane_e3", "--allow-empty")
    assert code == 0
    assert out.splitlines() == ["u_1,u_2,x_1,x_2,x_3,|F|,sigma_min,smooth"]


def test_shadow_degenerate_cylinder_report(capsys):
    code, out, _ = invoke(capsys, "shadow", "cylinder_e3", "--format", "json")
    assert code == 0
    shadow = report_of(out)["results"]["shadow"]
    assert shadow["degenerate"] is True
    assert shadow["set_equals_patch"] is True


@pytest.mark.parametrize("scene, degenerate, points", [
    ("circle_r2_e2", False, 2),
    ("torus_e3", False, 4),
    ("cylinder_e3", True, 4),
])
def test_shadow_grid_2_degeneracy(capsys, scene, degenerate, points):
    # every grid-2 node of the circle and the torus is a zero of F, but the
    # cell centres are not, so each set is its node points; the cylinder's
    # axis field is tangent everywhere, so its set is the patch
    code, out, _ = invoke(capsys, "shadow", scene, "--grid", "2", "--format", "json")
    assert code == 0
    shadow = report_of(out)["results"]["shadow"]
    assert shadow["degenerate"] is degenerate
    assert shadow["degenerate_fraction"] == 1.0
    assert shadow.get("set_equals_patch", False) is degenerate
    assert shadow["points"] == points


def test_shadow_product_scene_uses_block_patch(capsys):
    code, out, _ = invoke(capsys, "shadow", "product_circles", "--format", "json")
    assert code == 0
    assert report_of(out)["results"]["shadow"]["points"] == 4


def test_shadow_grid_flag_overrides_scene(capsys):
    code, out, _ = invoke(capsys, "shadow", "sphere_e3", "--grid", "16",
                          "--format", "json")
    assert code == 0
    assert report_of(out)["results"]["shadow"]["resolution"] == [16, 16]


def test_shadow_runs_the_shadow_system_once(capsys, monkeypatch):
    calls = []
    system = shadow.shadow_system

    def spy(*args, **kwargs):
        calls.append(1)
        return system(*args, **kwargs)

    monkeypatch.setattr(shadow, "shadow_system", spy)
    code, _, _ = invoke(capsys, "shadow", "sphere_e3")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("shadow", "sphere_e3", "--grid", "0"),
    ("verify-all", "--grid", "1"),
])
def test_grid_below_two_is_rejected(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --grid must be at least 2")


@pytest.mark.parametrize("argv", [
    ("transport", "latitude_p3"),
    ("parallel-field", "latitude_p3"),
    ("tube", "tube_circle"),
], ids=lambda argv: argv[0])
def test_grid_is_refused_where_no_grid_is_read(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--grid", "64")
    assert (code, out) == (1, "")
    assert err.endswith("shadowgeom: error: unrecognized arguments: --grid 64\n")


@pytest.mark.parametrize("argv, message", [
    (("verify", "bogus", "sphere_e3"), "argument theorem: invalid choice: 'bogus'"),
    (("shadow",), "the following arguments are required: scene"),
    (("shadow", "sphere_e3", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
], ids=["unknown-theorem", "missing-scene", "unknown-format"])
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse exits 2 on its own, the exit code of hypotheses-not-met
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: shadowgeom {argv[0]} ")
    assert f"shadowgeom {argv[0]}: error: {message}" in err


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("shadow", "--help")],
                         ids=" ".join)
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        run(list(argv))
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: shadowgeom", "shadowgeom "))


def test_grid_above_the_row_cap_is_refused_before_allocation(capsys):
    # 10^10 rows would need 149 GiB of points; Box.grid refuses them first
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, "shadow", "torus_e3", "--grid", "100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err == (f"error: grid of 10000000000 rows exceeds the cap of "
                   f"{MAX_GRID_ROWS} rows\n")
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ("verify", "hypersurface-helix-classification", "sphere_e3", "--grid", "2"),
    ("verify", "hypersurface-helix-classification", "product_spheres", "--grid", "2"),
    ("verify-all", "--grid", "2"),
])
def test_two_point_grid_cannot_confirm_a_helix_verdict(capsys, argv):
    # at grid 2 the sphere used to be `confirmed` as a transversal helix
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the helix test needs a grid resolution of at least 3")


# -- helix command -----------------------------------------------------------------


def test_helix_cylinder(capsys):
    code, out, _ = invoke(capsys, "helix", "cylinder_e3")
    assert code == 0
    res = report_of(out)["results"]
    assert res["constancy"]["h_deviation"] < 1e-8
    assert res["gauss_kronecker"]["max_abs"] < 1e-9
    assert res["classification"]["verdict"] == "confirmed"
    assert res["classification"]["details"]["case"] == "tangent"


def test_helix_cone(capsys):
    code, out, _ = invoke(capsys, "helix", "cone_axis")
    assert code == 0
    res = report_of(out)["results"]
    assert abs(res["constancy"]["h_mean"] - np.cos(0.5)) < 1e-12
    assert res["constancy"]["h_deviation"] < 1e-8
    assert res["classification"]["details"]["case"] == "transversal"


def test_helix_runs_the_constancy_test_once(capsys, monkeypatch):
    calls = []
    report = helix.helix_constancy_report

    def spy(*args, **kwargs):
        calls.append(1)
        return report(*args, **kwargs)

    # every binding a caller can reach it through
    monkeypatch.setattr(helix, "helix_constancy_report", spy)
    monkeypatch.setattr(cli, "helix_constancy_report", spy)
    code, _, _ = invoke(capsys, "helix", "cone_axis")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("scene", ["cylinder_e3", "cone_axis"])
def test_helix_builds_grid_frames_once(capsys, monkeypatch, scene):
    # one order-2 frame build on the grid serves the constancy test, the
    # Gauss-Kronecker curvature and the classification (tangent case on the
    # cylinder, transversal on the cone)
    calls = []
    real_frames = helix.frames_at

    def spy(patch, points, order=2, tols=DEFAULT_TOLS):
        calls.append((order, len(points)))
        return real_frames(patch, points, order=order, tols=tols)

    monkeypatch.setattr(helix, "frames_at", spy)
    code, out, _ = invoke(capsys, "helix", scene)
    assert code == 0
    rows = report_of(out)["results"]["constancy"]["n_points"]
    assert [c for c in calls if c[1] == rows] == [(2, rows)]


# no known repeat is left: the rank certificate's frames give the shadow
# points their residuals and positions
_EXTRACTION_REPEATS = []


def test_verify_plan_builds_each_frame_batch_once(capsys, monkeypatch):
    # within one theorem check no patch gets frames twice at the same points
    real_frames = geometry.frames_at
    calls = []

    def spy(patch, points, *args, **kwargs):
        calls.append((patch, np.array(points, dtype=float)))
        return real_frames(patch, points, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("shadowgeom") and vars(module).get("frames_at") is real_frames:
            monkeypatch.setattr(module, "frames_at", spy)
    repeats = []
    for scene, theorem, _ in VERIFY_PLAN:
        calls.clear()
        run(["verify", theorem, scene])
        capsys.readouterr()
        for i, (patch, pts) in enumerate(calls):
            if any(p is patch and q.shape == pts.shape and np.array_equal(q, pts)
                   for p, q in calls[:i]):
                repeats.append((scene, theorem, patch.name, pts.shape))
    assert repeats == _EXTRACTION_REPEATS


def test_helix_sphere_rejected(capsys):
    code, out, _ = invoke(capsys, "helix", "sphere_e3")
    assert code == 2
    res = report_of(out)["results"]
    assert res["constancy"]["h_deviation"] > 0.5
    assert res["classification"]["verdict"] == "hypotheses-not-met"


# -- transport / parallel-field ------------------------------------------------------


def test_transport_probes_flat_patch(capsys):
    code, out, _ = invoke(capsys, "transport", "plane_e3")
    assert code == 0
    res = report_of(out)["results"]
    assert res["n_loops"] > 0
    assert res["max_deviation"] < 1e-10


def test_parallel_field_obstruction_exits_2(capsys):
    code, out, _ = invoke(capsys, "parallel-field", "latitude_p3")
    assert code == 2
    res = report_of(out)["results"]
    assert res["obstruction"]["ok"] is False
    assert res["obstruction"]["max_deviation"] > 1e-6


def test_parallel_field_certifies_equator(capsys):
    code, out, _ = invoke(capsys, "parallel-field", "equator_in_s2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["obstruction"]["ok"] is True
    assert res["obstruction"]["max_deviation"] < 1e-6
    assert res["parallelity_residual"] < 1e-8


# -- verify ---------------------------------------------------------------------------


def test_verify_minimality_torus(capsys):
    code, out, _ = invoke(capsys, "verify", "minimality", "torus_outer_equator")
    assert code == 0
    rep = report_of(out)["results"]["report"]
    assert rep["verdict"] == "confirmed"
    assert rep["theorem"] == "minimality"


def test_verify_product_shadow_circles_coarse_grid(capsys):
    # at grid 3 the factor circles' shadow points {0, pi} sit on a node and
    # inside an edge whose endpoint normals are 120 degrees apart
    code, out, _ = invoke(capsys, "verify", "product-shadow", "product_circles",
                          "--grid", "3")
    assert code == 0
    rep = report_of(out)["results"]["report"]
    assert rep["verdict"] == "confirmed"
    assert rep["details"]["n_reference"] == 4


def test_verify_not_met_exits_2(capsys):
    code, out, _ = invoke(capsys, "verify", "orthogonal-tgs", "line_in_plane")
    assert code == 2
    assert report_of(out)["results"]["report"]["verdict"] == "hypotheses-not-met"


def test_tol_flag_changes_the_gate(capsys):
    # the sphere chart thins out near the poles; a strict rank threshold
    # turns the otherwise healthy patch into a validation failure
    code, out, _ = invoke(capsys, "validate", "sphere_e3",
                          "--tol", "rank_tol=0.5")
    assert code == 2
    assert report_of(out)["results"]["validation"]["ok"] is False


def test_verify_unknown_tol_name_errors(capsys):
    code, _, err = invoke(capsys, "verify", "minimality", "torus_outer_equator",
                          "--tol", "bogus=1")
    assert code == 1
    assert "unknown tolerance" in err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_tol_value_errors(capsys, value):
    code, out, err = invoke(capsys, "shadow", "sphere_e3",
                            "--tol", f"extract_tol={value}")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "extract_tol" in err


def test_tol_above_floor_names_residual_and_override(capsys):
    code, out, err = invoke(capsys, "verify", "product-shadow", "product_circles",
                            "--tol", "extract_tol=0.01")
    assert code == 1
    assert out == ""
    assert err.startswith("error: extraction-residual: tolerance 0.1 must lie below")
    assert "--tol in effect: extract_tol=0.01" in err


def test_memory_error_is_reported(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the grid")

    monkeypatch.setattr(cli, "extract_shadow_set", exhausted)
    code, out, err = invoke(capsys, "shadow", "sphere_e3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory")


def _scene_with_chart(tmp_path, chart, scene="circle_r2_e2"):
    """`scene` with its first chart `(cos(s), sin(s))` replaced, written
    under tmp_path."""
    with open(find_scene(scene), encoding="utf-8") as fh:
        text = fh.read().replace("(cos(s), sin(s))", chart, 1)
    path = tmp_path / f"{scene}.scene"
    path.write_text(text)
    return str(path)


def _assert_prints_like(capsys, command, path, scene):
    """`command` on the scene file at `path` prints what it prints on the
    bundled `scene`: the same output, or for `validate` the same results."""
    code, out, err = invoke(capsys, command, path)
    plain_code, plain, _ = invoke(capsys, command, scene)
    assert (code, err) == (plain_code, "")
    if command == "shadow":
        assert out == plain
    else:
        assert report_of(out)["results"] == report_of(plain)["results"]


# the parser stops at MAX_NESTING (100) levels, at the token past it: the
# 101st parenthesis is in column 102
@pytest.mark.parametrize("chart", [
    "(" + "(" * 1000 + "cos(s)" + ")" * 1000 + ", sin(s))",
], ids=["deep-parentheses"])
@pytest.mark.parametrize("command", ["shadow", "validate"])
def test_deeply_nested_chart_is_an_error(capsys, tmp_path, chart, command):
    code, out, err = invoke(capsys, command, _scene_with_chart(tmp_path, chart))
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: .*circle_r2_e2\.scene:\d+: bad chart: expression is nested "
                        r"more than 100 levels deep \(line 1, column 102\)\n", err)


# each chart is as deep as its chain or its nesting: 98 parentheses
# around cos(s) reach the parser's cap, 100 levels with cos's argument;
# adding 0*s, dividing by 1 and grouping leave every bit of cos(s)'s jets
@pytest.mark.parametrize("chart", [
    "(cos(s)" + " + 0*s" * 600 + ", sin(s))",
    "(cos(s)" + " + 0*s" * 2000 + ", sin(s))",
    "(cos(s)" + " / 1" * 2000 + ", sin(s))",
    "(" + "(" * 98 + "cos(s)" + ")" * 98 + ", sin(s))",
], ids=["600", "2000", "long-quotient", "nesting-cap"])
@pytest.mark.parametrize("command", ["shadow", "validate"])
def test_flat_sum_chart_runs_as_its_first_term(capsys, tmp_path, chart, command):
    _assert_prints_like(capsys, command, _scene_with_chart(tmp_path, chart), "circle_r2_e2")


@pytest.mark.parametrize("command", ["shadow", "validate"])
def test_flat_sum_factor_chart_runs_as_its_first_term(capsys, tmp_path, command):
    # product_chart rebuilds factor A's 2,000-level tree
    path = _scene_with_chart(tmp_path, "(cos(s)" + " + 0*s" * 2000 + ", sin(s))",
                             "product_circles")
    _assert_prints_like(capsys, command, path, "product_circles")


def test_verify_all_plan_matches(capsys):
    code, out, _ = invoke(capsys, "verify-all")
    assert code == 0
    res = report_of(out)["results"]
    assert res["all_match"] is True
    assert res["n_checks"] == len(VERIFY_PLAN)
    seen = {(r["scene"], r["theorem"]) for r in res["checks"]}
    assert ("equator_in_sphere", "orthogonal-tgs") in seen
    assert ("tube_circle", "minimality") in seen


def test_verify_all_deterministic_modulo_timings(capsys):
    _, first, _ = invoke(capsys, "verify-all")
    _, second, _ = invoke(capsys, "verify-all")
    a, b = json.loads(first), json.loads(second)
    ta, tb = a.pop("timings"), b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(ta) == set(tb) == {"total_seconds"}
    # line-by-line: timing is the only differing byte range
    diff = [i for i, (x, y) in enumerate(zip(first.splitlines(),
                                             second.splitlines())) if x != y]
    assert all("total_seconds" in first.splitlines()[i] for i in diff)


# -- tube generation ----------------------------------------------------------------


def test_tube_generates_valid_scene(capsys, tmp_path):
    code, out, _ = invoke(capsys, "tube", "tube_circle")
    assert code == 0
    path = tmp_path / "swept.scene"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify", "minimality", str(path))
    assert code == 0
    assert report_of(out)["results"]["report"]["verdict"] == "confirmed"


def test_tube_command_needs_tube_block(capsys):
    code, _, err = invoke(capsys, "tube", "sphere_e3")
    assert code == 1
    assert "no tube block" in err


# -- artifacts ----------------------------------------------------------------------


def _without_timings(text: str) -> str:
    return re.sub(r'"total_seconds": .*', "", text)


@pytest.mark.parametrize("argv", [
    ("shadow", "circle_r2_e2", "--format", "json"),
    ("shadow", "circle_r2_e2"),
    ("shadow", "torus_e3", "--format", "obj"),
    ("tube", "tube_circle"),
    ("verify-all",),
], ids=["json", "csv", "obj", "tube", "verify-all"])
def test_out_writes_every_output_kind_atomically(capsys, tmp_path, argv):
    # every output kind goes through the one writer: the file holds what
    # stdout would, and the temp file is renamed onto the target
    code, printed, _ = invoke(capsys, *argv)
    target = tmp_path / "out"
    assert invoke(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert os.listdir(tmp_path) == ["out"]
    assert _without_timings(target.read_text()) == _without_timings(printed)


def test_failed_out_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = invoke(capsys, "shadow", "circle_r2_e2", "--format", "json",
                            "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(target) == []


def test_reports_share_envelope(capsys):
    _, out, _ = invoke(capsys, "validate", "sphere_e3")
    rep = report_of(out)
    assert rep["tool"]["name"] == "shadowgeom"
    assert rep["command"] == "validate"
    assert rep["scene"]["name"] == "sphere_e3"
    assert rep["scene"]["path"] == "sphere_e3.scene"
    assert "total_seconds" in rep["timings"]


def test_parse_error_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("scene bad\nambient {\n  dim == 3\n}\n")
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 1
    assert "bad.scene" in err


def test_invalid_patch_exits_2(capsys, tmp_path):
    # cone chart including the apex: rank-deficient at u = 0
    text = """
scene apex
ambient {
  dim = 3
}
patch cone {
  chart = (u*sin(0.5)*cos(v), u*sin(0.5)*sin(v), u*cos(0.5))
  params = u, v
  lo = 0, 0
  hi = 1, 2*pi
  periodic = no, yes
}
field {
  constant = 0, 0, 1
}
"""
    p = tmp_path / "apex.scene"
    p.write_text(text)
    code, out, _ = invoke(capsys, "validate", str(p))
    assert code == 2
    assert report_of(out)["results"]["validation"]["ok"] is False


PATCH_SCENE = """
scene demo
ambient {
  dim = 3
}
patch M {
  chart = CHART
  params = u, v
  lo = LO
  hi = 1, 1
}
field {
  constant = 0, 0, 1
}
"""


@pytest.mark.parametrize("chart,lo,message", [
    ("(u, v, sqrt(u))", "-1, 0",
     "error: sqrt derivative at non-positive value in 'sqrt(u)' (line 1, column 8)"
     " at parameters (-1.0, 0.0)\n"),
    ("(u*sin(0.5)*cos(v), u*sin(0.5)*sin(v), u*cos(0.5))", "0, 0",
     "error: chart Jacobian is rank-deficient (singular value ratio 0.000e+00)"
     " at parameters (0.0, 0.0)\n"),
], ids=["eval-domain", "chart-rank"])
def test_error_points_print_as_plain_floats(capsys, tmp_path, chart, lo, message):
    p = tmp_path / "demo.scene"
    p.write_text(PATCH_SCENE.replace("CHART", chart).replace("LO", lo))
    code, _, err = invoke(capsys, "shadow", str(p))
    assert code == 1
    assert err == message


def test_folded_constant_domain_error_is_reported(capsys, tmp_path):
    # log(0 - 1) uses no parameter: it fails when the chart is lowered,
    # so the error names the subexpression but no parameter point
    p = tmp_path / "demo.scene"
    p.write_text(PATCH_SCENE.replace("CHART", "(u, v, u + log(0-1))").replace("LO", "0, 0"))
    code, _, err = invoke(capsys, "shadow", str(p))
    assert code == 1
    assert err == ("error: log of non-positive value in 'log(0.0 - 1.0)'"
                   " (line 1, column 12)\n")


def test_off_ambient_field_exits_2(capsys, tmp_path):
    # field with a radial component is not tangent to the round sphere
    text = """
scene tilted
ambient {
  dim = 3
  coords = x1, x2, x3
  constraint = (x1^2 + x2^2 + x3^2 - 1)
}
patch equator {
  chart = (cos(s), sin(s), 0)
  params = s
  lo = 0
  hi = 2*pi
  periodic = yes
}
field {
  constant = 1, 0, 0
}
"""
    p = tmp_path / "tilted.scene"
    p.write_text(text)
    code, out, _ = invoke(capsys, "validate", str(p))
    assert code == 2
    assert report_of(out)["results"]["validation"]["ok"] is False


FLAT_CONSTRAINT_SCENE = """
scene flat_constraint
ambient {
  dim = 3
  coords = x1, x2, x3
  constraint = ((x1^2 + x2^2 + x3^2 - 1)^2)
}
patch equator {
  chart = (cos(s), sin(s), 0)
  params = s
  lo = 0
  hi = 2*pi
  periodic = yes
}
field {
  constant = 0, 0, 1
}
"""


def test_vanishing_constraint_gradient_is_an_error(capsys, tmp_path):
    # c = (|x|^2 - 1)^2 has Dc = 0 on the whole unit sphere: its tangent space,
    # and so every frame along the equator, is undefined, which is an error
    # and not a verdict built on an arbitrary kernel basis
    p = tmp_path / "flat_constraint.scene"
    p.write_text(FLAT_CONSTRAINT_SCENE)
    scene = load_scene(str(p))
    patch, field = scene.patches["equator"], scene.fields["equator"]
    message = ("constraint Jacobian is rank-deficient (singular value ratio 0.000e+00)"
               " at parameters ")
    for evaluate, point in ((lambda: frames_at(patch, [(0.5,)]), "(0.5,)"),
                            (lambda: validate_patch(patch, field), "(0.0,)"),
                            (lambda: helix.helix_constancy_report(patch, field), "(0.0,)")):
        with pytest.raises(ChartRankError) as caught:
            evaluate()
        assert str(caught.value) == message + point
    for command in ("validate", "helix"):
        code, out, err = invoke(capsys, command, str(p))
        assert (code, out) == (1, "")
        assert err == f"error: {message}(0.0,)\n"


@pytest.mark.parametrize("command,scene,chart,point", [
    ("shadow", "sphere_e3", "(sin(th)*cos(ph), sin(th)*sin(ph), cos(th))", "(0.1, 0.0)"),
    ("parallel-field", "latitude_p3", "(sin(t0)*cos(s), sin(t0)*sin(s), cos(t0))",
     "(3.141592653589793,)"),
], ids=["shadow", "parallel-field"])
def test_off_ambient_chart_error_names_its_parameters(capsys, tmp_path, command, scene,
                                                      chart, point):
    # the chart scaled by 1.2 inside the unit sphere ambient
    with open(find_scene(scene), encoding="utf-8") as fh:
        text = fh.read()
    assert chart in text
    big = "(" + ", ".join("1.2*" + c.strip() for c in chart[1:-1].split(", ")) + ")"
    text = text.replace(chart, big)
    if "constraint" not in text:
        text = text.replace("  dim = 3\n", "  dim = 3\n  coords = x1, x2, x3\n"
                            "  constraint = (x1^2 + x2^2 + x3^2 - 1)\n")
    p = tmp_path / f"{scene}.scene"
    p.write_text(text)
    code, _, err = invoke(capsys, command, str(p))
    assert code == 1
    assert err == ("error: point is off the ambient manifold (constraint residual "
                   f"4.400e-01) at parameters {point}\n")


@pytest.mark.parametrize("argv", [
    ("helix",),
    ("verify", "hypersurface-helix-classification"),
    ("verify", "geodesic-alignment"),
], ids=" ".join)
def test_per_axis_scene_grid_matches_scalar_grid(capsys, tmp_path, argv):
    with open(find_scene("cone_axis"), encoding="utf-8") as fh:
        text = fh.read()
    p = tmp_path / "cone_axis.scene"
    p.write_text(text.replace("resolution = 16", "resolution = 16, 16"))
    code, out, err = invoke(capsys, *argv, str(p))
    assert (code, err) == (0, "")
    ref_code, ref_out, _ = invoke(capsys, *argv, "cone_axis")
    assert ref_code == 0
    got, want = report_of(out)["results"], report_of(ref_out)["results"]
    if argv == ("helix",):
        assert got["constancy"].pop("resolution") == [16, 16]
        assert want["constancy"].pop("resolution") == 16
    assert got == want


OVERFLOW_SCENE = """scene overflow
ambient {
  dim = 3
}
patch M {
  chart = (u, v, exp(1000*u))
  params = u, v
  lo = 0, 0
  hi = 1, 1
}
field {
  constant = 0, 0, 1
}
"""


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


# the chart's jets overflow to inf and NaN; with warnings as errors, the run
# also proves that the CLI emits no numpy floating-point warning
def test_overflowing_chart_never_reaches_lapack(tmp_path, capsys):
    path = tmp_path / "overflow.scene"
    path.write_text(OVERFLOW_SCENE)
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 2 and err == ""
    validation = _strict_json(out)["results"]["validation"]
    assert validation["min_jacobian_ratio"] == 0.0 and not validation["ok"]
    code, out, err = invoke(capsys, "helix", str(path))
    assert code == 1 and out == ""
    assert re.match(r"^error: chart Jacobian is rank-deficient \(singular value ratio "
                    r"\S+\) at parameters \(\S+, \S+\)\n$", err), err


# the chart's jets overflow to inf; no numpy warning may reach stderr
def test_overflowing_constrained_chart_reports_null_residual(tmp_path, capsys):
    # inf / (1 + inf) used to make the constraint residual NaN
    with open(find_scene("equator_in_s2")) as fh:
        text = fh.read()
    path = tmp_path / "overflow.scene"
    path.write_text(text.replace("chart = (cos(s), sin(s), 0)",
                                 "chart = (cos(s), sin(s), exp(1000*s))"))
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 2
    validation = _strict_json(out)["results"]["validation"]
    assert validation["max_constraint_residual"] is None and not validation["ok"]


def test_product_check_with_every_newton_seed_lost_is_not_met(capsys):
    # at grid 2 every Newton seed of the product leaves the box; the empty
    # direct set is no evidence against the factors' four points, so the
    # infinite Hausdorff gap is no counterexample
    code, out, _ = invoke(capsys, "verify", "product-shadow", "product_spheres",
                          "--grid", "2")
    assert code == 2
    report = _strict_json(out)["results"]["report"]
    assert report["verdict"] == "hypotheses-not-met"
    assert report["details"]["n_direct"] == 0 and report["details"]["n_reference"] == 4
    (hyp,), (concl,) = report["hypotheses"], report["conclusions"]
    assert (hyp["label"], hyp["value"], hyp["status"]) == ("extraction-residual", None,
                                                           "ambiguous")
    assert (concl["value"], concl["status"]) == (None, "large")


def test_every_bundled_command_writes_strict_json(capsys):
    # NaN and Infinity are not JSON; no report may contain them
    runs = [("verify-all",)]
    for name in sorted(os.listdir(SCENES_DIR)):
        scene = name[: -len(".scene")]
        runs += [("validate", scene), ("shadow", scene, "--format", "json")]
    for argv in runs:
        code, out, err = invoke(capsys, *argv)
        if code == 1:  # an error names itself on stderr and writes no report
            assert out == "" and err.startswith("error: "), (argv, err)
        else:
            assert _strict_json(out), argv


class _Called(Exception):
    """Raised by a spy once it has recorded its call."""


def test_cli_passes_a_grid_only_where_one_is_set(monkeypatch):
    # each check owns its default grid: `resolution` is passed only when
    # --grid or the scene's grid block sets one
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("resolution", "default"))
        raise _Called

    for theorem in cli.THEOREM_IDS:
        monkeypatch.setitem(cli._THEOREMS, theorem, spy)
    for name in ("extract_shadow_set", "validate_patch", "helix_constancy_report"):
        monkeypatch.setattr(cli, name, spy)
    runs = [
        (("verify", "minimality", "equator_in_sphere"), "default"),
        (("verify", "minimality", "tube_circle"), "default"),
        (("verify", "parallel-normal-frame-tgs", "plane_e3"), "default"),
        (("verify", "geodesic-alignment", "cone_axis"), 16),
        (("verify", "product-shadow", "product_spheres"), 12),
        (("validate", "plane_e3"), "default"),
        (("shadow", "plane_e3"), "default"),
        (("helix", "plane_e3"), "default"),
        (("shadow", "cone_axis"), 16),
        (("helix", "cone_axis"), 16),
    ]
    for argv, scene_grid in runs:
        for flags, want in (((), scene_grid), (("--grid", "5"), 5)):
            seen.clear()
            with pytest.raises(_Called):
                run([*argv, *flags])
            assert seen == [want], (argv, flags)


def test_sweep_compare_gives_a_residual_move_in_tols(capsys, tmp_path):
    entry = {"label": "r", "value": 1e-10, "tol": 1e-9, "floor": 1e-6, "status": "small"}
    record = {"exit": 0, "stderr": "", "stdout_sha256": "a",
              "report": {"results": {"report": {"hypotheses": [entry]}}}}
    moved = json.loads(json.dumps(record))
    moved["stdout_sha256"] = "b"
    moved["report"]["results"]["report"]["hypotheses"][0]["value"] = 6e-10
    paths = []
    for name, rec in (("a.json", record), ("b.json", moved)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"verify minimality s": rec}))
    assert cli_sweep.compare(*paths) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert rows == ["  results.report.hypotheses[0].value: 1e-10 -> 6e-10 (+0.5 tol)"]


def test_sweep_compare_lists_a_moved_chart_jet(capsys, tmp_path):
    # d2(u*v)/du2 = 0 turned -0.0: the digests move, and the one moved
    # leaf of the jets is listed, sign bit included
    record = cli_sweep.chart_record(parse_chart("(u*v, sin(u))", ("u", "v")), [[0.5, 2.0]])
    assert record["jets"]["o2"]["hess"][0][0][0][0] == 0.0
    moved = json.loads(json.dumps(record))
    moved["digests"]["o2"] = "b"
    moved["jets"]["o2"]["hess"][0][0][0][0] = -0.0
    paths = []
    for name, rec in (("a.json", record), ("b.json", moved)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"chart ops/0": rec}))
    assert cli_sweep.compare(*paths) == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("  ")]
    assert rows == ["  o2.hess[0][0][0][0]: 0.0 -> -0.0"]
    assert "0 commands moved an exit code or a verdict" in out
    assert out.endswith("1 of 1 records differ\n")
