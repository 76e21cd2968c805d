"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single verdict
line (bypassing capture) so a full run reads as a checklist.  Expected
values are closed-form: the equator/outer-equator shadow sets, the
spherical-cap holonomy angle 2*pi*(1 - cos(theta0)), and the finite
circle shadow {(1,0), (-1,0)}.  All gates run at the default pinned
tolerances.
"""

import json
import math

import numpy as np
import pytest

from shadowgeom.cli import run
from shadowgeom.fields import ConstantField
from shadowgeom.geometry import ambient_tangent_basis
from shadowgeom.shadow import (
    extract_shadow_set,
    product_shadow_check,
    smoothness_certificate,
)
from shadowgeom.transport import (
    ParamCurve,
    construct_parallel_field,
    holonomy_loop,
    parallel_transport,
    probe_loops,
)

import shapes
from oracles import shadow_jacobian_consistency

TWO_PI = 2.0 * math.pi
E2 = ConstantField([0.0, 1.0])
E3 = ConstantField([0.0, 0.0, 1.0])


def _verdict(capsys, num: int, label: str, problems: list):
    status = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"criterion {num:2d}/11 {label:<36s} {status}")
    assert not problems, "; ".join(problems)


def _angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


# -- shared extractions -----------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_set():
    patch = shapes.sphere()
    ss = extract_shadow_set(patch, E3, resolution=64)
    cert = smoothness_certificate(patch, E3, ss.params)
    return patch, ss, cert


@pytest.fixture(scope="module")
def torus_set():
    patch = shapes.torus()
    ss = extract_shadow_set(patch, E3, resolution=64)
    cert = smoothness_certificate(patch, E3, ss.params)
    return patch, ss, cert


def _verify_all_output(capsys):
    code = run(["verify-all"])
    return code, capsys.readouterr().out


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_derivative_oracle(capsys):
    problems = []
    rng = np.random.default_rng(7)
    names = sorted(shapes.BUILTIN_PATCHES)
    per = -(-1000 // len(names))  # ceil: at least 1000 points in total
    for name in names:
        patch = shapes.build_patch(name)
        chart, box = patch.chart, patch.domain
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        span = hi - lo
        pts = lo + (0.05 + 0.9 * rng.random((per, patch.n))) * span
        jets = chart.eval_jets(pts, order=2)
        n = patch.n
        h1, h2 = 1e-6, 1e-4
        fd_jac = np.empty_like(jets.jac)
        for a in range(n):
            e = np.zeros(n)
            e[a] = h1
            fd_jac[:, :, a] = (chart.eval_values(pts + e)
                               - chart.eval_values(pts - e)) / (2.0 * h1)
        jac_err = float(np.max(np.abs(jets.jac - fd_jac)))
        if jac_err >= 1e-6:
            problems.append(f"{name}: jacobian fd gap {jac_err:.3e}")

        f0 = chart.eval_values(pts)
        fd_hess = np.empty_like(jets.hess)
        for a in range(n):
            ea = np.zeros(n)
            ea[a] = h2
            fd_hess[:, :, a, a] = (chart.eval_values(pts + ea) - 2.0 * f0
                                   + chart.eval_values(pts - ea)) / h2**2
            for b in range(a + 1, n):
                eb = np.zeros(n)
                eb[b] = h2
                mixed = (chart.eval_values(pts + ea + eb)
                         - chart.eval_values(pts + ea - eb)
                         - chart.eval_values(pts - ea + eb)
                         + chart.eval_values(pts - ea - eb)) / (4.0 * h2**2)
                fd_hess[:, :, a, b] = mixed
                fd_hess[:, :, b, a] = mixed
        hess_err = float(np.max(np.abs(jets.hess - fd_hess)))
        if hess_err >= 1e-4:
            problems.append(f"{name}: hessian fd gap {hess_err:.3e}")
    _verdict(capsys, 1, "derivative-oracle", problems)


def test_criterion_02_sphere_equator_extraction(capsys, sphere_set):
    _, ss, cert = sphere_set
    problems = []
    if ss.n_components != 1:
        problems.append(f"{ss.n_components} components, expected 1")
    if len(ss.polylines) != 1 or ss.polylines[0][0] != ss.polylines[0][-1]:
        problems.append("polyline output missing or not closed")
    z_max = float(np.max(np.abs(ss.ambient[:, 2])))
    if z_max >= 1e-9:
        problems.append(f"max |z| = {z_max:.3e}")
    if not cert.ok or not np.all(cert.flags):
        problems.append("smoothness certificate incomplete")
    if cert.expected_dim != 1:
        problems.append(f"expected_dim {cert.expected_dim}, want 1")
    _verdict(capsys, 2, "sphere-equator-extraction", problems)


def test_criterion_03_torus_two_components(capsys, torus_set):
    _, ss, cert = torus_set
    problems = []
    if ss.n_components != 2:
        problems.append(f"{ss.n_components} components, expected 2")
    levels = set()
    for poly in ss.polylines:
        if poly[0] != poly[-1]:
            problems.append("component not closed")
        t = ss.params[list(poly), 0]
        d0 = np.minimum(np.abs(t), np.abs(t - TWO_PI))
        dpi = np.abs(t - math.pi)
        if np.max(d0) < 1e-8:
            levels.add(0)
        elif np.max(dpi) < 1e-8:
            levels.add(1)
        else:
            worst = min(float(np.max(d0)), float(np.max(dpi)))
            problems.append(f"component off both circles by {worst:.3e}")
    if levels != {0, 1} and not problems:
        problems.append("components do not split across t = 0 and t = pi")
    if not cert.ok or not np.all(cert.flags):
        problems.append("smoothness certificate incomplete")
    _verdict(capsys, 3, "torus-two-components", problems)


def test_criterion_04_finite_circle_shadow(capsys):
    ss = extract_shadow_set(shapes.circle2(), E2, resolution=32)
    problems = []
    if ss.n_points != 2:
        problems.append(f"{ss.n_points} points, expected 2")
    else:
        got = ss.ambient[np.argsort(ss.ambient[:, 0])]
        want = np.array([[-1.0, 0.0], [1.0, 0.0]])
        gap = float(np.max(np.abs(got - want)))
        if gap >= 1e-9:
            problems.append(f"points off (+-1, 0) by {gap:.3e}")
    _verdict(capsys, 4, "finite-circle-shadow", problems)


def test_criterion_05_jacobian_certificates(capsys, sphere_set, torus_set):
    problems = []
    for label, (patch, ss, _) in (("sphere", sphere_set), ("torus", torus_set)):
        gap, _ = shadow_jacobian_consistency(patch, E3, ss.params)
        if gap >= 1e-5:
            problems.append(f"{label}: analytic vs fd jacobian gap {gap:.3e}")
    _verdict(capsys, 5, "shadow-jacobian-oracle", problems)


def test_criterion_06_product_theorem(capsys):
    problems = []
    cases = (
        ("circle-x-circle", shapes.circle2(), E2, shapes.circle2(), E2, 24),
        ("sphere-x-sphere", shapes.sphere(), E3, shapes.sphere(), E3, 12),
    )
    for label, pa, fa, pb, fb, res in cases:
        rep = product_shadow_check(pa, fa, pb, fb, resolution=res)
        gap, cell = rep.conclusions[0].value, rep.details["cell_diagonal"]
        if not gap < cell:
            problems.append(f"{label}: hausdorff {gap:.3e} >= cell {cell:.3e}")
        if rep.verdict != "confirmed":
            problems.append(f"{label}: verdict {rep.verdict}")
    _verdict(capsys, 6, "product-shadow-agreement", problems)


def test_criterion_07_holonomy_oracle(capsys):
    problems = []
    wrap = ParamCurve.polyline([[0.0], [TWO_PI]], label="wrap")
    for theta0 in (math.pi / 6, math.pi / 3, math.pi / 2):
        hol, = holonomy_loop(shapes.sphere_cap(theta0), [wrap], steps=2048)
        want = TWO_PI * (1.0 - math.cos(theta0))
        gap = _angle_gap(hol.rotation, want)
        if gap >= 1e-6:
            problems.append(f"theta0={theta0:.3f}: rotation gap {gap:.3e}")

    for theta0 in (math.pi / 6, math.pi / 3):
        _, rep = construct_parallel_field(shapes.sphere_cap(theta0))
        if rep.ok or rep.max_deviation <= 1e-6:
            problems.append(f"latitude {theta0:.3f} not rejected "
                            f"(deviation {rep.max_deviation:.3e})")
    _, rep = construct_parallel_field(shapes.sphere_cap(math.pi / 2))
    if not rep.ok or rep.max_deviation >= 1e-6:
        problems.append(f"equator rejected (deviation {rep.max_deviation:.3e})")
    for name in sorted(shapes.BUILTIN_PATCHES):  # all flat-ambient scenes
        _, rep = construct_parallel_field(shapes.build_patch(name))
        if not rep.ok or rep.max_deviation >= 1e-10:
            problems.append(f"{name}: flat obstruction {rep.max_deviation:.3e}")
    _verdict(capsys, 7, "holonomy-oracle", problems)


def test_criterion_08_transport_invariants(capsys):
    problems = []
    rng = np.random.default_rng(3)
    patches = [shapes.build_patch(n) for n in sorted(shapes.BUILTIN_PATCHES)]
    patches += [shapes.meridian_circle(), shapes.sphere_cap(math.pi / 6)]
    for patch in patches:
        loops = probe_loops(patch, levels=(1,), n_random=2, seed=0)[:3]
        for loop in loops:
            x0 = patch.chart.eval_values(loop.vertices[:1])
            basis = ambient_tangent_basis(patch.ambient, x0)[0]
            coeffs = rng.standard_normal((2, basis.shape[1]))
            v1, v2 = (basis @ c for c in coeffs)
            r1 = parallel_transport(patch, loop, v1, steps=1024)
            r2 = parallel_transport(patch, loop, v2, steps=1024)
            for r in (r1, r2):
                if r.norm_drift >= 1e-8:
                    problems.append(f"{patch.name}/{loop.label}: "
                                    f"norm drift {r.norm_drift:.3e}")
            pair = abs(float(np.dot(r1.vectors[-1], r2.vectors[-1])
                             - np.dot(v1, v2)))
            if pair >= 1e-7:
                problems.append(f"{patch.name}/{loop.label}: "
                                f"inner-product drift {pair:.3e}")
            rev = ParamCurve.polyline(loop.vertices[::-1], label="rev")
            fwd, bwd = holonomy_loop(patch, [loop, rev], steps=1024)
            gap = float(np.max(np.abs(bwd.matrix @ fwd.matrix
                                      - np.eye(len(fwd.matrix)))))
            if gap >= 1e-6:
                problems.append(f"{patch.name}/{loop.label}: "
                                f"loop inverse gap {gap:.3e}")
    _verdict(capsys, 8, "transport-invariants", problems)


def test_criterion_09_theorem_suite(capsys):
    code, out = _verify_all_output(capsys)
    rep = json.loads(out)
    verdicts = {(r["scene"], r["theorem"]): r["verdict"]
                for r in rep["results"]["checks"]}
    expected = {
        ("equator_in_sphere", "orthogonal-tgs"): "confirmed",
        ("torus_outer_equator", "orthogonal-tgs"): "confirmed",
        ("line_in_plane", "orthogonal-tgs"): "hypotheses-not-met",
        ("equator_in_sphere", "tgs-helix"): "confirmed",
        ("ruling_in_cylinder", "tgs-helix"): "confirmed",
        ("equator_in_sphere", "minimality"): "confirmed",
        ("torus_outer_equator", "minimality"): "confirmed",
        ("tube_circle", "minimality"): "confirmed",
        ("plane_e3", "parallel-normal-frame-tgs"): "confirmed",
        ("equator_in_s2", "parallel-normal-frame-tgs"): "confirmed",
    }
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    for key, want in expected.items():
        got = verdicts.get(key)
        if got != want:
            problems.append(f"{key[0]}/{key[1]}: {got} != {want}")
    if not rep["results"]["all_match"]:
        problems.append("all_match is false")
    _verdict(capsys, 9, "theorem-suite", problems)


def test_criterion_10_helix_corpus(capsys):
    problems = []
    for scene in ("cylinder_e3", "cone_axis"):
        code = run(["helix", scene])
        res = json.loads(capsys.readouterr().out)["results"]
        dev = res["constancy"]["h_deviation"]
        if code != 0 or res["classification"]["verdict"] != "confirmed":
            problems.append(f"{scene}: helix verdict missing")
        if dev >= 1e-8:
            problems.append(f"{scene}: h deviation {dev:.3e}")
        if scene == "cylinder_e3":
            gk = res["gauss_kronecker"]["max_abs"]
            if gk >= 1e-9:
                problems.append(f"cylinder gk curvature {gk:.3e}")
    code = run(["helix", "sphere_e3"])
    res = json.loads(capsys.readouterr().out)["results"]
    if code != 2 or res["classification"]["verdict"] != "hypotheses-not-met":
        problems.append("sphere not rejected")
    if res["constancy"]["h_deviation"] <= 0.5:
        problems.append(f"sphere deviation {res['constancy']['h_deviation']:.3e}")
    _verdict(capsys, 10, "helix-corpus", problems)


def test_criterion_11_determinism(capsys):
    code1, out1 = _verify_all_output(capsys)
    code2, out2 = _verify_all_output(capsys)
    strip = lambda s: "\n".join(l for l in s.splitlines()
                                if "total_seconds" not in l)
    problems = []
    if code1 != 0 or code2 != 0:
        problems.append(f"exit codes {code1}, {code2}")
    if strip(out1) != strip(out2):
        problems.append("reports differ beyond timings")
    _verdict(capsys, 11, "deterministic-reports", problems)
