"""Scene text parsing: blocks, values, name resolution, diagnostics."""

import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowgeom.cli import run
from shadowgeom.fields import ConstantField, ExprField
from shadowgeom.scene import SceneError, load_scene, parse_scene
from shadowgeom.tolerances import DEFAULT_TOLS, Tolerances

MINIMAL = """
scene demo

ambient {
  dim = 3
}

patch plane {
  chart = (u, v, 0)
  params = u, v
  lo = -1, -1
  hi = 1, 1
}

field {
  constant = 0, 0, 1
}
"""


def test_minimal_scene_parses():
    s = parse_scene(MINIMAL)
    assert s.name == "demo"
    assert s.ambient.flat and s.ambient.dim == 3
    assert list(s.patches) == ["plane"]
    assert s.patch().name == "plane"
    assert s.resolution is None


def test_digest_is_sha256_of_bytes():
    s = parse_scene(MINIMAL)
    assert s.digest == hashlib.sha256(MINIMAL.encode()).hexdigest()


def test_periodic_defaults_to_false():
    s = parse_scene(MINIMAL)
    assert s.patch().domain.periodic == (False, False)


def test_comments_and_quotes_are_stripped():
    text = MINIMAL.replace("constant = 0, 0, 1",
                           'constant = 0, 0, 1  # vertical')
    text = text.replace("chart = (u, v, 0)", 'chart = "(u, v, 0)"')
    s = parse_scene(text)
    np.testing.assert_array_equal(s.fields["plane"].values(np.zeros((1, 2))),
                                  [[0.0, 0.0, 1.0]])


def test_numbers_accept_expressions():
    text = MINIMAL.replace("hi = 1, 1", "hi = pi - 0.1, 2*pi")
    s = parse_scene(text)
    assert s.patch().domain.hi == (math.pi - 0.1, 2.0 * math.pi)


def test_chart_constants():
    text = MINIMAL.replace("chart = (u, v, 0)", "chart = (u, v, a*u*v)")
    text = text.replace("params = u, v", "params = u, v\n  constants = a: pi/4")
    s = parse_scene(text)
    assert s.patch().chart.constants == {"a": math.pi / 4.0}


def test_grid_scalar_and_tuple():
    s = parse_scene(MINIMAL + "\ngrid {\n  resolution = 24\n}\n")
    assert s.resolution == 24
    s = parse_scene(MINIMAL + "\ngrid {\n  resolution = 24, 48\n}\n")
    assert s.resolution == (24, 48)


@pytest.mark.parametrize("res", ["1", "0", "64, 1"])
def test_grid_below_two_is_rejected(res):
    text = MINIMAL + f"\ngrid {{\n  resolution = {res}\n}}\n"
    with pytest.raises(SceneError, match="at least 2") as info:
        parse_scene(text)
    assert info.value.line == text.splitlines().index(f"  resolution = {res}") + 1


@pytest.mark.parametrize("res", ["16.9", "2.5, 64"])
def test_grid_fractional_is_rejected(res):
    text = MINIMAL + f"\ngrid {{\n  resolution = {res}\n}}\n"
    with pytest.raises(SceneError, match="integers") as info:
        parse_scene(text)
    assert info.value.line == text.splitlines().index(f"  resolution = {res}") + 1


def test_tolerance_overrides():
    s = parse_scene(MINIMAL + "\ntolerances {\n  extract_tol = 1e-6\n}\n")
    assert s.tols.extract_tol == 1e-6
    with pytest.raises(SceneError, match="unknown tolerance"):
        parse_scene(MINIMAL + "\ntolerances {\n  bogus = 1\n}\n")
    with pytest.raises(SceneError, match="rank_tol"):
        parse_scene(MINIMAL + "\ntolerances {\n  rank_tol = 0\n}\n")


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from([f.name for f in fields(Tolerances)]),
       value=st.floats(allow_nan=True, allow_infinity=True))
def test_tolerance_override_must_be_finite_and_positive(name, value):
    if math.isfinite(value) and value > 0.0:
        assert getattr(DEFAULT_TOLS.with_overrides({name: value}), name) == value
    else:
        with pytest.raises(ValueError, match=name):
            DEFAULT_TOLS.with_overrides({name: value})


def test_constraint_ambient():
    text = """
scene round
ambient {
  dim = 3
  coords = x, y, z
  constraint = (x^2 + y^2 + z^2 - 1)
}
patch equator {
  chart = (cos(s), sin(s), 0)
  params = s
  lo = 0
  hi = 2*pi
  periodic = yes
}
"""
    s = parse_scene(text)
    assert s.ambient.n_constraints == 1
    assert s.patch().domain.periodic == (True,)


# -- nested patches --------------------------------------------------------------


NESTED = MINIMAL + """
patch line in plane {
  chart = (s, 0)
  params = s
  lo = -1
  hi = 1
}
"""


def test_nested_patch_records_spec():
    s = parse_scene(NESTED)
    spec = s.first_nested()
    assert spec.name == "line" and spec.parent == "plane"
    assert spec.chart.n_outputs == 2
    assert spec.domain.lo == (-1.0,)


def test_nested_unknown_parent_rejected():
    text = NESTED.replace("in plane", "in mystery")
    with pytest.raises(SceneError, match="unknown patch 'mystery'"):
        parse_scene(text)


def test_nested_dimension_mismatch_rejected():
    text = NESTED.replace("chart = (s, 0)", "chart = (s, 0, 0)")
    with pytest.raises(SceneError, match="must map into the 2 parameters"):
        parse_scene(text)


def test_first_nested_requires_one():
    with pytest.raises(SceneError, match="no nested patch"):
        parse_scene(MINIMAL).first_nested()


# -- fields ------------------------------------------------------------------------


def test_default_field_binds_to_root():
    s = parse_scene(MINIMAL)
    assert s.root_name == "plane"
    assert isinstance(s.fields["plane"], ConstantField)


def test_scaled_field():
    text = MINIMAL.replace("constant = 0, 0, 1",
                           "constant = 0, 0, 1\n  scale = 2.5")
    y = parse_scene(text).fields["plane"].values(np.zeros((1, 2)))
    np.testing.assert_allclose(y, [[0.0, 0.0, 2.5]])


def test_expression_field():
    text = MINIMAL.replace(
        "constant = 0, 0, 1",
        "expression = (-v, u, 0)\n  params = u, v")
    fld = parse_scene(text).fields["plane"]
    assert isinstance(fld, ExprField)
    np.testing.assert_allclose(fld.values(np.array([[0.25, 0.5]])),
                               [[-0.5, 0.25, 0.0]])


def test_transport_seed_field():
    text = MINIMAL.replace(
        "constant = 0, 0, 1",
        "transport_base = 0.5, 0.5\n  vector = 1, 0, 0")
    s = parse_scene(text)
    assert not s.fields
    seed = s.seeds["plane"]
    np.testing.assert_array_equal(seed.base, [0.5, 0.5])
    np.testing.assert_array_equal(seed.vector, [1.0, 0.0, 0.0])


def test_transport_seed_rejects_scale():
    text = MINIMAL.replace(
        "constant = 0, 0, 1",
        "transport_base = 0.5, 0.5\n  scale = 2")
    with pytest.raises(SceneError, match="cannot be scaled"):
        parse_scene(text)


def test_field_needs_exactly_one_kind():
    text = MINIMAL.replace("constant = 0, 0, 1",
                           "constant = 0, 0, 1\n  transport_base = 0, 0")
    with pytest.raises(SceneError, match="exactly one of"):
        parse_scene(text)


def test_field_for_unknown_patch_rejected():
    text = MINIMAL.replace("field {", "field for mystery {")
    with pytest.raises(SceneError, match="unknown patch 'mystery'"):
        parse_scene(text)


def test_duplicate_field_rejected():
    text = MINIMAL + "\nfield {\n  constant = 1, 0, 0\n}\n"
    with pytest.raises(SceneError, match="duplicate field"):
        parse_scene(text)


def test_missing_field_reported_on_access(tmp_path, capsys):
    # a transport seed without a vector binds no field; the CLI says so
    text = MINIMAL.replace("field {", "field for plane {")
    path = tmp_path / "seedless.scene"
    path.write_text(text.replace("constant = 0, 0, 1", "transport_base = 0, 0"))
    assert parse_scene(path.read_text()).seeds["plane"].vector is None
    assert run(["shadow", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no field bound to patch 'plane'" in err


# -- multi-patch scenes -------------------------------------------------------------


TWO_ROOTS = """
scene pair
ambient {
  dim = 2
}
patch A {
  chart = (cos(s), sin(s))
  params = s
  lo = 0
  hi = 2*pi
  periodic = yes
}
patch B {
  chart = (cos(s), sin(s))
  params = s
  lo = 0
  hi = 2*pi
  periodic = yes
}
field for A {
  constant = 0, 1
}
field for B {
  constant = 1, 0
}
product {
  factors = A, B
}
"""


def test_two_root_scene():
    s = parse_scene(TWO_ROOTS)
    assert s.product == ("A", "B")
    assert set(s.fields) == {"A", "B"}
    with pytest.raises(SceneError, match="name one explicitly"):
        s.patch()


def test_bare_field_needs_target_with_two_roots():
    text = TWO_ROOTS.replace("field for A {", "field {")
    with pytest.raises(SceneError, match="needs `for <patch>`"):
        parse_scene(text)


def test_product_factor_must_exist():
    text = TWO_ROOTS.replace("factors = A, B", "factors = A, C")
    with pytest.raises(SceneError, match="not a root patch"):
        parse_scene(text)


def test_product_needs_two_factors():
    text = TWO_ROOTS.replace("factors = A, B", "factors = A")
    with pytest.raises(SceneError, match="exactly two factors"):
        parse_scene(text)


# -- tube blocks ---------------------------------------------------------------------


def test_tube_block():
    text = MINIMAL + "\ntube {\n  of = plane\n  direction = 0, 0, 1\n  eps = 0.5\n}\n"
    s = parse_scene(text)
    assert s.tube.of == "plane" and s.tube.eps == 0.5
    np.testing.assert_array_equal(s.tube.direction, [0.0, 0.0, 1.0])


def test_tube_of_unknown_patch_rejected():
    text = MINIMAL + "\ntube {\n  of = mystery\n  direction = 0, 0, 1\n  eps = 0.5\n}\n"
    with pytest.raises(SceneError, match="unknown patch 'mystery'"):
        parse_scene(text)


# -- diagnostics -----------------------------------------------------------------------


def test_error_carries_line_number():
    text = MINIMAL.replace("lo = -1, -1", "lo -1, -1")
    with pytest.raises(SceneError, match=r"scene:\d+: expected key = value"):
        parse_scene(text)


def test_unknown_key_rejected():
    text = MINIMAL.replace("  lo = -1, -1", "  lo = -1, -1\n  colour = red")
    with pytest.raises(SceneError, match="unknown key 'colour'"):
        parse_scene(text)


def test_duplicate_key_rejected():
    text = MINIMAL.replace("  lo = -1, -1", "  lo = -1, -1\n  lo = 0, 0")
    with pytest.raises(SceneError, match="duplicate key 'lo'"):
        parse_scene(text)


def test_duplicate_patch_rejected():
    text = MINIMAL + """
patch plane {
  chart = (u, v, 1)
  params = u, v
  lo = -1, -1
  hi = 1, 1
}
"""
    with pytest.raises(SceneError, match="duplicate patch 'plane'"):
        parse_scene(text)


def test_unclosed_block_rejected():
    with pytest.raises(SceneError, match="never closed"):
        parse_scene(MINIMAL.rstrip()[:-2])


def test_unknown_block_kind_rejected():
    with pytest.raises(SceneError, match="unknown block kind 'widget'"):
        parse_scene(MINIMAL + "\nwidget {\n  x = 1\n}\n")


def test_missing_ambient_rejected():
    text = MINIMAL.split("patch plane")[1]
    with pytest.raises(SceneError, match="needs an ambient block"):
        parse_scene("patch plane" + text)


def test_bad_chart_reports_line():
    text = MINIMAL.replace("chart = (u, v, 0)", "chart = (u, v, 0")
    with pytest.raises(SceneError, match="bad chart"):
        parse_scene(text)


def test_bad_number_reports_value():
    text = MINIMAL.replace("lo = -1, -1", "lo = banana, -1")
    with pytest.raises(SceneError, match="cannot evaluate number 'banana'"):
        parse_scene(text)


@pytest.mark.parametrize("number", ["log(0)", "sqrt(-1)", "1/0"])
def test_number_outside_primitive_domain_reports_line(number):
    # a constant outside a primitive's domain is a scene error at its line,
    # not a bare evaluation error with no scene file or line
    text = MINIMAL.replace("lo = -1, -1", f"lo = {number}, -1")
    line = 1 + text[:text.index(number)].count("\n")
    with pytest.raises(SceneError) as caught:
        parse_scene(text)
    assert str(caught.value).startswith(f"scene:{line}: cannot evaluate number {number!r}")


def test_mismatched_box_lengths_rejected():
    text = MINIMAL.replace("lo = -1, -1", "lo = -1")
    with pytest.raises(SceneError, match="lengths disagree"):
        parse_scene(text)


def test_wrong_ambient_dimension_rejected_at_patch_build():
    text = MINIMAL.replace("chart = (u, v, 0)", "chart = (u, v)")
    with pytest.raises(SceneError):
        parse_scene(text)


def test_load_scene_uses_file_name_in_errors(tmp_path):
    p = tmp_path / "broken.scene"
    p.write_text(MINIMAL.replace("dim = 3", "dim = 3\n  extra = 1"))
    with pytest.raises(SceneError, match="broken.scene:"):
        load_scene(str(p))


TUBE = "\ntube {\n  of = plane\n  direction = 0, 0, 1\n  eps = 0.5\n}\n"


@pytest.mark.parametrize("old, new, line", [
    ("dim = 3", "dim = inf", 5),
    ("dim = 3", "dim = 1e400", 5),
    ("dim = 3", "dim = 2.5", 5),
    ("dim = 3", "dim = nan", 5),
    ("dim = 3", "dim = 0", 5),
    ("dim = 3", "dim = -3", 5),
    ("dim = 3", "dim = 3\n  coords = x1, x2\n  constraint = (x1^2 + x2^2 - 1)", 7),
    ("constant = 0, 0, 1", "constant = 0, 1", 16),
    ("constant = 0, 0, 1", "expression = (u, v)\n  params = u, v", 16),
    ("constant = 0, 0, 1", "expression = (0, 0, s)\n  params = s", 17),
    ("constant = 0, 0, 1", "transport_base = 0.5\n  vector = 1, 0, 0", 16),
    ("constant = 0, 0, 1", "transport_base = 0.5, 0.5\n  vector = 1, 0", 17),
    ("direction = 0, 0, 1", "direction = 0, 1", 21),
    # a number that is not finite; a NaN field value used to give an empty
    # shadow set and NaN in reports
    ("constant = 0, 0, 1", "constant = 0, nan, 1", 16),
    ("constant = 0, 0, 1", "constant = 0, 0, 1\n  scale = inf", 17),
    ("lo = -1, -1", "lo = 1e400, -1", 11),
    ("hi = 1, 1", "hi = 1, exp(1000)", 12),
    ("chart = (u, v, 0)", "chart = (u, v, a)\n  constants = a: -1e400", 10),
    ("constant = 0, 0, 1", "transport_base = 0.5, 0.5\n  vector = 1, 0, exp(1000) - exp(1000)",
     17),
    ("eps = 0.5", "eps = nan", 22),
])
def test_scene_sizes_are_refused_at_load_with_their_line(tmp_path, capsys, old, new, line):
    path = tmp_path / "probe.scene"
    path.write_text((MINIMAL + TUBE).replace(old, new))
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: probe.scene:{line}: ") and err.count("\n") == 1, err
