"""Expression language: parsing, printing, jets against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowgeom.expr import (
    MAX_NESTING,
    Call,
    Const,
    EvalDomainError,
    Param,
    ParseError,
    compose,
    parse_chart,
    product_chart,
)

import shapes
from oracles import richardson_hessian, richardson_jacobian

TORUS_SRC = "((R + r*cos(t))*cos(p), (R + r*cos(t))*sin(p), r*sin(t))"


def torus_chart():
    return parse_chart(TORUS_SRC, ("t", "p"), {"R": 2.0, "r": 1.0})


def test_torus_value_at_origin():
    chart = torus_chart()
    val = chart.eval_values(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(val[0], [3.0, 0.0, 0.0], atol=1e-15)


def test_batched_value_shapes():
    chart = torus_chart()
    pts = np.random.default_rng(0).uniform(0, 2 * math.pi, size=(17, 2))
    vals = chart.eval_values(pts)
    assert vals.shape == (17, 3)
    jets = chart.eval_jets(pts)
    assert jets.value.shape == (17, 3)
    assert jets.jac.shape == (17, 3, 2)
    assert jets.hess.shape == (17, 3, 2, 2)
    np.testing.assert_array_equal(jets.value, vals)


def test_constant_output_broadcasts():
    chart = parse_chart("(u, 1.5, 0)", ("u",))
    jets = chart.eval_jets(np.array([[0.3], [0.7]]))
    np.testing.assert_array_equal(jets.value[:, 1], [1.5, 1.5])
    np.testing.assert_array_equal(jets.jac[:, 1, :], 0.0)
    np.testing.assert_array_equal(jets.jac[:, 0, 0], [1.0, 1.0])


def test_empty_batch_keeps_shapes():
    chart = parse_chart("(u*v, sin(u)/v, 2, atan2(u, v))", ("u", "v"))
    empty = np.zeros((0, 2))
    assert chart.eval_values(empty).shape == (0, 4)
    jets = chart.eval_jets(empty)
    assert (jets.value.shape, jets.jac.shape, jets.hess.shape) == ((0, 4), (0, 4, 2),
                                                                  (0, 4, 2, 2))


@pytest.mark.parametrize("name", sorted(shapes.BUILTIN_PATCHES))
def test_jets_match_finite_differences(name):
    patch = shapes.build_patch(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    lo = np.array(patch.domain.lo) + 0.05 * np.array(patch.domain.spans)
    hi = np.array(patch.domain.hi) - 0.05 * np.array(patch.domain.spans)
    pts = rng.uniform(lo, hi, size=(12, patch.n))
    jets = patch.chart.eval_jets(pts)
    for b, u in enumerate(pts):
        jac_fd = richardson_jacobian(patch.chart, u)
        hess_fd = richardson_hessian(patch.chart, u)
        assert np.abs(jets.jac[b] - jac_fd).max() < 1e-6
        assert np.abs(jets.hess[b] - hess_fd).max() < 1e-4


def test_hessian_bitwise_symmetric():
    chart = parse_chart(
        "(sin(u)*cos(v)*exp(0.1*u) + u^3*v, atan2(u, 1 + v^2), sqrt(4 + u*v))",
        ("u", "v"),
    )
    pts = np.random.default_rng(3).uniform(0.1, 1.5, size=(40, 2))
    hess = chart.eval_jets(pts).hess
    np.testing.assert_array_equal(hess, np.swapaxes(hess, 2, 3))


ROUNDTRIP_SOURCES = [
    "((R + r*cos(u))*cos(v), (R + r*cos(u))*sin(v), r*sin(u))",
    "(u - v - 1, -u^2, 2^u)",
    "(-u*v, u/(v + 3)/2, (u + v)^2)",
    "(atan2(u, v), sqrt(u*u + v*v + 1), tan(u/4))",
    "(exp(-u) - log(v + 2), u**2**2, 0.5)",
]


@pytest.mark.parametrize("src", ROUNDTRIP_SOURCES)
def test_print_parse_roundtrip(src):
    chart = parse_chart(src, ("u", "v"), {"R": 2.0, "r": 1.0})
    again = parse_chart(chart.to_source(), ("u", "v"), {"R": 2.0, "r": 1.0})
    pts = np.random.default_rng(7).uniform(0.2, 1.1, size=(25, 2))
    np.testing.assert_array_equal(chart.eval_values(pts), again.eval_values(pts))


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=2 * math.pi),
    p=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_torus_jet_first_order_property(t, p):
    chart = torus_chart()
    jac = chart.eval_jets(np.array([[t, p]])).jac[0]
    jac_fd = richardson_jacobian(chart, np.array([t, p]))
    assert np.abs(jac - jac_fd).max() < 1e-6


def test_parse_error_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse_chart("(cos(t), w)", ("t",))
    assert "unknown identifier 'w'" in str(err.value)
    assert "column 10" in str(err.value)


def test_parse_error_arity():
    with pytest.raises(ParseError, match="atan2 takes 2 arguments, got 1"):
        parse_chart("(atan2(t))", ("t",))


def test_parse_error_syntax():
    with pytest.raises(ParseError):
        parse_chart("(cos(t), )", ("t",))
    with pytest.raises(ParseError):
        parse_chart("(t +* 2)", ("t",))
    with pytest.raises(ParseError):
        parse_chart("", ("t",))


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("sin(", ")"), ("-", ""), ("2^", "")],
                         ids=["parentheses", "call", "unary", "exponent"])
def test_nesting_stops_at_the_cap(opener, closer):
    # each opener is one level: MAX_NESTING - 1 of them around u parse, and
    # one more is an error at u, the token that crosses the cap
    at_cap = opener * (MAX_NESTING - 1) + "u" + closer * (MAX_NESTING - 1)
    assert parse_chart(f"({at_cap})", ("u",)).n_outputs == 1
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels deep") as err:
        parse_chart(f"({opener}{at_cap}{closer})", ("u",))
    assert (err.value.line, err.value.col) == (1, 2 + MAX_NESTING * len(opener))


def test_domain_error_division_by_zero():
    chart = parse_chart("(1/u)", ("u",))
    with pytest.raises(EvalDomainError) as err:
        chart.eval_values(np.array([[0.5], [0.0]]))
    assert str(err.value).startswith("division by zero in '1.0/u' (line 1, column 3)")
    assert err.value.point == (0.0,)


def test_domain_error_log_and_sqrt():
    chart = parse_chart("(log(u))", ("u",))
    with pytest.raises(EvalDomainError, match="log"):
        chart.eval_values(np.array([[-1.0]]))
    chart = parse_chart("(sqrt(u))", ("u",))
    with pytest.raises(EvalDomainError, match="sqrt"):
        chart.eval_values(np.array([[-0.1]]))
    # value at zero is fine, first derivative is not
    assert chart.eval_values(np.array([[0.0]]))[0, 0] == 0.0
    with pytest.raises(EvalDomainError):
        chart.eval_jets(np.array([[0.0]]))


def test_domain_error_fractional_power():
    chart = parse_chart("(u^0.5)", ("u",))
    with pytest.raises(EvalDomainError, match="fractional power"):
        chart.eval_values(np.array([[-2.0]]))
    # integer powers of negative bases are fine
    chart = parse_chart("(u^3)", ("u",))
    assert chart.eval_values(np.array([[-2.0]]))[0, 0] == -8.0


def test_negative_literal_exponent_at_negative_base():
    # the parser reads -1 as a negation; folded, it is a constant exponent
    chart = parse_chart("(u^-1)", ["u"])
    assert chart.eval_values([[-2.0]])[0, 0] == -0.5
    jet = chart.eval_jets([[-2.0]])
    assert jet.value[0, 0] == -0.5
    assert jet.jac[0, 0, 0] == -0.25
    assert jet.hess[0, 0, 0, 0] == -0.25
    with pytest.raises(EvalDomainError, match="negative power -1.0 of zero base"):
        chart.eval_values([[0.0]])


def test_domain_error_in_folded_constant():
    chart = parse_chart("(u + log(0-1))", ("u",))
    for evaluate in (chart.eval_values, chart.eval_jets):
        with pytest.raises(EvalDomainError) as err:
            evaluate(np.array([[0.5]]))
        assert str(err.value) == (
            "log of non-positive value in 'log(0.0 - 1.0)' (line 1, column 6)")
        assert err.value.point is None


def test_power_precedence_and_unary_minus():
    chart = parse_chart("(-u^2, 2^u^2)", ("u",))
    vals = chart.eval_values(np.array([[3.0]]))
    assert vals[0, 0] == -9.0  # -(u^2)
    assert vals[0, 1] == 2.0**9.0  # right-associative


def test_pi_constant_and_scene_constants():
    chart = parse_chart("(pi*u, c*u)", ("u",), {"c": -2.5})
    vals = chart.eval_values(np.array([[1.0]]))
    assert vals[0, 0] == math.pi
    assert vals[0, 1] == -2.5


def test_general_power_jets():
    chart = parse_chart("(u^v)", ("u", "v"))
    pts = np.array([[1.7, 2.3]])
    jet = chart.eval_jets(pts)
    jac_fd = richardson_jacobian(chart, pts[0])
    hess_fd = richardson_hessian(chart, pts[0])
    assert np.abs(jet.jac[0] - jac_fd).max() < 1e-8
    assert np.abs(jet.hess[0] - hess_fd).max() < 1e-5
    with pytest.raises(EvalDomainError, match="non-positive base"):
        chart.eval_values(np.array([[-1.0, 2.3]]))


def test_atan2_jets():
    chart = parse_chart("(atan2(u, v))", ("u", "v"))
    pts = np.array([[0.4, -0.8]])
    jet = chart.eval_jets(pts)
    assert np.abs(jet.jac[0] - richardson_jacobian(chart, pts[0])).max() < 1e-8
    assert np.abs(jet.hess[0] - richardson_hessian(chart, pts[0])).max() < 1e-5
    with pytest.raises(EvalDomainError, match="atan2"):
        chart.eval_values(np.array([[0.0, 0.0]]))


def test_product_chart_blocks():
    a = parse_chart("(cos(u), sin(u))", ("u",))
    b = parse_chart("(v, 2*v)", ("v",))
    prod = product_chart(a, b)
    assert prod.params == ("u1", "v2")
    vals = prod.eval_values(np.array([[0.0, 3.0]]))
    np.testing.assert_allclose(vals[0], [1.0, 0.0, 3.0, 6.0])
    jets = prod.eval_jets(np.array([[0.5, 1.0]]))
    # block structure: first factor outputs do not depend on second params
    np.testing.assert_array_equal(jets.jac[0, :2, 1], 0.0)
    np.testing.assert_array_equal(jets.jac[0, 2:, 0], 0.0)


def test_compose_substitution():
    outer = parse_chart("(a + b, a*b)", ("a", "b"))
    inner = parse_chart("(t^2, t + 1)", ("t",))
    comp = compose(outer, inner)
    assert comp.n_params == 1
    val = comp.eval_values(np.array([[2.0]]))
    np.testing.assert_allclose(val[0], [7.0, 12.0])


# -- chart tapes: shared subexpressions and linear lowering -----------------


def _expressions(names):
    """Expressions in which every subexpression uses a parameter;
    constants appear only beside one, so no two distinct subtrees fold
    to the same constant."""
    const = st.sampled_from(["0.5", "2", "3"])
    op = st.sampled_from(["+", "-", "*"])

    def extend(sub):
        return st.one_of(
            st.tuples(sub, op, st.one_of(sub, const)).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(const, op, sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
            sub.map(lambda e: f"atan2({e}, 1.5)"),
            sub.map(lambda e: f"({e})/(2 + sin({e}))"),
            sub.map(lambda e: f"({e})^2"),
        )

    return st.recursive(st.sampled_from(names), extend, max_leaves=6)


def _distinct_operations(chart) -> int:
    """Structurally distinct nodes other than parameters and constants."""
    seen = set()

    def walk(node):
        if type(node) in (Param, Const) or node in seen:
            return
        seen.add(node)
        for child in node.args if type(node) is Call else (node.a, getattr(node, "b", None)):
            if child is not None:
                walk(child)

    for out in chart.outputs:
        walk(out)
    return len(seen)


@settings(max_examples=40, deadline=None)
@given(e1=_expressions(["u", "v"]), e2=_expressions(["u", "v"]))
def test_shared_outputs_match_separate_charts_bitwise(e1, e2):
    pieces = [e1, e2, f"({e1})*({e2})"]
    joint = parse_chart("(" + ", ".join(pieces) + ")", ("u", "v"))
    alone = [parse_chart(f"({p})", ("u", "v")) for p in pieces]
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(6, 2))
    values = joint.eval_values(pts)
    for k, chart in enumerate(alone):
        assert values[:, k].tobytes() == chart.eval_values(pts)[:, 0].tobytes()
    for order in (1, 2):
        jets = joint.eval_jets(pts, order)
        for k, chart in enumerate(alone):
            one = chart.eval_jets(pts, order)
            assert jets.value[:, k].tobytes() == one.value[:, 0].tobytes()
            assert jets.jac[:, k].tobytes() == one.jac[:, 0].tobytes()
            if order == 2:
                assert jets.hess[:, k].tobytes() == one.hess[:, 0].tobytes()


# one output per op and operand kind of the tape ('j' a jet, 'c' a constant)
_EVERY_OP_KIND = ("-u", "u + v", "u + 2", "2 + u", "u - v", "u - 2", "2 - u",
                  "u*v", "u*3", "3*u", "u/v", "u/3", "3/u", "0.7/(u + 1)",
                  "u^v", "2^u", "u^u", "u^2.5", "u^-2", "sin(u)", "cos(u)",
                  "tan(u)", "exp(u)", "log(u)", "sqrt(u)", "atan2(u, v)",
                  "atan2(u, 2)", "atan2(2, u)")


def test_values_equal_jet_values_for_every_op_kind():
    chart = parse_chart("(" + ", ".join(_EVERY_OP_KIND) + ")", ("u", "v"))
    pts = np.random.default_rng(3).uniform(0.1, 3.0, size=(2000, 2))
    values = chart.eval_values(pts)
    for order in (1, 2):
        jets = chart.eval_jets(pts, order)
        differ = np.count_nonzero(values != jets.value, axis=0)
        assert dict(zip(_EVERY_OP_KIND, differ.tolist())) == dict.fromkeys(_EVERY_OP_KIND, 0)


@settings(max_examples=40, deadline=None)
@given(outer=st.lists(_expressions(["a", "b"]), min_size=1, max_size=3),
       inner=st.lists(_expressions(["u", "v"]), min_size=2, max_size=2))
def test_composed_chart_lowers_each_distinct_node_once(outer, inner):
    comp = compose(parse_chart("(" + ", ".join(outer) + ")", ("a", "b")),
                   parse_chart("(" + ", ".join(inner) + ")", ("u", "v")))
    assert comp._tape.n_ops == _distinct_operations(comp)


def test_deep_composition_lowers_in_linear_time():
    # 60 levels of x -> x*x - x: the expanded tree has about 2**60 nodes,
    # the tape one op per level and operation
    step = parse_chart("(x*x - x)", ("x",))
    chart = parse_chart("(sin(t))", ("t",))
    for _ in range(60):
        chart = compose(step, chart)
    assert chart._tape.n_ops == 1 + 2 * 60
    v = float(np.sin(np.array([0.1]))[0])
    for _ in range(60):
        v = v * v - v
    assert chart.eval_values([[0.1]])[0, 0] == v
    assert np.isfinite(chart.eval_jets([[0.1]]).hess).all()
    # the product rebuilds each shared node once, so it lowers to the
    # chart's ops and the factor's
    factor = parse_chart("(v, 2*v)", ("v",))
    assert product_chart(chart, factor)._tape.n_ops == chart._tape.n_ops + factor._tape.n_ops
