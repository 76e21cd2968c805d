"""Parameterized chart builders for the tests.

Classical patches written in the expression DSL, each with a sensible
parameter box.  Builders take shape parameters (cone angle, cap
colatitude, sphere margin) that a scene file cannot express.  Domains
avoid chart degeneracies (sphere poles, cone apex).  All builders return
fresh SubmanifoldPatch objects.
"""

from __future__ import annotations

import math

from shadowgeom.expr import parse_chart
from shadowgeom.geometry import AmbientSpace, Box, SubmanifoldPatch

__all__ = [
    "flat_ambient",
    "sphere_ambient",
    "cone_ambient",
    "plane",
    "saddle",
    "sphere",
    "cylinder",
    "cone",
    "torus",
    "circle2",
    "circle3",
    "helix_curve",
    "sphere_cap",
    "sphere_region",
    "BUILTIN_PATCHES",
    "build_patch",
]

TWO_PI = 2.0 * math.pi


def flat_ambient(m: int) -> AmbientSpace:
    return AmbientSpace(dim=m)


def sphere_ambient() -> AmbientSpace:
    """Unit two-sphere in R^3 as a constraint zero set."""
    c = parse_chart("(x1^2 + x2^2 + x3^2 - 1)", ("x1", "x2", "x3"))
    return AmbientSpace(dim=3, constraint=c)


def cone_ambient(alpha: float = 0.5) -> AmbientSpace:
    """Cone surface of half-angle alpha about the x3 axis.

    The constraint gradient vanishes at the apex; patches must avoid it.
    """
    c = parse_chart(
        "(x1^2 + x2^2 - (k*x3)^2)", ("x1", "x2", "x3"), {"k": math.tan(alpha)}
    )
    return AmbientSpace(dim=3, constraint=c)


def plane(half: float = 2.0) -> SubmanifoldPatch:
    chart = parse_chart("(u, v, 0)", ("u", "v"))
    box = Box((-half, -half), (half, half), (False, False))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="plane")


def saddle(half: float = 1.0, a: float = 0.5) -> SubmanifoldPatch:
    chart = parse_chart("(u, v, a*u*v)", ("u", "v"), {"a": a})
    box = Box((-half, -half), (half, half), (False, False))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="saddle")


def sphere(margin: float = 0.2) -> SubmanifoldPatch:
    chart = parse_chart(
        "(sin(th)*cos(ph), sin(th)*sin(ph), cos(th))", ("th", "ph")
    )
    box = Box((margin, 0.0), (math.pi - margin, TWO_PI), (False, True))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="sphere")


def sphere_region() -> SubmanifoldPatch:
    """A region of the unit two-sphere as a patch of the sphere itself:
    codimension 0, so it has no normal direction."""
    chart = parse_chart("(sin(th)*cos(ph), sin(th)*sin(ph), cos(th))", ("th", "ph"))
    box = Box((0.6, 0.5), (1.4, 1.5), (False, False))
    return SubmanifoldPatch(chart, box, sphere_ambient())


def cylinder(height: float = 1.0) -> SubmanifoldPatch:
    chart = parse_chart("(cos(u), sin(u), v)", ("u", "v"))
    box = Box((0.0, -height), (TWO_PI, height), (True, False))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="cylinder")


def cone(alpha: float = 0.5, r0: float = 0.2, r1: float = 2.0) -> SubmanifoldPatch:
    """Cone of revolution; rulings make angle alpha with the axis.

    The apex u = 0 is rank-deficient and sits outside the default box.
    """
    chart = parse_chart(
        "(u*sin(alpha)*cos(v), u*sin(alpha)*sin(v), u*cos(alpha))",
        ("u", "v"),
        {"alpha": alpha},
    )
    box = Box((r0, 0.0), (r1, TWO_PI), (False, True))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="cone")


def torus(big: float = 2.0, small: float = 1.0) -> SubmanifoldPatch:
    chart = parse_chart(
        "((R + r*cos(t))*cos(p), (R + r*cos(t))*sin(p), r*sin(t))",
        ("t", "p"),
        {"R": big, "r": small},
    )
    box = Box((0.0, 0.0), (TWO_PI, TWO_PI), (True, True))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="torus")


def circle2() -> SubmanifoldPatch:
    chart = parse_chart("(cos(u), sin(u))", ("u",))
    box = Box((0.0,), (TWO_PI,), (True,))
    return SubmanifoldPatch(chart, box, flat_ambient(2), name="circle2")


def circle3(ambient: AmbientSpace | None = None) -> SubmanifoldPatch:
    """Unit circle in the x1-x2 plane; ambient defaults to flat R^3."""
    chart = parse_chart("(cos(u), sin(u), 0)", ("u",))
    box = Box((0.0,), (TWO_PI,), (True,))
    return SubmanifoldPatch(chart, box, ambient or flat_ambient(3), name="circle3")


def meridian_circle(ambient: AmbientSpace | None = None) -> SubmanifoldPatch:
    """Great circle through both poles, in the x1-x3 plane; ambient sphere."""
    chart = parse_chart("(sin(u), 0, cos(u))", ("u",))
    box = Box((0.0,), (TWO_PI,), (True,))
    return SubmanifoldPatch(chart, box, ambient or sphere_ambient(), name="meridian")


def helix_curve(pitch: float = 0.25, turns: float = 2.0) -> SubmanifoldPatch:
    chart = parse_chart("(cos(u), sin(u), c*u)", ("u",), {"c": pitch})
    box = Box((0.0,), (turns * TWO_PI,), (False,))
    return SubmanifoldPatch(chart, box, flat_ambient(3), name="helix_curve")


def sphere_cap(theta0: float, ambient: AmbientSpace | None = None) -> SubmanifoldPatch:
    """Latitude circle of colatitude theta0 on the unit sphere."""
    chart = parse_chart(
        "(sin(theta0)*cos(u), sin(theta0)*sin(u), cos(theta0))",
        ("u",),
        {"theta0": theta0},
    )
    box = Box((0.0,), (TWO_PI,), (True,))
    return SubmanifoldPatch(chart, box, ambient or sphere_ambient(), name="latitude")


BUILTIN_PATCHES = {
    "plane": plane,
    "saddle": saddle,
    "sphere": sphere,
    "cylinder": cylinder,
    "cone": cone,
    "torus": torus,
    "circle2": circle2,
    "circle3": circle3,
    "helix_curve": helix_curve,
}


def build_patch(name: str) -> SubmanifoldPatch:
    try:
        return BUILTIN_PATCHES[name]()
    except KeyError:
        raise KeyError(f"unknown built-in patch {name!r}") from None
