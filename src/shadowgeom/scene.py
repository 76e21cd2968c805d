"""Plain-text scene files: patches, fields, and check configuration.

A scene is a sequence of named blocks holding key = value lines:

    scene sphere_e3
    ambient {
      dim = 3
    }
    patch M {
      chart = (sin(th)*cos(ph), sin(th)*sin(ph), cos(th))
      params = th, ph
      lo = 0.1, 0
      hi = pi - 0.1, 2*pi
      periodic = no, yes
    }
    field {
      constant = 0, 0, 1
    }
    grid {
      resolution = 64
    }

Charts are DSL expressions; plain numbers may also be DSL expressions
without parameters (pi - 0.1 above).  `patch L in M` nests L through a
chart into M's parameters.  `field for A` binds a field to one patch of
a multi-patch scene; a bare `field` block binds to the unique root.
Optional blocks: `product { factors = A, B }`, `tube { of = L,
direction = ..., eps = ... }`, and `tolerances { name = value }`.

Sizes are checked at load, and a mismatch names its line: `dim` is an
integer of at least 1; `constant`, `expression` outputs, `vector` and a
tube's `direction` have `dim` entries, and a field's `params` and
`transport_base` one per patch parameter.

Comments run from '#' to the end of the line.  The scene digest is the
SHA-256 of the raw file bytes, so any edit shows up in reports.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .expr import EvalDomainError, ParseError, parse_chart
from .fields import ConstantField, ExprField, FieldAlongM
from .geometry import AmbientSpace, Box, SubmanifoldPatch
from .tolerances import DEFAULT_TOLS, Tolerances

__all__ = ["SceneError", "NestedSpec", "TubeSpec", "SeedSpec", "Scene",
           "parse_scene", "load_scene"]


class SceneError(Exception):
    """Scene text does not parse or does not resolve."""

    def __init__(self, msg: str, source: str = "scene", line: int | None = None):
        at = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(at + msg)
        self.line = line


@dataclass(frozen=True)
class NestedSpec:
    """A patch given by a chart into its parent's parameters."""

    name: str
    parent: str
    chart: object
    domain: Box


@dataclass(frozen=True)
class TubeSpec:
    of: str
    direction: np.ndarray
    eps: float


@dataclass(frozen=True)
class SeedSpec:
    """Base point (and optional seed vector) for transported fields."""

    patch: str
    base: np.ndarray
    vector: np.ndarray | None


@dataclass(frozen=True)
class Scene:
    name: str
    digest: str
    ambient: AmbientSpace
    patches: dict  # name -> SubmanifoldPatch (root patches)
    nested: dict  # name -> NestedSpec
    fields: dict  # patch name -> FieldAlongM
    seeds: dict  # patch name -> SeedSpec
    product: tuple | None
    tube: TubeSpec | None
    resolution: object  # int, per-axis tuple, or None
    tols: Tolerances

    @property
    def root_name(self) -> str:
        if len(self.patches) != 1:
            raise SceneError(
                f"scene has {len(self.patches)} root patches; name one explicitly",
                self.name,
            )
        return next(iter(self.patches))

    def patch(self, name: str | None = None) -> SubmanifoldPatch:
        return self.patches[name or self.root_name]

    def first_nested(self) -> NestedSpec:
        if not self.nested:
            raise SceneError("scene has no nested patch", self.name)
        return next(iter(self.nested.values()))


# -- low-level text parsing ----------------------------------------------------


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _split_list(text: str):
    """Split on top-level commas, respecting parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _number(text: str, source: str, line: int) -> float:
    """The value of a number or constant expression; one that is not
    finite (nan, inf, 1e400, exp(1000)) is refused at its line."""
    try:
        value = float(text)
    except ValueError:
        try:
            chart = parse_chart(f"({text})", ())
            with np.errstate(all="ignore"):
                value = float(chart.eval_values(np.zeros((1, 0)))[0, 0])
        except (ParseError, ValueError, EvalDomainError) as exc:
            raise SceneError(f"cannot evaluate number {text!r}: {exc}", source, line)
    if not math.isfinite(value):
        raise SceneError(f"number {text!r} is not finite", source, line)
    return value


def _numbers(text: str, source: str, line: int):
    return tuple(_number(p, source, line) for p in _split_list(text))


def _bools(text: str, source: str, line: int):
    out = []
    for p in _split_list(text):
        word = p.lower()
        if word in ("yes", "true", "on", "1"):
            out.append(True)
        elif word in ("no", "false", "off", "0"):
            out.append(False)
        else:
            raise SceneError(f"expected yes/no, got {p!r}", source, line)
    return tuple(out)


def _names(text: str):
    return tuple(p.strip() for p in _split_list(text))


def _constants(text: str, source: str, line: int) -> dict:
    consts = {}
    for pair in _split_list(text):
        if ":" not in pair:
            raise SceneError(f"expected name: value, got {pair!r}", source, line)
        key, val = pair.split(":", 1)
        consts[key.strip()] = _number(val.strip(), source, line)
    return consts


@dataclass
class _Block:
    kind: str
    name: str | None
    parent: str | None
    line: int
    entries: dict = dc_field(default_factory=dict)  # key -> (value, line)


def _split_blocks(text: str, source: str):
    header = None
    blocks = []
    current: _Block | None = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            if line.startswith("scene"):
                parts = line.split()
                if len(parts) != 2:
                    raise SceneError("expected: scene <name>", source, i)
                header = parts[1]
                continue
            if not line.endswith("{"):
                raise SceneError(f"expected a block header, got {line!r}", source, i)
            words = line[:-1].split()
            kind = words[0] if words else ""
            name = parent = None
            if kind == "patch":
                if len(words) == 2:
                    name = words[1]
                elif len(words) == 4 and words[2] == "in":
                    name, parent = words[1], words[3]
                else:
                    raise SceneError("expected: patch <name> [in <parent>] {", source, i)
            elif kind == "field":
                if len(words) == 3 and words[1] == "for":
                    name = words[2]
                elif len(words) != 1:
                    raise SceneError("expected: field [for <patch>] {", source, i)
            elif kind in ("ambient", "product", "tube", "grid", "tolerances"):
                if len(words) != 1:
                    raise SceneError(f"{kind} block takes no name", source, i)
            else:
                raise SceneError(f"unknown block kind {kind!r}", source, i)
            current = _Block(kind, name, parent, i)
            continue
        if line == "}":
            blocks.append(current)
            current = None
            continue
        if "=" not in line:
            raise SceneError(f"expected key = value, got {line!r}", source, i)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current.entries:
            raise SceneError(f"duplicate key {key!r}", source, i)
        current.entries[key] = (_unquote(value.strip()), i)
    if current is not None:
        raise SceneError(f"block opened at line {current.line} never closed", source)
    return header, blocks


# -- block interpretation --------------------------------------------------------


def _take(block: _Block, key: str, source: str, required: bool = True):
    if key in block.entries:
        return block.entries.pop(key)
    if required:
        raise SceneError(f"{block.kind} block needs {key!r}", source, block.line)
    return None, block.line


def _finish(block: _Block, source: str):
    if block.entries:
        key, (_, line) = next(iter(block.entries.items()))
        raise SceneError(f"unknown key {key!r} in {block.kind} block", source, line)


def _build_ambient(block: _Block, source: str) -> AmbientSpace:
    dim_txt, line = _take(block, "dim", source)
    dim = _number(dim_txt, source, line)
    if not (dim.is_integer() and dim >= 1):
        raise SceneError(f"dim must be an integer of at least 1, got {dim_txt}", source, line)
    cons_txt, cline = _take(block, "constraint", source, required=False)
    if cons_txt is None:
        _finish(block, source)
        return AmbientSpace(int(dim))
    coords_txt, _ = _take(block, "coords", source)
    _finish(block, source)
    try:
        return AmbientSpace(int(dim), parse_chart(cons_txt, _names(coords_txt)))
    except ParseError as exc:
        raise SceneError(f"bad constraint: {exc}", source, cline)
    except ValueError as exc:
        raise SceneError(str(exc), source, cline)


def _sized(values, size: int, what: str, source: str, line: int):
    """values, refused unless it has `size` entries."""
    if len(values) != size:
        raise SceneError(f"{what} has {len(values)} entries, expected {size}", source, line)
    return values


def _build_chart_and_box(block: _Block, source: str):
    chart_txt, chart_line = _take(block, "chart", source)
    params = _names(_take(block, "params", source)[0])
    consts_txt, consts_line = _take(block, "constants", source, required=False)
    constants = _constants(consts_txt, source, consts_line) if consts_txt else None
    lo_txt, lo_line = _take(block, "lo", source)
    hi_txt, hi_line = _take(block, "hi", source)
    per_txt, per_line = _take(block, "periodic", source, required=False)
    _finish(block, source)
    try:
        chart = parse_chart(chart_txt, params, constants)
    except ParseError as exc:
        raise SceneError(f"bad chart: {exc}", source, chart_line)
    lo = _numbers(lo_txt, source, lo_line)
    hi = _numbers(hi_txt, source, hi_line)
    periodic = (_bools(per_txt, source, per_line) if per_txt
                else (False,) * len(params))
    if not (len(lo) == len(hi) == len(periodic) == len(params)):
        raise SceneError("lo/hi/periodic lengths disagree with params", source,
                         block.line)
    try:
        box = Box(lo, hi, periodic)
    except ValueError as exc:
        raise SceneError(str(exc), source, lo_line)
    return chart, box


def _build_field(block: _Block, source: str, patch: SubmanifoldPatch, seeds_out: dict):
    kinds = [k for k in ("constant", "expression", "transport_base")
             if k in block.entries]
    if len(kinds) != 1:
        raise SceneError(
            "field block needs exactly one of constant / expression / transport_base",
            source, block.line)
    kind = kinds[0]
    scale_txt, scale_line = _take(block, "scale", source, required=False)
    if kind == "constant":
        txt, line = _take(block, "constant", source)
        _finish(block, source)
        vector = _sized(_numbers(txt, source, line), patch.m, "constant", source, line)
        fld: FieldAlongM = ConstantField(vector)
    elif kind == "expression":
        txt, line = _take(block, "expression", source)
        params_txt, params_line = _take(block, "params", source)
        consts_txt, consts_line = _take(block, "constants", source, required=False)
        constants = _constants(consts_txt, source, consts_line) if consts_txt else None
        _finish(block, source)
        try:
            chart = parse_chart(txt, _names(params_txt), constants)
        except ParseError as exc:
            raise SceneError(f"bad field expression: {exc}", source, line)
        _sized(chart.outputs, patch.m, "expression", source, line)
        _sized(chart.params, patch.n, "params", source, params_line)
        fld = ExprField(chart)
    else:
        if scale_txt is not None:
            raise SceneError("transported fields cannot be scaled", source,
                             scale_line)
        txt, line = _take(block, "transport_base", source)
        vec_txt, vec_line = _take(block, "vector", source, required=False)
        _finish(block, source)
        base = np.asarray(_sized(_numbers(txt, source, line), patch.n, "transport_base",
                                 source, line))
        vector = (np.asarray(_sized(_numbers(vec_txt, source, vec_line), patch.m, "vector",
                                    source, vec_line)) if vec_txt else None)
        seeds_out[block.name] = SeedSpec(block.name, base, vector)
        fld = None
    if fld is not None and scale_txt is not None:
        fld = fld.scaled(_number(scale_txt, source, scale_line))
    return fld


def parse_scene(text: str, source: str = "scene") -> Scene:
    """Parse scene text; resolve names, build patches and fields."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    header, blocks = _split_blocks(text, source)
    name = header or source

    ambient: AmbientSpace | None = None
    patch_blocks = []
    field_blocks = []
    product = None
    tube = None
    resolution = None
    overrides = {}

    for block in blocks:
        if block.kind == "ambient":
            if ambient is not None:
                raise SceneError("duplicate ambient block", source, block.line)
            ambient = _build_ambient(block, source)
        elif block.kind == "patch":
            patch_blocks.append(block)
        elif block.kind == "field":
            field_blocks.append(block)
        elif block.kind == "product":
            factors = _names(_take(block, "factors", source)[0])
            _finish(block, source)
            if len(factors) != 2:
                raise SceneError("product needs exactly two factors", source,
                                 block.line)
            product = factors
        elif block.kind == "tube":
            of = _take(block, "of", source)[0]
            dir_txt, dir_line = _take(block, "direction", source)
            eps_txt, eps_line = _take(block, "eps", source)
            _finish(block, source)
            tube = TubeSpec(of, np.asarray(_numbers(dir_txt, source, dir_line)),
                            _number(eps_txt, source, eps_line))
            tube_line = dir_line
        elif block.kind == "grid":
            res_txt, res_line = _take(block, "resolution", source)
            _finish(block, source)
            values = _numbers(res_txt, source, res_line)
            if any(not v.is_integer() or v < 2 for v in values):
                raise SceneError("grid resolution must be integers of at least 2, "
                                 f"got {res_txt}", source, res_line)
            resolution = (int(values[0]) if len(values) == 1
                          else tuple(int(v) for v in values))
        elif block.kind == "tolerances":
            for key, (txt, line) in block.entries.items():
                overrides[key] = _number(txt, source, line)

    if ambient is None:
        raise SceneError("scene needs an ambient block", source)
    if tube is not None:
        _sized(tube.direction, ambient.dim, "direction", source, tube_line)
    try:
        tols = DEFAULT_TOLS.with_overrides(overrides)
    except (KeyError, ValueError) as exc:
        raise SceneError(str(exc.args[0]), source)

    patches: dict = {}
    nested: dict = {}
    for block in patch_blocks:
        if block.name in patches or block.name in nested:
            raise SceneError(f"duplicate patch {block.name!r}", source, block.line)
        chart, box = _build_chart_and_box(block, source)
        if block.parent is None:
            try:
                patches[block.name] = SubmanifoldPatch(chart, box, ambient,
                                                       name=block.name)
            except ValueError as exc:
                raise SceneError(str(exc), source, block.line)
        else:
            nested[block.name] = NestedSpec(block.name, block.parent, chart, box)
    if not patches:
        raise SceneError("scene needs at least one root patch", source)

    for spec in nested.values():
        parent = patches.get(spec.parent)
        if parent is None:
            raise SceneError(
                f"patch {spec.name!r} nests in unknown patch {spec.parent!r}", source)
        if spec.chart.n_outputs != parent.n:
            raise SceneError(
                f"patch {spec.name!r} must map into the {parent.n} parameters "
                f"of {spec.parent!r}", source)

    fields: dict = {}
    seeds: dict = {}
    default_root = next(iter(patches)) if len(patches) == 1 else None
    for block in field_blocks:
        target = block.name or default_root
        if target is None:
            raise SceneError(
                "field block needs `for <patch>` in a multi-patch scene",
                source, block.line)
        if target not in patches:
            raise SceneError(f"field bound to unknown patch {target!r}", source,
                             block.line)
        if target in fields or target in seeds:
            raise SceneError(f"duplicate field for patch {target!r}", source,
                             block.line)
        block.name = target
        fld = _build_field(block, source, patches[target], seeds)
        if fld is not None:
            fields[target] = fld

    if product is not None:
        for factor in product:
            if factor not in patches:
                raise SceneError(f"product factor {factor!r} is not a root patch",
                                 source)
    if tube is not None and tube.of not in patches:
        raise SceneError(f"tube of unknown patch {tube.of!r}", source)

    return Scene(
        name=name,
        digest=digest,
        ambient=ambient,
        patches=patches,
        nested=nested,
        fields=fields,
        seeds=seeds,
        product=product,
        tube=tube,
        resolution=resolution,
        tols=tols,
    )


def load_scene(path: str) -> Scene:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return parse_scene(text, source=os.path.basename(path))
