"""Chart expression language.

Charts, constraints, fields, and curves are all written as small
arithmetic expressions over named parameters, e.g.::

    ((R + r*cos(t))*cos(p), (R + r*cos(t))*sin(p), r*sin(t))

Supported: numeric literals, bound named constants, + - * / ^ (also **),
unary minus, and the primitives sin, cos, tan, exp, log, sqrt, atan2.
An outer parenthesized, comma-separated list gives several outputs.

Parsing binds each identifier to a parameter, a named constant, or a
primitive; anything else is a :class:`ParseError` with line/column.
Evaluation is vectorized over a batch of parameter points and can carry
first and second derivatives (see :mod:`shadowgeom.dual`).  Printing a
parsed expression and re-parsing it reproduces the same values exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import dual
from .dual import Dual2

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ChartExpr",
    "Jet2Batch",
    "parse_chart",
    "substitute_params",
    "compose",
    "product_chart",
]

BUILTIN_CONSTANTS = {"pi": math.pi}

# primitive name -> (implementation, arity)
_FUNCTIONS = {
    "sin": (dual.sin, 1),
    "cos": (dual.cos, 1),
    "tan": (dual.tan, 1),
    "exp": (dual.exp, 1),
    "log": (dual.log, 1),
    "sqrt": (dual.sqrt, 1),
    "atan2": (dual.atan2, 2),
}


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalDomainError(ArithmeticError):
    """A primitive was evaluated outside its domain.

    Carries the offending subexpression source and, when known, the
    parameter point that triggered it.
    """

    def __init__(self, msg, node_source, pos, point=None):
        loc = f" (line {pos[0]}, column {pos[1]})" if pos else ""
        at = f" at parameters {tuple(point)}" if point is not None else ""
        super().__init__(f"{msg} in '{node_source}'{loc}{at}")
        self.node_source = node_source
        self.pos = pos
        self.point = None if point is None else tuple(point)


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pos: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Const(Node):
    value: float = 0.0
    name: str | None = None


@dataclass(frozen=True)
class Param(Node):
    index: int = 0
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    a: Node = None


@dataclass(frozen=True)
class Add(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Sub(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Mul(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Div(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Pow(Node):
    a: Node = None
    b: Node = None


@dataclass(frozen=True)
class Call(Node):
    fn: str = ""
    args: tuple = ()


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))"
)


def _tokenize(text):
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m or m.start() != i:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        tok = m.group(m.lastgroup)
        tokens.append((kind, tok, (line, col)))
        col += m.end() - i
        i = m.end()
    tokens.append(("end", "", (line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens, params, constants):
        self.tokens = tokens
        self.k = 0
        self.params = {name: i for i, name in enumerate(params)}
        self.constants = constants

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, op):
        kind, tok, pos = self.next()
        if tok != op:
            raise ParseError(f"expected {op!r}, found {tok or 'end of input'!r}", *pos)
        return pos

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.next()
            rhs = self.term()
            node = (Add if op == "+" else Sub)(pos, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            rhs = self.factor()
            node = (Mul if op == "*" else Div)(pos, node, rhs)
        return node

    def factor(self):
        kind, tok, pos = self.peek()
        if tok == "-":
            self.next()
            return Neg(pos, self.factor())
        if tok == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] in ("^", "**"):
            _, _, pos = self.next()
            exponent = self.factor()
            node = Pow(pos, node, exponent)
        return node

    def atom(self):
        kind, tok, pos = self.next()
        if kind == "num":
            return Const(pos, float(tok))
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(tok, pos)
            if tok in self.params:
                return Param(pos, self.params[tok], tok)
            if tok in self.constants:
                return Const(pos, float(self.constants[tok]), tok)
            if tok in BUILTIN_CONSTANTS:
                return Const(pos, BUILTIN_CONSTANTS[tok], tok)
            if tok in _FUNCTIONS:
                raise ParseError(f"primitive {tok!r} needs arguments", *pos)
            raise ParseError(f"unknown identifier {tok!r}", *pos)
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok or 'end of input'!r}", *pos)

    def call(self, name, pos):
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", *pos)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        arity = _FUNCTIONS[name][1]
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                *pos,
            )
        return Call(pos, name, tuple(args))


def _split_outputs(tokens):
    """Token index ranges of the comma-separated outputs.

    An outer parenthesis pair enclosing everything is tuple syntax and is
    stripped; any other parenthesis is ordinary grouping.
    """
    end = len(tokens) - 1  # index of the "end" token
    start = 0
    if tokens[0][1] == "(":
        depth = 0
        match = None
        for i in range(end):
            if tokens[i][1] == "(":
                depth += 1
            elif tokens[i][1] == ")":
                depth -= 1
                if depth == 0:
                    match = i
                    break
        if match == end - 1:
            start, end = 1, match
    pieces, depth, begin = [], 0, start
    for i in range(start, end):
        tok = tokens[i][1]
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif tok == "," and depth == 0:
            pieces.append((begin, i))
            begin = i + 1
    pieces.append((begin, end))
    return pieces


# -- jets ------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2Batch:
    """Chart values with first and second parameter derivatives, batched."""

    value: np.ndarray  # (B, m)
    jac: np.ndarray  # (B, m, n)
    hess: np.ndarray | None  # (B, m, n, n)


class _Ctx:
    __slots__ = ("points",)

    def __init__(self, points):
        self.points = points  # (B, n) or None, for error messages


def _first_bad_point(mask, ctx):
    if ctx.points is None:
        return None
    idx = int(np.argmax(mask))
    return ctx.points[idx]


def _check(ok, node, ctx, msg):
    ok = np.asarray(ok)
    if not ok.all():
        bad = ~ok
        raise EvalDomainError(msg, to_source(node), node.pos, _first_bad_point(bad, ctx))


def _value_of(x):
    return x.val if isinstance(x, Dual2) else x


def _eval(node, env, ctx):
    if type(node) is Const:
        return node.value
    if type(node) is Param:
        return env[node.index]
    if type(node) is Neg:
        return -_eval(node.a, env, ctx)
    if type(node) is Add:
        return _eval(node.a, env, ctx) + _eval(node.b, env, ctx)
    if type(node) is Sub:
        return _eval(node.a, env, ctx) - _eval(node.b, env, ctx)
    if type(node) is Mul:
        return _eval(node.a, env, ctx) * _eval(node.b, env, ctx)
    if type(node) is Div:
        a = _eval(node.a, env, ctx)
        b = _eval(node.b, env, ctx)
        _check(_value_of(b) != 0, node, ctx, "division by zero")
        return a / b
    if type(node) is Pow:
        return _eval_pow(node, env, ctx)
    if type(node) is Call:
        return _eval_call(node, env, ctx)
    raise TypeError(f"unknown node {node!r}")


def _eval_pow(node, env, ctx):
    base = _eval(node.a, env, ctx)
    if type(node.b) is Const:
        c = node.b.value
        bv = _value_of(base)
        if c != round(c):
            _check(bv > 0, node, ctx, f"fractional power {c} of non-positive base")
        elif c < 0:
            _check(bv != 0, node, ctx, f"negative power {c} of zero base")
        if isinstance(base, Dual2):
            return base.powc(c)
        return np.power(base, c)
    exponent = _eval(node.b, env, ctx)
    _check(_value_of(base) > 0, node, ctx, "power with non-positive base")
    if isinstance(base, Dual2) or isinstance(exponent, Dual2):
        return dual.exp(exponent * dual.log(base))
    return np.power(base, exponent)


def _eval_call(node, env, ctx):
    fn, _ = _FUNCTIONS[node.fn]
    args = [_eval(a, env, ctx) for a in node.args]
    if node.fn == "log":
        _check(_value_of(args[0]) > 0, node, ctx, "log of non-positive value")
    elif node.fn == "sqrt":
        v = _value_of(args[0])
        if isinstance(args[0], Dual2):
            _check(v > 0, node, ctx, "sqrt derivative at non-positive value")
        else:
            _check(v >= 0, node, ctx, "sqrt of negative value")
    elif node.fn == "atan2":
        y, x = (_value_of(a) for a in args)
        _check((np.asarray(y) != 0) | (np.asarray(x) != 0), node, ctx, "atan2 at origin")
    return fn(*args)


# -- printing --------------------------------------------------------------

_PREC = {Add: 10, Sub: 10, Mul: 20, Div: 20, Neg: 15, Pow: 30}


def _prec(node):
    if type(node) is Const and node.name is None and node.value < 0:
        return 15
    return _PREC.get(type(node), 100)


def to_source(node) -> str:
    return _print(node, 0)


def _print(node, parent_prec):
    t = type(node)
    if t is Const:
        s = node.name if node.name is not None else repr(node.value)
    elif t is Param:
        s = node.name
    elif t is Neg:
        s = "-" + _print(node.a, 16)
    elif t is Add:
        s = f"{_print(node.a, 10)} + {_print(node.b, 11)}"
    elif t is Sub:
        s = f"{_print(node.a, 10)} - {_print(node.b, 11)}"
    elif t is Mul:
        s = f"{_print(node.a, 20)}*{_print(node.b, 21)}"
    elif t is Div:
        s = f"{_print(node.a, 20)}/{_print(node.b, 21)}"
    elif t is Pow:
        s = f"{_print(node.a, 31)}^{_print(node.b, 30)}"
    elif t is Call:
        s = f"{node.fn}({', '.join(_print(a, 0) for a in node.args)})"
        return s
    else:
        raise TypeError(f"unknown node {node!r}")
    if _prec(node) < parent_prec:
        return f"({s})"
    return s


# -- chart container -------------------------------------------------------


@dataclass(frozen=True)
class ChartExpr:
    """A parsed map from n named parameters to m real outputs."""

    params: tuple
    outputs: tuple
    constants: dict = field(default_factory=dict, compare=False)

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def to_source(self) -> str:
        inner = ", ".join(to_source(o) for o in self.outputs)
        return f"({inner})"

    def __str__(self):
        return self.to_source()

    def _env(self, points, order):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.n_params:
            raise ValueError(
                f"expected points with {self.n_params} parameters, got {points.shape[1]}"
            )
        n = self.n_params
        if order == 0:
            env = [points[:, i] for i in range(n)]
        else:
            env = [dual.seed(points[:, i], i, n, order) for i in range(n)]
        return points, env

    def eval_values(self, points) -> np.ndarray:
        """Values only, (B, m)."""
        points, env = self._env(points, 0)
        b = points.shape[0]
        ctx = _Ctx(points)
        cols = []
        for out in self.outputs:
            v = _eval(out, env, ctx)
            cols.append(np.broadcast_to(np.asarray(v, dtype=float), (b,)))
        return np.stack(cols, axis=1)

    def eval_jets(self, points, order: int = 2) -> Jet2Batch:
        """Values with derivatives, batched over points."""
        points, env = self._env(points, order)
        b, n = points.shape
        ctx = _Ctx(points)
        vals, jacs, hesses = [], [], []
        for out in self.outputs:
            r = _eval(out, env, ctx)
            if isinstance(r, Dual2):
                vals.append(np.broadcast_to(r.val, (b,)))
                jacs.append(r.grad)
                if order >= 2:
                    hesses.append(r.hess)
            else:
                vals.append(np.broadcast_to(np.asarray(r, dtype=float), (b,)))
                jacs.append(np.zeros((b, n)))
                if order >= 2:
                    hesses.append(np.zeros((b, n, n)))
        value = np.stack(vals, axis=1)
        jac = np.stack(jacs, axis=1)
        hess = np.stack(hesses, axis=1) if order >= 2 else None
        return Jet2Batch(value, jac, hess)


def parse_chart(text: str, params, constants=None) -> ChartExpr:
    """Parse DSL source into a chart with the given parameter order."""
    params = tuple(params)
    constants = dict(constants or {})
    for name in params:
        if params.count(name) > 1:
            raise ParseError(f"duplicate parameter {name!r}", 1, 1)
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 1, 1)
    outputs = []
    for begin, end in _split_outputs(tokens):
        piece = tokens[begin:end] + [("end", "", tokens[end][2])]
        if piece[0][0] == "end":
            raise ParseError("empty output expression", *piece[0][2])
        p = _Parser(piece, params, constants)
        node = p.expr()
        kind, tok, pos = p.peek()
        if kind != "end":
            raise ParseError(f"unexpected {tok!r} after expression", *pos)
        outputs.append(node)
    return ChartExpr(params, tuple(outputs), constants)


# -- structural helpers ----------------------------------------------------


def substitute_params(node, replacements):
    """Rebuild `node` with Param(i) replaced by replacements[i]."""
    t = type(node)
    if t is Const:
        return node
    if t is Param:
        return replacements[node.index]
    if t is Neg:
        return Neg(node.pos, substitute_params(node.a, replacements))
    if t in (Add, Sub, Mul, Div, Pow):
        return t(
            node.pos,
            substitute_params(node.a, replacements),
            substitute_params(node.b, replacements),
        )
    if t is Call:
        return Call(
            node.pos, node.fn, tuple(substitute_params(a, replacements) for a in node.args)
        )
    raise TypeError(f"unknown node {node!r}")


def compose(outer: ChartExpr, inner: ChartExpr) -> ChartExpr:
    """outer after inner; inner outputs feed outer parameters."""
    if outer.n_params != inner.n_outputs:
        raise ValueError(
            f"cannot compose: outer takes {outer.n_params} parameters, "
            f"inner yields {inner.n_outputs} outputs"
        )
    outs = tuple(substitute_params(o, list(inner.outputs)) for o in outer.outputs)
    constants = dict(inner.constants)
    constants.update(outer.constants)
    return ChartExpr(inner.params, outs, constants)


def product_chart(a: ChartExpr, b: ChartExpr, suffixes=("1", "2")) -> ChartExpr:
    """Block chart of a Cartesian product; parameters renamed apart."""
    pa = tuple(f"{p}{suffixes[0]}" for p in a.params)
    pb = tuple(f"{p}{suffixes[1]}" for p in b.params)
    params = pa + pb
    outs_a = tuple(
        substitute_params(o, [Param((0, 0), i, params[i]) for i in range(len(pa))])
        for o in a.outputs
    )
    off = len(pa)
    outs_b = tuple(
        substitute_params(o, [Param((0, 0), i + off, params[i + off]) for i in range(len(pb))])
        for o in b.outputs
    )
    constants = dict(a.constants)
    constants.update(b.constants)
    return ChartExpr(params, outs_a + outs_b, constants)
