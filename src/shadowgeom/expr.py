"""Chart expression language.

Charts, constraints, fields, and curves are all written as small
arithmetic expressions over named parameters, e.g.::

    ((R + r*cos(t))*cos(p), (R + r*cos(t))*sin(p), r*sin(t))

Supported: numeric literals, bound named constants, + - * / ^ (also **),
unary minus, and the primitives sin, cos, tan, exp, log, sqrt, atan2.
An outer parenthesized, comma-separated list gives several outputs.

Parsing binds each identifier to a parameter, a named constant, or a
primitive; anything else is a :class:`ParseError` with line/column, as
is nesting (parentheses, call arguments, unary signs, exponents) more
than `MAX_NESTING` levels deep.  Printing a parsed expression and
re-parsing it reproduces the same values exactly.  Lowering, printing
and rebuilding a chart (`compose`, `product_chart`) are visits of one
walk, `_walk`, on an explicit stack, so they run at any depth.

Evaluation is vectorized over a batch of parameter points and can carry
first and second derivatives.  The first evaluation of a chart lowers
its outputs once to a tape, a straight-line program cached on the
chart (see `_lower`):

- constant folding: a subtree that uses no parameter becomes a
  constant, computed with the same primitive function as before;
- sharing: structurally equal subtrees, within one output or across
  outputs, become one step, evaluated once per call;
- static dispatch: each step's kernel is chosen for its operand kinds
  (jet or constant) when the chart is lowered;
- registers: a step's result is released after its last read, and each
  output is written straight into preallocated result arrays.

The jet kernels are in :mod:`shadowgeom.dual`.  Lowering changes how
often a value is computed, never how: every step performs the same
elementwise IEEE operations in the same order whether or not it is
shared, so values, Jacobians and Hessians are bit-identical to an
evaluation of each output on its own.  A domain check on a
parameter-dependent value runs during evaluation and reports the first
failing point; a check on a constant runs when the chart is lowered and
reports no point.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual import JetKernels

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ChartExpr",
    "Jet2Batch",
    "parse_chart",
    "compose",
    "product_chart",
]

BUILTIN_CONSTANTS = {"pi": math.pi}

MAX_NESTING = 100  # nesting levels the parser accepts; bundled charts nest 3

# primitive name -> arity
_FUNCTIONS = {"sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1, "atan2": 2}


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
        point = None if point is None else tuple(float(v) for v in point)
        loc = f" (line {pos[0]}, column {pos[1]})" if pos else ""
        at = f" at parameters {point}" if point is not None else ""
        super().__init__(f"{msg} in '{node_source}'{loc}{at}")
        self.node_source = node_source
        self.pos = pos
        self.point = point


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
        self.depth = 0

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
        # every nesting level passes through here
        kind, tok, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression is nested more than {MAX_NESTING} levels deep", *pos)
        if tok in ("-", "+"):
            self.next()
            node = Neg(pos, self.factor()) if tok == "-" else self.factor()
        else:
            node = self.power()
        self.depth -= 1
        return node

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
        arity = _FUNCTIONS[name]
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


# -- tree walk -------------------------------------------------------------


def _children(node) -> tuple:
    t = type(node)
    if t is Const or t is Param:
        return ()
    return node.args if t is Call else (node.a,) if t is Neg else (node.a, node.b)


def _walk(roots, visit):
    """Yield, for each root in turn, visit(root, results of its children).

    visit runs once per distinct node, by identity, children first and
    left to right (the order of a recursive post-order walk), on an
    explicit stack, so a tree's depth is not bounded by Python's."""
    memo = {}
    for root in roots:
        stack = [(root, None)]
        while stack:
            node, kids = stack.pop()
            if id(node) in memo:
                continue
            if kids is None:
                kids = _children(node)
                stack.append((node, kids))
                stack += [(k, None) for k in reversed(kids)]
            else:
                memo[id(node)] = visit(node, [memo[id(k)] for k in kids])
        yield memo[id(root)]


# -- jets ------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2Batch:
    """Chart values with first and second parameter derivatives, batched."""

    value: np.ndarray  # (B, m)
    jac: np.ndarray  # (B, m, n)
    hess: np.ndarray | None  # (B, m, n, n)


# -- lowering --------------------------------------------------------------

# What each tape op computes on values: on floats, the constant folding;
# on (B,) arrays, eval_values.  "powc" is a power whose exponent is a
# constant, "pow" one whose exponent depends on the parameters.
_VALUE_OPS = {
    "neg": operator.neg,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": np.power,
    "powc": np.power,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "atan2": np.arctan2,
}


def _jet_ops(k: JetKernels) -> dict:
    """op -> operand kinds -> kernel on jets in k's variables.

    Kinds spell the operands: 'j' a jet, 'c' a constant.  A sum or a
    product with a constant on the left uses the kernel for a constant on
    the right; IEEE addition and multiplication commute exactly."""
    return {
        "neg": {"j": np.negative},
        "add": {"jj": np.add, "jc": k.add_const, "cj": lambda c, x: k.add_const(x, c)},
        "sub": {"jj": np.subtract, "jc": k.sub_const, "cj": k.const_sub},
        "mul": {"jj": k.mul, "jc": np.multiply, "cj": lambda c, x: np.multiply(x, c)},
        "div": {"jj": k.div, "jc": k.div_const, "cj": k.const_div},
        "pow": {"jj": k.pow, "cj": k.const_pow},
        "powc": {"jc": k.powc},
        "sin": {"j": k.sin},
        "cos": {"j": k.cos},
        "tan": {"j": k.tan},
        "exp": {"j": k.exp},
        "log": {"j": k.log},
        "sqrt": {"j": k.sqrt},
        "atan2": {"jj": k.atan2, "jc": k.atan2_const_x, "cj": k.atan2_const_y},
    }


# domain tests, true where a point is inside the primitive's domain
_DOMAIN = {
    "pos": lambda v: v > 0,
    "nonneg": lambda v: v >= 0,
    "nonzero": lambda v: v != 0,
    "atan2": lambda y, x: (y != 0) | (x != 0),
}


_PLAIN_OPS = {Neg: "neg", Add: "add", Sub: "sub", Mul: "mul"}


def _sqrt_check(jet: bool):
    """sqrt's domain: its value needs v >= 0, its derivative v > 0."""
    if jet:
        return "pos", "sqrt derivative at non-positive value"
    return "nonneg", "sqrt of negative value"


def _lower(outputs, n_params) -> tuple:
    """Straight-line code computing `outputs`: (code, number of ops).

    Code is in SSA values: 0 .. n_params-1 are the parameters and each
    op defines the next value.  An operand is a value (int) or a folded
    constant (float).  Instructions come in the order `_walk` visits the
    nodes, children first and left to right, output after output:

        ("op", name, operands, value)
        ("check", kind, operands, node, message)   before the op it guards
        ("out", k, (operand,))                     output k

    A subtree that uses no parameter folds to a constant, computed with
    the same primitive functions so it has the same bits.  Its domain
    check runs here and raises EvalDomainError without a point, as does
    a check whose tested operand is a constant.  The walk visits a node
    once by identity (so compose()d trees lower in linear time), and ops
    are memoised by name and operands, so structurally equal subtrees
    become one op, checked once, where they first occur.
    """
    code, by_key = [], {}
    n_ops = 0

    def apply(name, node, args, checks=()):
        nonlocal n_ops
        if all(type(a) is float for a in args):
            for kind, operands, msg in checks:
                if kind == "sqrt":
                    kind, msg = _sqrt_check(False)
                if not _DOMAIN[kind](*operands):
                    raise EvalDomainError(msg, to_source(node), node.pos)
            return float(_VALUE_OPS[name](*args))
        # float.hex keeps 0.0 and -0.0 apart
        key = (name,) + tuple(a if type(a) is int else a.hex() for a in args)
        if key in by_key:
            return by_key[key]
        for kind, operands, msg in checks:
            if kind == "atan2" and float in map(type, operands):
                # a nonzero constant argument keeps every point off the
                # origin; a zero one leaves the other to be nonzero
                if any(type(a) is float and a != 0 for a in operands):
                    continue
                kind, operands = "nonzero", [a for a in operands if type(a) is int]
            if type(operands[0]) is float:
                if not _DOMAIN[kind](operands[0]):
                    raise EvalDomainError(msg, to_source(node), node.pos)
                continue
            code.append(("check", kind, tuple(operands), node, msg))
        value = by_key[key] = n_params + n_ops
        n_ops += 1
        code.append(("op", name, tuple(args), value))
        return value

    def lower(node, args):
        t = type(node)
        if t is Const:
            return float(node.value)
        if t is Param:
            return node.index
        if t is Call:
            checks = {"log": [("pos", args, "log of non-positive value")],
                      "sqrt": [("sqrt", args, None)],
                      "atan2": [("atan2", args, "atan2 at origin")]}.get(node.fn, ())
            return apply(node.fn, node, args, checks)
        if t is Div:
            return apply("div", node, args, [("nonzero", args[1:], "division by zero")])
        if t is Pow:
            a, b = args
            if type(b) is not float:
                return apply("pow", node, args,
                             [("pos", [a], "power with non-positive base")])
            checks = []
            if b != round(b):
                checks = [("pos", [a], f"fractional power {b} of non-positive base")]
            elif b < 0:
                checks = [("nonzero", [a], f"negative power {b} of zero base")]
            return apply("powc", node, args, checks)
        return apply(_PLAIN_OPS[t], node, args)

    for k, value in enumerate(_walk(outputs, lower)):
        code.append(("out", k, (value,)))
    return code, n_ops


# register file: slot 0 holds the points (for error messages), slots 1-3
# the value, Jacobian and flat Hessian outputs; tape values start at 4
_POINTS, _VALUE, _JAC, _HESS = range(4)
_FIRST_SLOT = 4


def _allocate(code, n_params) -> tuple:
    """Give each SSA value a register slot.  A value's slot is released
    after the last instruction that reads it: the op's result takes one
    released slot, and a ("free", None, slots) instruction clears the
    others, so the arrays held at once are the values live at once.

    Returns (code in slots, [(parameter, slot)], number of slots)."""
    last = {}
    for i, ins in enumerate(code):
        for v in ins[2]:
            if type(v) is int:
                last[v] = i
    slot, free = {}, []
    top = _FIRST_SLOT

    def take():
        nonlocal top
        if free:
            return free.pop()
        top += 1
        return top - 1

    params = [(p, take()) for p in range(n_params) if p in last]
    slot.update(params)
    out = []
    for i, ins in enumerate(code):
        operands = tuple(a if type(a) is float else slot[a] for a in ins[2])
        values = dict.fromkeys(v for v in ins[2] if type(v) is int)
        dead = [slot[v] for v in values if last[v] == i]
        free += dead
        rest = ins[3:]
        if ins[0] == "op":
            slot[ins[3]] = take()
            rest = (slot[ins[3]],)
        out.append(ins[:2] + (operands,) + rest)
        dead = tuple(s for s in dead if s in free)
        if dead and i + 1 < len(code):
            out.append(("free", None, dead))
    return out, params, top


def _step(fn, dst, args):
    """r[dst] = fn(operands); an int operand is a slot, a float a constant."""
    if len(args) == 1:
        (a,) = args

        def step(r):
            r[dst] = fn(r[a])
    else:
        a, b = args
        if type(a) is float:
            def step(r):
                r[dst] = fn(a, r[b])
        elif type(b) is float:
            def step(r):
                r[dst] = fn(r[a], b)
        else:
            def step(r):
                r[dst] = fn(r[a], r[b])
    return step


def _check_step(test, slots, row, node, msg):
    """Raise EvalDomainError at the first point where `test` fails on the
    values in `slots` (row `row` of each register: 0 for a jet, `...` for
    a plain value)."""
    def step(r):
        ok = test(*[r[s][row] for s in slots])
        if not ok.all():
            point = r[_POINTS][int(np.argmax(~ok))]
            raise EvalDomainError(msg, to_source(node), node.pos, point)
    return step


def _out_step(k, a, kernels):
    """Write output k from operand a; kernels is None for values only."""
    if type(a) is float:
        def step(r):
            r[_VALUE][k] = a
    elif kernels is None:
        def step(r):
            r[_VALUE][k] = r[a]
    elif not kernels.second:
        g = kernels.grad

        def step(r):
            x = r[a]
            r[_VALUE][k] = x[0]
            r[_JAC][k] = x[g]
    else:
        g, h = kernels.grad, kernels.hess

        def step(r):
            x = r[a]
            r[_VALUE][k] = x[0]
            r[_JAC][k] = x[g]
            r[_HESS][k] = x[h]
    return step


def _free_step(slots):
    def step(r):
        for s in slots:
            r[s] = None
    return step


def _alloc_step(m, kernels):
    """Allocate the outputs, just before the first is written.  The
    output slots hold them transposed, with the batch axis last, so an
    output row of a jet is written in one assignment."""
    def step(r):
        b = r[_POINTS].shape[0]
        r[_VALUE] = np.empty((b, m)).T
        if kernels is not None:
            r[_JAC] = np.zeros((b, m, kernels.n)).transpose(1, 2, 0)
            if kernels.second:
                r[_HESS] = np.zeros((b, m, kernels.n * kernels.n)).transpose(1, 2, 0)
    return step


def _compile(code, m, kernels) -> list:
    """Steps for the slot code; kernels is None for values only."""
    ops = None if kernels is None else _jet_ops(kernels)
    row = ... if kernels is None else 0
    steps = []
    for ins in code:
        if ins[0] == "op":
            _, name, args, dst = ins
            if ops is None:
                fn = _VALUE_OPS[name]
            else:
                fn = ops[name]["".join("c" if type(a) is float else "j" for a in args)]
            steps.append(_step(fn, dst, args))
        elif ins[0] == "check":
            _, kind, slots, node, msg = ins
            if kind == "sqrt":
                kind, msg = _sqrt_check(kernels is not None)
            steps.append(_check_step(_DOMAIN[kind], slots, row, node, msg))
        elif ins[0] == "free":
            steps.append(_free_step(ins[2]))
        else:
            if ins[1] == 0:
                steps.append(_alloc_step(m, kernels))
            steps.append(_out_step(ins[1], ins[2][0], kernels))
    return steps


class _Tape:
    """A chart lowered once (see `_lower`) to register steps at order 0
    (values), 1 and 2 (jets)."""

    def __init__(self, outputs, n_params):
        self.n, self.m = n_params, len(outputs)
        code, self.n_ops = _lower(outputs, n_params)
        code, self.param_slots, self.n_slots = _allocate(code, n_params)
        self.kernels = {1: JetKernels(n_params, 1), 2: JetKernels(n_params, 2)}
        self.programs = {0: _compile(code, self.m, None)}
        for order, kernels in self.kernels.items():
            self.programs[order] = _compile(code, self.m, kernels)

    def run(self, points, order):
        """(value (B, m), jac (B, m, n) or None, hess (B, m, n, n) or None)."""
        b, n, m = points.shape[0], self.n, self.m
        r = [None] * self.n_slots
        r[_POINTS] = points
        seeds = points.T if order == 0 else self.kernels[order].seeds(points)
        for i, s in self.param_slots:
            r[s] = seeds[i]
        del seeds
        for step in self.programs[order]:
            step(r)
        value, jac, hess = r[_VALUE].T, r[_JAC], r[_HESS]
        if jac is not None:
            jac = jac.transpose(2, 0, 1)
        if hess is not None:
            hess = hess.transpose(2, 0, 1).reshape(b, m, n, n)
        return value, jac, hess


# -- printing --------------------------------------------------------------

# operator -> (template, precedence, least precedence of each operand
# printed without parentheses)
_SYNTAX = {Neg: ("-{}", 15, (16,)), Add: ("{} + {}", 10, (10, 11)),
           Sub: ("{} - {}", 10, (10, 11)), Mul: ("{}*{}", 20, (20, 21)),
           Div: ("{}/{}", 20, (20, 21)), Pow: ("{}^{}", 30, (31, 30))}


def to_source(node) -> str:
    return next(_walk((node,), _print))[0]


def _print(node, args):
    """(source, precedence) of `node`, from those of its operands."""
    t = type(node)
    if t is Const:
        if node.name is not None:
            return node.name, 100
        return repr(node.value), 15 if node.value < 0 else 100
    if t is Param:
        return node.name, 100
    if t is Call:
        return f"{node.fn}({', '.join(a for a, _ in args)})", 100
    template, prec, least = _SYNTAX[t]
    return template.format(*(a if p >= q else f"({a})" for (a, p), q in zip(args, least))), prec


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
        inner = ", ".join(s for s, _ in _walk(self.outputs, _print))
        return f"({inner})"

    def __str__(self):
        return self.to_source()

    @cached_property
    def _tape(self) -> _Tape:
        return _Tape(self.outputs, self.n_params)

    def _points(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim < 2:
            points = np.atleast_2d(points)
        if points.shape[1] != self.n_params:
            raise ValueError(
                f"expected points with {self.n_params} parameters, got {points.shape[1]}"
            )
        return points

    def eval_values(self, points) -> np.ndarray:
        """Values only, (B, m)."""
        return self._tape.run(self._points(points), 0)[0]

    def eval_jets(self, points, order: int = 2) -> Jet2Batch:
        """Values with derivatives, batched over points; order 1 or 2."""
        if order < 1:
            raise ValueError(f"eval_jets needs order 1 or 2, got {order}; "
                             "eval_values gives values alone")
        return Jet2Batch(*self._tape.run(self._points(points), min(order, 2)))


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


def _substitute(outputs, replacements) -> tuple:
    """Rebuild `outputs` with Param(i) replaced by replacements[i]; a node
    they share is rebuilt once, so the rebuilt outputs share it too."""
    def rebuild(node, args):
        t = type(node)
        if t is Const:
            return node
        if t is Param:
            return replacements[node.index]
        if t is Call:
            return Call(node.pos, node.fn, tuple(args))
        return t(node.pos, *args)

    return tuple(_walk(outputs, rebuild))


def compose(outer: ChartExpr, inner: ChartExpr) -> ChartExpr:
    """outer after inner; inner outputs feed outer parameters."""
    if outer.n_params != inner.n_outputs:
        raise ValueError(
            f"cannot compose: outer takes {outer.n_params} parameters, "
            f"inner yields {inner.n_outputs} outputs"
        )
    outs = _substitute(outer.outputs, inner.outputs)
    constants = dict(inner.constants)
    constants.update(outer.constants)
    return ChartExpr(inner.params, outs, constants)


def product_chart(a: ChartExpr, b: ChartExpr) -> ChartExpr:
    """Block chart of a Cartesian product; parameters renamed apart by the
    suffixes 1 and 2."""
    params = tuple(f"{p}1" for p in a.params) + tuple(f"{p}2" for p in b.params)
    renamed = [Param((0, 0), i, name) for i, name in enumerate(params)]
    n = a.n_params
    outs = _substitute(a.outputs, renamed[:n]) + _substitute(b.outputs, renamed[n:])
    constants = dict(a.constants)
    constants.update(b.constants)
    return ChartExpr(params, outs, constants)
