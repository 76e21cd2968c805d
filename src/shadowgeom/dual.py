"""Second-order forward-mode arithmetic.

A :class:`Dual2` carries a batch of scalar values together with gradients
and (optionally) Hessians with respect to a fixed set of input variables.
Plain floats and ndarrays mix freely with duals and are treated as
constants.  All operations allocate fresh arrays; operands are never
mutated, so zero arrays may be shared between duals.

Hessians stay bit-exactly symmetric: every second-order update is built
from symmetric combinations such as ``outer(ga, gb) + outer(gb, ga)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dual2", "seed", "sin", "cos", "tan", "exp", "log", "sqrt", "atan2"]


def _outer_sym(ga, gb):
    # ga, gb: (B, n) -> symmetric (B, n, n)
    return ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]


def _outer(g):
    return g[:, :, None] * g[:, None, :]


class Dual2:
    """Batched scalar with gradient and optional Hessian.

    val: (B,), grad: (B, n), hess: (B, n, n) or None for first order only.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- helpers ----------------------------------------------------------

    def _chain(self, f, fp, fpp):
        """Apply a smooth scalar function given f(v), f'(v), f''(v)."""
        g = fp[:, None] * self.grad
        if self.hess is None:
            return Dual2(f, g)
        h = fp[:, None, None] * self.hess + fpp[:, None, None] * _outer(self.grad)
        return Dual2(f, g, h)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        h = None if self.hess is None else -self.hess
        return Dual2(-self.val, -self.grad, h)

    def __add__(self, other):
        if isinstance(other, Dual2):
            h = None
            if self.hess is not None:
                h = self.hess + other.hess
            return Dual2(self.val + other.val, self.grad + other.grad, h)
        return Dual2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            h = None
            if self.hess is not None:
                h = self.hess - other.hess
            return Dual2(self.val - other.val, self.grad - other.grad, h)
        return Dual2(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        h = None if self.hess is None else -self.hess
        return Dual2(other - self.val, -self.grad, h)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            val = self.val * other.val
            g = self.val[:, None] * other.grad + other.val[:, None] * self.grad
            if self.hess is None:
                return Dual2(val, g)
            h = (
                self.val[:, None, None] * other.hess
                + other.val[:, None, None] * self.hess
                + _outer_sym(self.grad, other.grad)
            )
            return Dual2(val, g, h)
        other = np.asarray(other, dtype=float)
        scale = other if other.ndim else float(other)
        if isinstance(scale, np.ndarray):
            g = scale[:, None] * self.grad
            h = None if self.hess is None else scale[:, None, None] * self.hess
            return Dual2(self.val * scale, g, h)
        h = None if self.hess is None else self.hess * scale
        return Dual2(self.val * scale, self.grad * scale, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            val = self.val / other.val
            g = (self.grad - val[:, None] * other.grad) / other.val[:, None]
            if self.hess is None:
                return Dual2(val, g)
            h = (
                self.hess
                - val[:, None, None] * other.hess
                - _outer_sym(g, other.grad)
            ) / other.val[:, None, None]
            return Dual2(val, g, h)
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        # other / self with other constant
        inv = self._chain(1.0 / self.val, -1.0 / self.val**2, 2.0 / self.val**3)
        return inv * other

    def powc(self, c: float):
        """Power with a constant real exponent."""
        v = self.val
        if c == 0.0:
            z = np.zeros_like(self.grad)
            h = None if self.hess is None else np.zeros_like(self.hess)
            return Dual2(np.ones_like(v), z, h)
        if c == 1.0:
            return self
        f = np.power(v, c)
        fp = c * np.power(v, c - 1.0)
        fpp = c * (c - 1.0) * np.power(v, c - 2.0)
        return self._chain(f, fp, fpp)


def seed(values, index: int, n_vars: int, order: int = 2):
    """Make the dual for input variable `index` out of `n_vars`.

    values: (B,) array of the variable's values.
    """
    values = np.asarray(values, dtype=float)
    b = values.shape[0]
    grad = np.zeros((b, n_vars))
    grad[:, index] = 1.0
    hess = np.zeros((b, n_vars, n_vars)) if order >= 2 else None
    return Dual2(values, grad, hess)


# -- primitives ------------------------------------------------------------


def sin(x):
    if isinstance(x, Dual2):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(s, c, -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual2):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(c, -s, -c)
    return np.cos(x)


def tan(x):
    if isinstance(x, Dual2):
        t = np.tan(x.val)
        d = 1.0 + t * t
        return x._chain(t, d, 2.0 * t * d)
    return np.tan(x)


def exp(x):
    if isinstance(x, Dual2):
        e = np.exp(x.val)
        return x._chain(e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual2):
        v = x.val
        return x._chain(np.log(v), 1.0 / v, -1.0 / (v * v))
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual2):
        r = np.sqrt(x.val)
        return x._chain(r, 0.5 / r, -0.25 / (r * x.val))
    return np.sqrt(x)


def atan2(y, x):
    """Two-argument arctangent; either argument may be dual."""
    ydual, xdual = isinstance(y, Dual2), isinstance(x, Dual2)
    if not ydual and not xdual:
        return np.arctan2(y, x)
    yv = y.val if ydual else np.asarray(y, dtype=float)
    xv = x.val if xdual else np.asarray(x, dtype=float)
    val = np.arctan2(yv, xv)
    r2 = xv * xv + yv * yv
    fy = xv / r2
    fx = -yv / r2
    gy = y.grad if ydual else None
    gx = x.grad if xdual else None
    g = 0.0
    if gy is not None:
        g = fy[:, None] * gy
    if gx is not None:
        g = g + fx[:, None] * gx
    want_hess = (ydual and y.hess is not None) or (xdual and x.hess is not None)
    if not want_hess:
        return Dual2(val, g)
    r4 = r2 * r2
    fyy = -2.0 * xv * yv / r4
    fyx = (yv * yv - xv * xv) / r4
    fxx = 2.0 * xv * yv / r4
    h = 0.0
    if ydual:
        h = fy[:, None, None] * y.hess + fyy[:, None, None] * _outer(gy)
    if xdual:
        h = h + fx[:, None, None] * x.hess + fxx[:, None, None] * _outer(gx)
    if ydual and xdual:
        h = h + fyx[:, None, None] * _outer_sym(gy, gx)
    return Dual2(val, g, h)
