"""Second-order forward-mode kernels on planar jets.

A jet holds a batch of B scalars with their gradients and, at second
order, their Hessians with respect to n input variables, in one float
array of shape (W, B) with one row per component: row 0 holds the values,
rows 1 .. n the gradient, and at second order the n*n rows after them
the Hessian, row-major.  So W = 1 + n at first order and 1 + n + n*n at
second.  One array per jet lets a sum, a difference, a negation or a
constant scale act on every row in one numpy call; the kernels below do
the rest.  A chart's tape (see :mod:`shadowgeom.expr`) picks the kernel
for each step when the chart is lowered.

Kernels never write into their operands, because a tape shares one
register between all the steps that read it.  Each returns a fresh
array, except ``powc`` with exponent 1, which returns its operand.

Bit identity: each element is computed by the IEEE operations written
in these kernels, in that order and grouping: the chain rule as
``fp*g`` and ``fp*H + fpp*(g g^T)``, the product rule as ``a*gb + b*ga``
and ``(a*Hb + b*Ha) + (ga gb^T + gb ga^T)``, and so on.  A jet's bits
therefore depend only on its operands' bits, never on whether a step is
shared or which register holds it; tests/test_chart_digests.py freezes
the results for every bundled chart.  Row 0 is computed as values-only
evaluation computes it (``x / c``, ``c / v``, ``np.power``), so a jet's
value equals ``ChartExpr.eval_values`` bit for bit for every op.
Hessians stay bit-exactly symmetric: every second-order update is built
from symmetric combinations such as ``outer(ga, gb) + outer(gb, ga)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["JetKernels"]


class JetKernels:
    """Jet arithmetic in n variables at order 1 or 2."""

    def __init__(self, n: int, order: int):
        self.n = n
        self.second = order >= 2
        self.width = 1 + n + (n * n if self.second else 0)
        self.grad = slice(1, 1 + n)
        self.hess = slice(1 + n, None)
        # the gradient rows as a column (n, 1, B) and as a row (1, n, B)
        self._gcol = (slice(1, 1 + n), None)
        self._grow = (None, slice(1, 1 + n))
        self._unit = np.eye(n)[:, :, None]  # seed gradients, broadcast over B

    def seeds(self, points):
        """The jets of the n input variables at points (B, n): (n, W, B)."""
        s = np.zeros((self.n, self.width, points.shape[0]))
        s[:, 0] = points.T
        s[:, self.grad] = self._unit
        return s

    def _outer(self, x):
        """Rows g_i * g_j of x's gradient g, (n*n, B) in row-major (i, j)."""
        return (x[self._gcol] * x[self._grow]).reshape(self.n * self.n, x.shape[1])

    def _outer_sym(self, a, b):
        """Rows ga_i * gb_j + gb_i * ga_j of two jets' gradients."""
        p = a[self._gcol] * b[self._grow]  # p[j, i] = ga_j * gb_i = gb_i * ga_j
        return (p + p.swapaxes(0, 1)).reshape(self.n * self.n, a.shape[1])

    def chain(self, x, f, fp, fpp):
        """A smooth scalar function of x given f(v), f'(v), f''(v)."""
        r = fp * x  # row 0 is overwritten: fp times the value is not used
        r[0] = f
        if self.second:
            h = r[self.hess]
            h += fpp * self._outer(x)
        return r

    # -- arithmetic with a constant c --------------------------------------

    @staticmethod
    def add_const(x, c):
        r = x.copy()
        r[0] += c
        return r

    @staticmethod
    def sub_const(x, c):
        r = x.copy()
        r[0] -= c
        return r

    @staticmethod
    def const_sub(c, x):
        r = -x
        r[0] = c - x[0]
        return r

    @staticmethod
    def div_const(x, c):
        return x / c

    def const_div(self, c, x):
        v = x[0]
        return self.chain(x, c / v, -c / v**2, 2.0 * c / v**3)

    def powc(self, x, c):
        """x to a constant real power."""
        if c == 0.0:
            r = np.zeros_like(x)
            r[0] = 1.0
            return r
        if c == 1.0:
            return x
        v = x[0]
        return self.chain(x, np.power(v, c), c * np.power(v, c - 1.0),
                          c * (c - 1.0) * np.power(v, c - 2.0))

    def const_pow(self, c, x):
        """c to the power x: exp's chain rule at x log c, with the value
        c^x from np.power."""
        p = np.power(c, x[0])
        return self.chain(x * float(np.log(c)), p, p, p)

    # -- arithmetic of two jets --------------------------------------------

    def mul(self, a, b):
        r = a[0] * b  # the value a0*b0, then a0 times b's derivatives
        t = r[1:]
        t += b[0] * a[1:]
        if self.second:
            h = r[self.hess]
            h += self._outer_sym(a, b)
        return r

    def div(self, a, b):
        b0 = b[0]
        r = np.empty_like(a)
        val = np.divide(a[0], b0, out=r[0])
        t = np.multiply(val, b[1:], out=r[1:])
        np.subtract(a[1:], t, out=t)
        g = r[self.grad]
        g /= b0
        if self.second:
            h = r[self.hess]
            h -= self._outer_sym(r, b)
            h /= b0
        return r

    def pow(self, a, b):
        """a to the power b: exp's chain rule at b log a, with the value
        a^b from np.power."""
        p = np.power(a[0], b[0])
        return self.chain(self.mul(b, self.log(a)), p, p, p)

    # -- primitives --------------------------------------------------------

    def sin(self, x):
        s, c = np.sin(x[0]), np.cos(x[0])
        return self.chain(x, s, c, -s)

    def cos(self, x):
        s, c = np.sin(x[0]), np.cos(x[0])
        return self.chain(x, c, -s, -c)

    def tan(self, x):
        t = np.tan(x[0])
        d = 1.0 + t * t
        return self.chain(x, t, d, 2.0 * t * d)

    def exp(self, x):
        e = np.exp(x[0])
        return self.chain(x, e, e, e)

    def log(self, x):
        v = x[0]
        return self.chain(x, np.log(v), 1.0 / v, -1.0 / (v * v))

    def sqrt(self, x):
        v = x[0]
        r = np.sqrt(v)
        return self.chain(x, r, 0.5 / r, -0.25 / (r * v))

    def atan2(self, y, x):
        return self._atan2(y[0], x[0], y, x)

    def atan2_const_y(self, c, x):
        return self._atan2(c, x[0], None, x)

    def atan2_const_x(self, y, c):
        return self._atan2(y[0], c, y, None)

    def _atan2(self, yv, xv, y, x):
        """atan2 of values yv, xv; y or x is None where that argument is
        a constant.  A constant argument's gradient term is 0.0, so
        ``0.0 + term`` stays as the chain rule writes it."""
        r = np.empty((self.width, np.shape(y if x is None else x)[1]))
        r[0] = np.arctan2(yv, xv)
        r2 = xv * xv + yv * yv
        fy = xv / r2
        fx = -yv / r2
        g = 0.0
        if y is not None:
            g = fy * y[self.grad]
        if x is not None:
            g = g + fx * x[self.grad]
        r[self.grad] = g
        if not self.second:
            return r
        r4 = r2 * r2
        fyy = -2.0 * xv * yv / r4
        fyx = (yv * yv - xv * xv) / r4
        fxx = 2.0 * xv * yv / r4
        h = 0.0
        if y is not None:
            h = fy * y[self.hess] + fyy * self._outer(y)
        if x is not None:
            h = h + fx * x[self.hess] + fxx * self._outer(x)
        if y is not None and x is not None:
            h = h + fyx * self._outer_sym(y, x)
        r[self.hess] = h
        return r
