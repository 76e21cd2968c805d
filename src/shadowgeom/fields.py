"""Vector fields along a patch, given in ambient coordinates.

A field assigns to each parameter point u an ambient vector Y(x(u)).
Three realizations exist: constant vectors, closed-form expressions in
the patch parameters, and transport-constructed samplers (built in
:mod:`shadowgeom.transport`).  All evaluate in batch; derivative data is
analytic where a closed form exists and central-difference otherwise.
"""

from __future__ import annotations

import numpy as np

from .expr import ChartExpr
from .tolerances import DEFAULT_TOLS

__all__ = ["FieldAlongM", "ConstantField", "ExprField", "ScaledField", "BlockField"]


class FieldAlongM:
    """Base interface; subclasses implement `values`."""

    def values(self, points, patch=None, tols=DEFAULT_TOLS):
        raise NotImplementedError

    def value(self, point, patch=None, tols=DEFAULT_TOLS):
        return self.values(np.asarray(point, dtype=float)[None, :], patch=patch, tols=tols)[0]

    def param_jacobian(self, points, patch=None, tols=DEFAULT_TOLS):
        """dY/du, (B, m, n), by symmetric differences of step field_fd_step."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        b, n = points.shape
        h = tols.field_fd_step
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fwd = self.values(points + e, patch=patch, tols=tols)
            bwd = self.values(points - e, patch=patch, tols=tols)
            cols.append((fwd - bwd) / (2.0 * h))
        return np.stack(cols, axis=2)

    def scaled(self, factor: float) -> "FieldAlongM":
        return ScaledField(self, float(factor))


class ConstantField(FieldAlongM):
    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def values(self, points, patch=None, tols=DEFAULT_TOLS):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.broadcast_to(self.vector, (points.shape[0], self.vector.shape[0])).copy()

    def param_jacobian(self, points, patch=None, tols=DEFAULT_TOLS):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros((points.shape[0], self.vector.shape[0], points.shape[1]))


class ExprField(FieldAlongM):
    """Closed form in the patch parameters; derivatives are analytic."""

    def __init__(self, chart: ChartExpr):
        self.chart = chart

    def values(self, points, patch=None, tols=DEFAULT_TOLS):
        return self.chart.eval_values(points)

    def param_jacobian(self, points, patch=None, tols=DEFAULT_TOLS):
        return self.chart.eval_jets(points, order=1).jac


class ScaledField(FieldAlongM):
    def __init__(self, inner: FieldAlongM, factor: float):
        self.inner = inner
        self.factor = factor

    def values(self, points, patch=None, tols=DEFAULT_TOLS):
        return self.factor * self.inner.values(points, patch=patch, tols=tols)

    def param_jacobian(self, points, patch=None, tols=DEFAULT_TOLS):
        return self.factor * self.inner.param_jacobian(points, patch=patch, tols=tols)


class BlockField(FieldAlongM):
    """Field on a product patch, assembled from fields on the factors.

    Parameter points split as (first n_first columns, rest); ambient
    vectors concatenate the factor vectors.
    """

    def __init__(self, first: FieldAlongM, second: FieldAlongM, n_first: int, m_first: int):
        self.first = first
        self.second = second
        self.n_first = int(n_first)
        self.m_first = int(m_first)

    def _split(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points[:, : self.n_first], points[:, self.n_first :]

    def values(self, points, patch=None, tols=DEFAULT_TOLS):
        pa, pb = self._split(points)
        ya = self.first.values(pa, tols=tols)
        yb = self.second.values(pb, tols=tols)
        return np.hstack([ya, yb])

    def param_jacobian(self, points, patch=None, tols=DEFAULT_TOLS):
        pa, pb = self._split(points)
        ja = self.first.param_jacobian(pa, tols=tols)
        jb = self.second.param_jacobian(pb, tols=tols)
        b = ja.shape[0]
        m = ja.shape[1] + jb.shape[1]
        n = ja.shape[2] + jb.shape[2]
        out = np.zeros((b, m, n))
        out[:, : self.m_first, : self.n_first] = ja
        out[:, self.m_first :, self.n_first :] = jb
        return out
