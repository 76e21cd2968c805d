"""Vector fields along a patch, given in ambient coordinates.

A field assigns to each parameter point u an ambient vector Y(x(u)).
Three realizations exist: constant vectors, closed-form expressions in
the patch parameters, and transport-constructed samplers (built in
:mod:`shadowgeom.transport`).  All are functions of a batch of parameter
points only.  Derivative data is analytic where a closed form exists;
only transported fields use central differences.  A field whose type
makes dY/du identically zero says so with `constant`, so a caller can
skip a contraction with zeros.
"""

from __future__ import annotations

import numpy as np

from .expr import ChartExpr

__all__ = ["FieldAlongM", "ConstantField", "ExprField", "BlockField"]


class FieldAlongM:
    """Base interface: `values(points)` gives Y, (B, m), and
    `param_jacobian(points)` gives dY/du, (B, m, n).  `constant` is true
    when dY/du is identically zero, which follows from the field's type."""

    constant = False

    def values(self, points):
        raise NotImplementedError

    def param_jacobian(self, points):
        raise NotImplementedError


class ConstantField(FieldAlongM):
    constant = True

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.broadcast_to(self.vector, (points.shape[0], self.vector.shape[0])).copy()

    def param_jacobian(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros((points.shape[0], self.vector.shape[0], points.shape[1]))


class ExprField(FieldAlongM):
    """Closed form in the patch parameters; derivatives are analytic."""

    def __init__(self, chart: ChartExpr):
        self.chart = chart

    def values(self, points):
        return self.chart.eval_values(points)

    def param_jacobian(self, points):
        return self.chart.eval_jets(points, order=1).jac


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
        self.constant = first.constant and second.constant

    def _split(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points[:, : self.n_first], points[:, self.n_first :]

    def values(self, points):
        pa, pb = self._split(points)
        return np.hstack([self.first.values(pa), self.second.values(pb)])

    def param_jacobian(self, points):
        pa, pb = self._split(points)
        ja = self.first.param_jacobian(pa)
        jb = self.second.param_jacobian(pb)
        b = ja.shape[0]
        m = ja.shape[1] + jb.shape[1]
        n = ja.shape[2] + jb.shape[2]
        out = np.zeros((b, m, n))
        out[:, : self.m_first, : self.n_first] = ja
        out[:, self.m_first :, self.n_first :] = jb
        return out
