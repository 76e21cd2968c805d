"""Verdicts over numeric residuals, and canonical report output.

Every geometric statement checked here reduces to residuals.  A residual
is classified against two thresholds: at or below the tolerance it
counts as zero, at or above the floor it counts as definitely nonzero,
and the band in between is ambiguous.  A two-sided (equivalence) check
then combines the hypothesis side with the conclusion side:

    both zero, or both nonzero      -> confirmed
    one zero, the other nonzero     -> counterexample-flag
    anything ambiguous              -> hypotheses-not-met

Failed preconditions short-circuit to hypotheses-not-met.  A failed cheap
gate stops a check before its measuring stage: the report lists the
gates, with empty `hypotheses`, `conclusions` and `details`.

Reports serialize to canonical JSON: keys sorted, floats in shortest
round-trip form, a float that is not finite as null, LF newlines,
written atomically via a temp file.  `_plain` is the one serializer: a
report dataclass serializes field by field, and a type defines
`as_dict` only where its JSON is a computed view (keys renamed, dropped
or derived).  Commands hand report objects, never dicts, to
`canonical_json`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STATUS_SMALL",
    "STATUS_LARGE",
    "STATUS_AMBIGUOUS",
    "VERDICT_CONFIRMED",
    "VERDICT_NOT_MET",
    "VERDICT_COUNTEREXAMPLE",
    "ToleranceFloorError",
    "ResidualEntry",
    "Precondition",
    "TheoremReport",
    "combine_side",
    "build_report",
    "canonical_json",
    "csv_text",
    "obj_text",
]

STATUS_SMALL = "small"
STATUS_LARGE = "large"
STATUS_AMBIGUOUS = "ambiguous"

VERDICT_CONFIRMED = "confirmed"
VERDICT_NOT_MET = "hypotheses-not-met"
VERDICT_COUNTEREXAMPLE = "counterexample-flag"


class ToleranceFloorError(ValueError):
    """A residual's tolerance does not lie below its floor."""


@dataclass(frozen=True)
class ResidualEntry:
    """One measured residual with its decision thresholds; `status`
    follows from them (a NaN value reads ambiguous)."""

    label: str
    value: float
    tol: float
    floor: float
    status: str = field(init=False)

    def __post_init__(self):
        if not self.tol < self.floor:
            raise ToleranceFloorError(f"{self.label}: tolerance {self.tol} "
                                      f"must lie below floor {self.floor}")
        status = (STATUS_SMALL if self.value <= self.tol else
                  STATUS_LARGE if self.value >= self.floor else STATUS_AMBIGUOUS)
        object.__setattr__(self, "status", status)


@dataclass(frozen=True)
class Precondition:
    """A gate that must hold before the theorem statement applies."""

    label: str
    ok: bool
    value: float
    threshold: float


def combine_side(entries) -> str:
    """Collapse one side of an equivalence to a single status.

    The side holds when every entry is small, definitively fails when
    any entry is large, and is ambiguous otherwise.
    """
    entries = tuple(entries)
    if not entries:
        raise ValueError("a side needs at least one residual entry")
    statuses = [e.status for e in entries]
    if any(s == STATUS_LARGE for s in statuses):
        return STATUS_LARGE
    if all(s == STATUS_SMALL for s in statuses):
        return STATUS_SMALL
    return STATUS_AMBIGUOUS


def _verdict(hyp_status: str, con_status: str) -> str:
    if STATUS_AMBIGUOUS in (hyp_status, con_status):
        return VERDICT_NOT_MET
    if hyp_status == con_status:
        return VERDICT_CONFIRMED
    return VERDICT_COUNTEREXAMPLE


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    subject: str
    preconditions: tuple
    hypotheses: tuple
    conclusions: tuple
    verdict: str
    details: dict = field(default_factory=dict)


def build_report(theorem: str, subject: str, hypotheses, conclusions,
                 preconditions=(), details=None) -> TheoremReport:
    """Assemble a report; the verdict follows from the entry statuses."""
    preconditions = tuple(preconditions)
    hypotheses = tuple(hypotheses)
    conclusions = tuple(conclusions)
    if any(not p.ok for p in preconditions):
        verdict = VERDICT_NOT_MET
    else:
        verdict = _verdict(combine_side(hypotheses), combine_side(conclusions))
    return TheoremReport(
        theorem=theorem,
        subject=subject,
        preconditions=preconditions,
        hypotheses=hypotheses,
        conclusions=conclusions,
        verdict=verdict,
        details=dict(details or {}),
    )


# -- serialization -----------------------------------------------------------


def _plain(obj):
    """Recursively convert report content to JSON-ready python values: an
    `as_dict` view where a type has one, else a dataclass field by field;
    a non-finite float becomes None (JSON null) and -0.0 becomes 0.0."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        return obj + 0.0 if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if hasattr(obj, "as_dict"):
        return _plain(obj.as_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, LF, trailing newline; strict
    JSON, so a NaN or inf that reaches it raises ValueError."""
    payload = _plain(obj)
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def obj_text(vertices, polylines) -> str:
    """Wavefront OBJ text: point cloud plus optional line elements.

    vertices: (V, 3) or (V, 2) array; polylines: iterable of vertex index
    sequences (0-based).
    """
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.shape[1] not in (2, 3):
        raise ValueError(f"OBJ needs a 2- or 3-dimensional ambient, got {verts.shape[1]}")
    if verts.shape[1] == 2:
        verts = np.column_stack([verts, np.zeros(len(verts))])
    lines = []
    for v in verts:
        lines.append("v " + " ".join(repr(float(c)) for c in v))
    for poly in polylines:
        idx = " ".join(str(int(i) + 1) for i in poly)
        if idx:
            lines.append("l " + idx)
    return "\n".join(lines) + "\n"
