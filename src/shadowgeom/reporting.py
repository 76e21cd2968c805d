"""Verdicts over numeric residuals, and canonical report output.

Every geometric statement checked here reduces to residuals.  A residual
is classified against two thresholds: at or below the tolerance it
counts as zero, at or above the floor it counts as definitely nonzero,
and the band in between is ambiguous.  A two-sided (equivalence) check
then combines the hypothesis side with the conclusion side:

    both zero, or both nonzero      -> confirmed
    one zero, the other nonzero     -> counterexample-flag
    anything ambiguous              -> hypotheses-not-met

Failed preconditions short-circuit to hypotheses-not-met.

Reports serialize to canonical JSON: keys sorted, floats in shortest
round-trip form, a float that is not finite as null, LF newlines,
written atomically via a temp file.
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
    """One measured residual with its decision thresholds."""

    label: str
    value: float
    tol: float
    floor: float

    def __post_init__(self):
        if not self.tol < self.floor:
            raise ToleranceFloorError(f"{self.label}: tolerance {self.tol} "
                                      f"must lie below floor {self.floor}")

    @property
    def status(self) -> str:
        if self.value <= self.tol:
            return STATUS_SMALL
        if self.value >= self.floor:
            return STATUS_LARGE
        return STATUS_AMBIGUOUS

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "value": float(self.value),
            "tol": float(self.tol),
            "floor": float(self.floor),
            "status": self.status,
        }


@dataclass(frozen=True)
class Precondition:
    """A gate that must hold before the theorem statement applies."""

    label: str
    ok: bool
    value: float
    threshold: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": bool(self.ok),
            "value": float(self.value),
            "threshold": float(self.threshold),
        }


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

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "subject": self.subject,
            "preconditions": [p.as_dict() for p in self.preconditions],
            "hypotheses": [e.as_dict() for e in self.hypotheses],
            "conclusions": [e.as_dict() for e in self.conclusions],
            "verdict": self.verdict,
            "details": _plain(self.details),
        }


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
    """Recursively convert report content to JSON-ready python values; a
    float that is not finite becomes None (JSON null)."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
        return None if isinstance(obj, float) and not math.isfinite(obj) else obj
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "as_dict"):
            return _plain(obj.as_dict())
        return _plain(dataclasses.asdict(obj))
    if hasattr(obj, "as_dict"):
        return _plain(obj.as_dict())
    if isinstance(obj, float):
        # normalize -0.0 so equal reports serialize identically
        return obj + 0.0 if math.isfinite(obj) else None
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
