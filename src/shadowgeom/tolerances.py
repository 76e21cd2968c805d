"""Numeric thresholds shared across the package.

Every comparison against "small" or "large" goes through one of these
named values so scenes and the command line can override them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields

__all__ = ["Tolerances", "DEFAULT_TOLS"]


@dataclass(frozen=True)
class Tolerances:
    # frame / chart health
    rank_tol: float = 1e-8
    on_ambient_tol: float = 1e-8
    # curvature
    tgs_tol: float = 1e-7
    # transport
    transport_tol: float = 1e-8
    holonomy_tol: float = 1e-6
    # shadow extraction
    extract_tol: float = 1e-8
    # helix checks
    helix_tol: float = 1e-7
    # residuals below a floor count as degenerate rather than "large"
    transversality_floor: float = 1e-3
    ntgs_floor: float = 1e-3
    # finite-difference step for sampled (transported) fields
    field_fd_step: float = 1e-5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"tolerance {f.name} must be finite and positive, got {value!r}")

    def with_overrides(self, overrides) -> "Tolerances":
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        for key in overrides:
            if key not in known:
                raise KeyError(f"unknown tolerance {key!r}")
        return replace(self, **{k: float(v) for k, v in overrides.items()})


DEFAULT_TOLS = Tolerances()
