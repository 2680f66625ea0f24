"""Shared measurement record for inequality checks.

Every estimate in the chain (Caccioppoli, reverse Holder, the Gehring scan,
higher integrability) reports the same shape of evidence: a left-hand
side, named right-hand-side components, and the empirical constant
lhs / sum(rhs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Box

__all__ = ["EstimateRecord"]


@dataclass
class EstimateRecord:
    name: str
    lhs: float
    rhs_components: dict[str, float]
    empirical_constant: float
    cube: Box | None = None
    resolution: tuple[int, ...] = ()
    flags: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, name: str, lhs: float, rhs: dict[str, float], *,
              cube: Box | None = None, resolution: tuple[int, ...] = (),
              flags: list[str] | None = None) -> "EstimateRecord":
        total = float(sum(rhs.values()))
        const = float(lhs) / total if total > 0 else float("inf") if lhs > 0 else 0.0
        return cls(name, float(lhs), {k: float(v) for k, v in rhs.items()},
                   const, cube, tuple(resolution), list(flags or []))

    @property
    def rhs_sum(self) -> float:
        return float(sum(self.rhs_components.values()))
