"""Three-valued verdicts with mandatory evidence.

A finite window can witness failure, certify success on the window, or run
out of room; the three cases are kept distinct so that no verdict ever
overstates what was actually checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class Status(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    evidence: Any = None
    provenance: str = "window"  # "analytic" or "window" (searched)

    def __post_init__(self):
        if self.status in (Status.HOLDS, Status.FAILS) and self.evidence is None:
            raise ValueError(f"{self.status.value} verdicts must carry evidence")

    def to_jsonable(self) -> dict:
        return {
            "status": self.status.value,
            "provenance": self.provenance,
            "evidence": self.evidence,
        }


def holds(evidence, provenance="window") -> Verdict:
    return Verdict(Status.HOLDS, evidence, provenance)


def fails(evidence, provenance="window") -> Verdict:
    return Verdict(Status.FAILS, evidence, provenance)


def inconclusive(reason, provenance="window") -> Verdict:
    return Verdict(Status.INCONCLUSIVE, reason, provenance)
