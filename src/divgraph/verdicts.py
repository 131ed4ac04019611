"""Three-valued verdicts with mandatory evidence.

A finite window can witness failure, certify success on the window, or run
out of room; the three cases are kept distinct so that no verdict ever
overstates what was actually checked.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


class Status(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


class Verdict(namedtuple("Verdict", "status evidence provenance")):
    """`provenance` is "analytic" or "window" (searched)."""

    __slots__ = ()

    def __new__(cls, status: Status, evidence=None, provenance: str = "window") -> Verdict:
        if status in (Status.HOLDS, Status.FAILS) and evidence is None:
            raise ValueError(f"{status.value} verdicts must carry evidence")
        return tuple.__new__(cls, (status, evidence, provenance))

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
