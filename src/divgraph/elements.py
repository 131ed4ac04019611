"""Canonical representatives of principal-ideal classes.

Two elements represent the same class iff their (model_id, label) pairs are
equal; models are responsible for quotienting out units before building an
Element, so label equality is class equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .values import Vec


@dataclass(frozen=True)
class Element:
    model_id: str
    label: str
    value: Vec | None = field(default=None, compare=False)
    symbolic: Any = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.label
