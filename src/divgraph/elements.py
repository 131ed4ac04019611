"""Canonical representatives of principal-ideal classes.

Two elements represent the same class iff their (model_id, value) pairs are
equal: models quotient out units first, so the value (a `Vec`, or a zxq
`RationalFunction`) is canonical.  The label is rendered from the value on
first read, and serves only for output and for the order of output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable


@dataclass(frozen=True)
class Element:
    model_id: str
    value: Any
    render: Callable[[Any], str] = field(compare=False, repr=False)

    @cached_property
    def label(self) -> str:
        return self.render(self.value)

    def __str__(self) -> str:
        return self.label
