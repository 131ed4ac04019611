"""Canonical representatives of principal-ideal classes.

Two elements represent the same class iff their (model_id, value) pairs are
equal: models quotient out units first, so the value (a `Vec`, or a zxq
`RationalFunction`) is canonical.  An element is that pair as a tuple, so
`==` and `hash` are `tuple`'s and run in C.  The renderer rides in the
instance `__dict__`, outside the pair, and the label is rendered from the
value on first read; it serves only for output and for the order of output.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


class Element(namedtuple("Element", "model_id value")):
    def __new__(cls, model_id: str, value, render) -> Element:
        self = tuple.__new__(cls, (model_id, value))
        self.render = render  # value -> label; not compared, not in the repr
        return self

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return (*self, self.render)

    @cached_property
    def label(self) -> str:
        return self.render(self.value)

    def __str__(self) -> str:
        return self.label
