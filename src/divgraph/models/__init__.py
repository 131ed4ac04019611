"""Divisibility models and the factory used by the config layer."""

from __future__ import annotations

from ..errors import UnknownModelKind
from .base import DivisibilityModel, FactorSearch, Factorization, WindowSpec
from .valuebased import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ValueModel,
)
from .zxq import ZxQModel

# kind name -> model class
KINDS = {
    "dvr": DVRModel,
    "antimatter": AntimatterModel,
    "numerical-monoid": NumericalMonoidModel,
    "d1": D1Model,
    "d2": D2Model,
    "zxq": ZxQModel,
}


def build_model(kind: str, options: dict) -> DivisibilityModel:
    """The model of a kind, built from its constructor arguments."""
    if kind not in KINDS:
        raise UnknownModelKind(f"unknown model kind {kind!r}; known kinds: {', '.join(KINDS)}")
    return KINDS[kind](**options)


__all__ = [
    "AntimatterModel",
    "D1Model",
    "D2Model",
    "DVRModel",
    "DivisibilityModel",
    "FactorSearch",
    "Factorization",
    "KINDS",
    "NumericalMonoidModel",
    "ValueModel",
    "WindowSpec",
    "ZxQModel",
    "build_model",
]
