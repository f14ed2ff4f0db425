"""Singular exponents and asymptotic near-tip fields for sharp notches in
dipolar gradient elasticity.

The names below are the ones README's library example uses; everything
else lives in the submodules listed there."""

from .model import MaterialParams, Mode, PolarSeries, WedgeCase
from .eigensolver import smallest_exponents
from .basis import eigenfield

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "Mode",
    "PolarSeries",
    "WedgeCase",
    "eigenfield",
    "smallest_exponents",
]
