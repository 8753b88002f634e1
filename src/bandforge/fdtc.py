"""
Fractional Dehn twist coefficient bounds.

Viewing an n-braid as a mapping class of the n-punctured disk, its FDTC
c(beta) is a conjugacy-invariant rational.  Since c(delta) = 1/n and delta
powers sandwich any normal form, the class invariants bound it:

    inf[beta] / n  <=  c(beta)  <=  sup[beta] / n.

Only the bounds are computed (BraidReport.fdtc, from the summit
representative); exact FDTC values (train-track work) are out of scope and
appear in the tests as fixtures that the intervals must contain.  All
arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class FdtcInterval:
    """[inf[beta]/n, sup[beta]/n]; both endpoints exact rationals."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper

    @property
    def pinched(self) -> Optional[Fraction]:
        """The FDTC itself when the interval degenerates (e.g. central powers)."""
        return self.lower if self.lower == self.upper else None

    def to_json(self) -> dict:
        exact = self.pinched
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "exact": str(exact) if exact is not None else None,
        }
