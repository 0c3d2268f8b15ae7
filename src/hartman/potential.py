"""Physical constants and the square potential.

The potential is piecewise constant: V(x) = v0 for |x| < a and 0 outside,
with a = half_width, so the support is exactly [-a, a] and the width is
d = 2a.  v0 > 0 is a barrier, v0 < 0 a well.  Default units are atomic
(hbar = m = 1); all formulas keep hbar and m explicit so other unit systems
work unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (0 < self.mass < math.inf):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    @property
    def h(self) -> float:
        """Planck constant h = 2*pi*hbar (normalizes improper eigenstates)."""
        return 2.0 * math.pi * self.hbar


ATOMIC = PhysicalConstants()


@dataclass(frozen=True)
class SquarePotential:
    """Square barrier (v0 > 0) or well (v0 < 0) supported on [-a, a]."""

    v0: float
    half_width: float

    def __post_init__(self):
        if not (0 < self.half_width < math.inf):
            raise ValueError(
                f"half_width must be positive and finite, got {self.half_width}"
            )
        if not math.isfinite(self.v0):
            raise ValueError(f"v0 must be finite, got {self.v0}")

    @property
    def width(self) -> float:
        """Full width d = 2a."""
        return 2.0 * self.half_width

    def strength(self, consts: PhysicalConstants = ATOMIC) -> float:
        """g = 2 m v0 / hbar^2; the inside wavenumber obeys q^2 = k^2 - g."""
        return 2.0 * consts.mass * self.v0 / consts.hbar**2

    def barrier_momentum(self, consts: PhysicalConstants = ATOMIC) -> float:
        """p_b = sqrt(2 m V0), the momentum separating tunneling from
        over-the-barrier propagation.  Defined only for barriers."""
        if self.v0 <= 0:
            raise ValueError("barrier momentum is defined only for v0 > 0")
        return math.sqrt(2.0 * consts.mass * self.v0)
