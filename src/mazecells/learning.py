"""Single-synapse associative learning between color input and motion output.

The motion circuit fires on either a strong vibration (hard-wired reflex)
or a sufficiently weighted color input (learned pathway).  The color
weight is one plain float that follows Oja's rule,
delta_w = eta * (y * x - y^2 * w), which for binary y relaxes the weight
toward the current input.  Both functions work on floats; the episode
config validates the starting weight once, so the per-tick loop builds
no state object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spatialcells import ConfigurationError


@dataclass(frozen=True)
class CircuitParams:
    """Thresholds of the motion circuit."""

    vibration_threshold: float = 5.0
    color_activation_threshold: float = 0.3
    eta: float = 0.05

    def __post_init__(self):
        # Positive, so that test mode's rest reading of exactly 0.0 never
        # fires the reflex: avoidance there can come only from color.
        if not (self.vibration_threshold > 0.0 and math.isfinite(self.vibration_threshold)):
            raise ConfigurationError("vibration_threshold must be positive and finite")
        if not (self.color_activation_threshold > 0.0 and math.isfinite(self.color_activation_threshold)):
            raise ConfigurationError("color_activation_threshold must be positive and finite")
        if not (0.0 < self.eta < 1.0):
            raise ConfigurationError(f"eta must lie in (0, 1), got {self.eta}")


def motion_output(vibration: float, x_color: float, w_color: float, cp: CircuitParams) -> int:
    """Binary motion command: 1 iff vibration or weighted color crosses threshold."""
    if vibration >= cp.vibration_threshold:
        return 1
    if w_color * x_color >= cp.color_activation_threshold:
        return 1
    return 0


def oja_update(w_color: float, x_color: float, y: int, eta: float) -> float:
    """One Oja step: w' = w + eta * (y * x - y^2 * w).

    With binary y this is a convex pull of w toward x whenever the output
    fired, and a no-op otherwise, so weights seeded in [0, 1] stay there.
    """
    if y not in (0, 1):
        raise ConfigurationError("y must be binary")
    return w_color + eta * (y * x_color - (y * y) * w_color)
