"""The paper's adaptively-unfair congestion control (§4, direction i).

DCQCN increases its target rate by a constant additive step ``R_AI``. The
paper proposes scaling that step with communication-phase progress::

    R_AI  <-  R_AI * (1 + Data_sent / Data_comm_phase)

so a job about to *finish* its communication phase is more aggressive than
one just starting (``Data_sent = 0``). For compatible jobs this re-creates
the sliding side effect automatically; for incompatible jobs the advantage
alternates between jobs, so bandwidth is fair in steady state.

In fluid form, a sender whose additive-increase step is ``k`` times larger
holds a ``k`` times larger share of a shared bottleneck (share is
proportional to the increase rate when decreases are multiplicative and
marking is shared — see the DCQCN fluid analysis). Hence the policy maps
progress straight to a share weight::

    weight = base * (1 + gain * progress) ** exponent

with ``gain = 1`` and ``exponent = 1`` matching the paper's formula.
Because progress changes continuously during a phase, the policy requests
periodic re-allocation.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..net.flows import Flow
from .base import SharePolicy


class AdaptiveUnfair(SharePolicy):
    """Progress-weighted unfairness (fluid form of the §4(i) rule)."""

    name = "adaptive-unfair"

    def __init__(
        self,
        gain: float = 1.0,
        exponent: float = 1.0,
        base_weight: float = 1.0,
        reallocation_interval: float = 2e-3,
    ) -> None:
        for name, value in (
            ("gain", gain),
            ("exponent", exponent),
            ("base_weight", base_weight),
            ("reallocation_interval", reallocation_interval),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if gain < 0:
            raise ConfigError(f"gain must be >= 0, got {gain}")
        if exponent <= 0:
            raise ConfigError(f"exponent must be > 0, got {exponent}")
        if base_weight <= 0:
            raise ConfigError(f"base_weight must be > 0, got {base_weight}")
        if reallocation_interval <= 0:
            raise ConfigError("reallocation_interval must be > 0")
        # The weight grows with progress, so it peaks at progress 1.
        try:
            largest = base_weight * (1.0 + gain) ** exponent
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ConfigError(
                f"weight base_weight * (1 + gain) ** exponent overflows "
                f"at progress 1 (base_weight={base_weight}, gain={gain}, "
                f"exponent={exponent})"
            )
        self.gain = gain
        self.exponent = exponent
        self.base_weight = base_weight
        self.reallocation_interval = reallocation_interval

    def weight_of(self, flow: Flow) -> float:
        return self.base_weight * (1.0 + self.gain * flow.progress) ** self.exponent
