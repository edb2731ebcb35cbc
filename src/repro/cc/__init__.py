"""Congestion control.

Two layers:

* **Share policies** (:mod:`repro.cc.base` and friends) — answer "given the
  flows communicating right now, how is link bandwidth split?". The
  phase-level simulator consumes these. Fair sharing, static-weighted
  unfairness (the fluid analogue of skewing DCQCN's ``T``), the paper's
  adaptively-unfair rule (§4(i)), and per-job strict priorities (§4(ii))
  are all policies.
* **Fine-grained DCQCN** (:mod:`repro.cc.dcqcn`) — a fluid-model DCQCN
  simulator with the actual rate state machine (ECN/CNP decrease, byte- and
  timer-driven increase). It reproduces Figure 1b/1c and calibrates the
  weight that a given ``T`` skew corresponds to.
"""

from .base import SharePolicy
from .fair import FairSharing
from .weighted import StaticWeighted
from .adaptive import AdaptiveUnfair
from .priority import PrioritySharing
from .dcqcn import DcqcnParams, DcqcnSender, DcqcnFluidSimulator, calibrate_timer_weights
from .sender_bank import SenderBank
from .aimd import AimdParams, AimdFluidSimulator

__all__ = [
    "SharePolicy",
    "FairSharing",
    "StaticWeighted",
    "AdaptiveUnfair",
    "PrioritySharing",
    "DcqcnParams",
    "DcqcnSender",
    "DcqcnFluidSimulator",
    "calibrate_timer_weights",
    "SenderBank",
    "AimdParams",
    "AimdFluidSimulator",
]
