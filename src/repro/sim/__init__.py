"""Discrete-event simulation engine.

A deliberately small, dependency-free core: an event heap
(:mod:`repro.sim.events`), a simulator loop (:mod:`repro.sim.engine`),
seeded random streams (:mod:`repro.sim.rng`) and time-series probes
(:mod:`repro.sim.trace`). The event loop drives one simulator, the
phase-level network simulator
(:class:`repro.net.phasesim.PhaseLevelSimulator`), and through it the
cluster-scheduling simulator
(:class:`repro.scheduler.simulation.ClusterSimulation`), which runs a
placed cluster on a ``PhaseLevelSimulator``. The fluid tiers (DCQCN,
AIMD, the grid) are fixed-step and use only the random streams and the
time-series containers.
"""

from .events import Event, EventQueue
from .engine import Simulator
from .rng import RandomStreams
from .trace import TimeSeries, StepFunction

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "TimeSeries",
    "StepFunction",
]
