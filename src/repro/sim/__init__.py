"""``repro.sim`` — deterministic discrete-event simulation core.

A compact SimPy-style engine (events, generator processes, FCFS resources,
continuous tanks) used by :mod:`repro.cluster`, :mod:`repro.fs` and
:mod:`repro.mpiio` to reproduce the paper's at-scale experiments on
simulated Minerva and Sierra.
"""

from .engine import AllOf, Environment, Event, Process, SimError, Timeout
from .resources import BandwidthPipe, Resource, Tank
from .stats import GB, MB, OpCounter

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "SimError",
    "Resource",
    "BandwidthPipe",
    "Tank",
    "OpCounter",
    "MB",
    "GB",
]
