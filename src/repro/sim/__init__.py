"""Minimal discrete-event simulation engine.

The platform runtimes (:mod:`repro.sambanova.runtime`,
:mod:`repro.graphcore.pipeline`) share this engine to execute workloads
event-by-event: operators/stages fire when their inputs are available —
the data-driven execution model that defines dataflow architectures
(paper Sec. I). :mod:`repro.cerebras.runtime` runs the same model in its
own tandem-queue loop; every runtime records into a :class:`Trace`.
"""

from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace, TraceRecord

__all__ = ["Simulator", "Resource", "Trace", "TraceRecord"]
