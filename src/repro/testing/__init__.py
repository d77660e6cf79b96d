"""Automated testing of distributed applications (§5.3).

* :func:`~repro.testing.harness.weavertest` — deploy a whole app inside a
  unit test (single / multi / subprocess modes).
* :mod:`repro.testing.faults` — deterministic per-call fault injection.
* :mod:`repro.testing.chaos` — kill replicas under load, measure survival.
"""

from repro.testing.chaos import ChaosMonkey, ChaosReport
from repro.testing.faults import FaultPlan, FaultRule
from repro.testing.harness import weavertest

__all__ = [
    "ChaosMonkey",
    "ChaosReport",
    "FaultPlan",
    "FaultRule",
    "weavertest",
]
