"""Quantum-cloud load simulation: arrivals, queues, policies and drift.

The paper motivates QRIO with the state of today's quantum cloud — thousands
of queued jobs, multi-day wait times and calibration data that drifts by 2-3x
between calibration cycles (Sections 1 and 2.2, citing the IISWC'21 cloud
characterisation study) — but its prototype schedules a single job at a time.
This subpackage supplies the missing substrate so the multi-job future-work
direction can be evaluated end to end:

* :mod:`repro.scenarios.arrivals` — job-arrival traces drawn from the
  workload suites;
* :mod:`repro.cloud.queueing` — per-device queues and a service-time model;
* :mod:`repro.cloud.policies` — allocation policies from random through
  queue-aware fidelity scheduling;
* :mod:`repro.cloud.calibration` — calibration-cycle drift models;
* :mod:`repro.cloud.simulation` — the discrete-event simulator tying the
  pieces together;
* :mod:`repro.scenarios.metrics` — wait/fairness/utilisation metrics.
"""

from repro.cloud.calibration import CalibrationDriftModel, drift_fleet, drift_history
from repro.scenarios.arrivals import ArrivalSpec, JobRequest, generate_trace, trace_summary
from repro.scenarios.metrics import jain_fairness_index, summarise_waits, wait_fairness
from repro.cloud.policies import (
    AllocationContext,
    AllocationPolicy,
    FidelityPolicy,
    LeastLoadedPolicy,
    QueueAwareFidelityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    builtin_policies,
)
from repro.cloud.queueing import DeviceQueue, ExecutionTimeModel, QueueSlot, build_queues
from repro.cloud.simulation import (
    CloudSession,
    CloudSimulationConfig,
    CloudSimulationResult,
    CloudSimulator,
    JobRecord,
    compare_policies,
    render_policy_comparison,
)

__all__ = [
    "AllocationContext",
    "AllocationPolicy",
    "ArrivalSpec",
    "CalibrationDriftModel",
    "CloudSession",
    "CloudSimulationConfig",
    "CloudSimulationResult",
    "CloudSimulator",
    "DeviceQueue",
    "ExecutionTimeModel",
    "FidelityPolicy",
    "JobRecord",
    "JobRequest",
    "LeastLoadedPolicy",
    "QueueAwareFidelityPolicy",
    "QueueSlot",
    "RandomPolicy",
    "RoundRobinPolicy",
    "build_queues",
    "builtin_policies",
    "compare_policies",
    "drift_fleet",
    "drift_history",
    "generate_trace",
    "jain_fairness_index",
    "render_policy_comparison",
    "summarise_waits",
    "trace_summary",
    "wait_fairness",
]
