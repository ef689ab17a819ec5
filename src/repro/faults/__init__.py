"""Deterministic fault injection: the substrate of the chaos suite.

Arm a seeded :class:`FaultPlan` and the named fault sites woven through
the serving and persistence layers (worker dispatch, local compute, WAL
frame writes, snapshot file writes) trigger crashes, delays, typed
exceptions, byte corruption, or truncation — deterministically, so
``tests/faults/`` can assert bit-identical recovery against a no-fault
run.  With no plan armed every site is a single global read.

Usage::

    from repro import faults

    plan = faults.FaultPlan(seed=7).crash("replica.dispatch", on_hit=1)
    with faults.armed(plan) as injector:
        ...  # first process-pool dispatch kills its worker
    assert injector.fired

See ``docs/RELIABILITY.md`` for the site catalog and the failure matrix.
"""

from repro.faults.injector import (
    CORRUPT,
    CRASH,
    CRASH_EXIT_CODE,
    DELAY,
    RAISE,
    TRUNCATE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    arm,
    armed,
    disarm,
    fault_bytes,
    fault_file,
    fault_point,
    pending_fault,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "arm",
    "disarm",
    "armed",
    "active_injector",
    "fault_point",
    "fault_bytes",
    "fault_file",
    "pending_fault",
    "CRASH",
    "RAISE",
    "DELAY",
    "CORRUPT",
    "TRUNCATE",
    "CRASH_EXIT_CODE",
]
