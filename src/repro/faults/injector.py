"""Deterministic, seedable fault injection for the chaos suite.

The serving and persistence layers consult *named fault sites* — plain
string labels like ``"replica.dispatch"`` or ``"wal.append"`` — through a
module-level registry.  With no plan armed (production, benchmarks, the
tier-1 suite) every site is a single global read returning ``None``;
nothing is counted, nothing is logged, no object is allocated.  Arming a
:class:`FaultPlan` turns the sites live: each consultation counts one
*hit* per site, and a :class:`FaultSpec` whose hit set matches fires.

What a fired spec does depends on its kind:

``crash``
    ``os._exit`` the current process — the deterministic stand-in for an
    OOM-killed / segfaulted process-pool worker.
``raise``
    Raise a typed exception (:class:`~repro.exceptions.InjectedFault` by
    default, so the retry machinery treats it as transient).
``delay``
    Sleep for a fixed duration before continuing — the deterministic
    stand-in for one pathologically slow shard or worker.
``corrupt``
    Transform a byte payload: flip bytes at seed-derived positions.
    Applied at byte-producing sites (WAL frame writes).
``truncate``
    Transform a byte payload: keep only a fraction-sized prefix.
    Applied at byte-producing sites (snapshot file writes).

Determinism: a plan carries a seed, and every ``corrupt`` transform draws
its positions from ``random.Random((seed, site, hit))`` — the same plan
against the same workload corrupts the same bytes, every run, which is
what lets the chaos suite assert *bit-identical* recovery.

Cross-process faults: a worker process never consults this registry (the
pool may have been forked before the plan was armed, and counting hits in
two processes would break determinism).  Instead the parent consults
:func:`pending_fault` at dispatch time and ships the matched spec inside
the request envelope; the worker calls :meth:`FaultSpec.perform` on
arrival.  One counter, one process, deterministic ordering.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import InjectedFault

CRASH = "crash"
RAISE = "raise"
DELAY = "delay"
CORRUPT = "corrupt"
TRUNCATE = "truncate"

#: Exit code used by ``crash`` faults — distinctive enough to tell an
#: injected kill from a genuine interpreter fault in pool diagnostics.
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where, what, and on which hits.

    ``hits`` is the 1-based set of site consultations this spec fires on
    (``None`` = every hit).  Every field pickles, so a spec can ride
    inside a request envelope to a worker process.
    """

    site: str
    kind: str
    hits: tuple[int, ...] | None = (1,)
    seconds: float = 0.0
    exception: type[BaseException] = InjectedFault
    message: str = ""
    fraction: float = 0.5
    flips: int = 3
    seed: int = 0

    def matches(self, hit: int) -> bool:
        return self.hits is None or hit in self.hits

    # -- acting ------------------------------------------------------------------
    def perform(self) -> None:
        """Act out a control-flow fault (``crash`` / ``raise`` / ``delay``)."""
        if self.kind == CRASH:
            os._exit(CRASH_EXIT_CODE)
        if self.kind == DELAY:
            time.sleep(self.seconds)
            return
        if self.kind == RAISE:
            raise self.exception(
                self.message or f"injected fault at site {self.site!r}"
            )

    def transform(self, data: bytes, hit: int) -> bytes:
        """Apply a byte-level fault (``corrupt`` / ``truncate``) to ``data``."""
        if self.kind == TRUNCATE:
            return data[: int(len(data) * self.fraction)]
        if self.kind == CORRUPT and data:
            rng = random.Random(f"{self.seed}:{self.site}:{hit}")
            corrupted = bytearray(data)
            for _ in range(max(1, self.flips)):
                corrupted[rng.randrange(len(corrupted))] ^= 0xFF
            return bytes(corrupted)
        return data


def _as_hits(on_hit) -> tuple[int, ...] | None:
    if on_hit is None:
        return None
    if isinstance(on_hit, int):
        return (on_hit,)
    return tuple(sorted(on_hit))


@dataclass
class FaultPlan:
    """A seedable collection of :class:`FaultSpec` entries.

    Builder-style: ``FaultPlan(seed=7).crash("replica.dispatch")`` — each
    helper returns the plan so specs chain.  The seed flows into every
    byte-level spec for deterministic corruption positions.
    """

    seed: int = 0
    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def crash(self, site: str, on_hit=1) -> "FaultPlan":
        """Kill the process outright when ``site`` is hit."""
        return self.add(FaultSpec(site, CRASH, _as_hits(on_hit), seed=self.seed))

    def raise_(self, site: str, on_hit=1, exception=InjectedFault, message="") -> "FaultPlan":
        """Raise ``exception`` when ``site`` is hit."""
        return self.add(
            FaultSpec(
                site,
                RAISE,
                _as_hits(on_hit),
                exception=exception,
                message=message,
                seed=self.seed,
            )
        )

    def delay(self, site: str, seconds: float, on_hit=1) -> "FaultPlan":
        """Sleep ``seconds`` before continuing when ``site`` is hit."""
        return self.add(
            FaultSpec(site, DELAY, _as_hits(on_hit), seconds=seconds, seed=self.seed)
        )

    def corrupt(self, site: str, on_hit=1, flips: int = 3) -> "FaultPlan":
        """Flip bytes (at seed-derived positions) in the site's payload."""
        return self.add(
            FaultSpec(site, CORRUPT, _as_hits(on_hit), flips=flips, seed=self.seed)
        )

    def truncate(self, site: str, fraction: float, on_hit=1) -> "FaultPlan":
        """Keep only a ``fraction`` prefix of the site's payload."""
        return self.add(
            FaultSpec(site, TRUNCATE, _as_hits(on_hit), fraction=fraction, seed=self.seed)
        )


class FaultInjector:
    """Counts site hits for one armed plan and matches specs against them.

    Thread-safe: the serving stack consults sites from worker and
    orchestrator threads concurrently; each consultation takes exactly
    one hit under the lock, so a spec scoped to hit N fires exactly once.
    ``fired`` records every ``(site, hit, kind)`` that matched — the
    chaos suite asserts against it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: list[tuple[str, int, str]] = []
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in plan.specs:
            self._by_site.setdefault(spec.site, []).append(spec)

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def fire(self, site: str) -> tuple[FaultSpec, int] | None:
        """Count one hit at ``site``; return the matching (spec, hit) or None."""
        specs = self._by_site.get(site)
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            if not specs:
                return None
            for spec in specs:
                if spec.matches(hit):
                    self.fired.append((site, hit, spec.kind))
                    return spec, hit
        return None


_INJECTOR: FaultInjector | None = None


def arm(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` as the process-wide fault plan; returns its injector."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan)
    return _INJECTOR


def disarm() -> None:
    """Remove any armed plan; every site reverts to the zero-cost path."""
    global _INJECTOR
    _INJECTOR = None


def active_injector() -> FaultInjector | None:
    """The armed injector, or None."""
    return _INJECTOR


@contextmanager
def armed(plan: FaultPlan):
    """``with armed(plan) as injector:`` — arm for the block, then disarm."""
    injector = arm(plan)
    try:
        yield injector
    finally:
        disarm()


def fault_point(site: str) -> None:
    """Consult ``site`` and act out any matched control-flow fault.

    The happy path (no plan armed) is one global read and a ``None``
    check — cheap enough to leave in production code paths.
    """
    injector = _INJECTOR
    if injector is None:
        return
    match = injector.fire(site)
    if match is not None:
        match[0].perform()


def fault_bytes(site: str, data: bytes) -> bytes:
    """Consult ``site`` and pass ``data`` through any matched byte fault."""
    injector = _INJECTOR
    if injector is None:
        return data
    match = injector.fire(site)
    if match is None:
        return data
    spec, hit = match
    return spec.transform(data, hit)


def fault_file(site: str, path: str | Path) -> None:
    """Consult ``site`` and rewrite the file at ``path`` through any matched byte fault.

    For writers that stream to a file instead of building its bytes in
    memory: the file's full contents get the same transform
    :func:`fault_bytes` would apply to them.
    """
    injector = _INJECTOR
    if injector is None:
        return
    match = injector.fire(site)
    if match is None:
        return
    spec, hit = match
    path = Path(path)
    path.write_bytes(spec.transform(path.read_bytes(), hit))


def pending_fault(site: str) -> FaultSpec | None:
    """Consult ``site`` and return the matched spec *without* acting on it.

    Used where the fault must happen elsewhere: the process backend calls
    this at dispatch time and ships the spec inside the request envelope,
    so the worker acts it out (crash/delay/raise) while the hit counting
    stays in the parent — one counter, deterministic across respawns.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    match = injector.fire(site)
    return match[0] if match is not None else None
