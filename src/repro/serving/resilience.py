"""Retry and circuit-breaking for the serving gateway.

The gateway's dispatch stage hands a request to an execution backend and
waits.  This module is the policy wrapper around that hand-off:

* :class:`RetryPolicy` — deadline-aware retries with jittered exponential
  backoff.  Only errors deriving from
  :class:`~repro.exceptions.TransientError` are retried (anything else is
  deterministic and fails fast), and a retry never sleeps past the
  request's :class:`~repro.core.clock.BudgetTimer` — when the budget
  cannot fund the next attempt, the policy raises
  :class:`~repro.exceptions.RequestTimeout` instead of burning it.
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine, one per backend.  ``failure_threshold`` consecutive dispatch
  failures open it; while open, requests are rejected *fast* with a typed
  :class:`~repro.exceptions.BackendUnavailable` (no queue pile-up behind
  a dead backend); after ``recovery_seconds`` a limited number of
  half-open probes are let through, and one success closes it again.

:class:`ResilientDispatch` composes the two; the gateway builds one at
construction from its :class:`~repro.serving.gateway.GatewayConfig` knobs
and routes every backend compute through :meth:`ResilientDispatch.run`.
Each attempt is exactly one compute.  With retries exhausted the last
error propagates — the last-known-good cache is the *gateway's* next
move, see ``Gateway._dispatch_failed``.
"""

from __future__ import annotations

import random
import threading

from repro.core.clock import BudgetTimer
from repro.exceptions import BackendUnavailable, RequestTimeout, TransientError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of breaker state (``gateway.breaker.state``).
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class RetryPolicy:
    """Deadline-aware retry with jittered exponential backoff.

    ``max_attempts`` counts every try including the first; ``retry_on``
    is the tuple of exception types considered transient.  ``seed`` makes
    the jitter deterministic (the chaos suite pins it); production leaves
    it ``None`` for independent jitter per gateway.
    """

    def __init__(
        self,
        max_attempts: int = 2,
        backoff_seconds: float = 0.05,
        backoff_multiplier: float = 2.0,
        max_backoff_seconds: float = 2.0,
        jitter: float = 0.5,
        retry_on: tuple[type[BaseException], ...] = (TransientError,),
        seed: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self.max_backoff_seconds = max_backoff_seconds
        self.jitter = jitter
        self.retry_on = retry_on
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retry_on)

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts are 1-based)."""
        base = self.backoff_seconds * (self.backoff_multiplier ** (attempt - 1))
        base = min(base, self.max_backoff_seconds)
        if self.jitter <= 0:
            return base
        with self._lock:
            spread = self._rng.uniform(-self.jitter, self.jitter)
        return max(0.0, base * (1.0 + spread))


class CircuitBreaker:
    """A per-backend closed / open / half-open circuit breaker.

    Thread-safe; time comes from the injected ``clock`` (the gateway's),
    so tests drive recovery with a :class:`~repro.core.clock.SimulatedClock`.
    State transitions land on the ``gateway.breaker.state`` gauge
    (0=closed, 1=half-open, 2=open) and each closed→open trip increments
    ``gateway.breaker.open_total``; fast rejections while open count into
    ``gateway.breaker.fast_rejections``.
    """

    def __init__(
        self,
        name: str,
        clock,
        failure_threshold: int = 8,
        recovery_seconds: float = 5.0,
        half_open_probes: int = 1,
        metrics=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.half_open_probes = half_open_probes
        self.metrics = metrics
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.metrics is not None:
            self.metrics.set_gauge("gateway.breaker.state", _STATE_GAUGE[state])

    def allow(self) -> bool:
        """May a dispatch proceed right now?  Counts fast rejections."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self.clock.now() - self._opened_at >= self.recovery_seconds:
                    self._set_state(HALF_OPEN)
                    self._probes_inflight = 0
                else:
                    if self.metrics is not None:
                        self.metrics.increment("gateway.breaker.fast_rejections")
                    return False
            # Half-open: admit a bounded number of probes.
            if self._probes_inflight < self.half_open_probes:
                self._probes_inflight += 1
                return True
            if self.metrics is not None:
                self.metrics.increment("gateway.breaker.fast_rejections")
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probes_inflight = 0
            if self._state != CLOSED:
                self._set_state(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately; the recovery timer
                # restarts so the backend gets breathing room again.
                self._set_state(OPEN)
                self._opened_at = self.clock.now()
                self._probes_inflight = 0
                if self.metrics is not None:
                    self.metrics.increment("gateway.breaker.open_total")
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._set_state(OPEN)
                self._opened_at = self.clock.now()
                if self.metrics is not None:
                    self.metrics.increment("gateway.breaker.open_total")


class ResilientDispatch:
    """Retry + breaker around one backend's compute callable.

    ``run`` mirrors the compute signature the gateway's backends expose:
    ``compute(request, remaining_seconds) -> ComputeOutcome``.  The
    breaker is consulted once per request (not per retry attempt — a
    request already past the gate may finish its retries), successes and
    failures feed it, and transient failures are retried within the
    request's budget.
    """

    def __init__(
        self, policy: RetryPolicy, breaker: CircuitBreaker, metrics=None
    ) -> None:
        self.policy = policy
        self.breaker = breaker
        self.metrics = metrics

    def run(self, compute, request, remaining, timer: BudgetTimer):
        """One resilient dispatch; returns the backend's ComputeOutcome.

        Raises :class:`BackendUnavailable` fast when the breaker is open,
        :class:`RequestTimeout` when the budget lapses between attempts,
        and otherwise whatever the final attempt raised.
        """
        if not self.breaker.allow():
            raise BackendUnavailable(
                f"backend {self.breaker.name!r} circuit is open "
                f"(recovers after {self.breaker.recovery_seconds}s)"
            )
        attempt = 0
        while True:
            attempt += 1
            if timer.expired():
                raise RequestTimeout(
                    f"budget exhausted before dispatch attempt {attempt}"
                )
            try:
                outcome = compute(request, remaining)
            except BaseException as error:
                self.breaker.record_failure()
                if (
                    attempt >= self.policy.max_attempts
                    or not self.policy.retryable(error)
                ):
                    raise
                delay = self.policy.delay(attempt)
                if timer.remaining() <= delay:
                    raise RequestTimeout(
                        f"budget cannot fund a retry after attempt {attempt} "
                        f"(backoff {delay:.3f}s exceeds the remaining budget)"
                    ) from error
                if self.metrics is not None:
                    self.metrics.increment("gateway.retries")
                if delay > 0:
                    timer.clock.sleep(delay)
                if timer.budget_seconds is not None:
                    remaining = timer.remaining()
                continue
            self.breaker.record_success()
            return outcome
