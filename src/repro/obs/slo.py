"""Declarative SLOs evaluated as multi-window burn rates over the ring.

An :class:`SloSpec` states an objective over the serving metrics —
"windowed p95 request latency stays under X seconds", "windowed error
ratio stays under Y" — and the :class:`SloEngine` evaluates every spec
against two windows of the :class:`~repro.obs.history.MetricsHistory`
ring on each call (one call per scrape / health probe; nothing runs in
the background):

* the **fast window** answers "is it burning *right now*?" — sensitive,
  quick to clear;
* the **slow window** answers "has it burned long enough to matter?" —
  smoothed, slow to clear.

Each window yields a *burn rate*: the measured value divided by the
objective's threshold (1.0 = consuming exactly the budget).  States:

* ``page`` — both windows at or past ``page_burn`` (a sustained, ongoing
  breach: the classic two-window page condition that ignores both old
  incidents and momentary blips);
* ``warn`` — the slow window past ``warn_burn``, or the fast window
  alone past ``page_burn`` (either a budget-level burn or a sharp spike
  that has not yet sustained);
* ``ok`` — everything else, including "insufficient data" (fewer than
  ``min_events`` observations in the slow window — an idle gateway is
  healthy, not breaching).

The engine fires ``obs.slo.evaluations`` per evaluation round and
``obs.slo.warn`` / ``obs.slo.page`` on state *transitions* (entering
the state, not holding it), and publishes per-SLO gauges
(``obs.slo.<slo>.state`` 0/1/2 and ``...burn_fast`` / ``...burn_slow``)
so the SLO engine is itself observable through ``/metrics``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

OK = "ok"
WARN = "warn"
PAGE = "page"

_STATE_GAUGE = {OK: 0, WARN: 1, PAGE: 2}

#: Objective kinds: a windowed counter ratio, or a windowed latency quantile.
RATIO = "ratio"
LATENCY = "latency_quantile"


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective.

    ``kind=RATIO`` divides windowed numerator counter deltas by windowed
    denominator deltas (e.g. ``gateway.failed`` / ``gateway.requests``);
    ``kind=LATENCY`` takes ``quantile`` of the windowed ``histogram``
    observations.  ``threshold`` is the objective bound in the measured
    unit (a fraction for ratios, seconds for latencies); burn rate is
    measured / threshold.  See ``docs/OBSERVABILITY.md`` for window and
    burn semantics.
    """

    name: str
    kind: str
    threshold: float
    numerators: tuple[str, ...] = ()
    denominators: tuple[str, ...] = ()
    histogram: str = ""
    quantile: float = 0.95
    fast_window_seconds: float = 60.0
    slow_window_seconds: float = 300.0
    warn_burn: float = 1.0
    page_burn: float = 2.0
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (RATIO, LATENCY):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.threshold <= 0:
            raise ValueError("SLO threshold must be positive")
        if self.kind == RATIO and not (self.numerators and self.denominators):
            raise ValueError("ratio SLOs need numerator and denominator counters")
        if self.kind == LATENCY and not self.histogram:
            raise ValueError("latency SLOs need a histogram name")


@dataclass(frozen=True)
class SloStatus:
    """One spec's evaluation: the state plus the evidence behind it."""

    name: str
    state: str
    threshold: float
    fast_value: float
    slow_value: float
    fast_burn: float
    slow_burn: float
    events: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "threshold": self.threshold,
            "fast_value": self.fast_value,
            "slow_value": self.slow_value,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "events": self.events,
        }


def default_slos() -> tuple[SloSpec, ...]:
    """The gateway's objectives (pass ``SloEngine(specs=...)`` to evaluate others)."""
    return (
        SloSpec(
            name="error_ratio",
            kind=RATIO,
            threshold=0.05,
            numerators=("gateway.failed",),
            denominators=("gateway.requests",),
        ),
        SloSpec(
            name="degraded_ratio",
            kind=RATIO,
            threshold=0.10,
            numerators=("gateway.degraded",),
            denominators=("gateway.requests",),
        ),
        SloSpec(
            name="latency_p95",
            kind=LATENCY,
            threshold=2.0,
            histogram="gateway.service_seconds",
            quantile=0.95,
        ),
    )


@dataclass
class _Measurement:
    value: float = 0.0
    events: int = 0


class SloEngine:
    """Evaluates a set of :class:`SloSpec` over a :class:`MetricsHistory`.

    Pull-driven: callers (the ops server's ``/metrics`` / ``/health`` /
    ``/slo`` handlers, or tests) invoke :meth:`evaluate` after a history
    tick.  Thread-safe; the last evaluation is retained for
    :meth:`page_active` so readiness probes do not have to re-evaluate.
    """

    def __init__(self, history, specs=None, metrics=None) -> None:
        self.history = history
        self.specs: tuple[SloSpec, ...] = (
            tuple(specs) if specs is not None else default_slos()
        )
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.metrics = metrics
        self._states = {spec.name: OK for spec in self.specs}
        self._last: tuple[SloStatus, ...] = ()
        self._lock = threading.Lock()

    def _measure(self, spec: SloSpec, seconds: float) -> _Measurement:
        if spec.kind == RATIO:
            pair = self.history.window_pair(seconds)
            ratio = self.history.ratio(spec.numerators, spec.denominators, seconds)
            if pair is None or ratio is None:
                events = 0
                if pair is not None:
                    old, new = pair
                    events = sum(
                        max(0, new.counters.get(name, 0) - old.counters.get(name, 0))
                        for name in spec.denominators
                    )
                return _Measurement(0.0, events)
            old, new = pair
            events = sum(
                max(0, new.counters.get(name, 0) - old.counters.get(name, 0))
                for name in spec.denominators
            )
            return _Measurement(ratio, events)
        window = self.history.histogram_window(spec.histogram, seconds)
        if window is None or window.count == 0:
            return _Measurement(0.0, 0)
        return _Measurement(window.quantile(spec.quantile), window.count)

    def _classify(
        self, spec: SloSpec, fast: _Measurement, slow: _Measurement
    ) -> SloStatus:
        fast_burn = fast.value / spec.threshold
        slow_burn = slow.value / spec.threshold
        if slow.events < spec.min_events:
            state = OK
        elif fast_burn >= spec.page_burn and slow_burn >= spec.page_burn:
            state = PAGE
        elif slow_burn >= spec.warn_burn or fast_burn >= spec.page_burn:
            state = WARN
        else:
            state = OK
        return SloStatus(
            name=spec.name,
            state=state,
            threshold=spec.threshold,
            fast_value=fast.value,
            slow_value=slow.value,
            fast_burn=fast_burn,
            slow_burn=slow_burn,
            events=slow.events,
        )

    def evaluate(self) -> tuple[SloStatus, ...]:
        """Evaluate every spec against the ring's current contents."""
        statuses = []
        for spec in self.specs:
            fast = self._measure(spec, spec.fast_window_seconds)
            slow = self._measure(spec, spec.slow_window_seconds)
            statuses.append(self._classify(spec, fast, slow))
        result = tuple(statuses)
        with self._lock:
            previous = dict(self._states)
            for status in result:
                self._states[status.name] = status.state
            self._last = result
        if self.metrics is not None:
            self.metrics.increment("obs.slo.evaluations")
            for status in result:
                self.metrics.set_gauge(
                    f"obs.slo.{status.name}.state", _STATE_GAUGE[status.state]
                )
                self.metrics.set_gauge(
                    f"obs.slo.{status.name}.burn_fast", status.fast_burn
                )
                self.metrics.set_gauge(
                    f"obs.slo.{status.name}.burn_slow", status.slow_burn
                )
                if status.state == WARN and previous.get(status.name) != WARN:
                    self.metrics.increment("obs.slo.warn")
                if status.state == PAGE and previous.get(status.name) != PAGE:
                    self.metrics.increment("obs.slo.page")
        return result

    @property
    def last(self) -> tuple[SloStatus, ...]:
        """The most recent evaluation (empty before the first)."""
        with self._lock:
            return self._last

    def page_active(self) -> bool:
        """True when the last evaluation left any SLO in ``page``."""
        with self._lock:
            return any(status.state == PAGE for status in self._last)
