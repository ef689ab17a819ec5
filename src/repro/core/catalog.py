"""The corpus catalog: provider dataset registrations.

The catalog is the platform's view of the corpus R = {R1, R2, ...}.  For
each registration it keeps the provider's declared budget, the discovery
profile, and the (privatised) sketch; the raw relation is retained only so
that the *requester-side* final model and the non-private baselines can
materialise augmentations — the Mileena search path never reads it.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

from repro.discovery.index import DiscoveryIndex, DiscoveryIndexLike
from repro.exceptions import SearchError
from repro.privacy.mechanisms import PrivacyBudget
from repro.relational.relation import Relation
from repro.sketches.sketch import RelationSketch
from repro.sketches.store import SketchStore, SketchStoreLike


@dataclass
class DatasetRegistration:
    """One provider dataset registered with the platform."""

    relation: Relation
    budget: PrivacyBudget | None
    sketch: RelationSketch
    provider: str = "anonymous"

    @property
    def name(self) -> str:
        return self.relation.name


@dataclass
class Corpus:
    """All registered provider datasets plus the discovery index and sketch store.

    ``discovery`` and ``sketches`` are typed against the store/index
    protocols so the serving layer's sharded variants drop in unchanged.
    ``epoch`` increments on every registration change; epoch-keyed caches
    (``repro.serving.cache.ResultCache``) use it to invalidate memoised
    discovery candidates and search results when the corpus mutates.  The
    discovery engine's internal caches (memoised corpus IDF, per-sketch
    weighted norms) invalidate independently via ``IdfModel.version``, so
    they stay warm across sketch-only epoch bumps.
    """

    registrations: dict[str, DatasetRegistration] = field(default_factory=dict)
    discovery: DiscoveryIndexLike = field(default_factory=DiscoveryIndex)
    sketches: SketchStoreLike = field(default_factory=SketchStore)
    epoch: int = 0

    def __post_init__(self) -> None:
        # Serialises mutations with the epoch bump so observers that read
        # (epoch, registrations) together — the process backend's mutation
        # log, epoch-stamped caching — never see a half-applied transition.
        # Re-entrant so a mutation observer (which runs with the lock held)
        # can call read helpers like ``frozen`` without deadlocking.
        self._lock = threading.RLock()
        # Mutation observers: ``fn(epoch, op, payload)`` called *inside* the
        # lock immediately after every effective mutation, in subscription
        # order.  ``op`` is ``"add"`` (payload: DatasetRegistration),
        # ``"add_many"`` (payload: tuple of registrations) or ``"remove"``
        # (payload: dataset name).  This is the corpus's journal feed — the
        # persistence WAL and the process backend's replica mutation log
        # both hang off it.  Observers must be fast, must not raise, and
        # must not call corpus mutators.
        self._observers: list = []

    # -- mutation journal --------------------------------------------------------
    def subscribe(self, observer) -> int:
        """Start journaling mutations to ``observer``; returns the current epoch.

        The returned epoch is the state the observer's log starts *after*:
        every later mutation is delivered exactly once, with no gap between
        the returned epoch and the first notification.
        """
        with self._lock:
            self._observers.append(observer)
            return self.epoch

    def unsubscribe(self, observer) -> None:
        """Stop journaling mutations to ``observer`` (no-op when unknown)."""
        with self._lock:
            if observer in self._observers:
                self._observers.remove(observer)

    def _notify(self, op: str, payload: object) -> None:
        for observer in list(self._observers):
            observer(self.epoch, op, payload)

    @contextlib.contextmanager
    def frozen(self):
        """Hold the mutation lock: no register/unregister can run inside.

        Consistent-snapshot helper for the persistence layer: everything
        read under ``frozen()`` — registrations, discovery profiles, the
        epoch — belongs to one corpus state.  Re-entrant, so a mutation
        observer may use it too.
        """
        with self._lock:
            yield

    def add(self, registration: DatasetRegistration) -> None:
        """Register a dataset (name must be unique across the corpus)."""
        with self._lock:
            name = registration.name
            if name in self.registrations:
                raise SearchError(f"dataset {name!r} is already registered")
            self.registrations[name] = registration
            self.discovery.register(registration.relation)
            self.sketches.add(registration.sketch)
            self.epoch += 1
            self._notify("add", registration)

    def add_many(self, registrations: list[DatasetRegistration]) -> None:
        """Bulk-register datasets with a single epoch bump at the end.

        Per-dataset ``add`` moves the epoch once per registration, which
        churns every epoch-keyed cache N times during an N-dataset backfill;
        a bulk load is one corpus transition, so it advances the epoch once.
        The discovery engine's packed structures still update incrementally
        per profile.
        """
        if not registrations:
            return
        with self._lock:
            # Validate the whole batch (including intra-batch duplicates)
            # before touching any structure: a mid-batch failure would
            # otherwise leave the corpus partially mutated at the *old*
            # epoch, so epoch-keyed caches would keep serving results that
            # omit the applied prefix.
            seen: set[str] = set()
            for registration in registrations:
                name = registration.name
                if name in self.registrations or name in seen:
                    raise SearchError(f"dataset {name!r} is already registered")
                seen.add(name)
            for registration in registrations:
                self.registrations[registration.name] = registration
                self.discovery.register(registration.relation)
                self.sketches.add(registration.sketch)
            self.epoch += 1
            self._notify("add_many", tuple(registrations))

    def remove(self, name: str) -> None:
        """Withdraw a dataset from the corpus."""
        with self._lock:
            if name not in self.registrations:
                return
            self.registrations.pop(name, None)
            self.discovery.unregister(name)
            self.sketches.remove(name)
            self.epoch += 1
            self._notify("remove", name)

    def get(self, name: str) -> DatasetRegistration:
        """Registration for ``name``; raises when unknown."""
        if name not in self.registrations:
            raise SearchError(f"dataset {name!r} is not registered")
        return self.registrations[name]

    def relation(self, name: str) -> Relation:
        """Raw relation of a registered dataset (baselines / final training only)."""
        return self.get(name).relation

    def __contains__(self, name: object) -> bool:
        return name in self.registrations

    def __len__(self) -> int:
        return len(self.registrations)

    def names(self) -> list[str]:
        """All registered dataset names."""
        return list(self.registrations)
