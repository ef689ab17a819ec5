"""The greedy task-based search algorithm (§2.2.2, "Search algorithm").

Given the candidate augmentations produced by data discovery, the search
greedily accepts the augmentation that most improves the proxy model's
test-side utility, re-evaluating the remaining candidates against the new
state, until no candidate improves the utility by at least
``min_improvement``, the augmentation cap is hit, or the time budget runs
out.  Candidate evaluation uses only pre-computed (possibly privatised)
sketches, so each evaluation is independent of relation sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.augmentation import (
    JOIN,
    UNION,
    AugmentationCandidate,
    AugmentationPlan,
    AugmentationStep,
)
from repro.core.clock import BudgetTimer, WallClock
from repro.core.proxy import (
    STACK_CELLS,
    AugmentationState,
    SketchProxyModel,
    trial_elements,
)
from repro.exceptions import SketchError
from repro.sketches.sketch import RelationSketch
from repro.sketches.store import SketchStoreLike


@dataclass
class CandidateEvaluation:
    """Result of scoring one candidate against the current state."""

    candidate: AugmentationCandidate
    utility: float


@dataclass
class GreedySketchSearch:
    """Greedy augmentation search over a sketch store (flat or sharded)."""

    store: SketchStoreLike
    proxy: SketchProxyModel = field(default_factory=SketchProxyModel)
    clock: object = field(default_factory=WallClock)

    def run(
        self,
        state: AugmentationState,
        candidates: list[AugmentationCandidate],
        max_augmentations: int = 5,
        min_improvement: float = 1e-3,
        time_budget_seconds: float | None = None,
    ) -> tuple[AugmentationPlan, AugmentationState]:
        """Run the greedy search and return the accepted plan and final state.

        Each round derives one trial state per remaining candidate, then
        scores the trials in order as stacked chunks (at most
        :data:`~repro.core.proxy.STACK_CELLS` cells of stacked join
        statistics each): :func:`~repro.core.proxy.trial_elements` and one
        ``proxy.evaluate_many`` call per chunk.  The time budget is checked
        before each chunk, so a round stops at chunk granularity rather
        than after any single candidate.
        """
        timer = BudgetTimer(self.clock, time_budget_seconds)
        target = state.target
        base = self.proxy.evaluate(state.train_element(), state.test_element(), target)
        plan = AugmentationPlan(base_utility=base.utility)
        best_utility = base.utility
        remaining = list(candidates)

        while remaining and len(plan) < max_augmentations and not timer.expired():
            trials = []
            for candidate in remaining:
                trial = self._trial(state, candidate)
                if trial is not None:
                    trials.append((candidate, trial))
            evaluations: list[CandidateEvaluation] = []
            for chunk in _chunks(trials):
                if timer.expired():
                    break
                pairs = trial_elements([trial for _, trial in chunk])
                scorable = [
                    (candidate, pair)
                    for (candidate, _), pair in zip(chunk, pairs)
                    if pair is not None
                ]
                scores = self.proxy.evaluate_many([pair for _, pair in scorable], target)
                evaluations.extend(
                    CandidateEvaluation(candidate, score.utility)
                    for (candidate, _), score in zip(scorable, scores)
                    if score is not None
                )
            if not evaluations:
                break
            best = max(evaluations, key=lambda evaluation: evaluation.utility)
            if best.utility < best_utility + min_improvement:
                break
            state = self._apply(state, best.candidate)
            best_utility = best.utility
            plan.steps.append(
                AugmentationStep(best.candidate, best.utility, timer.elapsed())
            )
            remaining = [c for c in remaining if c is not best.candidate]
        return plan, state

    # -- internals ---------------------------------------------------------------
    def _sketch(self, candidate: AugmentationCandidate) -> RelationSketch | None:
        if candidate.dataset not in self.store:
            return None
        return self.store.get(candidate.dataset)

    def _trial(
        self, state: AugmentationState, candidate: AugmentationCandidate
    ) -> AugmentationState | None:
        """``state`` with ``candidate`` applied; None when it cannot be."""
        sketch = self._sketch(candidate)
        if sketch is None or candidate.kind not in (JOIN, UNION):
            return None
        try:
            return self._derive(state, candidate, sketch)
        except SketchError:
            return None

    def _apply(
        self, state: AugmentationState, candidate: AugmentationCandidate
    ) -> AugmentationState:
        return self._derive(state, candidate, self._sketch(candidate))

    @staticmethod
    def _derive(
        state: AugmentationState, candidate: AugmentationCandidate, sketch: RelationSketch
    ) -> AugmentationState:
        if candidate.kind == UNION:
            return state.with_union(sketch, candidate.column_mapping)
        return state.with_join(candidate.join_key, sketch)


def _chunks(trials: list[tuple[AugmentationCandidate, AugmentationState]]):
    """``trials`` in order, cut where the stacked cells would pass ``STACK_CELLS``."""
    chunk: list[tuple[AugmentationCandidate, AugmentationState]] = []
    cells = 0
    for item in trials:
        size = item[1].stacked_cells()
        if chunk and cells + size > STACK_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(item)
        cells += size
    if chunk:
        yield chunk
