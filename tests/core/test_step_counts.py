"""Step-count ratchet: exact operation counts of one cold search.

The counts are host-independent and repeat exactly, so a regression in
the read path's algorithmic work shows here in a second instead of in a
benchmark run.  The ceilings may only be lowered; raising one needs a
stated reason in the change that does it.
"""

import numpy as np
import pytest

from repro.core import Mileena, SearchRequest
from repro.core.proxy import _KeyedBlock
from repro.datasets import CorpusSpec, generate_corpus
from repro.semiring.covariance import CovarianceElement

# With the per-key dict join chain (``vertical_augment`` + a ``+`` collapse,
# the whole accepted prefix re-joined for every candidate) this search made
# __mul__ 19 272, __add__ 10 644 and expand 59 832 calls.  The packed join
# made none; per-candidate scoring then still made __add__ 1 060, expand
# 2 120, project 1 060, pack 168, eigh 234, solve 118 and product_of 14 563
# calls.  Scoring each round as stacked arrays leaves one ``+`` and one
# ``project`` per union trial (its total), one pack per sketch and key per
# request, one batched eigh / solve per layout group, and no per-cell
# ``product_of`` (the normal equations and the branch merge are gathers).
CEILINGS = {
    "__mul__": 0,
    "__add__": 20,
    "expand": 40,
    "project": 20,
    "product_of": 0,
    "pack": 33,
    "eigh": 24,
    "solve": 13,
}
TARGETS = {
    "__mul__": CovarianceElement,
    "__add__": CovarianceElement,
    "expand": CovarianceElement,
    "project": CovarianceElement,
    "product_of": CovarianceElement,
    "pack": _KeyedBlock,
    "eigh": np.linalg,
    "solve": np.linalg,
}


@pytest.fixture(scope="module")
def platform_and_request():
    corpus = generate_corpus(CorpusSpec(num_datasets=40, seed=2))
    platform = Mileena()
    for relation in corpus.providers:
        platform.register_dataset(relation)
    request = SearchRequest(train=corpus.train, test=corpus.test, target=corpus.target)
    return platform, request


def test_cold_search_semiring_calls_stay_under_ceilings(platform_and_request, monkeypatch):
    platform, request = platform_and_request
    calls = dict.fromkeys(CEILINGS, 0)
    for name, owner in TARGETS.items():
        raw = vars(owner)[name]
        function = raw.__func__ if isinstance(raw, classmethod) else raw

        def counted(*args, _raw=function, _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(
            owner, name, classmethod(counted) if isinstance(raw, classmethod) else counted
        )
    result = platform.search(request)
    assert len(result.plan) > 0
    assert calls == {name: min(calls[name], ceiling) for name, ceiling in CEILINGS.items()}, calls
