"""Step-count ratchet: exact semi-ring operation counts of one cold search.

The counts are host-independent and repeat exactly, so a regression in
the read path's algorithmic work shows here in a second instead of in a
benchmark run.  The ceilings may only be lowered; raising one needs a
stated reason in the change that does it.
"""

import pytest

from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.semiring.covariance import CovarianceElement

# With the per-key dict join chain (``vertical_augment`` + a ``+`` collapse,
# the whole accepted prefix re-joined for every candidate) this search made
# __mul__ 19 272, __add__ 10 644 and expand 59 832 calls.  The packed join
# makes none; what is left is ``with_union``'s per-key-value ``+``.
CEILINGS = {"__mul__": 0, "__add__": 1060, "expand": 2120}


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
    for name in CEILINGS:
        raw = getattr(CovarianceElement, name)

        def counted(*args, _raw=raw, _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(CovarianceElement, name, counted)
    result = platform.search(request)
    assert len(result.plan) > 0
    assert calls == {name: min(calls[name], ceiling) for name, ceiling in CEILINGS.items()}, calls
