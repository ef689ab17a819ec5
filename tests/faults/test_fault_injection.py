"""Unit contract of the fault-injection registry itself."""

import pytest

from repro.exceptions import InjectedFault
from repro.faults import (
    FaultPlan,
    FaultSpec,
    active_injector,
    armed,
    fault_bytes,
    fault_file,
    fault_point,
    pending_fault,
)


def test_no_plan_armed_is_inert():
    assert active_injector() is None
    fault_point("gateway.compute")  # no-op, no error
    payload = b"untouched"
    assert fault_bytes("wal.append", payload) is payload
    assert pending_fault("replica.dispatch") is None


def test_hits_are_counted_per_site_and_specs_fire_once():
    plan = FaultPlan(seed=3).raise_("a.site", on_hit=2)
    with armed(plan) as injector:
        fault_point("a.site")  # hit 1: no match
        with pytest.raises(InjectedFault):
            fault_point("a.site")  # hit 2: fires
        fault_point("a.site")  # hit 3: no match again
        fault_point("other.site")
        assert injector.hits("a.site") == 3
        assert injector.hits("other.site") == 1
        assert injector.fired == [("a.site", 2, "raise")]
    assert active_injector() is None


def test_every_hit_spec_fires_repeatedly():
    plan = FaultPlan().raise_("x", on_hit=None)
    with armed(plan):
        for _ in range(3):
            with pytest.raises(InjectedFault):
                fault_point("x")


def test_truncate_keeps_fraction_prefix():
    data = bytes(range(100))
    spec = FaultSpec("s", "truncate", fraction=0.25)
    assert spec.transform(data, 1) == data[:25]


def test_corrupt_is_deterministic_per_seed_site_and_hit():
    data = bytes(100)
    one = FaultSpec("s", "corrupt", seed=11, flips=4).transform(data, 1)
    two = FaultSpec("s", "corrupt", seed=11, flips=4).transform(data, 1)
    other_seed = FaultSpec("s", "corrupt", seed=12, flips=4).transform(data, 1)
    other_hit = FaultSpec("s", "corrupt", seed=11, flips=4).transform(data, 2)
    assert one == two
    assert one != data
    assert one != other_seed or one != other_hit


def test_fault_bytes_transforms_only_matching_hits():
    plan = FaultPlan(seed=5).corrupt("w", on_hit=2)
    data = b"\x00" * 32
    with armed(plan):
        assert fault_bytes("w", data) == data  # hit 1 untouched
        assert fault_bytes("w", data) != data  # hit 2 corrupted
        assert fault_bytes("w", data) == data  # hit 3 untouched


def test_fault_file_rewrites_the_file_as_fault_bytes_would(tmp_path):
    path = tmp_path / "blob.bin"
    data = bytes(range(64))
    path.write_bytes(data)
    fault_file("w", tmp_path / "missing.bin")  # disarmed: never touches the file
    plan = FaultPlan(seed=5).corrupt("w", on_hit=2)
    with armed(plan):
        fault_file("w", path)  # hit 1 untouched
        assert path.read_bytes() == data
        fault_file("w", path)  # hit 2 rewritten
    with armed(plan):
        fault_bytes("w", data)
        expected = fault_bytes("w", data)
    assert path.read_bytes() == expected != data


def test_pending_fault_counts_in_parent_and_returns_spec():
    plan = FaultPlan().crash("replica.dispatch", on_hit=1)
    with armed(plan) as injector:
        spec = pending_fault("replica.dispatch")
        assert spec is not None and spec.kind == "crash"
        # The hit was consumed here; the next dispatch sees nothing.
        assert pending_fault("replica.dispatch") is None
        assert injector.hits("replica.dispatch") == 2
