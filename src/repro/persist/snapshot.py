"""The versioned, checksummed snapshot format.

A snapshot is one self-describing file holding everything needed to
rebuild a :class:`~repro.core.platform.Mileena` platform bit-identically:

* the **registrations** (raw relation + privacy budget + the *prebuilt*
  sketch) in global registration order — a DP-privatised sketch is
  randomised at registration time, so it is serialised verbatim and never
  rebuilt;
* the **discovery profiles** in global registration order — each carries
  the column MinHash signatures and TF-IDF term counts, so restoring
  replays them straight into the packed signature matrix and the sparse
  term-matrix postings without re-profiling a single relation;
* the **engine configuration** (shard count, thresholds, the
  ``vectorized`` switch, the ``MinHasher`` instance) plus the
  platform-level pieces (proxy model, sketch builder,
  ``discovery_top_k``) — so a restored platform is not
  just data-identical but *configuration*-identical;
* the **corpus epoch**, so epoch-keyed caches and WAL replay line up with
  the live platform's counters.

On disk the payload is a pickle framed by a fixed header::

    magic (8) | format version (u32 LE) | payload length (u64 LE) | sha256 (32)

Readers verify magic, version, length, and checksum before unpickling;
writers go through a temp file and ``os.replace`` so a crash mid-write can
never leave a torn snapshot under the published name (the previous
snapshot, if any, survives intact).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path

from repro.exceptions import PersistError, SnapshotCorrupt
from repro.faults.injector import fault_file
from repro.obs import span

SNAPSHOT_MAGIC = b"MILSNAP\x00"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQ32s")


def write_snapshot(path: str | Path, sections: dict, fsync: bool = True) -> int:
    """Atomically write ``sections`` as a snapshot file; returns bytes written.

    The temp file lives in the destination directory (``os.replace`` must
    not cross filesystems) and is fsynced — along with the directory entry
    when ``fsync`` is true — so the rename publishes only durable bytes.

    The payload is pickled straight into the file behind a zeroed header
    that is filled in once its length and checksum are known, so no copy
    of the serialised payload is ever held in memory.  The bytes are the
    same as ``header + pickle.dumps(sections)``.
    """
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(bytes(_HEADER.size))
            sink = _DigestingWriter(handle)
            pickle.dump(sections, sink, protocol=pickle.HIGHEST_PROTOCOL)
            handle.seek(0)
            handle.write(
                _HEADER.pack(
                    SNAPSHOT_MAGIC, FORMAT_VERSION, sink.length, sink.digest.digest()
                )
            )
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        # Chaos-suite site: an armed truncate/corrupt plan mangles the
        # finished file here — *after* framing, so the published file fails
        # verification exactly the way a torn disk write would.
        fault_file("snapshot.write", tmp_path)
        os.replace(tmp_path, path)
    except OSError as error:
        tmp_path.unlink(missing_ok=True)
        raise PersistError(f"could not write snapshot {path}: {error}") from error
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    if fsync:
        directory_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    return _HEADER.size + sink.length


class _DigestingWriter:
    """A write-only file object that forwards to ``handle``, hashing and counting."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, data) -> int:
        self.digest.update(data)
        written = self._handle.write(data)
        self.length += written
        return written


def read_snapshot(path: str | Path) -> dict:
    """Read and verify a snapshot file; returns its sections dict.

    Raises :class:`~repro.exceptions.SnapshotCorrupt` (a
    :class:`~repro.exceptions.PersistError` subclass) on bad magic, a
    truncated payload, or a checksum mismatch — a corrupt snapshot is
    refused outright rather than restored into a subtly wrong platform,
    and the typed subclass lets the chain loader quarantine the file and
    fall back to the previous version.  A missing file or an unknown
    format version raises plain ``PersistError`` (nothing to quarantine).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise PersistError(f"could not read snapshot {path}: {error}") from error
    if len(raw) < _HEADER.size:
        raise SnapshotCorrupt(f"snapshot {path} is truncated (no complete header)")
    magic, version, length, checksum = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorrupt(f"{path} is not a Mileena snapshot (bad magic)")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"snapshot {path} has format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    payload = raw[_HEADER.size :]
    if len(payload) != length:
        raise SnapshotCorrupt(
            f"snapshot {path} is truncated "
            f"({len(payload)} payload bytes, header declares {length})"
        )
    if hashlib.sha256(payload).digest() != checksum:
        raise SnapshotCorrupt(f"snapshot {path} failed its checksum")
    return pickle.loads(payload)


#: Engine knobs captured per index, with the defaults assumed when an
#: implementation does not expose one.  This is the single authoritative
#: list: snapshot sections capture it with :func:`capture_engine_config`
#: and rebuild with :func:`build_corpus_stores`, and both snapshot files
#: and the process backend's replicas are built from those sections, so a
#: knob added here replicates everywhere.
ENGINE_KNOBS = {
    "join_threshold": 0.3,
    "union_threshold": 0.55,
    "vectorized": True,
}


def capture_engine_config(discovery) -> dict:
    """The discovery index's full configuration as one plain dict.

    Includes the structural fields (``kind``, ``num_shards``) plus every
    knob in :data:`ENGINE_KNOBS`; feed it to :func:`build_corpus_stores`
    to get an identically configured index/store pair.
    """
    config = {
        "kind": "sharded" if hasattr(discovery, "shards") else "flat",
        "num_shards": getattr(discovery, "num_shards", 1),
    }
    for knob, default in ENGINE_KNOBS.items():
        config[knob] = getattr(discovery, knob, default)
    return config


def build_corpus_stores(config: dict, minhasher) -> tuple:
    """A fresh (discovery index, sketch store) pair from a captured config."""
    from repro.discovery.index import DiscoveryIndex
    from repro.sketches.store import SketchStore

    knobs = {knob: config[knob] for knob in ENGINE_KNOBS}
    if config["kind"] == "sharded":
        from repro.serving.sharded import ShardedDiscoveryIndex, ShardedSketchStore

        return (
            ShardedDiscoveryIndex(
                num_shards=config["num_shards"],
                minhasher=minhasher,
                **knobs,
            ),
            ShardedSketchStore(num_shards=config["num_shards"]),
        )
    return DiscoveryIndex(minhasher=minhasher, **knobs), SketchStore()


def snapshot_platform(platform) -> dict:
    """Capture a platform's persistent state as snapshot sections.

    The caller is responsible for consistency: hold ``corpus.frozen()``
    (or otherwise guarantee no concurrent register/unregister) so the
    registrations, profiles, and epoch all belong to one corpus state.
    A proxy wrapped in a serving-layer ``CachingProxy`` is unwrapped —
    caches and metrics are runtime hooks, not platform state.
    """
    from repro.serving.cache import CachingProxy

    corpus = platform.corpus
    discovery = corpus.discovery
    proxy = platform.proxy
    if isinstance(proxy, CachingProxy):
        proxy = proxy.inner
    return {
        "epoch": corpus.epoch,
        "registrations": list(corpus.registrations.values()),
        "profiles": discovery.profiles_in_order(),
        "index": capture_engine_config(discovery),
        "minhasher": getattr(discovery, "minhasher", None),
        "platform": {"discovery_top_k": platform.discovery_top_k},
        "proxy": proxy,
        "builder": platform.builder,
    }


def restore_platform(sections: dict):
    """Rebuild a platform from snapshot sections (flat or sharded).

    Profiles are replayed into a freshly configured index in global
    registration order — rebuilding the packed signature matrix, the
    sparse term-matrix postings, and the IDF document frequencies exactly
    as the live platform grew them — and the serialised sketches are
    installed verbatim, so DP-randomised sketches survive bit for bit.
    The corpus epoch is restored last, making the replica's invalidation
    clock continue from the saved platform's.  Section keys written by
    older versions that no longer configure anything are ignored.
    """
    from repro.core.catalog import Corpus
    from repro.core.platform import Mileena
    from repro.discovery.minhash import MinHasher

    with span("persist.snapshot_load", epoch=sections["epoch"]) as load:
        minhasher = sections.get("minhasher") or MinHasher()
        discovery, sketches = build_corpus_stores(sections["index"], minhasher)
        corpus = Corpus(discovery=discovery, sketches=sketches)
        for profile in sections["profiles"]:
            discovery.register_profile(profile)
        for registration in sections["registrations"]:
            corpus.registrations[registration.name] = registration
            sketches.add(registration.sketch)
        corpus.epoch = sections["epoch"]
        load.annotate(registrations=len(sections["registrations"]))
        platform_config = sections["platform"]
        kwargs = {}
        if sections.get("proxy") is not None:
            kwargs["proxy"] = sections["proxy"]
        if sections.get("builder") is not None:
            kwargs["builder"] = sections["builder"]
        return Mileena(
            corpus=corpus,
            discovery_top_k=platform_config["discovery_top_k"],
            **kwargs,
        )
