"""Fleet-wide memoization for the scheduler's hot paths.

The paper's headline loop — rank a 100-device fleet for every arriving job —
repeats three expensive computations whose inputs barely change between jobs:

* **Embedding search + scoring** (Mapomatic's VF2 stage): depends only on the
  requested pattern, the device topology and the device's calibration data.
* **Canary ideal distributions** (Gottesman-Knill stabilizer runs): depend
  only on the canary circuit's structure and the shot budget.
* **Achieved/estimated fidelities** in the cloud simulator: depend on the
  circuit structure, the device and its calibration.

This module provides the shared memoization layer those paths use:

* :func:`structural_circuit_hash` — a collision-resistant digest of a
  circuit's *structure* (registers, instruction stream, operands, rounded
  parameters).  Two circuits that merely share a name, length and qubit
  count hash differently, fixing the collision-prone
  ``name:len:num_qubits`` key the canary estimator used previously.
* :func:`pattern_hash` — the analogous digest for interaction-graph /
  topology patterns (nodes plus weighted edges).
* :func:`calibration_fingerprint` — a digest of a device's calibration data.
  Because the fingerprint is part of every cache key, a calibration-drift
  cycle *implicitly* invalidates all embedding scores and fidelity estimates
  computed against the stale calibration: the new fingerprint simply misses.
* :class:`LRUCache` — a thread-safe bounded mapping with hit/miss/eviction
  statistics, the storage behind every domain cache.
* :class:`EmbeddingCache` and :class:`IdealDistributionCache` — the two
  domain caches, with module-level shared instances wired into
  ``repro.matching.scoring``, ``repro.matching.scalable``,
  ``repro.fidelity.canary`` and ``repro.cloud.simulation``.
* :func:`topology_cache` — each coupling map's adjacency lists and
  all-pairs hop distances, keyed by the coupling-map content and read
  through :meth:`repro.backends.properties.BackendProperties.topology`.

Call :func:`clear_all_caches` between unrelated experiments (or rely on LRU
eviction); :func:`all_cache_stats` reports fleet-wide hit rates, which the
perf-regression benchmarks record in ``BENCH_matching.json``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

__all__ = [
    "CacheStats",
    "LRUCache",
    "EmbeddingCache",
    "IdealDistributionCache",
    "PlanCache",
    "MergedProgramCache",
    "structural_circuit_hash",
    "pattern_hash",
    "calibration_fingerprint",
    "fleet_calibration_epoch",
    "embedding_cache",
    "ideal_distribution_cache",
    "plan_cache",
    "merged_program_cache",
    "topology_cache",
    "clear_all_caches",
    "all_cache_stats",
]

#: Sentinel distinguishing "key absent" from a cached ``None`` value.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable snapshot (used by the benchmark reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded, thread-safe, least-recently-used mapping with statistics.

    ``maxsize`` bounds memory: inserting beyond it evicts the least recently
    *used* entry (both ``get`` hits and ``put`` refresh recency).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` (recording a hit or miss)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def keys(self) -> Tuple[Hashable, ...]:
        """Snapshot of the cached keys, least recently used first."""
        with self._lock:
            return tuple(self._data)

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` if present; ``True`` when an entry was dropped."""
        with self._lock:
            return self._data.pop(key, _MISSING) is not _MISSING

    def resize(self, maxsize: int) -> None:
        """Change the bound; shrinking below the population evicts LRU-first."""
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        with self._lock:
            self.maxsize = maxsize
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1


# --------------------------------------------------------------------------- #
# Structural hashes
# --------------------------------------------------------------------------- #
def _digest(parts: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _format_float(value: float) -> str:
    return format(float(value), ".12g")


def structural_circuit_hash(circuit) -> str:
    """Digest of a circuit's structure, independent of its name.

    Covers the register sizes and the full instruction stream (gate name,
    qubit/clbit operands, parameters rounded to 12 significant digits so the
    hash is stable under benign float formatting differences).  Circuits with
    identical structure but different names hash identically — the ideal
    distribution of a canary only depends on structure — while circuits that
    share a name, length and width but differ anywhere in the stream hash
    differently.
    """

    def parts():
        yield f"q{circuit.num_qubits}c{circuit.num_clbits}"
        for instruction in circuit:
            params = ",".join(_format_float(p) for p in instruction.params)
            qubits = ",".join(str(q) for q in instruction.qubits)
            clbits = ",".join(str(c) for c in instruction.clbits)
            yield f"{instruction.name}|{qubits}|{clbits}|{params}"

    return _digest(parts())


def pattern_hash(graph) -> str:
    """Digest of a pattern graph (interaction graph or requested topology).

    Covers the labelled node set and the weighted edge list in canonical
    order.  Patterns are matched by node label throughout ``repro.matching``,
    so label-level (not isomorphism-level) canonicalisation is the correct
    notion of equality here.
    """

    def parts():
        yield "nodes:" + ",".join(str(node) for node in sorted(graph.nodes, key=str))
        # Canonicalise endpoint order: undirected graphs report (u, v) in
        # insertion orientation, which must not leak into the digest.
        edges = []
        for a, b, data in graph.edges(data=True):
            u, v = sorted((a, b), key=str)
            edges.append((str(u), str(v), float(data.get("weight", 1))))
        for u, v, weight in sorted(edges):
            yield f"edge:{u}-{v}w{_format_float(weight)}"

    return _digest(parts())


def calibration_fingerprint(properties) -> str:
    """Digest of one device's calibration epoch.

    Covers everything the matchers and fidelity estimators read: topology,
    basis gates, two-qubit / one-qubit / readout error rates, readout lengths
    and T1/T2 times.  A calibration-drift cycle changes the fingerprint, so
    every cache key containing it silently stops matching — stale embedding
    scores and fidelity estimates are never served across calibrations.
    """

    def parts():
        yield f"{properties.name}|{properties.num_qubits}"
        yield "basis:" + ",".join(properties.basis_gates)
        yield "coupling:" + ";".join(f"{a}-{b}" for a, b in properties.coupling_map)
        for label, table in (
            ("e2", properties.two_qubit_error),
            ("e1", properties.one_qubit_error),
            ("ro", properties.readout_error),
            ("rl", properties.readout_length),
            ("t1", properties.t1),
            ("t2", properties.t2),
        ):
            entries = ";".join(
                f"{key}:{_format_float(value)}" for key, value in sorted(table.items(), key=lambda kv: str(kv[0]))
            )
            yield f"{label}:{entries}"

    return _digest(parts())


def fleet_calibration_epoch(fleet: Iterable) -> str:
    """Stable digest of an entire fleet's calibration state.

    The sorted per-device :func:`calibration_fingerprint` digests are folded
    into one key, so the epoch is independent of registration order and —
    unlike the builtin ``hash`` — survives process restarts (``hash`` of a
    string is salted per process via ``PYTHONHASHSEED``).  Any device drifting
    changes the epoch, which is what policy fidelity caches and the plan
    cache key on.
    """
    return _digest(sorted(calibration_fingerprint(backend.properties) for backend in fleet))


# --------------------------------------------------------------------------- #
# Domain caches
# --------------------------------------------------------------------------- #
class EmbeddingCache:
    """Memoized embedding searches / scores, invalidated by calibration drift.

    Keys combine the canonical pattern hash, the device name, the device's
    calibration fingerprint and the search parameters (embedding caps, budget
    knobs, seeds).  Values are whatever the matcher produced — a list of
    :class:`~repro.matching.scoring.ScoredEmbedding` for the exact scorer, a
    :class:`~repro.matching.mapomatic.DeviceMatch` for the scalable matcher.
    """

    def __init__(self, maxsize: int = 2048) -> None:
        self._store = LRUCache(maxsize)

    @staticmethod
    def key(
        pattern_digest: str,
        device_name: str,
        fingerprint: str,
        *extra: Hashable,
    ) -> Tuple[Hashable, ...]:
        """Build a cache key; ``extra`` carries matcher-specific parameters."""
        return (pattern_digest, device_name, fingerprint) + tuple(extra)

    def get(self, key: Tuple[Hashable, ...]) -> Any:
        """Cached value or ``None`` (a miss)."""
        return self._store.get(key, None)

    def put(self, key: Tuple[Hashable, ...], value: Any) -> None:
        """Store a matcher result."""
        self._store.put(key, value)

    def clear(self) -> None:
        """Drop every cached embedding result."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying store."""
        return self._store.stats


class IdealDistributionCache:
    """Memoized canary ideal distributions keyed by circuit structure.

    Keys are ``(structural_circuit_hash(canary), shots)``; values are counts
    dictionaries.  Shared across every
    :class:`~repro.fidelity.canary.CliffordCanaryEstimator` instance so that
    the meta server, the cloud policies and the experiment drivers all reuse
    each other's stabilizer runs.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self._store = LRUCache(maxsize)

    @staticmethod
    def key(circuit_digest: str, shots: int) -> Tuple[str, int]:
        """Build the (structure digest, shots) cache key."""
        return (circuit_digest, shots)

    def get(self, key: Tuple[str, int]) -> Optional[Dict[str, int]]:
        """Cached counts or ``None`` (a miss)."""
        return self._store.get(key, None)

    def put(self, key: Tuple[str, int], counts: Dict[str, int]) -> None:
        """Store a simulated ideal distribution."""
        self._store.put(key, counts)

    def clear(self) -> None:
        """Drop every cached distribution."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying store."""
        return self._store.stats


class PlanCache:
    """Memoized :class:`~repro.plans.ExecutionPlan` bundles.

    Keys combine the *logical* circuit's structural hash, the placed device's
    name, that device's calibration fingerprint, and engine-specific context
    (engine name, base seed, frozen requirements, shot count) so a plan is
    only ever replayed for a submission that would have recompiled to exactly
    the same artifact.  Calibration drift invalidates implicitly — the new
    fingerprint misses — and :meth:`invalidate_device` additionally drops the
    stale entries eagerly when an epoch change is observed.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._store = LRUCache(maxsize)

    @staticmethod
    def key(
        circuit_digest: str,
        device_name: str,
        fingerprint: str,
        *extra: Hashable,
    ) -> Tuple[Hashable, ...]:
        """Build a cache key; ``extra`` carries engine-specific context."""
        return (circuit_digest, device_name, fingerprint) + tuple(extra)

    def get(self, key: Tuple[Hashable, ...]) -> Any:
        """Cached plan or ``None`` (a miss)."""
        return self._store.get(key, None)

    def put(self, key: Tuple[Hashable, ...], plan: Any) -> None:
        """Store a compiled plan."""
        self._store.put(key, plan)

    def record_miss(self) -> None:
        """Count a miss decided before any key could be built.

        A submission whose workload has never been placed cannot know which
        device to probe, so no key exists yet; the cold compile is still a
        plan-cache miss and must show up in the hit-rate statistics.
        """
        self._store.stats.misses += 1

    def invalidate_device(self, device_name: str, *, keep_fingerprint: Optional[str] = None) -> int:
        """Eagerly drop every plan bound to ``device_name``.

        ``keep_fingerprint`` preserves entries compiled against the current
        calibration (pass the fresh fingerprint on an epoch change to purge
        only the stale ones).  Returns the number of entries dropped.
        """
        dropped = 0
        for key in self._store.keys():
            if len(key) >= 3 and key[1] == device_name and key[2] != keep_fingerprint:
                if self._store.discard(key):
                    dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every cached plan."""
        self._store.clear()

    def resize(self, maxsize: int) -> None:
        """Re-bound the underlying store (the ``plan_cache_size`` knob)."""
        self._store.resize(maxsize)

    @property
    def maxsize(self) -> int:
        """Current bound of the underlying store."""
        return self._store.maxsize

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying store."""
        return self._store.stats


class MergedProgramCache:
    """Memoized :class:`~repro.plans.schedule.MergedExecutionProgram` bundles.

    Keys combine the *multiset* of member tableau-program digests (sorted, so
    batch arrival order never matters), the sorted device names the batch is
    bound for, and those devices' calibration fingerprints.  The merged
    artifact itself is noise-model-independent — noise is drawn at execution
    time — but the fingerprints keep a calibration-drift cycle from replaying
    a batch composition decided against stale device data, mirroring every
    other fleet cache.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self._store = LRUCache(maxsize)

    @staticmethod
    def key(
        member_digests: Iterable[str],
        device_names: Iterable[str],
        fingerprints: Iterable[str],
    ) -> Tuple[Hashable, ...]:
        """Build the (sorted digests, sorted devices, sorted fingerprints) key."""
        return (
            tuple(sorted(member_digests)),
            tuple(sorted(device_names)),
            tuple(sorted(fingerprints)),
        )

    def get(self, key: Tuple[Hashable, ...]) -> Any:
        """Cached merged program or ``None`` (a miss)."""
        return self._store.get(key, None)

    def put(self, key: Tuple[Hashable, ...], program: Any) -> None:
        """Store a merged program."""
        self._store.put(key, program)

    def clear(self) -> None:
        """Drop every cached merged program."""
        self._store.clear()

    def resize(self, maxsize: int) -> None:
        """Re-bound the underlying store."""
        self._store.resize(maxsize)

    @property
    def maxsize(self) -> int:
        """Current bound of the underlying store."""
        return self._store.maxsize

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying store."""
        return self._store.stats


# --------------------------------------------------------------------------- #
# Shared instances
# --------------------------------------------------------------------------- #
_EMBEDDING_CACHE = EmbeddingCache()
_IDEAL_DISTRIBUTION_CACHE = IdealDistributionCache()
_PLAN_CACHE = PlanCache()
_MERGED_PROGRAM_CACHE = MergedProgramCache()
#: Per-topology adjacency and hop distances, keyed by coupling-map content.
_TOPOLOGY_CACHE = LRUCache(maxsize=256)


def embedding_cache() -> EmbeddingCache:
    """The process-wide embedding/score cache."""
    return _EMBEDDING_CACHE


def ideal_distribution_cache() -> IdealDistributionCache:
    """The process-wide canary ideal-distribution cache."""
    return _IDEAL_DISTRIBUTION_CACHE


def plan_cache() -> PlanCache:
    """The process-wide (fleet-wide) execution-plan cache."""
    return _PLAN_CACHE


def merged_program_cache() -> MergedProgramCache:
    """The process-wide (fleet-wide) cross-job merged-program cache."""
    return _MERGED_PROGRAM_CACHE


def topology_cache() -> LRUCache:
    """The process-wide per-topology adjacency/distance cache.

    Keys are the coupling-map *content* ``(num_qubits, tuple(coupling_map))``
    — never a device name, ``hash()`` or ``id()`` — so two devices that share
    a name but not their couplings get different entries, and same-shaped
    devices share one.  Values are immutable
    :class:`~repro.backends.topologies.DeviceTopology` objects.
    """
    return _TOPOLOGY_CACHE


def clear_all_caches() -> None:
    """Empty every shared cache (benchmarks call this between cold runs)."""
    _EMBEDDING_CACHE.clear()
    _IDEAL_DISTRIBUTION_CACHE.clear()
    _PLAN_CACHE.clear()
    _MERGED_PROGRAM_CACHE.clear()
    _TOPOLOGY_CACHE.clear()


def all_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of every shared cache, keyed by cache name."""
    return {
        "embedding": _EMBEDDING_CACHE.stats.as_dict(),
        "ideal_distribution": _IDEAL_DISTRIBUTION_CACHE.stats.as_dict(),
        "plan": _PLAN_CACHE.stats.as_dict(),
        "batch": _MERGED_PROGRAM_CACHE.stats.as_dict(),
    }
