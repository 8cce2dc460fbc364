"""Scalable topology scoring (the paper's future-work item 3).

Section 5 of the paper reports that Mapomatic-style exact subgraph scoring
"takes up to 45 minutes" on densely connected devices and degrades further
once the requested topology exceeds 12-15 qubits.  The culprit is exhaustive
VF2 subgraph enumeration: dense device graphs contain combinatorially many
embeddings of a dense pattern.

This module provides the long-term answer the paper sketches — "a scalable
methodology that can handle many 1000s of qubits" — as a budgeted matcher:

1. cheap feasibility pruning (size and degree-sequence checks);
2. a *capped* VF2 search that stops after a configurable number of
   embeddings instead of enumerating all of them;
3. a greedy seed placement refined by simulated annealing over the same
   error-aware cost function the exact scorer uses, so the result remains
   directly comparable (and interchangeable) with
   :func:`repro.matching.mapomatic.match_device`.

The annealer only ever *improves* on the greedy placement it starts from and
the VF2 stage only ever narrows the candidate set, so the scalable matcher
trades optimality for a hard bound on work — the trade the paper asks for.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Dict, Iterable, List, Optional

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.backends.topologies import DeviceTopology
from repro.matching.mapomatic import DeviceMatch, PatternLike, TargetLike, _as_pattern, _as_properties
from repro.matching.scoring import _cache_key_for, _embedding_cost
from repro.matching.subgraph import Embedding, find_exact_embeddings, greedy_embedding
from repro.utils.exceptions import MatchingError
from repro.utils.rng import SeedLike, ensure_generator


@dataclass(frozen=True)
class MatchBudget:
    """Work limits for the scalable matcher.

    Attributes
    ----------
    exact_embedding_cap:
        Maximum number of exact VF2 embeddings to enumerate before falling
        back to the heuristic path.  Zero disables the exact stage entirely.
    exact_pattern_limit:
        Largest pattern (in nodes) for which the exact stage is attempted;
        bigger requests go straight to greedy + annealing.
    exact_density_limit:
        Densest pattern (edges / possible edges) for which the exact stage is
        attempted — dense patterns are what make VF2 explode.
    anneal_iterations:
        Number of simulated-annealing proposals applied to the greedy seed.
    anneal_initial_temperature / anneal_cooling:
        Metropolis temperature schedule (geometric cooling).
    restarts:
        Independent greedy + annealing restarts; the best result wins.
    """

    exact_embedding_cap: int = 32
    exact_pattern_limit: int = 12
    exact_density_limit: float = 0.5
    anneal_iterations: int = 400
    anneal_initial_temperature: float = 1.0
    anneal_cooling: float = 0.995
    restarts: int = 2

    def __post_init__(self) -> None:
        if self.exact_embedding_cap < 0:
            raise MatchingError("exact_embedding_cap must be non-negative")
        if self.anneal_iterations < 0:
            raise MatchingError("anneal_iterations must be non-negative")
        if self.restarts < 1:
            raise MatchingError("restarts must be at least 1")
        if not 0.0 < self.anneal_cooling <= 1.0:
            raise MatchingError("anneal_cooling must lie in (0, 1]")


def _pattern_density(pattern: nx.Graph) -> float:
    nodes = pattern.number_of_nodes()
    if nodes < 2:
        return 0.0
    return pattern.number_of_edges() / (nodes * (nodes - 1) / 2.0)


def _is_exact(pattern: nx.Graph, mapping: Dict[int, int], topology: DeviceTopology) -> bool:
    return all(
        topology.has_edge(mapping[a], mapping[b]) for a, b in pattern.edges if a in mapping and b in mapping
    )


def anneal_embedding(
    pattern: nx.Graph,
    properties: BackendProperties,
    initial: Embedding,
    iterations: int = 400,
    initial_temperature: float = 1.0,
    cooling: float = 0.995,
    include_readout: bool = True,
    seed: SeedLike = None,
) -> Embedding:
    """Refine ``initial`` by simulated annealing over the embedding cost.

    Two move types are proposed with equal probability: swapping the physical
    qubits of two pattern nodes, and relocating one pattern node to a
    currently unused physical qubit.  Moves are accepted with the Metropolis
    criterion; the best placement ever visited is returned.
    """
    if iterations <= 0:
        return initial
    rng = ensure_generator(seed)
    topology = properties.topology()
    pattern_nodes = list(pattern.nodes)
    if not pattern_nodes:
        return initial

    current = dict(initial.mapping)
    current_cost = _embedding_cost(
        pattern, Embedding(current, _is_exact(pattern, current, topology)), properties, topology, include_readout
    )
    best = dict(current)
    best_cost = current_cost
    temperature = max(initial_temperature, 1e-9)

    for _ in range(iterations):
        proposal = dict(current)
        if len(pattern_nodes) >= 2 and rng.random() < 0.5:
            node_a, node_b = rng.choice(len(pattern_nodes), size=2, replace=False)
            a, b = pattern_nodes[int(node_a)], pattern_nodes[int(node_b)]
            proposal[a], proposal[b] = proposal[b], proposal[a]
        else:
            used = set(proposal.values())
            free = [q for q in range(properties.num_qubits) if q not in used]
            if not free:
                if len(pattern_nodes) < 2:
                    break
                node_a, node_b = rng.choice(len(pattern_nodes), size=2, replace=False)
                a, b = pattern_nodes[int(node_a)], pattern_nodes[int(node_b)]
                proposal[a], proposal[b] = proposal[b], proposal[a]
            else:
                node = pattern_nodes[int(rng.integers(0, len(pattern_nodes)))]
                proposal[node] = int(free[int(rng.integers(0, len(free)))])
        proposal_cost = _embedding_cost(
            pattern,
            Embedding(proposal, _is_exact(pattern, proposal, topology)),
            properties,
            topology,
            include_readout,
        )
        delta = proposal_cost - current_cost
        if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
            current = proposal
            current_cost = proposal_cost
            if current_cost < best_cost:
                best = dict(current)
                best_cost = current_cost
        temperature *= cooling

    return Embedding(mapping=best, exact=_is_exact(pattern, best, topology))


def scalable_match_device(
    pattern: PatternLike,
    target: TargetLike,
    budget: Optional[MatchBudget] = None,
    include_readout: bool = True,
    seed: SeedLike = None,
    use_cache: bool = True,
) -> Optional[DeviceMatch]:
    """Budgeted counterpart of :func:`repro.matching.mapomatic.match_device`.

    Returns ``None`` when the device cannot host the pattern at all (fewer
    qubits than pattern nodes), exactly like the exact matcher.

    Matches are memoized in the fleet-wide embedding cache keyed by pattern
    hash, device, calibration fingerprint, budget knobs and seed — repeated
    scheduling requests skip both the VF2 stage and the annealing restarts
    until the device's calibration drifts.  ``use_cache=False`` forces a
    fresh search.
    """
    budget = budget or MatchBudget()
    graph = _as_pattern(pattern)
    properties = _as_properties(target)
    if graph.number_of_nodes() > properties.num_qubits:
        return None
    if graph.number_of_nodes() == 0:
        return DeviceMatch(device=properties.name, score=0.0, exact=True, layout={})

    key = (
        _cache_key_for(graph, properties, seed, "scalable", astuple(budget), include_readout)
        if use_cache
        else None
    )
    if key is not None:
        from repro.core.cache import embedding_cache

        hit = embedding_cache().get(key)
        if hit is not None:
            # Fresh layout dict so a caller mutating it cannot poison the cache.
            return replace(hit, layout=dict(hit.layout))

    rng = ensure_generator(seed)
    topology = properties.topology()

    candidates: List[Embedding] = []
    exact_stage_allowed = (
        budget.exact_embedding_cap > 0
        and graph.number_of_nodes() <= budget.exact_pattern_limit
        and _pattern_density(graph) <= budget.exact_density_limit
    )
    if exact_stage_allowed:
        candidates = find_exact_embeddings(graph, topology, max_embeddings=budget.exact_embedding_cap)

    if not candidates:
        for _ in range(budget.restarts):
            restart_seed = int(rng.integers(0, 2**31 - 1))
            seedling = greedy_embedding(graph, properties, seed=restart_seed)
            refined = anneal_embedding(
                graph,
                properties,
                seedling,
                iterations=budget.anneal_iterations,
                initial_temperature=budget.anneal_initial_temperature,
                cooling=budget.anneal_cooling,
                include_readout=include_readout,
                seed=restart_seed + 1,
            )
            candidates.append(refined)

    scored = [
        (_embedding_cost(graph, candidate, properties, topology, include_readout), candidate)
        for candidate in candidates
    ]
    best_cost, best_embedding = min(scored, key=lambda item: item[0])
    match = DeviceMatch(
        device=properties.name,
        score=best_cost,
        exact=best_embedding.exact,
        layout=dict(best_embedding.mapping),
    )
    if key is not None:
        from repro.core.cache import embedding_cache

        embedding_cache().put(key, match)
    return match


def rank_devices_scalable(
    pattern: PatternLike,
    targets: Iterable[TargetLike],
    budget: Optional[MatchBudget] = None,
    include_readout: bool = True,
    seed: SeedLike = None,
    use_cache: bool = True,
) -> List[DeviceMatch]:
    """Rank every feasible device using the budgeted matcher, best first."""
    matches: List[DeviceMatch] = []
    for target in targets:
        match = scalable_match_device(
            pattern,
            target,
            budget=budget,
            include_readout=include_readout,
            seed=seed,
            use_cache=use_cache,
        )
        if match is not None:
            matches.append(match)
    return sorted(matches, key=lambda match: (match.score, not match.exact, match.device))


def best_device_scalable(
    pattern: PatternLike,
    targets: Iterable[TargetLike],
    budget: Optional[MatchBudget] = None,
    seed: SeedLike = None,
    use_cache: bool = True,
) -> DeviceMatch:
    """The single best device under the budgeted matcher."""
    ranking = rank_devices_scalable(pattern, targets, budget=budget, seed=seed, use_cache=use_cache)
    if not ranking:
        raise MatchingError("No device in the candidate set can host the requested topology")
    return ranking[0]
