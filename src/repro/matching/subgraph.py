"""Subgraph matching between circuit interaction graphs and device topologies.

This is the reproduction of Mapomatic's first step ("device subgraphs are
identified by traversing the device topology and outlining areas of the
devices that are the best fit for the qubit circuit").  Exact embeddings are
found by :func:`subgraph_monomorphisms`, the one subgraph-search kernel of the
package (the transpiler's perfect-layout pass uses it too): VF2 subgraph
monomorphism in networkx's exact yield order, plus sound pruning.  When no
exact embedding exists a greedy best-effort placement is produced instead so
the scorer can still charge the device a penalty for the missing couplings
(this is what makes the fully-connected topology request of Fig. 6
discriminate sharply between sparse and dense devices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.backends.topologies import DeviceTopology
from repro.utils.exceptions import MatchingError
from repro.utils.rng import SeedLike, ensure_generator

#: Default cap on the number of exact embeddings enumerated per device.
DEFAULT_MAX_EMBEDDINGS = 100


@dataclass(frozen=True)
class Embedding:
    """A placement of pattern (circuit/topology) nodes onto device qubits."""

    mapping: Dict[int, int]
    exact: bool

    def physical(self, pattern_node: int) -> int:
        """Device qubit hosting ``pattern_node``."""
        return self.mapping[pattern_node]

    def physical_qubits(self) -> List[int]:
        """All device qubits used by the embedding."""
        return sorted(self.mapping.values())


DeviceLike = Union[DeviceTopology, nx.Graph]


def subgraph_monomorphisms(device: DeviceLike, pattern: nx.Graph) -> Iterator[Dict[Hashable, Hashable]]:
    """Yield every subgraph monomorphism of ``pattern`` into ``device``.

    Each mapping is a ``{device node: pattern node}`` dict.  The sequence is
    exactly what ``GraphMatcher(device, pattern).subgraph_monomorphisms_iter()``
    yields: the same mappings, in the same order, with the same key order.
    Callers that stop after the first ``k`` mappings therefore see what the
    networkx matcher would have shown them.

    The order is kept by replaying networkx's VF2 state: the next pattern
    node is the lowest-ordered unmapped one adjacent to the mapping, and its
    device candidates are the unmapped neighbours of the mapping, in the
    order they entered networkx's terminal-set dict (which follows the
    iteration order of the set VF2 builds each step, rebuilt here the same
    way).  With an empty terminal set the next pattern node is the
    lowest-ordered unmapped one and every unmapped device node is a
    candidate, in device order.

    What networkx lacks is pruning; three sound rules are added, each of
    which only discards a pair whose subtree holds no embedding, so no yield
    moves:

    1. the device node's degree must reach the pattern node's degree;
    2. the device node must have as many unmapped neighbours as the pattern
       node has unmapped neighbours;
    3. every unmapped neighbour of the pattern node must keep a candidate:
       an unmapped device neighbour of high enough degree that is coupled to
       the images of all its mapped neighbours.
    """
    nodes, adjacency, neighbour_sets, degree, loops = _device_view(device)
    labels = list(pattern)
    size = len(labels)
    if size == 0:
        yield {}
        return
    index = {label: position for position, label in enumerate(labels)}
    pattern_adjacency = [
        [index[neighbour] for neighbour in pattern[label] if neighbour != label] for label in labels
    ]
    pattern_degree = [len(neighbours) for neighbours in pattern_adjacency]
    pattern_loop = [label in pattern[label] for label in labels]
    if not _degrees_dominated(pattern_degree, [degree[node] for node in nodes]):
        return

    core: Dict[Hashable, Hashable] = {}  # device node -> pattern label, in depth order
    image: List[Optional[Hashable]] = [None] * size  # pattern index -> device node
    touching = [0] * size  # mapped neighbours of each pattern node
    terminal_order: List[Hashable] = []  # networkx's inout_1 dict, in insertion order
    terminal: set = set()

    def extend() -> Iterator[Dict[Hashable, Hashable]]:
        depth = len(core)
        if depth == size:
            yield dict(core)
            return
        first_unmapped = first_terminal = -1
        for position in range(size):
            if image[position] is None:
                if first_unmapped < 0:
                    first_unmapped = position
                if touching[position]:
                    first_terminal = position
                    break
        candidates = [node for node in terminal_order if node not in core]
        if candidates and first_terminal >= 0:
            target = first_terminal
        else:
            target = first_unmapped
            candidates = [node for node in nodes if node not in core]

        # Everything the feasibility test needs about ``target`` is fixed for
        # this level: the images its device node must be coupled to, and for
        # each unmapped neighbour the degree, self-loop and couplings a free
        # device neighbour must offer to host it later (rule 3).
        need_degree = pattern_degree[target]
        need_loop = pattern_loop[target]
        anchors = []
        open_neighbours = []
        for neighbour in pattern_adjacency[target]:
            placed = image[neighbour]
            if placed is not None:
                anchors.append(neighbour_sets[placed])
            else:
                open_neighbours.append(
                    (
                        pattern_degree[neighbour],
                        pattern_loop[neighbour],
                        [neighbour_sets[image[w]] for w in pattern_adjacency[neighbour] if image[w] is not None],
                    )
                )
        open_count = len(open_neighbours)
        leaf = depth + 1 == size

        for node in candidates:
            if degree[node] < need_degree or (need_loop and node not in loops):  # rule 1
                continue
            coupled = True
            for anchor in anchors:
                if node not in anchor:
                    coupled = False
                    break
            if not coupled:
                continue
            if open_count:
                free = [other for other in adjacency[node] if other not in core and other != node]
                if len(free) < open_count:  # rule 2
                    continue
                hosted = True
                for open_degree, open_loop, open_anchors in open_neighbours:  # rule 3
                    for other in free:
                        if degree[other] < open_degree or (open_loop and other not in loops):
                            continue
                        for anchor in open_anchors:
                            if other not in anchor:
                                break
                        else:
                            break
                    else:
                        hosted = False
                        break
                if not hosted:
                    continue
            core[node] = labels[target]
            if leaf:
                yield dict(core)
                del core[node]
                continue
            image[target] = node
            mark = len(terminal_order)
            if node not in terminal:
                terminal_order.append(node)
                terminal.add(node)
            fresh = [other for other in adjacency[node] if other not in terminal]
            if len(fresh) > 1:
                # networkx adds these in the iteration order of a set of
                # every unmapped neighbour of the mapping; build that set the
                # same way so its order is the same.
                fresh_set = set(fresh)
                frontier = {other for mapped in core for other in adjacency[mapped] if other not in core}
                fresh = [other for other in frontier if other in fresh_set]
            terminal_order.extend(fresh)
            terminal.update(fresh)
            for neighbour in pattern_adjacency[target]:
                touching[neighbour] += 1
            yield from extend()
            for neighbour in pattern_adjacency[target]:
                touching[neighbour] -= 1
            for other in terminal_order[mark:]:
                terminal.discard(other)
            del terminal_order[mark:]
            image[target] = None
            del core[node]

    yield from extend()


def _device_view(device: DeviceLike):
    """``(nodes, adjacency, neighbour sets, degree, self-loops)`` of a device.

    A :class:`DeviceTopology` is read as is (qubits ``0..n-1``); a networkx
    graph is converted keeping its node and neighbour order.  Degrees count
    distinct neighbours other than the node itself.
    """
    if isinstance(device, DeviceTopology):
        return (
            range(device.num_qubits),
            device.adjacency,
            device.neighbour_sets,
            [len(neighbours) for neighbours in device.adjacency],
            frozenset(),
        )
    nodes = list(device)
    adjacency = {node: tuple(device[node]) for node in nodes}
    neighbour_sets = {node: frozenset(neighbours) for node, neighbours in adjacency.items()}
    loops = frozenset(node for node in nodes if node in neighbour_sets[node])
    degree = {node: len(neighbour_sets[node]) - (node in loops) for node in nodes}
    return nodes, adjacency, neighbour_sets, degree, loops


def _degrees_dominated(pattern_degrees: Sequence[int], device_degrees: Sequence[int]) -> bool:
    """Cheap necessary condition for a monomorphism to exist.

    Every pattern node of degree ``d`` must map onto its own device node of
    degree at least ``d``; comparing the sorted degree sequences rejects
    hopeless cases (e.g. a 9-leaf star onto a degree-4-capped device) in
    microseconds.
    """
    if len(device_degrees) < len(pattern_degrees):
        return False
    device_sorted = sorted(device_degrees, reverse=True)
    return all(
        needed <= device_sorted[position]
        for position, needed in enumerate(sorted(pattern_degrees, reverse=True))
    )


def find_exact_embeddings(
    pattern: nx.Graph,
    device: DeviceLike,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
) -> List[Embedding]:
    """The first ``max_embeddings`` subgraph-monomorphism embeddings of ``pattern``.

    A monomorphism (rather than induced-subgraph isomorphism) is the right
    notion here: the device may have extra couplings between the chosen
    qubits, which never hurts execution.  ``device`` is a
    :class:`DeviceTopology` or a networkx graph.
    """
    if pattern.number_of_nodes() == 0:
        return [Embedding(mapping={}, exact=True)]
    embeddings: List[Embedding] = []
    if max_embeddings <= 0:
        return embeddings
    for mapping in subgraph_monomorphisms(device, pattern):
        embeddings.append(
            Embedding(mapping={pattern_node: device_node for device_node, pattern_node in mapping.items()}, exact=True)
        )
        if len(embeddings) >= max_embeddings:
            break
    return embeddings


def greedy_embedding(
    pattern: nx.Graph,
    properties: BackendProperties,
    seed: SeedLike = None,
) -> Embedding:
    """Best-effort placement when no exact embedding exists.

    Pattern nodes are placed in descending degree order; each node goes to
    the free device qubit that is adjacent to the largest number of its
    already-placed neighbours, breaking ties by summed distance to those
    neighbours and then by local two-qubit error.
    """
    if pattern.number_of_nodes() > properties.num_qubits:
        raise MatchingError(
            f"Pattern needs {pattern.number_of_nodes()} qubits but device "
            f"'{properties.name}' has only {properties.num_qubits}"
        )
    rng = ensure_generator(seed)
    topology = properties.topology()
    order = sorted(pattern.nodes, key=lambda node: -pattern.degree(node))
    mapping: Dict[int, int] = {}
    used: set = set()

    for pattern_node in order:
        placed_neighbours = [
            mapping[neighbour] for neighbour in pattern.neighbors(pattern_node) if neighbour in mapping
        ]
        best_candidate: Optional[int] = None
        best_key: Optional[Tuple[float, float, float]] = None
        candidates = [q for q in range(properties.num_qubits) if q not in used]
        rng.shuffle(candidates)
        for candidate in candidates:
            coupled = topology.neighbour_sets[candidate]
            hops = topology.distances[candidate]
            adjacency = sum(1 for neighbour in placed_neighbours if neighbour in coupled)
            distance = sum(
                properties.num_qubits if hops[neighbour] is None else hops[neighbour]
                for neighbour in placed_neighbours
            )
            neighbours = topology.adjacency[candidate]
            local_error = sum(
                properties.edge_error(candidate, other) for other in neighbours
            ) / max(1, len(neighbours))
            key = (-adjacency, float(distance), local_error)
            if best_key is None or key < best_key:
                best_key = key
                best_candidate = candidate
        if best_candidate is None:
            raise MatchingError("Ran out of device qubits during greedy embedding")
        mapping[pattern_node] = best_candidate
        used.add(best_candidate)
    return Embedding(mapping=mapping, exact=False)


def find_embeddings(
    pattern: nx.Graph,
    properties: BackendProperties,
    max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    seed: SeedLike = None,
) -> List[Embedding]:
    """Exact embeddings when they exist, otherwise one greedy fallback."""
    exact = find_exact_embeddings(pattern, properties.topology(), max_embeddings=max_embeddings)
    if exact:
        return exact
    if pattern.number_of_nodes() > properties.num_qubits:
        return []
    return [greedy_embedding(pattern, properties, seed=seed)]


def has_exact_embedding(pattern: nx.Graph, properties: BackendProperties) -> bool:
    """``True`` when the device can host ``pattern`` without any routing."""
    if pattern.number_of_nodes() > properties.num_qubits:
        return False
    return next(subgraph_monomorphisms(properties.topology(), pattern), None) is not None
