"""The subgraph-search kernel yields exactly what networkx's VF2 yields.

``subgraph_monomorphisms`` promises the same mappings as
``GraphMatcher(device, pattern).subgraph_monomorphisms_iter()``, in the same
order and with the same dict key order; every layout, score and count
downstream relies on that.  networkx is the oracle here and nowhere else.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from repro.backends import generate_fleet
from repro.circuits import QuantumCircuit, qaoa_maxcut
from repro.matching import find_exact_embeddings, has_exact_embedding, interaction_graph
from repro.matching.subgraph import subgraph_monomorphisms
from repro.transpiler.context import TranspileContext
from repro.transpiler.passes.layout_selection import (
    VF2PerfectLayoutPass,
    _complete_layout,
    _interaction_graph,
    _placement_error_cost,
)

CAPS = (1, 16, 100)

#: Fleet indices: 5, 20 and 60 qubits at 10% connectivity, then 78 and 100
#: qubits at 10% and 78 at 30%.
_DEVICE_INDICES = (0, 1, 5, 6, 9, 26)


@pytest.fixture(scope="module")
def devices():
    fleet = generate_fleet(limit=max(_DEVICE_INDICES) + 1, seed=7)
    return [fleet[index].properties for index in _DEVICE_INDICES]


def clifford_skeleton(index: int) -> nx.Graph:
    """Two-qubit skeleton of a cold-mix-style random Clifford job.

    Width 4..6; six layers in which each qubit pairs with a random free
    partner half of the time.  Qubits that never interact stay as isolated
    nodes, so some skeletons are disconnected.
    """
    width = 4 + (index // 4) % 3
    rng = np.random.default_rng([0x5EED, index])
    graph = nx.Graph()
    graph.add_nodes_from(range(width))
    for _ in range(6):
        free = list(range(width))
        while free:
            qubit = free.pop(0)
            if free and rng.random() < 0.5:
                graph.add_edge(qubit, free.pop(int(rng.integers(len(free)))))
    return graph


def qaoa_ring(width: int) -> nx.Graph:
    edges = [(k, (k + 1) % width) for k in range(width)]
    return interaction_graph(qaoa_maxcut(edges, num_qubits=width, gammas=[0.3], betas=[0.7]))


def random_patterns():
    rng = np.random.default_rng(2024)
    patterns = []
    for index in range(8):
        nodes = int(rng.integers(3, 8))
        patterns.append(nx.gnp_random_graph(nodes, float(rng.uniform(0.25, 0.7)), seed=int(rng.integers(1 << 30))))
    patterns.append(nx.disjoint_union(nx.path_graph(3), nx.cycle_graph(4)))
    patterns.append(nx.disjoint_union(nx.star_graph(3), nx.empty_graph(2)))
    return patterns


def _patterns():
    skeletons = [clifford_skeleton(index) for index in range(12)]
    active = [graph.subgraph([node for node in graph if graph.degree(node)]) for graph in skeletons]
    disconnected = [graph for graph in skeletons if not nx.is_connected(graph)][:3]
    return (
        active
        + disconnected
        + [qaoa_ring(width) for width in range(4, 8)]
        + [nx.path_graph(6), nx.cycle_graph(5), nx.cycle_graph(6), nx.star_graph(4), nx.star_graph(5)]
        + [nx.complete_graph(3), nx.complete_graph(4), nx.grid_2d_graph(2, 3), nx.grid_2d_graph(3, 3)]
        + random_patterns()
    )


PATTERNS = _patterns()


def ordered(mappings):
    return [list(mapping.items()) for mapping in mappings]


def oracle(device_graph, pattern, cap):
    return ordered(itertools.islice(GraphMatcher(device_graph, pattern).subgraph_monomorphisms_iter(), cap))


@pytest.mark.parametrize("pattern_index", range(len(PATTERNS)))
def test_kernel_matches_networkx_on_the_fleet(devices, pattern_index):
    pattern = PATTERNS[pattern_index]
    for properties in devices:
        expected = oracle(properties.graph(), pattern, max(CAPS))
        for cap in CAPS:
            got = ordered(itertools.islice(subgraph_monomorphisms(properties.topology(), pattern), cap))
            assert got == expected[:cap], (properties.name, cap)
            embeddings = find_exact_embeddings(pattern, properties.topology(), max_embeddings=cap)
            assert [list(embedding.mapping.items()) for embedding in embeddings] == [
                [(pattern_node, device_node) for device_node, pattern_node in mapping] for mapping in expected[:cap]
            ]
        # networkx's subgraph_is_monomorphic is "the iterator yields anything".
        assert has_exact_embedding(pattern, properties) == bool(expected), properties.name


@pytest.mark.parametrize("relabel", [lambda q: 7 * q + 3, lambda q: f"q{q}", lambda q: (q % 5, q)])
def test_networkx_device_graphs_keep_their_labels_and_order(devices, relabel):
    """A labelled networkx device graph is searched in its own node order."""
    device_graph = nx.relabel_nodes(devices[2].graph(), relabel)
    for pattern in PATTERNS[::3]:
        expected = oracle(device_graph, pattern, 40)
        assert ordered(itertools.islice(subgraph_monomorphisms(device_graph, pattern), 40)) == expected


def test_self_loops_follow_networkx():
    device = nx.cycle_graph(6)
    device.add_edge(2, 2)
    device.add_edge(4, 4)
    pattern = nx.path_graph(3)
    pattern.add_edge(1, 1)
    assert ordered(subgraph_monomorphisms(device, pattern)) == oracle(device, pattern, None)


def test_empty_pattern_yields_one_empty_mapping(devices):
    assert list(subgraph_monomorphisms(devices[0].topology(), nx.Graph())) == [{}]


def _reference_perfect_layout(circuit, target, max_embeddings=16):
    """The perfect-layout choice made over networkx's VF2 directly."""
    interaction = _interaction_graph(circuit)
    pattern = interaction.subgraph([node for node in interaction if interaction.degree(node)])
    best, best_cost = None, float("inf")
    for mapping in itertools.islice(
        GraphMatcher(target.graph(), pattern).subgraph_monomorphisms_iter(), max_embeddings
    ):
        placement = {virtual: physical for physical, virtual in mapping.items()}
        cost = _placement_error_cost(circuit, placement, target)
        if cost < best_cost:
            best, best_cost = placement, cost
    if best is None:
        return None, None
    return _complete_layout(best, circuit.num_qubits, target.num_qubits), best_cost


def _skeleton_circuit(index: int) -> QuantumCircuit:
    skeleton = clifford_skeleton(index)
    circuit = QuantumCircuit(skeleton.number_of_nodes(), skeleton.number_of_nodes())
    for a, b in skeleton.edges:
        circuit.cx(a, b)
    circuit.measure_all()
    return circuit


@pytest.mark.parametrize("index", [0, 3, 5, 7, 9, 11])
def test_perfect_layout_pass_picks_the_networkx_layout(devices, index):
    circuit = _skeleton_circuit(index)
    for target in devices:
        if target.num_qubits < circuit.num_qubits:
            continue
        expected_layout, expected_cost = _reference_perfect_layout(circuit, target)
        context = TranspileContext.for_target(target, seed=1)
        VF2PerfectLayoutPass().run(circuit, context)
        assert context.initial_layout == expected_layout, target.name
        assert context.properties.get("layout_error_cost") == expected_cost
