"""The per-topology cache and what it keeps out of compiled artifacts."""

import pickle

import networkx as nx
import pytest

from repro.backends import DeviceTopology, generate_fleet, named_topology_device
from repro.circuits import ghz
from repro.core.cache import clear_all_caches, topology_cache
from repro.plans import PlanCompiler
from repro.transpiler import transpile

#: Pickled size bound of a ghz(5) plan on a 60-qubit device.  The plan is
#: ~2.5 KB; with the device's all-pairs distance matrix riding along in the
#: transpile metadata it was ~17 KB.
PLAN_PICKLE_BOUND_BYTES = 4096


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches()
    yield
    clear_all_caches()


@pytest.fixture(scope="module")
def q60():
    return next(backend for backend in generate_fleet(limit=6, seed=7) if backend.name == "sim_q60_c10")


def test_transpile_results_carry_no_distance_matrix(q60):
    result = transpile(ghz(5), q60, seed=1)
    assert not [key for key in result.properties if key.startswith("distance_matrix")]


def test_pickled_plan_stays_small(q60):
    plan = PlanCompiler().compile(ghz(5), q60, shots=256, transpile_seed=1)
    assert len(pickle.dumps(plan)) < PLAN_PICKLE_BOUND_BYTES


def test_same_name_different_couplings_get_different_distances():
    line = named_topology_device("line", 6, name="twin").properties
    ring = named_topology_device("ring", 6, name="twin").properties
    assert line.topology().distances[0][5] == 5
    assert ring.topology().distances[0][5] == 1
    for properties in (line, ring):
        routed = transpile(ghz(6), properties, seed=3, optimization_level=1)
        coupled = {tuple(sorted(edge)) for edge in properties.coupling_map}
        for instruction in routed.circuit:
            if instruction.is_two_qubit_gate:
                assert tuple(sorted(instruction.qubits)) in coupled


def test_same_coupling_map_shares_one_entry():
    first = named_topology_device("ring", 6, name="first").properties
    second = named_topology_device("ring", 6, name="second").properties
    assert first.topology() is second.topology()
    assert len(topology_cache()) == 1


def test_topology_matches_networkx(q60):
    properties = q60.properties
    topology = properties.topology()
    graph = properties.graph()
    assert topology.adjacency == tuple(tuple(graph[qubit]) for qubit in graph)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for source in graph:
        for target in graph:
            assert topology.distances[source][target] == lengths[source].get(target)


def test_disconnected_qubits_have_no_distance():
    topology = DeviceTopology.build(4, [(0, 1), (2, 3)])
    assert topology.distances[0][1] == 1
    assert topology.distances[0][2] is None
    assert not topology.has_edge(1, 2)


def test_clear_all_caches_empties_the_topology_cache(q60):
    q60.properties.topology()
    assert len(topology_cache()) == 1
    clear_all_caches()
    assert len(topology_cache()) == 0
