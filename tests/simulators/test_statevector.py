"""Tests for the noise-free statevector simulator."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz
from repro.circuits.gates import gate_matrix
from repro.simulators import MAX_STATEVECTOR_QUBITS, StatevectorSimulator, apply_matrix, compact_circuit
from repro.utils.exceptions import SimulationError
from repro.utils.linalg import expand_operator


def _tensordot_reference(state, matrix, qubits, num_qubits):
    """Gate application as one np.tensordot plus an axis permutation."""
    state = np.asarray(state, dtype=complex)
    k = len(qubits)
    batch_ndim = state.ndim - 1
    tensor = state.reshape(state.shape[:-1] + (2,) * num_qubits)
    qubit_axes = [batch_ndim + (num_qubits - 1 - q) for q in qubits]
    gate = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    contracted = np.tensordot(gate, tensor, axes=([k + (k - 1 - p) for p in range(k)], qubit_axes))
    remaining = [axis for axis in range(batch_ndim + num_qubits) if axis not in qubit_axes]
    position = {axis: k - 1 - p for p, axis in enumerate(qubit_axes)}
    position.update({axis: k + offset for offset, axis in enumerate(remaining)})
    order = [position[axis] for axis in range(batch_ndim + num_qubits)]
    return np.transpose(contracted, order).reshape(state.shape)


class TestApplyMatrix:
    def test_matches_expand_operator_for_random_states(self):
        rng = np.random.default_rng(0)
        for name, qubits in [("h", (1,)), ("cx", (0, 2)), ("cx", (2, 0)), ("swap", (1, 3)), ("ccx", (3, 1, 0))]:
            state = rng.normal(size=16) + 1j * rng.normal(size=16)
            state /= np.linalg.norm(state)
            matrix = gate_matrix(name)
            fast = apply_matrix(state, matrix, qubits, 4)
            reference = expand_operator(matrix, list(qubits), 4) @ state
            assert np.allclose(fast, reference), name

    def test_batched_application(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        matrix = gate_matrix("cx")
        result = apply_matrix(batch, matrix, (0, 2), 3)
        for row_in, row_out in zip(batch, result):
            assert np.allclose(row_out, apply_matrix(row_in, matrix, (0, 2), 3))

    def test_general_gates_are_bit_identical_to_tensordot(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            num_qubits = int(rng.integers(1, 7))
            k = int(rng.integers(1, min(num_qubits, 3) + 1))
            qubits = tuple(int(q) for q in rng.permutation(num_qubits)[:k])
            batch = [(), (int(rng.integers(1, 9)),)][trial % 2]
            state = rng.normal(size=batch + (2**num_qubits,)) + 1j * rng.normal(size=batch + (2**num_qubits,))
            matrix = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            expected = _tensordot_reference(state, matrix, qubits, num_qubits)
            assert apply_matrix(state, matrix, qubits, num_qubits).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["cx", "cz", "swap", "ccx", "x", "y", "z"])
    def test_unit_monomial_gates_match_tensordot(self, name):
        """Permutation-with-phase gates skip the matrix product exactly.

        Only the sign of a zero amplitude may differ from the product, so
        values (which treat -0.0 == 0.0) must be equal, not just close.
        """
        rng = np.random.default_rng(3)
        matrix = gate_matrix(name)
        k = int(np.log2(matrix.shape[0]))
        for batch in [(), (7,)]:
            state = rng.normal(size=batch + (32,)) + 1j * rng.normal(size=batch + (32,))
            state[..., rng.random(32) < 0.3] = 0.0
            qubits = tuple(int(q) for q in rng.permutation(5)[:k])
            expected = _tensordot_reference(state, matrix, qubits, 5)
            assert np.array_equal(apply_matrix(state, matrix, qubits, 5), expected)

    def test_wrong_matrix_shape_raises(self):
        with pytest.raises(SimulationError):
            apply_matrix(np.zeros(4, dtype=complex), np.eye(2), (0, 1), 2)


class TestStatevectorSimulator:
    def test_bell_state_amplitudes(self, statevector_simulator):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        state = statevector_simulator.statevector(circuit)
        assert np.isclose(abs(state[0]) ** 2, 0.5)
        assert np.isclose(abs(state[3]) ** 2, 0.5)
        assert np.isclose(abs(state[1]), 0.0)

    def test_norm_is_preserved(self, statevector_simulator, workload_circuits):
        for circuit in workload_circuits.values():
            state = statevector_simulator.statevector(circuit.without_measurements())
            assert np.isclose(np.linalg.norm(state), 1.0)

    def test_counts_respect_measurement_map(self, statevector_simulator):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0).measure(0, 1)  # write qubit 0 into classical bit 1
        result = statevector_simulator.run(circuit, shots=16)
        assert result.counts == {"10": 16}

    def test_unmeasured_circuit_measures_everything(self, statevector_simulator):
        result = statevector_simulator.run(ghz(2).without_measurements(), shots=200)
        assert set(result.counts) <= {"00", "11"}

    def test_shots_must_be_positive(self, statevector_simulator):
        with pytest.raises(SimulationError):
            statevector_simulator.run(ghz(2), shots=0)

    def test_reset_rejected(self, statevector_simulator):
        circuit = QuantumCircuit(1)
        circuit.reset(0)
        with pytest.raises(SimulationError):
            statevector_simulator.statevector(circuit)

    def test_mid_circuit_measurement_rejected(self, statevector_simulator):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0).x(0)
        with pytest.raises(SimulationError):
            statevector_simulator.statevector(circuit)

    def test_too_wide_circuit_rejected(self, statevector_simulator):
        circuit = QuantumCircuit(MAX_STATEVECTOR_QUBITS + 1)
        with pytest.raises(SimulationError):
            statevector_simulator.statevector(circuit)

    def test_probabilities_sum_to_one(self, statevector_simulator, workload_circuits):
        probabilities = statevector_simulator.probabilities(workload_circuits["qft4"])
        assert np.isclose(sum(probabilities.values()), 1.0)


class TestCompactCircuit:
    def test_compacts_to_active_qubits(self):
        circuit = QuantumCircuit(50, 2)
        circuit.h(10).cx(10, 37).measure(10, 0).measure(37, 1)
        compacted, mapping = compact_circuit(circuit)
        assert compacted.num_qubits == 2
        assert mapping == {10: 0, 37: 1}
        assert compacted.num_clbits == 2

    def test_compacted_semantics_match(self, statevector_simulator):
        circuit = QuantumCircuit(12, 12)
        circuit.h(3).cx(3, 9).measure(3, 0).measure(9, 1)
        compacted, _ = compact_circuit(circuit)
        result = statevector_simulator.run(compacted, shots=100)
        assert set(result.counts) <= {"000000000000", "000000000011"}

    def test_empty_circuit(self):
        compacted, mapping = compact_circuit(QuantumCircuit(5))
        assert mapping == {}
        assert compacted.num_qubits == 1

    def test_barrier_restricted_to_active_qubits(self):
        circuit = QuantumCircuit(6)
        circuit.h(2).barrier().x(4)
        compacted, mapping = compact_circuit(circuit)
        barrier = [inst for inst in compacted if inst.name == "barrier"][0]
        assert set(barrier.qubits) == {mapping[2], mapping[4]}
