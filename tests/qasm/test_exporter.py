"""Tests for the OpenQASM 2 exporter and round-tripping."""

import math

import pytest

from repro.circuits import (
    QuantumCircuit,
    bernstein_vazirani,
    deutsch_jozsa,
    ghz,
    grover_search,
    hidden_subgroup,
    phase_estimation,
    qaoa_maxcut,
    qft,
    random_clifford_circuit,
    repetition_code_encoder,
    ripple_carry_adder,
    simon,
    w_state,
)
from repro.qasm import dump_qasm, parse_qasm, write_qasm_file
from repro.simulators import StatevectorSimulator
from repro.utils.linalg import allclose_up_to_global_phase


class TestDump:
    def test_header_and_registers(self):
        circuit = QuantumCircuit(2, 2)
        text = dump_qasm(circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text and "creg c[2];" in text

    def test_gate_lines(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(math.pi / 4, 1).measure(1, 0)
        text = dump_qasm(circuit)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "rz(pi/4) q[1];" in text
        assert "measure q[1] -> c[0];" in text

    def test_pi_formatting(self):
        circuit = QuantumCircuit(1)
        circuit.rz(-math.pi, 0).rz(3 * math.pi / 2, 0).rz(0.123, 0)
        text = dump_qasm(circuit)
        assert "rz(-pi)" in text
        assert "rz(3*pi/2)" in text
        assert "rz(0.123)" in text

    def test_barrier_line(self):
        circuit = QuantumCircuit(3)
        circuit.barrier(0, 2)
        assert "barrier q[0],q[2];" in dump_qasm(circuit)

    def test_write_file(self, tmp_path):
        path = tmp_path / "circuit.qasm"
        write_qasm_file(bernstein_vazirani("101"), path)
        parsed = parse_qasm(path.read_text())
        assert parsed.num_qubits == 4


class TestRoundTrip:
    @pytest.mark.parametrize("circuit_factory", [
        lambda: bernstein_vazirani("1101"),
        lambda: qft(4, measure=True),
    ])
    def test_roundtrip_preserves_semantics(self, circuit_factory, statevector_simulator):
        original = circuit_factory()
        recovered = parse_qasm(dump_qasm(original))
        assert recovered.num_qubits == original.num_qubits
        state_a = statevector_simulator.statevector(original.without_measurements())
        state_b = statevector_simulator.statevector(recovered.without_measurements())
        assert allclose_up_to_global_phase(state_a, state_b)

    def test_roundtrip_preserves_measurement_map(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).measure(0, 2).measure(2, 0)
        recovered = parse_qasm(dump_qasm(circuit))
        assert recovered.measurement_map() == {0: 2, 2: 0}

    @pytest.mark.parametrize("circuit_factory", [
        lambda: bernstein_vazirani("101101"),
        lambda: bernstein_vazirani(),
        lambda: ghz(6),
        lambda: qft(4, measure=True),
        lambda: grover_search(3),
        lambda: deutsch_jozsa(4),
        lambda: simon("110"),
        lambda: hidden_subgroup(4),
        lambda: repetition_code_encoder(5),
        lambda: ripple_carry_adder(2),
        lambda: phase_estimation(3),
        lambda: qaoa_maxcut([(0, 1), (1, 2), (2, 0)], num_qubits=3, gammas=[0.4], betas=[0.9]),
        lambda: w_state(3, measure=True),
        lambda: random_clifford_circuit(5, 4, seed=3, measure=True),
    ])
    def test_roundtrip_keeps_the_declared_classical_width(self, circuit_factory):
        circuit = circuit_factory()
        assert parse_qasm(dump_qasm(circuit)).num_clbits == circuit.num_clbits

    def test_program_without_creg_gets_one_bit_per_qubit(self):
        recovered = parse_qasm('OPENQASM 2.0;\nqreg q[3];\nh q[0];\n')
        assert recovered.num_clbits == 3
