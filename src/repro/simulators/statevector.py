"""Noise-free statevector simulation.

This simulator plays the role of the "noise-free simulator (e.g. QASM
simulator)" from the paper: the oracle scheduling baseline records correct
outputs with it, and the transpiler's equivalence tests use it to check that
compiled circuits still implement the original computation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import SimulationError
from repro.utils.rng import SeedLike, ensure_generator

#: Refuse to allocate statevectors beyond this width; wider circuits must be
#: compacted onto their active qubits first (see :func:`compact_circuit`).
MAX_STATEVECTOR_QUBITS = 22


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    *,
    overwrite: bool = False,
) -> np.ndarray:
    """Apply a k-qubit ``matrix`` to ``qubits`` of ``state``.

    ``state`` may be a single statevector of shape ``(2**num_qubits,)`` or a
    batch of statevectors of shape ``(batch, 2**num_qubits)``; the same gate
    is applied to every batch entry (the batched form is how the Monte-Carlo
    noisy simulator evolves all shots at once).  With ``overwrite=True`` the
    input buffer may hold intermediate results, so the caller must not read
    ``state`` afterwards; the noisy simulator's shot batches then need two
    state-sized buffers per gate instead of three.

    The general path is ``np.tensordot(gate, state)`` with its axis
    bookkeeping precomputed per ``(batch rank, qubits, width)``: the same
    operands reach the same ``np.dot``, so the amplitudes are bit-identical.
    Gates with one unit entry (``±1``/``±i``) per row — CX, CZ, SWAP and the
    Paulis — are applied as a permutation with phases instead, which is exact:
    the BLAS sum adds only signed zeros to the one product, so every nonzero
    amplitude comes out the same and only the sign of a zero may differ.
    """
    state = np.asarray(state, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    side = 2**k
    if matrix.shape != (side, side):
        raise SimulationError(f"Matrix shape {matrix.shape} does not act on {k} qubit(s)")
    plan = _contraction_plan(state.ndim - 1, tuple(qubits), num_qubits)
    original_shape = state.shape
    tensor = state.reshape(original_shape[:-1] + (2,) * num_qubits)
    monomial = _unit_monomial(matrix.tobytes(), side)
    if monomial is not None:
        result = np.empty_like(tensor)
        for row, (column, phase) in enumerate(monomial):
            source = tensor[plan.selectors[column]]
            result[plan.selectors[row]] = source if phase == 1 else phase * source
        return result.reshape(original_shape)
    # What np.tensordot(gate_tensor, tensor, axes=(input_axes, qubit_axes))
    # does: gate output axes first, the contracted state axes moved to the
    # front of the operand, one np.dot.
    gate = matrix.reshape((2,) * (2 * k)).transpose(plan.gate_axes).reshape(side, side)
    operand = tensor.transpose(plan.state_axes).reshape(side, state.size // side)
    target = None
    if overwrite and state.flags.c_contiguous and not np.may_share_memory(operand, state):
        target = state.reshape(operand.shape)
    contracted = np.dot(gate, operand, out=target)
    del operand
    contracted = contracted.reshape(plan.contracted_shape(tensor.shape))
    # Restore the canonical axis order before reshaping back.
    return contracted.transpose(plan.restore_order).reshape(original_shape)


@dataclass(frozen=True)
class _ContractionPlan:
    """Axis bookkeeping of :func:`apply_matrix` for one gate placement."""

    gate_axes: Tuple[int, ...]
    state_axes: Tuple[int, ...]
    restore_order: Tuple[int, ...]
    #: ``selectors[i]`` indexes the slice of the state tensor whose gate-local
    #: basis index is ``i`` (bit ``p`` of ``i`` is the value of ``qubits[p]``).
    selectors: Tuple[Tuple[object, ...], ...]

    def contracted_shape(self, tensor_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        k = len(self.gate_axes) // 2
        return (2,) * k + tuple(tensor_shape[axis] for axis in self.state_axes[k:])


@functools.lru_cache(maxsize=4096)
def _contraction_plan(batch_ndim: int, qubits: Tuple[int, ...], num_qubits: int) -> _ContractionPlan:
    k = len(qubits)
    # Axis of qubit q in the reshaped tensor (little-endian: qubit 0 is the
    # least significant bit, i.e. the last axis).
    qubit_axes = [batch_ndim + (num_qubits - 1 - q) for q in qubits]
    input_axes = [k + (k - 1 - p) for p in range(k)]
    total_axes = batch_ndim + num_qubits
    remaining = [axis for axis in range(total_axes) if axis not in qubit_axes]
    # The contraction leaves the gate's output axes first (most significant
    # local bit first) followed by the uncontracted axes in original order.
    position: Dict[int, int] = {}
    for p in range(k):
        position[qubit_axes[p]] = k - 1 - p
    for offset, axis in enumerate(remaining):
        position[axis] = k + offset
    selectors = []
    for local in range(2**k):
        index: List[object] = [slice(None)] * total_axes
        for p in range(k):
            index[qubit_axes[p]] = (local >> p) & 1
        selectors.append(tuple(index))
    return _ContractionPlan(
        gate_axes=tuple(range(k)) + tuple(input_axes),
        state_axes=tuple(qubit_axes + remaining),
        restore_order=tuple(position[axis] for axis in range(total_axes)),
        selectors=tuple(selectors),
    )


_UNIT_PHASES = (1, -1, 1j, -1j)


@functools.lru_cache(maxsize=1024)
def _unit_monomial(raw: bytes, side: int) -> Optional[Tuple[Tuple[int, complex], ...]]:
    """``((column, phase), ...)`` per row when every row holds one ``±1``/``±i``.

    Keyed by the matrix bytes, so the fixed gates (CX, the Paulis) are
    classified once.
    """
    matrix = np.frombuffer(raw, dtype=complex).reshape(side, side)
    if np.count_nonzero(matrix) != side:
        return None
    columns = np.argmax(matrix != 0, axis=1).tolist()
    phases = matrix[np.arange(side), columns].tolist()
    if len(set(columns)) != side or any(phase not in _UNIT_PHASES for phase in phases):
        return None
    return tuple(zip(columns, phases))


def compact_circuit(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[int, int]]:
    """Compress ``circuit`` onto its active qubits.

    Transpiled circuits are as wide as their target device (up to 100 qubits
    in the paper's fleet) but only touch a handful of physical qubits.  This
    helper relabels the active qubits ``0..k-1`` so the statevector and
    stabilizer simulators only pay for the qubits that matter.

    Returns the compacted circuit and the mapping from original (physical)
    qubit index to compacted index.
    """
    active = sorted(circuit.used_qubits())
    if not active:
        empty = QuantumCircuit(1, max(circuit.num_clbits, 1), name=circuit.name)
        return empty, {}
    mapping = {physical: logical for logical, physical in enumerate(active)}
    compact = QuantumCircuit(len(active), circuit.num_clbits, name=circuit.name)
    compact.metadata = dict(circuit.metadata)
    for instruction in circuit:
        if instruction.name == "barrier":
            qubits = tuple(mapping[q] for q in instruction.qubits if q in mapping)
            if qubits:
                compact.append(Instruction("barrier", qubits))
            continue
        qubits = tuple(mapping[q] for q in instruction.qubits)
        compact.append(Instruction(instruction.name, qubits, instruction.clbits, instruction.params))
    return compact, mapping


class StatevectorSimulator:
    """Exact simulator producing final statevectors and sampled counts."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    # ------------------------------------------------------------------ #
    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector of the unitary part of ``circuit``.

        Measurements are ignored (they only define which bits are sampled);
        resets and mid-circuit measurement followed by further gates on the
        same qubit are rejected.
        """
        self._validate(circuit)
        num_qubits = circuit.num_qubits
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        for instruction in circuit:
            if instruction.is_directive:
                continue
            state = apply_matrix(state, instruction.matrix(), instruction.qubits, num_qubits)
        return state

    def probabilities(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Return the ideal outcome distribution over the measured clbits."""
        state = self.statevector(circuit)
        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        return _project_probabilities(state, measurement_map, circuit.num_qubits, circuit.num_clbits)

    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> SimulationResult:
        """Execute ``circuit`` and sample ``shots`` measurement outcomes."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        state = self.statevector(circuit)
        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        distribution = _project_probabilities(
            state, measurement_map, circuit.num_qubits, circuit.num_clbits
        )
        outcomes = list(distribution.keys())
        probabilities = np.array([distribution[o] for o in outcomes])
        probabilities = probabilities / probabilities.sum()
        samples = self._rng.multinomial(shots, probabilities)
        counts = {outcome: int(count) for outcome, count in zip(outcomes, samples) if count > 0}
        return SimulationResult(
            counts=counts,
            shots=shots,
            statevector=state,
            metadata={"simulator": "statevector", "ideal": True},
        )

    # ------------------------------------------------------------------ #
    def _validate(self, circuit: QuantumCircuit) -> None:
        if circuit.num_qubits > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(
                f"Circuit has {circuit.num_qubits} qubits; statevector simulation is "
                f"limited to {MAX_STATEVECTOR_QUBITS}. Compact the circuit onto its "
                "active qubits with compact_circuit() first."
            )
        measured: set = set()
        for instruction in circuit:
            if instruction.name == "reset":
                raise SimulationError("StatevectorSimulator does not support reset")
            if instruction.is_measurement:
                measured.add(instruction.qubits[0])
            elif not instruction.is_directive:
                overlap = measured.intersection(instruction.qubits)
                if overlap:
                    raise SimulationError(
                        "Mid-circuit measurement followed by further gates on qubit(s) "
                        f"{sorted(overlap)} is not supported"
                    )


def _project_probabilities(
    state: np.ndarray,
    measurement_map: Dict[int, int],
    num_qubits: int,
    num_clbits: int,
) -> Dict[str, float]:
    """Project state probabilities onto measured classical bits."""
    probabilities = np.abs(state) ** 2
    distribution: Dict[str, float] = {}
    width = max(num_clbits, 1)
    measured_qubits = sorted(measurement_map)
    for basis_index, probability in enumerate(probabilities):
        if probability < 1e-15:
            continue
        bits = ["0"] * width
        for qubit in measured_qubits:
            clbit = measurement_map[qubit]
            bit = (basis_index >> qubit) & 1
            bits[width - 1 - clbit] = str(bit)
        key = "".join(bits)
        distribution[key] = distribution.get(key, 0.0) + float(probability)
    return distribution
