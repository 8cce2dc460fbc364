"""In-memory spans around the public entry points of each QRIO layer.

The benchmark traces the program from the outside: :func:`install` replaces
each entry point listed in :data:`LAYER_ENTRY_POINTS` with a wrapper that
records one span per call, and the returned :class:`Installation` puts every
original back.  Nothing under ``src/`` is edited, and an untraced run never
calls :func:`install`, so its code paths are the program's own.

A span's parent is the innermost open span on the same thread.  A span
opened on a thread with nothing open (a lane worker running ``engine.run``,
the dispatcher running ``engine.match``) is linked to the root span of the
job it serves, which the workload opened on the load-generator thread, so a
job's spans form one tree across threads.  Self time is a span's duration
minus the union of its children's intervals clipped to it, which stays
correct when children overlap each other or outlive the parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import clipped, union_length

#: ``(module, class or None for a module function, attribute, span name)``.
#: Module functions imported with ``from ... import`` are patched in the
#: module that calls them, which is why ``find_embeddings`` is patched in
#: ``repro.matching.scoring`` and not where it is defined.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.service.engines", "OrchestratorEngine", "match", "engines.match"),
    ("repro.service.engines", "OrchestratorEngine", "run", "engines.run"),
    ("repro.service.engines", "OrchestratorEngine", "prepare_run_batch", "engines.prepare_run_batch"),
    ("repro.service.engines", "CloudEngine", "match", "engines.match"),
    ("repro.service.engines", "CloudEngine", "run", "engines.run"),
    ("repro.qasm.parser", "QASMParser", "parse", "qasm.parse"),
    ("repro.transpiler.passes.base", "PassManager", "run", "transpiler"),
    ("repro.transpiler.passes.layout_selection", "VF2PerfectLayoutPass", "run", "transpiler.layout"),
    ("repro.transpiler.passes.layout_selection", "DenseLayoutPass", "run", "transpiler.layout"),
    ("repro.transpiler.passes.routing", "SabreRoutingPass", "run", "transpiler.routing"),
    ("repro.fidelity.canary", "CliffordCanaryEstimator", "estimate", "fidelity.canary"),
    ("repro.fidelity.canary", "CliffordCanaryEstimator", "estimate_many", "fidelity.canary"),
    ("repro.fidelity.estimator", "ESPEstimator", "estimate", "fidelity.esp"),
    ("repro.matching.scoring", None, "find_embeddings", "matching.search"),
    ("repro.matching.scalable", None, "find_exact_embeddings", "matching.search"),
    ("repro.plans.compiler", "PlanCompiler", "compile", "plans.compile"),
    ("repro.plans.schedule", None, "execute_merged_program", "plans.merged"),
    ("repro.simulators.noisy", "NoisyStatevectorSimulator", "run", "simulators.statevector"),
    ("repro.simulators.noisy", "NoisyStabilizerSimulator", "run", "simulators.stabilizer"),
    ("repro.cloud.simulation", "CloudSession", "route", "cloud.route"),
    ("repro.cloud.simulation", "CloudSession", "execute", "cloud.execute"),
    ("repro.policies.api", "PlacementPolicy", "decide", "policies.decide"),
    ("repro.scenarios.runner", "ScenarioRunner", "replay", "scenarios.replay"),
    ("repro.scenarios.events", "FaultInjector", "advance_to", "scenarios.fault_advance"),
)


def _job_of(name: str, args: tuple) -> Optional[str]:
    """The job a call serves, read from the engine protocol's arguments."""
    if name == "engines.match" and len(args) >= 3:
        return args[2]
    if name == "engines.run" and len(args) >= 2:
        return getattr(args[1], "job_name", None)
    return None


def _size_of(name: str, args: tuple, result) -> int:
    """A per-call work count: placements per batch, lanes per merge, actions fired."""
    if name == "engines.prepare_run_batch" and len(args) >= 2:
        return len(args[1])
    if name == "plans.merged" and len(args) >= 3:
        return len(args[2])  # one seed per merged lane
    if name == "scenarios.fault_advance" and isinstance(result, int):
        return result
    return 0


@dataclass
class Span:
    """One timed call: ``[start, end]`` on the tracer's clock."""

    id: int
    parent: Optional[int]
    name: str
    job: Optional[str]
    thread: int
    start: float
    end: float = 0.0
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; the clock is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: Dict[str, int] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_root(self, job: str, start: float) -> Span:
        """Open the root span of ``job``; spans without a local parent join it."""
        span = Span(next(self._ids), None, "job", job, threading.get_ident(), start)
        self._roots[job] = span.id
        self.spans.append(span)
        return span

    @staticmethod
    def close_root(span: Span, end: float) -> None:
        """Close a root span at ``end`` (a job's terminal event time)."""
        span.end = end

    def begin(self, name: str, job: Optional[str] = None) -> Span:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1].id
            job = job or stack[-1].job
        else:
            parent = self._roots.get(job) if job is not None else None
        span = Span(next(self._ids), parent, name, job, threading.get_ident(), self.clock())
        stack.append(span)
        return span

    def end(self, span: Span, size: int = 0) -> None:
        """Close ``span`` (the innermost open span of this thread)."""
        span.end = self.clock()
        span.size = size
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, function: Callable, name: str) -> Callable:
        """A wrapper of ``function`` that records one ``name`` span per call."""

        def traced(*args, **kwargs):
            span = self.begin(name, _job_of(name, args))
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.end(span, _size_of(name, args, result))

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.start):
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


class Installation:
    """The originals replaced by :func:`install`; :meth:`restore` puts them back."""

    def __init__(self) -> None:
        #: ``(owner, attribute, owned, original)`` — ``owned`` is whether the
        #: attribute lived in the owner's own ``__dict__`` before patching.
        self.replaced: List[Tuple[object, str, bool, object]] = []

    def restore(self) -> None:
        for owner, attribute, owned, original in reversed(self.replaced):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self.replaced.clear()


def _owner(module_name: str, class_name: Optional[str]):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point; the caller must :meth:`~Installation.restore`."""
    installation = Installation()
    try:
        for module_name, class_name, attribute, span_name in LAYER_ENTRY_POINTS:
            owner = _owner(module_name, class_name)
            owned = attribute in vars(owner)
            original = vars(owner)[attribute] if owned else getattr(owner, attribute)
            installation.replaced.append((owner, attribute, owned, original))
            setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), span_name))
    except BaseException:
        installation.restore()
        raise
    return installation


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    table: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            table.setdefault(span.parent, []).append(span)
    return table


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """Duration minus the part of it covered by the span's children."""
    kids = children.get(span.id, ())
    covered = union_length(clipped(((kid.start, kid.end) for kid in kids), span.start, span.end))
    return span.duration - covered


def outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` with no ``name`` span among their ancestors.

    Summing these counts a layer's time once when the layer re-enters
    itself (``estimate_many`` calling ``estimate``, nested pass managers).
    """
    by_id = {span.id: span for span in spans}
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            chosen.append(span)
    return chosen


def covered_fraction(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans (no parent)."""
    if end <= start:
        return 0.0
    tops = [(span.start, span.end) for span in spans if span.parent is None]
    return union_length(clipped(tops, start, end)) / (end - start)
