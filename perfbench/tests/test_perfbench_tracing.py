"""Span arithmetic and the install/restore contract of the layer wrappers."""

import threading

import pytest

import tracing
import workloads


def current_entry_points():
    """``{(module, class, attribute): the owner's own attribute}`` right now."""
    return {
        (module_name, class_name, attribute): vars(tracing._owner(module_name, class_name)).get(attribute)
        for module_name, class_name, attribute, _ in tracing.LAYER_ENTRY_POINTS
    }


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.begin("outer")
    clock.now = 2.0
    middle = tracer.begin("middle")
    clock.now = 3.0
    inner = tracer.begin("inner")
    clock.now = 4.0
    tracer.end(inner)
    clock.now = 5.0
    tracer.end(middle)
    clock.now = 10.0
    tracer.end(outer)
    children = tracing.children_of(tracer.spans)
    assert middle.parent == outer.id and inner.parent == middle.id
    assert tracing.self_time(outer, children) == pytest.approx(7.0)
    assert tracing.self_time(middle, children) == pytest.approx(2.0)
    assert tracing.self_time(inner, children) == pytest.approx(1.0)


def test_cross_thread_children_join_the_job_root_and_overlaps_count_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    root = tracer.open_root("job-1", 0.0)
    spans = {}

    def work(name, start, end):
        clock.now = start
        span = tracer.begin(name, job="job-1")
        clock.now = end
        tracer.end(span)
        spans[name] = span

    # Sequential threads with an injected clock: two overlapping children
    # ([1, 4] and [3, 6]) and one that outlives the root ([8, 12]).
    for args in (("a", 1.0, 4.0), ("b", 3.0, 6.0), ("late", 8.0, 12.0)):
        thread = threading.Thread(target=work, args=args)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    tracer.close_root(root, 10.0)
    assert {span.parent for span in spans.values()} == {root.id}
    assert len({span.thread for span in spans.values()} | {root.thread}) > 1
    children = tracing.children_of(tracer.spans)
    # Covered: [1, 6] plus [8, 10] = 7 of the root's 10 seconds.
    assert tracing.self_time(root, children) == pytest.approx(3.0)
    assert tracing.covered_fraction(tracer.spans, 0.0, 20.0) == pytest.approx(0.5)


def test_outermost_counts_reentrant_layers_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.begin("fidelity.canary")
    inner = tracer.begin("fidelity.canary")
    other = tracer.begin("transpiler")
    tracer.end(other)
    tracer.end(inner)
    tracer.end(outer)
    assert tracing.outermost(tracer.spans, "fidelity.canary") == [outer]
    assert tracing.outermost(tracer.spans, "transpiler") == [other]


def test_wrapper_records_sizes_and_propagates_errors():
    tracer = tracing.Tracer()

    def boom(*args):
        raise ValueError("boom")

    wrapped = tracer.wrap(boom, "plans.merged")
    with pytest.raises(ValueError):
        wrapped(None, None, [1, 2, 3])
    (span,) = tracer.spans
    assert span.name == "plans.merged" and span.end >= span.start and span.size == 3


def test_install_wraps_every_entry_point_and_restore_puts_originals_back():
    before = current_entry_points()
    installation = tracing.install(tracing.Tracer())
    try:
        for module_name, class_name, attribute, _ in tracing.LAYER_ENTRY_POINTS:
            owner = tracing._owner(module_name, class_name)
            assert hasattr(getattr(owner, attribute), "__wrapped__"), (module_name, class_name, attribute)
    finally:
        installation.restore()
    assert current_entry_points() == before
    for module_name, class_name, attribute, _ in tracing.LAYER_ENTRY_POINTS:
        owner = tracing._owner(module_name, class_name)
        assert not hasattr(getattr(owner, attribute), "__wrapped__")


def test_untraced_run_never_installs_wrappers(monkeypatch):
    calls = []
    original = tracing.install

    def spy(tracer, *args, **kwargs):
        calls.append(tracer)
        return original(tracer, *args, **kwargs)

    monkeypatch.setattr(tracing, "install", spy)
    before = current_entry_points()
    workloads.run("cold-mix", 1, 0.0, 1, traced=False)
    assert calls == []
    payload = workloads.run("cold-mix", 1, 0.0, 1, traced=True)
    assert len(calls) == 1
    assert payload["span_metrics"]["engines.match.self_ms_per_job"] > 0
    assert current_entry_points() == before
