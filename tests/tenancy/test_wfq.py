"""WeightedFairQueue: single-tenant heap equivalence, weighted interleave,
starvation-freedom, idle reset and validation."""

import heapq

import pytest

from repro.tenancy import WeightedFairQueue
from repro.utils.exceptions import ServiceError


def drain(queue):
    items = []
    while queue:
        items.append(queue.pop())
    return items


class TestSingleTenantEquivalence:
    """One active tenant must degenerate to the runtime's old single heap —
    the property that keeps every pre-tenancy runtime test bit-identical."""

    def test_fifo_among_equal_keys(self):
        queue = WeightedFairQueue()
        for index in range(10):
            queue.push("default", 1.0, (0, float("inf")), f"job-{index}")
        assert drain(queue) == [f"job-{index}" for index in range(10)]

    def test_priority_then_deadline_then_fifo(self):
        # The runtime's key is (-priority, absolute deadline); replicate a
        # mixed push sequence and compare against a plain heapq reference.
        pushes = [
            ((0, float("inf")), "low-a"),
            ((-5, float("inf")), "high-a"),
            ((0, 12.0), "low-deadline"),
            ((-5, 3.0), "high-deadline"),
            ((0, float("inf")), "low-b"),
            ((-5, float("inf")), "high-b"),
        ]
        queue = WeightedFairQueue()
        reference = []
        for tie, (key, item) in enumerate(pushes):
            queue.push("default", 1.0, key, item)
            heapq.heappush(reference, (key, tie, item))
        expected = []
        while reference:
            _, _, item = heapq.heappop(reference)
            expected.append(item)
        assert drain(queue) == expected

    def test_late_urgent_push_jumps_its_own_queue(self):
        queue = WeightedFairQueue()
        queue.push("default", 1.0, (0, float("inf")), "routine")
        queue.push("default", 1.0, (-9, float("inf")), "urgent")
        assert queue.pop() == "urgent"
        assert queue.pop() == "routine"


class TestWeightedFairness:
    def test_equal_weights_interleave_backlogged_tenants(self):
        queue = WeightedFairQueue()
        for index in range(4):
            queue.push("alpha", 1.0, (0, float("inf")), f"a{index}")
        for index in range(4):
            queue.push("bravo", 1.0, (0, float("inf")), f"b{index}")
        assert drain(queue) == ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"]

    def test_two_to_one_weight_gives_two_to_one_service(self):
        queue = WeightedFairQueue()
        for index in range(8):
            queue.push("heavy", 2.0, (0, float("inf")), "H")
        for index in range(4):
            queue.push("light", 1.0, (0, float("inf")), "L")
        order = drain(queue)
        # In every window of 3 consecutive dequeues while both are
        # backlogged, the weight-2 tenant is served exactly twice.
        while_both = order[:9]
        for start in range(0, 9, 3):
            window = while_both[start:start + 3]
            assert window.count("H") == 2 and window.count("L") == 1

    def test_burst_cannot_starve_a_trickle_tenant(self):
        queue = WeightedFairQueue()
        for index in range(50):
            queue.push("burster", 1.0, (0, float("inf")), ("burst", index))
        queue.push("victim", 1.0, (0, float("inf")), ("victim", 0))
        order = drain(queue)
        position = order.index(("victim", 0))
        # With equal weights the victim's single job is served within the
        # first couple of dequeues, never behind the whole burst.
        assert position <= 2

    def test_depths_reports_active_tenants_sorted(self):
        queue = WeightedFairQueue()
        queue.push("bravo", 1.0, (0, 0.0), "b")
        queue.push("alpha", 1.0, (0, 0.0), "a1")
        queue.push("alpha", 1.0, (0, 0.0), "a2")
        assert queue.depths() == {"alpha": 2, "bravo": 1}
        assert len(queue) == 3 and bool(queue)


class TestIdleResetAndValidation:
    def test_idle_reset_forgets_virtual_time_history(self):
        queue = WeightedFairQueue()
        for _ in range(6):
            queue.push("greedy", 1.0, (0, float("inf")), "g")
        drain(queue)
        # After going idle, the formerly-greedy tenant starts from a clean
        # account: a fresh two-tenant backlog interleaves from the start.
        queue.push("greedy", 1.0, (0, float("inf")), "g")
        queue.push("fresh", 1.0, (0, float("inf")), "f")
        queue.push("greedy", 1.0, (0, float("inf")), "g")
        queue.push("fresh", 1.0, (0, float("inf")), "f")
        order = drain(queue)
        assert order[:2] in (["g", "f"], ["f", "g"])
        assert sorted(order[2:]) == ["f", "g"]

    def test_peek_names_the_next_pop_without_consuming_it(self):
        queue = WeightedFairQueue()
        for index in range(3):
            queue.push("burst", 1.0, (0, float("inf")), f"burst-{index}")
        queue.push("trickle", 1.0, (0, float("inf")), "trickle-0")
        order = []
        while queue:
            peeked = queue.peek()
            order.append(queue.pop())
            assert order[-1] == peeked
        assert order == ["burst-0", "trickle-0", "burst-1", "burst-2"]
        with pytest.raises(ServiceError):
            queue.peek()

    def test_pop_empty_raises(self):
        with pytest.raises(ServiceError):
            WeightedFairQueue().pop()

    @pytest.mark.parametrize("weight", [0, -1.0, "heavy"])
    def test_rejects_non_positive_weights(self, weight):
        with pytest.raises(ServiceError):
            WeightedFairQueue().push("t", weight, (0, 0.0), "item")

    @pytest.mark.parametrize("cost", [0, -2.0])
    def test_rejects_non_positive_costs(self, cost):
        with pytest.raises(ServiceError):
            WeightedFairQueue().push("t", 1.0, (0, 0.0), "item", cost=cost)

    def test_repush_updates_the_tenant_weight(self):
        queue = WeightedFairQueue()
        queue.push("shift", 1.0, (0, float("inf")), "s0")
        # The latest submission's tenant definition wins.
        queue.push("shift", 4.0, (0, float("inf")), "s1")
        queue.push("other", 1.0, (0, float("inf")), "o0")
        queue.push("other", 1.0, (0, float("inf")), "o1")
        order = drain(queue)
        # Weight 4 vs 1: both 'shift' jobs drain before the second 'other'.
        assert order.index("s1") < order.index("o1")
