"""Virtual-time weighted-fair queueing across tenants.

:class:`WeightedFairQueue` replaces the service runtime's single priority
heap with per-tenant sub-queues drained in virtual-time order — the classic
start-time-fair-queueing construction, adapted to one twist: *within* a
tenant, items keep the runtime's original ``(-priority, deadline, FIFO)``
order rather than strict FIFO, so a tenant's urgent job still jumps its own
queue.  Because a later push can overtake the head of its tenant's heap,
virtual finish tags cannot be assigned at enqueue time (as textbook SFQ
does); instead each *tenant* carries a virtual-finish account and tags are
computed at dequeue time from the head's cost:

    start(t)  = max(V, finish(t))
    finish(t) = start(t) + cost(head of t) / weight(t)

``pop`` serves the tenant with the smallest candidate finish tag (ties break
on the smaller start tag — the tenant that has waited longest in virtual
time — then on tenant id, so the drain order is a deterministic function of
the push sequence), then advances the global virtual clock ``V`` to the
served start tag.  The start-tag tie-break matters: under some weight
ratios a backlogged tenant's candidate finish can tie the front-runner's on
every pop, and an id-only tie-break would starve it for as long as the
front-runner stays backlogged.  While only one tenant is active this degenerates to exactly the old
single-heap behaviour — the property that keeps every pre-tenancy runtime
test bit-identical.  When the queue runs empty, all virtual-time state
resets, so long-lived services cannot accumulate unbounded float error.

The structure is deliberately service-agnostic (items are opaque, costs are
caller-supplied), synchronization-free (the runtime already serializes
access under its own lock) and import-light (no service dependencies — the
service imports *us*).
"""

from __future__ import annotations

import heapq
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.utils.exceptions import ServiceError

T = TypeVar("T")


class _TenantQueue(Generic[T]):
    """One tenant's sub-queue: an intra-tenant priority heap + WFQ account."""

    __slots__ = ("weight", "heap", "finish")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.heap: List[Tuple[Tuple, int, float, T]] = []
        #: Virtual time at which this tenant's last dequeue finished.
        self.finish = 0.0


class WeightedFairQueue(Generic[T]):
    """Per-tenant priority heaps drained by virtual-time fair scheduling.

    Not thread-safe — callers (the :class:`~repro.service.ServiceRuntime`
    dispatcher) hold their own lock around every operation.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, _TenantQueue[T]] = {}
        self._virtual = 0.0
        self._size = 0
        self._tie = 0  # global push counter: intra-tenant FIFO tie-break

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of queued items (across every tenant)."""
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def depths(self) -> Dict[str, int]:
        """Queued-item count per tenant id (active tenants only), sorted."""
        return {
            tenant_id: len(queue.heap)
            for tenant_id, queue in sorted(self._tenants.items())
            if queue.heap
        }

    # ------------------------------------------------------------------ #
    def push(self, tenant_id: str, weight: float, key: Tuple, item: T, *, cost: float = 1.0) -> None:
        """Enqueue ``item`` for ``tenant_id`` under intra-tenant order ``key``.

        Args:
            tenant_id: The owning tenant (its sub-queue is created on first use).
            weight: The tenant's fair share (a re-push may update it; the
                latest submission's tenant definition wins).
            key: Intra-tenant ordering tuple — the runtime passes
                ``(-priority, absolute deadline)``; a FIFO tie-break is
                appended here.
            item: Opaque payload.
            cost: Virtual service cost charged against the tenant's share
                when this item is dequeued (the runtime charges 1 per group).
        """
        if not isinstance(weight, (int, float)) or weight <= 0:
            raise ServiceError("WeightedFairQueue weights must be positive")
        if not isinstance(cost, (int, float)) or cost <= 0:
            raise ServiceError("WeightedFairQueue costs must be positive")
        queue = self._tenants.get(tenant_id)
        if queue is None:
            queue = _TenantQueue(float(weight))
            self._tenants[tenant_id] = queue
        else:
            queue.weight = float(weight)
        self._tie += 1
        heapq.heappush(queue.heap, (key, self._tie, float(cost), item))
        self._size += 1

    def peek(self) -> T:
        """The item :meth:`pop` would return next, left in the queue.

        Raises:
            ServiceError: The queue is empty.
        """
        chosen_id, _, _ = self._choose()
        return self._tenants[chosen_id].heap[0][3]

    def pop(self) -> T:
        """Dequeue the next item in weighted-fair virtual-time order.

        Raises:
            ServiceError: The queue is empty.
        """
        chosen_id, chosen_start, chosen_finish = self._choose()
        queue = self._tenants[chosen_id]
        _, _, _, item = heapq.heappop(queue.heap)
        queue.finish = chosen_finish
        self._virtual = chosen_start
        self._size -= 1
        if self._size == 0:
            # Idle reset: virtual time is only meaningful while work is
            # queued, and resetting bounds float growth on long-lived services.
            self._virtual = 0.0
            self._tenants.clear()
        return item

    def _choose(self) -> Tuple[str, float, float]:
        """``(tenant id, virtual start, virtual finish)`` of the next dequeue."""
        chosen_id: Optional[str] = None
        chosen_start = 0.0
        chosen_finish = 0.0
        for tenant_id, queue in sorted(self._tenants.items()):
            if not queue.heap:
                continue
            cost = queue.heap[0][2]
            start = max(self._virtual, queue.finish)
            finish = start + cost / queue.weight
            # Smallest finish wins; equal finishes go to the smaller start
            # (the tenant furthest behind in virtual time), then — via the
            # sorted iteration — to the smaller tenant id.
            if chosen_id is None or (finish, start) < (chosen_finish, chosen_start):
                chosen_id, chosen_start, chosen_finish = tenant_id, start, finish
        if chosen_id is None:
            raise ServiceError("Cannot pop from an empty WeightedFairQueue")
        return chosen_id, chosen_start, chosen_finish
