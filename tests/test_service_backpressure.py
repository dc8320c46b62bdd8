"""Property tests for :mod:`repro.service.ingest` backpressure.

Two invariants, enforced under arbitrary interleavings of offers,
single pops (``get_nowait``) and bulk pops (``drain``):

* the bound holds — a :class:`ProbeQueue` never holds more than
  ``maxsize`` items, whatever the policy does to achieve that;
* the conservation law — every submitted probe is accounted for exactly
  once: ``submitted == rejected + dropped_oldest + dequeued
  + lost_on_crash + queued`` — including across crash/restart
  boundaries, where the queue's in-flight probes die with the process
  and must move to ``lost_on_crash`` rather than vanish from the books.

Plus the policy semantics those invariants do not pin on their own:
``reject`` refuses the newcomer (FIFO of survivors intact), while
``drop-oldest`` evicts the head, and a parked consumer receives its
probe by direct hand-off (counted as dequeued, never queued).
"""

import asyncio

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.service.ingest import (
    OVERFLOW_POLICIES,
    Heartbeat,
    ProbeQueue,
    QueueCounters,
)

# An interleaving is a sequence of producer offers and consumer pops:
# one at a time (``get``) or the whole backlog at once (``drain``).
operations = st.lists(
    st.sampled_from(["offer", "get", "drain"]), min_size=0, max_size=200
)
bounds = st.integers(min_value=1, max_value=8)
policies = st.sampled_from(OVERFLOW_POLICIES)


def apply(queue, index, op):
    """Run one operation on ``queue``; return the probes it consumed."""
    if op == "offer":
        queue.offer(Heartbeat(f"sw-{index}", float(index)))
        return []
    if op == "get":
        probe = queue.get_nowait()
        return [] if probe is None else [probe]
    return list(queue.drain())


@given(bounds, policies, operations)
@settings(max_examples=200, deadline=None)
def test_bound_never_exceeded(maxsize, policy, ops):
    queue = ProbeQueue(maxsize, policy)
    for index, op in enumerate(ops):
        apply(queue, index, op)
        assert len(queue) <= maxsize  # after *every* step, not just at the end


@given(bounds, policies, operations)
@settings(max_examples=200, deadline=None)
def test_counters_conserve_every_probe(maxsize, policy, ops):
    queue = ProbeQueue(maxsize, policy)
    model = []  # what the queue must hold, oldest first
    for index, op in enumerate(ops):
        consumed = apply(queue, index, op)
        if op == "offer":
            probe = Heartbeat(f"sw-{index}", float(index))
            if len(model) < maxsize:
                model.append(probe)
            elif policy == "drop-oldest":
                model = model[1:] + [probe]
            # else: ``reject`` turned the newcomer away
        elif op == "get":
            assert consumed == model[:1]
            model = model[1:]
        else:
            assert consumed == model  # the whole backlog, in FIFO order
            model = []
        assert len(queue) == len(model)
        counters = queue.counters
        assert counters.submitted == counters.accounted(len(queue))
    counters = queue.counters
    assert counters.submitted == sum(1 for op in ops if op == "offer")
    assert counters.submitted == counters.accounted(len(queue))
    # The partition is non-negative term by term.
    assert counters.rejected >= 0
    assert counters.dropped_oldest >= 0
    assert counters.dequeued >= 0
    # Policy exclusivity: a queue only ever uses its own overflow arm.
    if policy == "reject":
        assert counters.dropped_oldest == 0
    else:
        assert counters.rejected == 0


@given(bounds, operations)
@settings(max_examples=100, deadline=None)
def test_drop_oldest_preserves_the_newest_probes(maxsize, ops):
    queue = ProbeQueue(maxsize, "drop-oldest")
    alive = []
    for index, op in enumerate(ops):
        if op == "offer":
            probe = Heartbeat(f"sw-{index}", float(index))
            queue.offer(probe)
            alive.append(probe)
            if len(alive) > maxsize:
                alive.pop(0)
        elif op == "drain":
            assert list(queue.drain()) == alive
            alive = []
        elif alive:
            assert queue.get_nowait() == alive.pop(0)
        else:
            assert queue.get_nowait() is None
    # Whatever survives is exactly the newest suffix, in FIFO order.
    drained = []
    probe = queue.get_nowait()
    while probe is not None:
        drained.append(probe)
        probe = queue.get_nowait()
    assert drained == alive


def test_reject_refuses_newcomer_and_keeps_fifo():
    queue = ProbeQueue(2, "reject")
    first, second, third = (
        Heartbeat("a", 0.0), Heartbeat("b", 1.0), Heartbeat("c", 2.0)
    )
    assert queue.offer(first)
    assert queue.offer(second)
    assert not queue.offer(third)  # full: the newcomer bounces
    assert queue.counters.rejected == 1
    assert queue.get_nowait() == first
    assert queue.get_nowait() == second
    assert queue.get_nowait() is None


def test_parked_consumer_gets_direct_handoff():
    async def scenario():
        queue = ProbeQueue(1, "reject")
        getter = asyncio.ensure_future(queue.get())
        await asyncio.sleep(0)  # park the consumer
        probe = Heartbeat("sw", 0.5)
        assert queue.offer(probe)
        received = await getter
        return queue, received, probe

    queue, received, probe = asyncio.run(scenario())
    assert received == probe
    assert len(queue) == 0  # hand-off bypassed the buffer...
    assert queue.counters.dequeued == 1  # ...but is still accounted
    assert queue.counters.submitted == queue.counters.accounted(len(queue))


def test_cancelled_consumer_is_skipped_not_served():
    async def scenario():
        queue = ProbeQueue(4, "reject")
        doomed = asyncio.ensure_future(queue.get())
        await asyncio.sleep(0)
        doomed.cancel()
        await asyncio.gather(doomed, return_exceptions=True)
        probe = Heartbeat("sw", 1.0)
        assert queue.offer(probe)
        # The probe must be queued, not lost in the dead waiter.
        assert queue.get_nowait() == probe
        return queue

    queue = asyncio.run(scenario())
    assert queue.counters.submitted == queue.counters.accounted(len(queue))


def test_constructor_validates_bound_and_policy():
    with pytest.raises(ValueError):
        ProbeQueue(0)
    with pytest.raises(ValueError):
        ProbeQueue(4, policy="drop-newest")


def test_counters_to_dict_round_trip():
    counters = QueueCounters(submitted=5, rejected=1, dropped_oldest=2,
                             dequeued=1)
    assert counters.to_dict() == {
        "submitted": 5, "rejected": 1, "dropped_oldest": 2, "dequeued": 1,
        "lost_on_crash": 0,
    }
    assert counters.accounted(queued_now=1) == 5
    assert QueueCounters.from_dict(counters.to_dict()) == counters


# ----------------------------------------------------------------------
# the crash/restart boundary
# ----------------------------------------------------------------------

# An interleaving that may also crash: the queue snapshots and restarts,
# losing whatever was in flight — but never losing the accounting.
crash_operations = st.lists(
    st.sampled_from(["offer", "get", "drain", "crash"]), min_size=0, max_size=200
)


@given(bounds, policies, crash_operations)
@settings(max_examples=200, deadline=None)
def test_conservation_survives_crash_restart(maxsize, policy, ops):
    queue = ProbeQueue(maxsize, policy)
    expected_lost = 0
    submitted = 0
    for index, op in enumerate(ops):
        if op == "crash":  # snapshot the books, restart on an empty queue
            expected_lost += len(queue)
            queue = ProbeQueue.restore(queue.snapshot())
            assert len(queue) == 0  # queued probes are process memory
        else:
            apply(queue, index, op)
            if op == "offer":
                submitted += 1
        # The law holds after *every* step, crashes included.
        counters = queue.counters
        assert counters.submitted == submitted
        assert counters.submitted == counters.accounted(len(queue))
        assert counters.lost_on_crash == expected_lost
    # Restart preserves configuration alongside the books.
    restored = ProbeQueue.restore(queue.snapshot())
    assert (restored.maxsize, restored.policy) == (maxsize, policy)
    assert restored.counters.submitted == submitted
    assert restored.counters.submitted == restored.counters.accounted(0)


def test_restore_books_in_flight_probes_as_lost():
    queue = ProbeQueue(4, "drop-oldest")
    for index in range(3):
        queue.offer(Heartbeat(f"sw-{index}", float(index)))
    queue.get_nowait()
    restored = ProbeQueue.restore(queue.snapshot())
    assert restored.counters.lost_on_crash == 2  # the two still queued
    assert restored.counters.dequeued == 1
    assert restored.counters.submitted == restored.counters.accounted(0)
