"""Max-min fair bandwidth allocation by progressive filling.

The fluid model of TCP sharing: between events every active flow
transfers at the max-min fair rate over its fixed path.  Progressive
filling computes the unique max-min allocation exactly:

1. every unfrozen flow's rate grows uniformly until some directed link
   segment saturates — the *bottleneck*, the segment with the smallest
   ``remaining_capacity / unfrozen_flow_count``;
2. flows crossing the bottleneck are frozen at that fair share, the
   capacity they consume is subtracted everywhere along their paths;
3. repeat until every flow is frozen.

Invariants (property-tested in ``tests/test_fairshare_properties.py``):

* feasibility — no segment carries more than its capacity;
* saturation — every flow is limited by at least one saturated segment
  (work conservation / Pareto efficiency);
* fairness — a flow's rate can't be raised without lowering the rate of
  some flow with an equal or smaller rate.

Implementation notes.  The solver is *component-decomposed*: the
flow↔segment conflict graph (flows adjacent when their paths share a
directed segment) is partitioned into connected components and each
component is solved independently.  Progressive filling is separable —
a bottleneck freeze in one component never touches capacity or counts
in another — so the decomposition is exact: solving a component alone
produces *bit-identical* rates to solving it inside the full problem.

The core (:func:`allocate_dense`) works on dense integer ids: flows are
positions in the input list, segments index a flat capacity array, and
the per-component state (remaining capacity, unfrozen counts, frozen
flags) lives in flat lists instead of dict-of-sets.

Bottleneck selection is *ripe-pass* progressive filling, the canonical
semantics shared bit-for-bit with the vectorized kernel
(:func:`repro.simulation.columnar.waterfill`).  Each pass:

1. every live segment's fair share is ``remaining / count``;
2. every unfrozen flow's level is the minimum share along its path;
3. a segment is **ripe** when every unfrozen flow crossing it sits at
   that segment's share (i.e. the segment is the genuine bottleneck of
   everything it carries);
4. every flow touching a ripe segment at its own level freezes there —
   one pass freezes *all* current bottleneck levels at once, not just
   the global minimum;
5. the frozen flows' consumption is accumulated per segment in
   ascending flow order and subtracted once, counts are decremented,
   and negative float residue is clamped to zero at pass end.

At least one flow freezes per pass (the globally minimal segment is
always ripe), so the loop terminates in at most ``levels`` passes and
usually far fewer.  Every arithmetic step — the division, the ordered
minimum, the per-segment accumulation order, the single subtraction,
the end-of-pass clamp — is specified exactly so that this scalar
solver, solved per component, reproduces the vectorized full-problem
kernel bit-for-bit: IEEE-754 minimum is exact (order-free), and both
sides accumulate each segment's per-pass delta in ascending flow
order before one subtraction.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

__all__ = [
    "max_min_rates",
    "allocate_dense",
    "AllocatorWorkspace",
    "FairShareError",
]


class FairShareError(ValueError):
    """Raised on malformed allocation inputs (empty paths, bad capacity)."""


class AllocatorWorkspace:
    """Reusable dense scratch for :func:`allocate_dense`.

    One of these per engine avoids re-allocating O(num_segments) arrays
    on every reallocation.  Between calls every ``members`` list is
    empty, ``seg_mark`` is all-zero, and every ``delta`` slot is zero;
    ``remaining``/``counts``/``share``/``tightcnt`` carry stale values
    that the next call overwrites for the segments it uses before
    reading them.
    """

    def __init__(self, num_segments: int) -> None:
        self.members: list[list[int]] = [[] for _ in range(num_segments)]
        self.remaining: list[float] = [0.0] * num_segments
        self.counts: list[int] = [0] * num_segments
        self.seg_mark = bytearray(num_segments)
        #: Per-pass scratch for :func:`_solve_component`.
        self.share: list[float] = [0.0] * num_segments
        self.tightcnt: list[int] = [0] * num_segments
        self.delta: list[float] = [0.0] * num_segments


def _solve_component(
    comp_segs: list[int],
    comp_flows: list[int],
    paths: list[tuple[int, ...]],
    remaining: list[float],
    counts: list[int],
    frozen: bytearray,
    rates: list[float],
    share: list[float],
    tightcnt: list[int],
    delta: list[float],
) -> None:
    """Ripe-pass progressive filling over one connected component.

    Lists: ``remaining``/``share``/``delta`` float and ``counts``/
    ``tightcnt`` int, one slot per segment; ``rates`` float per flow.

    ``comp_flows`` must be the component's flow indices in ascending
    problem order — the order fixes the per-segment delta accumulation
    and therefore the exact floats.  ``share``/``tightcnt``/``delta``
    are shared dense scratch; ``delta`` is all-zero on entry and on
    exit, the other two are overwritten before being read.

    The result is a pure function of the component, and — because the
    pass structure of one component is untouched by any other — solving
    it alone is bit-identical to solving it inside the full problem.
    This is the same guarantee the vectorized kernel
    (:func:`repro.simulation.columnar.waterfill`) leans on: it solves
    the full problem in one batch and must agree with these
    per-component solves to the last bit.
    """
    live = comp_segs
    unfrozen = comp_flows
    while unfrozen:
        for s in live:
            share[s] = remaining[s] / counts[s]
            tightcnt[s] = 0
        # Pass 1: every unfrozen flow's level is the min share on its
        # path; count how many unfrozen flows sit exactly at each
        # segment's share ("tight" crossings).
        levels: list[float] = []
        for f in unfrozen:
            path = paths[f]
            fm = share[path[0]]
            for s in path[1:]:
                v = share[s]
                if v < fm:
                    fm = v
            levels.append(fm)
            for s in path:
                if share[s] == fm:
                    tightcnt[s] += 1
        # Pass 2: a segment is ripe when *all* its unfrozen crossings
        # are tight; flows at a ripe segment's share freeze there.
        progressed = False
        for f, fm in zip(unfrozen, levels):
            for s in paths[f]:
                if tightcnt[s] == counts[s] and share[s] == fm:
                    frozen[f] = 1
                    rates[f] = fm
                    progressed = True
                    break
        if not progressed:  # pragma: no cover - the min segment is always ripe
            raise FairShareError("progressive filling stalled")
        # Pass 3: accumulate the frozen flows' consumption per segment
        # in ascending flow order, subtract once, clamp at pass end —
        # exactly the float schedule the vectorized kernel follows.
        for f, fm in zip(unfrozen, levels):
            if frozen[f]:
                for s in paths[f]:
                    delta[s] += fm
                    counts[s] -= 1
        for s in live:
            remaining[s] -= delta[s]
            delta[s] = 0.0
            if remaining[s] < 0.0:  # float residue
                remaining[s] = 0.0
        unfrozen = [f for f in unfrozen if not frozen[f]]
        live = [s for s in live if counts[s]]


def allocate_dense(
    pairs: Sequence[tuple[Hashable, tuple[int, ...]]],
    capacities: Sequence[float],
    workspace: AllocatorWorkspace | None = None,
) -> dict[Hashable, float]:
    """Max-min rates for flows whose paths are dense integer segment ids.

    Args:
        pairs: ordered ``(key, path)`` items; each path is a tuple of
            indices into ``capacities``, with no duplicate segment
            within one path.  The order is significant: it fixes the
            per-segment accumulation order of each ripe pass, hence the
            exact floats.
        capacities: segment id → capacity in bits/s.
        workspace: optional reusable scratch (one per engine); a fresh
            one is allocated when omitted.

    Returns:
        key → allocated rate (bits/s), in input order.

    The problem is split into conflict-graph components and each is
    solved by :func:`_solve_component` over its own segments and flows,
    so any sub-slice of ``pairs`` that covers whole components yields
    rates bit-identical to solving the full problem.
    """
    if not pairs:
        return {}

    ws = workspace if workspace is not None else AllocatorWorkspace(len(capacities))
    members = ws.members
    remaining = ws.remaining
    counts = ws.counts
    seg_mark = ws.seg_mark

    nflows = len(pairs)
    paths: list[tuple[int, ...]] = []
    used: list[int] = []  # segment ids of this problem, first-seen order
    try:
        for idx, (key, path) in enumerate(pairs):
            if not path:
                raise FairShareError(f"flow {key!r} has an empty path")
            for s in path:
                m = members[s]
                if not m:
                    used.append(s)
                m.append(idx)
            paths.append(path)
        for s in used:
            cap = float(capacities[s])
            if cap < 0:
                raise FairShareError(f"segment {s} has negative capacity {cap}")
            remaining[s] = cap
            counts[s] = len(members[s])

        rates = [0.0] * nflows
        frozen = bytearray(nflows)

        visited = bytearray(nflows)
        for start in range(nflows):
            if visited[start]:
                continue
            # Collect the component by BFS over shared segments, then
            # sort it into problem order so per-component results
            # match the full solve bit-for-bit.
            visited[start] = 1
            comp_flows = [start]
            stack = [start]
            while stack:
                f = stack.pop()
                for s in paths[f]:
                    if seg_mark[s]:
                        continue
                    seg_mark[s] = 1
                    for nf in members[s]:
                        if not visited[nf]:
                            visited[nf] = 1
                            comp_flows.append(nf)
                            stack.append(nf)
            comp_flows.sort()
            # The BFS left this component's segments marked; collect
            # them in first-seen order (clearing the marks as we go).
            comp_segs: list[int] = []
            for f in comp_flows:
                for s in paths[f]:
                    if seg_mark[s]:
                        seg_mark[s] = 0
                        comp_segs.append(s)
            _solve_component(
                comp_segs,
                comp_flows,
                paths,
                remaining,
                counts,
                frozen,
                rates,
                ws.share,
                ws.tightcnt,
                ws.delta,
            )
    finally:
        for s in used:
            members[s].clear()
            seg_mark[s] = 0

    return {key: rates[idx] for idx, (key, _) in enumerate(pairs)}


def max_min_rates(
    flow_segments: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
) -> dict[Hashable, float]:
    """Max-min fair rates for ``flow_segments`` under ``capacities``.

    The public entry point: validates its inputs, interns segments to
    dense ids, and defers to :func:`allocate_dense` — the same core the
    engine's oracle allocator uses.

    Args:
        flow_segments: flow id → the directed segments its path crosses.
            Every flow must cross at least one segment (a host is always
            behind its access link, so this holds by construction).
        capacities: segment → capacity in bits/s.  Segments missing from
            the map are an error — silently infinite links hide wiring bugs.

    Returns:
        flow id → allocated rate (bits/s).
    """
    if not flow_segments:
        return {}

    seg_ids: dict[Hashable, int] = {}
    caps: list[float] = []
    pairs: list[tuple[Hashable, tuple[int, ...]]] = []
    for flow, segments in flow_segments.items():
        if not segments:
            raise FairShareError(f"flow {flow!r} has an empty path")
        path: list[int] = []
        for seg in segments:
            sid = seg_ids.get(seg)
            if sid is None:
                if seg not in capacities:
                    raise FairShareError(f"segment {seg!r} has no capacity entry")
                cap = float(capacities[seg])
                if cap < 0:
                    raise FairShareError(
                        f"segment {seg!r} has negative capacity {cap}"
                    )
                sid = len(caps)
                seg_ids[seg] = sid
                caps.append(cap)
            path.append(sid)
        if len(path) > 1 and len(set(path)) != len(path):
            path = list(dict.fromkeys(path))  # drop repeats, keep first-seen order
        pairs.append((flow, tuple(path)))

    rates = allocate_dense(pairs, caps)
    assert len(rates) == len(flow_segments)
    return rates
