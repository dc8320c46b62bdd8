"""Structure-of-arrays core of the fluid engine's allocator.

A scalar allocator pays Python prices per flow: every reallocation
builds ``(key, path)`` pair lists and boxes every rate, and at
warehouse scale (k=32/48 fat-trees, hundreds of concurrent flows per
event) those constants dominate.  This module keeps the *allocation
problem itself* resident as numpy arrays between events:

``FlowTable``
    The persistent problem: one row per allocatable flow, in arrival
    (``seq``) order.  Paths live in a single ``(rows, width)`` int64
    matrix padded with a sentinel segment id; parallel arrays carry the
    flow ids and the engine's installed-rate mirror.  Events patch the
    table — arrivals append, completions mask rows out, topology
    changes rebuild — instead of reconstructing it.

``waterfill``
    Batched ripe-pass progressive filling over the padded matrix
    (see :mod:`repro.simulation.fairshare` for the pass semantics).
    Per pass everything is whole-array work: shares divide in one shot,
    per-flow levels come from exact column-wise ``np.minimum``
    reductions, tight/ripe tests are elementwise compares plus
    ``np.bincount`` aggregations, and frozen rows are compacted away.
    ``np.bincount`` accumulates sequentially in input (row-major =
    ascending flow) order, which is what makes the per-segment delta
    sums bit-identical to the scalar solver's accumulation loop.

The padding sentinel is row ``num_segments``: its remaining capacity is
``inf`` so it never produces the minimum share, it is never tight, and
its count slot is clamped to 0.5 — a value no integer tight-count can
equal — so it can never look ripe.  Dead segments (count zero) get the
same 0.5 clamp; their shares are garbage but provably never gathered,
because a segment appears in an alive row only while its count is
positive.

Everything here is deliberately loop-free over flows; the PERF002 lint
rule (:mod:`repro.checks.rules.perf`) keeps per-element Python ``for``
loops out of this module except in the sanctioned patch helpers, where
a handful of path ids per event is cheaper to walk than to vectorize.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["ColumnarWorkspace", "FlowTable", "waterfill", "pack_paths"]

_INF = float("inf")

#: Count clamp for dead/sentinel segment slots: positive (so shares
#: never divide by zero) yet equal to no integer tight-count (so such
#: slots never test ripe).
_DEAD_COUNT = 0.5

#: Compact the problem to its used segments when the fabric's segment
#: universe exceeds this multiple of the matrix entry count.  Per-pass
#: work then scales with the problem, not the fabric — the difference
#: between k=6 (where the matrix touches most of the ~1.3k segments)
#: and k=32 (where ~1.5k entries sit in a ~50k-segment universe).
_COMPACT_FACTOR = 4


class ColumnarWorkspace:
    """Reusable per-engine scratch for :func:`waterfill`.

    Holds the per-segment remaining/count/share vectors (one slot per
    segment plus the padding sentinel).  Between calls the contents are
    stale; :func:`waterfill` overwrites them before reading.
    """

    def __init__(self, num_segments: int) -> None:
        self.num_segments = num_segments
        size = num_segments + 1
        # Three independent buffers, deliberately *not* views of one
        # fused block: the water-fill kernel's separability argument
        # requires that an in-place write to one vector can never be
        # observed through a read of another.
        self.remaining = np.empty(size, dtype=np.float64)
        self.counts = np.empty(size, dtype=np.float64)
        self.share = np.empty(size, dtype=np.float64)


def pack_paths(
    paths: Sequence[tuple[int, ...]], num_segments: int, width: int | None = None
) -> np.ndarray:
    """Pack integer paths into a sentinel-padded ``(rows, width)`` matrix.

    ``width`` defaults to the longest path; the sentinel id is
    ``num_segments``.  Raises ``ValueError`` on an empty path — an
    all-sentinel row would have an infinite level and never freeze.
    """
    if width is None:
        width = max((len(p) for p in paths), default=1)
    packed = np.full((len(paths), width), num_segments, dtype=np.int64)
    for row, path in enumerate(paths):
        if not path:
            raise ValueError(f"row {row} has an empty path")
        packed[row, : len(path)] = path
    return packed


def waterfill(
    seg_matrix: np.ndarray,
    capacities: np.ndarray,
    workspace: ColumnarWorkspace | None = None,
    incidence: np.ndarray | None = None,
) -> np.ndarray:
    """Max-min rates for the padded path matrix, one batched pass at a time.

    Args:
        seg_matrix: ``(rows, width)`` int64 matrix of segment ids per
            flow, right-padded with the sentinel id
            ``len(capacities)``; row order fixes the accumulation
            order and therefore the exact floats.
        capacities: float64 capacity per real segment.
        workspace: optional reusable scratch (one per engine).
        incidence: optional precomputed
            ``np.bincount(seg_matrix.ravel(), minlength=len(capacities)+1)``
            — the :class:`FlowTable` maintains it incrementally so the
            hot path skips the full recount.

    Returns:
        float64 rates, one per row, bit-identical to
        :func:`repro.simulation.fairshare.allocate_dense` on the same
        problem (property-tested in
        ``tests/test_fairshare_properties.py``).
    """
    rows, width = seg_matrix.shape
    num_segments = capacities.shape[0]
    if incidence is None:
        incidence = np.bincount(seg_matrix.ravel(), minlength=num_segments + 1)
    if rows and num_segments > _COMPACT_FACTOR * rows * width:
        # Sparse problem in a huge fabric: remap to dense local ids so
        # every per-pass array is problem-sized.  Bit-identical to the
        # full-universe solve — unused segments never interact with any
        # flow, and np.unique's ascending order preserves the sentinel
        # convention (the padding id is the largest, so it stays last).
        used, inverse = np.unique(seg_matrix.ravel(), return_inverse=True)
        seg_matrix = inverse.reshape(rows, width)
        if used[-1] == num_segments:  # padding sentinel present
            num_segments = used.shape[0] - 1
            capacities = capacities[used[:-1]]
            incidence = incidence[used]
        else:
            num_segments = used.shape[0]
            capacities = capacities[used]
            incidence = np.append(incidence[used], 0)
        workspace = None  # local scratch sized to the compact problem
    ws = workspace if workspace is not None else ColumnarWorkspace(num_segments)
    remaining = ws.remaining
    counts = ws.counts
    remaining[:num_segments] = capacities
    remaining[num_segments] = _INF
    np.copyto(counts, incidence)
    np.maximum(counts, _DEAD_COUNT, out=counts)

    rates = np.empty(rows, dtype=np.float64)
    _waterfill_passes(seg_matrix, remaining, counts, ws.share, rates)
    return rates


def _waterfill_passes(
    seg_matrix: np.ndarray,
    remaining: np.ndarray,
    counts: np.ndarray,
    share: np.ndarray,
    rates: np.ndarray,
) -> None:
    """The ripe-pass loop over plain arrays.

    Arrays: ``seg_matrix`` int64 ``(rows, width)``; ``remaining``,
    ``counts`` and ``share`` float64 ``(segments + 1,)``; ``rates``
    float64 ``(rows,)``.

    ``remaining``/``counts`` arrive initialised (sentinel slot last,
    dead counts already clamped); ``share`` is scratch and ``rates`` is
    filled in place, one slot per row.  Everything object-shaped —
    workspace management, compaction, incidence bookkeeping — stays in
    :func:`waterfill`; this function touches nothing but the arrays it
    is handed, so the bitwise properties against the scalar core
    (``tests/test_fairshare_properties.py``) exercise all of its state.
    """
    rows, width = seg_matrix.shape
    num_segments = remaining.shape[0] - 1
    alive = seg_matrix
    alive_rows = np.arange(rows, dtype=np.int64)
    while alive_rows.shape[0]:
        np.divide(remaining, counts, out=share)
        shares = share[alive]
        # Column-by-column unrolls: IEEE-754 min and logical-or are
        # exact and order-free, and ``width`` in-place ufunc calls on
        # contiguous 1-D slices beat numpy's slow small-axis reductions.
        level = _column_min(shares)
        tight = shares == level[:, None]
        tight_count = np.bincount(alive[tight], minlength=num_segments + 1)
        newly = tight & (tight_count == counts)[alive]
        frozen = _column_any(newly)
        frozen_levels = level[frozen]
        if not frozen_levels.shape[0]:  # pragma: no cover - min seg is always ripe
            raise RuntimeError("progressive filling stalled")
        # Row-major ravel keeps ascending flow order, so bincount's
        # sequential accumulation matches the scalar delta loop exactly.
        frozen_segs = alive[frozen].ravel()
        remaining -= np.bincount(
            frozen_segs,
            weights=np.repeat(frozen_levels, width),
            minlength=num_segments + 1,
        )
        counts -= np.bincount(frozen_segs, minlength=num_segments + 1)
        # End-of-pass clamps: remaining floors at 0.0 (float residue),
        # counts at the dead marker.
        np.maximum(remaining, 0.0, out=remaining)
        np.maximum(counts, _DEAD_COUNT, out=counts)
        rates[alive_rows[frozen]] = frozen_levels
        keep = ~frozen
        alive = alive[keep]
        alive_rows = alive_rows[keep]


def _column_min(matrix: np.ndarray) -> np.ndarray:
    """Column-unrolled row minimum: exact and order-free under IEEE-754.

    Arrays: ``matrix`` float64 ``(rows, width)`` → float64 ``(rows,)``,
    a fresh array (the first column is copied, never a view).

    ``width - 1`` in-place ufunc calls, each writing a contiguous 1-D
    accumulator — measurably faster in situ than pairwise halving trees
    (which allocate strided intermediates) and than numpy's small-axis
    ``.reduce``.  The loop is over *columns* (path width, ≤ a handful),
    never over flows, so it stays within the module's loop-free rule.
    """
    out = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        np.minimum(out, matrix[:, column], out=out)
    return out


def _column_any(matrix: np.ndarray) -> np.ndarray:
    """Column-unrolled row logical-or, same unroll as :func:`_column_min`.

    Arrays: ``matrix`` bool ``(rows, width)`` → bool ``(rows,)``, fresh.
    """
    out = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        np.logical_or(out, matrix[:, column], out=out)
    return out


class FlowTable:
    """The persistent columnar allocation problem, patched per event.

    Rows are allocatable flows in ascending arrival (``seq``) order —
    the order :func:`waterfill` and the scalar solver both treat as
    canonical.  Arrivals append (their ``seq`` is always the largest so
    far), completions compact rows out, and anything messier — a
    topology change re-pathing or stalling arbitrary flows — goes
    through :meth:`rebuild`.  ``installed`` mirrors the engine's
    per-flow installed rate so the caller can extract exactly the rows
    whose rate changed and leave every other flow untouched.
    """

    def __init__(self, num_segments: int, width: int = 6) -> None:
        self.num_segments = num_segments
        self.width = max(1, width)
        self.size = 0
        capacity = 64
        self.segments = np.full(
            (capacity, self.width), num_segments, dtype=np.int64
        )
        self.flow_ids = np.empty(capacity, dtype=np.int64)
        self.installed = np.zeros(capacity, dtype=np.float64)
        #: Incidence counts per segment id (sentinel slot last), kept in
        #: lock-step with the matrix so waterfill never recounts.
        self.incidence = np.zeros(num_segments + 1, dtype=np.int64)
        self._members: set[int] = set()

    # ------------------------------------------------------------------

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._members

    def __len__(self) -> int:
        return self.size

    @property
    def seg_matrix(self) -> np.ndarray:
        return self.segments[: self.size]

    @property
    def rates_view(self) -> np.ndarray:
        return self.installed[: self.size]

    # ------------------------------------------------------------------

    def _reserve(self, rows: int) -> None:
        capacity = self.segments.shape[0]
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        grown = np.full(
            (capacity, self.width), self.num_segments, dtype=np.int64
        )
        grown[: self.size] = self.segments[: self.size]
        self.segments = grown
        self.flow_ids = np.resize(self.flow_ids, capacity)
        installed = np.zeros(capacity, dtype=np.float64)
        installed[: self.size] = self.installed[: self.size]
        self.installed = installed

    def _widen(self, width: int) -> None:
        """Grow the path matrix for a longer-than-ever path; existing
        rows gain sentinel padding (which the solver ignores)."""
        if width <= self.width:
            return
        wider = np.full(
            (self.segments.shape[0], width), self.num_segments, dtype=np.int64
        )
        wider[:, : self.width] = self.segments
        self.incidence[self.num_segments] += self.size * (width - self.width)
        self.segments = wider
        self.width = width

    def append(self, flow_id: int, path: tuple[int, ...]) -> None:
        """Add one flow at the end; its ``seq`` must exceed every
        resident row's (arrivals always satisfy this).  The installed
        rate starts at 0.0, matching a freshly admitted flow."""
        if not path:
            raise ValueError(f"flow {flow_id} has an empty path")
        self._widen(len(path))
        self._reserve(self.size + 1)
        row = self.size
        seg_row = self.segments[row]
        seg_row[: len(path)] = path
        seg_row[len(path) :] = self.num_segments
        self.flow_ids[row] = flow_id
        self.installed[row] = 0.0
        incidence = self.incidence
        for seg in path:  # a handful of ids; cheaper than np.add.at
            incidence[seg] += 1
        incidence[self.num_segments] += self.width - len(path)
        self._members.add(flow_id)
        self.size = row + 1

    def discard(self, flow_ids: Sequence[int]) -> None:
        """Drop the given flows (completions), preserving row order."""
        gone = [fid for fid in flow_ids if fid in self._members]
        if not gone:
            return
        resident = self.flow_ids[: self.size]
        if len(gone) == 1:
            # Hot path: one completion per event.  A scalar compare
            # beats np.isin, and the removed row's handful of segment
            # ids is cheaper to walk than to bincount (sanctioned
            # per-event patch helper, see module docstring).
            keep = resident != gone[0]
            row = int(keep.argmin())
            incidence = self.incidence
            for seg in self.segments[row].tolist():
                incidence[seg] -= 1
        else:
            keep = ~np.isin(resident, np.asarray(gone, dtype=np.int64))
            removed = self.segments[: self.size][~keep]
            self.incidence -= np.bincount(
                removed.ravel(), minlength=self.num_segments + 1
            )
        kept_rows = np.nonzero(keep)[0]
        new_size = kept_rows.shape[0]
        self.segments[:new_size] = self.segments[kept_rows]
        self.flow_ids[:new_size] = resident[kept_rows]
        self.installed[:new_size] = self.installed[: self.size][kept_rows]
        self.size = new_size
        self._members.difference_update(gone)

    def rebuild(
        self, entries: Sequence[tuple[int, tuple[int, ...], float]]
    ) -> None:
        """Reset to ``(flow_id, path, installed_rate)`` rows, already in
        ascending ``seq`` order.  The catch-all for topology events."""
        width = 1
        for _, path, _ in entries:
            if not path:
                raise ValueError("rebuild entry has an empty path")
            if len(path) > width:
                width = len(path)
        self.size = 0
        self._members.clear()
        self._widen(width)
        self._reserve(len(entries))
        segments = self.segments
        sentinel = self.num_segments
        for row, (flow_id, path, rate) in enumerate(entries):
            seg_row = segments[row]
            seg_row[: len(path)] = path
            seg_row[len(path) :] = sentinel
            self.flow_ids[row] = flow_id
            self.installed[row] = rate
            self._members.add(flow_id)
        self.size = len(entries)
        self.incidence = np.bincount(
            self.segments[: self.size].ravel(), minlength=sentinel + 1
        )
