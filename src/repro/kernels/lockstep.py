"""Cross-segment lockstep kernel: batched scalar and flat set flows.

The software interpreter cost of :func:`repro.software.run_segment` is per
Python bytecode, not per state transition — so the way to make the software
CSE path fast is to make every interpreted step advance *many* flows.  This
module provides the two flow pools the batched executor drives in lockstep
across **all** enumerative segments at once:

- :class:`ScalarPool` — every converged/singleton flow of every segment,
  advanced with a single fancy-indexed gather per symbol position
  (``states = flat_table[offset_of(symbol) + states]``);
- :class:`FlatSetFlows` — every diverged convergence set of every segment,
  stored as one flat member array (duplicates retained: the M = 1 collapse
  check only needs min == max per flow, not a per-step ``unique``), also one
  gather per position.

Flows that collapse migrate from :class:`FlatSetFlows` into the
:class:`ScalarPool` — the batched analogue of the paper's "M = 1 computes
all paths at the cost of one" degradation.  :func:`run_segments_lockstep`
drives both pools over a stacked ``(n_segments, seg_len)`` symbol matrix
(ragged tails handled with an active-segment mask), so the steady-state
cost per position is one gather regardless of how many segments and
convergence sets the scan has.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome
from repro.engines.base import stack_segments

__all__ = ["ScalarPool", "FlatSetFlows", "run_segments_lockstep"]


class ScalarPool:
    """All scalar (converged / singleton-set) flows of every segment.

    ``states[i]`` is flow ``i``'s current state, ``seg[i]`` the segment it
    reads symbols from and ``block[i]`` the convergence set it answers for.
    One :meth:`step` call advances the whole pool with one gather.
    """

    def __init__(self, flat_table: np.ndarray) -> None:
        self.flat = flat_table
        self.states = np.empty(0, dtype=np.int64)
        self.seg = np.empty(0, dtype=np.int64)
        self.block = np.empty(0, dtype=np.int64)

    def extend(self, states: ArrayLike, seg: ArrayLike,
               block: ArrayLike) -> None:
        self.states = np.concatenate(
            [self.states, np.asarray(states, dtype=np.int64)]
        )
        self.seg = np.concatenate([self.seg, np.asarray(seg, dtype=np.int64)])
        self.block = np.concatenate([self.block, np.asarray(block, dtype=np.int64)])

    def absorb(self, collapsed: List[Tuple[int, int, int]]) -> None:
        """Add flows that just collapsed out of a set pool."""
        if collapsed:
            states, segs, blocks = zip(*collapsed)
            self.extend(states, segs, blocks)

    def step(self, col_off: np.ndarray, seg_active: Optional[np.ndarray] = None
             ) -> None:
        """One symbol position: ``state <- table[segment symbol, state]``.

        ``col_off[s]`` is ``symbol_of(segment s) * num_states`` for this
        position, so the whole pool advances via one flat gather.
        """
        if not self.states.size:
            return
        if seg_active is None:
            self.states = self.flat[col_off[self.seg] + self.states]
            return
        idx = np.flatnonzero(seg_active[self.seg])
        if idx.size:
            self.states[idx] = self.flat[col_off[self.seg[idx]] + self.states[idx]]


class FlatSetFlows:
    """Batched diverged-set stepping over a flat member array.

    One flow per (segment, multi-member convergence set) pair; members of
    all flows live in one flat array sorted by flow, so a position costs one
    gather plus an ``O(total members)`` min/max reduction for the collapse
    check.  Duplicate members are *retained* (no per-step ``unique``): the
    final outcome set and the collapse point are unaffected, and skipping
    the sort/unique is where the allocation churn of the interpreted path
    goes away.
    """

    def __init__(
        self,
        flat_table: np.ndarray,
        multi_blocks: List[np.ndarray],
        multi_ids: np.ndarray,
        n_segments: int,
    ) -> None:
        self.flat = flat_table
        n_multi = len(multi_blocks)
        sizes = np.asarray([b.size for b in multi_blocks], dtype=np.int64)
        base = (
            np.concatenate([np.asarray(b, dtype=np.int64) for b in multi_blocks])
            if n_multi
            else np.empty(0, dtype=np.int64)
        )
        self.members = np.tile(base, n_segments)
        self.mem_seg = np.repeat(np.arange(n_segments, dtype=np.int64), base.size)
        local0 = np.repeat(np.arange(n_multi, dtype=np.int64), sizes)
        self.mem_local = np.concatenate(
            [local0 + s * n_multi for s in range(n_segments)]
        ) if n_multi else np.empty(0, dtype=np.int64)
        self.flow_seg = np.repeat(np.arange(n_segments, dtype=np.int64), n_multi)
        self.flow_block = np.tile(np.asarray(multi_ids, dtype=np.int64), n_segments)
        self._rebuild_starts()

    @property
    def n_flows(self) -> int:
        return int(self.flow_seg.size)

    def _rebuild_starts(self) -> None:
        counts = np.bincount(self.mem_local, minlength=self.n_flows)
        self.starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
        ) if self.n_flows else np.empty(0, dtype=np.int64)

    def step(
        self, col_off: np.ndarray, seg_active: Optional[np.ndarray] = None
    ) -> List[Tuple[int, int, int]]:
        """One symbol position; returns (and removes) collapsed flows."""
        if not self.n_flows:
            return []
        if seg_active is None:
            self.members = self.flat[col_off[self.mem_seg] + self.members]
        else:
            idx = np.flatnonzero(seg_active[self.mem_seg])
            if not idx.size:
                return []
            self.members[idx] = self.flat[
                col_off[self.mem_seg[idx]] + self.members[idx]
            ]
        mins = np.minimum.reduceat(self.members, self.starts)
        maxs = np.maximum.reduceat(self.members, self.starts)
        hit = np.flatnonzero(mins == maxs)
        if not hit.size:
            return []
        collapsed = [
            (int(mins[f]), int(self.flow_seg[f]), int(self.flow_block[f]))
            for f in hit.tolist()
        ]
        if hit.size == self.n_flows:
            # everything collapsed at once: jump straight to the empty
            # pool instead of rebuilding starts/new_index for zero flows
            # (subsequent step() calls early-return on n_flows == 0)
            self.members = np.empty(0, dtype=np.int64)
            self.mem_seg = np.empty(0, dtype=np.int64)
            self.mem_local = np.empty(0, dtype=np.int64)
            self.flow_seg = np.empty(0, dtype=np.int64)
            self.flow_block = np.empty(0, dtype=np.int64)
            self.starts = np.empty(0, dtype=np.int64)
            return collapsed
        keep = np.ones(self.n_flows, dtype=bool)
        keep[hit] = False
        new_index = np.full(self.n_flows, -1, dtype=np.int64)
        live = np.flatnonzero(keep)
        new_index[live] = np.arange(live.size, dtype=np.int64)
        mem_keep = keep[self.mem_local]
        self.members = self.members[mem_keep]
        self.mem_seg = self.mem_seg[mem_keep]
        self.mem_local = new_index[self.mem_local[mem_keep]]
        self.flow_seg = self.flow_seg[live]
        self.flow_block = self.flow_block[live]
        self._rebuild_starts()
        return collapsed

    def final_outcomes(self) -> List[Tuple[np.ndarray, int, int]]:
        """Remaining diverged flows as ``(states, segment, block)`` triples."""
        out: List[Tuple[np.ndarray, int, int]] = []
        ends = np.concatenate([self.starts[1:], [self.members.size]]) \
            if self.n_flows else np.empty(0, dtype=np.int64)
        for f in range(self.n_flows):
            states = np.unique(self.members[self.starts[f]:ends[f]])
            out.append((states, int(self.flow_seg[f]), int(self.flow_block[f])))
        return out


def run_segments_lockstep(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    flat: Optional[np.ndarray] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Advance every segment's scalar and set flows in lockstep.

    Returns ``(grid, stats)``: ``grid[seg][block]`` is the
    :class:`CsOutcome` of convergence set ``block`` in segment ``seg``
    (bit-identical to the interpreted path) and ``stats`` carries
    ``collapses``.  ``flat`` optionally reuses the int64-raveled
    transition matrix.
    """
    n_seg = len(segments)
    blocks = partition.block_arrays()
    n_states = dfa.num_states
    if flat is None:
        flat = dfa.transitions.astype(np.int64).ravel()
    matrix, lengths = stack_segments(segments)
    offsets = matrix * n_states

    single_ids = [i for i, b in enumerate(blocks) if b.size == 1]
    multi_ids = np.asarray(
        [i for i, b in enumerate(blocks) if b.size > 1], dtype=np.int64
    )
    pool = ScalarPool(flat)
    if single_ids:
        singles = np.asarray([int(blocks[i][0]) for i in single_ids], dtype=np.int64)
        pool.extend(
            np.tile(singles, n_seg),
            np.repeat(np.arange(n_seg, dtype=np.int64), len(single_ids)),
            np.tile(np.asarray(single_ids, dtype=np.int64), n_seg),
        )
    flows = FlatSetFlows(
        flat, [blocks[i] for i in multi_ids.tolist()], multi_ids, n_seg
    )

    n_collapsed = 0
    length_min = int(lengths.min()) if n_seg else 0
    length_max = int(lengths.max()) if n_seg else 0
    for t in range(length_max):
        seg_active = None if t < length_min else lengths > t
        col_off = offsets[:, t]
        pool.step(col_off, seg_active)
        collapsed = flows.step(col_off, seg_active)
        n_collapsed += len(collapsed)
        pool.absorb(collapsed)

    grid: List[List[Optional[CsOutcome]]] = [
        [None] * len(blocks) for _ in range(n_seg)
    ]
    for state, seg, blk in zip(
        pool.states.tolist(), pool.seg.tolist(), pool.block.tolist()
    ):
        grid[seg][blk] = CsOutcome(
            True, int(state), np.asarray([state], dtype=np.int64)
        )
    for states, seg, blk in flows.final_outcomes():
        grid[seg][blk] = CsOutcome(False, None, states.astype(np.int64))
    assert all(o is not None for outcomes in grid for o in outcomes)
    return grid, {"collapses": n_collapsed}  # type: ignore[return-value]
