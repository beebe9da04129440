"""Literal-prefilter fast path: skip the frontier between anchor hits.

For literal-heavy rulesets (ExactMatch/Snort-like families) almost every
input position provably cannot move the machine anywhere interesting: the
DFA sits on a *home* state that self-loops on most bytes, and only a small
set of *anchor* bytes (the required factors of the patterns — first bytes
of literals and their in-pattern continuations) can hold it away from
home.  This module derives that structure from the transition table at
compile time and exploits it at scan time, the same dead-work skip that
Simultaneous Finite Automata and factor-based regex prefilters formalize.

Certification (:func:`derive_prefilter`) is a compile-time proof, not a
heuristic.  It establishes three facts about ``(home, anchors,
skip_width)``:

1. **Home invariance** — every non-anchor byte maps ``home`` to ``home``
   (by construction: anchors are exactly the bytes that move home).
2. **Bounded absorption** — the non-anchor transition graph restricted to
   states other than home is acyclic, and ``skip_width`` is the longest
   non-anchor path before absorption at home.  Therefore **any**
   ``skip_width`` consecutive non-anchor bytes drive *every* state to
   home, after which fact 1 pins it there.  Cycles are broken by greedily
   promoting the byte carrying the most cycle edges to an anchor; if the
   anchor set grows past :data:`MAX_ANCHOR_FRACTION` of the alphabet the
   table is not literal-skippable and certification fails.
3. **Anchor soundness** — no accepting state is reachable from the start
   or home state through non-anchor bytes alone, so a scan that sees no
   anchor byte can never report: every accepting path contains an anchor.
   (``repro check`` re-verifies all three facts as K130–K132.)

The scan consequence: within a segment, only the suffix after the *last*
``>= skip_width`` run of non-anchor bytes can influence the final state —
everything before it is erased by that run (every enumeration path sits at
home when the run ends).  So the kernel sweeps backwards from the
segment's end with a vectorized anchor LUT (``np.flatnonzero(lut[window])``,
memchr-speed in C, the window doubling until it holds a qualifying run),
and walks only the tail after the last run with the interpreted table —
typically a handful of bytes per segment.  Segments with no
qualifying run (adversarially dense matches, or shorter than the skip
width) fall back to the native frontier, batched in one call (without the
compiled library: lockstep, or the interpreted walk for a one-block
partition — :func:`repro.kernels.native.run_frontier`), so correctness
never depends on the prefilter being profitable.

Outcomes are bit-identical to the interpreted reference: a proven reset
collapses every convergence set to the one surviving path, exactly the
frontier kernels' whole-frontier-collapse outcome.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome
from repro.kernels.native import DenseTables, run_frontier

__all__ = [
    "MAX_ANCHOR_FRACTION",
    "MIN_HOME_LOOP_FRACTION",
    "PrefilterTables",
    "certify_prefilter",
    "derive_prefilter",
    "prefilter_scan_scalar",
    "run_segments_prefilter",
]

#: home must self-loop on at least this fraction of the alphabet —
#: below it the "skip" erases too little input to be worth certifying
MIN_HOME_LOOP_FRACTION = 0.5
#: give up when cycle-breaking pushes anchors past this alphabet fraction:
#: the sweep would hit on most bytes and the walk would dominate
MAX_ANCHOR_FRACTION = 0.5
#: bytes the backward anchor sweep covers first; doubled until a reset
#: is proven, so a typical segment sweeps one window, not all its bytes
SWEEP_WINDOW = 4096
#: certification results memoized by DFA fingerprint (success *and*
#: failure — failed certification must stay O(1) on re-scan so an explicit
#: ``backend="prefilter"`` fallback costs nothing measurable)
_CERT_CACHE_MAX = 128
_CERT_CACHE: "OrderedDict[Tuple[object, ...], Optional[PrefilterTables]]" = \
    OrderedDict()


class PrefilterTables:
    """Compile-time literal-skip certificate for one DFA.

    ``anchor_lut`` is a bool LUT over the alphabet (True = anchor byte),
    ``home`` the absorbing rest state and ``skip_width`` the proven
    absorption bound: any ``skip_width`` consecutive non-anchor symbols
    send every state to ``home``.  Stored inside
    :class:`repro.compilecache.CompiledDfa` so scans never re-derive it.
    """

    __slots__ = ("home", "skip_width", "anchor_lut", "num_states", "alphabet_size")

    def __init__(
        self,
        home: int,
        skip_width: int,
        anchor_lut: np.ndarray,
        num_states: int,
        alphabet_size: int,
    ) -> None:
        self.home = int(home)
        self.skip_width = int(skip_width)
        self.anchor_lut = np.asarray(anchor_lut, dtype=bool)
        self.num_states = int(num_states)
        self.alphabet_size = int(alphabet_size)

    @property
    def anchors(self) -> np.ndarray:
        """Sorted int64 array of anchor symbols."""
        return np.flatnonzero(self.anchor_lut).astype(np.int64)

    @property
    def n_anchors(self) -> int:
        return int(self.anchor_lut.sum())

    @property
    def nbytes(self) -> int:
        return int(self.anchor_lut.nbytes)

    def summary(self) -> Dict[str, object]:
        """Envelope-stable digest for artifact cross-checks (K133)."""
        return {
            "home": self.home,
            "skip_width": self.skip_width,
            "n_anchors": self.n_anchors,
            "anchor_digest": hashlib.sha256(
                np.packbits(self.anchor_lut).tobytes()
            ).hexdigest()[:16],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PrefilterTables(home={self.home}, skip_width={self.skip_width}, "
            f"anchors={self.n_anchors}/{self.alphabet_size})"
        )


def _absorption_depths(
    table: np.ndarray, home: int, anchor: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Longest-path-to-home DP over the non-anchor transition graph.

    Returns ``(depth, finite)``: ``depth[q]`` is the longest chain of
    non-anchor steps from ``q`` before reaching home (0 for home itself),
    valid only where ``finite[q]``.  States left non-finite sit on a
    non-anchor cycle away from home.  Vectorized reverse topological peel:
    a state's depth is final once every non-anchor successor's is.
    """
    n = table.shape[1]
    finite = np.zeros(n, dtype=bool)
    finite[home] = True
    depth = np.zeros(n, dtype=np.int64)
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        finite[:] = True
        return depth, finite
    sub = table[non_anchor]  # (k', n) successor matrix
    for _ in range(n):
        ready = ~finite & finite[sub].all(axis=0)
        if not ready.any():
            break
        depth[ready] = 1 + depth[sub[:, ready]].max(axis=0)
        finite[ready] = True
    return depth, finite


def _cycle_byte(
    table: np.ndarray, anchor: np.ndarray, cyclic: np.ndarray
) -> Optional[int]:
    """Non-anchor byte carrying the most edges inside the cyclic region."""
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        return None
    sub = table[non_anchor][:, cyclic]  # (k', n_cyclic) targets
    in_cycle = np.zeros(table.shape[1], dtype=bool)
    in_cycle[cyclic] = True
    counts = in_cycle[sub].sum(axis=1)
    best = int(np.argmax(counts))
    if int(counts[best]) == 0:
        return None
    return int(non_anchor[best])


def _non_anchor_closure(table: np.ndarray, anchor: np.ndarray, root: int) -> np.ndarray:
    """Bool mask of states reachable from ``root`` via non-anchor bytes."""
    n = table.shape[1]
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    non_anchor = np.flatnonzero(~anchor)
    if non_anchor.size == 0:
        return seen
    sub = table[non_anchor]
    frontier = np.asarray([root], dtype=np.int64)
    while frontier.size:
        nxt = np.unique(sub[:, frontier])
        fresh = nxt[~seen[nxt]]
        seen[fresh] = True
        frontier = fresh
    return seen


def derive_prefilter(dfa: Dfa) -> Optional[PrefilterTables]:
    """Derive a literal-skip certificate, or ``None`` if uncertifiable.

    See the module docstring for the three facts this establishes.  Pure
    compile-time analysis over ``dfa.transitions``; cost is a few
    vectorized passes over the ``(alphabet, states)`` table.
    """
    n = dfa.num_states
    k = dfa.alphabet_size
    if n < 1 or k < 2:
        return None
    table = dfa.transitions
    # home: the state that self-loops on the most bytes (the "rest" state
    # of a literal machine); certify only if it absorbs most of the input
    self_loops = (table == np.arange(n, dtype=table.dtype)[None, :]).sum(axis=0)
    home = int(np.argmax(self_loops))
    if int(self_loops[home]) < k * MIN_HOME_LOOP_FRACTION:
        return None
    # anchors: exactly the bytes that move home (fact 1 by construction)
    anchor = table[:, home] != home
    max_anchors = int(k * MAX_ANCHOR_FRACTION)
    # overwritten on the first pass; typed placeholders keep the for/else
    depth = np.empty(0, dtype=np.int64)
    finite = np.empty(0, dtype=bool)
    for _ in range(k):
        if int(anchor.sum()) > max_anchors:
            return None
        depth, finite = _absorption_depths(table, home, anchor)
        if bool(finite.all()):
            break
        extra = _cycle_byte(table, anchor, np.flatnonzero(~finite))
        if extra is None:
            return None
        anchor[extra] = True
    else:
        return None
    if not bool(finite.all()):
        return None
    # fact 3: no accepting state on a non-anchor-only path from start/home
    acc = dfa.accepting_mask
    if bool(acc[home]) or bool((acc & _non_anchor_closure(table, anchor, dfa.start)).any()):
        return None
    skip_width = max(1, int(depth.max()))
    return PrefilterTables(home, skip_width, anchor, n, k)


def certify_prefilter(dfa: Dfa) -> Optional[PrefilterTables]:
    """Memoized :func:`derive_prefilter` keyed by the DFA fingerprint."""
    fp = dfa.fingerprint
    if fp in _CERT_CACHE:
        _CERT_CACHE.move_to_end(fp)
        return _CERT_CACHE[fp]
    tables = derive_prefilter(dfa)
    if len(_CERT_CACHE) >= _CERT_CACHE_MAX:
        _CERT_CACHE.popitem(last=False)
    _CERT_CACHE[fp] = tables
    return tables


def _last_reset(
    hits: np.ndarray, length: int, skip_width: int
) -> Tuple[bool, int]:
    """Locate the last ``>= skip_width`` non-anchor run in a segment.

    Given the sorted anchor-hit positions, returns ``(proven, walk_from)``:
    ``proven`` is False when no qualifying run exists; otherwise
    ``walk_from`` is the position to resume the interpreted walk from
    ``home`` (``== length`` when the trailing run qualifies, i.e. the
    segment provably ends at home with nothing left to walk).
    """
    if hits.size == 0:
        if length >= skip_width:
            return True, length
        return False, 0
    if length - 1 - int(hits[-1]) >= skip_width:
        return True, length
    gaps = np.diff(hits) - 1
    qual = np.flatnonzero(gaps >= skip_width)
    if qual.size:
        return True, int(hits[int(qual[-1]) + 1])
    if int(hits[0]) >= skip_width:
        return True, int(hits[0])
    return False, 0


def _sweep(
    lut: np.ndarray, seg: np.ndarray, skip_width: int
) -> Tuple[bool, int, int]:
    """Find a segment's last proven reset, sweeping back from its end.

    Only the suffix after the last qualifying run matters, so the anchor
    sweep covers a window at the segment's end and doubles it until
    :func:`_last_reset` proves a reset inside it (the window's leading run
    counts: a run cut by the window start is still ``>= skip_width``
    non-anchor bytes) or the window is the whole segment.  Returns
    ``(proven, walk_from, anchor_hits)`` with ``walk_from`` absolute and
    ``anchor_hits`` the anchors located in the last window swept.
    """
    length = int(seg.size)
    width = SWEEP_WINDOW
    while True:
        start = max(0, length - width)
        hits = np.flatnonzero(lut[seg[start:]])
        proven, walk_from = _last_reset(hits, length - start, skip_width)
        if proven or start == 0:
            return proven, start + walk_from, int(hits.size)
        width *= 2


def prefilter_scan_scalar(
    dfa: Dfa,
    tables: PrefilterTables,
    segment: np.ndarray,
    start_state: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
) -> Tuple[int, int]:
    """Concrete-flow prefilter scan (segment 0 / sequential fallback).

    Returns ``(final_state, walked)`` where ``walked`` is the number of
    positions actually stepped through the interpreted table; the rest of
    the segment was erased by a proven reset run.  Bit-identical to
    ``dfa.run(segment, start_state)``.
    """
    # dtype deliberately inherited: uint8 views stay uint8 (zero-copy)
    seg = np.asarray(segment)  # repro: noqa(R101)
    length = int(seg.size)
    state = dfa.start if start_state is None else int(start_state)
    if length == 0:
        return state, 0
    proven, walk_from, _ = _sweep(tables.anchor_lut, seg, tables.skip_width)
    if proven:
        state = tables.home
    else:
        walk_from = 0
    if walk_from >= length:
        return state, 0
    if rows is None:
        rows = [r.tolist() for r in dfa.transitions]
    for sym in seg[walk_from:].tolist():
        state = rows[sym][state]
    return state, length - walk_from


def run_segments_prefilter(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: PrefilterTables,
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    flat: Optional[np.ndarray] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Enumerative prefilter scan over a batch of segments.

    For each segment: one vectorized anchor sweep; if a ``>= skip_width``
    non-anchor run exists, every enumeration path provably sits at ``home``
    when it ends, so the whole frontier is one scalar flow from there — the
    tail after the run is walked interpreted and every convergence set
    collapses to its final state.  Segments with no qualifying run are
    batched through :func:`repro.kernels.native.run_frontier` unchanged
    (``dense``/``stride`` are the native tier's optional precomputed
    tables and collapse-check stride).  ``rows`` optionally reuses the
    nested-list table the tail walks index and ``flat`` the int64-raveled
    table of the lockstep fallback.

    Returns ``(grid, stats)`` with the grid contract of the frontier
    kernels and stats keys ``walked_positions, skipped_bytes,
    anchor_hits, windows, fallback_segments, collapses``.
    """
    n_seg = len(segments)
    blocks = partition.block_arrays()
    n_blocks = len(blocks)
    sizes = np.asarray([b.size for b in blocks], dtype=np.int64)
    multi_count = int((sizes > 1).sum())
    # identity outcomes for empty segments: each set maps to itself
    identity: Optional[List[CsOutcome]] = None

    lut = tables.anchor_lut
    sw = tables.skip_width
    home = tables.home

    grid: List[Optional[List[CsOutcome]]] = [None] * n_seg
    fallback_idx: List[int] = []
    walked = 0
    skipped = 0
    anchor_hits = 0
    windows = 0
    n_collapsed = 0

    for i, segment in enumerate(segments):
        # dtype deliberately inherited: uint8 views stay uint8 (zero-copy)
        seg = np.asarray(segment)  # repro: noqa(R101)
        length = int(seg.size)
        if length == 0:
            if identity is None:
                identity = [
                    CsOutcome(
                        b.size == 1,
                        int(b[0]) if b.size == 1 else None,
                        np.unique(b).astype(np.int64),
                    )
                    for b in blocks
                ]
            grid[i] = list(identity)
            continue
        proven, walk_from, n_hits = _sweep(lut, seg, sw)
        anchor_hits += n_hits
        if not proven:
            fallback_idx.append(i)
            continue
        state = home
        if walk_from < length:
            if rows is None:
                rows = [r.tolist() for r in dfa.transitions]
            for sym in seg[walk_from:].tolist():
                state = rows[sym][state]
            walked += length - walk_from
            windows += 1
        skipped += walk_from
        states = np.asarray([state], dtype=np.int64)
        grid[i] = [CsOutcome(True, state, states)] * n_blocks
        n_collapsed += multi_count

    if fallback_idx:
        # unproven segments take the native frontier when its library
        # loads, else its fallback (identical outcomes either way)
        unproven = [segments[i] for i in fallback_idx]
        sub_grid, sub_stats, _ = run_frontier(
            dfa, partition, unproven, tables=dense, stride=stride, rows=rows,
            flat=flat,
        )
        for j, i in enumerate(fallback_idx):
            grid[i] = sub_grid[j]
        walked += sum(len(s) for s in unproven)
        n_collapsed += sub_stats["collapses"]

    stats = {
        "walked_positions": walked,
        "skipped_bytes": skipped,
        "anchor_hits": anchor_hits,
        "windows": windows,
        "fallback_segments": len(fallback_idx),
        "collapses": n_collapsed,
    }
    return grid, stats  # type: ignore[return-value]
