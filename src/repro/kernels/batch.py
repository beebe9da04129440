"""Batched segment execution: one kernel pass for the whole scan.

:func:`run_segments_batch` is the software kernel entry point.  It hands
every enumerative segment to one kernel in one call and returns one
:class:`SegmentFunction` per segment:

- ``"native"`` — the compiled dense frontier
  (:mod:`repro.kernels.native`);
- ``"lockstep"`` — every scalar flow of every segment advanced with one
  fancy-indexed gather per symbol position, diverged sets on a flat
  member array (:mod:`repro.kernels.lockstep`); also native's fallback
  when the compiled library does not load;
- ``"prefilter"`` — the literal-prefilter sweep
  (:mod:`repro.kernels.prefilter`).

The kernel's telemetry is recorded once, here, in one unit for every
backend.  Outcomes are bit-identical to :func:`repro.software.run_segment`'s
``backend="python"`` path: converged sets yield the same concrete state,
diverged sets the same sorted-unique int64 state array.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.automata.dfa import Dfa, as_symbols
from repro.core.partition import StatePartition
from repro.core.transition import SegmentFunction
from repro.kernels.lockstep import run_segments_lockstep
from repro.kernels.native import (
    DenseTables,
    degraded_backend,
    native_available,
    run_frontier,
    run_segments_native,
)
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    run_segments_prefilter,
)

__all__ = [
    "BACKENDS",
    "KERNEL_BACKENDS",
    "NATIVE_MAX_STATES",
    "resolve_backend",
    "run_segments_batch",
]

#: every executable backend of the software CSE path
BACKENDS = ("python", "lockstep", "native", "prefilter")
#: the vectorized kernels (everything but the interpreted reference path)
KERNEL_BACKENDS = ("lockstep", "native", "prefilter")
#: state budget of the native frontier: every position gathers all N
#: lanes of every segment, so above this sparse lockstep, which pays only
#: for the members still diverged, takes over
NATIVE_MAX_STATES = 512
#: per-metric histogram ladder for batched kernel passes: 100us..25s —
#: a batch is never sub-100us at bench scale, so the generic
#: DEFAULT_BUCKETS would waste its bottom two decades here
BATCH_SECONDS_BUCKETS = tuple(
    round(m * 10.0 ** e, 12) for e in range(-4, 2) for m in (1.0, 2.5, 5.0)
)


def _record_decision(requested: str, chosen: str, reason: str) -> None:
    """One structured record per backend resolution.

    The counter keeps the running chosen-vs-requested tally (grouped by
    reason — ``repro top`` renders these rows) and the zero-duration span
    puts the individual decision on the trace timeline next to the scan
    it gated.
    """
    obs.counter("kernels_backend_resolved_total",
                requested=requested, backend=chosen, reason=reason).inc()
    if obs.is_enabled():
        obs.record_span("kernels.backend_resolve", time.time(), 0.0,
                        requested=requested, backend=chosen, reason=reason)


def resolve_backend(
    dfa: Dfa,
    backend: Optional[str] = None,
    partition: Optional[StatePartition] = None,
    n_segments: int = 16,
) -> str:
    """Shared default-resolution for the software kernel backend.

    Explicit names pass through (after validation); ``None``/``"auto"``
    picks from the DFA + partition profile — the single place the
    "partition-friendly profile" heuristic lives, shared by
    :func:`repro.software.software_cse_scan`, ``stream.StreamScanner`` and
    ``stream.FleetScanner``.

    The measured trade-off (``benchmarks/bench_kernels.py``): a *trivial*
    partition (one block, or none supplied) gives the kernels nothing to
    batch — every segment is one speculative frontier with no scalar flows
    to amortize — and the lockstep kernel measured **0.33x** against the
    interpreter on that profile (``random64/trivial``), so trivial
    partitions resolve to the interpreted path
    (:func:`repro.kernels.native.degraded_backend`).  With a real
    partition, batching pays as soon as there is enough work per symbol
    position — many scalar flows (``n_blocks * segments``) or wide
    convergence sets.  The compiled native frontier wins up to
    :data:`NATIVE_MAX_STATES` states when its library loads; above that,
    or without the library, sparse lockstep takes the work.  An explicit
    ``"native"`` request on a toolchain-less install degrades to
    ``"lockstep"``, recorded as ``native-unavailable``.
    """
    if backend is not None and backend != "auto":
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick one of {BACKENDS + ('auto',)}"
            )
        if backend == "native" and not native_available():
            # the compiled tier is strictly optional: an explicit request
            # on a toolchain-less install degrades to lockstep
            # (bit-identical outcomes) instead of erroring
            _record_decision(backend, "lockstep", "native-unavailable")
            return "lockstep"
        _record_decision(backend, backend, "explicit")
        return backend
    # literal-certified machines skip the frontier between anchor hits
    # regardless of partition shape — the sweep needs nothing to batch
    if certify_prefilter(dfa) is not None:
        _record_decision("auto", "prefilter", "literal-certified")
        return "prefilter"
    if partition is None:
        n_blocks, max_block = 1, dfa.num_states
    else:
        sizes = [len(b) for b in partition.blocks]
        n_blocks, max_block = len(sizes), max(sizes)
    enum_segments = max(1, n_segments - 1)
    chosen, reason = "python", "small-workload"
    if n_blocks <= 1:
        chosen, reason = degraded_backend(n_blocks), "trivial-partition"
    elif max_block > 8 or n_blocks * enum_segments >= 48:
        if dfa.num_states > NATIVE_MAX_STATES:
            chosen, reason = degraded_backend(n_blocks), "native-over-budget"
        elif not native_available():
            chosen, reason = degraded_backend(n_blocks), "native-unavailable"
        else:
            chosen, reason = "native", "native-fit"
    _record_decision("auto", chosen, reason)
    return chosen


def _record_batch(
    backend: str, n_seg: int, positions: int, wall: float, elapsed: float,
    stats: Dict[str, int],
) -> None:
    """The one telemetry block of a batched pass, whatever kernel ran.

    ``positions`` is the number of symbols consumed summed over segments
    — the unit the interpreted path counts in.  Every kernel stat other
    than ``collapses`` lands in ``kernels_<backend>_<stat>_total``.
    """
    obs.record_span("kernels.batch", wall, elapsed,
                    backend=backend, segments=n_seg)
    obs.histogram("kernels_batch_seconds", buckets=BATCH_SECONDS_BUCKETS,
                  backend=backend).observe(elapsed)
    obs.counter("kernels_batch_runs_total", backend=backend).inc()
    obs.counter("kernels_segments_total", backend=backend).inc(n_seg)
    obs.counter("kernels_positions_total", backend=backend).inc(positions)
    for key, value in stats.items():
        if key == "collapses":
            obs.counter("kernels_collapses_total", backend=backend).inc(value)
        else:
            obs.counter(f"kernels_{backend}_{key}_total").inc(value)


def run_segments_batch(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    backend: str = "lockstep",
    flat: Optional[np.ndarray] = None,
    dense: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    prefilter: Optional[PrefilterTables] = None,
    rows: Optional[List[List[int]]] = None,
) -> List[SegmentFunction]:
    """Execute every enumerative segment's set-flows in one batched pass.

    Returns one :class:`SegmentFunction` per entry of ``segments``,
    bit-identical to running :func:`repro.software.run_segment` per
    segment.  ``flat`` optionally reuses an int64-raveled transition
    matrix (lockstep) and ``dense`` precomputed :class:`DenseTables`
    (native) and ``rows`` the nested-list table of the interpreted walks
    (prefilter) across calls — streaming, or a cached
    :class:`repro.compilecache.CompiledDfa` artifact.  ``stride`` pins the
    native frontier's collapse-check gap (tests; the default adapts).
    ``prefilter`` reuses a precomputed certificate for
    ``backend="prefilter"``; when the DFA is not literal-certifiable the
    call runs :func:`repro.kernels.native.run_frontier` instead
    (correctness never depends on the prefilter heuristic) and records the
    fallback.  ``"native"`` without the compiled library runs lockstep.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"batched execution needs one of {KERNEL_BACKENDS}")
    if backend == "prefilter":
        # keep the incoming dtype: uint8 mmap views flow into the anchor
        # sweep zero-copy, no int64 widening of the skipped bytes
        segments = [
            s if isinstance(s, np.ndarray) else as_symbols(s) for s in segments
        ]
    else:
        segments = [as_symbols(s) for s in segments]
    n_seg = len(segments)
    if n_seg == 0:
        return []
    batch_wall = time.time()
    batch_begin = time.perf_counter()
    if backend == "prefilter":
        pf_tables = prefilter if prefilter is not None else certify_prefilter(dfa)
        if pf_tables is None:
            obs.counter("kernels_prefilter_fallbacks_total").inc()
            grid, stats, backend = run_frontier(
                dfa, partition, segments, tables=dense, stride=stride,
                rows=rows, flat=flat,
            )
        else:
            grid, stats = run_segments_prefilter(
                dfa, partition, segments, pf_tables, dense=dense,
                stride=stride, rows=rows, flat=flat,
            )
    elif backend == "native" and native_available():
        grid, stats = run_segments_native(
            dfa, partition, segments, tables=dense, stride=stride
        )
    else:
        if backend == "native":
            # explicit call on a toolchain-less install: outcomes must not
            # depend on the optional compiled tier
            obs.counter("kernels_native_fallbacks_total").inc()
            backend = "lockstep"
        grid, stats = run_segments_lockstep(dfa, partition, segments, flat=flat)
    if obs.is_enabled():
        _record_batch(
            backend, n_seg, sum(int(s.size) for s in segments), batch_wall,
            time.perf_counter() - batch_begin, stats,
        )
    labels = partition.labels()
    return [SegmentFunction(list(outcomes), labels) for outcomes in grid]
