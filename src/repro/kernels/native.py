"""Compiled native set-flow tier: the dense frontier as one C call.

The data-parallel-optimal form of the set(N)->set(M) step is the one
Simultaneous Finite Automata materializes: keep the **full** ``state ->
state`` mapping per segment and advance it whole.  This module loads
``_native.c`` — a dependency-free C library (no ``Python.h``, no numpy
headers) — through :mod:`ctypes` and advances **every** segment's dense
enumeration frontier over its **whole** symbol buffer in a single native
call: fused offset-add + gather at the narrowed table dtype
(:class:`DenseTables`), in-loop strided collapse checks on an adaptive
ladder (stride only moves *when* degradation is noticed, never the
outcome), a C scalar walk for fully-collapsed segments, and early exit
per segment.

Availability is best-effort and never load-bearing:

- ``REPRO_NATIVE=0`` disables the tier outright (CI pins the fallback
  path with it);
- the library is found next to this module (wheel/sdist builds via
  ``setup.py``), then in a per-user cache keyed by the source digest,
  then lazily compiled with ``cc``/``gcc``/``clang`` if a toolchain is
  present — all failures are memoized into
  :func:`native_unavailable_reason` and every caller degrades to the
  lockstep kernel, or to the interpreted walk where there is only one
  convergence set (:func:`degraded_backend`).

Outcomes are bit-identical to every other backend: the C core returns
raw final frontiers and the epilogue derives per-CS outcomes with
``np.unique``.  ``repro check`` certifies the compiled library reads the
exact table bytes the Python tier built (K111/K112 check the tables,
K114/K115 the library); ``benchmarks/bench_native.py`` gates the speedup
(native >= 20x lockstep on the 64-state/1 MB/16-segment acceptance
config).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import Dfa, as_symbols, check_symbols
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome, walk_set_flows
from repro.kernels.lockstep import run_segments_lockstep

__all__ = [
    "NATIVE_ABI",
    "DenseTables",
    "NativeBuildError",
    "build_native",
    "degraded_backend",
    "frontier_backend",
    "dense_state_dtype",
    "load_native",
    "native_available",
    "native_build_info",
    "native_library_path",
    "native_table_view",
    "native_unavailable_reason",
    "reset_native",
    "run_frontier",
    "run_segments_native",
]

#: expected ``cse_native_abi()`` of a loadable library
NATIVE_ABI = 1
#: set to ``0``/``off``/``false`` to disable the native tier entirely
ENV_DISABLE = "REPRO_NATIVE"
#: overrides the per-user build cache directory
ENV_CACHE_DIR = "REPRO_NATIVE_CACHE"
#: compilers probed (after ``$CC``) for the lazy on-demand build
COMPILERS = ("cc", "gcc", "clang")

_SOURCE = Path(__file__).with_name("_native.c")
#: table dtype -> C kind tag (must match KIND_* in _native.c)
_TABLE_KINDS: Dict[str, int] = {"uint8": 0, "uint16": 1, "int64": 2}
#: stats_out slot layout (must match STAT_* in _native.c)
_STAT_SLOTS = 4
_STAT_NATIVE_POSITIONS = 0
_STAT_STRIDE_CHECKS = 1
_STAT_DEGRADED = 2
_STAT_SCALAR_POSITIONS = 3


def dense_state_dtype(num_states: int) -> np.dtype[Any]:
    """Narrowest unsigned dtype that can hold every state id.

    uint8 up to 256 states, uint16 up to 65536; beyond that the table
    falls back to int64 (the lockstep dtype).
    """
    if num_states <= (1 << 8):
        return np.dtype(np.uint8)
    if num_states <= (1 << 16):
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class DenseTables:
    """Dtype-narrowed dense transition table + per-symbol column offsets.

    ``table`` is the raveled transition matrix in :func:`dense_state_dtype`
    precision; ``offsets[c] == c * num_states`` is the column offset of
    symbol ``c`` into it (int64: offsets index the full table and must not
    narrow).  Built once per DFA — the compilation cache stores an
    instance inside :class:`repro.compilecache.CompiledDfa` so scans never
    re-derive it.
    """

    def __init__(self, dfa: Dfa) -> None:
        n = dfa.num_states
        self.num_states = n
        self.dtype = dense_state_dtype(n)
        self.table = dfa.transitions.astype(self.dtype).ravel()
        self.offsets = np.arange(dfa.alphabet_size, dtype=np.int64) * n

    @property
    def nbytes(self) -> int:
        return int(self.table.nbytes) + int(self.offsets.nbytes)


class NativeBuildError(RuntimeError):
    """The optional native library could not be compiled."""


# memoized load outcome: (library or None, unavailability reason, path)
_state: Optional[
    Tuple[Optional[ctypes.CDLL], Optional[str], Optional[Path]]
] = None


def _compiler() -> Optional[str]:
    """First usable C compiler: ``$CC``, then cc/gcc/clang on PATH."""
    env_cc = os.environ.get("CC", "").strip()
    for cand in (env_cc, *COMPILERS):
        if cand and shutil.which(cand.split()[0]):
            return cand
    return None


def source_digest() -> str:
    """Content digest of the C source + ABI + platform (cache key)."""
    h = hashlib.sha256()
    h.update(_SOURCE.read_bytes())
    h.update(
        f"|abi={NATIVE_ABI}|{platform.system()}|{platform.machine()}".encode()
    )
    return h.hexdigest()[:16]


def _cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE_DIR, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _library_name() -> str:
    return f"_native_cse-{source_digest()}.so"


def build_native(
    output: Optional[Path] = None, compiler: Optional[str] = None
) -> Path:
    """Compile ``_native.c`` into a shared library; returns its path.

    Raises :class:`NativeBuildError` when no toolchain is available or
    the compile fails — callers that must not fail (``setup.py``, the
    lazy loader) catch it and continue pure-python.
    """
    cc = compiler or _compiler()
    if cc is None:
        raise NativeBuildError(
            f"no C compiler found ($CC, {', '.join(COMPILERS)})"
        )
    out = output or _cache_dir() / _library_name()
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="_native_cse.", dir=str(out.parent)
    )
    os.close(fd)
    tmp = Path(tmp_name)
    cmd = [
        *cc.split(), "-O3", "-std=c99", "-fPIC", "-shared",
        "-o", str(tmp), str(_SOURCE),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        tmp.unlink(missing_ok=True)
        raise NativeBuildError(f"compile invocation failed: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout or "").strip()[-400:]
        raise NativeBuildError(
            f"{cc} exited {proc.returncode}: {detail or 'no output'}"
        )
    # atomic publish: concurrent builders race benignly to the same digest
    os.replace(tmp, out)
    return out


def _configure(lib: ctypes.CDLL) -> None:
    c_i64 = ctypes.c_int64
    c_ptr = ctypes.c_void_p
    lib.cse_native_abi.restype = c_i64
    lib.cse_native_abi.argtypes = []
    lib.cse_native_scan.restype = c_i64
    lib.cse_native_scan.argtypes = [
        c_ptr, c_i64, c_i64,          # table, kind, n_states
        c_ptr, c_ptr, c_i64,          # syms, seg_starts, n_seg
        c_ptr, c_i64,                 # init, width
        c_ptr, c_ptr, c_i64, c_i64,   # cs_starts, cs_sizes, n_blocks, stride
        c_ptr, c_ptr, c_ptr,          # final_out, collapsed_out, stats_out
        c_ptr, c_ptr,                 # frontier_scratch, seen_scratch
    ]
    lib.cse_native_table_view.restype = c_i64
    lib.cse_native_table_view.argtypes = [c_ptr, c_i64, c_i64, c_ptr]


def _try_load(path: Path) -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"dlopen({path.name}) failed: {exc}"
    if not hasattr(lib, "cse_native_abi"):
        return None, f"{path.name} lacks cse_native_abi"
    lib.cse_native_abi.restype = ctypes.c_int64
    lib.cse_native_abi.argtypes = []
    abi = int(lib.cse_native_abi())
    if abi != NATIVE_ABI:
        return None, f"{path.name} has ABI {abi}, expected {NATIVE_ABI}"
    _configure(lib)
    return lib, None


def _disabled_reason() -> Optional[str]:
    raw = os.environ.get(ENV_DISABLE, "").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return f"disabled via {ENV_DISABLE}={raw}"
    return None


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str], Optional[Path]]:
    disabled = _disabled_reason()
    if disabled is not None:
        return None, disabled, None
    if not _SOURCE.is_file():
        return None, "_native.c missing from the package", None
    # prebuilt (setup.py drops the library next to the module), then the
    # per-user cache, then a lazy on-demand build
    candidates = sorted(_SOURCE.parent.glob("_native_cse*.so"))
    cached = _cache_dir() / _library_name()
    if cached.is_file():
        candidates.append(cached)
    last_err: Optional[str] = None
    for cand in candidates:
        lib, err = _try_load(cand)
        if lib is not None:
            return lib, None, cand
        last_err = err
    try:
        built = build_native()
    except NativeBuildError as exc:
        reason = str(exc) if last_err is None else f"{last_err}; {exc}"
        return None, reason, None
    lib, err = _try_load(built)
    if lib is not None:
        return lib, None, built
    return None, err, None


def load_native(refresh: bool = False) -> Optional[ctypes.CDLL]:
    """The loaded library, or ``None`` (reason memoized) when absent."""
    global _state
    if _state is None or refresh:
        _state = _load()
    return _state[0]


def reset_native() -> None:
    """Forget the memoized load outcome (tests flip env vars)."""
    global _state
    _state = None


def native_available() -> bool:
    """True when the compiled tier is loadable right now."""
    return load_native() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native tier is off (``None`` when it is available)."""
    load_native()
    assert _state is not None
    return _state[1]


def native_library_path() -> Optional[Path]:
    """Path of the loaded library (``None`` when unavailable)."""
    load_native()
    assert _state is not None
    return _state[2]


def _compiler_version(cc: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            [*cc.split(), "--version"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    first = (proc.stdout or proc.stderr or "").strip().splitlines()
    return first[0][:120] if first else None


def native_build_info() -> Dict[str, object]:
    """Provenance of the compiled tier (stamped into BENCH_*.json)."""
    lib = load_native()
    assert _state is not None
    info: Dict[str, object] = {
        "available": lib is not None,
        "abi": NATIVE_ABI,
        "source_digest": source_digest() if _SOURCE.is_file() else None,
    }
    if lib is None:
        info["reason"] = _state[1]
    else:
        info["library"] = str(_state[2])
    cc = _compiler()
    info["compiler"] = cc
    if cc is not None:
        info["compiler_version"] = _compiler_version(cc)
    return info


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def native_table_view(tables: DenseTables) -> np.ndarray:
    """The table exactly as the C library reads it, widened to int64.

    ``repro check`` compares this against the dense tables (K114): a
    mismatch means the compiled library and the Python tier disagree on
    the transition bytes and the native backend must not be trusted.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    kind = _TABLE_KINDS.get(str(tables.table.dtype))
    if kind is None:
        raise ValueError(f"unsupported table dtype {tables.table.dtype}")
    table = np.ascontiguousarray(tables.table, dtype=tables.table.dtype)
    out = np.empty(int(table.size), dtype=np.int64)
    rc = int(lib.cse_native_table_view(
        _ptr(table), kind, int(table.size), _ptr(out)
    ))
    if rc != 0:
        raise RuntimeError(f"native table view rejected kind {kind}")
    return out


def run_segments_native(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: Optional[DenseTables] = None,
    stride: Optional[int] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Execute every segment's dense frontier in one compiled call.

    Returns ``(grid, stats)``: ``grid[seg][block]`` is the
    :class:`CsOutcome` of convergence set ``block`` in segment ``seg``
    (bit-identical to the interpreted path) and ``stats`` carries the
    tier's own telemetry (``positions`` — frontier gather positions —
    ``stride_checks``, ``degraded_segments``, ``scalar_positions``,
    ``collapses``).  ``stride`` pins the gap between collapse checks;
    ``None`` adapts it.  A symbol outside the alphabet raises
    :class:`repro.automata.dfa.SymbolRangeError` (the scan entry points
    reject it earlier, before any kernel runs).
    """
    if stride is not None and int(stride) < 1:
        raise ValueError("stride must be >= 1")
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    tables = tables or DenseTables(dfa)
    kind = _TABLE_KINDS.get(str(tables.table.dtype))
    if kind is None:
        raise ValueError(f"unsupported table dtype {tables.table.dtype}")
    n_seg = len(segments)
    blocks = partition.block_arrays()
    n_blocks = len(blocks)
    sizes = np.ascontiguousarray(
        [b.size for b in blocks], dtype=np.int64
    )
    multi_count = int((sizes > 1).sum())
    if n_seg == 0:
        return [], {
            "positions": 0, "stride_checks": 0, "degraded_segments": 0,
            "scalar_positions": 0, "collapses": 0,
        }
    segs = [as_symbols(s) for s in segments]
    seg_starts = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum([s.size for s in segs], out=seg_starts[1:])
    syms = np.ascontiguousarray(np.concatenate(segs), dtype=np.int64)
    # the C gather indexes the table with these unchecked: validate here
    check_symbols(syms, dfa.alphabet_size)

    # frontier lanes grouped by convergence set so a per-CS read is a
    # contiguous slice: lane j tracks the path that started at perm[j]
    perm = (
        np.concatenate(blocks).astype(np.int64) if n_blocks else
        np.empty(0, dtype=np.int64)
    )
    width = int(perm.size)
    cs_starts = np.zeros(n_blocks, dtype=np.int64)
    if n_blocks > 1:
        np.cumsum(sizes[:-1], out=cs_starts[1:])
    cs_ends = cs_starts + sizes

    table = np.ascontiguousarray(tables.table, dtype=tables.table.dtype)
    final_out = np.empty((n_seg, max(width, 1)), dtype=np.int64)
    collapsed_out = np.empty(n_seg, dtype=np.int64)
    stats_out = np.zeros(_STAT_SLOTS, dtype=np.int64)
    frontier_scratch = np.empty(max(width, 1), dtype=np.int64)
    seen_scratch = np.empty(max(n_blocks, 1), dtype=np.uint8)
    rc = int(lib.cse_native_scan(
        _ptr(table), kind, int(tables.num_states),
        _ptr(syms), _ptr(seg_starts), n_seg,
        _ptr(perm), width,
        _ptr(cs_starts), _ptr(sizes),
        n_blocks, 0 if stride is None else int(stride),
        _ptr(final_out), _ptr(collapsed_out), _ptr(stats_out),
        _ptr(frontier_scratch), _ptr(seen_scratch),
    ))
    if rc != 0:
        raise RuntimeError(f"native scan rejected table kind {kind}")

    # outcomes derive from the final frontier (or the collapsed scalar),
    # so stride placement and the C realization cannot change them
    n_collapsed = 0
    grid: List[List[CsOutcome]] = []
    for seg_i in range(n_seg):
        scalar = int(collapsed_out[seg_i])
        if scalar >= 0:
            states = np.asarray([scalar], dtype=np.int64)
            grid.append([CsOutcome(True, scalar, states)] * n_blocks)
            n_collapsed += multi_count
            continue
        fr = final_out[seg_i]
        outcomes: List[CsOutcome] = []
        for b in range(n_blocks):
            uniq = np.unique(fr[int(cs_starts[b]):int(cs_ends[b])])
            if uniq.size == 1:
                outcomes.append(CsOutcome(True, int(uniq[0]), uniq))
                if int(sizes[b]) > 1:
                    n_collapsed += 1
            else:
                outcomes.append(CsOutcome(False, None, uniq))
        grid.append(outcomes)

    stats = {
        "positions": int(stats_out[_STAT_NATIVE_POSITIONS]),
        "stride_checks": int(stats_out[_STAT_STRIDE_CHECKS]),
        "degraded_segments": int(stats_out[_STAT_DEGRADED]),
        "scalar_positions": int(stats_out[_STAT_SCALAR_POSITIONS]),
        "collapses": n_collapsed,
    }
    return grid, stats


def degraded_backend(n_blocks: int) -> str:
    """Where set-flow work runs when it cannot take the compiled tier.

    One convergence set gives a batched kernel nothing to amortize
    (lockstep measured 0.33x the interpreter on ``random64/trivial``), so
    it takes the interpreted walk; more sets take lockstep.
    """
    return "python" if n_blocks <= 1 else "lockstep"


def frontier_backend(partition: StatePartition) -> str:
    """The kernel the native frontier's work runs on for ``partition``.

    ``"native"`` when the library loads, else :func:`degraded_backend`'s
    pick for the partition's convergence-set count.
    """
    if native_available():
        return "native"
    return degraded_backend(partition.num_blocks)


def run_frontier(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: Optional[DenseTables] = None,
    stride: Optional[int] = None,
    rows: Optional[List[List[int]]] = None,
    flat: Optional[np.ndarray] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int], str]:
    """Run segments on the native frontier, or its fallback when absent.

    Returns ``(grid, stats, backend)`` with the grid contract of
    :func:`run_segments_native`; ``backend`` names the kernel that ran
    (:func:`frontier_backend`'s pick).  ``rows`` optionally reuses the
    nested-list table the interpreted walk indexes and ``flat`` the
    int64-raveled table lockstep gathers from.
    """
    backend = frontier_backend(partition)
    if backend == "native":
        grid, stats = run_segments_native(
            dfa, partition, segments, tables=tables, stride=stride
        )
        return grid, stats, backend
    if backend == "lockstep":
        grid, stats = run_segments_lockstep(dfa, partition, segments, flat=flat)
        return grid, stats, backend
    blocks = partition.block_arrays()
    if rows is None:
        rows = [r.tolist() for r in dfa.transitions]
    table = dfa.transitions.astype(np.int64)
    grid = [
        walk_set_flows(blocks, as_symbols(s).tolist(), rows, table)
        for s in segments
    ]
    collapses = sum(
        1 for outcomes in grid for blk, out in zip(blocks, outcomes)
        if blk.size > 1 and out.converged
    )
    return grid, {"collapses": collapses}, backend


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.kernels.native [--rebuild]``: build + report."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="build/inspect the optional native set-flow library"
    )
    parser.add_argument(
        "--rebuild", action="store_true",
        help="force a fresh compile into the cache directory",
    )
    args = parser.parse_args(argv)
    if args.rebuild:
        try:
            path = build_native()
            print(f"built {path}", file=sys.stderr)
            reset_native()
        except NativeBuildError as exc:
            print(f"build failed: {exc}", file=sys.stderr)
    print(json.dumps(native_build_info(), indent=2, sort_keys=True))
    return 0 if native_available() else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(_main())
