"""Shared pieces of the pipeline benchmark: workload shapes, statistics,
host probe, memory reading and output references.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
import this file to validate its arguments (and fail fast in a
directory without the package) before any interpreter loads the library.
"""

from __future__ import annotations

import bisect
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: every file the benchmark writes (inputs, caches, native library,
#: traces, results) lives under this directory of the checkout
BUILD_DIR = ROOT / ".bench_build"
NATIVE_DIR = BUILD_DIR / "native"

MB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: ruleset shape, input shape, scan shape."""

    name: str
    family: str
    n_patterns: int
    #: the ruleset is fixed so that every seed scans the same machine;
    #: the seed varies the input bytes only (README.md, "Workloads")
    ruleset_seed: int
    #: whole-input size on the bulk workload, payload size per stream
    #: pass on the stream workload
    input_bytes: int
    #: bulk input bytes are uniform over ``[byte_low, byte_low + byte_span)``
    byte_low: int
    byte_span: int
    #: segments of one software_cse_scan
    n_segments: int
    #: True: the measured operation is StreamScanner.feed (no bulk phase)
    stream_only: bool
    #: cold and as many warm set-up samples per run
    setup_samples: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="snort_bulk", family="Snort", n_patterns=20, ruleset_seed=1,
            input_bytes=2 << 20, byte_low=ord("a"), byte_span=26,
            n_segments=16, stream_only=False, setup_samples=5,
        ),
        Workload(
            name="literal_stream", family="LiteralHeavy", n_patterns=32,
            ruleset_seed=1, input_bytes=8 << 20, byte_low=0, byte_span=0,
            n_segments=8, stream_only=True, setup_samples=8,
        ),
    )
}

CHUNK_BYTES = 4096
#: a chunk-latency p99 needs ten samples beyond it
MIN_CHUNKS = 1000
#: literal_stream payload density of planted pattern starts
MATCH_DENSITY = 0.001


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    At least ``min_beyond`` samples must lie strictly above the rank the
    percentile is read from, so a p99 needs 1000 samples and a median 20.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"{min_beyond} needed"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float], min_n: int = 3) -> float:
    """Median of at least ``min_n`` samples (never a single timing)."""
    if len(samples) < min_n:
        raise InsufficientSamples(
            f"median of {len(samples)} samples; {min_n} needed"
        )
    return float(statistics.median(samples))


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# host probe and memory
# ----------------------------------------------------------------------
def host_spin_ms() -> Dict[str, float]:
    """Time a fixed Python loop and a fixed numpy kernel, in ms.

    The same work on every run, so a slow host shows here and a slow
    program does not.
    """
    import numpy as np

    begin = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i & 7
    python_ms = (time.perf_counter() - begin) * 1e3
    table = np.arange(1 << 16, dtype=np.int64)[::-1].copy()
    idx = np.arange(1 << 20, dtype=np.int64) & 0xFFFF
    begin = time.perf_counter()
    for _ in range(8):
        idx = table.take(idx) & 0xFFFF
    numpy_ms = (time.perf_counter() - begin) * 1e3
    return {"python_ms": python_ms, "numpy_ms": numpy_ms,
            "total_ms": python_ms + numpy_ms, "check": float(acc + int(idx[0]))}


#: the mean host tick, in ms, that normalised times are scaled to (about
#: this tick's mean on the 2.1 GHz Xeon vCPUs of STEADINESS.md)
TICK_REF_MS = 1.5


def host_tick() -> float:
    """A short fixed Python loop plus a numpy gather, timed in ms.

    The benchmark runs one before every measured operation; the host's
    speed changes between runs and within them, and the ticks measure it
    (README.md, "Host normalisation").
    """
    import numpy as np

    table = np.arange(1 << 16, dtype=np.int64)[::-1].copy()
    idx = np.arange(1 << 16, dtype=np.int64)
    begin = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i & 7
    for _ in range(4):
        idx = table.take(idx)
    return (time.perf_counter() - begin) * 1e3


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# inputs and output references
# ----------------------------------------------------------------------
def ruleset(workload: Workload) -> List[str]:
    from repro.workloads import generate_ruleset

    return generate_ruleset(workload.family, workload.n_patterns,
                            workload.ruleset_seed)


def bulk_input(workload: Workload, seed: int) -> bytes:
    """The bulk workload's uniform input bytes, drawn from ``seed``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    low, span = workload.byte_low, workload.byte_span
    return rng.integers(low, low + span, workload.input_bytes,
                        dtype=np.uint16).astype(np.uint8).tobytes()


def stream_payload(patterns: Sequence[str], size: int, seed: int) -> bytes:
    from repro.workloads.literal import literal_payload

    return literal_payload(patterns, size, match_density=MATCH_DENSITY,
                           seed=seed)


def piece_states(dfa, data: bytes, piece: int) -> List[int]:
    """Reference state after every ``piece`` bytes (and after the tail).

    ``states[k]`` is the state after ``min((k + 1) * piece, len)`` bytes,
    walked with :func:`repro.software.scan_sequential` and carried from
    piece to piece, so the oracle never holds the whole input as a
    Python list.  With ``piece`` the chunk size, every fed chunk has its
    own reference state; the last entry is the whole input's final state.
    """
    from repro.software import scan_sequential

    rows = [row.tolist() for row in dfa.transitions]
    state = dfa.start
    states = []
    for begin in range(0, len(data), piece):
        state, _ = scan_sequential(dfa, data[begin:begin + piece],
                                   start_state=state, rows=rows)
        states.append(int(state))
    return states


def literal_report_offsets(patterns: Sequence[str], data: bytes) -> List[int]:
    """Sorted offsets at which some literal pattern occurrence ends.

    Built with ``bytes.find`` over every pattern, overlapping occurrences
    included, so it does not depend on the regex compiler at all.
    """
    ends = set()
    for pattern in patterns:
        needle = pattern.encode("latin-1")
        at = data.find(needle)
        while at != -1:
            ends.add(at + len(needle) - 1)
            at = data.find(needle, at + 1)
    return sorted(ends)


def offsets_in(reference: Sequence[int], begin: int, end: int) -> List[int]:
    """Reference offsets in ``[begin, end)``."""
    lo = bisect.bisect_left(reference, begin)
    hi = bisect.bisect_left(reference, end)
    return list(reference[lo:hi])


def env_info() -> Dict:
    """The repository's provenance stamp (``benchmarks/env_info.py``)."""
    import importlib.util

    path = ROOT / "benchmarks" / "env_info.py"
    spec = importlib.util.spec_from_file_location("_bench_env_info", path)
    if spec is None or spec.loader is None:
        return {"error": f"cannot load {path.name}"}
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.env_info()


def bench_env() -> Dict[str, str]:
    """Environment for every interpreter the benchmark starts."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_DIR)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def layout_error() -> Optional[str]:
    """Why this checkout cannot run the benchmark, or ``None``."""
    for needed in ("src/repro/__init__.py", "src/repro/software.py",
                   "benchmarks/env_info.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} is missing: run from a full repository checkout"
    return None
