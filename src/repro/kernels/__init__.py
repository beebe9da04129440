"""Vectorized execution kernels for the software CSE path.

The interpreted reference path (:func:`repro.software.run_segment` with
``backend="python"``) pays Python bytecode per state transition; these
kernels pay it per *symbol position of the whole scan*, or not at all:

- :mod:`repro.kernels.lockstep` — cross-segment lockstep stepping: all
  scalar flows of all segments advance with one fancy-indexed gather per
  position; diverged sets ride a flat member array.
- :mod:`repro.kernels.native` — the compiled set-flow tier: every
  segment's dense frontier (all N states, dtype-narrowed table) advanced
  over the whole symbol buffer in one C call (ctypes-loaded, zero runtime
  deps); strictly optional — every caller degrades to lockstep (or the
  interpreted walk for one convergence set) when no toolchain or prebuilt
  library exists.
- :mod:`repro.kernels.prefilter` — the literal-prefilter fast path:
  compile-time anchor/skip-width certification plus a scan kernel that
  sweeps for anchor bytes vectorized and walks only the tail after the
  last proven reset run, skipping the frontier entirely elsewhere.
- :mod:`repro.kernels.batch` — the orchestrator that runs every
  enumerative segment through one batched pass and the shared
  ``resolve_backend`` default-resolution helper.
"""

from repro.kernels.batch import (
    BACKENDS,
    KERNEL_BACKENDS,
    NATIVE_MAX_STATES,
    resolve_backend,
    run_segments_batch,
)
from repro.kernels.native import (
    DenseTables,
    NativeBuildError,
    build_native,
    dense_state_dtype,
    native_available,
    native_build_info,
    native_table_view,
    native_unavailable_reason,
    run_segments_native,
)
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    derive_prefilter,
    prefilter_scan_scalar,
)

__all__ = [
    "BACKENDS",
    "KERNEL_BACKENDS",
    "NATIVE_MAX_STATES",
    "DenseTables",
    "NativeBuildError",
    "PrefilterTables",
    "build_native",
    "certify_prefilter",
    "dense_state_dtype",
    "derive_prefilter",
    "native_available",
    "native_build_info",
    "native_table_view",
    "native_unavailable_reason",
    "prefilter_scan_scalar",
    "resolve_backend",
    "run_segments_batch",
    "run_segments_native",
]
