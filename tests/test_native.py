"""Compiled native set-flow tier: equivalence, degradation, certification.

The native tier is optional by contract: every test here must pass both
on a host where the library builds (the common case in CI, which also
runs the whole suite once with ``REPRO_NATIVE=0``) and on a
toolchain-less host where it never loads.  Tests that need the library
skip when it is absent; tests of the degradation path force it absent
via the env kill-switch and the loader reset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.automata.builders import random_dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.kernels import (
    DenseTables,
    native_available,
    resolve_backend,
    run_segments_batch,
)
from repro.kernels.lockstep import run_segments_lockstep
from repro.kernels.native import (
    ENV_DISABLE,
    native_build_info,
    native_table_view,
    native_unavailable_reason,
    reset_native,
    run_segments_native,
)
from repro.software import run_segment, software_cse_scan

needs_native = pytest.mark.skipif(
    not native_available(), reason="native library not loadable here"
)


@pytest.fixture
def no_native(monkeypatch):
    """Force the native tier absent for the duration of a test."""
    monkeypatch.setenv(ENV_DISABLE, "0")
    reset_native()
    yield
    reset_native()


@pytest.fixture(autouse=True)
def _restore_loader():
    """Never leak a poisoned loader memo into other test modules."""
    yield
    reset_native()


def grids_equal(g1, g2):
    assert len(g1) == len(g2)
    for o1, o2 in zip(g1, g2):
        assert len(o1) == len(o2)
        for a, b in zip(o1, o2):
            assert a.converged == b.converged
            assert a.state == b.state
            assert np.array_equal(a.states, b.states)


class TestEquivalence:
    @needs_native
    @pytest.mark.parametrize("n_states,alphabet", [(8, 4), (64, 16), (300, 8)])
    @pytest.mark.parametrize("stride", [None, 1, 7])
    def test_matches_dense_across_dtypes_and_strides(
        self, rng, n_states, alphabet, stride
    ):
        """The native dense frontier matches lockstep for every dense-table
        dtype (uint8 and uint16 here) and collapse-check stride."""
        dfa = random_dfa(n_states, alphabet, rng)
        partition = StatePartition.discrete(n_states)
        segments = [
            rng.integers(0, alphabet, size=k) for k in (0, 3, 500, 1, 250)
        ]
        g1, s1 = run_segments_lockstep(dfa, partition, segments)
        g2, s2 = run_segments_native(dfa, partition, segments, stride=stride)
        grids_equal(g1, g2)
        assert s1["collapses"] == s2["collapses"]

    @needs_native
    def test_matches_interpreter_on_coarse_partition(self, rng):
        dfa = random_dfa(40, 6, rng)
        partition = StatePartition.from_labels(
            [i % 5 for i in range(40)]
        )
        word = rng.integers(0, 6, size=2000)
        segments = [word[a:b] for a, b in even_boundaries(word.size, 6)]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        functions = run_segments_batch(
            dfa, partition, segments, backend="native"
        )
        for ref, fn in zip(reference, functions):
            assert len(ref.outcomes) == len(fn.outcomes)
            for a, b in zip(ref.outcomes, fn.outcomes):
                assert a.converged == b.converged
                assert a.state == b.state
                assert np.array_equal(a.states, b.states)

    @needs_native
    def test_scan_final_state(self, rng):
        dfa = random_dfa(64, 16, rng)
        word = rng.integers(0, 16, size=5000)
        partition = StatePartition.discrete(64)
        run = software_cse_scan(
            dfa, word, partition, n_segments=8, backend="native"
        )
        assert run.backend == "native"
        assert run.requested_backend == "native"
        assert run.final_state == dfa.run(word)

    @needs_native
    def test_reuses_compiled_dense_tables(self, rng):
        from repro.compilecache import compile_dfa

        dfa = random_dfa(32, 8, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert compiled.backend == "native"
        # the artifact eagerly built the dense tables the tier consumes
        assert compiled._dense is not None
        word = rng.integers(0, 8, size=3000)
        run = software_cse_scan(
            dfa, word, compiled.partition, n_segments=8,
            backend="auto", compiled=compiled,
        )
        assert run.backend == "native"
        assert run.final_state == dfa.run(word)


class TestDegradation:
    def test_resolve_degrades_with_reason(self, rng, no_native):
        dfa = random_dfa(64, 8, rng)
        partition = StatePartition.discrete(64)
        with obs.using() as registry:
            assert resolve_backend(dfa, "native", partition, 16) == "lockstep"
        counter = registry.get(
            "kernels_backend_resolved_total",
            requested="native", backend="lockstep",
            reason="native-unavailable",
        )
        assert counter is not None and counter.value == 1

    def test_auto_never_picks_native_when_absent(self, rng, no_native):
        dfa = random_dfa(64, 8, rng)
        partition = StatePartition.discrete(64)
        assert resolve_backend(dfa, None, partition, 16) == "lockstep"

    def test_unavailable_reason_is_reported(self, no_native):
        assert not native_available()
        reason = native_unavailable_reason()
        assert reason is not None and ENV_DISABLE in reason

    def test_batch_falls_back_bit_identically(self, rng, no_native):
        dfa = random_dfa(16, 4, rng)
        partition = StatePartition.discrete(16)
        segments = [rng.integers(0, 4, size=200) for _ in range(4)]
        with obs.using() as registry:
            got = run_segments_batch(
                dfa, partition, segments, backend="native"
            )
        want = run_segments_batch(dfa, partition, segments, backend="lockstep")
        for a, b in zip(want, got):
            for oa, ob in zip(a.outcomes, b.outcomes):
                assert oa.converged == ob.converged
                assert oa.state == ob.state
                assert np.array_equal(oa.states, ob.states)
        fallbacks = registry.get("kernels_native_fallbacks_total")
        assert fallbacks is not None and fallbacks.value == 1
        # the work ran (and was recorded) as the lockstep kernel
        assert registry.get("kernels_positions_total", backend="lockstep")

    def test_scan_explicit_native_degrades(self, rng, no_native):
        dfa = random_dfa(32, 8, rng)
        word = rng.integers(0, 8, size=2000)
        partition = StatePartition.discrete(32)
        run = software_cse_scan(
            dfa, word, partition, n_segments=4, backend="native"
        )
        assert run.backend == "lockstep"
        assert run.requested_backend == "native"
        assert run.final_state == dfa.run(word)

    def test_cli_smoke_exits_zero_without_toolchain(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(ENV_DISABLE, "0")
        reset_native()
        rules = tmp_path / "rules.txt"
        rules.write_text("cat\ndog\n")
        data = tmp_path / "input.bin"
        data.write_bytes(b"the cat sat on the dog " * 50)
        code = main([
            "software", str(rules), str(data),
            "--backend", "native", "--segments", "4", "--trivial",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend:" in out

    def test_build_info_reports_absence(self, no_native):
        info = native_build_info()
        assert info["available"] is False
        assert ENV_DISABLE in str(info["reason"])


class TestCertification:
    @needs_native
    def test_table_view_bit_identical(self, rng):
        for n_states in (10, 300):
            dfa = random_dfa(n_states, 5, rng)
            tables = DenseTables(dfa)
            view = native_table_view(tables)
            assert view.dtype == np.int64
            assert np.array_equal(
                view, dfa.transitions.astype(np.int64).ravel()
            )

    @needs_native
    def test_verify_native_clean(self, rng):
        from repro.check import verify_native

        dfa = random_dfa(24, 6, rng)
        assert verify_native(dfa) == []

    @needs_native
    def test_verify_native_flags_tampered_tables(self, rng):
        from repro.check import verify_native

        dfa = random_dfa(24, 6, rng)
        tables = DenseTables(dfa)
        tampered = tables.table.copy()
        tampered[3] = (int(tampered[3]) + 1) % dfa.num_states
        tables.table = tampered
        diags = verify_native(dfa, dense=tables)
        assert any(d.code == "K114" for d in diags)

    @needs_native
    def test_verify_compiled_includes_native(self, rng):
        from repro.check import verify_compiled
        from repro.compilecache import compile_dfa

        dfa = random_dfa(16, 4, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert verify_compiled(compiled) == []

    def test_native_to_lockstep_not_a_k106_contradiction(self, rng, no_native):
        from repro.check import verify_compiled
        from repro.compilecache import compile_dfa

        dfa = random_dfa(16, 4, rng)
        compiled = compile_dfa(dfa, backend="native", n_segments=8)
        assert compiled.requested_backend == "native"
        assert compiled.backend == "lockstep"
        assert not [
            d for d in verify_compiled(compiled) if d.code == "K106"
        ]

    def test_verify_native_silent_when_absent(self, rng, no_native):
        from repro.check import verify_native

        dfa = random_dfa(16, 4, rng)
        assert verify_native(dfa) == []


class TestObservability:
    @needs_native
    def test_native_counters_recorded(self, rng):
        dfa = random_dfa(32, 8, rng)
        partition = StatePartition.discrete(32)
        segments = [rng.integers(0, 8, size=500) for _ in range(4)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
        # symbols consumed, summed over the 4 segments
        assert registry.get(
            "kernels_positions_total", backend="native"
        ).value == 2000
        assert registry.get("kernels_native_positions_total").value > 0
        assert registry.get("kernels_native_stride_checks_total").value > 0

    @needs_native
    def test_top_renders_native_row(self, rng):
        from repro.obs.live.top import render_top

        dfa = random_dfa(32, 8, rng)
        partition = StatePartition.discrete(32)
        segments = [rng.integers(0, 8, size=500) for _ in range(4)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
            snapshot = registry.snapshot()
        text = render_top(None, snapshot, 1.0)
        assert "native" in text
        assert "unknown" not in text

    def test_top_renders_fallbacks(self, rng, no_native):
        from repro.obs.live.top import render_top

        dfa = random_dfa(16, 4, rng)
        partition = StatePartition.discrete(16)
        segments = [rng.integers(0, 4, size=100) for _ in range(2)]
        with obs.using() as registry:
            run_segments_batch(dfa, partition, segments, backend="native")
            snapshot = registry.snapshot()
        text = render_top(None, snapshot, 1.0)
        assert "fallbacks 1" in text


class TestEnvInfo:
    def test_bench_provenance_keys(self):
        import pathlib
        import sys

        sys.path.insert(
            0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks")
        )
        from env_info import env_info

        info = env_info()
        assert "native" in info
        assert "simd_flags" in info
        assert isinstance(info["simd_flags"], list)
        native = info["native"]
        assert "available" in native
        assert "compiler" in native
        if native["available"]:
            assert native["library"]
            assert native["compiler_version"]
