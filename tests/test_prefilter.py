"""Literal-prefilter fast path: certification, scan equivalence, checks.

The prefilter is the one kernel licensed to *skip input bytes*, so its
tests are adversarial: every claim (home invariance, skip-width
soundness, anchor soundness) is probed with tampered certificates, and
scan outcomes are diffed bit-for-bit against the native dense frontier
(lockstep without the library) and the sequential oracle across match densities from zero to adversarially
dense — including payloads built entirely from anchor bytes, where the
prefilter must fall back rather than skip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import Dfa
from repro.check import has_errors, verify_prefilter
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.kernels import (
    PrefilterTables,
    certify_prefilter,
    derive_prefilter,
    prefilter_scan_scalar,
    run_segments_batch,
)
from repro.kernels.native import (
    ENV_DISABLE,
    frontier_backend,
    reset_native,
    run_frontier,
)
from repro.kernels.prefilter import _last_reset, run_segments_prefilter
from repro.regex.compile import compile_ruleset
from repro.software import software_cse_scan
from repro.workloads import generate_ruleset, literal_payload


@pytest.fixture(scope="module")
def literal_dfa():
    return compile_ruleset(generate_ruleset("LiteralHeavy", 6, 11))


@pytest.fixture(scope="module")
def literal_patterns_fixture():
    return generate_ruleset("LiteralHeavy", 6, 11)


def _partition(dfa, n_labels=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, dfa.num_states)
    return StatePartition.from_labels(labels.tolist())


class TestCertification:
    def test_literal_ruleset_certifies(self, literal_dfa):
        tables = derive_prefilter(literal_dfa)
        assert tables is not None
        assert tables.skip_width >= 1
        assert 0 < tables.n_anchors <= literal_dfa.alphabet_size // 2
        assert tables.num_states == literal_dfa.num_states

    def test_certificate_passes_verifier(self, literal_dfa):
        tables = derive_prefilter(literal_dfa)
        assert verify_prefilter(tables, literal_dfa) == []

    def test_home_invariance_by_construction(self, literal_dfa):
        t = derive_prefilter(literal_dfa)
        table = literal_dfa.transitions
        non_anchor = np.flatnonzero(~t.anchor_lut)
        assert (table[non_anchor, t.home] == t.home).all()

    def test_skip_width_absorbs_every_state(self, literal_dfa):
        """Brute-force fact 2: any skip_width-long non-anchor word sends
        every state home (sampled words, every start state)."""
        t = derive_prefilter(literal_dfa)
        rng = np.random.default_rng(5)
        non_anchor = np.flatnonzero(~t.anchor_lut)
        for _ in range(20):
            word = non_anchor[rng.integers(0, non_anchor.size, t.skip_width)]
            for q in range(literal_dfa.num_states):
                assert literal_dfa.run(word, state=q) == t.home

    def test_permutation_dfa_rejected(self):
        """A permutation machine has no absorbing home; never certifies."""
        table = np.asarray([[1, 2, 0], [2, 0, 1]], dtype=np.int32)
        assert derive_prefilter(Dfa(table, 0, [0])) is None

    def test_accepting_home_rejected(self):
        """All-self-loop machine whose only state accepts: skipping would
        hide reports, so anchor soundness must refuse it."""
        table = np.zeros((4, 1), dtype=np.int32)
        assert derive_prefilter(Dfa(table, 0, [0])) is None

    def test_memoized_by_fingerprint(self, literal_dfa):
        assert certify_prefilter(literal_dfa) is certify_prefilter(literal_dfa)

    def test_summary_is_envelope_stable(self, literal_dfa):
        a = derive_prefilter(literal_dfa).summary()
        b = derive_prefilter(literal_dfa).summary()
        assert a == b
        assert set(a) == {"home", "skip_width", "n_anchors", "anchor_digest"}


class TestLastReset:
    def test_no_hits_long_segment(self):
        assert _last_reset(np.asarray([], dtype=np.int64), 10, 3) == (True, 10)

    def test_no_hits_short_segment(self):
        assert _last_reset(np.asarray([], dtype=np.int64), 2, 3) == (False, 0)

    def test_trailing_run_qualifies(self):
        hits = np.asarray([0, 1, 4], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 10)

    def test_interior_gap(self):
        # gap between 1 and 7 is 5 >= 3; walk resumes at the next hit
        hits = np.asarray([0, 1, 7, 9], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 7)

    def test_leading_run(self):
        hits = np.asarray([5, 6, 7, 8, 9], dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (True, 5)

    def test_dense_hits_not_proven(self):
        hits = np.arange(10, dtype=np.int64)
        assert _last_reset(hits, 10, 3) == (False, 0)


class TestScanEquivalence:
    @pytest.mark.parametrize("density,adversarial", [
        (0.0, False),
        (0.002, False),
        (0.05, False),
        (0.3, True),
        (1.0, True),
    ])
    def test_grid_bit_identical_to_dense(
        self, literal_dfa, literal_patterns_fixture, density, adversarial
    ):
        payload = literal_payload(
            literal_patterns_fixture, 20000, match_density=density,
            seed=13, adversarial=adversarial,
        )
        seg = np.frombuffer(payload, dtype=np.uint8)
        bounds = even_boundaries(seg.size, 8)
        segments = [seg[a:b] for a, b in bounds]
        partition = _partition(literal_dfa)
        tables = derive_prefilter(literal_dfa)
        grid, stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        want_grid, want_stats, _ = run_frontier(
            literal_dfa, partition, [s.astype(np.int64) for s in segments]
        )
        assert stats["collapses"] == want_stats["collapses"]
        for got_fn, want_fn in zip(grid, want_grid):
            for got, want in zip(got_fn, want_fn):
                assert got.converged == want.converged
                assert got.state == want.state
                assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("window", [1, 7, 64])
    @pytest.mark.parametrize("density,adversarial", [
        (0.0, False), (0.05, False), (0.3, True),
    ])
    def test_backward_sweep_windows_never_change_outcomes(
        self, literal_dfa, literal_patterns_fixture, monkeypatch, window,
        density, adversarial,
    ):
        """Windows far below the segment length force the sweep to widen
        many times; outcomes must equal one whole-segment sweep."""
        import repro.kernels.prefilter as prefilter

        payload = literal_payload(
            literal_patterns_fixture, 6000, match_density=density,
            seed=31, adversarial=adversarial,
        )
        seg = np.frombuffer(payload, dtype=np.uint8)
        segments = [seg[a:b] for a, b in even_boundaries(seg.size, 5)]
        partition = _partition(literal_dfa)
        tables = derive_prefilter(literal_dfa)
        want, want_stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        monkeypatch.setattr(prefilter, "SWEEP_WINDOW", window)
        got, stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        assert stats["skipped_bytes"] == want_stats["skipped_bytes"]
        assert stats["fallback_segments"] == want_stats["fallback_segments"]
        for got_fn, want_fn in zip(got, want):
            for g, w in zip(got_fn, want_fn):
                assert g.converged == w.converged
                assert g.state == w.state
                assert np.array_equal(g.states, w.states)
        for start in (None, literal_dfa.num_states - 1):
            final, _ = prefilter_scan_scalar(
                literal_dfa, tables, seg, start_state=start
            )
            assert final == literal_dfa.run(seg, state=start)

    @pytest.mark.parametrize("density,adversarial", [
        (0.0, False), (0.01, False), (0.5, True),
    ])
    def test_scalar_scan_matches_oracle(
        self, literal_dfa, literal_patterns_fixture, density, adversarial
    ):
        payload = literal_payload(
            literal_patterns_fixture, 5000, match_density=density,
            seed=29, adversarial=adversarial,
        )
        seg = np.frombuffer(payload, dtype=np.uint8)
        tables = derive_prefilter(literal_dfa)
        for start in (None, 0, literal_dfa.num_states - 1):
            final, walked = prefilter_scan_scalar(
                literal_dfa, tables, seg, start_state=start
            )
            assert final == literal_dfa.run(seg, state=start)
            assert 0 <= walked <= seg.size

    def test_end_to_end_matches_dense(
        self, literal_dfa, literal_patterns_fixture
    ):
        payload = literal_payload(
            literal_patterns_fixture, 30000, match_density=0.001, seed=3
        )
        partition = _partition(literal_dfa)
        pre = software_cse_scan(
            literal_dfa, payload, partition, n_segments=6, backend="prefilter"
        )
        den = software_cse_scan(
            literal_dfa, payload, partition, n_segments=6, backend="native"
        )
        assert pre.backend == "prefilter"
        assert pre.final_state == den.final_state == literal_dfa.run(
            np.frombuffer(payload, dtype=np.uint8)
        )

    def test_auto_picks_prefilter_on_literal_machine(
        self, literal_dfa, literal_patterns_fixture
    ):
        payload = literal_payload(literal_patterns_fixture, 4096, seed=1)
        run = software_cse_scan(
            literal_dfa, payload, _partition(literal_dfa),
            n_segments=4, backend="auto",
        )
        assert run.backend == "prefilter"
        assert run.requested_backend == "auto"

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.6]),
           st.booleans(), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_density_sweep(self, seed, density, adversarial,
                                      n_segments):
        """prefilter == native == lockstep == python across densities."""
        patterns = generate_ruleset("LiteralHeavy", 4, 17)
        dfa = compile_ruleset(patterns)
        payload = literal_payload(
            patterns, 2000, match_density=density, seed=seed,
            adversarial=adversarial,
        )
        partition = _partition(dfa, seed=seed % 97)
        finals = {
            backend: software_cse_scan(
                dfa, payload, partition, n_segments=n_segments,
                backend=backend,
            ).final_state
            for backend in ("python", "lockstep", "native", "prefilter")
        }
        want = dfa.run(np.frombuffer(payload, dtype=np.uint8))
        assert set(finals.values()) == {want}


class TestFallback:
    def test_uncertifiable_request_degrades_to_dense(self, random_dfa_8, rng):
        assert certify_prefilter(random_dfa_8) is None
        word = rng.integers(0, 4, 3000)
        partition = StatePartition.trivial(random_dfa_8.num_states)
        run = software_cse_scan(
            random_dfa_8, word, partition, n_segments=4, backend="prefilter"
        )
        from repro.kernels import native_available

        # the native dense frontier; without it the trivial partition's
        # one block takes the interpreted walk
        expected = "native" if native_available() else "python"
        assert run.backend == expected
        assert run.final_state == random_dfa_8.run(word)

    def test_batch_fallback_on_uncertifiable(self, random_dfa_8, rng):
        word = rng.integers(0, 4, 1200)
        partition = StatePartition.trivial(random_dfa_8.num_states)
        segments = [word[a:b] for a, b in even_boundaries(word.size, 4)]
        got = run_segments_batch(
            random_dfa_8, partition, segments, backend="prefilter"
        )
        want = run_segments_batch(
            random_dfa_8, partition, segments, backend="native"
        )
        for g_fn, w_fn in zip(got, want):
            for g, w in zip(g_fn.outcomes, w_fn.outcomes):
                assert g.state == w.state
                assert np.array_equal(g.states, w.states)

    def test_all_anchor_segments_fall_back_inside_kernel(
        self, literal_dfa, literal_patterns_fixture
    ):
        """A payload of pure anchor bytes has no skippable run: every
        segment must route through the frontier and still be exact."""
        tables = derive_prefilter(literal_dfa)
        anchors = tables.anchors.astype(np.uint8)
        rng = np.random.default_rng(2)
        seg = anchors[rng.integers(0, anchors.size, 2000)]
        partition = _partition(literal_dfa)
        segments = [seg[a:b] for a, b in even_boundaries(seg.size, 4)]
        grid, stats = run_segments_prefilter(
            literal_dfa, partition, segments, tables
        )
        assert stats["fallback_segments"] == len(segments)
        assert stats["skipped_bytes"] == 0
        want, _, _ = run_frontier(
            literal_dfa, partition, [s.astype(np.int64) for s in segments]
        )
        for got_fn, want_fn in zip(grid, want):
            for g, w in zip(got_fn, want_fn):
                assert g.state == w.state


class TestFallbackWithoutNative:
    """Without the library the unproven-segment fallback applies
    resolve_backend's rule: one block -> interpreted walk, else lockstep."""

    @pytest.fixture
    def no_native(self, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE, "0")
        reset_native()
        yield
        reset_native()

    @pytest.mark.parametrize("n_labels,ran", [(1, "python"), (4, "lockstep")])
    def test_unproven_segments_take_the_rule(
        self, literal_dfa, no_native, n_labels, ran
    ):
        from repro import obs

        tables = derive_prefilter(literal_dfa)
        anchors = tables.anchors.astype(np.uint8)
        seg = anchors[np.random.default_rng(5).integers(0, anchors.size, 900)]
        segments = [seg[a:b] for a, b in even_boundaries(seg.size, 3)]
        partition = _partition(literal_dfa, n_labels=n_labels)
        assert frontier_backend(partition) == ran
        assert run_frontier(literal_dfa, partition, segments)[2] == ran
        with obs.using() as registry:
            got = run_segments_batch(
                literal_dfa, partition, segments, backend="prefilter"
            )
        assert registry.get(
            "kernels_prefilter_fallback_segments_total").value == 3
        want = run_segments_batch(
            literal_dfa, partition, segments, backend="lockstep"
        )
        for g_fn, w_fn in zip(got, want):
            for g, w in zip(g_fn.outcomes, w_fn.outcomes):
                assert g.converged == w.converged
                assert g.state == w.state
                assert np.array_equal(g.states, w.states)

    def test_lockstep_fallback_reuses_flat_table(
        self, literal_dfa, no_native, monkeypatch
    ):
        from repro.kernels import native

        seen = []
        real = native.run_segments_lockstep

        def spy(*args, flat=None, **kwargs):
            seen.append(flat)
            return real(*args, flat=flat, **kwargs)

        monkeypatch.setattr(native, "run_segments_lockstep", spy)
        tables = derive_prefilter(literal_dfa)
        anchors = tables.anchors.astype(np.uint8)
        seg = anchors[np.random.default_rng(6).integers(0, anchors.size, 600)]
        segments = [seg[a:b] for a, b in even_boundaries(seg.size, 2)]
        flat = literal_dfa.transitions.astype(np.int64).ravel()
        run_segments_batch(
            literal_dfa, _partition(literal_dfa), segments,
            backend="prefilter", flat=flat,
        )
        assert seen and all(f is flat for f in seen)


class TestVerifierDiagnostics:
    def _tables(self, dfa):
        t = derive_prefilter(dfa)
        assert t is not None
        return t

    def test_malformed_lut_is_k130(self, literal_dfa):
        t = self._tables(literal_dfa)
        bad = PrefilterTables(
            t.home, t.skip_width, t.anchor_lut[:10],
            t.num_states, t.alphabet_size,
        )
        diags = verify_prefilter(bad, literal_dfa)
        assert [d.code for d in diags] == ["K130"]

    def test_home_out_of_range_is_k130(self, literal_dfa):
        t = self._tables(literal_dfa)
        bad = PrefilterTables(
            literal_dfa.num_states, t.skip_width, t.anchor_lut,
            t.num_states, t.alphabet_size,
        )
        assert [d.code for d in verify_prefilter(bad, literal_dfa)] == ["K130"]

    def test_dropped_anchor_is_k131(self, literal_dfa):
        t = self._tables(literal_dfa)
        lut = t.anchor_lut.copy()
        lut[int(t.anchors[0])] = False
        bad = PrefilterTables(
            t.home, t.skip_width, lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K131" in codes

    def test_understated_skip_width_is_k132(self, literal_dfa):
        t = self._tables(literal_dfa)
        if t.skip_width <= 1:
            pytest.skip("machine absorbs in one step; width cannot be understated")
        bad = PrefilterTables(
            t.home, 1, t.anchor_lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K132" in codes

    def test_foreign_certificate_is_k130(self, literal_dfa):
        """A certificate with self-consistent but wrong content (anchor
        added) fails the re-derivation check."""
        t = self._tables(literal_dfa)
        lut = t.anchor_lut.copy()
        extra = int(np.flatnonzero(~lut)[0])
        lut[extra] = True
        bad = PrefilterTables(
            t.home, t.skip_width, lut, t.num_states, t.alphabet_size
        )
        codes = {d.code for d in verify_prefilter(bad, literal_dfa)}
        assert "K130" in codes
        assert not has_errors(verify_prefilter(t, literal_dfa))


class TestArtifactEnvelope:
    def test_roundtrip_with_prefilter(self, literal_dfa, tmp_path):
        from repro.compilecache import compile_dfa
        from repro.compilecache.store import load_artifact, save_artifact

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        assert compiled.backend == "prefilter"
        assert compiled.prefilter_tables() is not None
        save_artifact(compiled, tmp_path)
        loaded = load_artifact(tmp_path, compiled.key)
        assert loaded is not None
        assert loaded.prefilter_tables().summary() == \
            compiled.prefilter_tables().summary()

    def test_envelope_tamper_rejected(self, literal_dfa, tmp_path):
        import pickle

        from repro.compilecache import compile_dfa
        from repro.compilecache.store import (
            ArtifactValidationError,
            artifact_path,
            load_artifact,
            save_artifact,
        )

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        payload = pickle.loads(path.read_bytes())
        payload["prefilter"]["skip_width"] += 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ArtifactValidationError, match="prefilter"):
            load_artifact(tmp_path, compiled.key)

    def test_verify_artifact_file_flags_tamper_as_k133(
        self, literal_dfa, tmp_path
    ):
        import pickle

        from repro.check import verify_artifact_file
        from repro.compilecache import compile_dfa
        from repro.compilecache.store import artifact_path, save_artifact

        compiled = compile_dfa(literal_dfa, backend="prefilter", n_segments=4)
        save_artifact(compiled, tmp_path)
        path = artifact_path(tmp_path, compiled.key)
        assert not has_errors(verify_artifact_file(path))
        payload = pickle.loads(path.read_bytes())
        payload["prefilter"] = None
        path.write_bytes(pickle.dumps(payload))
        codes = {d.code for d in verify_artifact_file(path)}
        assert "K133" in codes
