"""Property-based tests: the vectorized kernels are exact.

Every backend of the software CSE path (python, lockstep, native,
prefilter) must produce bit-identical segment transition functions on
arbitrary machines, inputs and partitions, and the end-to-end scan must
equal the sequential oracle — both where the native library loads and
with it forced absent (native then runs as lockstep, and the prefilter's
unproven segments as lockstep or the interpreted walk).
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.engines.base import even_boundaries
from repro.kernels import KERNEL_BACKENDS, run_segments_batch
from repro.kernels.native import ENV_DISABLE, reset_native
from repro.software import run_segment, software_cse_scan


@contextmanager
def _native_disabled():
    """Force the native library absent, restoring the loader after."""
    saved = os.environ.get(ENV_DISABLE)
    os.environ[ENV_DISABLE] = "0"
    reset_native()
    try:
        yield
    finally:
        if saved is None:
            del os.environ[ENV_DISABLE]
        else:
            os.environ[ENV_DISABLE] = saved
        reset_native()


@contextmanager
def _as_is():
    yield


#: run each property with the native library as found, then forced absent
NATIVE_MODES = (_as_is, _native_disabled)


@st.composite
def dfas(draw, min_states=1, max_states=12, max_alphabet=4):
    n = draw(st.integers(min_states, max_states))
    k = draw(st.integers(1, max_alphabet))
    table = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
    start = draw(st.integers(0, n - 1))
    accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Dfa(np.asarray(table, dtype=np.int32), start, accepting)


@st.composite
def dfa_word_partition(draw, max_len=100):
    dfa = draw(dfas())
    word = draw(
        st.lists(st.integers(0, dfa.alphabet_size - 1), min_size=0, max_size=max_len)
    )
    labels = draw(
        st.lists(st.integers(0, 3), min_size=dfa.num_states, max_size=dfa.num_states)
    )
    return dfa, np.asarray(word, dtype=np.int64), StatePartition.from_labels(labels)


def assert_functions_equal(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.converged == ob.converged
        assert oa.state == ob.state
        assert oa.states.dtype == ob.states.dtype == np.int64
        assert np.array_equal(oa.states, ob.states)


class TestBackendEquivalence:
    @given(dfa_word_partition(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_python_per_segment(self, dwp, n_segments):
        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        for mode in NATIVE_MODES:
            with mode():
                for backend in KERNEL_BACKENDS:
                    functions = run_segments_batch(
                        dfa, partition, segments, backend
                    )
                    for ref, fn in zip(reference, functions):
                        assert_functions_equal(ref, fn)

    @given(dfa_word_partition(), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_scan_matches_oracle_all_backends(self, dwp, n_segments):
        dfa, word, partition = dwp
        want = dfa.run(word)
        for mode in NATIVE_MODES:
            with mode():
                for backend in ("python", "lockstep", "native", "prefilter",
                                "auto"):
                    run = software_cse_scan(
                        dfa, word, partition, n_segments=n_segments,
                        backend=backend,
                    )
                    assert run.final_state == want

    @given(dfas(min_states=1, max_states=1), st.lists(st.integers(0, 0), max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_single_state_dfa(self, dfa, word):
        word = np.asarray(word, dtype=np.int64)
        partition = StatePartition.trivial(1)
        reference = run_segment(dfa, partition, word)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [word], backend)[0]
            assert_functions_equal(reference, fn)

    @given(dfas())
    @settings(max_examples=30, deadline=None)
    def test_empty_segments(self, dfa):
        partition = StatePartition.discrete(dfa.num_states)
        empty = np.empty(0, dtype=np.int64)
        reference = run_segment(dfa, partition, empty)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [empty, empty], backend)[0]
            assert_functions_equal(reference, fn)

    @given(st.integers(2, 10), st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_all_dead_sink(self, n, word):
        """Symbol 0 sends everything to the sink; symbol 1 is identity."""
        sink = n - 1
        table = np.stack(
            [np.full(n, sink, dtype=np.int32), np.arange(n, dtype=np.int32)]
        )
        dfa = Dfa(table, 0, [sink])
        word_arr = np.asarray(word, dtype=np.int64)
        partition = StatePartition.trivial(n)
        reference = run_segment(dfa, partition, word_arr)[0]
        for backend in KERNEL_BACKENDS:
            fn = run_segments_batch(dfa, partition, [word_arr], backend)[0]
            assert_functions_equal(reference, fn)
        if word.count(0):
            assert reference.outcomes[0].converged
            assert reference.outcomes[0].state == sink


class TestDenseEquivalence:
    """The dense frontier (native, and the prefilter's fallback to it) is
    exact for every stride and table dtype, with and without the library."""

    @given(dfa_word_partition(), st.integers(1, 5),
           st.sampled_from([1, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_stride_matches_python(self, dwp, n_segments, stride):
        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        # every stride places collapse checks differently yet the
        # outcomes never move
        for mode in NATIVE_MODES:
            with mode():
                for backend in ("native", "prefilter"):
                    functions = run_segments_batch(
                        dfa, partition, segments, backend, stride=stride
                    )
                    for ref, fn in zip(reference, functions):
                        assert_functions_equal(ref, fn)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4),
           st.sampled_from([1, 7, 64]))
    @settings(max_examples=15, deadline=None)
    def test_uint16_machines_match(self, seed, n_segments, stride):
        # > 256 states forces the uint16 narrowing path
        from repro.kernels import DenseTables, dense_state_dtype

        rng = np.random.default_rng(seed)
        n = int(rng.integers(257, 400))
        k = int(rng.integers(2, 4))
        table = rng.integers(0, n, size=(k, n)).astype(np.int32)
        dfa = Dfa(table, 0, {0})
        assert dense_state_dtype(n) == np.uint16
        assert DenseTables(dfa).dtype == np.uint16
        labels = rng.integers(0, 4, size=n).tolist()
        partition = StatePartition.from_labels(labels)
        word = rng.integers(0, k, size=int(rng.integers(1, 150)))
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        reference = [run_segment(dfa, partition, s)[0] for s in segments]
        for mode in NATIVE_MODES:
            with mode():
                for backend in ("lockstep", "native", "prefilter"):
                    functions = run_segments_batch(
                        dfa, partition, segments, backend, stride=stride
                    )
                    for ref, fn in zip(reference, functions):
                        assert_functions_equal(ref, fn)

    @given(dfa_word_partition(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_collapse_counter_parity(self, dwp, n_segments):
        # every backend must report the same number of collapsed
        # convergence sets and of positions (symbols consumed, summed
        # over segments)
        from repro import obs

        dfa, word, partition = dwp
        bounds = even_boundaries(word.size, n_segments)
        segments = [word[a:b] for a, b in bounds]
        counts = {}
        for backend in ("python", "lockstep", "native"):
            with obs.using() as registry:
                if backend == "python":
                    for s in segments:
                        run_segment(dfa, partition, s, backend="python")
                else:
                    run_segments_batch(dfa, partition, segments, backend)
            ran = backend
            if backend == "native" and registry.get(
                    "kernels_native_fallbacks_total") is not None:
                ran = "lockstep"
            counts[backend] = (
                registry.get("kernels_collapses_total", backend=ran).value,
                registry.get("kernels_positions_total", backend=ran).value,
            )
        assert len(set(counts.values())) == 1, counts
        assert counts["python"][1] == word.size
