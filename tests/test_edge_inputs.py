"""Edge inputs on every backend: out-of-alphabet symbols, empty and
shorter-than-segment-count inputs, and the one unit of
``kernels_positions_total``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.automata.dfa import SymbolRangeError, check_symbols
from repro.core.partition import StatePartition
from repro.kernels import BACKENDS
from repro.regex.compile import compile_ruleset
from repro.software import software_cse_scan
from repro.stream import FleetScanner, StreamScanner
from repro.workloads import generate_ruleset, literal_payload


@pytest.fixture(scope="module")
def literal_dfa():
    return compile_ruleset(generate_ruleset("LiteralHeavy", 6, 11))


def _partition(dfa):
    labels = np.random.default_rng(0).integers(0, 4, dfa.num_states)
    return StatePartition.from_labels(labels.tolist())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [-1, 256, 1000])
def test_out_of_alphabet_symbol_rejected(literal_dfa, backend, bad):
    word = np.full(4000, ord("a"), dtype=np.int64)
    word[2345] = bad
    partition = _partition(literal_dfa)
    with pytest.raises(SymbolRangeError) as info:
        software_cse_scan(literal_dfa, word, partition, n_segments=8,
                          backend=backend)
    assert (info.value.offset, info.value.symbol) == (2345, bad)
    assert str(bad) in str(info.value) and "2345" in str(info.value)

    scanner = StreamScanner(literal_dfa, backend=backend,
                            partition=partition, min_parallel_chunk=256)
    scanner.feed(word[:1000])
    with pytest.raises(SymbolRangeError) as info:
        scanner.feed(word[1000:])
    # the stream offset, not the chunk-local one; no state was advanced
    assert info.value.offset == 2345
    assert scanner.offset == 1000

    fleet = FleetScanner([literal_dfa], backend=backend, n_segments=8)
    with pytest.raises(SymbolRangeError):
        fleet.scan_wallclock(word)
    with pytest.raises(SymbolRangeError):
        fleet.scan(word)


class _NoScan(np.ndarray):
    """A uint8 array whose data must not be scanned or copied."""

    def min(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("range check scanned the data")

    max = min
    astype = min


def test_uint8_on_a_256_symbol_machine_is_a_dtype_test():
    data = np.frombuffer(b"\x00\xff" * 100, dtype=np.uint8).view(_NoScan)
    check_symbols(data, 256)
    with pytest.raises(AssertionError):
        check_symbols(data, 255)  # narrower machines do scan


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_segments_are_not_reexecutions(literal_dfa, backend):
    partition = _partition(literal_dfa)
    empty = software_cse_scan(literal_dfa, b"", partition, n_segments=16,
                              backend=backend)
    assert empty.reexec_segments == 0
    assert empty.final_state == literal_dfa.start
    short = software_cse_scan(literal_dfa, b"xyz", partition, n_segments=16,
                              backend=backend)
    assert short.reexec_segments <= 2
    assert short.final_state == literal_dfa.run(b"xyz")


def test_positions_count_symbols_on_every_backend(literal_dfa):
    payload = literal_payload(generate_ruleset("LiteralHeavy", 6, 11), 5000,
                              match_density=0.01, seed=4)
    partition = _partition(literal_dfa)
    counted = {}
    for backend in ("python", "lockstep", "native", "prefilter"):
        with obs.using() as registry:
            run = software_cse_scan(literal_dfa, payload, partition,
                                    n_segments=16, backend=backend)
        counted[backend] = registry.get(
            "kernels_positions_total", backend=run.backend).value
    first = len(payload) // 16 + (1 if len(payload) % 16 else 0)
    assert set(counted.values()) == {len(payload) - first}, counted
