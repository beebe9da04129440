"""Run one workload of the pipeline benchmark in this (fresh) interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The run has three parts:

1. inputs from ``--seed`` and untimed output references;
2. ``--seconds`` of measurement: cold and warm set-up samples, each in
   a fresh process (``setup_probe.py``), spread evenly over the window,
   and between them whole-input scans (bulk workload) and closed-loop
   4 KB ``StreamScanner.feed`` calls;
3. the result: with ``--trace 0`` the end-to-end metrics, with
   ``--trace 1`` the per-layer metrics of a run in which every other
   operation is traced.

Every set-up, scan and chunk is checked against the references; a wrong
output or an exception counts as a failed operation and the run goes on.
The last stdout line is the result object; the line before it holds the
run's provenance.  The raw samples go to ``.bench_build/samples/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    BUILD_DIR,
    CHUNK_BYTES,
    MB,
    MIN_CHUNKS,
    ROOT,
    TICK_REF_MS,
    WORKLOADS,
    InsufficientSamples,
    Workload,
    bench_env,
    bulk_input,
    env_info,
    host_spin_ms,
    host_tick,
    literal_report_offsets,
    median,
    offsets_in,
    peak_rss_mb,
    percentile,
    piece_states,
    ruleset,
    stream_payload,
)
from setup_probe import build

#: share of the operation time (outside set-up) the bulk scans get;
#: feeds get the rest
SCAN_SHARE = 0.5
#: whole-input scans per run, at the least, in each tracing mode
MIN_SCANS = 12
#: chunks per block of feeds
BLOCK_CHUNKS = 16
PROBE_TIMEOUT_S = 120


class Tally:
    """Operations attempted and failed; failures by kind, with the first."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: kind of check -> {"failed": count, "first": message}
        self.errors: Dict[str, Dict] = {}

    def op(self, ok: bool, kind: str, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            entry = self.errors.setdefault(kind, {"failed": 0, "first": what})
            entry["failed"] += 1


@dataclass
class Feeds:
    """Chunks fed in one tracing mode: count, bytes and feed seconds."""

    count: int = 0
    bytes: int = 0
    seconds: float = 0.0

    @property
    def mb_s(self) -> float:
        return self.bytes / MB / self.seconds if self.seconds else 0.0


@dataclass
class Samples:
    """Everything one run measured, in the order it was measured."""

    cold: List[Dict] = field(default_factory=list)
    warm: List[Dict] = field(default_factory=list)
    #: seconds of each whole-input scan (bulk workload), by tracing mode
    scans: List[float] = field(default_factory=list)
    traced_scans: List[float] = field(default_factory=list)
    #: seconds of each untraced feed, as measured and host-normalised
    latency: List[float] = field(default_factory=list)
    latency_norm: List[float] = field(default_factory=list)
    feeds: Feeds = field(default_factory=Feeds)
    traced_feeds: Feeds = field(default_factory=Feeds)
    bytes_scanned: int = 0
    #: seconds spent in scans and in feeds, timed or not, both modes
    scan_busy: float = 0.0
    feed_busy: float = 0.0
    #: host tick (ms) before each measured operation and set-up sample
    ticks: List[float] = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """``TICK_REF_MS / mean tick``: normalised = raw time x factor."""
        return TICK_REF_MS / statistics.fmean(self.ticks)


class ProbeServer:
    """The ``setup_probe.py`` server: one fresh process per sample."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=bench_env(), start_new_session=True)

    def ask(self, request: Dict) -> Dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    PROBE_TIMEOUT_S)
        if not ready:
            raise TimeoutError(f"no answer in {PROBE_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise EOFError("set-up server exited")
        return json.loads(line)

    def close(self) -> None:
        """Let the server finish on end of input; kill it if it hangs."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


class Session:
    """One workload's scanner, input, references and measurements.

    The run is a sequence of rounds.  Each round may take one cold and
    one warm set-up sample, then makes one whole-input scan (bulk
    workloads) and some blocks of feeds, so that every metric's samples
    are spread over the whole run rather than bunched in one stretch of
    it: the host's speed drifts, and a median over one stretch inherits
    that stretch's speed.
    """

    def __init__(self, workload: Workload, seed: int, chunk: int,
                 corrupt: bool, trace: bool, run_dir: Path):
        self.workload = workload
        self.chunk = chunk
        self.tally = Tally()
        self.samples = Samples()
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
        patterns = ruleset(workload)
        self.rules = run_dir / "rules.txt"
        self.rules.write_text("\n".join(patterns), encoding="latin-1")
        self.cache_dir = run_dir / "cache"
        # the benchmark's own scanner; its build fills the warm cache dir
        self.ready = build(workload, patterns, str(self.cache_dir))
        self.view = None
        self.probes: Optional[ProbeServer] = None
        try:
            self._prepare(patterns, seed, corrupt, run_dir)
        except BaseException:
            self.close()
            raise

    def _prepare(self, patterns: List[str], seed: int, corrupt: bool,
                 run_dir: Path) -> None:
        """Inputs from the seed and the untimed references."""
        from repro.ingest import open_input
        from repro.stream import StreamScanner

        workload = self.workload
        if workload.stream_only:
            self.data = stream_payload(patterns, workload.input_bytes, seed)
            self.ref_offsets: Optional[List[int]] = literal_report_offsets(
                patterns, self.data)
            self.stream = self.ready.stream
        else:
            self.data = bulk_input(workload, seed)
            self.ref_offsets = None
            path = run_dir / "input.bin"
            path.write_bytes(self.data)
            self.view = open_input(path)
            # chunk latency of the same ruleset, streamed with the same
            # artifact (a hit in the scanner's cache)
            self.stream = StreamScanner(
                self.ready.dfa, backend="auto", cache=self.ready.cache,
                n_segments=workload.n_segments)
        self.ref_states = piece_states(self.ready.dfa, self.data, self.chunk)
        if corrupt:  # the self-test: a wrong reference must be caught
            # the final state (scans, last chunk), one chunk mid-stream
            # (feeds only) and the first report
            n_states = self.ready.dfa.num_states
            for k in (len(self.ref_states) // 2, -1):
                self.ref_states[k] = (self.ref_states[k] + 1) % n_states
            if self.ref_offsets:
                self.ref_offsets.pop(0)
        self.expected = {
            "backend": self.ready.compiled.backend,
            "states": int(self.ready.dfa.num_states),
            "sets": int(self.ready.compiled.num_convergence_sets),
        }
        self.stream.reset()
        self.pos = 0

    def close(self) -> None:
        if self.probes is not None:
            self.probes.close()
            self.probes = None
        if self.view is not None:
            self.view.close()

    # -- one set-up sample, in a fresh process ---------------------------
    def probe(self, mode: str) -> None:
        self.samples.ticks.append(host_tick())
        request = {"workload": self.workload.name, "rules": str(self.rules),
                   "mode": mode, "cache_dir": str(self.cache_dir),
                   "trace": int(self.tracer is not None)}
        try:
            if self.probes is None:
                self.probes = ProbeServer()
            out = self.probes.ask(request)
        except (OSError, EOFError, ValueError, TimeoutError) as exc:
            # counted; the next sample starts a new server
            self.tally.op(False, "setup", f"{mode} setup: {exc!r}")
            if self.probes is not None:
                self.probes.close()
                self.probes = None
            return
        product = {k: out.get(k) for k in self.expected}
        ok = product == self.expected
        self.tally.op(ok, "setup", out.get("error")
                      or f"{mode} setup built {product}, "
                      f"expected {self.expected}")
        if ok:
            getattr(self.samples, mode).append(out)

    # -- one whole-input scan --------------------------------------------
    def scan(self, traced: bool = False, timed: bool = True) -> None:
        import repro.software as software

        ready = self.ready
        if timed:
            self.samples.ticks.append(host_tick())
        if traced:
            self.tracer.install_scan()
        expected = self.ref_states[-1]
        completed = False
        begin = time.perf_counter()
        try:
            run = software.software_cse_scan(
                ready.dfa, self.view, ready.compiled.partition,
                n_segments=ready.compiled.n_segments,
                backend=ready.compiled.backend, verify=False,
                compiled=ready.compiled,
            )
            completed = True
            ok = run.final_state == expected
            what = f"scan final state {run.final_state}, expected {expected}"
        except Exception:  # counted, not fatal: the run goes on
            ok, what = False, traceback.format_exc(limit=3)
        finally:
            seconds = time.perf_counter() - begin
            if traced:
                self.tracer.restore()
        self.tally.op(ok, "scan", what)
        self.samples.bytes_scanned += len(self.data)
        self.samples.scan_busy += seconds
        if timed and completed:  # a wrong result still took this long
            (self.samples.traced_scans if traced else self.samples.scans
             ).append(seconds)

    # -- one block of closed-loop feeds ------------------------------------
    def block(self, traced: bool = False, timed: bool = True) -> None:
        """Feed ``BLOCK_CHUNKS`` chunks, one after another; check each.

        One stream: the next chunk goes in when ``feed`` returns.  At the
        end of the data the stream is reset (a new connection) and the
        same data is fed again, so chunk ``k`` of every pass does the same
        work.  Each chunk is checked: the stream state after it against
        the reference state at that offset, and (stream workload) its
        reports against the occurrence reference.
        """
        data, chunk = self.data, self.chunk
        if timed:
            self.samples.ticks.append(host_tick())
        if traced:
            self.tracer.install_scan()
        busy = 0.0
        fed = 0
        latency = []
        try:
            for _ in range(BLOCK_CHUNKS):
                pos = self.pos
                piece = data[pos:pos + chunk]
                begin = time.perf_counter()
                try:
                    reports = self.stream.feed(piece)
                    seconds = time.perf_counter() - begin
                    want_state = self.ref_states[(pos + len(piece) - 1)
                                                 // chunk]
                    ok = self.stream.state == want_state
                    kind = "chunk state"
                    what = (f"chunk at {pos}: state {self.stream.state}, "
                            f"expected {want_state}")
                    if ok and self.ref_offsets is not None:
                        got = [offset for offset, _state in reports]
                        want = offsets_in(self.ref_offsets, pos,
                                          pos + len(piece))
                        ok = got == want
                        kind = "chunk reports"
                        what = f"chunk at {pos}: reports {got[:4]} != {want[:4]}"
                except Exception:  # counted, not fatal
                    seconds = time.perf_counter() - begin
                    ok, kind = False, "chunk"
                    what = traceback.format_exc(limit=3)
                self.tally.op(ok, kind, what)
                self.pos = pos + len(piece)
                if self.pos >= len(data):
                    self.stream.reset()
                    self.pos = 0
                busy += seconds
                fed += len(piece)
                latency.append(seconds)
        finally:
            if traced:
                self.tracer.restore()
        self.samples.bytes_scanned += fed
        self.samples.feed_busy += busy
        if timed:
            feeds = self.samples.traced_feeds if traced else self.samples.feeds
            feeds.count += len(latency)
            feeds.bytes += fed
            feeds.seconds += busy
            if not traced:
                # a block is shorter than the host's fast and slow
                # stretches: the ticks just before and after it scale
                # its feeds
                after = host_tick()
                scale = 2 * TICK_REF_MS / (self.samples.ticks[-1] + after)
                self.samples.latency.extend(latency)
                self.samples.latency_norm.extend(x * scale for x in latency)

    # -- the schedule ------------------------------------------------------
    def measure(self, seconds: float) -> float:
        """Warm up, then measure for ``seconds``; returns the time taken.

        After one untimed scan and block (caches fill, lazy set-up ends),
        the set-up samples -- cold, warm, cold, warm, ... -- split the
        window into equal slices and run inside it.  Each slice is
        filled with scans and blocks of feeds, chosen so that scans take
        ``SCAN_SHARE`` of the operation time (bulk workload).  So every
        metric's samples are spread over the whole window.  With a
        tracer, every other scan and every other block is traced.
        Minimum sample counts are topped up at the end.
        """
        bulk = not self.workload.stream_only
        samples = self.samples
        if bulk:
            self.scan(timed=False)
        self.block(timed=False)
        probes = ("cold", "warm") * self.workload.setup_samples
        begin = time.perf_counter()
        scans = blocks = 0
        for index in range(len(probes) + 1):
            target = seconds * (index + 1) / (len(probes) + 1)
            while time.perf_counter() - begin < target:
                busy = samples.scan_busy + samples.feed_busy
                if bulk and samples.scan_busy <= SCAN_SHARE * busy:
                    self.scan(traced=self._traced(scans))
                    scans += 1
                else:
                    self.block(traced=self._traced(blocks))
                    blocks += 1
            if index < len(probes):
                self.probe(probes[index])
        # top up: every other operation is traced in a traced run
        modes = 1 if self.tracer is None else 2
        while bulk and scans < MIN_SCANS * modes:
            self.scan(traced=self._traced(scans))
            scans += 1
        floor = MIN_CHUNKS if self.tracer is None else 2 * BLOCK_CHUNKS
        while blocks * BLOCK_CHUNKS < floor * modes:
            self.block(traced=self._traced(blocks))
            blocks += 1
        return time.perf_counter() - begin

    def _traced(self, count: int) -> bool:
        return self.tracer is not None and count % 2 == 1


# ----------------------------------------------------------------------
# per-layer metrics from the spans
# ----------------------------------------------------------------------
def _mid(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def setup_layers(samples: Samples) -> Dict[str, float]:
    """Per-layer medians over the traced set-up samples."""
    from tracer import Span, children_of, layer_times

    per: Dict[str, List[float]] = defaultdict(list)
    for mode, outs in (("cold", samples.cold), ("warm", samples.warm)):
        for out in outs:
            spans = [Span.from_dict(raw) for raw in out.get("spans", [])]
            root = next(s for s in spans if s.name == "setup")
            layers = layer_times(root, children_of(spans))
            if mode == "warm":
                per["compilecache.load_s"].append(
                    layers.get("compilecache.load_s", 0.0))
                continue
            for layer, seconds in layers.items():
                per[layer].append(seconds)
            for name, metric, attr in (
                ("regex.pattern_to_nfa", "regex.nfa_states", "states"),
                ("automata.determinize", "automata.dfa_states_raw", "states"),
                ("automata.minimize", "automata.dfa_states", "states"),
                ("core.profiling.merge", "core.profiling.sets", "sets"),
            ):
                per[metric].append(sum(s.attrs.get(attr, 0) for s in spans
                                       if s.name == name))
            per["compilecache.artifact_mb"].append(out["artifact_mb"])
    return {name: _mid(values) for name, values in per.items()}


def scan_layers(spans) -> Tuple[Dict[str, float], float]:
    """Per-layer medians over the traced operations.

    The operations are the whole-input scans on the bulk workload and the
    feeds on the stream workload; scan-layer metrics of the stream
    workload come from the scans inside its feeds.  Also returns the sum,
    over every layer, of the layer's median self time per operation.
    """
    from tracer import children_of, layer_times

    kids = children_of(spans)
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    bulk = [s for s in roots if s.name == "software.scan"]
    feeds = [s for s in roots if s.name == "stream.feed"]
    scans = bulk or [s for s in spans if s.name == "software.scan"
                     and s.parent is not None
                     and by_id[s.parent].name == "stream.feed"]
    per: Dict[str, List[float]] = defaultdict(list)
    flows = converged = 0

    def add(name, value):
        per[name].append(float(value))

    for scan in scans:
        layers = layer_times(scan, kids)
        for name in ("kernels.batch_s", "software.first_segment_s",
                     "software.overhead_s", "core.reexec.repair_s"):
            add(name, layers.get(name, 0.0))
        add("software.worker_busy_s", sum(scan.attrs.get("segment_seconds",
                                                          [])))
        for child in kids.get(scan.id, ()):
            if child.name == "core.reexec.repair":
                add("core.reexec.reexec_segments", child.attrs["reexec"])
                flows += child.attrs["flows"]
                converged += child.attrs["converged"]
    for feed in feeds:
        layers = layer_times(feed, kids)
        add("stream.feed_s", layers.get("stream.feed_s", 0.0))
        add("stream.run_reports_s", layers.get("stream.run_reports_s", 0.0))
        add("stream.scan_s", sum(c.duration for c in kids.get(feed.id, ())
                                 if c.name == "software.scan"))
        add("stream.reports", feed.attrs.get("reports", 0))
    metrics = {name: _mid(values) for name, values in per.items()}
    if "stream.reports" in per:  # reports per chunk: a mean, not a median
        metrics["stream.reports"] = statistics.fmean(per["stream.reports"])
    metrics["kernels.converged_ratio"] = converged / flows if flows else 0.0

    # self time per layer of each operation, as recorded in this process
    ops = bulk or feeds
    tiles = [layer_times(op, kids) for op in ops]
    names = {name for tile in tiles for name in tile}
    layer_sum = sum(_mid([tile.get(name, 0.0) for tile in tiles])
                    for name in names)
    return metrics, layer_sum


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, samples: Samples, input_bytes: int
               ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, float]]:
    """The BENCHMARK.json end-to-end metrics of an untraced run.

    Returns the host-normalised metrics and the same metrics as measured
    (README.md, "Host normalisation").  A set-up sample or a scan spans
    several of the host's fast and slow stretches, so set-up times and
    throughputs are scaled by the run's mean tick.  A block of feeds is
    shorter than a stretch, so each feed is scaled by the ticks just
    before and after its block.
    """
    if workload.stream_only:
        fed_mb, busy = samples.feeds.bytes / MB, samples.feeds.seconds
    else:
        fed_mb, busy = len(samples.scans) * input_bytes / MB, sum(samples.scans)
    warm = [s["seconds"] for s in samples.warm]
    if len(warm) < 3:
        raise InsufficientSamples(f"mean of {len(warm)} warm set-ups")
    raw_ms = [s * 1e3 for s in samples.latency]
    norm_ms = [s * 1e3 for s in samples.latency_norm]
    raw = {
        "setup_s": median([s["seconds"] for s in samples.cold]),
        # a mean, unlike setup_s: a sample lasts about one fast or slow
        # stretch, so the samples fall in two groups and a median of a
        # few of them jumps between the groups (STEADINESS.md)
        "warm_setup_s": statistics.fmean(warm),
        "scan_mb_s": fed_mb / busy,
        "chunk_p50_ms": percentile(raw_ms, 50),
        "chunk_p99_ms": percentile(raw_ms, 99),
    }
    factor = samples.host_factor
    metrics = {
        "setup_s": (raw["setup_s"] * factor, "s"),
        "warm_setup_s": (raw["warm_setup_s"] * factor, "s"),
        "scan_mb_s": (raw["scan_mb_s"] / factor, "MB/s"),
        "chunk_p50_ms": (percentile(norm_ms, 50), "ms"),
        "chunk_p99_ms": (percentile(norm_ms, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, raw


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        smoke: bool, corrupt: bool, run_dir: Path) -> Tuple[Dict, Dict]:
    wall = time.perf_counter()
    spin_start = host_spin_ms()
    session = Session(workload, seed, 1024 if smoke else CHUNK_BYTES,
                      corrupt, trace, run_dir)
    try:
        window = session.measure(seconds)
    finally:
        session.close()
    spin_end = host_spin_ms()

    samples, tally = session.samples, session.tally
    raw = {
        "setup_s": [s["seconds"] for s in samples.cold],
        "warm_setup_s": [s["seconds"] for s in samples.warm],
        "scan_s": samples.scans, "traced_scan_s": samples.traced_scans,
        "feed_s": samples.latency, "feed_norm_s": samples.latency_norm,
        "ticks": samples.ticks,
    }
    provenance = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "smoke": smoke, "env": env_info(), **session.expected,
        "ruleset": f"generate_ruleset({workload.family!r}, "
                   f"{workload.n_patterns}, {workload.ruleset_seed})",
        "input_bytes": len(session.data), "chunk_bytes": session.chunk,
        "measured_s": window, "wall_s": time.perf_counter() - wall,
        "bytes_scanned": samples.bytes_scanned,
        "samples": {
            "setup_s": len(samples.cold), "warm_setup_s": len(samples.warm),
            "scans": len(samples.scans), "traced_scans":
            len(samples.traced_scans), "feeds": samples.feeds.count,
            "traced_feeds": samples.traced_feeds.count,
        },
        "host_spin_ms": {"start": spin_start["total_ms"],
                         "end": spin_end["total_ms"],
                         "start_python_ms": spin_start["python_ms"],
                         "start_numpy_ms": spin_start["numpy_ms"],
                         "end_python_ms": spin_end["python_ms"],
                         "end_numpy_ms": spin_end["numpy_ms"]},
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(1, tally.attempted),
        "errors": tally.errors,
        "host_tick_ms": {"mean": statistics.fmean(samples.ticks),
                         "n": len(samples.ticks), "reference": TICK_REF_MS,
                         "factor": samples.host_factor},
    }
    if not trace:
        metrics, provenance["unnormalised"] = end_to_end(
            workload, samples, len(session.data))
    else:
        metrics = layer_metrics(workload, samples, session.tracer)
        metrics["host.spin_ms"] = (
            (spin_start["total_ms"] + spin_end["total_ms"]) / 2.0, "ms")
        metrics["host.tick_ms"] = (statistics.fmean(samples.ticks), "ms")
        session.tracer.write(BUILD_DIR / "traces" / f"{workload.name}.json",
                             extra={"provenance": provenance})
    out = BUILD_DIR / "samples" / f"{workload.name}-{seed}-{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": provenance, "raw": raw}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return provenance, result


def layer_metrics(workload: Workload, samples: Samples,
                  tracer) -> Dict[str, Tuple[float, str]]:
    layers = setup_layers(samples)
    scan, layer_sum = scan_layers(tracer.spans)
    layers.update(scan)
    if not workload.stream_only:
        op_wall = _mid(samples.scans)
        layers["trace.overhead"] = op_wall / _mid(samples.traced_scans)
    else:
        op_wall = _mid(samples.latency)
        layers["trace.overhead"] = (samples.traced_feeds.mb_s
                                    / samples.feeds.mb_s)
    layers["trace.self_sum_ratio"] = layer_sum / op_wall if op_wall else 0.0
    return {m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"])
            for m in json.loads((ROOT / "BENCHMARK.json").read_text()
                                )["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = dataclasses.replace(
            workload, n_patterns=min(workload.n_patterns, 6),
            input_bytes=256 << 10)
    run_dir = BUILD_DIR / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        provenance, result = run(workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke,
                                 args.corrupt_reference, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
