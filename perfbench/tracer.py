"""Outside-in span tracing for the pipeline benchmark.

The program is not instrumented for this benchmark.  Instead, in the
traced run only, :class:`Tracer` replaces public module attributes of
:mod:`repro` with thin wrappers that record one span per call: name,
start, end, parent and a few attributes read from the arguments or the
result.  Spans stay in memory and are written out once, at the end of
the run.  The untraced run installs no wrapper, so the
end-to-end metrics carry no tracing cost.

Each span name belongs to one layer (:data:`SPAN_LAYER`).  A layer's
time on one operation is the *self time* of its spans in that
operation's subtree: span duration minus the part of it that child spans
cover.  Self times of a subtree add up to its root's duration.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> per-layer metric its self time is charged to
SPAN_LAYER: Dict[str, str] = {
    "setup": "setup.other_s",
    "regex.pattern_to_nfa": "regex.nfa_s",
    "automata.determinize": "automata.determinize_s",
    "automata.minimize": "automata.minimize_s",
    "core.profiling.profile": "core.profiling.profile_s",
    "core.profiling.merge": "core.profiling.profile_s",
    "compilecache.build": "compilecache.build_s",
    "compilecache.load": "compilecache.load_s",
    "software.scan": "software.overhead_s",
    "software.as_symbols": "software.overhead_s",
    "software.first_segment": "software.first_segment_s",
    "kernels.batch": "kernels.batch_s",
    "core.reexec.repair": "core.reexec.repair_s",
    "stream.feed": "stream.feed_s",
    "stream.run_reports": "stream.run_reports_s",
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 start: float):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Span":
        span = cls(raw["id"], raw["name"], raw["parent"], raw["start"])
        span.end = raw["end"]
        span.attrs = raw["attrs"]
        return span


class Tracer:
    """Records spans around wrapped module attributes (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner: Any, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(span, args, kwargs, result)`` may attach attributes
        once the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layers -----------------------------------------------------
    def install_setup(self) -> None:
        """Wrap the compile front end and the compilation cache."""
        import repro.compilecache.artifact as artifact
        import repro.compilecache.cache as cache
        import repro.regex.compile as regex_compile

        def states(span, _a, _k, result):
            span.attrs["states"] = int(result.num_states)

        def sets(span, _a, _k, result):
            span.attrs["sets"] = int(result.partition.num_blocks)

        self.wrap(regex_compile, "pattern_to_nfa", "regex.pattern_to_nfa",
                  states)
        self.wrap(regex_compile, "determinize", "automata.determinize",
                  states)
        self.wrap(regex_compile, "minimize_dfa", "automata.minimize", states)
        self.wrap(artifact, "profile_partitions", "core.profiling.profile")
        self.wrap(artifact, "merge_to_cutoff", "core.profiling.merge", sets)
        self.wrap(cache, "compile_dfa", "compilecache.build")
        self.wrap(cache, "load_artifact", "compilecache.load")

    def install_scan(self) -> None:
        """Wrap the scan layers (and the stream layer)."""
        import repro.software as software
        from repro.automata.dfa import Dfa
        from repro.stream import StreamScanner

        def scan_done(span, _a, _k, run):
            span.attrs.update(
                backend=run.backend, n_symbols=run.n_symbols,
                segment_seconds=list(run.segment_seconds),
            )

        def repair_args(span, args, kwargs, result):
            functions = args[3] if len(args) > 3 else kwargs["functions"]
            flows = [o for fn in functions for o in fn.outcomes]
            span.attrs["flows"] = len(flows)
            span.attrs["converged"] = sum(1 for o in flows if o.converged)
            span.attrs["reexec"] = len(result[1].reexecuted_segments)

        def reports(span, _a, _k, result):
            span.attrs["reports"] = len(result)

        self.wrap(software, "software_cse_scan", "software.scan", scan_done)
        self.wrap(software, "as_symbols", "software.as_symbols")
        self.wrap(software, "scan_sequential", "software.first_segment")
        self.wrap(software, "prefilter_scan_scalar", "software.first_segment")
        self.wrap(software, "run_segments_batch", "kernels.batch")
        self.wrap(software, "compose_and_fix", "core.reexec.repair",
                  repair_args)
        self.wrap(StreamScanner, "feed", "stream.feed", reports)
        self.wrap(Dfa, "run_reports", "stream.run_reports")

    # -- output ---------------------------------------------------------
    def write(self, path: Path, extra: Optional[Dict] = None) -> None:
        payload = {"spans": [s.as_dict() for s in self.spans]}
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: Dict[int, List[Span]]) -> float:
    """Duration minus the union of child intervals inside it."""
    covered = 0.0
    cursor = span.start
    for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, span.duration - covered)


def subtree(root: Span, kids: Dict[int, List[Span]]) -> List[Span]:
    out = [root]
    todo = [root]
    while todo:
        span = todo.pop()
        for child in kids.get(span.id, ()):
            out.append(child)
            todo.append(child)
    return out


def layer_times(root: Span, kids: Dict[int, List[Span]]) -> Dict[str, float]:
    """Per-layer self time within ``root``'s subtree (sums to its span)."""
    totals: Dict[str, float] = {}
    for span in subtree(root, kids):
        layer = SPAN_LAYER[span.name]
        totals[layer] = totals.get(layer, 0.0) + self_time(span, kids)
    return totals
