"""Set-up samples, each in a fresh process: rules text to a ready scanner.

Run as a small server for one benchmark run.  It imports the library
once and builds nothing.  For each request line read from stdin it
forks a child, which times one set-up and writes one JSON line to
stdout, and it waits for that child before it reads the next request.
A forked child starts with the library imported and every in-process
cache empty (no compiled artifact, no memoized prefilter certificate):
a cold process, without the cost of starting a new interpreter.  The
server exits when stdin closes.

A request is ``{"workload", "rules", "mode", "cache_dir", "trace"}``.
``mode`` ``"cold"`` builds with an empty ``CompileCache()``; ``"warm"``
reads the artifact from the populated ``cache_dir``, as a repeated
``repro software --cache-dir`` call does.  The answer holds the timed
seconds, the artifact summary and, with ``trace`` 1, the spans of the
build (or ``error``).

    printf '%s\n' '{"workload": "snort_bulk", "rules": "rules.txt",
        "mode": "cold", "cache_dir": null, "trace": 0}' |
        PYTHONPATH=src python3 perfbench/setup_probe.py
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from typing import Dict, List, Optional

from common import WORKLOADS, Workload


class Ready:
    """A ready scanner: the compiled artifact plus what scans it."""

    def __init__(self, dfa, cache, compiled, stream=None):
        self.dfa = dfa
        self.cache = cache
        self.compiled = compiled
        self.stream = stream


def build(workload: Workload, patterns: List[str],
          cache_dir: Optional[str]) -> Ready:
    """The set-up path the benchmark times, end to end.

    The bulk workload compiles the ruleset and serves the artifact from a
    :class:`CompileCache`; the stream workload builds the
    ``StreamScanner`` that a user would create, which compiles through
    the same cache.
    """
    import repro.regex.compile as regex_compile
    from repro.compilecache import CompileCache
    from repro.stream import StreamScanner

    dfa = regex_compile.compile_ruleset(patterns)
    cache = CompileCache(cache_dir=cache_dir)
    if workload.stream_only:
        scanner = StreamScanner(dfa, backend="auto", cache=cache,
                                n_segments=workload.n_segments)
        return Ready(dfa, cache, scanner.compiled, stream=scanner)
    compiled = cache.get_or_compile(dfa, backend="auto",
                                    n_segments=workload.n_segments)
    return Ready(dfa, cache, compiled)


def sample(request: Dict) -> Dict:
    """Time one set-up from the rules file to a ready scanner."""
    workload = WORKLOADS[request["workload"]]
    tracer = None
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_setup()
    cache_dir = request["cache_dir"] if request["mode"] == "warm" else None
    begin = time.perf_counter()
    root = tracer.open("setup") if tracer is not None else None
    with open(request["rules"], "r", encoding="latin-1") as fh:
        patterns = fh.read().split("\n")
    ready = build(workload, patterns, cache_dir)
    if tracer is not None:
        tracer.close(root)
    seconds = time.perf_counter() - begin
    out = {
        "seconds": seconds,
        "backend": ready.compiled.backend,
        "states": int(ready.dfa.num_states),
        "sets": int(ready.compiled.num_convergence_sets),
        "artifact_mb": ready.compiled.nbytes / float(1 << 20),
    }
    if tracer is not None:
        tracer.restore()
        out["spans"] = [s.as_dict() for s in tracer.spans]
    return out


def serve(requests, answers) -> None:
    """Answer each request line from a forked child; see the module doc."""
    # imported once here, so that no child pays for it
    import repro.compilecache  # noqa: F401
    import repro.regex.compile  # noqa: F401
    import repro.stream  # noqa: F401
    import tracer  # noqa: F401

    for line in requests:
        request = json.loads(line)
        answers.flush()
        pid = os.fork()
        if pid == 0:  # the child: one sample, then leave at once
            code = 0
            try:
                out = sample(request)
            except BaseException:
                out, code = {"error": traceback.format_exc(limit=5)}, 1
            try:
                answers.write(json.dumps(out) + "\n")
                answers.flush()
            finally:
                os._exit(code)
        os.waitpid(pid, 0)


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
