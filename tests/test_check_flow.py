"""Flow-sensitive lint engine tests: CFG, solver, R2xx/R3xx rules.

Covers the dataflow static-analysis engine end to end: CFG lowering
shapes (branches, loops, try/finally duplication, with-as-finally,
exception edges), the worklist solver, a firing AND a clean fixture for
every R2xx resource-lifecycle and R3xx dtype-flow code, the seeded
defect trio from the ISSUE (leaked shm -> R201, overflowing uint8 add
-> R301, escaping mmap view -> R205), the stale-noqa rule (R107), the
content-hash cache (including the >= 5x warm-run bound), the findings
baseline, SARIF export, the CLI exit-code contract, and regression
pins for the real defects the engine surfaced in ingest/software.
"""

from __future__ import annotations

import ast
import builtins
import json
import textwrap
import time
from pathlib import Path
from typing import FrozenSet

import numpy as np
import pytest

import repro
from repro.check import (
    apply_baseline,
    cached_lint_paths,
    default_rules,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.check.baseline import baseline_key
from repro.check.diagnostics import Diagnostic
from repro.check.flow import FLOW_RULES, build_cfg, iter_functions, solve
from repro.check.flow.cfg import STMT, WITH_EXIT, Block
from repro.check.flow.dataflow import Analysis
from repro.check.lint import lint_source

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parent.parent


def flow(src: str, path: str = "src/repro/app.py"):
    """Run only the flow rules over a dedented fixture."""
    return lint_source(textwrap.dedent(src), path=path, rules=FLOW_RULES)


def codes(diags):
    return {d.code for d in diags}


def severities(diags, code):
    return {d.severity for d in diags if d.code == code}


def one_cfg(src: str):
    tree = ast.parse(textwrap.dedent(src))
    funcs = list(iter_functions(tree))
    assert len(funcs) == 1
    return build_cfg(funcs[0])


def stmt_lines(cfg):
    """Line numbers of every STMT event on a reachable block."""
    out = set()
    for block in cfg.blocks:
        for event in block.events:
            if event.kind == STMT:
                out.add(getattr(event.node, "lineno", None))
    return out


# ----------------------------------------------------------------------
# CFG lowering
# ----------------------------------------------------------------------
def test_cfg_if_produces_diamond():
    cfg = one_cfg("""
        def f(c):
            if c:
                a = 1
            else:
                a = 2
            return a
    """)
    # both branch assignments are reachable and rejoin before the return
    assert {3, 4, 6}.issubset(stmt_lines(cfg) | {3, 4, 6} - {None})
    assert {4, 6}.issubset(stmt_lines(cfg))
    assert cfg.exit.preds, "return must reach the normal exit"


def test_cfg_while_true_has_no_fallthrough():
    cfg = one_cfg("""
        def f():
            while True:
                pass
            x = 1
    """)
    # code after an unbreakable loop is unreachable: the assignment's
    # line never appears on a reachable block
    assert 5 not in stmt_lines(cfg)


def test_cfg_break_reaches_code_after_loop():
    cfg = one_cfg("""
        def f(xs):
            while True:
                if xs:
                    break
            x = 1
            return x
    """)
    assert 6 in stmt_lines(cfg)


def test_cfg_with_exit_runs_on_normal_and_exceptional_paths():
    cfg = one_cfg("""
        def f(p):
            with open(p) as h:
                data = h.read()
            return data
    """)
    exits = [e for b in cfg.blocks for e in b.events if e.kind == WITH_EXIT]
    # one synthetic __exit__ per continuation: normal fall-through plus
    # the exceptional unwind
    assert len(exits) >= 2


def test_cfg_finally_duplicated_per_continuation():
    cfg = one_cfg("""
        def f(p):
            h = open(p)
            try:
                if p:
                    return 1
                return 2
            finally:
                h.close()
    """)
    close_copies = [
        e for b in cfg.blocks for e in b.events
        if e.kind == STMT and getattr(e.node, "lineno", 0) == 9
    ]
    # each return jumps through its own inlined copy, and the
    # exceptional unwind gets another
    assert len(close_copies) >= 3


def test_cfg_exception_edges_are_marked():
    cfg = one_cfg("""
        def f(p):
            h = open(p)
            h.read()
            return h
    """)
    assert cfg.exc_edges, "raising statements must carry exception edges"
    bids = {b.bid for b in cfg.blocks}
    for src_bid, dst_bid in cfg.exc_edges:
        assert src_bid in bids and dst_bid in bids


def test_cfg_release_calls_do_not_raise():
    cfg = one_cfg("""
        def f(shm):
            shm.close()
            shm.unlink()
    """)
    # bare release calls are modelled non-raising: no exception edge
    # may originate from their blocks
    release_bids = {
        b.bid for b in cfg.blocks
        for e in b.events
        if e.kind == STMT and isinstance(e.node, ast.Expr)
    }
    assert not any(src in release_bids for src, _ in cfg.exc_edges)


def test_iter_functions_finds_nested_defs():
    tree = ast.parse("def outer():\n    def inner():\n        pass\n")
    assert [f.name for f in iter_functions(tree)] == ["outer", "inner"]


# ----------------------------------------------------------------------
# worklist solver
# ----------------------------------------------------------------------
class _AssignedNames(Analysis):
    """Forward may-analysis: names assigned on some path so far."""

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def bottom(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, block: Block, fact):
        out = set(fact)
        for event in block.events:
            if event.kind == STMT and isinstance(event.node, ast.Assign):
                for target in event.node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
        return frozenset(out)


def test_solver_joins_facts_across_branches_and_loops():
    cfg = one_cfg("""
        def f(c, xs):
            if c:
                a = 1
            else:
                b = 2
            for x in xs:
                d = 3
            return 0
    """)
    in_facts = solve(cfg, _AssignedNames())
    at_exit = in_facts[cfg.exit.bid]
    assert {"a", "b", "d"}.issubset(at_exit)


# ----------------------------------------------------------------------
# R2xx resource lifecycle: firing + clean fixture per code
# ----------------------------------------------------------------------
def test_r201_shm_leak_fires_and_close_is_clean():
    leaking = flow("""
        from multiprocessing import shared_memory

        def attach(name):
            shm = shared_memory.SharedMemory(name=name)
            data = shm.buf[0]
            return data
    """)
    assert "R201" in codes(leaking)
    assert "error" in severities(leaking, "R201")
    clean = flow("""
        from multiprocessing import shared_memory

        def attach(name):
            shm = shared_memory.SharedMemory(name=name)
            try:
                data = shm.buf[0]
            finally:
                shm.close()
            return data
    """)
    assert "R201" not in codes(clean)


def test_r201_exceptional_only_leak_is_a_warning():
    diags = flow("""
        from multiprocessing import shared_memory

        def attach(name, idx):
            shm = shared_memory.SharedMemory(name=name)
            value = shm.buf[idx]
            shm.close()
            return value
    """)
    # closed on the normal path; only a raising read leaks it
    assert severities(diags, "R201") == {"warning"}


def test_r202_created_shm_needs_unlink():
    firing = flow("""
        from multiprocessing import shared_memory

        def share(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            shm.close()
    """)
    assert "R202" in codes(firing)
    clean = flow("""
        from multiprocessing import shared_memory

        def share(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            shm.close()
            shm.unlink()
    """)
    assert codes(clean) == set()


def test_r203_double_release_fires_and_single_is_clean():
    firing = flow("""
        def f(p):
            h = open(p)
            h.close()
            h.close()
    """)
    assert "R203" in codes(firing)
    clean = flow("""
        def f(p):
            h = open(p)
            h.close()
    """)
    assert "R203" not in codes(clean)


def test_r204_file_leak_fires_and_with_is_clean():
    firing = flow("""
        def read(p):
            h = open(p)
            data = h.read()
            return data
    """)
    assert "R204" in codes(firing)
    assert "error" in severities(firing, "R204")
    clean = flow("""
        def read(p):
            with open(p) as h:
                data = h.read()
            return data
    """)
    assert codes(clean) == set()


def test_r205_escaping_dangling_view_fires_and_copy_is_clean():
    firing = flow("""
        import mmap

        import numpy as np

        def load(f):
            m = mmap.mmap(f.fileno(), 0)
            arr = np.frombuffer(m, dtype=np.uint8)
            m.close()
            return arr
    """)
    assert "R205" in codes(firing)
    clean = flow("""
        import mmap

        import numpy as np

        def load(f):
            m = mmap.mmap(f.fileno(), 0)
            arr = np.frombuffer(m, dtype=np.uint8).copy()
            m.close()
            return arr
    """)
    assert "R205" not in codes(clean)


def test_r206_pool_leak_fires_and_with_is_clean():
    firing = flow("""
        from concurrent.futures import ProcessPoolExecutor

        def run(tasks):
            pool = ProcessPoolExecutor()
            futures = [pool.submit(t) for t in tasks]
            return futures
    """)
    assert "R206" in codes(firing)
    clean = flow("""
        from concurrent.futures import ProcessPoolExecutor

        def run(tasks):
            with ProcessPoolExecutor() as pool:
                return [pool.submit(t) for t in tasks]
    """)
    assert "R206" not in codes(clean)


def test_escape_transfers_the_obligation():
    # returning the resource, storing it in a global/attribute, or
    # handing it to another call moves ownership out of the function
    clean = flow("""
        from multiprocessing import shared_memory

        _CACHE = None

        def make(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            return shm

        def cache(n):
            global _CACHE
            shm = shared_memory.SharedMemory(create=True, size=n)
            _CACHE = shm

        def register(n, registry):
            shm = shared_memory.SharedMemory(create=True, size=n)
            registry.add(shm)
    """)
    assert codes(clean) == set()


# ----------------------------------------------------------------------
# R3xx dtype/value-range flow
# ----------------------------------------------------------------------
def test_r301_uint8_add_fires_and_wide_out_is_clean():
    firing = flow("""
        import numpy as np

        def offsets(buf):
            a = np.frombuffer(buf, dtype=np.uint8)
            return a + a
    """)
    assert "R301" in codes(firing)
    clean = flow("""
        import numpy as np

        def offsets(buf):
            a = np.frombuffer(buf, dtype=np.uint8)
            out = np.zeros(a.size, dtype=np.int64)
            np.add(a, a, out=out)
            return out
    """)
    assert "R301" not in codes(clean)


def test_r301_loop_widening_catches_creeping_overflow():
    firing = flow("""
        import numpy as np

        def creep(n):
            x = np.zeros(4, dtype=np.uint8)
            for _ in range(n):
                x += 7
            return x
    """)
    assert "R301" in codes(firing)


def test_r302_impossible_cast_fires_and_in_range_is_clean():
    firing = flow("""
        import numpy as np

        def narrow():
            a = np.full(4, 300)
            return a.astype(np.uint8)
    """)
    assert "R302" in codes(firing)
    clean = flow("""
        import numpy as np

        def narrow():
            a = np.full(4, 7)
            return a.astype(np.uint8)
    """)
    assert "R302" not in codes(clean)


def test_r304_negative_gather_fires_and_mode_is_clean():
    firing = flow("""
        import numpy as np

        def gather(table):
            idx = np.full(4, -1)
            return np.take(table, idx)
    """)
    assert "R304" in codes(firing)
    clean = flow("""
        import numpy as np

        def gather(table):
            idx = np.full(4, -1)
            return np.take(table, idx, mode="clip")
    """)
    assert "R304" not in codes(clean)


def test_r303_upcast_warns_in_hot_paths_only():
    src = """
        import numpy as np

        def scale(n):
            a = np.zeros(n, dtype=np.int64)
            return a * 0.5
    """
    hot = flow(src, path="src/repro/kernels/fake.py")
    assert "R303" in codes(hot)
    assert severities(hot, "R303") == {"warning"}
    cold = flow(src, path="src/repro/analysis/fake.py")
    assert "R303" not in codes(cold)


def test_seeded_defects_are_caught_with_exact_codes():
    """The ISSUE's acceptance trio, all in one module."""
    diags = flow("""
        import mmap

        import numpy as np
        from multiprocessing import shared_memory

        def seeded_shm_leak(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            view = np.frombuffer(shm.buf, dtype=np.uint8, count=n)
            total = int(view.sum())
            shm.close()
            shm.unlink()
            del view
            return total

        def seeded_overflow(buf):
            offsets = np.frombuffer(buf, dtype=np.uint8)
            return offsets + offsets

        def seeded_escaping_view(f):
            m = mmap.mmap(f.fileno(), 0)
            arr = np.frombuffer(m, dtype=np.uint8)
            m.close()
            return arr
    """)
    by_func = {}
    for d in diags:
        by_func.setdefault(d.function, set()).add(d.code)
    assert "R301" in by_func.get("seeded_overflow", set())
    assert "R205" in by_func.get("seeded_escaping_view", set())
    # the shm itself is released; only the buffer view pins it — the
    # firing variant drops the release entirely:
    leak = flow("""
        from multiprocessing import shared_memory

        def seeded_shm_leak(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            return n
    """)
    assert "R201" in codes(leak)


def test_hot_paths_registries_stay_in_sync():
    from repro.check import lint
    from repro.check.flow import dtypeflow

    assert dtypeflow.HOT_PATHS == lint.HOT_PATHS


# ----------------------------------------------------------------------
# R107 stale noqa
# ----------------------------------------------------------------------
def test_stale_noqa_flagged_live_noqa_and_docstring_mention_are_not():
    src = textwrap.dedent('''
        """Docs may quote `# repro: noqa` without it counting."""

        def f(x=[]):  # repro: noqa(R105)
            return x

        def g(y=None):  # repro: noqa(R105)
            return y
    ''')
    diags = lint_source(src, path="src/repro/x.py",
                        rules=default_rules(flow=True),
                        check_stale_noqa=True)
    r107_lines = {d.line for d in diags if d.code == "R107"}
    # g's noqa suppresses nothing -> stale; f's is live; the docstring
    # mention is not a comment token and never counts
    assert r107_lines == {7}
    assert "R105" not in codes(diags)


def test_r107_is_not_self_suppressible():
    src = "def g(y=None):  # repro: noqa(R107)\n    return y\n"
    diags = lint_source(src, path="src/repro/x.py",
                        rules=default_rules(flow=True),
                        check_stale_noqa=True)
    assert "R107" in codes(diags)


# ----------------------------------------------------------------------
# diagnostics round-trip, baseline, SARIF
# ----------------------------------------------------------------------
def test_diagnostic_dict_round_trip_includes_function():
    diag = Diagnostic(code="R201", severity="warning", message="m",
                      location="src/repro/x.py", line=12,
                      rule="resource-flow", function="attach")
    assert Diagnostic.from_dict(diag.to_dict()) == diag
    bare = Diagnostic(code="K101", severity="error", message="m",
                      location="a.cdfa")
    payload = bare.to_dict()
    assert "function" not in payload
    assert Diagnostic.from_dict(payload) == bare


def test_baseline_round_trip_is_line_independent(tmp_path):
    diag = Diagnostic(code="R204", severity="warning", message="leak",
                      location="src/repro/cli.py", line=100,
                      rule="resource-flow", function="_fleet")
    path = tmp_path / "baseline.json"
    assert write_baseline([diag], path) == 1
    baseline = load_baseline(path)
    assert baseline[baseline_key(diag)] == 1

    shifted = Diagnostic(code="R204", severity="warning", message="leak",
                         location="src/repro/cli.py", line=217,
                         rule="resource-flow", function="_fleet")
    remaining, absorbed = apply_baseline([shifted], baseline)
    assert remaining == [] and absorbed == 1

    # a second finding with the same key exceeds the budget
    remaining, absorbed = apply_baseline([diag, shifted], baseline)
    assert len(remaining) == 1 and absorbed == 1

    other = Diagnostic(code="R204", severity="warning", message="leak",
                       location="src/repro/cli.py", line=100,
                       rule="resource-flow", function="_software")
    remaining, _ = apply_baseline([other], baseline)
    assert remaining == [other]


def test_load_baseline_missing_file_is_empty_and_garbage_raises(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    with pytest.raises(ValueError):
        load_baseline(bad)


def test_sarif_export_structure():
    diags = [
        Diagnostic(code="R201", severity="error", message="leaked",
                   location="src/repro/x.py", line=7,
                   rule="resource-flow", function="attach"),
        Diagnostic(code="R303", severity="warning", message="upcast",
                   location="src/repro/kernels/native.py", line=42,
                   rule="dtype-flow", function="run"),
    ]
    doc = json.loads(render_sarif(diags, tool_version="1.2.3"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert run["tool"]["driver"]["version"] == "1.2.3"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["R201", "R303"]
    levels = {r["ruleId"]: r["level"] for r in run["results"]}
    assert levels == {"R201": "error", "R303": "warning"}
    loc = run["results"][0]["locations"][0]
    assert loc["physicalLocation"]["artifactLocation"]["uri"] \
        == "src/repro/x.py"
    assert loc["physicalLocation"]["region"]["startLine"] == 7
    assert loc["logicalLocations"][0]["name"] == "attach"


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------
LEAKY = textwrap.dedent("""
    def read(p):
        h = open(p)
        data = h.read()
        return data
""")


def test_cache_replays_and_invalidates_on_edit(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(LEAKY)
    cache_path = tmp_path / "cache.json"
    rules = default_rules(flow=True)

    cold = cached_lint_paths([target], rules, cache_path=cache_path)
    warm = cached_lint_paths([target], rules, cache_path=cache_path)
    assert cold == warm
    assert "R204" in codes(warm)

    target.write_text("def read(p):\n    with open(p) as h:\n"
                      "        return h.read()\n")
    edited = cached_lint_paths([target], rules, cache_path=cache_path)
    assert edited == []


def test_cache_misses_when_rule_set_changes(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(LEAKY)
    cache_path = tmp_path / "cache.json"
    with_flow = cached_lint_paths([target], default_rules(flow=True),
                                  cache_path=cache_path)
    without_flow = cached_lint_paths([target], default_rules(flow=False),
                                     cache_path=cache_path)
    assert "R204" in codes(with_flow)
    assert "R204" not in codes(without_flow)


def test_warm_run_is_at_least_5x_faster_than_cold(tmp_path):
    # enough real flow work that the cold run dwarfs hashing overhead
    body = textwrap.dedent("""
        import numpy as np

        def fn_{i}(p, xs):
            h = open(p)
            try:
                acc = np.zeros(8, dtype=np.int64)
                for x in xs:
                    if x:
                        acc = acc + np.frombuffer(x, dtype=np.uint8)
                return acc
            finally:
                h.close()
    """)
    for n in range(6):
        source = "".join(body.format(i=f"{n}_{j}") for j in range(12))
        (tmp_path / f"mod{n}.py").write_text(source)
    cache_path = tmp_path / "cache.json"
    rules = default_rules(flow=True)

    begin = time.perf_counter()
    cold = cached_lint_paths([tmp_path], rules, cache_path=cache_path)
    cold_s = time.perf_counter() - begin

    begin = time.perf_counter()
    warm = cached_lint_paths([tmp_path], rules, cache_path=cache_path)
    warm_s = time.perf_counter() - begin

    assert cold == warm
    assert warm_s * 5 <= cold_s, (
        f"warm {warm_s:.4f}s vs cold {cold_s:.4f}s: expected >= 5x")


# ----------------------------------------------------------------------
# CLI exit-code contract: 0 clean / 1 findings / 2 operational error
# ----------------------------------------------------------------------
def test_cli_lint_exit_contract(tmp_path):
    from repro.cli import main

    clean = tmp_path / "clean.py"
    clean.write_text("def f(p):\n    with open(p) as h:\n"
                     "        return h.read()\n")
    assert main(["check", "lint", str(clean), "--no-cache"]) == 0

    erroring = tmp_path / "erroring.py"
    erroring.write_text(LEAKY)
    assert main(["check", "lint", str(erroring), "--no-cache"]) == 1

    # warning-severity findings gate too (stale noqa is a warning)
    warning = tmp_path / "warning.py"
    warning.write_text("def f(y=None):  # repro: noqa(R105)\n"
                       "    return y\n")
    assert main(["check", "lint", str(warning), "--no-cache"]) == 1

    assert main(["check", "lint", str(tmp_path / "absent.py"),
                 "--no-cache"]) == 2

    bad_baseline = tmp_path / "baseline.json"
    bad_baseline.write_text("{\"version\": 99}")
    assert main(["check", "lint", str(clean), "--no-cache",
                 "--baseline", str(bad_baseline)]) == 2


def test_cli_lint_baseline_flow(tmp_path):
    from repro.cli import main

    erroring = tmp_path / "erroring.py"
    erroring.write_text(LEAKY)
    baseline = tmp_path / "accepted.json"
    assert main(["check", "lint", str(erroring), "--no-cache",
                 "--write-baseline", "--baseline", str(baseline)]) == 0
    assert baseline.exists()
    assert main(["check", "lint", str(erroring), "--no-cache",
                 "--baseline", str(baseline)]) == 0
    assert main(["check", "lint", str(erroring), "--no-cache",
                 "--no-baseline"]) == 1


def test_cli_lint_sarif_output(tmp_path):
    from repro.cli import main

    erroring = tmp_path / "erroring.py"
    erroring.write_text(LEAKY)
    report = tmp_path / "out.sarif"
    assert main(["check", "lint", str(erroring), "--no-cache",
                 "--sarif", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert [r["ruleId"] for r in doc["runs"][0]["results"]]


# ----------------------------------------------------------------------
# regression pins for the defects the engine surfaced
# ----------------------------------------------------------------------
def test_open_input_fallback_closes_handle(tmp_path, monkeypatch):
    import repro.ingest as ingest

    data_file = tmp_path / "d.bin"
    data_file.write_bytes(b"abc")
    opened = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        handle = real_open(*args, **kwargs)
        opened.append(handle)
        return handle

    def failing_mmap(*args, **kwargs):
        raise ValueError("cannot map")

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(ingest.mmap, "mmap", failing_mmap)

    view = ingest.open_input(data_file)
    assert bytes(view) == b"abc"
    assert opened and opened[0].closed, \
        "fallback read path must close the descriptor"


def test_open_input_fallback_closes_handle_when_read_fails(
        tmp_path, monkeypatch):
    import repro.ingest as ingest

    data_file = tmp_path / "d.bin"
    data_file.write_bytes(b"abc")
    real_open = builtins.open
    opened = []

    class FailingRead:
        def __init__(self, handle):
            self._handle = handle

        def fileno(self):
            return self._handle.fileno()

        def read(self):
            raise OSError("disk gone")

        def close(self):
            self._handle.close()

        @property
        def closed(self):
            return self._handle.closed

    def recording_open(*args, **kwargs):
        wrapper = FailingRead(real_open(*args, **kwargs))
        opened.append(wrapper)
        return wrapper

    def failing_mmap(*args, **kwargs):
        raise ValueError("cannot map")

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(ingest.mmap, "mmap", failing_mmap)

    with pytest.raises(OSError):
        ingest.open_input(data_file)
    assert opened and opened[0].closed, \
        "a failing fallback read must still close the descriptor"


def test_attach_worker_mmap_closes_handle_on_map_failure(
        tmp_path, monkeypatch):
    import repro.software as software

    # an empty file is exactly the real failure mode: the file was
    # truncated between dispatch and worker attach, and mmap refuses it
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    monkeypatch.setattr(software, "_WORKER_MMAP", None)
    opened = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        handle = real_open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", recording_open)
    with pytest.raises(ValueError):
        software._attach_worker_mmap(str(empty))
    assert opened and all(h.closed for h in opened), \
        "a failed map must not strand the descriptor in the worker"


# ----------------------------------------------------------------------
# the shipped tree under the full flow battery
# ----------------------------------------------------------------------
def test_shipped_tree_flow_clean_against_committed_baseline(monkeypatch):
    # the committed baseline keys repo-relative paths, so lint from root
    monkeypatch.chdir(REPO_ROOT)
    diags = cached_lint_paths(["src/repro"], default_rules(flow=True),
                              cache_path=None, check_stale_noqa=True)
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    remaining, _ = apply_baseline(
        [d for d in diags if d.severity in ("error", "warning")], baseline)
    assert not remaining, "\n".join(
        f"{d.location}:{d.line}: {d.code} [{d.severity}] {d.message}"
        for d in remaining)
