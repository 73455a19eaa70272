"""The benchmark drives clkset through names it calls or patches from outside
(perfbench/tracing.py HOOKS and IMPORTERS, perfbench/worker.py set-up and
operations).  One traced set-up and two traced searches, as a benchmark
operation runs them, fail here when a rename or signature change breaks
one of those names."""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_setup_and_searches(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py prepends to it
    tracing, worker = _load("tracing"), _load("worker")
    cache = str(tmp_path / "cache")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.prepare(4, 1, 2, cache, True)
        results = [
            worker.run_cli(
                ["search", "--n", str(n), "--q", "2", "--k", "1", *target, "--cache-dir", cache]
            )
            for n, target in ((3, ["--x", "1"]), (4, ["--window", "1", "3/2"]))
        ]
    finally:
        tracer.uninstall()
    assert [r["rc"] for r in results] == [0, 0], results
    assert [r["stdout"] for r in results] == ["30 families\n", "0 families\n"]
    names = {span[0] for span in tracer.spans}
    for name in (
        "geometry.enumerate",
        "geometry.relations",
        "geometry.sigma_spreads",
        "scheme.incidence_rref",
        "scheme.kernel",
        "search.engine",
        "families.battery",
        "cli.overhead",
    ):
        assert name in names, name
