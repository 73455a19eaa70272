"""Benchmark of clkset: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
`perfbench/`.  Each run works in its own directory under `.perfbench/runs/`
(removed at the end) and points every `--cache-dir` there.  A run:

1. generates the workload's inputs from the seed (gen.py, apart from clkset);
2. starts fresh processes that set up from an empty cache directory (cold
   set-up), and fresh processes that set up from the directory the first
   cold one filled (warm set-up).  Some warm processes go on to run whole
   rounds of the workload's operations, one at a time, each for its share
   of `--seconds`;
3. checks every operation's output (check.py) and prints one JSON line.

With `--trace 0` the line holds the end-to-end metrics; with `--trace 1` one
cold and one warm process run with spans around every clkset layer and the
line holds the per-layer metrics.  Spans are written to
`.perfbench/traces/<workload>-seed<seed>-<pid>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

# Fresh processes per run.  Cold ones set up from an empty cache directory
# and exit.  Warm ones set up from the directory the first cold one filled;
# WARM_LOOPS of them then each run whole rounds of the operations for their
# share of --seconds (at least one round), so each gives one wall_s sample
# and the operation times come from several processes; the others only
# give a warm_setup_s sample.  The set-up of verify is the slowest thing a
# run does, so it gets fewer samples; the cheap set-ups of window and ladder
# get many.  The loops are as many as fit one round each into the --seconds,
# so that every operation time comes from another moment of the run.
COLD_SETUPS = {"verify": 2, "classify": 3, "window": 7, "ladder": 11}
WARM_SETUPS = {"verify": 4, "classify": 7, "window": 7, "ladder": 11}
WARM_LOOPS = {"verify": 3, "classify": 4, "window": 5, "ladder": 7}
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "warm_setup_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = check.BATTERY

# Layer self times that can occur in a set-up, and in an operation.  Every
# span a phase records must be one of these, so that they add up.
SETUP_TIMES = (
    "geometry.enumerate",
    "geometry.relations",
    "geometry.spreads",
    "geometry.sigma_spreads",
    "scheme.incidence_rref",
    "scheme.kernel",
    "io.cache_get",
    "io.cache_put",
)
SETUP_COUNTS = (
    "geometry.kspaces",
    "geometry.spreads",
    "scheme.kernel_vectors",
    "io.cache_hits",
    "io.cache_misses",
    "io.cache_bytes_written",
)
OP_TIMES = SETUP_TIMES + (
    "io.load_family",
    "io.save_family",
    "families.battery",
    *(f"families.check.{c}" for c in CHECK_NAMES),
    "search.engine",
    "cli.overhead",
)
OP_COUNTS = SETUP_COUNTS + (
    "families.batteries",
    "search.nodes",
    "search.forced",
    "search.leaves",
    "search.families",
    "search.prunes.count",
    "search.prunes.linear",
    "search.prunes.conflict",
    "search.prunes.size",
)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order printed."""
    names = []
    for phase in ("setup", "warm_setup"):
        names += [f"{phase}.{t}_s" for t in SETUP_TIMES]
        names.append(f"{phase}.untraced_s")
        names += [f"{phase}.{c}" for c in SETUP_COUNTS]
    names += [f"{t}_s" for t in OP_TIMES]
    names += ["trace.untraced_s", "trace.overhead_s", "search.reverify_s", "search.nodes_per_s"]
    names += list(OP_COUNTS)
    return names


class BenchError(RuntimeError):
    pass


def spawn(run_dir: str, label: str, spec: dict) -> dict:
    """Run one worker process to its end and return its result."""
    spec = dict(spec, result=os.path.join(run_dir, f"{label}.result.json"))
    path = os.path.join(run_dir, f"{label}.spec.json")
    with open(path, "w") as handle:
        json.dump(spec, handle)
    env = {k: v for k, v in os.environ.items() if k not in ("CLG_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), path]
    try:
        proc = subprocess.run(
            argv + [repr(time.monotonic())],
            cwd=run_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{label} exited {proc.returncode}: {proc.stderr[-3000:]}")
    with open(spec["result"]) as handle:
        return json.load(handle)


def read_spans(path: str) -> list[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(cold_spans: list, loop_spans: list, records: list) -> dict[str, float]:
    """Per-layer figures: one cold set-up, one warm set-up, and per traced
    operation (totals over the traced rounds divided by their operations)."""
    out: dict[str, float] = {}
    phases = {
        "setup": tracing.summarize(cold_spans).get("setup", {}),
        "warm_setup": tracing.summarize(loop_spans).get("warm_setup", {}),
    }
    for phase, sums in phases.items():
        _require_known(phase, sums, SETUP_TIMES, SETUP_COUNTS)
        for t in SETUP_TIMES:
            out[f"{phase}.{t}_s"] = sums.get(f"{t}_s", 0.0)
        out[f"{phase}.untraced_s"] = sums.get("untraced_s", 0.0)
        for c in SETUP_COUNTS:
            out[f"{phase}.{c}"] = sums.get(c, 0)
    ops = tracing.summarize(loop_spans).get("op", {})
    _require_known("op", ops, OP_TIMES, OP_COUNTS + ("search.reverify_s",))
    n = ops.get("roots", 0)
    if n == 0:
        raise BenchError("the traced run recorded no traced operation")
    for t in OP_TIMES:
        out[f"{t}_s"] = ops.get(f"{t}_s", 0.0) / n
    out["trace.untraced_s"] = ops.get("untraced_s", 0.0) / n
    traced = [r["seconds"] for r in records if r["traced"]]
    plain = [r["seconds"] for r in records if not r["traced"]]
    out["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    accounted = sum(out[f"{t}_s"] for t in OP_TIMES) + out["trace.untraced_s"]
    if abs(accounted - statistics.fmean(traced)) > 1e-6 * max(1.0, accounted):
        raise BenchError(f"layer self times add to {accounted}, traced ops to {statistics.fmean(traced)}")
    out["search.reverify_s"] = ops.get("search.reverify_s", 0.0) / n
    engine = ops.get("search.engine_s", 0.0)
    out["search.nodes_per_s"] = ops.get("search.nodes", 0) / engine if engine else 0.0
    for c in OP_COUNTS:
        out[c] = ops.get(c, 0) / n
    return out


def _require_known(phase: str, sums: dict, times, counts) -> None:
    known = {f"{t}_s" for t in times} | set(counts) | {"roots", "untraced_s", "search.reverify_s"}
    unknown = sorted(set(sums) - known)
    if unknown:
        raise BenchError(f"{phase} recorded unlisted layers {unknown}")


def run(workload: str, seed: int, seconds: int, trace: bool, run_dir: str, trace_path: str) -> dict:
    ops, expected = gen.generate(workload, seed, os.path.join(run_dir, "inputs"))
    base = {"workload": workload, "trace": trace, "ops": ops, "outdir": os.path.join(run_dir, "out")}
    # A traced run has one cold process and one warm process, which
    # alternates traced and untraced rounds for the whole --seconds.
    cold_count = 1 if trace else COLD_SETUPS[workload]
    warm_count = 1 if trace else WARM_SETUPS[workload]
    loop_count = 1 if trace else WARM_LOOPS[workload]
    loop_slots = {round(i * warm_count / loop_count) for i in range(loop_count)}
    cold, warm, loops = [], [], []
    # cold0 first, since it fills the warm processes' cache; after that the
    # two kinds alternate and the loops are spread among the warm slots, so
    # every figure is sampled across the run rather than at one end of it
    for kind in ["cold"] + ["warm", "cold"] * max(cold_count, warm_count):
        if kind == "cold" and len(cold) < cold_count:
            i = len(cold)
            spec = dict(base, mode="setup", cache=os.path.join(run_dir, f"cache{i}"))
            spec.update(spans=spans_path(run_dir, "cold"), trace=trace and i == 0)
            cold.append(spawn(run_dir, f"cold{i}", spec)["setup_s"])
        elif kind == "warm" and len(warm) < warm_count:
            spec = dict(base, mode="setup", cache=os.path.join(run_dir, "cache0"))
            if len(warm) in loop_slots:
                spec.update(mode="loop", seconds=seconds / loop_count)
                spec.update(spans=spans_path(run_dir, "loop"))
            result = spawn(run_dir, f"warm{len(warm)}", spec)
            warm.append(result["setup_s"])
            if "ops" in result:
                loops.append(result)
    records = [rec for loop in loops for rec in loop["ops"]]

    failed = wrong = 0
    for rec in records:
        status, problems = check.check(ops[rec["index"]], expected[rec["index"]], rec)
        if status != "ok":
            failed += 1
            wrong += status == "wrong"
            if failed <= 5:
                kind = ops[rec["index"]]["kind"]
                print(f"{status}: op {rec['index']} ({kind}): {problems[:3]}", file=sys.stderr)

    if trace:
        cold_spans = read_spans(spans_path(run_dir, "cold"))
        loop_spans = read_spans(spans_path(run_dir, "loop"))
        values = layer_metrics(cold_spans, loop_spans, records)
        with open(trace_path, "w") as handle:
            for process, spans in (("cold_setup", cold_spans), ("warm", loop_spans)):
                for i, (name, parent, start, end, counts) in enumerate(spans):
                    row = {"process": process, "id": i, "parent": parent, "name": name}
                    row.update(start=start, end=end, counts=counts)
                    handle.write(json.dumps(row) + "\n")
        metrics = {name: {"value": values[name], "unit": _unit(name)} for name in per_layer_names()}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": statistics.median(loop["wall_s"] for loop in loops),
            "setup_s": statistics.median(cold),
            "warm_setup_s": statistics.median(warm),
            "op_p50_s": statistics.median(r["seconds"] for r in records),
            "peak_rss_mb": peak_kib / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def spans_path(run_dir: str, process: str) -> str:
    return os.path.join(run_dir, f"{process}.spans.jsonl")


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the worker it is running
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "clkset", "__init__.py")):
        print(f"perfbench: no clkset sources in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=os.path.join(out, "runs"))
    trace_path = os.path.join(out, "traces", f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir, trace_path)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
