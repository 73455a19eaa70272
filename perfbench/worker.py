"""One program process of a benchmark run: set-up, then optionally the loop.

    python3 perfbench/worker.py SPEC.json T0

T0 is `time.monotonic()` read by the parent just before it started this
process, so the reported set-up time includes interpreter start and import.
The spec names the workload, the mode ("setup": set up and exit; "loop": set
up, then run whole rounds of the operations, as many as come nearest to
`seconds`, at least one), the cache directory, and whether to trace.  The worker writes a result JSON file
and, when tracing, its spans as JSONL; it checks nothing itself.

In a traced loop, rounds alternate untraced and traced (starting untraced, and
always an even number of rounds), so one process gives both the per-layer
split and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import importlib  # noqa: E402

import clkset  # noqa: E402
from clkset import cli, families, scheme  # noqa: E402
from clkset import io as cio  # noqa: E402
from clkset.qformulas import SchemeParams  # noqa: E402

geometry = importlib.import_module("clkset.geometry")  # the package re-exports a function by that name

import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

if not os.path.abspath(clkset.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"imported clkset from {clkset.__file__}, not from {SRC}")


# -- set-up: everything the first operation would otherwise build lazily -----


def prepare(n: int, k: int, q: int, cache: str, battery: bool) -> None:
    ctx = geometry.geometry(n, k, q)
    bundle = scheme.bundle_for(ctx, cio.DiskCache(cache))
    bundle.relation_masks()
    bundle.incidence_rref()
    if battery:
        bundle.kernel_int()
        bundle.spread_masks()
        if n > 2 * k + 1:
            for sigma in ctx.subspaces_of_dim(2 * k + 1):
                ctx.sigma_spread_masks(sigma)


SETUPS = {
    "verify": [(*gen.VERIFY_GEOMETRY, True)],
    "classify": [(*g, True) for g in gen.CLASSIFY_GEOMETRIES],
    "window": [(*gen.WINDOW_GEOMETRY, False)],
    "ladder": [],  # every ladder operation builds its geometries anew
}


def setup(workload: str, cache: str) -> None:
    for n, k, q, battery in SETUPS[workload]:
        prepare(n, k, q, cache, battery)


# -- operations -----------------------------------------------------------------


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def op_verify(op: dict, spec: dict, index: int) -> dict:
    return run_cli(
        ["verify", "--in", op["file"], "--format", "json", "--cache-dir", spec["cache"]]
    )


def _geometry_args(op: dict) -> list[str]:
    return ["--n", str(op["n"]), "--q", str(op["q"]), "--k", str(op["k"])]


def op_classify(op: dict, spec: dict, index: int) -> dict:
    parts = []
    for j, part in enumerate(op["parts"]):
        out = os.path.join(spec["outdir"], f"{os.getpid()}-{index}-{j}")
        argv = ["search", *_geometry_args(part), "--x", part["x"], "--out", out]
        parts.append(dict(run_cli(argv + ["--cache-dir", spec["cache"]]), out=out))
    return {"parts": parts}


def op_window(op: dict, spec: dict, index: int) -> dict:
    argv = ["search", *_geometry_args(op), "--window", *op["window"]]
    return run_cli(argv + ["--cache-dir", spec["cache"]])


def op_ladder(op: dict, spec: dict, index: int) -> dict:
    rows = []
    config = families.BatteryConfig(checks=tuple(op["checks"]))
    for geom, texts in zip(op["geometries"], op["texts"]):
        ctx = geometry.GeometryCtx(SchemeParams(n=geom["n"], k=geom["k"], q=geom["q"]))
        rel = ctx.relation_masks()
        bundle = scheme.SchemeBundle(ctx)
        verdicts = {}
        for name, text in texts:
            report = families.run_battery(cio.family_from_text(text, ctx), bundle, config)
            verdicts[name] = {c: r.verdict.value for c, r in report.results.items()}
        rows.append(
            {
                "kspaces": len(ctx.kspaces),
                "valences": [sorted({m.bit_count() for m in row}) for row in rel],
                "verdicts": verdicts,
            }
        )
    return {"ladder": rows}


OPS = {"verify": op_verify, "classify": op_classify, "window": op_window, "ladder": op_ladder}


def run_op(op: dict, spec: dict, index: int) -> dict:
    try:
        return OPS[op["kind"]](op, spec, index)
    except Exception as exc:  # a raising operation is a failed one; go on
        return {"error": f"{type(exc).__name__}: {exc}"}


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def loop(spec: dict, tracer: Tracer | None) -> dict:
    ops = spec["ops"]
    for op in ops:
        if op["kind"] == "ladder":  # read inputs before timing starts
            op["texts"] = [
                [[name, _read(path)] for name, path in g["files"]] for g in op["geometries"]
            ]
    records = []
    first_round_end = None
    started = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for index, op in enumerate(ops):
            if traced:
                sid = tracer.open("op")
                res = run_op(op, spec, len(records))
                seconds = tracer.close(sid)
            else:
                t = time.perf_counter()
                res = run_op(op, spec, len(records))
                seconds = time.perf_counter() - t
            res.update(index=index, seconds=seconds, traced=traced)
            records.append(res)
        if traced:
            tracer.uninstall()
        rounds += 1
        if first_round_end is None:
            first_round_end = time.monotonic()
        # stop at the whole number of rounds nearest to the time share
        elapsed = time.perf_counter() - started
        done = elapsed + 0.5 * elapsed / rounds >= spec["seconds"]
        if done and (tracer is None or (rounds >= 2 and rounds % 2 == 0)):
            break
    return {"ops": records, "rounds": rounds, "first_round_end": first_round_end}


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    t0 = float(sys.argv[2])
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
        sid = tracer.open("setup" if spec["mode"] == "setup" else "warm_setup", start=START)
    setup(spec["workload"], spec["cache"])
    if tracer:
        tracer.close(sid)
        tracer.uninstall()
    result = {"setup_s": time.monotonic() - t0}
    if spec["mode"] == "loop":
        out = loop(spec, tracer)
        result.update(ops=out["ops"], rounds=out["rounds"], wall_s=out["first_round_end"] - t0)
    if tracer:
        with open(spec["spans"], "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
