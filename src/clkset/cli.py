"""Command-line front end.

Exit codes: 0 success / battery pass, 1 battery fail, 2 input error,
3 internal disagreement between equivalent definition checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .families import (
    BatteryConfig,
    BatteryDisagreement,
    CLCandidate,
    complement,
    hyperplane_family,
    point_pencil_family,
    run_battery,
)
from .geometry import geometry
from .io import (
    DiskCache,
    atomic_write,
    load_family,
    resolve_cache_dir,
    save_family,
)
from .qformulas import (
    SchemeParams,
    eigenvalue_p,
    excludes_skew_subfamily,
    member_meet_count,
    pair_meet_count_bound,
    pair_skew_count_bound,
    parameter_range,
    qbinom,
    skew_pair_outer_point,
    skew_pair_span_point,
    skew_pair_total,
    within_classification_bound,
)
from .scheme import bundle_for
from .search import nonexistence_window, search_all

EXIT_OK = 0
EXIT_BATTERY_FAIL = 1
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3


def _params(args) -> SchemeParams:
    return SchemeParams(n=args.n, k=args.k, q=args.q)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _index(value: int, count: int, what: str) -> int:
    """value as an index into count items; Python's negative indexing refused."""
    if not 0 <= value < count:
        raise ValueError(f"{what} {value} out of range 0..{count - 1}")
    return value


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, default=str))
    else:
        for key, value in data.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key} = {value}")


def _require_printable(p: SchemeParams) -> None:
    """Refuse parameters whose central q-binomial, printed by `formulas`, has
    more digits than Python prints (sys.get_int_max_str_digits): it is at
    least q^(a*b) with a = floor((n+1)/2), b = n+1-a."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    a = (p.n + 1) // 2
    exponent = a * (p.n + 1 - a)
    lower = (p.q.bit_length() - 1) * exponent  # q^exponent >= 2^lower
    if lower >= 4 * limit or p.q**exponent >= 10**limit:  # 2^(4*limit) > 10^limit
        raise ValueError(
            f"PG({p.n},{p.q}) k={p.k}: qbinom({p.n + 1}, {a}, {p.q}) has more than "
            f"{limit} digits, the most Python prints (sys.set_int_max_str_digits)"
        )


def cmd_formulas(args) -> int:
    p = _params(args)
    _require_printable(p)
    data: dict = {
        "params": f"PG({p.n},{p.q}) k={p.k}",
        "points": p.num_points,
        "kspaces": p.num_kspaces,
        "pencil_size": p.pencil_size,
        "disjoint_from_one": p.disjoint_from_one,
    }
    lo, hi = parameter_range(p)
    data["parameter_range"] = f"[{lo}, {hi}]"
    data["qbinom_row"] = [qbinom(p.n + 1, b, p.q) for b in range(p.n + 2)]
    data["P_matrix"] = [
        "P[%d] = %s" % (j, [eigenvalue_p(j, i, p) for i in range(p.k + 2)])
        for j in range(p.k + 2)
    ]
    if p.n >= 2 * p.k + 1:
        data["skew_pair_total"] = skew_pair_total(p)
        data["skew_pair_span_point"] = skew_pair_span_point(p)
        if p.n > 2 * p.k + 1:
            data["skew_pair_outer_point"] = skew_pair_outer_point(p)
    if args.x is not None:
        x = args.x
        data["x"] = x
        data["family_size"] = x * qbinom(p.n, p.k, p.q)
        if p.n >= 2 * p.k + 1:
            data["member_meet_count"] = member_meet_count(p, x)
        if p.n > 3 * p.k + 1:
            data["pair_skew_count_bound"] = pair_skew_count_bound(p, x)
            data["pair_meet_count_bound"] = pair_meet_count_bound(p, x)
        if p.n >= 3 * p.k + 2:
            data["within_bound"] = within_classification_bound(p, x)
        if args.c is not None and p.n > 2 * p.k + 1:
            audit = excludes_skew_subfamily(args.c, p, x)
            data["skew_exclusion"] = (
                f"holds={audit.holds} lhs={audit.lhs} rhs={audit.rhs}"
            )
    if args.i is not None and args.j is not None:
        data[f"P[{args.j}][{args.i}]"] = eigenvalue_p(args.j, args.i, p)
    _emit(data, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    cand = load_family(args.infile)
    ctx = cand.ctx
    bundle = bundle_for(ctx, DiskCache(resolve_cache_dir(args.cache_dir)))
    config = BatteryConfig.fast() if args.battery == "fast" else BatteryConfig()
    report = run_battery(cand, bundle, config)
    if args.format == "json":
        payload = {
            "n": ctx.params.n,
            "q": ctx.params.q,
            "k": ctx.params.k,
            "x_num": report.x.numerator,
            "x_den": report.x.denominator,
            "size": report.size,
            "verdicts": {
                name: res.verdict.value for name, res in report.results.items()
            },
            "witness": next(
                (
                    str(res.witness)
                    for res in report.results.values()
                    if res.witness is not None
                ),
                None,
            ),
            "passed": report.passed,
            "timings": {name: res.seconds for name, res in report.results.items()},
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_BATTERY_FAIL


def cmd_construct(args) -> int:
    if args.kind == "complement":
        if not args.infile:
            print("error: --kind complement requires --in", file=sys.stderr)
            return EXIT_INPUT
        cand = complement(load_family(args.infile))
    else:
        if None in (args.n, args.q, args.k):
            print(f"error: --kind {args.kind} requires --n --q --k", file=sys.stderr)
            return EXIT_INPUT
        p = _params(args)
        ctx = geometry(p.n, p.k, p.q)
        if args.kind == "pencil":
            point = _index(args.point_id, len(ctx.points), "--point-id")
            cand = point_pencil_family(ctx, point)
        elif args.kind == "hyperplane":
            hyps = ctx.hyperplanes()
            cand = hyperplane_family(
                ctx, hyps[_index(args.hyperplane_id, len(hyps), "--hyperplane-id")]
            )
        else:
            cand = CLCandidate(ctx, ctx.construct_spread())
    try:
        save_family(args.out, cand)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {len(cand)} k-spaces to {args.out}")
    return EXIT_OK


def _window_line(row: dict) -> str:
    """The summary.txt line of a window row, from its JSON record."""
    line = f"x={row['x']} size={row['size']} families={row['families']}"
    if row["reason"]:
        line += f" reason={row['reason']}"
    if row["within_bound"] is not None:
        line += f" within_bound={row['within_bound']}"
    audit = row["skew_exclusion"]
    if audit is not None:
        line += f" skew_exclusion(holds={audit['holds']}, lhs={audit['lhs']}, rhs={audit['rhs']})"
    return line


def cmd_search(args) -> int:
    made = []  # the directories --out creates, deepest first
    head = args.out and os.path.abspath(args.out)
    while head and not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        return _search(args)
    finally:  # a run that succeeds writes summary.txt: only a refused one leaves them empty
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)


def _search(args) -> int:
    p = _params(args)
    ctx = geometry(p.n, p.k, p.q)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            if not os.access(args.out, os.W_OK | os.X_OK):
                raise PermissionError(f"{args.out} is not writable")
        except OSError as exc:
            print(f"error: cannot use output directory: {exc}", file=sys.stderr)
            return EXIT_INPUT
    bundle_for(ctx, DiskCache(resolve_cache_dir(args.cache_dir)))
    payload: dict = {"n": p.n, "q": p.q, "k": p.k}
    families = ()
    if args.window:
        lo, hi = args.window
        rows = [
            {
                "x": str(row.x),
                "size": row.size,
                "families": row.families,
                "reason": row.reason,
                "within_bound": row.within_bound,
                "skew_exclusion": None
                if row.skew_audit is None
                else {
                    "holds": row.skew_audit.holds,
                    "lhs": str(row.skew_audit.lhs),
                    "rhs": str(row.skew_audit.rhs),
                },
                "nodes": row.stats.nodes,
                "forced": row.stats.forced,
                "leaves": row.stats.leaves,
                "prunes": row.stats.prunes,
            }
            for row in nonexistence_window(ctx, lo, hi, args.threads)
        ]
        total = sum(row["families"] for row in rows)
        payload.update(window=[str(lo), str(hi)], rows=rows, total=total)
        summary_lines = [*map(_window_line, rows), f"total: {total} families"]
        text = f"{total} families"
    else:
        result = search_all(ctx, args.x, args.threads)
        families, stats = result.families, result.stats
        summary_lines = [
            f"x={args.x} families={len(families)}"
            + (f" reason={result.reason}" if result.reason else ""),
            f"nodes={stats.nodes} prunes={stats.prunes}",
        ]
        payload.update(
            x=str(args.x),
            families=[list(fam) for fam in families],
            reason=result.reason,
            nodes=stats.nodes,
            forced=stats.forced,
            leaves=stats.leaves,
            prunes=stats.prunes,
            wall_seconds=stats.wall_seconds,
        )
        text = f"{len(families)} families"
    print(json.dumps(payload, indent=2) if args.format == "json" else text)
    if args.out:
        try:
            for idx, fam in enumerate(families):
                save_family(
                    os.path.join(args.out, f"family_{idx:04d}.clkset"),
                    CLCandidate(ctx, fam),
                )
            atomic_write(
                os.path.join(args.out, "summary.txt"), "\n".join(summary_lines) + "\n"
            )
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write to {args.out}: {reason}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clkset",
        description="Exact computations with special k-space families in PG(n,q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, require=True):
        sp.add_argument("--n", type=int, required=require)
        sp.add_argument("--q", type=int, required=require)
        sp.add_argument("--k", type=int, required=require)

    sp = sub.add_parser("formulas", help="evaluate the closed-form counts")
    add_params(sp)
    sp.add_argument("--x", type=_fraction, default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_formulas)

    sp = sub.add_parser("verify", help="run the definition battery on a file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--battery", choices=("all", "fast"), default="all")
    sp.add_argument("--cache-dir", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="write a known family to a file")
    sp.add_argument(
        "--kind", choices=("pencil", "hyperplane", "spread", "complement"), required=True
    )
    add_params(sp, require=False)
    sp.add_argument("--point-id", type=int, default=0)
    sp.add_argument("--hyperplane-id", type=int, default=0)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("search", help="exhaustively search a parameter or window")
    add_params(sp)
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--x", type=_fraction, default=None)
    target.add_argument("--window", nargs=2, type=_fraction, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--cache-dir", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BatteryDisagreement as exc:  # verify's battery, or search's re-check
        print("internal disagreement between definition checks:", file=sys.stderr)
        for line in exc.report.lines():
            print("  " + line, file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
