"""Checks each operation's output against expectations computed by `gen`.

Every function returns a list of problems; an empty list means the output is
right.  Nothing here imports clkset.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from gen import LADDER_CHECKS, space
from pg import valence

BATTERY = (
    "rowspace",
    "kernel",
    "disjointness-counts",
    "kneser-eigenvector",
    "eigenspace-split",
    "meet-distribution",
    "switching-sets",
    "spread-intersections",
)


def check_verify(exp: dict, res: dict) -> list[str]:
    """`clkset verify --format json`: verdicts, size and parameter."""
    member = exp["member"]
    try:
        out = json.loads(res["stdout"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable JSON output: {exc}"]
    n, k, q = exp["geometry"]
    sp = space(n, k, q)
    problems = []
    if (out.get("n"), out.get("k"), out.get("q")) != (n, k, q):
        problems.append("wrong geometry in output")
    if out.get("size") != exp["size"]:
        problems.append(f"size {out.get('size')}, expected {exp['size']}")
    x = sp.parameter(exp["size"])
    if Fraction(out.get("x_num", 0), out.get("x_den", 1)) != x:
        problems.append(f"x = {out.get('x_num')}/{out.get('x_den')}, expected {x}")
    if out.get("passed") is not member:
        problems.append(f"passed = {out.get('passed')}, expected {member}")
    verdicts = out.get("verdicts", {})
    if tuple(verdicts) != BATTERY:
        problems.append(f"checks {tuple(verdicts)} are not the battery")
    allowed = {"pass", "sampled-pass", "skipped"} if member else {"fail", "sampled-pass", "skipped"}
    for name, verdict in verdicts.items():
        if verdict not in allowed:
            problems.append(f"{name} = {verdict} for a {'member' if member else 'non-member'}")
    if verdicts.get("disjointness-counts") != ("pass" if member else "fail"):
        problems.append("disjointness-counts verdict disagrees with the count")
    return problems


def identify(sp, fam: frozenset[int]) -> str | None:
    """'pencil' or 'plane' when the family's point sets make it one."""
    common, union = -1, 0
    for c in fam:
        common &= sp.masks[c]
        union |= sp.masks[c]
    if common and common & (common - 1) == 0:
        if fam == sp.pencil(common.bit_length() - 1):
            return "pencil"
    if sp.n == 3 and union.bit_count() == sp.q**2 + sp.q + 1 and fam == sp.inside(union):
        return "plane"
    return None


def check_search(exp: dict, res: dict) -> list[str]:
    """`clkset search --x 1 --out DIR`: the files name every expected family
    once and nothing else."""
    n, k, q = exp["geometry"]
    sp = space(n, k, q)
    want = exp["families"]
    total = sum(len(v) for v in want.values())
    problems = []
    if res.get("stdout", "").strip() != f"{total} families":
        problems.append(f"stdout {res.get('stdout', '').strip()!r}, expected {total} families")
    outdir = res.get("out", "")
    names = sorted(f for f in os.listdir(outdir) if f.endswith(".clkset")) if os.path.isdir(outdir) else []
    found: dict[str, set] = {kind: set() for kind in want}
    for name in names:
        with open(os.path.join(outdir, name)) as handle:
            text = handle.read()
        try:
            fam = sp.from_text(text)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        kind = identify(sp, fam)
        if kind not in want or fam not in want[kind]:
            problems.append(f"{name}: not an expected x = 1 family")
        elif fam in found[kind]:
            problems.append(f"{name}: repeats a family")
        else:
            found[kind].add(fam)
    for kind, fams in want.items():
        if len(found[kind]) != len(fams):
            problems.append(f"{len(found[kind])} {kind} families, expected {len(fams)}")
    return problems


def check_window(exp: dict, res: dict) -> list[str]:
    """`clkset search --window`: every admissible x in the window is empty."""
    if res.get("stdout", "").strip() != f"{exp['families']} families":
        return [f"stdout {res.get('stdout', '').strip()!r}, expected 0 families"]
    return []


def check_ladder(exp: dict, res: dict) -> list[str]:
    """Counts, relation valences and verdicts of one ladder pass."""
    rows = res.get("ladder", [])
    if len(rows) != len(exp["geometries"]):
        return [f"{len(rows)} geometries reported, expected {len(exp['geometries'])}"]
    problems = []
    for want, got in zip(exp["geometries"], rows):
        n, k, q = want["geometry"]
        tag = f"PG({n},{q}) k={k}"
        if got.get("kspaces") != len(space(n, k, q).kspaces):
            problems.append(f"{tag}: {got.get('kspaces')} k-spaces")
        for i, vals in enumerate(got.get("valences", [])):
            if vals != [valence(i, n, k, q)]:
                problems.append(f"{tag}: relation {i} valences {vals}, expected {valence(i, n, k, q)}")
        if len(got.get("valences", [])) != k + 2:
            problems.append(f"{tag}: {len(got.get('valences', []))} relations")
        for name, member in want["member"].items():
            verdicts = got.get("verdicts", {}).get(name, {})
            target = {c: ("pass" if member else "fail") for c in LADDER_CHECKS}
            if verdicts != target:
                problems.append(f"{tag} {name}: verdicts {verdicts}, expected {target}")
    return problems


CHECKERS = {
    "verify": check_verify,
    "search": check_search,
    "window": check_window,
    "ladder": check_ladder,
}


def expected_rc(op: dict, exp: dict) -> int | None:
    """The CLI exit code an operation must give; None for API operations."""
    if op["kind"] == "ladder":
        return None
    if op["kind"] == "verify":
        return 0 if exp["member"] else 1
    return 0


def check(op: dict, exp: dict, res: dict) -> tuple[str, list[str]]:
    """("ok" | "failed" | "wrong", problems).  An operation that raised or
    gave the wrong exit code "failed"; one that answered but answered
    wrongly is "wrong".  Both count as failed operations; only "wrong"
    makes a run incorrect.  A classification pass is checked search by
    search and takes the worst status."""
    if res.get("error"):
        return "failed", [res["error"]]
    if op["kind"] == "classify":
        got = res.get("parts", [])
        if len(got) != len(op["parts"]):
            return "wrong", [f"{len(got)} searches reported, expected {len(op['parts'])}"]
        results = [check(*trio) for trio in zip(op["parts"], exp["parts"], got)]
        statuses = {status for status, _ in results}
        worst = next(s for s in ("failed", "wrong", "ok") if s in statuses)
        return worst, [p for _, problems in results for p in problems]
    want = expected_rc(op, exp)
    if want is not None and res.get("rc") != want:
        return "failed", [f"exit code {res.get('rc')}, expected {want}"]
    problems = CHECKERS[op["kind"]](exp, res)
    return ("wrong" if problems else "ok"), problems
