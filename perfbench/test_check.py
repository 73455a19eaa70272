"""Fast tests of the benchmark's own parts; none of them runs clkset.

    python3 -m pytest -q perfbench/test_check.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
import pg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _verify_output(sp: pg.Space, fam, member: bool) -> dict:
    x = sp.parameter(len(fam))
    verdict = "pass" if member else "fail"
    out = {
        "n": sp.n,
        "q": sp.q,
        "k": sp.k,
        "x_num": x.numerator,
        "x_den": x.denominator,
        "size": len(fam),
        "verdicts": {name: verdict for name in check.BATTERY},
        "witness": None,
        "passed": member,
    }
    return {"rc": 0 if member else 1, "stdout": json.dumps(out)}


def test_pg_counts_match_closed_forms():
    sp = gen.space(3, 1, 3)
    assert len(sp.points) == pg.gauss(4, 1, 3) == 40
    assert len(sp.kspaces) == pg.gauss(4, 2, 3) == 130
    line = sp.masks[0]
    common = [(m & line).bit_count() for m in sp.masks]
    # relation i = meet in dimension 1 - i: 4 common points, 1, or none
    for i, points in enumerate((4, 1, 0)):
        assert common.count(points) == pg.valence(i, 3, 1, 3)


def test_verify_checker_rejects_a_flipped_verdict():
    sp = gen.space(3, 1, 2)
    pencil = sp.pencil(0)
    assert sp.is_member(pencil)
    op, exp = {"kind": "verify"}, {"geometry": (3, 1, 2), "size": len(pencil), "member": True}
    assert check.check(op, exp, _verify_output(sp, pencil, True)) == ("ok", [])
    # a flipped verdict with its exit code: exit 1 where 0 was due
    assert check.check(op, exp, _verify_output(sp, pencil, False))[0] == "failed"
    # a flipped verdict behind the right exit code: a wrong answer
    lying = _verify_output(sp, pencil, False)
    lying["rc"] = 0
    status, problems = check.check(op, exp, lying)
    assert status == "wrong" and any("passed" in p for p in problems)
    flipped = _verify_output(sp, pencil, True)
    body = json.loads(flipped["stdout"])
    body["verdicts"]["disjointness-counts"] = "fail"
    flipped["stdout"] = json.dumps(body)
    status, problems = check.check(op, exp, flipped)
    assert status == "wrong" and problems


def test_verify_checker_knows_a_non_member():
    sp = gen.space(3, 1, 2)
    swapped = (sp.pencil(0) - {min(sp.pencil(0))}) | {min(set(range(35)) - sp.pencil(0))}
    assert not sp.is_member(swapped)
    exp = {"geometry": (3, 1, 2), "size": len(swapped), "member": False}
    assert check.check({"kind": "verify"}, exp, _verify_output(sp, swapped, False))[0] == "ok"
    assert check.check({"kind": "verify"}, exp, _verify_output(sp, swapped, True))[0] == "failed"


def _write_families(sp: pg.Space, fams, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for idx, fam in enumerate(sorted(fams, key=sorted)):
        with open(os.path.join(directory, f"family_{idx:04d}.clkset"), "w") as handle:
            handle.write(sp.to_text(fam))


def test_classify_checker_rejects_a_dropped_family(tmp_path):
    sp = gen.space(3, 1, 3)
    want = gen.x1_families(3, 1, 3)
    assert {k: len(v) for k, v in want.items()} == {"pencil": 40, "plane": 40}
    every = want["pencil"] | want["plane"]
    out = str(tmp_path / "out")
    _write_families(sp, every, out)
    op, exp = {"kind": "search"}, {"geometry": (3, 1, 3), "families": want}
    res = {"rc": 0, "stdout": "80 families\n", "out": out}
    assert check.check(op, exp, res) == ("ok", [])
    os.remove(os.path.join(out, "family_0017.clkset"))
    status, problems = check.check(op, exp, res)
    assert status == "wrong" and any("expected 40" in p for p in problems)
    res["stdout"] = "79 families\n"
    assert check.check(op, exp, res)[0] == "wrong"
    # inside a classification pass the worst search decides
    passed = {"rc": 0, "stdout": "80 families\n", "out": str(tmp_path / "none")}
    crashed = {"rc": 3, "stdout": ""}
    pass_op, pass_exp = {"kind": "classify", "parts": [op, op]}, {"parts": [exp, exp]}
    assert check.check(pass_op, pass_exp, {"parts": [passed, res]})[0] == "wrong"
    assert check.check(pass_op, pass_exp, {"parts": [res, crashed]})[0] == "failed"


def test_classify_checker_rejects_a_repeat(tmp_path):
    sp = gen.space(4, 1, 2)
    want = gen.x1_families(4, 1, 2)
    fams = sorted(want["pencil"], key=sorted)
    out = str(tmp_path / "out")
    _write_families(sp, fams[:-1], out)
    with open(os.path.join(out, "family_0030.clkset"), "w") as handle:
        handle.write(sp.to_text(fams[0]))
    res = {"rc": 0, "stdout": "31 families\n", "out": out}
    status, problems = check.check({"kind": "search"}, {"geometry": (4, 1, 2), "families": want}, res)
    assert status == "wrong" and any("repeats" in p for p in problems)


def test_ladder_checker_rejects_a_wrong_valence():
    n, k, q = 3, 1, 5
    exp = {"geometries": [{"geometry": (n, k, q), "member": {"pencil": True, "random": False}}]}
    good = {
        "kspaces": pg.gauss(4, 2, 5),
        "valences": [[pg.valence(i, n, k, q)] for i in range(k + 2)],
        "verdicts": {
            "pencil": {c: "pass" for c in gen.LADDER_CHECKS},
            "random": {c: "fail" for c in gen.LADDER_CHECKS},
        },
    }
    op = {"kind": "ladder"}
    assert check.check(op, exp, {"ladder": [good]}) == ("ok", [])
    bad = dict(good, valences=[[1], [60], [744, 745]])
    assert check.check(op, exp, {"ladder": [bad]})[0] == "wrong"


def test_self_times_account_for_the_root():
    # op [0, 10] > battery [1, 7] > check [2, 5]; cli [8, 9]
    spans = [
        ["op", -1, 0.0, 10.0, None],
        ["families.battery", 0, 1.0, 7.0, {"families.batteries": 1}],
        ["families.check.kernel", 1, 2.0, 5.0, None],
        ["cli.overhead", 0, 8.0, 9.0, None],
    ]
    sums = tracing.summarize(spans)["op"]
    assert sums["roots"] == 1
    assert sums["families.battery_s"] == 3.0
    assert sums["families.check.kernel_s"] == 3.0
    assert sums["untraced_s"] == 3.0
    total = sums["families.battery_s"] + sums["families.check.kernel_s"]
    assert total + sums["cli.overhead_s"] + sums["untraced_s"] == 10.0


def test_benchmark_json_lists_what_the_run_prints():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
