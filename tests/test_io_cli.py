import json
import os

import pytest
from _oracles import IndexOrderEngine

from clkset import SchemeBundle, family, geometry, point_pencil_family
from clkset.cli import main
from clkset.geometry import GeometryCtx, mask_of
from clkset.io import (
    CLKSETError,
    DiskCache,
    family_from_text,
    family_to_text,
    load_family,
    resolve_cache_dir,
    save_family,
)
from clkset.qformulas import SchemeParams


class TestFormat:
    def test_round_trip_byte_identity(self, pg32, tmp_path):
        pen = point_pencil_family(pg32, 0)
        path = tmp_path / "pencil.clkset"
        save_family(str(path), pen)
        text1 = path.read_text()
        loaded = load_family(str(path), pg32)
        assert loaded == pen
        save_family(str(path), loaded)
        assert path.read_text() == text1

    def test_round_trip_extension_field(self, tmp_path):
        ctx = geometry(2, 1, 4)
        fam = family(ctx, ctx.pencil(0))
        text = family_to_text(fam)
        assert "POLY 1 1 1" in text
        assert family_from_text(text, ctx) == fam

    def test_prime_field_has_no_poly_line(self, pg32):
        text = family_to_text(point_pencil_family(pg32, 0))
        assert "POLY" not in text

    def test_bad_header(self):
        with pytest.raises(CLKSETError) as err:
            family_from_text("CLKSET v9\n3 2 1\n")
        assert err.value.line == 1

    def test_bad_entry_count(self, pg32):
        text = "CLKSET v1\n3 2 1\n1 0 0 0 0 1 0\n"
        with pytest.raises(CLKSETError) as err:
            family_from_text(text, pg32)
        assert err.value.line == 3

    def test_out_of_range_entry(self, pg32):
        text = "CLKSET v1\n3 2 1\n1 0 0 0 0 3 0 0\n"
        with pytest.raises(CLKSETError):
            family_from_text(text, pg32)

    def test_non_canonical_matrix_rejected(self, pg32):
        sub = pg32.kspaces[0]
        rows = [sub.basis[1], sub.basis[0]]  # swapped rows: not RREF order
        flat = " ".join(str(v) for row in rows for v in row)
        text = f"CLKSET v1\n3 2 1\n{flat}\n"
        with pytest.raises(CLKSETError):
            family_from_text(text, pg32)

    def test_duplicate_rejected(self, pg32):
        line = " ".join(str(v) for v in pg32.kspaces[0].flat())
        text = f"CLKSET v1\n3 2 1\n{line}\n{line}\n"
        with pytest.raises(CLKSETError):
            family_from_text(text, pg32)

    def test_wrong_modulus_rejected(self):
        ctx = geometry(2, 1, 4)
        line = " ".join(str(v) for v in ctx.kspaces[0].flat())
        text = f"CLKSET v1\n2 4 1\nPOLY 1 0 1\n{line}\n"
        with pytest.raises(CLKSETError):
            family_from_text(text, ctx)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        params = SchemeParams(n=3, k=1, q=2)
        cache.put("demo", params, {"a": [1, 2, 3]})
        assert cache.get("demo", params) == {"a": [1, 2, 3]}

    def test_corruption_detected(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        params = SchemeParams(n=3, k=1, q=2)
        cache.put("demo", params, {"a": 1})
        path = cache._path("demo", params)
        blob = json.load(open(path))
        blob["payload"]["a"] = 2  # checksum now stale
        with open(path, "w") as handle:
            json.dump(blob, handle)
        assert cache.get("demo", params) is None

    def test_missing_returns_none(self, tmp_path):
        cache = DiskCache(str(tmp_path / "nope"))
        assert cache.get("demo", SchemeParams(n=3, k=1, q=2)) is None

    def test_dir_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("CLG_CACHE", raising=False)
        assert resolve_cache_dir("explicit") == "explicit"
        monkeypatch.setenv("CLG_CACHE", "/from/env")
        assert resolve_cache_dir(None) == "/from/env"
        assert resolve_cache_dir("flag") == "flag"
        monkeypatch.delenv("CLG_CACHE")
        assert resolve_cache_dir(None) == ".clg-cache"

    def test_cold_and_warm_runs_identical(self, tmp_path):
        import subprocess
        import sys

        script = (
            "import sys; from clkset.cli import main; "
            "sys.exit(main(['verify', '--in', sys.argv[1], "
            "'--cache-dir', sys.argv[2]]))"
        )
        fam_path = str(tmp_path / "f.clkset")
        cache_dir = str(tmp_path / "cache")
        ctx = geometry(3, 1, 4)  # above the spread point cap: its sample is cached
        save_family(fam_path, point_pencil_family(ctx, 0))
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, fam_path, cache_dir],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        assert os.path.isdir(cache_dir)

    def test_only_spreads_are_cached(self, tmp_path):
        import subprocess
        import sys

        fam_path = str(tmp_path / "f.clkset")
        cache_dir = str(tmp_path / "cache")
        save_family(fam_path, point_pencil_family(geometry(5, 1, 2), 0))
        proc = subprocess.run(
            [sys.executable, "-m", "clkset.cli", "verify", "--in", fam_path,
             "--cache-dir", cache_dir],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = os.listdir(cache_dir)
        assert len(files) == 1 and files[0].startswith("spreads_")

    @pytest.mark.parametrize(
        "payload",
        [
            {"spreads": [[0, 1, 2, 3, 4]], "exhaustive": True},  # not a partition
            [["a"]],
            {"spreads": [[0, 1, 2, 3, 4]]},
            {"spreads": 5, "exhaustive": True},
            {"spreads": [], "exhaustive": True},
            {"spreads": [["0"]], "exhaustive": True},
            None,
            [[0, 1, 2, 3, 4]],  # not a partition
            5,
            [],
            [["0"]],
            [[0.0]],
        ],
    )
    def test_foreign_spread_entries_rebuilt(self, pg34, tmp_path, payload):
        cache = DiskCache(str(tmp_path / "cache"))
        cache.put("spreads", pg34.params, payload)
        sample = pg34.permuted_spread_sample()
        assert SchemeBundle(pg34, cache).spread_masks() == [mask_of(s) for s in sample]
        assert cache.get("spreads", pg34.params) == [list(s) for s in sample]

    def test_spread_entries_checked_spread_by_spread(self, pg34, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        sample = pg34.permuted_spread_sample()
        spreads = [list(s) for s in sample]
        c = next(c for c in range(357) if c not in spreads[0])
        foreign = [
            {"spreads": spreads, "exhaustive": False},  # the former entry shape
            spreads[::-1],
            spreads + spreads[-1:],
            spreads[:-1] + [spreads[-1] + spreads[-1][:1]],
            spreads[:-1] + [spreads[-1][:-1] + [357]],
            spreads[:-1] + [spreads[-1][:-1] + [True]],
            spreads[:-1] + [sorted(spreads[0][1:] + [c])],
        ]
        for payload in foreign:
            cache.put("spreads", pg34.params, payload)
            got = SchemeBundle(pg34, cache).spread_masks()
            assert got == [mask_of(s) for s in sample]

    def test_checked_spread_entries_are_read_back(self, pg34, pg52, tmp_path, monkeypatch):
        cache = DiskCache(str(tmp_path / "cache"))
        bundles = [SchemeBundle(ctx, cache) for ctx in (pg34, pg52)]
        built = [bundle.spread_masks() for bundle in bundles]
        assert not any(bundle.spreads_exhaustive() for bundle in bundles)

        def refuse(ctx):
            raise AssertionError("cached spreads were rebuilt")

        monkeypatch.setattr(GeometryCtx, "enumerate_all_spreads", refuse)
        monkeypatch.setattr(GeometryCtx, "permuted_spread_sample", refuse)
        assert [SchemeBundle(ctx, cache).spread_masks() for ctx in (pg34, pg52)] == built

    @pytest.mark.parametrize(
        "payload",
        [
            {"spreads": [[0, 1, 2, 3, 4]], "exhaustive": True},
            [["a"]],
            [[0, 1, 2, 3, 4]],
        ],
    )
    def test_verify_rebuilds_foreign_spread_entry(self, tmp_path, capsys, monkeypatch, payload):
        monkeypatch.setattr(geometry(3, 1, 4), "_bundle", None)  # read the cache afresh
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", "4", "--k",
              "1", "--out", out])
        cache = DiskCache(str(tmp_path / "cache"))
        params = SchemeParams(n=3, k=1, q=4)
        cache.put("spreads", params, payload)
        capsys.readouterr()
        assert main(["verify", "--in", out, "--cache-dir", cache.directory]) == 0
        assert "spread-intersections: sampled-pass (12 sampled spreads)" in capsys.readouterr().out
        assert len(cache.get("spreads", params)) == 12

    def test_exhaustive_spread_list_never_read_from_cache(
        self, pg32, tmp_path, capsys, monkeypatch
    ):
        """A PG(3,2) entry in the former shape that lists one true spread as
        the whole list is not read: all 56 spreads are counted, so a 7-line
        family meeting that spread once fails spread-intersections instead of
        passing it against the other checks, and nothing is written."""
        import random

        monkeypatch.setattr(pg32, "_bundle", None)  # build the spreads afresh
        spread = pg32.enumerate_all_spreads()[0]
        rng = random.Random(1)
        bad = next(
            fam
            for fam in (family(pg32, rng.sample(range(35), 7)) for _ in range(1000))
            if (fam.mask & mask_of(spread)).bit_count() == 1
        )
        path = str(tmp_path / "bad.clkset")
        save_family(path, bad)
        cache = DiskCache(str(tmp_path / "cache"))
        cache.put("spreads", pg32.params, {"spreads": [list(spread)], "exhaustive": True})
        entry_path = cache._path("spreads", pg32.params)
        with open(entry_path) as handle:
            entry = handle.read()
        fresh = str(tmp_path / "fresh")
        capsys.readouterr()
        for directory in (cache.directory, fresh):
            assert main(["verify", "--in", path, "--cache-dir", directory]) == 1
            lines = capsys.readouterr().out.splitlines()
            assert any(line.startswith("spread-intersections: fail ") for line in lines)
        assert os.listdir(cache.directory) == [os.path.basename(entry_path)]
        with open(entry_path) as handle:
            assert handle.read() == entry
        assert not os.path.exists(fresh)


# summary.txt of three searches, byte for byte: window rows with and without
# reason= and with the skew audit, and the worker stats merged under --threads
# with the prune keys in first-seen order (on the index-order oracle, and on
# the engine, which branches fail first)
WINDOW_PG42_1_2 = (
    'x=16/15 size=16 families=0 reason=members need exactly 71/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=152/5, rhs=16)\n'
    'x=17/15 size=17 families=0 reason=members need exactly 72/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=154/5, rhs=17)\n'
    'x=6/5 size=18 families=0 reason=members need exactly 73/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=156/5, rhs=18)\n'
    'x=19/15 size=19 families=0 reason=members need exactly 74/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=158/5, rhs=19)\n'
    'x=4/3 size=20 families=0 skew_exclusion(holds=True, lhs=32, rhs=20)\n'
    'x=7/5 size=21 families=0 reason=members need exactly 76/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=162/5, rhs=21)\n'
    'x=22/15 size=22 families=0 reason=members need exactly 77/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=164/5, rhs=22)\n'
    'x=23/15 size=23 families=0 reason=members need exactly 78/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=166/5, rhs=23)\n'
    'x=8/5 size=24 families=0 reason=members need exactly 79/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=168/5, rhs=24)\n'
    'x=5/3 size=25 families=0 skew_exclusion(holds=True, lhs=34, rhs=25)\n'
    'x=26/15 size=26 families=0 reason=members need exactly 81/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=172/5, rhs=26)\n'
    'x=9/5 size=27 families=0 reason=members need exactly 82/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=174/5, rhs=27)\n'
    'x=28/15 size=28 families=0 reason=members need exactly 83/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=176/5, rhs=28)\n'
    'x=29/15 size=29 families=0 reason=members need exactly 84/5 meets at relation 1: impossible'
    ' skew_exclusion(holds=True, lhs=178/5, rhs=29)\n'
    'total: 0 families\n'
)

WINDOW_PG32_0_3 = (
    'x=1/7 size=1 families=0 reason=members need exactly 24/7 meets at relation 1: impossible\n'
    'x=2/7 size=2 families=0 reason=members need exactly 27/7 meets at relation 1: impossible\n'
    'x=3/7 size=3 families=0 reason=members need exactly 30/7 meets at relation 1: impossible\n'
    'x=4/7 size=4 families=0 reason=members need exactly 33/7 meets at relation 1: impossible\n'
    'x=5/7 size=5 families=0 reason=members need exactly 36/7 meets at relation 1: impossible\n'
    'x=6/7 size=6 families=0 reason=members need exactly 39/7 meets at relation 1: impossible\n'
    'x=1 size=7 families=30\n'
    'x=8/7 size=8 families=0 reason=members need exactly 45/7 meets at relation 1: impossible\n'
    'x=9/7 size=9 families=0 reason=members need exactly 48/7 meets at relation 1: impossible\n'
    'x=10/7 size=10 families=0 reason=members need exactly 51/7 meets at relation 1: impossible\n'
    'x=11/7 size=11 families=0 reason=members need exactly 54/7 meets at relation 1: impossible\n'
    'x=12/7 size=12 families=0 reason=members need exactly 57/7 meets at relation 1: impossible\n'
    'x=13/7 size=13 families=0 reason=members need exactly 60/7 meets at relation 1: impossible\n'
    'x=2 size=14 families=120\n'
    'x=15/7 size=15 families=0 reason=members need exactly 66/7 meets at relation 1: impossible\n'
    'x=16/7 size=16 families=0 reason=members need exactly 69/7 meets at relation 1: impossible\n'
    'x=17/7 size=17 families=0 reason=members need exactly 72/7 meets at relation 1: impossible\n'
    'x=18/7 size=18 families=0 reason=members need exactly 75/7 meets at relation 1: impossible\n'
    'x=19/7 size=19 families=0 reason=members need exactly 78/7 meets at relation 1: impossible\n'
    'x=20/7 size=20 families=0 reason=members need exactly 81/7 meets at relation 1: impossible\n'
    'total: 150 families\n'
)

X_PG32_2_THREADS_2 = (
    'x=2 families=120\n'
    "nodes=1632 prunes={'count': 382, 'conflict': 375, 'size': 185, 'linear': 574}\n"
)
X_PG32_2_THREADS_2_FAIL_FIRST = (
    'x=2 families=120\n'
    "nodes=1408 prunes={'count': 223, 'conflict': 240, 'size': 168, 'linear': 661}\n"
)


# `verify --format json` on a PG(4,2) lines pencil and on 31 scattered lines,
# as printed before the timings key was added
VERIFY_JSON_PG42 = {
    "pencil": (
        '{\n  "n": 4,\n  "q": 2,\n  "k": 1,\n  "x_num": 1,\n  "x_den": 1,\n  "size": 15,\n'
        '  "verdicts": {\n    "rowspace": "pass",\n    "kernel": "pass",\n'
        '    "disjointness-counts": "pass",\n    "kneser-eigenvector": "pass",\n'
        '    "eigenspace-split": "pass",\n    "meet-distribution": "pass",\n'
        '    "switching-sets": "pass",\n    "spread-intersections": "skipped"\n  },\n'
        '  "witness": null,\n  "passed": true\n}\n'
    ),
    "scattered": (
        '{\n  "n": 4,\n  "q": 2,\n  "k": 1,\n  "x_num": 31,\n  "x_den": 15,\n  "size": 31,\n'
        '  "verdicts": {\n    "rowspace": "fail",\n    "kernel": "fail",\n'
        '    "disjointness-counts": "fail",\n    "kneser-eigenvector": "fail",\n'
        '    "eigenspace-split": "fail",\n    "meet-distribution": "fail",\n'
        '    "switching-sets": "fail",\n    "spread-intersections": "skipped"\n  },\n'
        '  "witness": "(\'residual-at\', 17)",\n  "passed": false\n}\n'
    ),
}


class TestCLI:
    def test_formulas_text(self, capsys):
        assert main(["formulas", "--n", "3", "--q", "2", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "kspaces = 35" in out
        assert "P[0] = [1, 18, 16]" in out

    def test_formulas_json_with_x(self, capsys):
        code = main(
            ["formulas", "--n", "8", "--q", "2", "--k", "2", "--x", "2",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["within_bound"] is True

    def test_formulas_rejects_non_prime_power(self, capsys):
        assert main(["formulas", "--n", "3", "--q", "6", "--k", "1"]) == 2
        assert "not a prime power" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["10000", "1000000"])
    def test_formulas_refuses_unprintable_n(self, capsys, n):
        import time

        start = time.perf_counter()
        assert main(["formulas", "--n", n, "--q", "2", "--k", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "digits, the most Python prints" in capsys.readouterr().err

    def test_construct_and_verify_pencil(self, tmp_path, capsys):
        out = str(tmp_path / "pencil.clkset")
        assert (
            main(
                ["construct", "--kind", "pencil", "--n", "3", "--q", "2",
                 "--k", "1", "--point-id", "0", "--out", out]
            )
            == 0
        )
        cache = str(tmp_path / "cache")
        assert main(["verify", "--in", out, "--cache-dir", cache]) == 0
        stdout = capsys.readouterr().out
        assert "x = 1" in stdout

    def test_verify_fast_battery(self, tmp_path):
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", "2", "--k",
              "1", "--out", out])
        assert main(
            ["verify", "--in", out, "--battery", "fast",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0

    def test_verify_spreads_flag_removed(self, tmp_path):
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", "2", "--k",
              "1", "--out", out])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--in", out, "--spreads", "reduced"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "q,note", [(3, "pass (all 8424 spreads)"), (4, "sampled-pass (12 sampled spreads)")]
    )
    def test_verify_spread_source_follows_point_count(self, tmp_path, capsys, q, note):
        # PG(3,3) has 40 points, at the exhaustive cap; PG(3,4) has 85
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", str(q), "--k",
              "1", "--out", out])
        assert main(["verify", "--in", out, "--cache-dir", str(tmp_path / "c")]) == 0
        assert f"spread-intersections: {note}" in capsys.readouterr().out.splitlines()

    def test_verify_unusable_cache_dir_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(geometry(3, 1, 4), "_bundle", None)  # sample not yet built
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", "4", "--k",
              "1", "--out", out])
        (tmp_path / "notadir").write_text("")
        cache = str(tmp_path / "notadir" / "sub")
        capsys.readouterr()
        assert main(["verify", "--in", out, "--cache-dir", cache]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 20] Not a directory: {cache!r}\n"

    def test_verify_failure_exit_code(self, pg32, tmp_path):
        import random

        rng = random.Random(1)
        bad = family(pg32, rng.sample(range(35), 7))
        path = str(tmp_path / "bad.clkset")
        save_family(path, bad)
        assert main(
            ["verify", "--in", path, "--cache-dir", str(tmp_path / "c")]
        ) == 1

    @pytest.mark.parametrize("label,code", [("pencil", 0), ("scattered", 1)])
    def test_verify_json_timings(self, tmp_path, capsys, label, code):
        """The per-check seconds come last, in a `timings` key; every other
        key prints byte for byte as it did without it."""
        ctx = geometry(4, 1, 2)
        fam = point_pencil_family(ctx, 0) if label == "pencil" else family(ctx, range(0, 155, 5))
        path = str(tmp_path / "f.clkset")
        save_family(path, fam)
        argv = ["verify", "--in", path, "--format", "json", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == code
        out = capsys.readouterr().out
        head, _ = out.split(',\n  "timings": ')
        assert head + "\n}\n" == VERIFY_JSON_PG42[label]
        data = json.loads(out)
        assert list(data)[-1] == "timings"
        assert list(data["timings"]) == list(data["verdicts"])
        assert all(isinstance(t, float) and t >= 0 for t in data["timings"].values())

    def test_verify_plane_pencil_in_pg42(self, tmp_path, capsys):
        out = str(tmp_path / "p.clkset")
        main(["construct", "--kind", "pencil", "--n", "4", "--q", "2", "--k",
              "2", "--out", out])
        assert main(
            ["verify", "--in", out, "--format", "json",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        data = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert data["verdicts"]["switching-sets"] == "skipped"
        assert data["verdicts"]["disjointness-counts"] == "skipped"
        ctx = geometry(4, 2, 2)
        path = str(tmp_path / "junk.clkset")
        save_family(path, family(ctx, range(0, 155, 11)))
        assert main(["verify", "--in", path, "--cache-dir", str(tmp_path / "c")]) == 1

    def test_verify_malformed_exit_code(self, tmp_path):
        path = tmp_path / "junk.clkset"
        path.write_text("not a header\n")
        assert main(["verify", "--in", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--in", "{huge}", "--cache-dir", "{cache}"],
            ["search", "--n", "100000000", "--q", "2", "--k", "1", "--x", "1",
             "--cache-dir", "{cache}"],
            ["construct", "--kind", "pencil", "--n", "100000000", "--q", "2",
             "--k", "1", "--out", "{out}"],
        ],
    )
    def test_huge_n_refused_before_counting(self, tmp_path, capsys, argv):
        import time

        huge = tmp_path / "huge.clkset"
        huge.write_text("CLKSET v1\n100000000 2 1\n")
        out = str(tmp_path / "out.clkset")
        cache = tmp_path / "c"
        argv = [a.format(huge=huge, out=out, cache=cache) for a in argv]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeding the cap of 1000000" in capsys.readouterr().err
        assert not os.path.exists(out) and not cache.exists()

    def test_written_files_follow_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            out = str(tmp_path / "p.clkset")
            assert main(["construct", "--kind", "pencil", "--n", "3", "--q", "2",
                         "--k", "1", "--out", out]) == 0
            out_dir = tmp_path / "results"
            assert main(["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
                         "--out", str(out_dir), "--cache-dir", str(tmp_path / "c")]) == 0
        finally:
            os.umask(previous)
        written = [out] + [str(f) for f in out_dir.iterdir()]
        assert len(written) == 32
        assert {os.stat(f).st_mode & 0o777 for f in written} == {0o644}

    def test_construct_spread(self, tmp_path):
        out = str(tmp_path / "spread.clkset")
        assert (
            main(
                ["construct", "--kind", "spread", "--n", "3", "--q", "3",
                 "--k", "1", "--out", out]
            )
            == 0
        )
        fam = load_family(out)
        assert len(fam) == 10

    def test_construct_complement(self, tmp_path):
        base = str(tmp_path / "pencil.clkset")
        comp = str(tmp_path / "comp.clkset")
        main(["construct", "--kind", "pencil", "--n", "3", "--q", "2", "--k",
              "1", "--out", base])
        assert main(["construct", "--kind", "complement", "--in", base,
                     "--out", comp]) == 0
        assert len(load_family(comp)) == 35 - 7

    def test_construct_hyperplane(self, tmp_path):
        out = str(tmp_path / "hyp.clkset")
        assert main(
            ["construct", "--kind", "hyperplane", "--n", "3", "--q", "2",
             "--k", "1", "--hyperplane-id", "2", "--out", out]
        ) == 0
        assert len(load_family(out)) == 7

    def test_search_writes_families(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
             "--out", out_dir, "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        assert "30 families" in capsys.readouterr().out
        files = sorted(os.listdir(out_dir))
        assert files.count("summary.txt") == 1
        assert len([f for f in files if f.endswith(".clkset")]) == 30
        for name in files[:3]:
            if name.endswith(".clkset"):
                assert len(load_family(os.path.join(out_dir, name))) == 7

    def test_search_window_summary(self, tmp_path, capsys):
        out_dir = str(tmp_path / "win")
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--window", "0",
             "1", "--out", out_dir, "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        assert "0 families" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,stdout,summary,oracle",
        [
            (["--n", "4", "--window", "1", "2"], "0 families\n", WINDOW_PG42_1_2, False),
            (["--n", "3", "--window", "0", "3"], "150 families\n", WINDOW_PG32_0_3, False),
            (["--n", "3", "--x", "2", "--threads", "2"], "120 families\n", X_PG32_2_THREADS_2, True),
            (
                ["--n", "3", "--x", "2", "--threads", "2"],
                "120 families\n",
                X_PG32_2_THREADS_2_FAIL_FIRST,
                False,
            ),
        ],
    )
    def test_search_summary_bytes(
        self, tmp_path, capsys, monkeypatch, argv, stdout, summary, oracle
    ):
        """With oracle, the index-order engine searches each root prefix in
        this process, through a stand-in pool."""
        if oracle:
            import concurrent.futures

            import clkset.search

            class InProcessPool:
                def __init__(self, max_workers):
                    pass

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def map(self, fn, jobs):
                    return map(fn, jobs)

            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
            monkeypatch.setattr(clkset.search, "_PropagateEngine", IndexOrderEngine)
        out_dir = tmp_path / "out"
        code = main(
            ["search", "--q", "2", "--k", "1", *argv, "--out", str(out_dir),
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        assert capsys.readouterr().out == stdout
        assert (out_dir / "summary.txt").read_text() == summary

    def test_search_text_stdout_is_one_line(self, tmp_path, capsys):
        args = ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1"]
        assert main(args + ["--cache-dir", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().out == "30 families\n"

    def test_search_json_x(self, tmp_path, capsys):
        from clkset import search_all

        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
             "--format", "json", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        expected = search_all(geometry(3, 1, 2), 1)
        assert data["families"] == [list(f) for f in expected.families]
        assert data["reason"] is None
        for key in ("nodes", "forced", "leaves", "prunes"):
            assert data[key] == getattr(expected.stats, key)
        assert data["leaves"] == 30
        assert data["wall_seconds"] > 0

    def test_search_json_window(self, tmp_path, capsys):
        from clkset import nonexistence_window, search_all

        code = main(
            ["search", "--n", "4", "--q", "2", "--k", "1", "--window", "0", "1",
             "--format", "json", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        rows = nonexistence_window(geometry(4, 1, 2), 0, 1)
        assert data["window"] == ["0", "1"]
        assert data["total"] == 0
        assert [r["x"] for r in data["rows"]] == [str(r.x) for r in rows]
        assert [r["size"] for r in data["rows"]] == list(range(1, 15))
        for got, row in zip(data["rows"], rows):
            assert got["families"] == 0
            assert got["reason"] == row.reason
            assert got["within_bound"] == row.within_bound
            assert got["skew_exclusion"] == {
                "holds": row.skew_audit.holds,
                "lhs": str(row.skew_audit.lhs),
                "rhs": str(row.skew_audit.rhs),
            }
            # each row ends with its search's statistics
            stats = search_all(geometry(4, 1, 2), row.x).stats
            assert list(got)[-4:] == ["nodes", "forced", "leaves", "prunes"]
            for key in ("nodes", "forced", "leaves", "prunes"):
                assert got[key] == getattr(stats, key)

    def test_search_window_below_minus_one(self, tmp_path, capsys):
        code = main(
            ["search", "--n", "4", "--q", "2", "--k", "1", "--window", "-2", "0",
             "--format", "json", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["skew_exclusion"] is None for r in rows] == [True] * 15 + [False] * 14

    def test_search_disagreement_exit_code(self, tmp_path, capsys, monkeypatch):
        # a battery whose kernel check fails every family disagrees with the
        # other checks on each family the search found: exit 3, as verify
        from clkset.families import _CHECKS, CheckResult, Verdict

        monkeypatch.setitem(_CHECKS, "kernel", lambda cand, bundle: CheckResult(Verdict.FAIL))
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "internal disagreement between definition checks:"
        assert "  kernel: fail" in lines and "  rowspace: pass" in lines

    def test_search_refuses_zero_threads(self, capsys):
        assert main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1", "--threads", "0"]
        ) == 2
        assert "thread" in capsys.readouterr().err

    def test_search_refuses_large_geometry(self, capsys):
        assert main(
            ["search", "--n", "9", "--q", "5", "--k", "2", "--x", "1"]
        ) == 2
        assert "exceed" in capsys.readouterr().err

    def test_construct_requires_params(self, tmp_path, capsys):
        code = main(
            ["construct", "--kind", "pencil", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "requires --n --q --k" in capsys.readouterr().err

    def test_search_unusable_out_refused_before_search(self, tmp_path, capsys, monkeypatch):
        import clkset.cli

        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking the output directory")

        monkeypatch.setattr(clkset.cli, "search_all", no_search)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
             "--out", str(blocker / "sub"), "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["--window", "1", "1"], ["--window", "1", "16/15"], ["--x", "1", "--threads", "0"]],
    )
    def test_refused_search_leaves_no_out_dir(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "new" / "results"
        code = main(
            ["search", "--n", "4", "--q", "2", "--k", "1", *argv, "--out", str(out_dir),
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()

    def test_search_write_failure_exit_code(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        (out_dir / "family_0000.clkset").mkdir(parents=True)  # where a file goes
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
             "--out", str(out_dir), "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "30 families\n"
        assert captured.err.startswith("error: ")

    def test_construct_unwritable_out_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "f.clkset")
        code = main(
            ["construct", "--kind", "pencil", "--n", "3", "--q", "2", "--k", "1", "--out", out]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not os.path.exists(tmp_path / "missing")

    def test_search_refuses_empty_window(self, tmp_path, capsys):
        for lo, hi in (("2", "1"), ("1", "1")):
            code = main(
                ["search", "--n", "3", "--q", "2", "--k", "1", "--window", lo, hi,
                 "--cache-dir", str(tmp_path / "c")]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "empty window" in captured.err

    def test_search_refuses_window_without_parameter(self, tmp_path, capsys):
        # no s/7 lies strictly inside (1, 21/20): nothing would be searched
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--window", "1", "21/20",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no parameter s/7")

    def test_search_refuses_window_wider_than_the_family_sizes(self, tmp_path, capsys):
        code = main(
            ["search", "--n", "3", "--q", "2", "--k", "1", "--window", "0", "1000000000",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: window (0, 1000000000) holds 6999999999 parameters s/7, "
            "more than the 36 family sizes\n"
        )

    def test_search_x_and_window_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
                  "--window", "0", "1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--point-id", "-1"), ("--point-id", "15"), ("--hyperplane-id", "-2"),
         ("--hyperplane-id", "15")],
    )
    def test_construct_refuses_ids_out_of_range(self, tmp_path, capsys, flag, value):
        kind = "pencil" if flag == "--point-id" else "hyperplane"
        out = tmp_path / "f.clkset"
        code = main(
            ["construct", "--kind", kind, "--n", "3", "--q", "2", "--k", "1",
             flag, value, "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {value} out of range 0..14\n"
        assert not out.exists()

    def test_zero_rows_rejected(self, pg32):
        text = "CLKSET v1\n3 2 1\n0 0 0 0 0 0 0 0\n"
        with pytest.raises(CLKSETError):
            family_from_text(text, pg32)


class TestReadme:
    def test_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        """Every line of the README's CLI block, in order, exits 0."""
        import shlex

        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert len(commands) >= 10
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CLG_CACHE", raising=False)
        for argv in commands:
            assert argv[0] == "clkset"
            assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
        assert len([f for f in os.listdir("out") if f.endswith(".clkset")]) == 30
