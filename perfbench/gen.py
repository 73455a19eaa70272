"""Seeded inputs for the four workloads, and what the checker expects of them.

`generate(workload, seed, directory)` writes the CLKSET files a workload needs
into `directory` and returns two parallel lists: the operations handed to the
program (only file paths and parameters) and the expectations kept back for
the checker.  Every expectation is computed here with `pg`, never with clkset.
"""

from __future__ import annotations

import os
import random

from pg import Space

VERIFY_GEOMETRY = (5, 1, 2)  # (n, k, q): lines of PG(5,2)
CLASSIFY_GEOMETRIES = ((3, 1, 3), (4, 1, 2))
WINDOW_GEOMETRY = (4, 1, 2)
WINDOW = ("1", "2")
LADDER_GEOMETRIES = ((3, 1, 5), (5, 2, 2), (6, 1, 2))
LADDER_CHECKS = ("disjointness-counts", "kneser-eigenvector", "meet-distribution")

WORKLOADS = ("verify", "classify", "window", "ladder")

_SPACES: dict[tuple[int, int, int], Space] = {}


def space(n: int, k: int, q: int) -> Space:
    if (n, k, q) not in _SPACES:
        _SPACES[(n, k, q)] = Space(n, k, q)
    return _SPACES[(n, k, q)]


def _random_normal(sp: Space, rng: random.Random) -> tuple[int, ...]:
    return sp.points[rng.randrange(len(sp.points))]


def verify_mix(sp: Space, rng: random.Random) -> list[tuple[str, frozenset[int]]]:
    """Four members and two non-members of PG(n,q), in a fixed kind order."""
    total = len(sp.kspaces)
    pencil = sp.pencil(rng.randrange(len(sp.points)))
    hyper = sp.inside(sp.hyperplane_mask(_random_normal(sp, rng)))
    h2 = sp.hyperplane_mask(_random_normal(sp, rng))
    off = [i for i in range(len(sp.points)) if not (h2 >> i) & 1]
    union = sp.pencil(rng.choice(off)) | sp.inside(h2)
    base = rng.choice((pencil, hyper, union))
    comp = frozenset(range(total)) - base
    members = (pencil, hyper, union, comp)
    size = len(rng.choice(members))
    scattered = frozenset(rng.sample(range(total), size))
    source = rng.choice(members)
    drop = rng.choice(sorted(source))
    add = rng.choice([c for c in range(total) if c not in source])
    swapped = (source - {drop}) | {add}
    return [
        ("pencil", pencil),
        ("hyperplane", hyper),
        ("pencil+hyperplane", union),
        ("complement", comp),
        ("random", scattered),
        ("swapped", swapped),
    ]


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text)
    return path


def generate(workload: str, seed: int, directory: str) -> tuple[list, list]:
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    ops: list[dict] = []
    expected: list[dict] = []
    if workload == "verify":
        n, k, q = VERIFY_GEOMETRY
        sp = space(n, k, q)
        for idx, (name, fam) in enumerate(verify_mix(sp, rng)):
            path = _write(os.path.join(directory, f"{idx}_{name}.clkset"), sp.to_text(fam))
            ops.append({"kind": "verify", "file": path, "name": name})
            expected.append(
                {"geometry": (n, k, q), "size": len(fam), "member": sp.is_member(fam)}
            )
    elif workload == "classify":
        # one classification pass searches every geometry in turn
        parts = [
            {"kind": "search", "n": n, "k": k, "q": q, "x": "1"} for n, k, q in CLASSIFY_GEOMETRIES
        ]
        ops.append({"kind": "classify", "parts": parts})
        expected.append(
            {"parts": [{"geometry": g, "families": x1_families(*g)} for g in CLASSIFY_GEOMETRIES]}
        )
    elif workload == "window":
        n, k, q = WINDOW_GEOMETRY
        ops.append({"kind": "window", "n": n, "k": k, "q": q, "window": list(WINDOW)})
        expected.append({"geometry": (n, k, q), "families": 0})
    elif workload == "ladder":
        geoms, exp = [], []
        for n, k, q in LADDER_GEOMETRIES:
            sp = space(n, k, q)
            fams = [
                ("pencil", sp.pencil(rng.randrange(len(sp.points)))),
                ("hyperplane", sp.inside(sp.hyperplane_mask(_random_normal(sp, rng)))),
            ]
            size = len(fams[0][1])
            fams.append(("random", frozenset(rng.sample(range(len(sp.kspaces)), size))))
            files = [
                [name, _write(os.path.join(directory, f"{n}{k}{q}_{name}.clkset"), sp.to_text(f))]
                for name, f in fams
            ]
            geoms.append({"n": n, "k": k, "q": q, "files": files})
            exp.append(
                {
                    "geometry": (n, k, q),
                    "member": {name: sp.is_member(f) for name, f in fams},
                }
            )
        ops.append({"kind": "ladder", "geometries": geoms, "checks": list(LADDER_CHECKS)})
        expected.append({"geometries": exp})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, expected


def x1_families(n: int, k: int, q: int) -> dict[str, set[frozenset[int]]]:
    """The x = 1 line families the classification must return: every point
    pencil, and in PG(3,q) also the lines of every plane."""
    if k != 1:
        raise ValueError("only line classifications are expected here")
    sp = space(n, k, q)
    out = {"pencil": {sp.pencil(i) for i in range(len(sp.points))}}
    if n == 3:
        out["plane"] = {sp.inside(sp.hyperplane_mask(v)) for v in sp.points}
    return out
