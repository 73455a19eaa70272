"""Spans around the calls into each clkset layer, recorded from outside.

`Tracer.install()` replaces the public functions and methods listed in
`HOOKS` with wrappers that record one span per call: name, parent span, start
and end (perf_counter seconds) and counters read off the call's result.
Nothing under src/ changes; `uninstall()` puts the originals back.  Spans are
kept in memory and written as JSONL by the caller when the run ends.

Self time is a span's duration minus that of its child spans, so the self
times of every span under a root span, plus the root's own self time, add up
to the root's duration exactly.
"""

from __future__ import annotations

import os
import time


def _kspaces(args, result):
    return {"geometry.kspaces": len(args[0].kspaces)}


def _search(args, result):
    if not hasattr(result, "stats"):
        return None
    stats = result.stats
    counts = {
        "search.nodes": stats.nodes,
        "search.forced": stats.forced,
        "search.leaves": stats.leaves,
        "search.families": len(result.families),
    }
    for rule, value in stats.prunes.items():
        counts[f"search.prunes.{rule}"] = value
    return counts


def _battery(args, result):
    return {"families.batteries": 1}


def _cache_get(args, result):
    return {"io.cache_hits" if result is not None else "io.cache_misses": 1}


def _cache_put(args, result):
    cache, kind, params = args[0], args[1], args[2]
    return {"io.cache_bytes_written": os.path.getsize(cache._path(kind, params))}


# (module, owner attribute or None for the module itself, attribute, span
# name, counter).  A counter maps (args, result) to {name: value}; a name
# given as a string counts len(result).  Names imported into other modules
# are patched there too, so every call site is covered.
HOOKS = [
    ("geometry", "GeometryCtx", "__init__", "geometry.enumerate", _kspaces),
    ("geometry", "GeometryCtx", "subspaces_of_dim", "geometry.enumerate", None),
    ("geometry", "GeometryCtx", "relation_masks", "geometry.relations", None),
    ("geometry", "GeometryCtx", "enumerate_all_spreads", "geometry.spreads", "geometry.spreads"),
    ("geometry", "GeometryCtx", "permuted_spread_sample", "geometry.spreads", "geometry.spreads"),
    ("geometry", "GeometryCtx", "spreads_within", "geometry.sigma_spreads", None),
    ("geometry", "GeometryCtx", "sigma_spread_masks", "geometry.sigma_spreads", None),
    ("scheme", "SchemeBundle", "incidence_rref", "scheme.incidence_rref", None),
    ("scheme", "SchemeBundle", "kernel_int", "scheme.kernel", "scheme.kernel_vectors"),
    ("io", "DiskCache", "get", "io.cache_get", _cache_get),
    ("io", "DiskCache", "put", "io.cache_put", _cache_put),
    ("io", None, "load_family", "io.load_family", None),
    ("io", None, "family_from_text", "io.load_family", None),
    ("io", None, "save_family", "io.save_family", None),
    ("families", None, "run_battery", "families.battery", _battery),
    ("search", None, "search_all", "search.engine", _search),
    ("search", None, "nonexistence_window", "search.engine", None),
    ("cli", None, "main", "cli.overhead", None),
]

# Modules that import a hooked module-level function by name.
IMPORTERS = {
    "load_family": ("cli",),
    "save_family": ("cli",),
    "run_battery": ("cli", "search"),
    "search_all": ("cli",),
    "nonexistence_window": ("cli",),
}


class Tracer:
    def __init__(self):
        # each span: [name, parent index or -1, start, end, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, parent, time.perf_counter() if start is None else start, 0.0, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        self.spans[sid][3] = end
        return end - self.spans[sid][2]

    def wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if counter is not None:
                counts = {counter: len(result)} if isinstance(counter, str) else counter(args, result)
                tracer.spans[sid][4] = counts
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, target, attr: str, value, in_dict: bool) -> None:
        if in_dict:
            self._saved.append((target, attr, target[attr], True))
            target[attr] = value
        else:
            self._saved.append((target, attr, getattr(target, attr), False))
            setattr(target, attr, value)

    def install(self) -> None:
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {
            name: importlib.import_module(f"clkset.{name}")
            for name in ("geometry", "scheme", "io", "families", "search", "cli")
        }
        for mod, owner, attr, name, counter in HOOKS:
            target = mods[mod] if owner is None else getattr(mods[mod], owner)
            fn = target.__dict__[attr] if owner is not None else getattr(target, attr)
            wrapped = self.wrap(fn, name, counter)
            self._patch(target, attr, wrapped, False)
            importers = IMPORTERS.get(attr, ()) if owner is None else ()
            for other in importers:
                if getattr(mods[other], attr) is not fn:
                    raise RuntimeError(f"clkset.{other}.{attr} is not clkset.{mod}.{attr}")
                self._patch(mods[other], attr, wrapped, False)
        checks = mods["families"]._CHECKS
        for check in list(checks):
            self._patch(checks, check, self.wrap(checks[check], f"families.check.{check}", None), True)

    def uninstall(self) -> None:
        for target, attr, value, in_dict in reversed(self._saved):
            if in_dict:
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._saved.clear()


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[list]) -> tuple[list[float], list[int]]:
    """Per span: self time, and the index of its root span."""
    selfs = [s[3] - s[2] for s in spans]
    roots = []
    for i, s in enumerate(spans):
        parent = s[1]
        if parent >= 0:
            selfs[parent] -= s[3] - s[2]
            roots.append(roots[parent])
        else:
            roots.append(i)
    return selfs, roots


def summarize(spans: list[list]) -> dict[str, dict]:
    """Totals per root name ('setup', 'warm_setup', 'op'): layer self times
    (`<layer>_s`), counters, the roots' own self time (`untraced_s`), the
    inclusive time of batteries run under a search (`search.reverify_s`) and
    the number of roots (`roots`)."""
    selfs, roots = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        phase = out.setdefault(spans[roots[i]][0], {"roots": 0})
        if s[1] < 0:
            phase["roots"] += 1
            phase["untraced_s"] = phase.get("untraced_s", 0.0) + selfs[i]
            continue
        key = s[0] + "_s"
        phase[key] = phase.get(key, 0.0) + selfs[i]
        for name, value in (s[4] or {}).items():
            phase[name] = phase.get(name, 0) + value
        if s[0] == "families.battery" and spans[s[1]][0] == "search.engine":
            phase["search.reverify_s"] = phase.get("search.reverify_s", 0.0) + s[3] - s[2]
    return out
