"""Text file format for families, and the on-disk artifact cache.

CLKSET v1 layout:

    CLKSET v1
    n q k
    POLY c_0 ... c_e          (only for extension fields, e >= 2)
    <one k-space per line: (k+1)(n+1) field-element indices, row-major,
     of the canonical reduced-row-echelon basis>

Files always store canonical matrices and are written with members sorted by
id, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .families import CLCandidate
from .geometry import GeometryCtx, Subspace, geometry
from .qformulas import SchemeParams

HEADER = "CLKSET v1"
CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "CLG_CACHE"
DEFAULT_CACHE_DIRNAME = ".clg-cache"


class CLKSETError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def family_to_text(cand: CLCandidate) -> str:
    ctx = cand.ctx
    p = ctx.params
    lines = [HEADER, f"{p.n} {p.q} {p.k}"]
    if ctx.field.e >= 2:
        lines.append("POLY " + " ".join(str(c) for c in ctx.field.modulus))
    for c in cand.ids:
        flat = ctx.kspaces[c].flat()
        lines.append(" ".join(str(v) for v in flat))
    return "\n".join(lines) + "\n"


def parse_family_text(text: str) -> tuple[SchemeParams, tuple[int, ...] | None, list]:
    """Parse to (params, modulus-or-None, list of basis matrices)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise CLKSETError(f"expected header {HEADER!r}", line=1)
    if len(lines) < 2:
        raise CLKSETError("missing parameter line", line=2)
    try:
        n, q, k = (int(v) for v in lines[1].split())
    except ValueError as exc:
        raise CLKSETError(f"bad parameter line: {exc}", line=2) from None
    try:
        params = SchemeParams(n=n, k=k, q=q)
    except ValueError as exc:
        raise CLKSETError(str(exc), line=2) from None
    idx = 2
    modulus = None
    if idx < len(lines) and lines[idx].startswith("POLY"):
        try:
            modulus = tuple(int(v) for v in lines[idx].split()[1:])
        except ValueError as exc:
            raise CLKSETError(f"bad POLY line: {exc}", line=idx + 1) from None
        idx += 1
    matrices = []
    expected = (k + 1) * (n + 1)
    for line_no in range(idx, len(lines)):
        raw = lines[line_no].strip()
        if not raw:
            continue
        try:
            values = [int(v) for v in raw.split()]
        except ValueError as exc:
            raise CLKSETError(f"bad entry: {exc}", line=line_no + 1) from None
        if len(values) != expected:
            raise CLKSETError(
                f"expected {expected} entries, got {len(values)}", line=line_no + 1
            )
        if any(not 0 <= v < q for v in values):
            raise CLKSETError("field element index out of range", line=line_no + 1)
        rows = tuple(
            tuple(values[r * (n + 1) : (r + 1) * (n + 1)]) for r in range(k + 1)
        )
        matrices.append((line_no + 1, rows))
    return params, modulus, matrices


def family_from_text(text: str, ctx: GeometryCtx | None = None) -> CLCandidate:
    params, modulus, matrices = parse_family_text(text)
    if ctx is None:
        ctx = geometry(params.n, params.k, params.q)
    elif ctx.params != params:
        raise CLKSETError(
            f"file is for PG({params.n},{params.q}) k={params.k}, "
            f"context is PG({ctx.params.n},{ctx.params.q}) k={ctx.params.k}"
        )
    if ctx.field.e >= 2:
        if modulus is None:
            raise CLKSETError("extension field requires a POLY line")
        if tuple(modulus) != ctx.field.modulus:
            raise CLKSETError(
                f"modulus {modulus} is not the canonical modulus "
                f"{ctx.field.modulus} of GF({params.q})"
            )
    elif modulus is not None:
        raise CLKSETError("POLY line not allowed for prime fields")
    ids = []
    seen = set()
    for line_no, rows in matrices:
        if rows not in ctx.kspace_id:
            try:
                canonical = Subspace.from_vectors(rows, ctx.field, params.n).basis
            except ValueError:
                canonical = ()
            if len(canonical) == params.k + 1 and canonical in ctx.kspace_id:
                raise CLKSETError(
                    "matrix is not in canonical reduced-row-echelon form",
                    line=line_no,
                )
            raise CLKSETError("rows do not span a k-space", line=line_no)
        c = ctx.kspace_id[rows]
        if c in seen:
            raise CLKSETError(f"duplicate k-space (id {c})", line=line_no)
        seen.add(c)
        ids.append(c)
    return CLCandidate(ctx, ids)


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".clkset-tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0600 -> what open(path, "w") gives
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_family(path: str, cand: CLCandidate) -> None:
    atomic_write(path, family_to_text(cand))


def load_family(path: str, ctx: GeometryCtx | None = None) -> CLCandidate:
    with open(path, "r") as handle:
        return family_from_text(handle.read(), ctx)


def resolve_cache_dir(flag_value: str | None) -> str:
    """Precedence: explicit flag, then $CLG_CACHE, then ./.clg-cache."""
    if flag_value:
        return flag_value
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    return DEFAULT_CACHE_DIRNAME


class DiskCache:
    """Checksummed JSON artifact cache keyed by (kind, n, q, k, version)."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, kind: str, params: SchemeParams) -> str:
        name = (
            f"{kind}_n{params.n}_q{params.q}_k{params.k}"
            f"_v{CACHE_FORMAT_VERSION}.json"
        )
        return os.path.join(self.directory, name)

    @staticmethod
    def _checksum(payload) -> str:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def get(self, kind: str, params: SchemeParams):
        path = self._path(kind, params)
        try:
            with open(path, "r") as handle:
                wrapper = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if wrapper.get("version") != CACHE_FORMAT_VERSION:
            return None
        payload = wrapper.get("payload")
        if wrapper.get("sha256") != self._checksum(payload):
            return None  # corrupt entry: treat as missing, caller rebuilds
        return payload

    def put(self, kind: str, params: SchemeParams, payload) -> None:
        os.makedirs(self.directory, exist_ok=True)
        wrapper = {
            "version": CACHE_FORMAT_VERSION,
            "kind": kind,
            "params": [params.n, params.q, params.k],
            "payload": payload,
            "sha256": self._checksum(payload),
        }
        atomic_write(self._path(kind, params), json.dumps(wrapper))
