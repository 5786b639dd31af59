"""Materialise the full nonzero solution set and the zero-coordinate loci.

Enumeration solves the surface equation as a quadratic in x3 for each
(x1, x2), which is O(p^2) with table lookups.  The independent oracle
count_solutions_bruteforce evaluates the residual over the whole p^3
grid instead and shares no logic with the closed-form count.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import sqrt_mod
from .surface import SurfaceParams, Triple, residual, residual_array

DEFAULT_MAX_PRIME = 20_000  # ~4e8 candidate cells; beyond this pass allow_large=True


class ResourceGuardError(ValueError):
    """Raised when a request exceeds a size guard that the caller may override."""


def pack_keys(p: int, pts: np.ndarray) -> np.ndarray:
    """Injective int64 key (x1*p + x2)*p + x3 per point row."""
    return (pts[:, 0] * p + pts[:, 1]) * p + pts[:, 2]


@dataclass
class SolutionSet:
    """All nonzero solutions for one parameter set, lexicographically sorted."""

    params: SurfaceParams
    points: np.ndarray                      # (M, 3) int64, lex sorted
    keys: np.ndarray = dc_field(repr=False, default=None)  # packed, sorted
    includes_origin: bool = False

    def __post_init__(self):
        if self.keys is None:
            self.keys = pack_keys(self.params.p, self.points)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def index_of(self, x: Triple) -> int:
        key = (x[0] * self.params.p + x[1]) * self.params.p + x[2]
        pos = int(np.searchsorted(self.keys, key))
        if pos >= len(self.keys) or self.keys[pos] != key:
            raise KeyError(f"{x} is not in the solution set")
        return pos

    def lookup_array(self, pts: np.ndarray) -> np.ndarray:
        """Indices of an (M, 3) array of points known to lie in the set."""
        keys = pack_keys(self.params.p, pts)
        pos = np.searchsorted(self.keys, keys)
        if np.any(pos >= len(self.keys)) or np.any(self.keys[pos] != keys):
            raise KeyError("some points are not in the solution set")
        return pos

    def __contains__(self, x) -> bool:
        try:
            self.index_of(tuple(x))
            return True
        except KeyError:
            return False

    def triple(self, idx: int) -> Triple:
        return tuple(int(v) for v in self.points[idx])

    def iter_triples(self):
        for row in self.points:
            yield (int(row[0]), int(row[1]), int(row[2]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        for x1, x2, x3 in self.iter_triples():
            buf.write(f"{x1},{x2},{x3}\n")
        return buf.getvalue()


def enumerate_solutions(params: SurfaceParams, allow_large: bool = False) -> SolutionSet:
    """All x != (0,0,0) with residual zero, as a sorted SolutionSet."""
    p = params.p
    if p > DEFAULT_MAX_PRIME and not allow_large:
        raise ResourceGuardError(
            f"p = {p} exceeds the enumeration guard {DEFAULT_MAX_PRIME}; "
            "pass allow_large=True to override")
    if p == 2:
        return _enumerate_tiny(params)

    a1, a2, a3 = params.a
    fld = params.field
    x1 = np.arange(p, dtype=np.int64)[:, None]
    x2 = np.arange(p, dtype=np.int64)[None, :]
    x1x2 = x1 * x2 % p
    # quadratic in x3: x3^2 + b*x3 + c = 0
    b = (a1 * x2 + a2 * x1 - params.s * x1x2) % p
    c = (x1 * x1 + x2 * x2 + a3 * x1x2) % p
    disc = (b * b - 4 * c) % p
    ch = fld.chi_table[disc]
    root = fld.sqrt_table[disc]
    inv2 = pow(2, -1, p)

    one_mask = ch >= 0
    two_mask = ch == 1
    x1g = np.broadcast_to(x1, (p, p))
    x2g = np.broadcast_to(x2, (p, p))
    first = np.empty((int(one_mask.sum()), 3), dtype=np.int64)
    first[:, 0] = x1g[one_mask]
    first[:, 1] = x2g[one_mask]
    first[:, 2] = (p - b[one_mask] + root[one_mask]) * inv2 % p
    second = np.empty((int(two_mask.sum()), 3), dtype=np.int64)
    second[:, 0] = x1g[two_mask]
    second[:, 1] = x2g[two_mask]
    second[:, 2] = (2 * p - b[two_mask] - root[two_mask]) * inv2 % p

    pts = np.concatenate([first, second], axis=0)
    keys = pack_keys(p, pts)
    keys, order = np.unique(keys, return_index=True)
    pts = pts[order]
    if len(keys) and keys[0] == 0:  # drop the origin
        keys = keys[1:]
        pts = pts[1:]
    return SolutionSet(params, pts, keys)


def _enumerate_tiny(params: SurfaceParams) -> SolutionSet:
    # p = 2: no quadratic character; scan all 8 triples
    p = params.p
    pts = [(x1, x2, x3)
           for x1 in range(p) for x2 in range(p) for x3 in range(p)
           if (x1, x2, x3) != (0, 0, 0) and residual(params, (x1, x2, x3)) == 0]
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), 3)
    return SolutionSet(params, arr)


def count_solutions_bruteforce(params: SurfaceParams, chunk: int | None = None) -> int:
    """Number of nonzero solutions by evaluating the residual on the p^3 grid."""
    p = params.p
    if chunk is None:
        chunk = max(1, 2 ** 22 // (p * p))  # keep each slab around 32 MB
    x2 = np.arange(p, dtype=np.int64)[:, None]
    x3 = np.arange(p, dtype=np.int64)[None, :]
    total = 0
    for start in range(0, p, chunk):
        x1 = np.arange(start, min(start + chunk, p), dtype=np.int64)[:, None, None]
        r = residual_array(params, (x1, x2[None, :, :], x3[None, :, :]))
        total += int(np.count_nonzero(r == 0))
    return total - 1  # discount the origin


@dataclass
class ZeroLocus:
    """The nonzero solutions with x_i = 0: a pair of lines x_{i+1} = r * x_{i-1}."""

    i: int
    roots: tuple[int, ...]   # solutions of r^2 + a_i*r + 1 = 0 in F_p (may be empty)
    points: list[Triple]

    def __len__(self):
        return len(self.points)


def exchange_roots(params: SurfaceParams, i: int) -> tuple[int, ...]:
    """Roots of r^2 + a_i*r + 1 = 0 in F_p; empty tuple when chi(a_i^2-4) = -1."""
    p = params.p
    ai = params.a[i]
    roots = sqrt_mod((ai * ai - 4) % p, p)
    if roots is None:
        return ()
    inv2 = pow(2, -1, p)
    vals = sorted({(-ai + r) * inv2 % p for r in roots} | {(-ai - r) * inv2 % p for r in roots})
    return tuple(vals)


def zero_locus(params: SurfaceParams, i: int) -> ZeroLocus:
    p = params.p
    roots = exchange_roots(params, i)
    pts: list[Triple] = []
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    for r in roots:
        for c in range(1, p):
            x = [0, 0, 0]
            x[im1] = c
            x[ip1] = r * c % p
            pts.append(tuple(x))
    pts = sorted(set(pts))
    return ZeroLocus(i, roots, pts)
