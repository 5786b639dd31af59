"""Materialise the full nonzero solution set and the zero-coordinate loci.

Enumeration solves the surface equation as a quadratic in x3 for each
cell (x1, x2), which is O(p^2) with table lookups.  A cell holds 0, 1 or
2 solutions, so the set is stored cell by cell: points are written in
cell order with the smaller root first, which is lexicographic order,
and an offsets array of length p^2 + 1 marks where each cell starts.  A
point is then found in O(1) from its cell and whether its x3 is the
cell's first root; no sort and no packed keys are needed.  The
independent oracle count_solutions_bruteforce evaluates the residual
over the whole p^3 grid instead and shares no logic with the closed-form
count.  It calls residual_array on int32 axes, slab by slab of x1 rows;
residual_array's Horner form ((x3 + b) * x3 + c) % p computes b and c
once per (x1, x2) cell and keeps every intermediate below 3 p^2, which
int32 holds exactly for every p up to DEFAULT_MAX_PRIME.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .field import sqrt_mod
from .surface import SurfaceParams, Triple, residual, residual_array

# ~4e8 enumeration cells, overridable with allow_large=True; it also caps
# the int32 brute-force oracle, with no override
DEFAULT_MAX_PRIME = 20_000


class ResourceGuardError(ValueError):
    """Raised when a request exceeds a size guard."""


@dataclass
class SolutionSet:
    """All nonzero solutions for one parameter set, stored by cell (x1, x2).

    points is the (M, 3) int64 array in lexicographic order.  The rows
    offsets[c] .. offsets[c+1] - 1 are the 0, 1 or 2 points of cell
    c = x1*p + x2, smaller x3 first; cell (0, 0) is empty because its
    only solution is the origin.  offsets[-1] == M.
    """

    params: SurfaceParams
    points: np.ndarray                      # (M, 3) int64, lex sorted
    offsets: np.ndarray                     # (p*p + 1,) int64, cumsum of cell counts

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def index_of(self, x: Triple) -> int:
        return int(self.lookup_array([np.array([v], dtype=np.int64) for v in x])[0])

    def lookup_array(self, x) -> np.ndarray:
        """Row indices of points given as coordinate arrays x[0..2].

        Pass ``pts.T`` for an (N, 3) point array.  Raises KeyError if a
        point is not in the set.
        """
        p, m = self.params.p, len(self)
        x1, x2, x3 = x[0], x[1], x[2]
        if len(x3) == 0:
            return np.empty(0, dtype=np.int64)
        if m == 0 or min(v.min() for v in (x1, x2, x3)) < 0 \
                or max(v.max() for v in (x1, x2, x3)) >= p:
            raise KeyError("some points are not in the solution set")
        cell = x1 * p + x2
        start = np.take(self.offsets, cell)
        col3 = self.points[:, 2]
        # an empty cell may start at m; mode="clip" keeps each gather in [0, m)
        rows = start + (x3 != np.take(col3, start, mode="clip"))
        found = (rows < np.take(self.offsets, cell + 1)) & (np.take(col3, rows, mode="clip") == x3)
        if not bool(found.all()):
            k = int(np.flatnonzero(~found)[0])
            raise KeyError(f"{(int(x1[k]), int(x2[k]), int(x3[k]))} is not in the solution set")
        return rows

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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start row of every cell, plus the total M at the end."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _from_cells(params: SurfaceParams, counts: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> SolutionSet:
    """Lay out a SolutionSet from per-cell counts (p*p,) and roots lo <= hi."""
    p = params.p
    counts[0] = 0  # cell (0, 0) holds only the origin
    offsets = _offsets(counts)
    pts = np.empty((int(offsets[-1]), 3), dtype=np.int64)
    occupied = np.flatnonzero(counts)
    first = offsets[occupied]
    pts[first, 0], pts[first, 1] = np.divmod(occupied, p)
    pts[first, 2] = lo[occupied]
    double = np.flatnonzero(counts == 2)
    second = offsets[double] + 1
    pts[second, 0], pts[second, 1] = np.divmod(double, p)
    pts[second, 2] = hi[double]
    return SolutionSet(params, pts, offsets)


def enumerate_solutions(params: SurfaceParams, allow_large: bool = False) -> SolutionSet:
    """All x != (0,0,0) with residual zero, as a cell-indexed SolutionSet."""
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
    counts = (fld.chi_table[disc] + 1).ravel()
    root = fld.sqrt_table[disc]
    inv2 = pow(2, -1, p)
    r1 = ((p - b + root) * inv2 % p).ravel()
    r2 = ((2 * p - b - root) * inv2 % p).ravel()
    return _from_cells(params, counts, np.minimum(r1, r2), np.maximum(r1, r2))


def _enumerate_tiny(params: SurfaceParams) -> SolutionSet:
    # p = 2: no quadratic character; scan all 8 triples
    p = params.p
    pts = [(x1, x2, x3)
           for x1 in range(p) for x2 in range(p) for x3 in range(p)
           if (x1, x2, x3) != (0, 0, 0) and residual(params, (x1, x2, x3)) == 0]
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), 3)
    counts = np.bincount(arr[:, 0] * p + arr[:, 1], minlength=p * p)
    return SolutionSet(params, arr, _offsets(counts))


def count_solutions_bruteforce(params: SurfaceParams, chunk: int | None = None) -> int:
    """Number of nonzero solutions by evaluating the residual on the p^3 grid.

    The axes are int32.  residual_array keeps every intermediate below
    3 p^2, and the guard at DEFAULT_MAX_PRIME keeps 3 p^2 < 2^31, so int32
    is exact for every admitted prime; the guard has no override and there
    is no int64 path.  Each slab of chunk x1 rows holds the (chunk, p, 1)
    coefficients b and c and one (chunk, p, p) int32 grid.
    """
    p = params.p
    if p > DEFAULT_MAX_PRIME:
        raise ResourceGuardError(
            f"p = {p} exceeds the brute-force guard {DEFAULT_MAX_PRIME} "
            f"({p}^3 grid cells)")
    if chunk is None:
        chunk = max(1, 2 ** 20 // (p * p))  # keep each int32 slab around 4 MB
    x2 = np.arange(p, dtype=np.int32)[None, :, None]
    x3 = np.arange(p, dtype=np.int32)[None, None, :]
    total = 0
    for start in range(0, p, chunk):
        x1 = np.arange(start, min(start + chunk, p), dtype=np.int32)[:, None, None]
        total += int(np.count_nonzero(residual_array(params, (x1, x2, x3)) == 0))
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
