"""Materialise the full nonzero solution set and count it by brute force.

Enumeration solves the surface equation as a quadratic in x3 for each
cell (x1, x2), which is O(p^2) with table lookups.  A cell holds 0, 1 or
2 solutions, so the set is stored cell by cell: points are written in
cell order with the smaller root first, which is lexicographic order,
and an offsets array of length p^2 + 1 marks where each cell starts; no
sort and no packed keys are needed.  A point is at its cell's first row
or the next one; only orbits.neighbor_indices looks a row up that way.

The points and the offsets are int32, so p^2 + 1 cells and M points
must fit in int32; _require_int32 refuses larger sizes before anything
is allocated.  Orbit ids are kept per cell and the Delta values are a
formula, so neither is a per-point array.  No stage holds a full-size
int64 temporary.  Every walk of the p^2 cells runs through the x1 slabs of
cell_slabs, about BLOCK cells each, and the per-point stages read the
points through SolutionSet.blocks, BLOCK rows at a time.  A block is
an int32 view of the points while 3 p^2 + p < 2^31 (p <= 26737), the
bound below which every per-point formula stays exact in int32, and
an int64 copy above it.

Along a row x1 of the cell grid the residual's coefficients are
b = b0 + b1*x2 and c = x2^2 + c1*x2 + c0, so the discriminant b^2 - 4c
is a quadratic in x2 with three coefficients per row, read from
x3_coefficients at x2 = 0 and 1.  Enumeration evaluates it in int32
over the slab and solves for x3 only on the cells that hold a root,
into the (3, M) points allocated before the walk (12 bytes a point, 4 a
cell, no copy).  Its only checks are the int32 bounds and that the walk
meets the closed-form M exactly where M is defined.

The independent oracle count_solutions_bruteforce counts the x3 roots of
every cell exhaustively and shares no logic with the closed-form count:
no quadratic character, no square root and no conics.  The residual is
the monic quadratic x3^2 + b*x3 + c in x3, with (b, c) from
x3_coefficients (the residual's own coefficients, which enumeration
reads too), so the roots of a cell are an entry of a table indexed by
(b, c) that depends only on p.  _root_table fills it from the p^2
values x3 * (x3 + b), and the oracle sums it over the p^2 cells: O(p^2)
time and a p^2-byte table, int8 being exact because a quadratic has at
most 2 roots.  The table of the last prime is kept, read-only, since a
sweep counts many parameter sets at one prime in a row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import mod_p
from .surface import SurfaceParams, Triple, residual, x3_coefficients

# ~4e8 enumeration cells, overridable with allow_large=True; it also caps
# the brute-force oracle's p^2-byte root table, with no override
DEFAULT_MAX_PRIME = 20_000
INT32_MAX = 2 ** 31 - 1
# cells per enumeration block and rows per SolutionSet.blocks block: each
# int32 temporary of a block is about 0.25 MB, each int64 one 0.5 MB
BLOCK = 2 ** 16


class ResourceGuardError(ValueError):
    """Raised when a request exceeds a size guard."""


class CertificateError(Exception):
    """A certificate check failed: the set is incomplete, or an identity broke."""


def row_blocks(m: int):
    """Consecutive slices of up to BLOCK rows covering range(m)."""
    for start in range(0, m, BLOCK):
        yield slice(start, min(start + BLOCK, m))


def cell_slabs(p: int):
    """(start, stop) ranges of x1 rows covering range(p), about BLOCK cells each."""
    step = max(1, BLOCK // p)
    for start in range(0, p, step):
        yield start, min(start + step, p)


def _require_int32(p: int, m: int = 0) -> None:
    """Refuse p unless the p^2 + 1 cell offsets and m points fit in int32.

    Arithmetic only: enumerate_solutions calls it before allocating
    anything, then with the running point count before each slab is
    written.  The largest prime with p^2 + 1 < 2^31 is 46337.
    """
    if p * p + 1 > INT32_MAX:
        raise ResourceGuardError(
            f"p = {p}: the {p * p + 1} cell offsets exceed the int32 bound {INT32_MAX}")
    if m > INT32_MAX:
        raise ResourceGuardError(f"p = {p}: {m} points exceed the int32 bound {INT32_MAX}")


@dataclass
class SolutionSet:
    """All nonzero solutions for one parameter set, stored by cell (x1, x2).

    points is the (M, 3) int32 array in lexicographic order, stored
    so that each coordinate column is contiguous: gathers from a column
    then run at full speed.  The rows
    offsets[c] .. offsets[c+1] - 1 are the 0, 1 or 2 points of cell
    c = x1*p + x2, smaller x3 first; cell (0, 0) is empty because its
    only solution is the origin.  offsets[-1] == M.  Both arrays are
    int32, which bounds p^2 + 1 and M by 2^31 - 1 (p <= 46337);
    enumerate_solutions checks both before it allocates.
    """

    params: SurfaceParams
    points: np.ndarray                      # (M, 3) int32, lex sorted, columns contiguous
    offsets: np.ndarray                     # (p*p + 1,) int32, cumsum of cell counts

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def blocks(self):
        """Yield (rows, x) for each slice of row_blocks(M).

        x is the (3, len) array of the rows' coordinate columns x[0],
        x[1], x[2].  While 3 p^2 + p < 2^31 (p <= 26737) it is a
        read-only int32 view of points: moved_coordinate,
        x3_coefficients, residual_array, delta._delta_ends (its closed
        and plane forms) and the obstruction identities keep every
        intermediate below that bound on coordinates in [0, p).  Above
        it x is an int64 copy, so no block consumer overflows at any
        admitted p.
        """
        p = self.params.p
        wide = 3 * p * p + p > INT32_MAX
        for rows in row_blocks(len(self)):
            x = self.points[rows].T
            if wide:
                x = x.astype(np.int64, order="C")
            else:
                x.flags.writeable = False
            yield rows, x

    def triple(self, idx: int) -> Triple:
        return tuple(int(v) for v in self.points[idx])

    def iter_triples(self):
        for row in self.points:
            yield (int(row[0]), int(row[1]), int(row[2]))

    def write_csv(self, out) -> None:
        """Write one "x1,x2,x3" line per point to the text stream out.

        The lines are written one block of rows at a time, so no string
        for the whole set is ever built.
        """
        for rows in row_blocks(len(self)):
            block = self.points[rows]
            out.write(("%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))


def _row_coefficients(params: SurfaceParams, x1: np.ndarray):
    """(b0, b1, c0, c1) with b = b0 + b1*x2 and c = x2^2 + c1*x2 + c0 (mod p).

    (b, c) are x3_coefficients on the cells (x1, x2) of each row of the
    int64 column x1, which are linear and monic quadratic in x2; the
    four per-row coefficients are read from x3_coefficients at x2 = 0
    and 1, so no second formula for the residual exists.  b0 and c0 lie
    in [0, p), b1 in (-p, p) and c1 in [-p, p).
    """
    b, c = x3_coefficients(params, x1, np.arange(2))
    b0, c0 = b[:, 0], c[:, 0]
    return b0, b[:, 1] - b0, c0, c[:, 1] - c0 - 1


def enumerate_solutions(params: SurfaceParams, allow_large: bool = False) -> SolutionSet:
    """All x != (0,0,0) with residual zero, as a cell-indexed SolutionSet.

    p above DEFAULT_MAX_PRIME needs allow_large=True.  With or without
    it, p^2 + 1 and M must fit in int32 (p <= 46337); _require_int32
    raises ResourceGuardError otherwise, before any array is allocated.
    The (3, M) points are allocated once, M = closed_form_total where it
    is defined (s != 0, p >= 5), else the bound 2 p^2, whose pages past
    the set are never touched and of which the points are a view.  Each
    slab of cell_slabs(p) solves for x3 on its cells with a root (see
    _row_coefficients) and writes their offsets, and their points at
    the running count.  A walk that would pass M, or one of s != 0 that
    ends below it, raises CertificateError naming both counts.
    """
    p = params.p
    if p > DEFAULT_MAX_PRIME and not allow_large:
        raise ResourceGuardError(
            f"p = {p} exceeds the enumeration guard {DEFAULT_MAX_PRIME}; "
            "pass allow_large=True to override")
    _require_int32(p)
    if p == 2:
        return _enumerate_tiny(params)

    if params.s != 0 and p >= 5:  # the walk must fill closed_form_total's M exactly
        from .conics import closed_form_total  # conics imports the guards from this module
        size, exact = closed_form_total(params), True
    else:  # at most two roots a cell, capped where _require_int32 refuses anyway
        size, exact = min(2 * p * p, INT32_MAX), False
    fld = params.field
    inv2 = pow(2, -1, p)
    x2 = np.arange(p, dtype=np.int32)
    n_roots = fld.chi_table + 1  # a discriminant d gives 1 + chi(d) roots
    # sqrt(d)/2, zero only at d = 0; the entries of non-residues are never read
    half_root = (fld.sqrt_table * inv2 % p).astype(np.int32)
    points = np.empty((3, size), dtype=np.int32)
    offsets = np.zeros(p * p + 1, dtype=np.int32)
    m = 0
    for start, stop in cell_slabs(p):
        b0, b1, c0, c1 = _row_coefficients(params, np.arange(start, stop, dtype=np.int64)[:, None])
        # b^2 - 4c = d2*x2^2 + d1*x2 + d0 on each row; the Horner passes
        # stay below p^2 < 2^31, so int32 is exact for every p <= 46337
        d2, d1, d0 = ((v % p).astype(np.int32)[:, None]
                      for v in (b1 * b1 - 4, 2 * b0 * b1 - 4 * c1, b0 * b0 - 4 * c0))
        disc = mod_p(mod_p(d2 * x2 + d1, p) * x2 + d0, p)
        count = np.take(n_roots, disc)
        if start == 0:
            count[0, 0] = 0  # cell (0, 0) holds only the origin
        counts = np.cumsum(count, dtype=np.int32)
        n = int(counts[-1])
        _require_int32(p, m + n)
        # the walk never passes 2 p^2, nor _require_int32 its cap: only an exact M is missed
        if m + n > size or exact and stop == p and m + n < size:
            raise CertificateError(f"enumeration finds {m + n} points up to x1 = {stop - 1}, "
                                   f"but the surface has {size} nonzero points")
        np.add(counts, m, out=offsets[start * p + 1:stop * p + 1])
        # x3 = -b/2 +- sqrt(disc)/2, solved only on the cells with a root;
        # -b/2 is linear in x2 like b
        cells = np.flatnonzero(count > 0)
        row = cells // p
        x1k = (row + start).astype(np.int32)
        x2k = (cells - row * p).astype(np.int32)
        half_b = mod_p(np.take((-b0 * inv2 % p).astype(np.int32), row)
                       + np.take((-b1 * inv2 % p).astype(np.int32), row) * x2k, p)
        e = np.take(half_root, np.take(disc, cells))
        r1, r2 = mod_p(half_b + e, p), mod_p(half_b - e, p)
        # each cell's points in order: the smaller root, then the larger
        # one where disc != 0; ascending is lexicographic
        pick = np.empty((len(cells), 2), dtype=bool)
        pick[:, 0] = True
        np.not_equal(e, 0, out=pick[:, 1])
        roots = np.empty((len(cells), 2), dtype=np.int32)
        np.minimum(r1, r2, out=roots[:, 0])
        np.maximum(r1, r2, out=roots[:, 1])
        points[0, m:m + n] = np.repeat(x1k, 1 + pick[:, 1])
        points[1, m:m + n] = np.repeat(x2k, 1 + pick[:, 1])
        points[2, m:m + n] = roots[pick]
        m += n
    return SolutionSet(params, points[:, :m].T, offsets)


def _enumerate_tiny(params: SurfaceParams) -> SolutionSet:
    # p = 2: no quadratic character; scan all 8 triples
    p = params.p
    pts = [(x1, x2, x3)
           for x1 in range(p) for x2 in range(p) for x3 in range(p)
           if (x1, x2, x3) != (0, 0, 0) and residual(params, (x1, x2, x3)) == 0]
    arr = np.asfortranarray(np.array(pts, dtype=np.int32).reshape(len(pts), 3))
    counts = np.bincount(arr[:, 0] * p + arr[:, 1], minlength=p * p)
    return SolutionSet(params, arr, np.append(0, np.cumsum(counts)).astype(np.int32))


@functools.lru_cache(maxsize=1)
def _root_table(p: int) -> np.ndarray:
    """Flat read-only int8 table: entry b*p + c is #{x3 in F_p : x3^2 + b*x3 + c = 0}.

    Each pair (b, x3) is a root for exactly one c, c = -x3 * (x3 + b)
    mod p, so one np.bincount per slab of cell_slabs(p), read as a range
    of b rows, fills the table from the p^2 values of x3 * (x3 + b).  A
    monic quadratic has at most 2 roots, so int8 is exact and the table
    takes p^2 bytes.  The slabs are int32, exact while 2 p^2 < 2^31.
    The table depends on p alone, and sweep runs its parameter sets
    sorted by p, so the last prime's table is cached (p^2 bytes kept).
    """
    table = np.empty(p * p, dtype=np.int8)
    x3 = np.arange(p, dtype=np.int32)
    for start, stop in cell_slabs(p):
        b = np.arange(start, stop, dtype=np.int32)[:, None]
        cell = -x3 * (x3 + b) % p + (b - start) * p
        table[start * p:stop * p] = np.bincount(cell.ravel(), minlength=(stop - start) * p)
    table.flags.writeable = False
    return table


def count_solutions_bruteforce(params: SurfaceParams) -> int:
    """Number of nonzero solutions, counted exhaustively cell by cell.

    The residual is x3^2 + b*x3 + c with (b, c) = x3_coefficients on the
    cell (x1, x2), so the cell holds _root_table(p)[b*p + c] solutions.
    The count sums that over all p^2 cells, slab by slab of
    cell_slabs(p), and drops the origin: O(p^2) time and a
    p^2-byte int8 table, exact because a quadratic has at most 2 roots.
    The table of the last prime counted is reused (_root_table keeps
    it), and nothing else is cached.  The slabs are int32:
    x3_coefficients keeps its intermediates below 3 p^2, and the guard
    at DEFAULT_MAX_PRIME, which has no override, keeps 3 p^2 < 2^31 and
    the table under 4e8 bytes.
    """
    p = params.p
    if p > DEFAULT_MAX_PRIME:
        raise ResourceGuardError(
            f"p = {p} exceeds the brute-force guard {DEFAULT_MAX_PRIME} "
            f"({p}^2-byte root table)")
    roots = _root_table(p)
    x2 = np.arange(p, dtype=np.int32)
    total = 0
    for start, stop in cell_slabs(p):
        x1 = np.arange(start, stop, dtype=np.int32)[:, None]
        b, c = x3_coefficients(params, x1, x2)
        total += int(np.take(roots, b * p + c).sum(dtype=np.int64))
    return total - 1  # discount the origin

