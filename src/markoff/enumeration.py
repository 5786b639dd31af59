"""Materialise the full nonzero solution set and count it by brute force.

Enumeration solves the surface equation as a quadratic in x3 for each
cell (x1, x2), which is O(p^2) with table lookups.  A cell holds 0, 1 or
2 solutions, so the set is stored cell by cell: points are written in
cell order with the smaller root first, which is lexicographic order,
and an offsets array of length p^2 + 1 marks where each cell starts.  A
point is then found in O(1) from its cell and whether its x3 is the
cell's first root; no sort and no packed keys are needed.

The points, the offsets and every per-point array built from them
(move neighbours, component ids, Delta values) are int32, so p^2 + 1
cells and M points must fit in int32; _require_int32 refuses larger
sizes before anything is allocated.  No stage holds a full-size int64
temporary.  Enumeration runs through blocks of x1 rows of about BLOCK
cells, and the per-point stages read the points through
SolutionSet.blocks, BLOCK rows at a time; inside a block the arithmetic
is int64, far from overflow for any admitted p.

The independent oracle count_solutions_bruteforce counts the x3 roots of
every cell exhaustively and shares no logic with the closed-form count:
no quadratic character, no square root and no conics.  The residual is
the monic quadratic x3^2 + b*x3 + c in x3, with (b, c) from
x3_coefficients (the residual's own coefficients, which enumeration
reads too), so the roots of a cell are an entry of a table indexed by
(b, c) that depends only on p.  _root_table fills it from the p^2
values x3 * (x3 + b), and the oracle sums it over the p^2 cells: O(p^2)
time and a p^2-byte table, int8 being exact because a quadratic has at
most 2 roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import SurfaceParams, Triple, residual, x3_coefficients

# ~4e8 enumeration cells, overridable with allow_large=True; it also caps
# the brute-force oracle's p^2-byte root table, with no override
DEFAULT_MAX_PRIME = 20_000
INT32_MAX = 2 ** 31 - 1
# cells per enumeration block and rows per SolutionSet.blocks block: each
# int64 temporary of a block is about 0.5 MB
BLOCK = 2 ** 16


class ResourceGuardError(ValueError):
    """Raised when a request exceeds a size guard."""


def row_blocks(m: int):
    """Consecutive slices of up to BLOCK rows covering range(m)."""
    for start in range(0, m, BLOCK):
        yield slice(start, min(start + BLOCK, m))


def rows_per_block(p: int) -> int:
    """Rows of p cells in one block of about BLOCK cells, at least 1."""
    return max(1, BLOCK // p)


def _require_int32(p: int, m: int = 0) -> None:
    """Refuse p unless the p^2 + 1 cell offsets and m points fit in int32.

    Arithmetic only: enumerate_solutions calls it before allocating
    anything, then with the running point count before each block is
    kept.  The largest prime with p^2 + 1 < 2^31 is 46337.
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
    column-major so that each coordinate column is contiguous: gathers
    from a column then run at full speed.  The rows
    offsets[c] .. offsets[c+1] - 1 are the 0, 1 or 2 points of cell
    c = x1*p + x2, smaller x3 first; cell (0, 0) is empty because its
    only solution is the origin.  offsets[-1] == M.  Both arrays are
    int32, which bounds p^2 + 1 and M by 2^31 - 1 (p <= 46337);
    enumerate_solutions checks both before it allocates.
    """

    params: SurfaceParams
    points: np.ndarray                      # (M, 3) int32, lex sorted, column-major
    offsets: np.ndarray                     # (p*p + 1,) int32, cumsum of cell counts

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def blocks(self):
        """Yield (rows, x) for each slice of row_blocks(M).

        x is the (3, len) int64 array of the rows' coordinate columns
        x[0], x[1], x[2], so a per-point stage can do int64 arithmetic
        without a full-size int64 temporary.
        """
        for rows in row_blocks(len(self)):
            yield rows, self.points[rows].T.astype(np.int64, order="C")

    def index_of(self, x: Triple) -> int:
        return int(self.lookup_array([np.array([v], dtype=np.int64) for v in x])[0])

    def lookup_array(self, x) -> np.ndarray:
        """Row indices (int32) of points given as coordinate arrays x[0..2].

        Pass ``pts.T`` for an (N, 3) point array.  Raises KeyError if a
        point is not in the set.
        """
        p, m = self.params.p, len(self)
        x1, x2, x3 = x[0], x[1], x[2]
        if len(x3) == 0:
            return np.empty(0, dtype=np.int32)
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

    def write_csv(self, out) -> None:
        """Write one "x1,x2,x3" line per point to the text stream out.

        The lines are written one block of rows at a time, so no string
        for the whole set is ever built.
        """
        for rows in row_blocks(len(self)):
            block = self.points[rows]
            out.write(("%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))

    def restrict(self, keep: np.ndarray) -> SolutionSet:
        """The rows where the bool mask keep is True, as a SolutionSet.

        Every kept cell must be whole: ValueError is raised if a cell
        keeps one row and drops the other, so the m_2 image of a kept
        point (the other row of its cell) is always kept.  Cells with no
        kept row become empty, so lookup_array raises KeyError for any
        point outside the kept rows; compute_orbits on the result thus
        checks that the kept rows are closed under m_0 and m_1.
        """
        p = self.params.p
        points = np.stack([self.points[:, j][keep] for j in range(3)]).T  # column-major
        cell = points[:, 0].astype(np.int64) * p + points[:, 1]
        cells, first = np.unique(cell, return_index=True)
        counts = np.diff(first, append=len(cell))
        whole = counts == np.take(self.offsets, cells + 1) - np.take(self.offsets, cells)
        if not bool(whole.all()):
            k = int(first[np.flatnonzero(~whole)[0]])
            raise ValueError(f"the kept rows split the cell of {tuple(points[k].tolist())}")
        # offsets[c] is first[k] for cells[k-1] < c <= cells[k], and M past
        # the last kept cell; no array of p^2 counts is built
        offsets = np.repeat(np.append(first, len(cell)).astype(np.int32),
                            np.diff(cells, prepend=-1, append=p * p))
        return SolutionSet(self.params, points, offsets)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start row of every cell, plus the total M at the end, as int32."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, dtype=np.int32, out=offsets[1:])
    return offsets


def enumerate_solutions(params: SurfaceParams, allow_large: bool = False) -> SolutionSet:
    """All x != (0,0,0) with residual zero, as a cell-indexed SolutionSet.

    p above DEFAULT_MAX_PRIME needs allow_large=True.  With or without
    it, p^2 + 1 and the point count M must fit in int32 (p <= 46337);
    _require_int32 raises ResourceGuardError otherwise, before the
    arrays are allocated.  Each block of x1 rows (about BLOCK cells)
    solves its cells' quadratics in int64 and keeps only its int32
    points; the blocks are then joined in order.
    """
    p = params.p
    if p > DEFAULT_MAX_PRIME and not allow_large:
        raise ResourceGuardError(
            f"p = {p} exceeds the enumeration guard {DEFAULT_MAX_PRIME}; "
            "pass allow_large=True to override")
    _require_int32(p)
    if p == 2:
        return _enumerate_tiny(params)

    fld = params.field
    inv2 = pow(2, -1, p)
    x2 = np.arange(p, dtype=np.int64)
    counts = np.empty(p * p, dtype=np.int8)
    blocks: list[np.ndarray] = []
    m = 0
    step = rows_per_block(p)
    for start in range(0, p, step):
        stop = min(start + step, p)
        x1 = np.arange(start, stop, dtype=np.int64)[:, None]
        b, c = x3_coefficients(params, x1, x2)  # quadratic in x3: x3^2 + b*x3 + c = 0
        disc = (b * b - 4 * c) % p
        count = fld.chi_table[disc] + 1
        if start == 0:
            count[0, 0] = 0  # cell (0, 0) holds only the origin
        counts[start * p:stop * p] = count.ravel()
        root = fld.sqrt_table[disc]
        r1 = (p - b + root) * inv2 % p
        r2 = (2 * p - b - root) * inv2 % p
        # entry 2*cell + slot, slot 0 for the smaller root: ascending is lexicographic
        keep = np.flatnonzero(np.stack([count > 0, count == 2], axis=-1))
        roots = np.stack([np.minimum(r1, r2), np.maximum(r1, r2)], axis=-1).ravel()
        m += len(keep)
        _require_int32(p, m)
        cols = np.empty((3, len(keep)), dtype=np.int32)
        cols[0], cols[1] = np.divmod(start * p + (keep >> 1), p)
        cols[2] = roots[keep]
        blocks.append(cols)
    return SolutionSet(params, np.concatenate(blocks, axis=1).T, _offsets(counts))


def _enumerate_tiny(params: SurfaceParams) -> SolutionSet:
    # p = 2: no quadratic character; scan all 8 triples
    p = params.p
    pts = [(x1, x2, x3)
           for x1 in range(p) for x2 in range(p) for x3 in range(p)
           if (x1, x2, x3) != (0, 0, 0) and residual(params, (x1, x2, x3)) == 0]
    arr = np.asfortranarray(np.array(pts, dtype=np.int32).reshape(len(pts), 3))
    counts = np.bincount(arr[:, 0] * p + arr[:, 1], minlength=p * p)
    return SolutionSet(params, arr, _offsets(counts))


def _root_table(p: int) -> np.ndarray:
    """Flat int8 table: entry b*p + c is #{x3 in F_p : x3^2 + b*x3 + c = 0}.

    Each pair (b, x3) is a root for exactly one c, c = -x3 * (x3 + b)
    mod p, so one np.bincount per block of b rows fills the table from
    the p^2 values of x3 * (x3 + b).  A monic quadratic has at most 2
    roots, so int8 is exact and the table takes p^2 bytes.  The blocks
    are int32, exact while 2 p^2 < 2^31.
    """
    table = np.empty(p * p, dtype=np.int8)
    x3 = np.arange(p, dtype=np.int32)
    step = rows_per_block(p)
    for start in range(0, p, step):
        stop = min(start + step, p)
        b = np.arange(start, stop, dtype=np.int32)[:, None]
        cell = -x3 * (x3 + b) % p + (b - start) * p
        table[start * p:stop * p] = np.bincount(cell.ravel(), minlength=(stop - start) * p)
    return table


def count_solutions_bruteforce(params: SurfaceParams) -> int:
    """Number of nonzero solutions, counted exhaustively cell by cell.

    The residual is x3^2 + b*x3 + c with (b, c) = x3_coefficients on the
    cell (x1, x2), so the cell holds _root_table(p)[b*p + c] solutions.
    The count sums that over all p^2 cells, slab by slab of
    rows_per_block(p) x1 rows, and drops the origin: O(p^2) time and a
    p^2-byte int8 table, exact because a quadratic has at most 2 roots.
    Nothing is cached.  The slabs are int32: x3_coefficients keeps its
    intermediates below 3 p^2, and the guard at DEFAULT_MAX_PRIME, which
    has no override, keeps 3 p^2 < 2^31 and the table under 4e8 bytes.
    """
    p = params.p
    if p > DEFAULT_MAX_PRIME:
        raise ResourceGuardError(
            f"p = {p} exceeds the brute-force guard {DEFAULT_MAX_PRIME} "
            f"({p}^2-byte root table)")
    step = rows_per_block(p)
    roots = _root_table(p)
    x2 = np.arange(p, dtype=np.int32)
    total = 0
    for start in range(0, p, step):
        x1 = np.arange(start, min(start + step, p), dtype=np.int32)[:, None]
        b, c = x3_coefficients(params, x1, x2)
        total += int(np.take(roots, b * p + c).sum(dtype=np.int64))
    return total - 1  # discount the origin

