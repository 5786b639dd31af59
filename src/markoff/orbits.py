"""Orbits of the move group, found on the cell grid, and the divisibility verdict.

The search runs on the p^2 cells (x1, x2) of the cell-indexed
SolutionSet, not on its points.  A cell holds at most two points, the
two roots in x3 that m_2 swaps, so one node stands for both and m_2
needs no edge.  m_0 changes only x1 and m_1 only x2, so the m_0 image of
a point of cell (x1, x2) lies in cell moved_coordinate(x, 0)*p + x2 and
its m_1 image in cell x1*p + moved_coordinate(x, 1): both target cells
are arithmetic on the coordinates, with no row lookup.  A cell's CSR row
lists the two target cells of each of its rows, so the row pointers are
2*offsets.  On a set of whole cells (enumerate_solutions builds them and
SolutionSet.restrict refuses any other) a move image is in the set
exactly when its target cell holds a row, so the search checks that
every cell it reaches is non-empty and raises KeyError naming the moved
point otherwise: the closure check of a restricted set.

Orbits are numbered by their first, that is lexicographically smallest,
row.  scipy's breadth_first_order labels up to MAX_BFS of them, each
from the first cell not yet labelled.  Each call allocates and fills
arrays over all p^2 cells, so an s = 0 surface with about p/2 orbits
would go quadratic; the orbits left after MAX_BFS are found by one
depth_first_order from a virtual root, node p^2, whose row lists the
unlabelled cells in row order.  That search enters each orbit at its
first cell, in row order, and visits the orbit's cells before it returns
to the root, so each orbit is one run of the depth-first order and the
runs come in first-row order.  scipy rescans the root's row from its
start after each run, which costs the sum over the orbits of their
first cell's place in that row: at p = 4001 about 23 entries per
unlabelled cell for (0,0,-3), whose 10,008 orbits are the most seen, and
5 for (2,2,-2).

A cell's rows share an orbit, since m_2 joins them, so the partition
keeps one id per cell (-1 where empty) and no per-row array;
OrbitPartition.ids reads any point's id from its cell.  neighbor_indices,
the library's one row lookup, stays in src only for perfbench's tracer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from .conics import closed_form_total
from .enumeration import INT32_MAX, ResourceGuardError, SolutionSet, cell_slabs
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, ParamClass, Triple,
                      apply_move, classify_parameters, moved_coordinate)

# orbits labelled by breadth-first searches before one depth-first search
# takes the rest: one orbit is generic, and the special forms have at
# least two or four
MAX_BFS = 4


def neighbor_indices(sol: SolutionSet) -> np.ndarray:
    """(3, M) int32 array: entry [i, k] is the row of m_i applied to the k-th row.

    The library's one row lookup, kept in src only because perfbench's
    tracer wraps it by name; no pipeline stage calls it.  An image y of
    apply_move lies in [0, p)^3, at its cell's first row, or the next one
    when y_3 is not that cell's first root: that row, clipped into
    [0, M), is compared with y.  KeyError names the first image not in
    the set.
    """
    p, m = sol.params.p, len(sol)
    out = np.empty((3, m), dtype=np.int32)
    for rows, x in sol.blocks():
        for i in range(3):
            y = apply_move(sol.params, x, i)
            start = np.take(sol.offsets, y[0] * p + y[1])
            # an empty cell may start at M, so the first gather clips too
            row = np.minimum(start + (y[2] != np.take(sol.points[:, 2], start, mode="clip")), m - 1)
            found = np.all([np.take(sol.points[:, j], row) == y[j] for j in range(3)], axis=0)
            if not found.all():
                k = int(np.argmin(found))
                raise KeyError(f"{tuple(int(v[k]) for v in y)} is not in the solution set")
            out[i, rows] = row
    return out


class CertificateError(Exception):
    """A certificate check failed: the set is incomplete, or an identity broke."""


def require_complete(sol: SolutionSet) -> None:
    """Raise CertificateError unless sol has closed_form_total's O(1) count (s != 0, p >= 5)."""
    total = closed_form_total(sol.params)
    if len(sol) != total:
        raise CertificateError(f"the set holds M = {len(sol)} points, "
                               f"but the surface has {total} nonzero points")


@dataclass
class OrbitPartition:
    """Partition of a SolutionSet into orbits of the move group."""

    solutions: SolutionSet
    cell_ids: np.ndarray                # (p*p,) int8 or int32: orbit id per cell, -1 if empty
    orbits: list[tuple[int, Triple]]    # (size, lexicographically smallest point)

    @property
    def params(self):
        return self.solutions.params

    @property
    def multiset(self) -> dict[int, int]:
        """size -> number of orbits, ascending in size."""
        return dict(sorted(Counter(self.orbit_sizes()).items()))

    def orbit_sizes(self) -> list[int]:
        return [size for size, _ in self.orbits]

    def ids(self, x) -> np.ndarray:
        """The orbit id of each point of the columns x[0..2] in [0, p): its cell's, -1 if empty."""
        return np.take(self.cell_ids, x[0] * self.params.p + x[1])


def _require_search_bound(p: int, m: int) -> None:
    """Refuse a search whose graph overflows scipy's int32 indices.

    Arithmetic only: compute_orbits calls it before allocating anything.
    The graph has p^2 cells and the virtual root, p^2 + 2 row pointers;
    its index array holds two entries per row and the root's row, one
    entry per unlabelled non-empty cell, at most min(M, p^2) of them.
    """
    if p * p + 2 > INT32_MAX:
        raise ResourceGuardError(
            f"p = {p}: the {p * p + 1} cell nodes exceed the int32 bound {INT32_MAX}")
    if 2 * m + min(m, p * p) > INT32_MAX:
        raise ResourceGuardError(
            f"p = {p}: the search over {m} points exceeds the int32 edge bound {INT32_MAX}")


def compute_orbits(sol: SolutionSet) -> OrbitPartition:
    """The orbits of a SolutionSet of whole cells, numbered by first row.

    Raises KeyError naming a move image outside the set, and
    ResourceGuardError when the search graph exceeds int32 indices.
    """
    p, m = sol.params.p, len(sol)
    _require_search_bound(p, m)
    # rows per unlabelled cell; a cell labelled by breadth-first search k holds ~k < 0
    count = np.empty(p * p, dtype=np.int8)
    np.subtract(sol.offsets[1:], sol.offsets[:-1], out=count, casting="unsafe")
    # two target cells per row, then room for the root's row
    indices = np.empty(2 * m + np.count_nonzero(count), dtype=np.int32)
    _cell_targets(sol, indices)
    indptr = np.empty(p * p + 2, dtype=np.int32)
    np.multiply(sol.offsets, 2, out=indptr[:-1])
    indptr[-1] = 2 * m
    sizes: list[int] = []
    firsts: list[int] = []
    left, start = m, 0
    while left and len(sizes) < MAX_BFS:
        start += int(np.argmax(count[start:] > 0))
        cells = breadth_first_order(_graph(indices, indptr), start, directed=True,
                                    return_predecessors=False)
        n = _row_counts(sol, count, cells, indices)
        count[cells] = ~len(sizes)
        del cells  # it spans all p^2 cells; the next search allocates its own
        sizes.append(int(n.sum(dtype=np.int64)))
        firsts.append(int(sol.offsets[start]))
        left -= sizes[-1]
    table = count  # ~id per labelled cell
    if left:
        table, more_sizes, more_firsts = _depth_first(sol, count, indices, indptr, len(sizes))
        sizes += more_sizes
        firsts += more_firsts
    del indices, indptr
    np.invert(table, out=table)  # ids, and -1 on the empty cells, where count holds 0
    orbits = [(size, sol.triple(first)) for size, first in zip(sizes, firsts)]
    return OrbitPartition(sol, table, orbits)


def _depth_first(sol: SolutionSet, count: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, first_id: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Label every unlabelled cell by one depth-first search from the virtual root.

    The root's row, written after the cells' rows in indices, lists the
    cells that count still holds positive, in row order; their orbits
    get ids from first_id on.  Returns the table of ~id per cell (the
    search's predecessor array once read, cut to the p^2 cells, with the
    breadth-first labels and the empty cells' 0 of count copied in) and
    the new orbits' sizes and first rows.
    """
    p = sol.params.p
    root, end = p * p, 2 * len(sol)
    for lo, hi in cell_slabs(p):
        rest = np.flatnonzero(count[lo * p:hi * p] > 0) + lo * p
        indices[end:end + len(rest)] = rest
        end += len(rest)
    indptr[-1] = end
    cells, table = depth_first_order(_graph(indices, indptr), root, directed=True,
                                     return_predecessors=True)
    cells = cells[1:]
    n = _row_counts(sol, count, cells, indices)
    new = np.take(table, cells) == root
    runs = np.flatnonzero(new)
    sizes = np.add.reduceat(n, runs, dtype=np.int64).tolist()
    firsts = np.take(sol.offsets, cells[runs]).tolist()
    ids = np.cumsum(new, dtype=np.int32)
    del new
    ids += first_id - 1
    table[cells] = np.invert(ids, out=ids)
    table = table[:root]
    # count is 0 exactly on the empty cells, which the search never
    # reaches: they hold scipy's -9999 there, that is ~9998, a valid id
    np.copyto(table, count, where=count <= 0)
    return table, sizes, firsts


def _cell_targets(sol: SolutionSet, out: np.ndarray) -> None:
    """Write the m_0 and m_1 target cells of row k to out[2k] and out[2k + 1]."""
    params = sol.params
    p = params.p
    for rows, x in sol.blocks():
        pair = out[2 * rows.start:2 * rows.stop].reshape(-1, 2)
        pair[:, 0] = moved_coordinate(params, x, 0) * p + x[1]
        pair[:, 1] = x[0] * p + moved_coordinate(params, x, 1)


def _graph(indices: np.ndarray, indptr: np.ndarray) -> csr_matrix:
    """The cell graph as a CSR matrix over indices[:indptr[-1]], nothing copied.

    The searches read no edge weights, so a zero-stride array of ones
    stands in for them and scipy's float64 cast copies nothing.
    """
    nnz = int(indptr[-1])
    weights = np.broadcast_to(np.float64(1.0), (nnz,))
    n = len(indptr) - 1
    return csr_matrix((weights, indices[:nnz], indptr), shape=(n, n))


def _row_counts(sol: SolutionSet, count: np.ndarray, cells: np.ndarray,
                targets: np.ndarray) -> np.ndarray:
    """The row counts of the reached cells, all positive.

    A reached cell without a row is the target cell of a move image
    outside the set: KeyError names the first such image, in row order,
    that lands in the first such cell reached.
    """
    n = np.take(count, cells)
    held = n > 0
    if not held.all():
        cell = int(cells[np.argmin(held)])
        row, i = divmod(int(np.argmax(targets[:2 * len(sol)] == cell)), 2)
        y = list(sol.triple(row))
        y[i] = divmod(cell, sol.params.p)[i]  # m_0 sets x1, m_1 sets x2
        raise KeyError(f"{tuple(y)} is not in the solution set")
    return n


def size_table(multiset: dict[int, int] | OrbitPartition) -> str:
    """Render a size multiset as "c1^d1, c2^d2, ..." ascending in c."""
    if isinstance(multiset, OrbitPartition):
        multiset = multiset.multiset
    return ", ".join(f"{size}^{count}" for size, count in sorted(multiset.items()))


@dataclass
class DivisibilityReport:
    """Per-orbit p-divisibility, asserted only for the two theorem classes."""

    params_class: ParamClass
    asserted: bool                       # whether divisibility is a theorem here
    orbits: list[tuple[int, Triple, bool]]  # (size, rep, size % p == 0)
    all_divisible: bool

    @property
    def passed(self) -> bool | None:
        """True/False when asserted, None when only reported."""
        if not self.asserted:
            return None
        return self.all_divisible


def verify_divisibility(part: OrbitPartition) -> DivisibilityReport:
    """Check p | orbit size for every orbit, where the hypotheses hold.

    The trivial orbit {(0,0,0)} is outside the SolutionSet and exempt.
    Where it is asserted, require_complete refuses a set that misses
    points, naming M and the count.  For hypothesis-violated or s = 0
    parameters the sizes are reported without any assertion.
    """
    params = part.params
    if params.p < 5:
        raise ValueError("divisibility verdict needs p >= 5")
    cls = classify_parameters(params)
    p = params.p
    rows = [(size, rep, size % p == 0) for size, rep in part.orbits]
    all_div = all(ok for _, _, ok in rows)
    asserted = cls.kind in (ALL_NONDEGENERATE, SPECIAL_FORM)
    if asserted:
        require_complete(part.solutions)
    return DivisibilityReport(cls, asserted, rows, all_div)


def partition_report(part: OrbitPartition) -> dict:
    """JSON-ready orbit report."""
    params = part.params
    cls = classify_parameters(params)
    p = params.p
    return {
        "prime": p,
        "params": list(params.a),
        "s": params.s,
        "class": cls.kind,
        "total": len(part.solutions),
        "trivial_present": True,
        "orbits": [
            {"size": size, "rep": list(rep), "divisible_by_p": size % p == 0}
            for size, rep in part.orbits
        ],
        "table": size_table(part),
    }


def no_bigons_holds(params, points) -> bool:
    """Distinct moves from one vertex agree only when both fix it.

    Checked on arbitrary triples (not only surface points); this is the
    graph-simplicity fact behind treating the three moves as three
    distinct edges.
    """
    for x in points:
        images = [apply_move(params, x, i) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if images[i] == images[j] and images[i] != x:
                    return False
    return True
