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

Each searched orbit is one breadth_first_order of scipy on that graph,
from the first cell not yet labelled, so the searched orbits come in the
order of their first, that is lexicographically smallest, row.
On s = 0 the surface is a cone and the moves act linearly, so for every
t != 0 the multiple t*O of an orbit O is an orbit of the same size: the
multiples of each searched orbit are labelled without a search, whenever
all of their cells hold rows and none is labelled yet.  A multiple only
partly in the set means the set is not move-closed, and the search that
reaches its missing cells raises the KeyError.  (0,0,-3) at p = 4001 has
10,008 orbits and takes 6 searches.  The orbits are then numbered by
first row.

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
from scipy.sparse.csgraph import breadth_first_order

from .conics import closed_form_total
from .enumeration import INT32_MAX, ResourceGuardError, SolutionSet
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, ParamClass, Triple,
                      apply_move, classify_parameters, moved_coordinate)


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
    The graph has p^2 cells, p^2 + 1 row pointers and two target cells
    per row, 2M indices.
    """
    if p * p + 1 > INT32_MAX:
        raise ResourceGuardError(
            f"p = {p}: the {p * p} cell nodes exceed the int32 bound {INT32_MAX}")
    if 2 * m > INT32_MAX:
        raise ResourceGuardError(
            f"p = {p}: the search over {m} points exceeds the int32 edge bound {INT32_MAX}")


def compute_orbits(sol: SolutionSet) -> OrbitPartition:
    """The orbits of a SolutionSet of whole cells, numbered by first row.

    Raises KeyError naming a move image outside the set, and
    ResourceGuardError when the search graph exceeds int32 indices.
    """
    params = sol.params
    p, m = params.p, len(sol)
    _require_search_bound(p, m)
    # rows per unlabelled cell; a cell of orbit k holds ~k < 0
    count = np.empty(p * p, dtype=np.int8)
    np.subtract(sol.offsets[1:], sol.offsets[:-1], out=count, casting="unsafe")
    indices = np.empty(2 * m, dtype=np.int32)  # two target cells per row
    _cell_targets(sol, indices)
    # the searches read no edge weights, so a zero-stride array of ones
    # stands in for them and scipy's float64 cast copies nothing
    weights = np.broadcast_to(np.float64(1.0), indices.shape)
    graph = csr_matrix((weights, indices, 2 * sol.offsets), shape=(p * p, p * p))
    sizes: list[int] = []
    firsts: list[int] = []
    left, start = m, 0
    while left:
        start += int(np.argmax(count[start:] > 0))
        cells = breadth_first_order(graph, start, directed=True, return_predecessors=False)
        size = int(_row_counts(sol, count, cells, indices).sum(dtype=np.int64))
        # on s = 0 the multiple t*O of the orbit O on cells is an orbit for each t != 0
        for t in range(1, p if params.s == 0 else 2):
            orbit = cells
            if t > 1:
                if count[_scaled(p, start, t)] <= 0:  # t*O's head cell is empty or labelled
                    continue
                orbit = _scaled(p, cells, t)
                if not (np.take(count, orbit) > 0).all():
                    continue  # t*O is partly outside the set, which a later search names
            if len(sizes) == 128:  # ~128 is below int8
                count = count.astype(np.int32)
            count[orbit] = ~len(sizes)
            sizes.append(size)
            firsts.append(int(sol.offsets[orbit.min()]))
            left -= size
        del cells, orbit  # they may span all p^2 cells; the next search allocates its own
    del graph, indices
    np.invert(count, out=count)  # ids in labelling order, and -1 on the empty cells
    order = np.argsort(firsts, kind="stable")
    if np.any(order != np.arange(len(order))):  # scaled orbits came out of first-row order
        rank = np.empty(len(order) + 1, dtype=count.dtype)
        rank[order] = np.arange(len(order))
        rank[-1] = -1  # the empty cells' id -1 reads it
        count = np.take(rank, count)
    orbits = [(sizes[k], sol.triple(firsts[k])) for k in order]
    return OrbitPartition(sol, count, orbits)


def _scaled(p: int, cells, t: int):
    """The cells (t*x1 mod p, t*x2 mod p) of the cells (x1, x2), an int or an int32 array."""
    x1, x2 = divmod(cells, p)
    return t * x1 % p * p + t * x2 % p


def _cell_targets(sol: SolutionSet, out: np.ndarray) -> None:
    """Write the m_0 and m_1 target cells of row k to out[2k] and out[2k + 1]."""
    params = sol.params
    p = params.p
    for rows, x in sol.blocks():
        pair = out[2 * rows.start:2 * rows.stop].reshape(-1, 2)
        pair[:, 0] = moved_coordinate(params, x, 0) * p + x[1]
        pair[:, 1] = x[0] * p + moved_coordinate(params, x, 1)


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
        row, i = divmod(int(np.argmax(targets == cell)), 2)
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
