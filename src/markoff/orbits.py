"""Connected components of the move graph and the divisibility verdict.

Each solution is adjacent to its three move images, found in O(1) per
point from the cell-indexed SolutionSet.  Components are found with
scipy's sparse connected_components, linear time in the number of
points.  Representatives and orbit numbering are canonical: orbits are
ordered by their lexicographically smallest point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .enumeration import SolutionSet, row_blocks
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, ParamClass, Triple,
                      apply_move, classify_parameters, moved_coordinate)


def neighbor_indices(sol: SolutionSet) -> np.ndarray:
    """(3, M) int32 array: entry [i, k] is the index of m_i applied to point k.

    m_2 keeps the cell (x1, x2) and swaps the two roots in x3, so its
    image is the other row of the same cell.  m_0 and m_1 change x1 or
    x2 and are looked up in the cell of the moved point, one block of
    rows at a time.  The result is the transpose of an (M, 3) C-ordered
    array: the three images of a point are adjacent in memory, which is
    the CSR layout _component_labels hands to scipy without a copy.
    """
    params = sol.params
    p = params.p
    out = np.empty((len(sol), 3), dtype=np.int32)
    for rows, x in sol.blocks():
        # moved coordinates are reduced mod p, so the lookup needs no range check
        out[rows, 0] = sol._find_rows(moved_coordinate(params, x, 0), x[1], x[2])
        out[rows, 1] = sol._find_rows(x[0], moved_coordinate(params, x, 1), x[2])
        cell = x[0] * p + x[1]
        out[rows, 2] = (np.take(sol.offsets, cell) + np.take(sol.offsets[1:], cell) - 1
                        - np.arange(rows.start, rows.stop, dtype=np.int32))
    return out.T


@dataclass
class OrbitPartition:
    """Partition of a SolutionSet into move-graph components."""

    solutions: SolutionSet
    component_id: np.ndarray            # (M,) int32, canonical numbering
    orbits: list[tuple[int, Triple]]    # (size, lexicographically smallest point)
    multiset: dict[int, int]            # size -> number of orbits
    neighbors: np.ndarray               # (3, M) int32 move images, kept for reuse

    @property
    def params(self):
        return self.solutions.params

    def orbit_sizes(self) -> list[int]:
        return [size for size, _ in self.orbits]


def compute_orbits(sol: SolutionSet) -> OrbitPartition:
    m = len(sol)
    nbr = neighbor_indices(sol)
    if m == 0:
        return OrbitPartition(sol, np.empty(0, dtype=np.int32), [], {}, nbr)
    n, labels = _component_labels(nbr, m)
    component_id, reps_idx = _first_row_numbering(labels, n)
    # bincount casts its input to int64, so count block by block
    sizes = sum(np.bincount(component_id[rows], minlength=n) for rows in row_blocks(m))
    orbits = [(int(sizes[k]), sol.triple(int(reps_idx[k]))) for k in range(n)]
    multiset: dict[int, int] = {}
    for size, _ in orbits:
        multiset[size] = multiset.get(size, 0) + 1
    multiset = dict(sorted(multiset.items()))
    return OrbitPartition(sol, component_id, orbits, multiset, nbr)


def _first_row_numbering(labels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(id per row, first row per id) for n labels, ids ordered by first row.

    Canonical numbering orders the components by their first, that is
    lexicographically smallest, row.  Labels already are that numbering
    when each label first appears one above every earlier label; the
    running maximum then rises n - 1 times, at the components' first
    rows, and the labels are returned as they are.  scipy's strong
    search gave such labels on every set tried, and one component
    always does.  Other labels are ranked by their first row.
    """
    top = np.maximum.accumulate(labels)
    rises = np.flatnonzero(top[1:] != top[:-1]) + 1
    if labels[0] == 0 and len(rises) == n - 1:
        return labels, np.append(0, rises)
    first = np.full(n, len(labels), dtype=np.int32)
    np.minimum.at(first, labels, np.arange(len(labels), dtype=np.int32))
    order = np.argsort(first)
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    return rank[labels], first[order]


def _component_labels(nbr: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Move-graph components as (count, int32 label per point).

    Row k of the CSR matrix lists the three move images of point k.  The
    moves are involutions, so every edge comes with its reverse and the
    strongly connected components are the orbits; the directed search
    skips the transpose that scipy's undirected search builds.  scipy's
    graph routines take int32 indices, which bounds the graph at 3M < 2^31.
    The indices are a view of neighbor_indices' buffer.  The search
    reads no edge weights, so a zero-stride array of ones stands in for
    them and scipy's float64 cast of the weights copies nothing.

    On scipy 1.17.1 the strong search hangs when a CSR row lists another
    vertex twice; a graph on cells, whose rows do, hangs already at
    p = 13.  A repeated self-loop is harmless.  These rows are safe by
    the no-bigons fact (no_bigons_holds): two distinct moves have the
    same image only when both fix the point, so a row repeats a column
    only as the self-loop of a point that two moves fix.
    """
    if 3 * m >= 2 ** 31:
        raise ValueError(f"{m} points exceed the int32 edge bound of the component search")
    indices = np.ascontiguousarray(nbr.T, dtype=np.int32).ravel()
    indptr = np.arange(0, 3 * m + 1, 3, dtype=np.int32)
    weights = np.broadcast_to(np.float64(1.0), (3 * m,))
    graph = csr_matrix((weights, indices, indptr), shape=(m, m))
    return connected_components(graph, directed=True, connection="strong")


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
    For hypothesis-violated or s = 0 parameters the sizes are reported
    without any assertion.
    """
    params = part.params
    if params.p < 5:
        raise ValueError("divisibility verdict needs p >= 5")
    cls = classify_parameters(params)
    p = params.p
    rows = [(size, rep, size % p == 0) for size, rep in part.orbits]
    all_div = all(ok for _, _, ok in rows)
    asserted = cls.kind in (ALL_NONDEGENERATE, SPECIAL_FORM)
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
