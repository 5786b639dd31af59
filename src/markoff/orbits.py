"""Connected components of the move graph and the divisibility verdict.

Each solution is adjacent to its three move images.  Components are
found with scipy's sparse connected_components, linear time at the
p ~ 1000 scale.  Representatives and orbit numbering are canonical:
orbits are ordered by their lexicographically smallest point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .enumeration import SolutionSet
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, ParamClass, Triple,
                      apply_move_array, classify_parameters)


def neighbor_indices(sol: SolutionSet) -> np.ndarray:
    """(3, M) array: entry [i, k] is the index of m_i applied to point k."""
    m = len(sol)
    out = np.empty((3, m), dtype=np.int64)
    for i in range(3):
        moved = apply_move_array(sol.params, sol.points, i)
        out[i] = sol.lookup_array(moved)
    return out


@dataclass
class OrbitPartition:
    """Partition of a SolutionSet into move-graph components."""

    solutions: SolutionSet
    component_id: np.ndarray            # (M,) int64, canonical numbering
    orbits: list[tuple[int, Triple]]    # (size, lexicographically smallest point)
    multiset: dict[int, int]            # size -> number of orbits
    neighbors: np.ndarray               # (3, M) move images, kept for reuse

    @property
    def params(self):
        return self.solutions.params

    def orbit_sizes(self) -> list[int]:
        return [size for size, _ in self.orbits]


def compute_orbits(sol: SolutionSet) -> OrbitPartition:
    m = len(sol)
    if m == 0:
        return OrbitPartition(sol, np.empty(0, dtype=np.int64), [], {}, np.empty((3, 0), dtype=np.int64))
    nbr = neighbor_indices(sol)
    labels = _component_labels(nbr, m)
    # canonical numbering: order components by first (= lex smallest) member
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    component_id = rank[inverse]
    sizes = np.bincount(component_id)
    reps_idx = np.sort(first)
    orbits = [(int(sizes[k]), sol.triple(int(reps_idx[k]))) for k in range(len(reps_idx))]
    multiset: dict[int, int] = {}
    for size, _ in orbits:
        multiset[size] = multiset.get(size, 0) + 1
    multiset = dict(sorted(multiset.items()))
    return OrbitPartition(sol, component_id, orbits, multiset, nbr)


def _component_labels(nbr: np.ndarray, m: int) -> np.ndarray:
    row = np.tile(np.arange(m, dtype=np.int64), 3)
    col = nbr.reshape(-1)
    graph = coo_matrix((np.ones(3 * m, dtype=np.int8), (row, col)), shape=(m, m))
    _, labels = connected_components(graph, directed=False)
    return labels


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
    total: int

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
    return DivisibilityReport(cls, asserted, rows, all_div, sum(s for s, _, _ in rows))


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
    from .surface import apply_move
    for x in points:
        images = [apply_move(params, x, i) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if images[i] == images[j] and images[i] != x:
                    return False
    return True
