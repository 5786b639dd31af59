"""Orbits of the move group, found on the cell grid, and the divisibility verdict.

The search runs on the p^2 cells (x1, x2) of the cell-indexed
SolutionSet, not on its points.  A cell holds at most two points, the
two roots in x3 that m_2 swaps, so one node stands for both and m_2
needs no edge.  m_0 changes only x1 and m_1 only x2, so the m_0 image of
a point of cell (x1, x2) lies in cell moved_coordinate(x, 0)*p + x2 and
its m_1 image in cell x1*p + moved_coordinate(x, 1): both target cells
are arithmetic on the coordinates, with no row lookup.  A cell's CSR row
lists the two target cells of each of its rows, so the row pointers are
2*offsets.  On a set of whole cells (enumerate_solutions builds them) a
move image is in the set exactly when its target cell holds a row, so
the search checks that every cell it reaches is non-empty and raises
KeyError naming the moved point otherwise: the closure check of a
subset of the surface.

Each orbit is one breadth_first_order of scipy on that graph, from the
first cell not yet labelled, so the orbits come in the order of their
first, that is lexicographically smallest, row, and are numbered in it.
Each search allocates and fills arrays over all p^2 cells, s = 0
included: there the moves are linear and many orbits are scalar
multiples of others, but compute_orbits searches every one of them.

A cell's rows share an orbit, since m_2 joins them, so the partition
keeps one id per cell (-1 where empty) and no per-row array;
OrbitPartition.ids reads any point's id from its cell.  neighbor_indices,
the library's one row lookup, stays in src only for perfbench's tracer.

cone_orbits finds the s = 0 orbits at an odd prime without enumerating
the surface.  There the surface is the isotropic cone of the quadratic
form Q_a and the moves are its reflections, so they act on the at most
2p + 1 projective classes of the cone, each move scaling a class's
representative by a scalar.  The orbits are read off the class graph
and those scalars in O(p) arrays (see cone_orbits); M = (p - 1) times
the number of classes.  Its ConeOrbits has the orbit list, total and
ids of an OrbitPartition, so size_table, verify_divisibility and
partition_report take either.  At s = 0 compute_orbits, which assumes
nothing of the cone, is the plain-search oracle that cone_orbits is
tested against.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .conics import closed_form_total
from .enumeration import BLOCK, INT32_MAX, CertificateError, ResourceGuardError, SolutionSet
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, ParamClass, SurfaceParams,
                      Triple, apply_move, classify_parameters, moved_coordinate,
                      rotated, x3_coefficients)


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


def require_complete(sol: SolutionSet) -> None:
    """Raise CertificateError unless sol has closed_form_total's O(1) count (s != 0, p >= 5)."""
    total = closed_form_total(sol.params)
    if len(sol) != total:
        raise CertificateError(f"the set holds M = {len(sol)} points, "
                               f"but the surface has {total} nonzero points")


class _OrbitList:
    """What both partitions share: orbits, (size, least point) in order of least point."""

    orbits: list[tuple[int, Triple]]

    @property
    def multiset(self) -> dict[int, int]:
        """size -> number of orbits, ascending in size."""
        return dict(sorted(Counter(self.orbit_sizes()).items()))

    def orbit_sizes(self) -> list[int]:
        return [size for size, _ in self.orbits]


@dataclass
class OrbitPartition(_OrbitList):
    """Partition of a SolutionSet into orbits of the move group."""

    solutions: SolutionSet
    cell_ids: np.ndarray                # (p*p,) int8 or int32: orbit id per cell, -1 if empty
    orbits: list[tuple[int, Triple]]    # (size, lexicographically smallest point)

    @property
    def params(self):
        return self.solutions.params

    @property
    def total(self) -> int:
        """The number of points partitioned."""
        return len(self.solutions)

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

    One search per orbit, for s = 0 as for s != 0: at s = 0 it is the
    plain-search oracle that cone_orbits is tested against.  Raises
    KeyError naming a move image outside the set, and ResourceGuardError
    when the search graph exceeds int32 indices.
    """
    p, m = sol.params.p, len(sol)
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
    orbits: list[tuple[int, Triple]] = []
    left, start = m, 0
    while left:
        start += int(np.argmax(count[start:] > 0))
        cells = breadth_first_order(graph, start, directed=True, return_predecessors=False)
        size = int(_row_counts(sol, count, cells, indices).sum(dtype=np.int64))
        if len(orbits) == 128:  # ~128 is below int8
            count = count.astype(np.int32)
        count[cells] = ~len(orbits)
        orbits.append((size, sol.triple(sol.offsets[start])))
        left -= size
        del cells  # it may span all p^2 cells; the next search allocates its own
    del graph, indices
    np.invert(count, out=count)  # ids in search order, and -1 on the empty cells
    return OrbitPartition(sol, count, orbits)


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


# --- s = 0: orbits on the projective classes of the cone --------------------

# cone_orbits' bounds: its arrays take a few hundred bytes per class, at
# most 2p + 1 classes, and per orbit, with the orbit table's entry
CONE_MAX_PRIME = 200_000
CONE_MAX_ORBITS = 1_000_000


@dataclass
class ConeOrbits(_OrbitList):
    """The orbits of an s = 0 surface, labelled on the projective classes of its cone.

    The point mu * reps[:, v] (mu != 0) lies in the orbit labelled
    start[C] + (log mu - phi[v]) mod index[C], one of the index[C]
    orbits of the component C of the class v.  labels reads those
    labels; the orbit list and ids, numbered by least point as in an
    OrbitPartition, are found when first read.
    """

    params: SurfaceParams
    keys: np.ndarray                    # (n,) int64: class keys, ascending (_projective)
    reps: np.ndarray                    # (3, n) int64: (x1, x2, 1), then (x1, 1, 0)
    component: np.ndarray               # (n,) int64: component of each class
    phi: np.ndarray                     # (n,) int64: potential, a discrete log mod p - 1
    index: np.ndarray                   # per component: gcd of p - 1 and its edges' holonomies
    start: np.ndarray                   # per component: its first label
    sizes: np.ndarray                   # per component: the size of each of its orbits

    @property
    def total(self) -> int:
        """The number of points partitioned: (p - 1) per class."""
        return (self.params.p - 1) * len(self.keys)

    @property
    def orbits(self) -> list[tuple[int, Triple]]:
        """(size, lexicographically smallest point) per orbit, in order of that point."""
        return self._numbered[1]

    def ids(self, x) -> np.ndarray:
        """The orbit id of each point of the columns x[0..2] in [0, p), -1 off the cone or at 0."""
        labels = self.labels(x)
        return np.where(labels < 0, -1, np.take(self._numbered[0], labels))

    def labels(self, x) -> np.ndarray:
        """The orbit label of each point of the columns x[0..2] in [0, p), -1 off the cone or at 0.

        Two points share a label exactly when they share an orbit; unlike
        ids, no least point is sought.
        """
        cls, scale = _locate(self.params, self.keys, x)
        on = cls >= 0
        out = np.full(len(on), -1, dtype=np.int64)
        out[on] = self._labels(cls[on], scale[on])
        return out

    def _labels(self, cls: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Labels of the points scale * reps[:, cls], scale in [1, p)."""
        comp = np.take(self.component, cls)
        log = np.take(self.params.field.log_table, scale).astype(np.int64)
        offset = (log - np.take(self.phi, cls)) % np.take(self.index, comp)
        return np.take(self.start, comp) + offset

    @functools.cached_property
    def _numbered(self) -> tuple[np.ndarray, list[tuple[int, Triple]]]:
        """(rank, orbits): each label's orbit id, and the orbit list, by least point."""
        _require_cone_bound(self.params.p, int(self.index.sum()))
        least = _least_points(self)
        order = np.lexsort(least.T[::-1])
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        sizes = np.repeat(self.sizes, self.index)[order]
        return rank, list(zip(sizes.tolist(), map(tuple, least[order].tolist())))


def _require_cone_bound(p: int, orbits: int = 0) -> None:
    """Refuse p above CONE_MAX_PRIME, or more than CONE_MAX_ORBITS orbits.

    Arithmetic only: cone_orbits calls it before allocating anything,
    and ConeOrbits with the orbit count, which the O(p) labelling of the
    classes gives, before it allocates any per-orbit array: on the first
    read of the orbit list or ids.  labels needs no per-orbit array.
    """
    if p > CONE_MAX_PRIME:
        raise ResourceGuardError(
            f"p = {p} exceeds the s = 0 orbit engine's bound {CONE_MAX_PRIME}")
    if orbits > CONE_MAX_ORBITS:
        raise ResourceGuardError(
            f"p = {p}: {orbits} orbits exceed the s = 0 orbit engine's bound {CONE_MAX_ORBITS}")


def _projective(params: SurfaceParams, x):
    """(key, scale) with x = scale * rep: rep = x / x3 where x3 != 0, else x / x2.

    key is rep's class key, (x1/x3)*p + x2/x3 on the chart x3 = 1 and
    p^2 + x1/x2 on the chart (x3, x2) = (0, 1), so chart order and then
    lexicographic order.  scale is 0 where x3 = x2 = 0: no nonzero
    point of the cone has them both zero, since Q_a(1, 0, 0) = 1.
    """
    p = params.p
    x1, x2, x3 = (np.asarray(v, dtype=np.int64) for v in x[:3])
    scale = np.where(x3 != 0, x3, x2)
    u = np.take(params.field.inv_table, scale).astype(np.int64)
    key = np.where(x3 != 0, x1 * u % p * p + x2 * u % p, p * p + x1 * u % p)
    return key, scale


def _locate(params: SurfaceParams, keys: np.ndarray, x):
    """(class, scale) of each point of the columns x, class -1 where it is off the cone."""
    key, scale = _projective(params, x)
    cls = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    cls[(np.take(keys, cls) != key) | (scale == 0)] = -1
    return cls, scale


def _monic_roots(params: SurfaceParams, b: np.ndarray, c: np.ndarray):
    """(row, root): the roots of t^2 + b[row]*t + c[row] mod p, ascending within each row."""
    p = params.p
    e = np.take(params.field.sqrt_table, (b * b - 4 * c) % p)
    half = (p + 1) // 2
    rows = np.flatnonzero(e >= 0)
    b, e = b[rows], e[rows]
    r1, r2 = (-b - e) * half % p, (-b + e) * half % p
    pick = np.stack([np.ones(len(rows), dtype=bool), e != 0], axis=1).ravel()
    roots = np.stack([np.minimum(r1, r2), np.maximum(r1, r2)], axis=1).ravel()
    return np.repeat(rows, 2)[pick], roots[pick]


def _cone_classes(params: SurfaceParams) -> np.ndarray:
    """(3, n) int64 representatives of the cone's projective classes, in key order.

    The chart x3 = 1 gives (x1, x2, 1) with x2 a root of the quadratic
    Q_a(x1, x2, 1) in x2, and the chart (x3, x2) = (0, 1) gives
    (x1, 1, 0) with x1 a root of Q_a(x1, 1, 0).  Q_a is cyclically
    symmetric, so the coefficients of the quadratic in x2 (in x1) are
    x3_coefficients of the rotated parameters at (x3, x1) (at (x2, x3)),
    surface.rotated: no second residual formula.  At most two roots per
    chart row: O(p) time and at most 2p + 1 classes.
    """
    x1 = np.arange(params.p, dtype=np.int64)
    rows, x2 = _monic_roots(params, *x3_coefficients(rotated(params, 1), 1, x1))
    b, c = x3_coefficients(rotated(params, 0), 1, 0)
    _, y1 = _monic_roots(params, np.array([b]), np.array([c]))
    n1, n2 = len(rows), len(y1)
    reps = np.zeros((3, n1 + n2), dtype=np.int64)
    reps[0, :n1], reps[1, :n1], reps[2, :n1] = rows, x2, 1
    reps[0, n1:], reps[1, n1:] = y1, 1
    return reps


def cone_orbits(params: SurfaceParams) -> ConeOrbits:
    """The orbits of an s = 0 surface at an odd prime, without enumerating it.

    At s = 0 the surface is the isotropic cone of the quadratic form
    Q_a, minus the origin, and the moves are linear: reflections of Q_a.
    So a move maps the projective class of v to a class, and the scalar
    multiples of a point to those of its image.  The engine lists the
    n <= 2p + 1 classes (_cone_classes), takes the image class and the
    scalar lambda with m_i(rep v) = lambda * rep(m_i v) of every class
    and move, and labels the class graph: scipy's connected_components,
    then one breadth_first_order from a virtual root joined to one
    class per component, whose spanning forest gives each class a
    potential phi, the sum of log lambda along its tree path.  An edge's
    holonomy is phi(v) + log lambda - phi(m_i v) mod p - 1; a component
    C with index n_C = gcd(p - 1, its holonomies) holds n_C orbits, each
    of size |C| (p - 1) / n_C, and mu * rep(v) lies in the one labelled
    (log mu - phi(v)) mod n_C.  The surface holds M = (p - 1) n points.

    Each orbit's least point is found when the orbit list or ids are
    first read, by scanning the cone in lexicographic order until every
    orbit is seen (_least_points): the slices x2 = c of the plane x1 = 0,
    which holds at most two classes, then the slices x1 = c, one point
    per class each, for c = 1, 2, ..., in blocks of up to BLOCK points
    and only over the classes of components with an orbit not yet seen.
    A block is one slice at first and each is twice the last, so the
    scan ends within twice the slices it needs.

    Raises ValueError unless s = 0 and p is odd, ResourceGuardError
    above CONE_MAX_PRIME, and ArithmeticError if a move image is not a
    listed class; reading the orbit list or ids raises ResourceGuardError
    above CONE_MAX_ORBITS orbits (_require_cone_bound).
    """
    p = params.p
    if params.s != 0 or p == 2:
        raise ValueError("the cone engine needs s = 0 and an odd prime")
    _require_cone_bound(p)
    fld = params.field
    reps = _cone_classes(params)
    keys, _ = _projective(params, reps)
    n = len(keys)
    targets = np.empty((n, 3), dtype=np.int64)
    logs = np.empty((n, 3), dtype=np.int64)
    for i in range(3):
        image = apply_move(params, reps, i)
        cls, scale = _locate(params, keys, image)
        if (cls < 0).any():
            k = int(np.argmin(cls))
            raise ArithmeticError(f"m_{i} maps the class of {tuple(reps[:, k].tolist())} "
                                  f"to {tuple(int(v[k]) for v in image)}, off the listed classes")
        targets[:, i] = cls
        logs[:, i] = np.take(fld.log_table, scale)
    graph = csr_matrix((np.ones(3 * n), targets.ravel(), np.arange(0, 3 * n + 1, 3)), shape=(n, n))
    n_comp, component = connected_components(graph, directed=True, connection="weak")
    roots = np.unique(component, return_index=True)[1]
    forest = csr_matrix((np.ones(3 * n + n_comp), np.append(targets.ravel(), roots),
                         np.append(np.arange(0, 3 * n + 1, 3), 3 * n + n_comp)),
                        shape=(n + 1, n + 1))
    _, parent = breadth_first_order(forest, n, directed=True, return_predecessors=True)
    up = parent[:n].astype(np.int64)
    up[roots] = roots
    move = np.argmax(targets[up] == np.arange(n)[:, None], axis=1)
    phi = logs[up, move]
    phi[roots] = 0
    # pointer jumping: phi[v] sums log lambda from the class up[v] down to v
    while not np.array_equal(up, up[up]):
        phi = (phi + phi[up]) % (p - 1)
        up = up[up]
    holonomy = (phi[:, None] + logs - phi[targets]) % (p - 1)
    index = np.full(n_comp, p - 1, dtype=np.int64)
    np.gcd.at(index, np.repeat(component, 3), holonomy.ravel())
    start = np.cumsum(index) - index
    sizes = np.bincount(component, minlength=n_comp) * ((p - 1) // index)
    return ConeOrbits(params, keys, reps, component, phi, index, start, sizes)


def _least_points(part: ConeOrbits) -> np.ndarray:
    """(labels, 3) int64: each label's lexicographically least point.

    The cone is scanned in lexicographic order, as in cone_orbits: the
    slices x2 = c of the plane x1 = 0, one point c / x2 * rep(v) per
    class v there, then the slices x1 = c, one point c / x1 * rep(v)
    per other class v.  Within a block the points are sorted, so the
    first point seen of a label is its least.
    """
    params, reps, component = part.params, part.reps, part.component
    p = params.p
    n_labels = int(part.index.sum())
    least = np.empty((n_labels, 3), dtype=np.int64)
    seen = np.zeros(n_labels, dtype=bool)
    left = part.index.copy()  # labels not yet seen, per component
    label_component = np.repeat(np.arange(len(left)), part.index)
    for j, classes in ((1, np.flatnonzero(reps[0] == 0)), (0, np.flatnonzero(reps[0] != 0))):
        c, width = 1, 1
        while c < p:
            classes = classes[left[component[classes]] > 0]
            if not len(classes):
                break
            width = min(p - c, width, max(1, BLOCK // len(classes)))
            inv = np.take(params.field.inv_table, reps[j, classes]).astype(np.int64)
            cls = np.repeat(classes, width)
            scale = (inv[:, None] * np.arange(c, c + width, dtype=np.int64) % p).ravel()
            labels = part._labels(cls, scale)
            new = ~seen[labels]  # most points of a late block are in labels already seen
            labels, x = labels[new], reps[:, cls[new]] * scale[new] % p
            # keys below p^3 < 2^63 in lexicographic order, sorted within each label
            order = np.lexsort(((x[0] * p + x[1]) * p + x[2], labels))
            first = order[np.flatnonzero(np.diff(labels[order], prepend=-1))]
            labels = labels[first]
            least[labels] = x[:, first].T
            seen[labels] = True
            left -= np.bincount(label_component[labels], minlength=len(left))
            c += width
            width *= 2
    if not seen.all():
        raise ArithmeticError("the cone scan ended with an orbit unseen")
    return least


def size_table(multiset: dict[int, int] | OrbitPartition | ConeOrbits) -> str:
    """Render a size multiset as "c1^d1, c2^d2, ..." ascending in c."""
    if isinstance(multiset, _OrbitList):
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


def verify_divisibility(part: OrbitPartition | ConeOrbits) -> DivisibilityReport:
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


def partition_report(part: OrbitPartition | ConeOrbits) -> dict:
    """JSON-ready orbit report."""
    params = part.params
    cls = classify_parameters(params)
    p = params.p
    return {
        "prime": p,
        "params": list(params.a),
        "s": params.s,
        "class": cls.kind,
        "total": part.total,
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
