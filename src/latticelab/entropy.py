"""Exact counting and entropy estimation for patterns on strips, boxes, tori.

Transfer operators over valid column states give exact integer counts for
two-dimensional boxes and tori and numerical per-site entropies for strips.
An operator keeps its states as a uint8 array and its transitions as
sparse neighbour lists, the only form of the transfer matrix: counts run
on it with Python-int object arrays and strip_entropy's power iteration
with float64 vectors, so the cost follows the number of compatible column
pairs.  Domino counts come from the Kasteleyn / Temperley-Fisher double
product, taken exactly as an integer resultant; count_dimer_tilings_dp
counts the same rectangles with the tiling frontier DP.
"""

import math

import numpy as np

from .lattice import box_F, rectangle
from .homshift import count_hom_dfs, hat_set, marker_set
from .tiling import count_tilings, dominoes

MAX_TRANSFER_STATES = 200_000
MAX_TRANSFER_PAIRS = 1 << 25  # compatible column pairs built at once
GATHER_LIMIT = 1 << 20  # object entries gathered at once by trace_power
POWER_TOL = 1e-12  # relative change that ends strip_entropy's iteration
POWER_MAX_ITER = 100_000


def _walk_total(nbrs, start, steps):
    """Number of walks of the given number of steps in an undirected graph,
    v ~ each u in nbrs[v], with start[v] of them starting at each v."""
    walks = list(start)
    for _ in range(steps):
        walks = [sum(walks[u] for u in row) for row in nbrs]
    return sum(walks)


def _segments(counts):
    """For segments of the given lengths laid end to end: the segment and
    the offset within it of every slot."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


def _compatible_columns(H, width, steps):
    """The free columns of the given width, as an S x w uint8 array in
    lexicographic order, and every compatible pair of them, as two index
    arrays (left, right); steps is the table built by TransferOperator.

    Both are grown one row at a time: a prefix pair extends by every pair
    of neighbour slots whose values are adjacent, so the work follows the
    number of compatible pairs, not S**2.
    """
    q = H.n
    deg = np.array([len(nbrs) for nbrs in H.adj], dtype=np.intp)
    nbr = np.array([v for nbrs in H.adj for v in nbrs], dtype=np.intp)
    nbr_start = np.cumsum(deg) - deg
    step_count = np.array([len(s) for s in steps], dtype=np.intp)
    step_start = np.cumsum(step_count) - step_count
    step_i = np.array([i for s in steps for i, _ in s], dtype=np.intp)
    step_j = np.array([j for s in steps for _, j in s], dtype=np.intp)

    # Prefixes of length 1 are the vertices, and compatible prefix
    # pairs are the edges; prefix indices follow lexicographic order.
    columns = np.arange(q, dtype=np.uint8)[:, None]
    left = np.repeat(np.arange(q), deg)
    right = nbr.copy()
    for _ in range(width - 1):
        last = columns[:, -1].astype(np.intp)
        children = deg[last]
        child_start = np.cumsum(children) - children
        owner, slot = _segments(children)
        columns = np.hstack([columns[owner],
                             nbr[nbr_start[last[owner]] + slot]
                             .astype(np.uint8)[:, None]])
        kind = last[left] * q + last[right]
        owner, slot = _segments(step_count[kind])
        pick = step_start[kind[owner]] + slot
        left, right = (child_start[left[owner]] + step_i[pick],
                       child_start[right[owner]] + step_j[pick])
    return columns, left, right


class TransferOperator:
    """Column-to-column transfer matrix of a width-w strip, stored sparse.

    States are the valid single-column colorings (a path for free vertical
    boundary, a cycle for periodic), kept in lexicographic order as the
    rows of the S x w uint8 array `states`.  Two columns are neighbours
    when they may sit side by side; the neighbour lists are stored as CSR
    arrays `indptr` and `indices`.  The free columns and their compatible
    pairs, which are built before the periodic ones are filtered out, are
    counted as walks and checked against MAX_TRANSFER_STATES and
    MAX_TRANSFER_PAIRS before anything is built.  Counts are gathers and
    segment sums over object arrays, so every entry stays an exact Python
    int.
    """

    def __init__(self, H, width, boundary="free"):
        if boundary not in ("free", "periodic"):
            raise ValueError("boundary must be 'free' or 'periodic'")
        if width < 1:
            raise ValueError("width must be positive")
        self.H = H
        self.width = width
        self.boundary = boundary
        q = H.n
        states = _walk_total(H.adj, [1] * q, width - 1)
        if states > MAX_TRANSFER_STATES:
            raise ValueError("transfer state space too large: %d states"
                             % states)
        # For each pair x ~ y of row values, at x * q + y, the pairs (i, j)
        # of neighbour slots with H.adj[x][i] ~ H.adj[y][j]: the ways two
        # compatible columns ending in x and y extend by one compatible row.
        # Compatible column pairs are the walks on this undirected graph.
        steps = [[(i, j) for i, u in enumerate(H.adj[x])
                  for j, v in enumerate(H.adj[y]) if H.has_edge(u, v)]
                 if H.has_edge(x, y) else []
                 for x in range(q) for y in range(q)]
        pair_nbrs = [[H.adj[x][i] * q + H.adj[y][j]
                      for i, j in steps[x * q + y]]
                     for x in range(q) for y in range(q)]
        pairs = _walk_total(pair_nbrs, [int(H.has_edge(x, y))
                                        for x in range(q) for y in range(q)],
                            width - 1)
        if pairs > MAX_TRANSFER_PAIRS:
            raise ValueError("transfer state space too large: %d compatible "
                             "column pairs" % pairs)
        columns, left, right = _compatible_columns(H, width, steps)
        if boundary == "periodic":
            keep = H.matrix()[columns[:, -1], columns[:, 0]]
            renumber = np.cumsum(keep) - 1
            both = keep[left] & keep[right]
            columns = columns[keep]
            left, right = renumber[left[both]], renumber[right[both]]
        if not len(columns):
            raise ValueError("no valid column states for width %d (%s)"
                             % (width, boundary))
        order = np.lexsort((right, left))
        self.states = columns
        self.indices = right[order]
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(left, minlength=len(columns)))))
        self._nonempty = self.indptr[:-1] < self.indptr[1:]
        self._row_starts = self.indptr[:-1][self._nonempty]

    def size(self):
        return len(self.states)

    @property
    def state_values(self):
        """The states as value tuples, in lexicographic order."""
        return [tuple(s) for s in self.states.tolist()]

    def apply(self, vec):
        """The product T @ vec, for a vector or a matrix: float64 for a
        float64 input, otherwise exact over Python ints.

        Rows without neighbours are left at 0: np.add.reduceat would give
        them the next row's first term.
        """
        vec = np.asarray(vec)
        if vec.dtype != np.float64:
            vec = vec.astype(object)
        out = np.zeros(vec.shape, dtype=vec.dtype)
        out[self._nonempty] = np.add.reduceat(vec[self.indices],
                                              self._row_starts, axis=0)
        return out

    def count_strip(self, length):
        """Number of colorings of the width x length strip."""
        if length < 1:
            raise ValueError("length must be positive")
        vec = np.ones(self.size(), dtype=object)
        for _ in range(length - 1):
            vec = self.apply(vec)
        return int(vec.sum())

    def trace_power(self, length):
        """trace(T^length): colorings with periodic horizontal boundary.

        With P = T^ceil(length/2) and Q = T^floor(length/2), both powered
        from the identity, the trace is sum_ij P_ij Q_ji.  T is symmetric
        (H is undirected), so Q_ji = Q_ij and the sum splits over blocks
        of columns; a block is sized so that one gather stays under
        GATHER_LIMIT entries.
        """
        if length < 1:
            raise ValueError("length must be positive")
        size = self.size()
        block = max(1, GATHER_LIMIT // max(1, len(self.indices)))
        total = 0
        for lo in range(0, size, block):
            cols = min(block, size - lo)
            power = np.zeros((size, cols), dtype=object)
            power[np.arange(lo, lo + cols), np.arange(cols)] = 1
            for _ in range(length // 2):
                power = self.apply(power)
            half = power
            if length % 2:
                power = self.apply(power)
            total += int((power * half).sum())
        return total


# ---------------------------------------------------------------------------
# box and torus counts


def count_hom_box(H, n, d, budget=None):
    """|Hom(F_n, H)|, exact.

    Transfer matrices along one axis for d <= 2; guarded depth-first
    search for d = 3.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    L = 2 * n + 1
    if d == 1:
        op = TransferOperator(H, 1, "free")
        return op.count_strip(L)
    if d == 2:
        op = TransferOperator(H, L, "free")
        return op.count_strip(L)
    if d == 3:
        return count_hom_dfs(H, box_F(n, 3), budget=budget)
    raise ValueError("box counting supports d in {1, 2, 3}")


def count_hom_torus(H, n, d=2):
    """|Hom(T_n, H)| for the Cayley graph of (Z/2nZ)^d, exact.

    The side-2 torus has doubled edges; each unordered neighbor pair is
    constrained once, which imposes the same requirement.
    """
    if n < 1:
        raise ValueError("torus needs n >= 1")
    side = 2 * n
    if d == 1:
        return TransferOperator(H, 1, "free").trace_power(side)
    if d == 2:
        op = TransferOperator(H, side, "periodic")
        return op.trace_power(side)
    raise ValueError("torus counting supports d in {1, 2}")


# ---------------------------------------------------------------------------
# dimer counts


def count_dimer_tilings_dp(m, n):
    """Exact domino tilings of the m x n rectangle by tiling.count_tilings,
    the longer side along the first axis so the frontier spans the shorter."""
    if m < 0 or n < 0:
        raise ValueError("sides must be nonnegative")
    if m == 0 or n == 0:
        return 1
    if (m * n) % 2 == 1:
        return 0
    return count_tilings(dominoes(), rectangle((max(m, n), min(m, n))))


def _cosine_polynomial(m):
    """Coefficients, highest first, of the monic integer polynomial with
    roots 4 cos^2(pi j / (m + 1)), j = 1..ceil(m/2): p_0 = 1, p_1 = y,
    p_(k+1) = y p_k - p_(k-1) has roots 2 cos(pi j / (m + 1)), j = 1..m,
    and p_m(y) = y^(m mod 2) E(y^2); this is x^(m mod 2) E(x)."""
    prev, cur = [1], [1, 0]
    for _ in range(m - 1):
        prev, cur = cur, [a - b for a, b in zip(cur + [0], [0, 0] + prev)]
    return cur[::2] + [0] * (m % 2)


def _bareiss_abs_det(rows):
    """|det| of a square integer matrix, fraction-free (Bareiss 1968): every
    division is exact, so the entries stay Python ints.  Row swaps only
    flip the sign, which is dropped."""
    a = [list(row) for row in rows]
    size = len(a)
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(a[-1][-1])


def count_dimer_tilings_kasteleyn(m, n):
    """Domino tilings of the m x n rectangle by the Kasteleyn (1961) /
    Temperley-Fisher (1961) product, exact.

    The product of (a_j + b_k) over the roots a_j of the m-side cosine
    polynomial and b_k of the n-side one is, up to sign, the resultant of
    the first and of the monic polynomial with roots -b_k; it is taken as
    the determinant of their Sylvester matrix, in integer arithmetic.  An
    odd-area rectangle has the factor 0 + 0: returns 0.
    """
    if m < 1 or n < 1:
        raise ValueError("sides must be positive")
    f = _cosine_polynomial(m)
    g = [c * (-1) ** i for i, c in enumerate(_cosine_polynomial(n))]
    p, q = len(f) - 1, len(g) - 1
    sylvester = ([[0] * i + f + [0] * (q - 1 - i) for i in range(q)]
                 + [[0] * i + g + [0] * (p - 1 - i) for i in range(p)])
    return _bareiss_abs_det(sylvester)


# ---------------------------------------------------------------------------
# strip entropy


def strip_entropy(H, width, boundary="free"):
    """Per-site entropy (nats) of the width-w strip: log(lambda_max)/width.

    Dominant eigenvalue by power iteration on the shifted operator T + I
    (the shift makes the iteration aperiodic; Perron-Frobenius gives
    convergence for the connected case), in float64 through
    TransferOperator.apply.  Each step's (T + I) v also gives the next
    Rayleigh quotient, so T is applied once per step.
    """
    op = TransferOperator(H, width, boundary)
    vec = np.full(op.size(), 1.0 / math.sqrt(op.size()))
    step = op.apply(vec) + vec  # (T + I) v
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        vec = step / float(np.linalg.norm(step))  # the norm is >= 1
        step = op.apply(vec) + vec
        lam, last = float(vec @ step), lam
        if abs(lam - last) <= POWER_TOL * max(1.0, abs(lam)):
            break
    lam -= 1.0  # undo the shift
    if lam <= 0:
        raise ArithmeticError("dominant eigenvalue not positive")
    return math.log(lam) / width


# ---------------------------------------------------------------------------
# entropy ratio report


def canonical_marker_triple(H):
    """The least (v0, v1, v2) with v1 < v2 both adjacent to v0."""
    for v0 in range(H.n):
        others = [u for u in H.adj[v0] if u != v0]
        if len(others) >= 2:
            return v0, others[0], others[1]
    raise ValueError("graph has no vertex with two distinct neighbors")


class EntropyReport:
    """Per-n counts and exponents for the nested pattern families."""

    COLUMNS = ("n", "|F_n|", "count_box", "count_hat", "count_tilde",
               "count_torus", "h_box", "h_hat", "c_hat", "c_torus")

    def __init__(self, H, d, rows):
        self.H = H
        self.d = d
        self.rows = list(rows)

    def empirical_c(self):
        return max(row["c_hat"] for row in self.rows)

    def to_csv(self):
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            cells = []
            for col in self.COLUMNS:
                v = row[col]
                cells.append("%.12g" % v if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def entropy_ratio_report(H, n_max, d=2, budget=None):
    """Counts of Hom(F_n, H), the periodic-shell and marker subfamilies and
    the torus, with per-site entropies and ratio exponents, for n <= n_max."""
    if d != 2:
        raise ValueError("the ratio report is implemented for d = 2")
    v0, v1, v2 = canonical_marker_triple(H)
    rows = []
    for n in range(1, n_max + 1):
        size = (2 * n + 1) ** d
        box = count_hom_box(H, n, d)
        hat = len(hat_set(H, n, d, budget=budget))
        tilde = len(marker_set(H, v0, v1, v2, n - 1, d, budget=budget))
        torus = count_hom_torus(H, n, d)
        row = {
            "n": n,
            "|F_n|": size,
            "count_box": box,
            "count_hat": hat,
            "count_tilde": tilde,
            "count_torus": torus,
            "h_box": math.log(box) / size,
            "h_hat": math.log(hat) / size if hat else float("-inf"),
            "c_hat": ((math.log(box) - math.log(hat)) / n ** (d - 1)
                      if hat else float("inf")),
            "c_torus": (math.log(box) - math.log(torus)) / n ** (d - 1),
        }
        rows.append(row)
    return EntropyReport(H, d, rows)
