"""Exact counting and entropy estimation for patterns on strips, boxes, tori.

Transfer operators over valid column states give exact integer counts for
two-dimensional boxes and tori and numerical per-site entropies for strips.
An operator keeps its states as a uint8 array and its transitions as
sparse neighbour lists, the only form of the transfer matrix, so the cost
follows the number of compatible column pairs.  strip_entropy's power
iteration runs on it in float64.  Counts run in machine words, on
arithmetic picked by a bound proved before anything is computed: T is a
0/1 matrix with at most D ones a row, so an entry of T^j is at most D**j,
trace(T^L) at most S * D**L and a strip count at most S * D**(L - 1).

- a count whose bound is below 2**63 runs in int64 throughout;
- a larger one is summed modulo primes below 2**31, as many as make a
  product past the bound, and rebuilt by the Chinese remainder theorem.
  The powers it sums are exact: dense float64 matrix powers for a trace
  on at most _DENSE_MAX_STATES states whose entries stay below 2**53
  (float64 is exact there; the dense matrix is built from the neighbour
  lists inside the count), else sparse int64 products while entries
  stay below 2**63, else products modulo the same primes.

Domino counts come from the Kasteleyn / Temperley-Fisher double product,
taken exactly as an integer resultant by a subresultant remainder
sequence; count_dimer_tilings_dp counts the same rectangles with the
tiling frontier DP.
"""

import functools
import itertools
import math

import numpy as np

from .lattice import box_F, rectangle
from .homshift import count_hom_dfs, hat_set, marker_set
from .tiling import count_tilings, dominoes

MAX_TRANSFER_STATES = 200_000
MAX_TRANSFER_PAIRS = 1 << 25  # compatible column pairs built at once
GATHER_LIMIT = 1 << 20  # entries gathered at once by a sparse product
_WORD_LIMIT = 1 << 63  # exact counts below this bound run in int64
_FLOAT_EXACT_LIMIT = 1 << 53  # float64 holds every integer below this
_DENSE_MAX_STATES = 5_000  # dense float64 powers: at most 200 MB a matrix
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
    MAX_TRANSFER_PAIRS before anything is built.  Products are gathers and
    segment sums over the lists, at most GATHER_LIMIT entries at once.
    count_strip and trace_power are exact in machine words: with D the
    largest number of neighbours, a count over L steps is at most
    S * D**L and an entry of T^j at most D**j, and these bounds pick
    int64 (below 2**63), dense float64 powers (a trace on at most
    _DENSE_MAX_STATES states, entries below 2**53) or residues modulo
    primes below 2**31 rebuilt by the CRT; see _exact_sum.
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
        self._degree = int(np.diff(self.indptr).max())

    def size(self):
        return len(self.states)

    @property
    def state_values(self):
        """The states as value tuples, in lexicographic order."""
        return [tuple(s) for s in self.states.tolist()]

    def apply(self, vec):
        """The product T @ vec, for a vector or a matrix: float64 for a
        float64 input, otherwise int64.

        An entry of the product is a sum of at most D input entries, D the
        largest number of neighbours, so an integer input is taken only
        when D * max|v| < 2**63, where no sum can wrap; otherwise this
        raises ValueError.
        """
        vec = np.asarray(vec)
        if vec.dtype != np.float64:
            top = max(int(vec.max()), -int(vec.min())) if vec.size else 0
            if self._degree * top >= _WORD_LIMIT:
                raise ValueError("apply: %d neighbours times an entry of %d "
                                 "may not fit in int64" % (self._degree, top))
            vec = vec.astype(np.int64)
        return self._product(vec)

    def _product(self, x):
        """T @ x, gathering at most GATHER_LIMIT entries of x at once (a
        row with more neighbours than that is gathered alone).

        Rows without neighbours are left at 0: np.add.reduceat would give
        them the next row's first term.
        """
        out = np.zeros_like(x)
        step = max(1, GATHER_LIMIT // max(1, x[0].size))
        lo = 0
        while lo < len(x):
            first = self.indptr[lo]
            hi = max(lo + 1, int(np.searchsorted(self.indptr, first + step,
                                                 "right")) - 1)
            rows = self._nonempty[lo:hi]
            out[lo:hi][rows] = np.add.reduceat(
                x[self.indices[first:self.indptr[hi]]],
                self.indptr[lo:hi][rows] - first, axis=0)
            lo = hi
        return out

    def count_strip(self, length):
        """Number of colorings of the width x length strip."""
        if length < 1:
            raise ValueError("length must be positive")
        return self._exact_sum(length - 1, trace=False)

    def trace_power(self, length):
        """trace(T^length): colorings with periodic horizontal boundary."""
        if length < 1:
            raise ValueError("length must be positive")
        return self._exact_sum(length, trace=True)

    def _exact_sum(self, steps, trace):
        """The sum of the entries of (T^a X) * (T^b X), a = steps // 2 and
        b = steps - a, with X the identity (trace) or a column of ones.

        T is symmetric, so this is trace(T^steps) or 1' T^steps 1.  T is
        a 0/1 matrix with at most D ones a row and every term is
        nonnegative, so no entry of T^j X, nor any partial sum of one,
        exceeds D**j, and no partial sum of the result exceeds
        bound = S * D**steps.  These bounds pick the arithmetic:

        - the powers: for the trace, when bound >= 2**63,
          S <= _DENSE_MAX_STATES and D**b < 2**53, dense float64 matrix
          products, exact below 2**53; otherwise sparse products, in int64
          when D**b < 2**63 and else modulo the primes below;
        - the sum: in int64 when bound < 2**63; otherwise modulo primes
          p < 2**31 (so that a product of two residues fits in int64),
          as many as make a product past the bound, and rebuilt from its
          residues by the Chinese remainder theorem.
        """
        size = self.size()
        a, b = steps // 2, steps - steps // 2
        bound = size * self._degree ** steps
        primes = _primes_past(bound) if bound >= _WORD_LIMIT else ()
        top = self._degree ** b
        if (trace and primes and size <= _DENSE_MAX_STATES
                and top < _FLOAT_EXACT_LIMIT):
            pairs = self._dense_powers(a, b)
        else:
            pairs = self._sparse_powers(a, b, trace,
                                        primes if top >= _WORD_LIMIT else ())
        if not primes:
            return sum(int((u * v).sum()) for u, v in pairs)
        mod = np.array(primes, dtype=np.int64)
        sums = np.zeros(len(primes), dtype=np.int64)
        for u, v in pairs:
            # a chunk of rows at a time, so that its residues in all lanes
            # hold at most GATHER_LIMIT entries
            step = max(1, GATHER_LIMIT // (u.shape[1] * len(primes)))
            for lo in range(0, len(u), step):
                u_p = u[lo:lo + step] % mod
                v_p = u_p if v is u else v[lo:lo + step] % mod
                # each sum has fewer than 2**32 terms below 2**31
                sums += ((u_p * v_p % mod).sum(axis=0) % mod).sum(axis=0)
                sums %= mod
        return _crt(sums.tolist(), primes)

    def _sparse_powers(self, a, b, trace, primes):
        """The pairs (T^a X, T^b X) for X the identity, a block of columns
        at a time so that one gather stays under GATHER_LIMIT entries, or
        for X a column of ones: int64 arrays (S, columns, lanes), exact in
        one lane, or with primes their residues modulo each."""
        size = self.size()
        mod = np.array(primes, dtype=np.int64)
        lanes = len(primes) or 1
        cols = size if trace else 1
        block = min(cols, max(1, GATHER_LIMIT
                              // max(1, len(self.indices) * lanes)))
        for lo in range(0, cols, block):
            width = min(block, cols - lo)
            if trace:
                x = np.zeros((size, width, lanes), dtype=np.int64)
                x[np.arange(lo, lo + width), np.arange(width)] = 1
            else:
                x = np.ones((size, 1, lanes), dtype=np.int64)
            half = x
            for j in range(1, b + 1):
                x = self._product(x)
                if primes:
                    x %= mod
                if j == a:
                    half = x
            yield half, x

    def _dense_powers(self, a, b):
        """The pairs of row blocks of T^a and T^b, b = a or a + 1, as exact
        int64 arrays (rows, S, 1), from float64 products of the 0/1 matrix
        T built from the CSR arrays.  a >= 2 on this route, which needs
        S * D**(a + b) >= 2**63 with D <= S <= _DENSE_MAX_STATES < 2**13,
        so a + b >= 4.

        Two S x S matrices are held: T and P = T^c, c = a // 2, raised a
        row block at a time in place.  A block of T^a is P[rows] @ P, times
        T when a is odd, and one of T^b = T^(a+1) that block @ T.  Every
        partial sum of these products is a nonnegative integer no larger
        than its entry, so below 2**53, where float64 is exact."""
        size = self.size()
        dense = np.zeros((size, size))
        dense[np.repeat(np.arange(size), np.diff(self.indptr)),
              self.indices] = 1.0
        rows = max(1, GATHER_LIMIT // size)
        blocks = [slice(lo, lo + rows) for lo in range(0, size, rows)]
        power = dense.copy() if a >= 4 else dense
        for _ in range(a // 2 - 1):
            for block in blocks:
                power[block] = power[block] @ dense
        for block in blocks:
            half = power[block] @ power
            if a % 2:
                half = half @ dense
            u = half[:, :, None].astype(np.int64)
            yield u, (u if a == b else
                      (half @ dense)[:, :, None].astype(np.int64))


def _is_prime(n):
    """Deterministic Miller-Rabin for odd 7 < n < 3 215 031 751."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime(i):
    """The i-th largest prime below 2**31, from i = 0 for 2**31 - 1."""
    n = _prime(i - 1) - 2 if i else (1 << 31) - 1
    while not _is_prime(n):
        n -= 2
    return n


def _primes_past(bound):
    """The largest primes below 2**31, as few as make a product > bound."""
    primes, product = [], 1
    while product <= bound:
        primes.append(_prime(len(primes)))
        product *= primes[-1]
    return tuple(primes)


def _crt(residues, primes):
    """The x in [0, prod(primes)) with x = r mod p for each pair (Garner)."""
    x, modulus = 0, 1
    for r, p in zip(residues, primes):
        x += modulus * ((r - x) * pow(modulus, -1, p) % p)
        modulus *= p
    return x


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


def _pseudo_remainder(f, g):
    """The remainder of lc(g)**(deg f - deg g + 1) * f on division by g,
    coefficients highest first, as len(g) - 1 of them (leading zeros
    kept): each step scales the remainder by lc(g) and cancels its
    leading term."""
    r, lead = list(f), g[0]
    for _ in range(len(f) - len(g) + 1):
        c = r[0]
        r = [lead * x - c * y
             for x, y in itertools.zip_longest(r[1:], g[1:], fillvalue=0)]
    return r


def _abs_resultant(f, g):
    """|Res(f, g)| of two integer polynomials of positive degree, given
    by their coefficients, highest first and leading one nonzero.

    Subresultant remainder sequence (Collins 1967; Cohen, "A Course in
    Computational Algebraic Number Theory", alg. 3.3.7): each pseudo-
    remainder is divided exactly by lead * h**delta, lead the leading
    coefficient of the divisor before, which keeps the coefficients at
    the size of the subresultants, and the steps take O(deg f * deg g)
    integer operations in all.  A zero remainder means a common root:
    the resultant is 0.
    """
    if len(f) < len(g):
        f, g = g, f
    lead = h = 1
    while len(g) > 1:
        delta = len(f) - len(g)
        r = _pseudo_remainder(f, g)
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            return 0
        f, g = g, [c // (lead * h ** delta) for c in r]
        lead = f[0]
        if delta:
            h = lead ** delta // h ** (delta - 1)
    return abs(g[0] ** (len(f) - 1) // h ** (len(f) - 2))


def count_dimer_tilings_kasteleyn(m, n):
    """Domino tilings of the m x n rectangle by the Kasteleyn (1961) /
    Temperley-Fisher (1961) product, exact.

    The product of (a_j + b_k) over the roots a_j of the m-side cosine
    polynomial and b_k of the n-side one is, up to sign, the resultant of
    the first and of the monic polynomial with roots -b_k; it is taken by
    the subresultant remainder sequence, in integer arithmetic.  An
    odd-area rectangle has the factor 0 + 0: returns 0.
    """
    if m < 1 or n < 1:
        raise ValueError("sides must be positive")
    f = _cosine_polynomial(m)
    g = [c * (-1) ** i for i, c in enumerate(_cosine_polynomial(n))]
    return _abs_resultant(f, g)


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
