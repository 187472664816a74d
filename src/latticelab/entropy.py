"""Exact counting and entropy estimation for patterns on strips, boxes, tori.

Transfer operators over valid column states give exact integer counts for
two-dimensional boxes and tori and numerical per-site entropies for strips.
An operator keeps its states as a uint8 array; its transitions are sparse
neighbour lists, built only when asked for, so the cost follows the number
of compatible column pairs built.  The states and pairs are counted as
walks first, a count stopping once it is past its cap.

What depends on H alone is built once per graph and kept on the graph
object (homshift.per_graph), so every operator over one H shares it and it
goes with H: the adjacency tables, the tree of free columns, grown a width
at a time as wider operators are built, and the walk counts behind the
size checks.  The checks keep counts, not verdicts: each compares them
with the caps of the moment.  Each operator builds its own states, orbits,
lumped matrix and neighbour lists.

Counts run on the orbits of a group G of symmetries of the transfer matrix
T: the reflections (and, for a periodic column, rotations) of a column,
times the automorphisms of H.  The orbits form an equitable partition of
T's graph (Godsil & Royle, "Algebraic Graph Theory", 2001), so with
B[i, j] the number of neighbours that orbit i's representative has in
orbit j and P the orbit indicator matrix, T P = P B: a strip count is
|O|' B^L 1, |O| the orbit sizes, and is taken on B alone, built from the
representatives' own neighbours.  strip_entropy's float64 power iteration
runs on B + I too, its norms and quotients weighted by |O|.  A diagonal
entry of T^L is the same across an orbit, so trace(T^L) is
sum_r |O_r| (T^a e_r).(T^b e_r) over the representatives r, a + b = L, on
the full lists.

Counts are exact in machine words, on arithmetic picked by a bound proved
before anything is computed: T is a 0/1 matrix with at most D ones a row
(so B's rows sum to at most D), so an entry of T^j X or B^j 1 is at most
D**j, trace(T^L) at most S * D**L and a strip count at most
S * D**(L - 1).

- a count whose bound is below 2**63 runs in int64 throughout;
- a larger one is summed modulo primes below 2**31, as many as make a
  product past the bound, and rebuilt by the Chinese remainder theorem;
  the powers it sums are sparse int64 products while entries stay below
  2**63, else products modulo the same primes.

Domino counts come from the Kasteleyn / Temperley-Fisher double product,
taken exactly as an integer resultant by a subresultant remainder
sequence, charged to a search budget before it runs;
count_dimer_tilings_dp counts the same rectangles with the tiling frontier
DP.
"""

import functools
import itertools
import math

import numpy as np

from .lattice import box_F, rectangle
from .homshift import count_hom_dfs, hat_set, marker_set, per_graph, reserve
from .tiling import count_tilings, dominoes
from .util import BudgetCounter

MAX_TRANSFER_STATES = 200_000
MAX_TRANSFER_PAIRS = 1 << 25  # compatible column pairs built at once
GATHER_LIMIT = 1 << 20  # entries gathered at once by a sparse product
AUT_MAX_NODES = 100_000  # vertex assignments tried by the Aut(H) search
_WORD_LIMIT = 1 << 63  # exact counts below this bound run in int64
POWER_TOL = 1e-12  # relative change that ends strip_entropy's iteration
POWER_MAX_ITER = 100_000


class _Walks:
    """Walk totals in an undirected graph, v ~ each u in nbrs[v], with
    start[v] walks starting at each v: totals[t] is the number of walks of
    t steps, and the walks ending at each vertex after the last step taken
    are kept, so a count grows one step at a time as it is asked for.

    After the first step every walk ends on an edge it can step back
    along, and adding that step maps the walks of t steps one to one into
    those of t + 1, so from t = 1 on the total never falls: a total past
    a cap before the last step asked for proves the count past the cap,
    and growth stops there."""

    def __init__(self, nbrs, start):
        self.nbrs = nbrs
        self.walks = list(start)
        self.totals = [sum(self.walks)]

    def total(self, steps, cap):
        """The number of walks of the given number of steps; None when a
        total of at least one step and fewer than steps is past cap, which
        proves this one past it too."""
        totals = self.totals
        while len(totals) <= steps:
            if len(totals) > 1 and totals[-1] > cap:
                return None
            self.walks = [sum(self.walks[u] for u in row) for row in self.nbrs]
            totals.append(sum(self.walks))
        return None if steps > 1 and totals[steps - 1] > cap else totals[steps]


def _walk_total(nbrs, start, steps, cap):
    """_Walks(nbrs, start).total(steps, cap): the walks of the given number
    of steps, or None when the count stops early, past cap."""
    return _Walks(nbrs, start).total(steps, cap)


def _check_total(total, cap, what):
    """ValueError when a _Walks count is past cap, the count stated
    exactly only when it was taken to the end."""
    if total is None or total > cap:
        raise ValueError("transfer state space too large: %s %s"
                         % ("more than %d" % cap if total is None else total,
                            what))


def _segments(counts):
    """For segments of the given lengths laid end to end: the segment and
    the offset within it of every slot."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


def _lists(lists):
    """Lists of ints as (count, start, flat) intp arrays."""
    count = np.array([len(x) for x in lists], dtype=np.intp)
    flat = np.array([v for x in lists for v in x], dtype=np.intp)
    return count, np.cumsum(count) - count, flat


class _Columns:
    """What every transfer operator over H shares, built once per graph
    and kept on it (see _columns): the free columns over H (the walks in
    H) of every width asked for so far, in lexicographic order, with what
    it takes to find a column's index or its compatible columns, and the
    walk counts behind TransferOperator.check.

    A column of length t + 1 extends one of length t by each neighbour of
    its last value in increasing order, so the extensions of the column at
    index i of length t are the columns from starts[t - 1][i] on, and a
    column's index is read off its values one row at a time: see index.
    The columns of width w are the level w - 1 of this tree, and its
    levels 0 .. w - 1 are the same in any wider tree, so the tree grows a
    level at a time, as a wider width is asked for.  slot[u, v] is the
    rank of v among the neighbours of u.

    The counts are kept as counts, not verdicts: states counts the free
    columns (walks in H) and pairs the compatible pairs of them (walks in
    the graph of adjacent value pairs), each grown to the width asked for,
    and a check compares them with the caps of the moment.
    """

    def __init__(self, H):
        q = H.n
        self.nbr = _lists(H.adj)
        self.slot = np.zeros((q, q), dtype=np.intp)
        for u, nbrs in enumerate(H.adj):
            self.slot[u, list(nbrs)] = np.arange(len(nbrs))
        # the values v adjacent to both x and y, at x * q + y, and the
        # rank of each v among the neighbours of y
        self.common = _lists([[v for v in H.adj[x] if H.has_edge(v, y)]
                              for x in range(q) for y in range(q)])
        self.common_slot = self.slot[
            np.repeat(np.arange(q * q) % q, self.common[0]), self.common[2]]
        self.levels = [np.arange(q, dtype=np.uint8)[:, None]]
        self.starts = []
        self.states = _Walks(H.adj, [1] * q)
        # Compatible column pairs are the walks on the undirected graph of
        # adjacent pairs (x, y) of row values, x * q + y, where (x, y) ~
        # (u, v) when u ~ x, v ~ y and u ~ v.
        self.pairs = _Walks(
            [[u * q + v for u in H.adj[x] for v in H.adj[y]
              if H.has_edge(u, v)] if H.has_edge(x, y) else []
             for x in range(q) for y in range(q)],
            [int(H.has_edge(x, y)) for x in range(q) for y in range(q)])

    def rows(self, width):
        """The free columns of the given width, as a read-only uint8
        array, growing the tree to it."""
        deg, nbr_start, nbr = self.nbr
        while len(self.levels) < width:
            columns = self.levels[-1]
            last = columns[:, -1].astype(np.intp)
            children = deg[last]
            self.starts.append(np.cumsum(children) - children)
            owner, slot = _segments(children)
            columns = np.hstack([columns[owner],
                                 nbr[nbr_start[last[owner]] + slot]
                                 .astype(np.uint8)[:, None]])
            columns.flags.writeable = False
            self.levels.append(columns)
        return self.levels[width - 1]

    def index(self, rows):
        """The index among the free columns of each row, a walk in H."""
        index = rows[:, 0].astype(np.intp)
        for t, start in enumerate(self.starts[:rows.shape[1] - 1]):
            index = start[index] + self.slot[rows[:, t], rows[:, t + 1]]
        return index


@per_graph
def _columns(H):
    """The _Columns of H, kept on H for every operator over it."""
    return _Columns(H)


def _compatible_columns(columns, lefts):
    """For each row of lefts, a free column over the graph of columns (a
    _Columns, grown to the width of lefts), the free columns that may sit
    beside it: two index arrays (owner, right), owner the row of lefts and
    right the index among the free columns of that width, sorted by owner
    and then by right.

    The right columns are grown one row at a time: a prefix extends by
    each value adjacent both to the left column's value in that row and to
    its own last value, in increasing order, so the work follows the
    number of compatible pairs, and the pairs come out sorted.
    """
    q = len(columns.slot)
    deg, nbr_start, nbr = columns.nbr
    count, start, flat = columns.common
    lefts = lefts.T.astype(np.intp)
    owner, slot = _segments(deg[lefts[0]])
    value = nbr[nbr_start[lefts[0][owner]] + slot]
    right = value
    for t, child_start in enumerate(columns.starts[:len(lefts) - 1], 1):
        kind = lefts[t][owner] * q + value
        pick, slot = _segments(count[kind])
        entry = start[kind[pick]] + slot
        right = child_start[right[pick]] + columns.common_slot[entry]
        owner, value = owner[pick], flat[entry]
    return owner, right


@functools.lru_cache(maxsize=64)
def _aut_generators(q, matrix, cap):
    """Generators of the automorphism group of the q-vertex graph with the
    given boolean adjacency matrix (its bytes), along a stabiliser chain.

    For each vertex i, with G_i the automorphisms that fix 0 .. i - 1, one
    automorphism in G_i mapping i to w is kept for each w that the ones
    kept at i do not already reach from i.  It is found by backtracking:
    vertices in increasing order, each image checked against the matrix
    rows of the vertices before it, loops included.  The ones kept at i
    reach the whole G_i-orbit of i, so by induction down the chain they
    generate Aut(H): at most q - 1 - i of them at i, fewer than q**2.

    A search that tries more than cap vertex images in all (the operator
    passes AUT_MAX_NODES, 100 000) stops and returns no generators, the
    trivial group: a smaller group only splits orbits, so every count
    stays the same.
    """
    adj = np.frombuffer(matrix, dtype=bool).reshape(q, q).tolist()
    degree = [sum(row) for row in adj]
    tried = 0

    def extend(i, target):
        """An automorphism fixing 0 .. i - 1 and mapping i to target, or
        None."""
        nonlocal tried
        image, used = list(range(i)), set(range(i))
        pending = [iter((target,))]  # the untried images of each open vertex
        while len(image) < q:
            v = len(image)
            for w in pending[-1]:
                if w in used or degree[w] != degree[v]:
                    continue
                tried += 1
                if tried > cap:
                    return None
                if all(adj[v][u] == adj[w][image[u]] for u in range(v)) \
                        and adj[v][v] == adj[w][w]:
                    image.append(w)
                    used.add(w)
                    pending.append(iter(range(q)))
                    break
            else:
                pending.pop()
                if len(image) == i:
                    return None
                used.discard(image.pop())
        return tuple(image)

    gens = []
    for i in range(q):
        kept = []
        root = np.arange(q)  # each point's orbit under kept, by least point
        for w in range(i + 1, q):
            if root[w] == root[i]:
                continue
            perm = extend(i, w)
            if tried > cap:
                return ()
            if perm is not None:
                kept.append(perm)
                root = _components(q, [np.array(p) for p in kept])
        gens += kept
    return tuple(gens)


def _components(size, images):
    """For each of size nodes, the least node of its connected component in
    the graph with an edge i -- image[i] for each array in images.

    Union-find on arrays: every node points at the root of its tree, the
    least node in it.  Each round hooks the larger root of every edge that
    joins two trees onto the smallest root it is joined to, then points
    every node at its new root by pointer jumping; it ends when no edge
    joins two trees."""
    parent = np.arange(size)
    u = np.tile(parent, len(images))
    v = np.concatenate(images) if images else parent[:0]
    while True:
        pu, pv = parent[u], parent[v]
        join = pu != pv
        if not join.any():
            return parent
        u, v, pu, pv = u[join], v[join], pu[join], pv[join]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


class _Sparse:
    """A nonnegative integer matrix as CSR arrays: row i holds data[k] (1
    when data is None) at column indices[k], for k in indptr[i] .. the
    next; degree is the largest row sum.  The rows with entries, where
    they start, and how many come before each row are kept for product,
    and so is the buffer it gathers into, reused by every call."""

    def __init__(self, counts, indices, degree, data=None):
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.indices = indices
        self.data = data
        self.degree = degree
        nonempty = counts > 0
        self._rows = np.flatnonzero(nonempty)
        self._firsts = self.indptr[self._rows]
        self._rank = np.concatenate(([0], np.cumsum(nonempty)))
        self._terms = np.empty(0)

    def product(self, x):
        """self @ x, gathering at most GATHER_LIMIT entries of x at once (a
        row with more entries than that is gathered alone).

        Rows without entries are left at 0: np.add.reduceat would give
        them the next row's first term, so it sums the rows with entries
        only, those of _rows[_rank[lo]:_rank[hi]] in rows lo .. hi - 1.
        The terms are gathered into _terms, grown when too small, so that
        no call pays for fresh pages of a gather of up to GATHER_LIMIT
        entries.
        """
        out = np.zeros_like(x)
        width = x[0].size
        step = max(1, GATHER_LIMIT // max(1, width))
        if self._terms.dtype != x.dtype:
            self._terms = np.empty(0, dtype=x.dtype)
        lo = 0
        while lo < len(out):
            first = self.indptr[lo]
            hi = max(lo + 1, int(np.searchsorted(self.indptr, first + step,
                                                 "right")) - 1)
            last = self.indptr[hi]
            size = (last - first) * width
            if len(self._terms) < size:
                self._terms = np.empty(size, dtype=x.dtype)
            terms = self._terms[:size].reshape((last - first,) + x.shape[1:])
            # (mode "clip", as every index is in range: "raise" copies out)
            x.take(self.indices[first:last], 0, terms, "clip")
            if self.data is not None:
                terms *= self.data[first:last].reshape(
                    (-1,) + (1,) * (x.ndim - 1))
            rows = slice(self._rank[lo], self._rank[hi])
            out[self._rows[rows]] = np.add.reduceat(
                terms, self._firsts[rows] - first, axis=0)
            lo = hi
        return out


class TransferOperator:
    """Column-to-column transfer matrix T of a width-w strip.

    States are the valid single-column colorings (a path for free vertical
    boundary, a cycle for periodic), kept in lexicographic order as the
    rows of the S x w uint8 array `states`.  Two columns are neighbours
    when they may sit side by side.  The free columns and their compatible
    pairs, which are built before the periodic ones are filtered out, are
    counted as walks and checked against MAX_TRANSFER_STATES and
    MAX_TRANSFER_PAIRS before anything is built; see check.

    Built once per graph and shared by every operator over H (the
    _Columns kept on H): the adjacency tables, the free columns of each
    width, with the tree that indexes them, and the walk counts the
    checks compare with the caps on every call.  Built once per operator:
    the states, the orbits and the two forms of T below.

    Two forms of T are built when first asked for:

    - the full neighbour lists, as CSR arrays `indptr` and `indices`, for
      apply and trace_power only;
    - the lumped matrix B on the orbits of G, the column's reflection (and
      rotations, for a periodic column) times Aut(H): B[i, j] is the
      number of neighbours that orbit i's representative, its least
      state, has in orbit j, built from the representatives' neighbour
      lists alone, for count_strip and strip_entropy.  The orbits are the
      components of the graph joining each state to its images under G's
      generators.

    Products are gathers and segment sums over the lists, at most
    GATHER_LIMIT entries at once.  count_strip and trace_power are exact
    in machine words: with D the largest number of neighbours, a count
    over L steps is at most S * D**L and an entry of T^j or B^j 1 at most
    D**j, and these bounds pick int64 (below 2**63) or residues modulo
    primes below 2**31 rebuilt by the CRT; see _exact_sum.
    """

    def __init__(self, H, width, boundary="free"):
        self.check(H, width, boundary)
        self.H = H
        self.width = width
        self.boundary = boundary
        self._columns = _columns(H)
        columns = self._columns.rows(width)
        # the index among the states of each free column, -1 for one that
        # is not a state
        self._state_of = np.arange(len(columns))
        if boundary == "periodic":
            keep = H.matrix()[columns[:, -1], columns[:, 0]]
            self._state_of = np.where(keep, np.cumsum(keep) - 1, -1)
            columns = columns[keep]
        self.states = columns

    @staticmethod
    def check(H, width, boundary="free"):
        """The constructor's argument and size checks, run before anything
        is built: ValueError for a bad boundary or width, when the free
        columns or their compatible pairs are past MAX_TRANSFER_STATES or
        MAX_TRANSFER_PAIRS, or when the width has no states.  The counts
        are the ones kept on H, grown to the width when need be; the caps
        are read on every call.  The periodic columns of width w are the
        closed walks of length w in H, trace(A^w) of them for A the
        adjacency matrix, so there are some exactly when the diagonal of
        H.walks(w) has a True entry (the powers are kept on H)."""
        if boundary not in ("free", "periodic"):
            raise ValueError("boundary must be 'free' or 'periodic'")
        if width < 1:
            raise ValueError("width must be positive")
        columns = _columns(H)
        states = columns.states.total(width - 1, MAX_TRANSFER_STATES)
        _check_total(states, MAX_TRANSFER_STATES, "states")
        _check_total(columns.pairs.total(width - 1, MAX_TRANSFER_PAIRS),
                     MAX_TRANSFER_PAIRS, "compatible column pairs")
        if boundary == "periodic":
            states = H.walks(width).diagonal().any()
        if not states:
            raise ValueError("no valid column states for width %d (%s)"
                             % (width, boundary))

    def size(self):
        return len(self.states)

    @property
    def state_values(self):
        """The states as value tuples, in lexicographic order."""
        return [tuple(s) for s in self.states.tolist()]

    def _neighbours(self, rows):
        """The compatible states of each row of rows, a state: two index
        arrays (owner, state), sorted by owner and then by state."""
        owner, right = _compatible_columns(self._columns, rows)
        right = self._state_of[right]
        keep = right >= 0
        return owner[keep], right[keep]

    @functools.cached_property
    def _full(self):
        owner, right = self._neighbours(self.states)
        counts = np.bincount(owner, minlength=self.size())
        return _Sparse(counts, right, int(counts.max()))

    @property
    def indptr(self):
        return self._full.indptr

    @property
    def indices(self):
        return self._full.indices

    @functools.cached_property
    def _orbits(self):
        """(reps, sizes, orbit): the least state of each G-orbit, in
        increasing order, the orbit sizes, and the orbit of each state."""
        states = self.states
        maps = [states[:, ::-1]]
        if self.boundary == "periodic":
            maps.append(np.roll(states, 1, axis=1))
        maps += [perm[states] for perm in self._automorphisms()]
        images = self._state_of[self._columns.index(np.concatenate(maps))]
        root = _components(self.size(), np.split(images, len(maps)))
        reps = np.flatnonzero(root == np.arange(self.size()))
        orbit = np.searchsorted(reps, root)
        return reps, np.bincount(orbit), orbit

    def _automorphisms(self):
        """Generators of Aut(H), as rows of a uint8 array; see
        _aut_generators."""
        gens = _aut_generators(self.H.n, self.H.matrix().tobytes(),
                               AUT_MAX_NODES)
        return np.array(gens, dtype=np.uint8).reshape(len(gens), self.H.n)

    @functools.cached_property
    def _lumped(self):
        """B, with the orbits numbered as in _orbits.

        The representatives' neighbours are built and merged into B a
        block of representatives at a time: a column has at most as many
        compatible columns as there are free columns, so a block of
        GATHER_LIMIT // (free columns) representatives builds at most
        GATHER_LIMIT pairs.  Each block's merged pairs are split into its
        rows' entry counts and the entries' columns as it is made, and
        written into B's arrays, which grow in place (homshift.reserve),
        so B's entries are held once.  The blocks' entries follow each
        other in order, so B is the one the whole set of pairs would
        give."""
        reps, _, orbit = self._orbits
        k = len(reps)
        block = max(1, GATHER_LIMIT // len(self._state_of))
        counts = np.zeros(k, dtype=np.int64)
        columns = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.int64)
        end, degree = 0, 0
        for lo in range(0, k, block):
            some = reps[lo:lo + block]
            owner, right = self._neighbours(self.states[some])
            keys, times = np.unique(owner * k + orbit[right],
                                    return_counts=True)
            row = keys // k
            counts[lo:lo + len(some)] = np.bincount(row, minlength=len(some))
            reserve(columns, end + len(keys))
            reserve(data, end + len(keys))
            np.subtract(keys, row * k, out=columns[end:end + len(keys)])
            data[end:end + len(keys)] = times
            end += len(keys)
            degree = max(degree, int(np.bincount(owner, minlength=1).max()))
        columns.resize(end, refcheck=False)
        data.resize(end, refcheck=False)
        return _Sparse(counts, columns, degree, data)

    def apply(self, vec):
        """The product T @ vec, for a vector or a matrix: float64 for a
        float64 input, otherwise int64.

        An entry of the product is a sum of at most D input entries, D the
        largest number of neighbours, so an integer input is taken only
        when D * max|v| < 2**63, where no sum can wrap; otherwise this
        raises ValueError.
        """
        vec = np.asarray(vec)
        full = self._full
        if vec.dtype != np.float64:
            top = max(int(vec.max()), -int(vec.min())) if vec.size else 0
            if full.degree * top >= _WORD_LIMIT:
                raise ValueError("apply: %d neighbours times an entry of %d "
                                 "may not fit in int64" % (full.degree, top))
            vec = vec.astype(np.int64)
        return full.product(vec)

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
        """trace(T^steps) or 1' T^steps 1, as a sum over the orbits of the
        products (M^a X) * (M^b X) * W, a = steps // 2 and b = steps - a:

        - for the trace, M = T, X the columns e_r of the representatives
          and W their orbit sizes: a diagonal entry of T^steps is
          (T^a e_r).(T^b e_r), T being symmetric, and the same on the
          whole orbit of r;
        - for a strip, M = B, X a column of ones and W the orbit sizes:
          1' T^steps 1 = |O|' B^steps 1, and |O_i| B[i, j] = |O_j| B[j, i]
          (both count the pairs between orbits i and j), so
          |O|' B^(a+b) 1 = sum_i |O_i| (B^a 1)_i (B^b 1)_i.

        Every term is nonnegative, no entry of M^j X, nor any partial sum
        of one, exceeds D**j (B's rows sum to at most D), and no term or
        partial sum of the result exceeds bound = S * D**steps.  These
        bounds pick the arithmetic:

        - the powers: sparse products in int64 when D**b < 2**63, and else
          modulo the primes below;
        - the sum: in int64 when bound < 2**63; otherwise modulo primes
          p < 2**31 (so that a product of two residues fits in int64),
          as many as make a product past the bound, and rebuilt from its
          residues by the Chinese remainder theorem.
        """
        matrix = self._full if trace else self._lumped
        a, b = steps // 2, steps - steps // 2
        bound = self.size() * matrix.degree ** steps
        primes = _primes_past(bound) if bound >= _WORD_LIMIT else ()
        blocks = self._powers(matrix, a, b, trace, primes
                              if matrix.degree ** b >= _WORD_LIMIT else ())
        if not primes:
            return sum(int((u * v * w).sum()) for u, v, w in blocks)
        mod = np.array(primes, dtype=np.int64)
        sums = np.zeros(len(primes), dtype=np.int64)
        for u, v, w in blocks:
            w = np.broadcast_to(w % mod, u.shape[:2] + (len(primes),))
            # a chunk of rows at a time, so that its residues in all lanes
            # hold at most GATHER_LIMIT entries
            step = max(1, GATHER_LIMIT // (u.shape[1] * len(primes)))
            for lo in range(0, len(u), step):
                u_p = u[lo:lo + step] % mod
                v_p = u_p if v is u else v[lo:lo + step] % mod
                # each sum has fewer than 2**32 terms below 2**31
                sums += ((u_p * v_p % mod * w[lo:lo + step] % mod)
                         .sum(axis=0) % mod).sum(axis=0)
                sums %= mod
        return _crt(sums.tolist(), primes)

    def _powers(self, matrix, a, b, trace, primes):
        """The triples (M^a X, M^b X, W) of _exact_sum, as int64 arrays
        (rows, columns, lanes) and W broadcastable to them: exact in one
        lane, or with primes their residues modulo each.  For the trace, a
        block of representatives at a time, so that X holds at most
        GATHER_LIMIT entries."""
        reps, sizes, _ = self._orbits
        mod = np.array(primes, dtype=np.int64)
        lanes = len(primes) or 1
        if trace:
            size = self.size()
            block = max(1, GATHER_LIMIT // (size * lanes))
            starts = range(0, len(reps), block)
        else:
            starts = [0]
        for lo in starts:
            if trace:
                cols = reps[lo:lo + block]
                x = np.zeros((size, len(cols), lanes), dtype=np.int64)
                x[cols, np.arange(len(cols))] = 1
                w = sizes[lo:lo + block][None, :, None]
            else:
                x = np.ones((len(reps), 1, lanes), dtype=np.int64)
                w = sizes[:, None, None]
            half = x
            for j in range(1, b + 1):
                x = matrix.product(x)
                if primes:
                    x %= mod
                if j == a:
                    half = x
            yield half, x, w


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
    which sweeps the longer side outermost, so the frontier spans the
    shorter."""
    if m < 0 or n < 0:
        raise ValueError("sides must be nonnegative")
    if m == 0 or n == 0:
        return 1
    if (m * n) % 2 == 1:
        return 0
    return count_tilings(dominoes(), rectangle((m, n)))


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


def count_dimer_tilings_kasteleyn(m, n, counter=None):
    """Domino tilings of the m x n rectangle by the Kasteleyn (1961) /
    Temperley-Fisher (1961) product, exact.

    The product of (a_j + b_k) over the roots a_j of the m-side cosine
    polynomial and b_k of the n-side one is, up to sign, the resultant of
    the first and of the monic polynomial with roots -b_k; it is taken by
    the subresultant remainder sequence, in integer arithmetic.  An
    odd-area rectangle has the factor 0 + 0: returns 0.

    Before anything is built, counter (a BudgetCounter; dimer_counter()
    when None) is ticked dimer_units(m, n).
    """
    if m < 1 or n < 1:
        raise ValueError("sides must be positive")
    (counter or dimer_counter()).tick(dimer_units(m, n))
    return _abs_resultant(_cosine_polynomial(m),
                          _negated_roots(_cosine_polynomial(n)))


def _negated_roots(f):
    """The polynomial whose roots are those of f negated, up to sign."""
    return [c * (-1) ** i for i, c in enumerate(f)]


def dimer_table(size, counter=None):
    """(m, n, count) for 1 <= m <= n <= size, row by row: the domino
    tilings of each rectangle, as count_dimer_tilings_kasteleyn takes
    them, with each cosine polynomial built once for the table.

    counter (a BudgetCounter; dimer_counter() when None) is ticked
    dimer_units(m, n) before each entry's resultant, and a polynomial is
    built when its first entry is reached, after that entry's charge.
    """
    counter = counter or dimer_counter()
    polys = {}  # side -> its cosine polynomial and the negated one
    for m in range(1, size + 1):
        for n in range(m, size + 1):
            counter.tick(dimer_units(m, n))
            if n not in polys:
                f = _cosine_polynomial(n)
                polys[n] = f, _negated_roots(f)
            yield m, n, _abs_resultant(polys[m][0], polys[n][1])


def dimer_counter(budget=None):
    """A BudgetCounter of dimer resultant units (dimer_units)."""
    return BudgetCounter(budget, "resultant unit", "dimer count")


def dimer_units(m, n):
    """The budget units of the m x n dimer resultant:
    deg f * deg g * ceil(B / 64), with deg f = ceil(m / 2) and
    deg g = ceil(n / 2) the degrees of the two cosine polynomials and
    B = m deg g + n deg f, a bound on the bits of every coefficient the
    remainder sequence keeps, so one unit is one coefficient step on one
    64-bit word.

    The sequence takes O(deg f * deg g) coefficient steps, and each kept
    coefficient is a subresultant coefficient: a minor of the Sylvester
    matrix, whose deg g rows hold f's coefficients and deg f rows g's.
    The m-side coefficients come from p_(k+1) = y p_k - p_(k-1), so their
    absolute values sum to at most Fibonacci(m + 1) < 2**m, which bounds
    the norm of each of f's rows; by Hadamard's inequality a minor is at
    most (2**m)**deg g * (2**n)**deg f, below 2**B.  At 200 x 200 this is
    6 250 000 units, at 300 x 300 31 657 500.
    """
    deg_f, deg_g = (m + 1) // 2, (n + 1) // 2
    return deg_f * deg_g * -(-(m * deg_g + n * deg_f) // 64)


# ---------------------------------------------------------------------------
# strip entropy


def strip_entropy(H, width, boundary="free"):
    """Per-site entropy (nats) of the width-w strip: log(lambda_max)/width.

    Dominant eigenvalue by power iteration on the shifted operator T + I
    (the shift makes the iteration aperiodic; Perron-Frobenius gives
    convergence for the connected case), in float64, from the unit
    constant vector: v <- (T + I) v / |(T + I) v|, until the Rayleigh
    quotient v'(T + I)v, which each step's product also gives, changes
    by at most POWER_TOL relative, or for POWER_MAX_ITER steps.

    The iteration runs on the orbits, on the operator's lumped matrix B
    (T P = P B, P the orbit indicator matrix), so T's full neighbour
    lists are never built.  The start vector is constant, so it is P u
    for u constant on the orbits, and (T + I) P u = P (B + I) u: every
    iterate is P u for a vector u on the orbits.  With W the orbit sizes,
    |P u|**2 = sum_i W_i u_i**2 and (P u)'(T + I)(P u) =
    sum_i W_i u_i ((B + I) u)_i, so iterating u with these weighted
    norms and quotients is the iteration on T, step for step.

    T is a symmetric 0/1 matrix, so its dominant eigenvalue is 0 when T
    has no ones (D = 0, which B's degree equals) and at least 1 otherwise
    (the Rayleigh quotient of e_i + e_j for a one at (i, j)); the first
    has no entropy.  By Perron-Frobenius it lies between the least and
    the largest row sum of T, which are those of B; when they are one
    value r (T is r-regular), it is r, with no iteration.
    """
    op = TransferOperator(H, width, boundary)
    lumped = op._lumped
    if not lumped.degree:
        raise ArithmeticError("dominant eigenvalue not positive")
    weight = op._orbits[1].astype(np.float64)
    sums = lumped.product(np.ones(len(weight)))
    if sums.min() == lumped.degree:
        return math.log(lumped.degree) / width
    vec = np.full(len(weight), 1.0 / math.sqrt(op.size()))
    step = lumped.product(vec) + vec  # (B + I) u
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        # the norm is >= 1
        vec = step / math.sqrt(float(weight @ (step * step)))
        step = lumped.product(vec) + vec
        lam, last = float((weight * vec) @ step), lam
        if abs(lam - last) <= POWER_TOL * max(1.0, abs(lam)):
            break
    return math.log(lam - 1.0) / width  # undo the shift


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
