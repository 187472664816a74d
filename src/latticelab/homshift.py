"""Graph-homomorphism patterns on boxes of Z^d.

A hom-shift is the space of graph homomorphisms from the Cayley graph of
Z^d to a fixed finite graph H (proper q-colorings when H = K_q).  This
module enumerates such patterns on boxes, builds the checkerboard-boundary
families and their marker refinements, and implements the constructive
extension operations between families: exact-length path extension,
full-support embedding, simultaneous block filling, and extension of
periodic-shell patterns to checkerboard-shell ones.  The extension
operations run on blocks of rows, one pattern per row, behind one
vectorised homomorphism check; they gather their outputs from per-ring
layer tables over one cached ring layout of centred boxes, and every
operation's output can be re-validated from scratch.
"""

import functools
import itertools
import json

import numpy as np

from . import lattice
from .lattice import add, box_F, norm_inf, parity, shell_F, sub, unit
from .util import BudgetCounter, NegativeResult


# ---------------------------------------------------------------------------
# target graphs


class TargetGraph:
    """A finite undirected graph H (self-loops allowed).  An edge names
    each endpoint u by its label: u is the vertex labelled str(u)."""

    def __init__(self, labels, edges):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != self.n:
            raise ValueError("duplicate vertex labels")
        adj = [set() for _ in range(self.n)]
        for u, v in edges:
            if str(u) not in index or str(v) not in index:
                raise ValueError("edge (%r, %r) names no vertex" % (u, v))
            iu, iv = index[str(u)], index[str(v)]
            adj[iu].add(iv)
            adj[iv].add(iu)
        self.adj = tuple(tuple(sorted(s)) for s in adj)
        self.adj_sets = tuple(frozenset(s) for s in adj)
        self._np_matrix = None
        self._powers = [np.eye(self.n, dtype=bool)]
        self._repeat = None
        self._kept = {}  # the values of per_graph functions on this graph

    def has_edge(self, u, v):
        return v in self.adj_sets[u]

    def ordered_edges(self):
        """All ordered pairs (u, v) with an edge, sorted."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u])

    def matrix(self):
        """Boolean adjacency matrix as a numpy array."""
        if self._np_matrix is None:
            m = np.zeros((self.n, self.n), dtype=bool)
            for u in range(self.n):
                for v in self.adj[u]:
                    m[u, v] = True
            self._np_matrix = m
        return self._np_matrix

    def walks(self, length):
        """matrix() to the power length, as booleans: entry [u, v] says
        whether a walk of exactly this length runs from u to v.

        The powers are kept as they are computed, until one equals an
        earlier one; from there on they cycle.  A walk of length L >= 1
        lengthens to one of L + 2 by a step to a neighbour and back, so
        the odd powers and the even ones each only grow until they stop:
        the cycle has length 1 or 2, and a new power is compared with the
        two before it only.
        """
        powers = self._powers
        while self._repeat is None and length >= len(powers):
            power = powers[-1] @ self.matrix()
            same = [i for i in range(max(len(powers) - 2, 0), len(powers))
                    if np.array_equal(power, powers[i])]
            if same:
                self._repeat = same[0]
            else:
                powers.append(power)
        if length < len(powers):
            return powers[length]
        start = self._repeat
        return powers[start + (length - start) % (len(powers) - start)]

    def __repr__(self):
        return "TargetGraph(%d vertices, %d edges)" % (
            self.n, np.triu(self.matrix()).sum())


def per_graph(fn):
    """fn(H, *args), computed once per graph H and arguments and kept on H,
    as H keeps matrix() and walks(): a value lives as long as its graph,
    and no table outside the graph keeps one alive.  cache_clear() makes
    every graph compute its values anew (the old ones stay on their graph
    unused)."""
    token = [object()]

    @functools.wraps(fn)
    def kept(H, *args):
        key = (token[0], args)
        if key not in H._kept:
            H._kept[key] = fn(H, *args)
        return H._kept[key]

    def cache_clear():
        token[0] = object()

    kept.cache_clear = cache_clear
    return kept


def complete_graph(q):
    labels = [str(i) for i in range(q)]
    edges = [(u, v) for u in range(q) for v in range(u + 1, q)]
    return TargetGraph(labels, edges)


def cycle_graph(q):
    labels = [str(i) for i in range(q)]
    edges = [(i, (i + 1) % q) for i in range(q)]
    return TargetGraph(labels, edges)


def full_shift_graph(q):
    """All pairs adjacent, self-loops included: no constraints at all."""
    labels = [str(i) for i in range(q)]
    edges = [(u, v) for u in range(q) for v in range(u, q)]
    return TargetGraph(labels, edges)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return TargetGraph([str(i) for i in range(10)], outer + inner + spokes)


GRAPH_PRESETS = {
    "K3": lambda: complete_graph(3),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "C4": lambda: cycle_graph(4),
    "C5": lambda: cycle_graph(5),
    "C7": lambda: cycle_graph(7),
    "petersen": petersen_graph,
    "full2": lambda: full_shift_graph(2),
    "full3": lambda: full_shift_graph(3),
}


def graph_preset(name):
    if name not in GRAPH_PRESETS:
        raise ValueError("unknown graph preset %r (have %s)"
                         % (name, ", ".join(sorted(GRAPH_PRESETS))))
    return GRAPH_PRESETS[name]()


# ---------------------------------------------------------------------------
# patterns


class Pattern:
    """A total assignment region -> vertex index, one byte per site."""

    __slots__ = ("region", "values")

    def __init__(self, region, values):
        if len(values) != len(region):
            raise ValueError("value array length %d != region size %d"
                             % (len(values), len(region)))
        self.region = region
        self.values = bytes(values)

    def value(self, site):
        return self.values[self.region.index(site)]

    def mapping(self):
        return dict(zip(self.region.sites, self.values))

    def restrict(self, subregion):
        """The pattern on subregion; KeyError for its first site outside."""
        at = self.region.positions(subregion.coords)
        if len(at) and at.min() < 0:
            raise KeyError(subregion.sites[int(at.argmin())])
        values = np.frombuffer(self.values, dtype=np.uint8).take(at)
        return Pattern(subregion, values.tobytes())

    def __eq__(self, other):
        return (isinstance(other, Pattern) and self.region == other.region
                and self.values == other.values)

    def __hash__(self):
        return hash((self.region, self.values))

    def __repr__(self):
        return "Pattern(%s, %s)" % (self.region.kind, list(self.values))


def _row_pattern(region, values):
    """Pattern(region, values) without its length check, for values,
    bytes, that the caller knows to hold one value per site."""
    p = object.__new__(Pattern)
    p.region = region
    p.values = values
    return p


class PatternSet:
    """A canonically ordered set of patterns sharing one region.

    The patterns live in one read-only N x |region| uint8 array, `rows`,
    one pattern per row in lexicographic order; a Pattern is built from
    its row when it is asked for.  The constructor takes Pattern objects
    and sorts and deduplicates them; PatternSet.view wraps rows that are
    already in that order, as the enumerator produces them.
    """

    def __init__(self, region, patterns, meta=None):
        values = []
        for p in patterns:
            if p.region != region:
                raise ValueError("pattern region mismatch")
            values.append(p.values)
        rows = np.frombuffer(b"".join(values), dtype=np.uint8)
        rows = rows.reshape(len(values), len(region))
        self._wrap(region, _distinct_rows(rows)[0], meta)

    @classmethod
    def view(cls, region, rows, meta=None):
        """The set whose patterns are the rows of a uint8 array that is
        already sorted and free of duplicates."""
        ps = cls.__new__(cls)
        ps._wrap(region, rows, meta)
        return ps

    def _wrap(self, region, rows, meta):
        if rows.dtype != np.uint8 or rows.shape[1:] != (len(region),):
            raise ValueError("pattern rows must be uint8 of width %d"
                             % len(region))
        rows.flags.writeable = False
        self.region = region
        self.rows = rows
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.rows)

    # _wrap checked the width of the rows, so one row, read by iteration
    # or at an int index, is a Pattern without its length check
    def __iter__(self):
        region, m, data = self.region, self.rows.shape[1], self.rows.tobytes()
        for i in range(len(self.rows)):
            yield _row_pattern(region, data[i * m:(i + 1) * m])

    def __getitem__(self, i):
        if type(i) is int:  # not a bool, which numpy takes as a mask
            return _row_pattern(self.region, self.rows[i].tobytes())
        if isinstance(i, slice):
            return tuple(Pattern(self.region, row.tobytes())
                         for row in self.rows[i])
        return Pattern(self.region, self.rows[i].tobytes())


def _distinct_rows(cols):
    """The distinct rows of a uint8 array, sorted, and each row's index
    among them.  Each row is one byte string, compared as sort_rows
    compares them."""
    width = cols.shape[1]
    if not width:
        return cols[:1], np.zeros(len(cols), dtype=np.int64)
    view = np.ascontiguousarray(cols).view("V%d" % width).ravel()
    uniq, ids = np.unique(view, return_inverse=True)
    return uniq.view(np.uint8).reshape(len(uniq), width), ids


# Edge checks hom_rows holds at once: rows are checked in chunks of
# about this many (row, edge) pairs.
MASK_BLOCK = 1 << 18


@functools.lru_cache(maxsize=32)
def _edge_positions(region):
    """The lattice edges inside region, as two position arrays: the
    earlier and the later end of each, from earlier_neighbor_table()."""
    earlier = region.earlier_neighbor_table()
    later, t = np.nonzero(earlier >= 0)
    first = earlier[later, t]
    first.flags.writeable = later.flags.writeable = False
    return first, later


@per_graph
def _pair_table(H):
    """ok[u << 8 | v] for every pair of byte values: whether u ~ v in H
    (False when u or v is no vertex of H)."""
    table = np.zeros((256, 256), dtype=bool)
    adj = H.matrix()[:256, :256]
    table[:len(adj), :len(adj)] = adj
    table.flags.writeable = False
    return table.ravel()


def hom_rows(H, region, rows):
    """Which rows of an N x |region| uint8 array are homomorphisms
    region -> H: a bool per row, True when every value is a vertex of H
    and every edge inside the region maps to an edge of H.  The edges are
    read from a table over byte pairs, a chunk of rows at a time."""
    first, later = _edge_positions(region)
    table = _pair_table(H)
    out = np.empty(len(rows), dtype=bool)
    step = max(1, MASK_BLOCK // max(1, len(first)))
    for lo in range(0, len(rows), step):
        # transposed, so that gathering an edge end copies whole lines
        chunk = np.ascontiguousarray(rows[lo:lo + step].T)
        pairs = chunk[first].astype(np.uint16) << 8 | chunk[later]
        out[lo:lo + step] = (table[pairs].all(axis=0)
                             & (chunk < H.n).all(axis=0))
    return out


def _one_row(pattern):
    """A pattern's values as a 1 x |region| uint8 array."""
    return np.frombuffer(pattern.values, dtype=np.uint8).reshape(
        1, len(pattern.values))


def is_hom(H, pattern):
    """True iff every edge internal to the region maps to an edge of H."""
    return bool(hom_rows(H, pattern.region, _one_row(pattern))[0])


# ---------------------------------------------------------------------------
# enumeration


# Prefixes one search step extends at once, in units of H.n children: a
# step takes prefixes while their children total at most ENGINE_BLOCK *
# H.n.  It also sets how far a step reaches (a segment has at most K
# branching sites, K the largest k with Delta(H)^(k-1) <= ENGINE_BLOCK,
# so that one prefix never has more children than H.n * ENGINE_BLOCK),
# how many contexts an expansion takes at once (_Segment.chunk) and how
# much a segment's memo holds (_memo_bound).
ENGINE_BLOCK = 1024


def _memo_bound(H, length):
    """(contexts, words) a segment's memo of length-site words holds
    before it is cleared: a context per row of one step's children, and
    ENGINE_BLOCK bytes of words per context."""
    return ENGINE_BLOCK * H.n, ENGINE_BLOCK * ENGINE_BLOCK * H.n // length


def _site_step(adj, rows, pos, prev, src):
    """Extend rows at column pos, whose earlier neighbours are the
    columns prev: by every vertex of H (src < 0) or by the row's value
    at column src, if it is adjacent to the row's values at all of prev.
    Returns the children and each child's parent row; when src >= 0 and
    every row extends, the children are the rows, written in place, and
    the parents None."""
    if src < 0:
        if prev:
            ok = adj[rows[:, prev[0]]]
            for j in prev[1:]:
                ok &= adj[rows[:, j]]
        else:
            ok = np.ones((len(rows), len(adj)), dtype=bool)
        parent, choice = ok.nonzero()
        child = rows.take(parent, axis=0)
        child[:, pos] = choice
        return child, parent
    parent = None
    if prev:
        # flat[v * H.n + u] is adj[v, u]; v is the value column src holds
        flat = adj.ravel()
        offsets = rows[:, src].astype(np.intp) * len(adj)
        ok = flat[offsets + rows[:, prev[0]]]
        for j in prev[1:]:
            ok &= flat[offsets + rows[:, j]]
        if not ok.all():
            parent = ok.nonzero()[0]
            rows = rows.take(parent, axis=0)
    rows[:, pos] = rows[:, src]
    return rows, parent


class _Segment:
    """Sites a..b-1 of a search, and a memo of their extensions.

    How a prefix of length a extends through the segment depends only on
    its context: its values at cols, the earlier neighbours and tie
    sources of the segment's sites that lie before a.  The memo holds the
    contexts met, each with a row of table, its slot: where its words
    start in words, how many there are (the segment's values of every
    extension, in lexicographic order), and the nodes the one-site search
    ticks on the way, dead ends included.  table and words only grow, in
    order of learning, and keys holds the contexts' keys sorted, with the
    slot of each in slots; so a slot stays valid until the memo is
    cleared.  free of the segment's
    sites branch (take every vertex of H); the others are fixed or tied
    and take one value at most.
    """

    def __init__(self, H, earlier, root, source, a, b, free, degree):
        self.a, self.b = a, b
        self.adj = H.matrix()
        self.full = _memo_bound(H, b - a)
        prev = earlier[a:b].tolist()
        src = source[a:b].tolist()
        cols = sorted({j for row in prev for j in row if 0 <= j < a}
                      | {j for j in src if 0 <= j < a})
        self.cols = np.array(cols, dtype=np.intp)
        q = H.n
        self.weights = (q ** np.arange(len(cols) - 1, -1, -1, dtype=np.int64)
                        if q ** len(cols) < 1 << 63 else None)
        # the one-site steps on compact rows: cols, then the segment
        at = {j: i for i, j in enumerate(cols)}
        at.update((p, len(cols) + p - a) for p in range(a, b))
        self.steps = [(at[p], [at[j] for j in row if j >= 0],
                       at[t] if t >= 0 else -1)
                      for p, row, t in zip(range(a, b), prev, src)]
        self.fill = root[a:b]
        # every branching site but the first follows an earlier neighbour
        # on its line (_fold_fixed), so a context has at most
        # q * degree^(free-1) words, and one expansion of this many
        # builds at most ENGINE_BLOCK * q rows at a time
        self.chunk = max(1, ENGINE_BLOCK // degree ** max(free - 1, 0))
        self.clear()

    def clear(self):
        self.keys = np.empty(0, dtype=np.int64 if self.weights is not None
                             else "V%d" % len(self.cols))
        self.slots = np.empty(0, dtype=np.intp)
        self.table = np.empty((0, 3), dtype=np.int64)
        self.words = np.empty((0, self.b - self.a), dtype=np.uint8)

    def key(self, rows):
        """Each row's context as one sortable key."""
        ctx = rows[:, self.cols]
        if self.weights is not None:
            return ctx.astype(np.int64) @ self.weights
        return np.ascontiguousarray(ctx).view(self.keys.dtype).ravel()

    def _slots(self, keys):
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), bool)
        at = np.minimum(self.keys.searchsorted(keys), len(self.keys) - 1)
        return self.slots[at], self.keys[at] == keys

    def find(self, rows, keys):
        """The memo slots of the first rows' contexts, up to the first
        context the memo lacks.  When that is the first row's, the
        contexts the memo lacks are expanded first, in order of first
        appearance and chunk at a time, until they have one step's
        children of words (ENGINE_BLOCK * H.n) or the memo is full."""
        slot, known = self._slots(keys)
        if not known[0]:
            # the distinct contexts missed, sorted, and the first row of each
            miss = np.flatnonzero(~known)
            order = keys[miss].argsort(kind="stable")
            new = keys[miss[order]]
            lead = np.empty(len(new), dtype=bool)
            lead[0] = True
            lead[1:] = new[1:] != new[:-1]
            new, at = new[lead], miss[order[lead]]
            first = at.argsort() if len(new) > self.chunk else None
            learned = 0
            for lo in range(0, len(new), self.chunk):
                if lo and (learned >= ENGINE_BLOCK * len(self.adj)
                           or self._full()):
                    break
                pick = (slice(None) if first is None
                        else np.sort(first[lo:lo + self.chunk]))
                learned += self._learn(rows[at[pick, None], self.cols],
                                       new[pick])
            slot, known = self._slots(keys)
        return slot if known.all() else slot[:known.argmin()]

    def _full(self):
        """Whether the memo holds as many contexts or words as
        _memo_bound allows."""
        return (len(self.keys) >= self.full[0]
                or len(self.words) >= self.full[1])

    def _learn(self, ctx, keys):
        """Expand the distinct contexts ctx, with their keys in increasing
        order, one site at a time and add them to the memo, clearing it
        first when full; returns the number of words added."""
        width = len(self.cols)
        rows = np.empty((len(ctx), width + len(self.fill)), dtype=np.uint8)
        rows[:, :width] = ctx
        rows[:, width:] = self.fill
        origin = np.arange(len(ctx))
        reached = []
        for pos, prev, src in self.steps:
            reached.append(origin)
            rows, parent = _site_step(self.adj, rows, pos, prev, src)
            if parent is not None:
                origin = origin[parent]
        if self._full():
            self.clear()
        count = np.bincount(origin, minlength=len(ctx))
        table = np.empty((len(ctx), 3), dtype=np.int64)
        table[:, 0] = len(self.words) + count.cumsum() - count
        table[:, 1] = count
        table[:, 2] = np.bincount(np.concatenate(reached), minlength=len(ctx))
        words = rows[:, width:]
        if len(self.keys):
            keys = np.concatenate([self.keys, keys])
            order = keys.argsort(kind="stable")
            self.keys = keys[order]
            self.slots = np.concatenate([self.slots, np.arange(
                len(self.table), len(keys), dtype=np.intp)])[order]
            self.table = np.concatenate([self.table, table])
            self.words = np.concatenate([self.words, words])
        else:  # the keys come sorted
            self.keys, self.slots = keys, np.arange(len(keys), dtype=np.intp)
            self.table, self.words = table, np.ascontiguousarray(words)
        return len(rows)


@functools.lru_cache(maxsize=32)
def _segment_bounds(region, reach):
    """Where the segments start, and the region's size: runs of
    consecutive positions, each site adjacent to the one before it (on a
    box, stretches of one lattice line), cut every reach sites."""
    pos = np.arange(len(region))
    linked = (region.earlier_neighbor_table() == (pos - 1)[:, None]).any(axis=1)
    run = np.maximum.accumulate(np.where(linked, 0, pos))  # each run's start
    starts = np.flatnonzero((pos - run) % reach == 0).tolist()
    return tuple(starts + [len(region)]) if starts else ()


def _fold_fixed(bounds, source):
    """The segments of a search: bounds (from _segment_bounds) with each
    segment whose sites are all fixed (source[p] == p) joined to the one
    before it, since it cannot branch; and each segment's branching sites
    (source[p] < 0).  A segment is then a stretch of one run, followed by
    whole fixed stretches (on a box, the fixed lines of a shell), so its
    branching sites all lie on that first stretch: at most reach, each
    but the first with the site before it as an earlier neighbour."""
    bounds = np.asarray(bounds, dtype=np.intp)
    if len(bounds) < 2:
        return (), ()
    starts = bounds[:-1]
    moving = np.add.reduceat(source != np.arange(len(source)), starts) > 0
    moving[0] = True
    starts = starts[moving]
    free = np.add.reduceat(source < 0, starts)
    return tuple(np.append(starts, bounds[-1]).tolist()), tuple(free.tolist())


def _hom_blocks(H, region, root, source, counter):
    """The homomorphisms region -> H that follow source, in canonical order.

    Yields uint8 arrays of whole rows (one per homomorphism, one column
    per site), lexicographically sorted when concatenated.  Site pos takes
    every vertex of H (source[pos] == -1, a branching site), the root's
    value (== pos, a fixed site) or the row's value at site
    source[pos] < pos (a tied site), if it is adjacent to the row's
    values at all earlier neighbours; source is an integer array.
    Prefixes grow from the row root a segment at a time: stretches of
    lattice lines with at most K branching sites each (_segment_bounds),
    a segment of fixed sites alone joined to the one before it
    (_fold_fixed), so that a fixed shell line costs no step of its own.
    A pending block's rows are looked up in the segment's memo
    (_Segment.find) once: the block keeps the slots of its rows up to the
    first context the memo lacks and their running word totals, and is
    looked up again only when its first row is past them.  The slots stay
    valid meanwhile: a segment's memo changes only in lookups of its own
    pending block, since every block above it on the stack belongs to a
    later segment.  Each step takes the block's rows while their children
    total at most ENGINE_BLOCK * H.n (one at least), found by one search
    in the running totals, and leaves the rest pending; the children are
    the rows, each repeated once per word of its context, with the words
    written in.  Blocks go depth first, one pending block per segment at
    most.  Each step ticks the nodes the one-site search ticks on its
    rows: one per prefix of every length it extends, dead ends included.
    """
    m = len(region)
    degree = max(1, int(H.matrix().sum(axis=1).max(initial=0)))
    reach = max(m, 1)
    if degree > 1:
        reach = 1
        while degree ** reach <= ENGINE_BLOCK:
            reach += 1
    earlier = region.earlier_neighbor_table()
    bounds, free = _fold_fixed(_segment_bounds(region, reach), source)
    segments = [None] * len(free)               # built when first reached
    cap = ENGINE_BLOCK * H.n
    # a pending block: its segment, its rows, and what its lookup found
    # (the rows' keys, slots and running word totals, the words of rows
    # already taken), or None before one
    stack = [(0, root.reshape(1, m), None)]
    while stack:
        s, rows, found = stack.pop()
        if s == len(segments):
            yield rows
            continue
        if segments[s] is None:
            segments[s] = _Segment(H, earlier, root, source, bounds[s],
                                   bounds[s + 1], free[s], degree)
        seg = segments[s]
        keys, slot, ends, done = found or (seg.key(rows), (), None, 0)
        if not len(slot):
            slot = seg.find(rows, keys)
            ends = seg.table[slot, 1].cumsum()
            done = 0
        t = max(1, int(ends.searchsorted(done + cap, side="right")))
        if t < len(rows):
            stack.append((s, rows[t:], (keys[t:], slot[t:], ends[t:],
                                        ends[t - 1])))
        start, count, ticks = seg.table[slot[:t]].T
        counter.tick(int(ticks.sum()))
        words = int(ends[t - 1]) - done
        if words:
            child = rows[:t].repeat(count, axis=0)
            word = np.arange(words) + (start + count + done
                                       - ends[:t]).repeat(count)
            child[:, seg.a:seg.b] = seg.words.take(word, axis=0)
            stack.append((s + 1, child, None))


def _check_boundary(H, region, boundary):
    """The engine's (root, source) for a partial assignment {site: vertex}."""
    root = np.zeros(len(region), dtype=np.uint8)
    source = np.full(len(region), -1, dtype=np.intp)
    for site, v in dict(boundary or {}).items():
        if site not in region:
            raise ValueError("boundary site %r outside region" % (site,))
        if not (isinstance(v, (int, np.integer)) and 0 <= v < H.n):
            raise ValueError("boundary value %r at %r is not a vertex of H"
                             % (v, site))
        pos = region.index(site)
        root[pos] = v
        source[pos] = pos
    return root, source


def reserve(data, size):
    """Grow data, a 1-D array that owns its buffer, in place
    (ndarray.resize) to hold at least size entries, by an eighth at
    least, as a bytearray grows.  The caller cuts it to its entries at
    the end, in place too, so that no slack is left."""
    if size > len(data):
        data.resize(max(size, len(data) + len(data) // 8), refcheck=False)


def _stack_rows(blocks, m):
    """The rows of uint8 blocks of width m, stacked in one array: each
    block is copied into one buffer as it comes (see reserve), so that
    the rows are held once, not once in the blocks and once stacked, and
    the array's base holds exactly its rows."""
    data, count = np.empty(0, dtype=np.uint8), 0
    for block in blocks:
        reserve(data, (count + len(block)) * m)
        data[count * m:(count + len(block)) * m] = block.reshape(-1)
        count += len(block)
    data.resize(count * m, refcheck=False)
    return data.reshape(count, m)


def enumerate_hom(H, region, boundary=None, budget=None):
    """All graph homomorphisms region -> H consistent with the boundary.

    The boundary is a partial assignment {site: vertex}.  An assignment that
    violates an internal edge simply yields the empty set.  Results are in
    canonical order.
    """
    rows = _stack_rows(_hom_blocks(H, region, *_check_boundary(H, region, boundary),
                                   BudgetCounter(budget)), len(region))
    return PatternSet.view(region, rows)


def count_hom_dfs(H, region, boundary=None, budget=None):
    """Count homomorphisms without materializing them."""
    return sum(len(rows) for rows in _hom_blocks(
        H, region, *_check_boundary(H, region, boundary), BudgetCounter(budget)))


# ---------------------------------------------------------------------------
# checkerboard, marker and periodic-shell families


def _require_edge(H, v0, v1, what):
    if not (0 <= v0 < H.n and 0 <= v1 < H.n and H.has_edge(v0, v1)):
        raise ValueError("%s (%r, %r) is not an edge of H" % (what, v0, v1))


def checkerboard_shell(v0, v1, n, d):
    """The forced shell assignment of C_n^(v0,v1): v_parity on F_n \\ F_{n-1}."""
    return {s: (v0 if parity(s) == 0 else v1) for s in shell_F(n, d)}


def checkerboard_set(H, v0, v1, n, d, budget=None):
    """C_n^(v0,v1): homomorphisms on F_n with a (v0,v1)-checkerboard shell."""
    _require_edge(H, v0, v1, "checkerboard edge")
    if n < 1:
        raise ValueError("checkerboard family needs n >= 1")
    region = box_F(n, d)
    boundary = checkerboard_shell(v0, v1, n, d)
    ps = enumerate_hom(H, region, boundary, budget=budget)
    ps.meta.update({"family": "checkerboard", "edge": (v0, v1), "n": n, "d": d})
    return ps


def checkerboard_rows(H, region, rows, v0, v1):
    """in_checkerboard for every row of an N x |region| uint8 array."""
    _require_edge(H, v0, v1, "checkerboard edge")
    if region.kind[0] != "F":
        return np.zeros(len(rows), dtype=bool)
    shell, _, _, odd = _shell_columns(region.kind[1], region.d)
    want = np.where(odd, v1, v0).astype(np.uint8)
    return (rows[:, shell] == want).all(axis=1) & hom_rows(H, region, rows)


def in_checkerboard(H, pattern, v0, v1):
    """Validator: pattern is a homomorphism with the (v0,v1) shell."""
    return bool(checkerboard_rows(H, pattern.region, _one_row(pattern),
                                  v0, v1)[0])


def pure_checkerboard(H, v0, v1, n, d):
    """The two-color pattern a_i = v_parity(i) on all of F_n."""
    _require_edge(H, v0, v1, "checkerboard edge")
    region = box_F(n, d)
    vals = np.where(region.coords.sum(axis=1) % 2, v1, v0).astype(np.uint8)
    return Pattern(region, vals.tobytes())


def marker_set(H, v0, v1, v2, n, d, budget=None):
    """The marker family on F_{n+1}: (v0,v1) shell outside, (v0,v2) shell on F_n.

    Restriction to F_n is a bijection onto C_n^(v0,v2).
    """
    _require_edge(H, v0, v1, "outer checkerboard edge")
    _require_edge(H, v0, v2, "inner checkerboard edge")
    if v1 == v2:
        raise ValueError("marker family needs two distinct companion colors")
    if n < 0:
        raise ValueError("marker family needs n >= 0")
    region = box_F(n + 1, d)
    boundary = checkerboard_shell(v0, v1, n + 1, d)
    boundary.update(checkerboard_shell(v0, v2, n, d))
    ps = enumerate_hom(H, region, boundary, budget=budget)
    ps.meta.update({"family": "marker", "edge": (v0, v1), "inner_edge": (v0, v2),
                    "n": n + 1, "d": d})
    return ps


def missing_shell_residue(n, d):
    """The one residue class mod 2 absent from the shell of F_n (n >= 1)."""
    return ((n + 1) % 2,) * d


@functools.lru_cache(maxsize=32)
def _shell_columns(n, d):
    """The shell of F_n by residue mod 2, class by class in order of
    residue and in site order within a class: each site's position in
    F_n, its class's first position, the index of its residue in the cube
    {0,1}^d in site order, and whether its parity is odd."""
    coords = box_F(n, d).coords
    positions = np.flatnonzero(np.abs(coords).max(axis=1) == n)
    residue = (coords[positions] % 2) @ (1 << np.arange(d - 1, -1, -1))
    order = residue.argsort(kind="stable")
    shell, residue = positions[order], residue[order]
    lead = shell[residue.searchsorted(residue)]
    odd = coords[shell].sum(axis=1) % 2 == 1
    for a in (shell, lead, residue, odd):
        a.flags.writeable = False
    return shell, lead, residue, odd


def hat_set(H, n, d, budget=None):
    """Patterns on F_n whose shell is (2Z)^d-periodic: one search, in
    which each shell site is tied to the first shell site of its class."""
    if n < 1:
        raise ValueError("periodic-shell family needs n >= 1")
    region = box_F(n, d)
    shell, lead = _shell_columns(n, d)[:2]
    source = np.full(len(region), -1)
    source[shell] = np.where(shell == lead, -1, lead)
    rows = _stack_rows(_hom_blocks(H, region, np.zeros(len(region), np.uint8),
                                   source, BudgetCounter(budget)),
                       len(region))
    return PatternSet.view(region, rows, {"family": "periodic_shell",
                                          "n": n, "d": d})


def hat_rows(H, region, rows):
    """in_hat for every row of an N x |region| uint8 array."""
    if region.kind[0] != "F" or region.kind[1] < 1:
        return np.zeros(len(rows), dtype=bool)
    shell, lead, _, _ = _shell_columns(region.kind[1], region.d)
    return (rows[:, shell] == rows[:, lead]).all(axis=1) & hom_rows(
        H, region, rows)


def in_hat(H, pattern):
    """Validator: homomorphism whose shell values depend only on site mod 2."""
    return bool(hat_rows(H, pattern.region, _one_row(pattern))[0])


# ---------------------------------------------------------------------------
# the contraction tau and the retraction tau_n


def tau(site):
    """One contraction step toward the origin (the origin maps to e_1)."""
    d = len(site)
    if all(c == 0 for c in site):
        return unit(1, d)
    m = norm_inf(site)
    for t in range(d):
        if abs(site[t]) == m:
            step = -1 if site[t] > 0 else 1
            return tuple(c + step if s == t else c for s, c in enumerate(site))
    raise AssertionError("unreachable")


def tau_n(site, n):
    """Retraction of Z^d onto F_n: tau applied 2k times, k the entry time."""
    if n < 1:
        raise ValueError("the retraction onto F_n needs n >= 1 "
                         "(F_0 admits no retraction: the Cayley graph has no loops)")
    if norm_inf(site) <= n:
        return site
    k = 0
    cur = site
    while norm_inf(cur) > n:
        cur = tau(cur)
        k += 1
    for _ in range(k):
        cur = tau(cur)
    return cur


# ---------------------------------------------------------------------------
# walks in H of exact lengths


def min_universal_path_length(H):
    """Smallest N with a walk of every length >= N between any two vertices.

    That is the exponent of H's adjacency matrix A, the first power with
    no zero entry: a walk of length N between every two vertices means
    every vertex has a neighbour, so A^(N+1) has no zero entry either.
    By Wielandt's theorem, when such a power exists (H connected and not
    bipartite), it comes by (n - 1)^2 + 1.
    """
    bound = (H.n - 1) ** 2 + 1 if H.n else 0
    for length in range(1, bound + 1):
        if H.walks(length).all():
            return length
    raise ValueError("no such N exists: H must be connected and non-bipartite")


def lex_walk(H, u, v, length):
    """The lexicographically least walk u -> v of exactly this length, or None."""
    if not H.walks(length)[u, v]:
        return None
    walk = [u]
    for remaining in range(length - 1, -1, -1):
        # the least neighbour of the walk's end that reaches v in time
        walk.append(int(np.argmax(H.matrix()[walk[-1]]
                                  & H.walks(remaining)[:, v])))
    return walk


# ---------------------------------------------------------------------------
# extension operations
#
# Each operation has a row-block form, *_rows, that extends every row of an
# N x |region| uint8 array of patterns at once and returns the extensions
# in row order; the one-pattern form is its one-row call.  A row-block form
# rejects its input with the error its one-pattern form raises on the first
# row it rejects, checking in the same order.


def _family_n(region, what):
    if region.kind[0] != "F":
        raise ValueError("%s must live on a centered box F_n" % what)
    return region.kind[1]


def _first_false(mask):
    """The index of the first False in a bool array, or its length."""
    return int(np.argmin(mask)) if not mask.all() else len(mask)


@functools.lru_cache(maxsize=32)
def _rings(n, k, d):
    """The ring layout of F_n inside F_{n+k}: (F_{n+k}, the positions of
    F_n's sites in it, in order, and each site's slot).  A site s has slot
    t * 2^d + c, where t = |s|_inf - n (0 inside F_n) and c is the index of
    s mod 2 in the residue cube of _ring_layers."""
    region = box_F(n + k, d)
    ring = np.maximum(np.abs(region.coords).max(axis=1) - n, 0)
    residue = (region.coords % 2) @ (1 << np.arange(d - 1, -1, -1))
    inner, slot = np.flatnonzero(ring == 0), ring << d | residue
    inner.flags.writeable = slot.flags.writeable = False
    return region, inner, slot


def _fill_rows(region, rows, k, layers):
    """The rows, patterns on F_n, each extended by k rings: a site of ring
    t takes its residue class's value in layers[t], a (k+1) x 2^d table.
    Returns F_{n+k} and the extended rows."""
    big, inner, slot = _rings(region.kind[1], k, region.d)
    out = np.empty((len(rows), len(big)), dtype=np.uint8)
    out[:] = np.frombuffer(b"".join(map(bytes, layers)), dtype=np.uint8)[slot]
    out[:, inner] = rows
    return big, out


@per_graph
def _walk_layers(H, source, target, k, d):
    """path_extend's ring layers: ring t is the checkerboard of steps t and
    t + 1 of the lexicographically least walk that starts along source and
    ends along target, in the orientation matching the parity of k."""
    end = target if k % 2 == 0 else target[::-1]
    # path_extend checks k >= N + 1, so a walk of length k - 1 >= N exists
    middle = lex_walk(H, source[1], end[0], k - 1)
    walk = np.array([source[0]] + middle + [end[1]], dtype=np.uint8)
    par = np.array([sum(r) % 2 for r in itertools.product((0, 1), repeat=d)])
    t = np.arange(k + 1)[:, None]
    return tuple(map(bytes, np.where(par == t % 2, walk[t], walk[t + 1])))


def path_extend_rows(H, region, rows, source, target, k):
    """path_extend for every row: (F_{n+k}, the extensions).  Every row is
    validated by one mask, then all are filled from one layer table."""
    v0, v1 = source
    w0, w1 = target
    _require_edge(H, v0, v1, "source edge")
    _require_edge(H, w0, w1, "target edge")
    _family_n(region, "path_extend input")
    N = min_universal_path_length(H)
    if k < N + 1:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + 1))
    if not checkerboard_rows(H, region, rows, v0, v1).all():
        raise ValueError("input does not lie in the stated checkerboard family")
    return _fill_rows(region, rows, k,
                      _walk_layers(H, (v0, v1), (w0, w1), k, region.d))


def path_extend(H, a, source, target, k):
    """Extend a checkerboard-shell pattern by k rings to a new shell edge.

    a must lie in the (source) checkerboard family on F_n; the result lies in
    the (target) family on F_{n+k} and restricts to a on F_n.  Each
    intermediate ring is a checkerboard of two consecutive vertices of a walk
    in H; the walk is the lexicographically least one, for reproducibility.
    """
    region, rows = path_extend_rows(H, a.region, _one_row(a), source,
                                    target, k)
    return Pattern(region, rows[0].tobytes())


@functools.lru_cache(maxsize=8)
def _retraction_positions(n, d):
    """F_{2dn}, and for each of its sites the position of tau_n(site) in F_n."""
    big = box_F(2 * d * n, d)
    small = box_F(n, d)
    positions = small.positions([tau_n(site, n) for site in big.sites])
    positions.flags.writeable = False
    return big, positions


def embed_in_marker_rows(H, region, rows, target, k):
    """embed_in_marker for every row: (F_{2dn+k}, the embeddings).

    The rows are spread over F_{2dn} by one gather, grouped by their
    source edge (a(0), a(e_1)), and each group is extended by one
    path_extend_rows call, which checks its spread rows.
    """
    n = _family_n(region, "embed_in_marker input")
    if n < 1:
        raise ValueError("embedding needs n >= 1")
    d = region.d
    hom = hom_rows(H, region, rows)
    # the first row's check comes before the length and target checks
    if len(rows) and not hom[0]:
        raise ValueError("input not a homomorphism")
    N = min_universal_path_length(H)
    if k < N + d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + d))
    w0, w1 = target
    _require_edge(H, w0, w1, "target edge")
    if not hom.all():
        raise ValueError("input not a homomorphism")
    spread, positions = _retraction_positions(n, d)
    wide = _rings(2 * d * n, k, d)[0]
    out = np.empty((len(rows), len(wide)), dtype=np.uint8)
    ends = [region.index((0,) * d), region.index(unit(1, d))]
    sources, group = _distinct_rows(rows[:, ends])
    for g, source in enumerate(sources.tolist()):
        sel = np.flatnonzero(group == g)
        _, out[sel] = path_extend_rows(H, spread, rows[sel[:, None], positions],
                                       tuple(source), target, k)
    return wide, out


def embed_in_marker(H, a, target, k):
    """Embed an arbitrary box pattern into a checkerboard family.

    a in Hom(F_n, H) is spread over F_{2dn} by the retraction tau_n (so the
    result restricts to a on F_n and has a checkerboard shell), then extended
    k more rings to the requested target edge.  Needs k >= N + d.
    """
    region, rows = embed_in_marker_rows(H, a.region, _one_row(a), target, k)
    return Pattern(region, rows[0].tobytes())


def flexible_fill(H, target, n, K, W, base, d=None):
    """One pattern realizing prescribed blocks inside a checkerboard.

    K is a set of sites, W maps each i in K to a pattern of the common
    checkerboard family with edge `base` on F_k.  The output is a pattern of
    the (target) family on F_n whose shift by i restricted to F_k equals W(i)
    for every i in K; all sites outside the padded blocks carry the plain
    target checkerboard.  K must be F_{k+N+1}-spaced with every padded block
    inside F_{n-1}.
    """
    w0, w1 = target
    _require_edge(H, w0, w1, "target edge")
    K = sorted(K)
    if d is None:
        if K:
            d = len(K[0])
        else:
            raise ValueError("dimension required when K is empty")
    if not K:
        return pure_checkerboard(H, w0, w1, n, d)
    v0, v1 = base
    _require_edge(H, v0, v1, "block edge")
    k = None
    for i in K:
        if i not in W:
            raise ValueError("no block prescribed at %r" % (i,))
        ki = _family_n(W[i].region, "block at %r" % (i,))
        if k is None:
            k = ki
        elif ki != k:
            raise ValueError("blocks live on different boxes")
        if not in_checkerboard(H, W[i], v0, v1):
            raise ValueError("block at %r is not in the stated family" % (i,))
        if not len(i) == d == W[i].region.d:
            raise ValueError("block at %r is not %d-dimensional" % (i, d))
    N = min_universal_path_length(H)
    pad = k + N + 1
    for a_pos in range(len(K)):
        for b_pos in range(a_pos + 1, len(K)):
            if norm_inf(sub(K[a_pos], K[b_pos])) <= 2 * pad:
                raise ValueError("blocks at %r and %r are too close: need "
                                 "sup-distance > %d"
                                 % (K[a_pos], K[b_pos], 2 * pad))
    limit = n - N - k - 2
    for i in K:
        if norm_inf(i) > limit:
            raise ValueError("block at %r does not fit: need sup-norm <= %d"
                             % (i, limit))
    region, inner, _ = _rings(pad, n - pad, d)
    # in a box, the shift by i moves every position by the same amount
    shift = region.positions(np.array(K)) - region.index((0,) * d)
    values = np.frombuffer(pure_checkerboard(H, w0, w1, n, d).values,
                           dtype=np.uint8).copy()
    rows = np.frombuffer(b"".join(W[i].values for i in K),
                         dtype=np.uint8).reshape(len(K), -1)
    odd = np.array(K).sum(axis=1) % 2 == 1
    for flip, block_target in ((False, (w0, w1)), (True, (w1, w0))):
        # Pad the blocks so their own boundary rings agree with the ambient
        # checkerboard: the padding target depends on the parity of i.
        chosen = np.flatnonzero(odd == flip)
        if len(chosen):
            _, padded = path_extend_rows(H, W[K[0]].region, rows[chosen],
                                         (v0, v1), block_target, N + 1)
            values[inner + shift[chosen, None]] = padded
    return Pattern(region, values.tobytes())


@per_graph
def _ring_layers(H, d):
    """The residue cube {0,1}^d and the values of its homs to H (ring layers)."""
    cube = lattice.rectangle((2,) * d, (-1,) * d)
    return cube, tuple(p.values for p in enumerate_hom(H, cube))


@per_graph
def _layer_fits(H, cube, pool):
    """fits[i][u] is the set of pool layers, as a bitset over their
    positions in pool, whose values at every cube neighbour of residue i
    are adjacent to u.  Lattice edges between consecutive rings join
    residues one coordinate flip apart, so the layers that may lie on a
    layer L are those in fits[i][L[i]] for every residue i."""
    adj = H.matrix()
    values = np.frombuffer(b"".join(pool), dtype=np.uint8).reshape(
        len(pool), len(cube))
    fits = []
    for flips in cube.neighbor_table():
        ok = adj[:, values[:, flips[flips >= 0]]].all(axis=2)
        fits.append(tuple(
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                           "little") for row in ok))
    return tuple(fits)


def _hat_chain(H, d, k, q0, absent):
    """hat_extend's search from the shell layer q0 (a value per residue in
    cube order; the one at residue index absent, which the shell lacks,
    is the input's value at (n-1, ..., n-1)): the checkerboard edge and
    the k + 1 ring layers of the first chain found, or None."""
    cube, pool = _ring_layers(H, d)
    fits = _layer_fits(H, cube, pool)

    def above(layer, skip=None):
        # the pool layers that may lie on layer; the compatibility is
        # symmetric, so they are also those that layer may lie on
        out = -1
        for i, u in enumerate(layer):
            if i != skip:
                out &= fits[i][u]
        return out

    first = above(q0, skip=absent)

    def chain_to(goal):
        # an iterative depth-first search: picks[t - 1] is the pool index
        # of the layer at depth t, todo[t - 1] the layers left to try
        # there, and dead[t] those from which no chain reaches the goal at
        # depth t.  That depends on nothing else, so skipping them keeps
        # the depth-first order and the first chain found
        below, dead = above(goal), [0] * k
        picks, todo = [], [first & below if k == 2 else first]
        while todo:
            rest = todo[-1]
            if not rest:
                todo.pop()
                if picks:
                    dead[len(picks)] |= 1 << picks.pop()
                continue
            low = rest & -rest
            todo[-1] = rest ^ low
            picks.append(low.bit_length() - 1)
            depth = len(picks) + 1  # of the layer to pick next
            if depth == k:
                return [q0] + [pool[i] for i in picks] + [goal]
            nxt = above(pool[picks[-1]]) & ~dead[depth]
            todo.append(nxt & below if depth == k - 1 else nxt)
        return None

    zero = cube.index((0,) * d)
    e1 = cube.index((1,) + (0,) * (d - 1))
    preferred = (q0[zero], q0[e1]) if k % 2 == 0 else (q0[e1], q0[zero])
    candidates = ([preferred] if H.has_edge(*preferred) else []) + [
        e for e in H.ordered_edges() if e != preferred]
    for v0, v1 in candidates:
        chain = chain_to(tuple(v1 if parity(r) else v0 for r in cube.sites))
        if chain is not None:
            return (v0, v1), chain
    return None


def hat_extend_rows(H, region, rows, k):
    """hat_extend for every row: (F_{n+k}, an N x 2 array of the
    checkerboard edges, the extensions).

    The rows are grouped by their shell layer q0, and the chain search
    runs once per distinct q0; each group is filled from its chain.
    Rows after the first one outside the periodic-shell family are not
    searched, since that row ends the run.
    """
    n = _family_n(region, "hat_extend input")
    d = region.d
    member = hat_rows(H, region, rows)
    if len(rows) and not member[0]:
        raise ValueError("input shell is not 2-periodic (or not a homomorphism)")
    if k < 2 * d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, 2 * d))
    cube = _ring_layers(H, d)[0]
    absent = cube.index(missing_shell_residue(n, d))
    q0_cols = np.zeros(len(cube), dtype=np.intp)
    _, lead, residue, _ = _shell_columns(n, d)
    q0_cols[residue] = lead
    q0_cols[absent] = region.index((n - 1,) * d)
    stop = _first_false(member)
    layers, group = _distinct_rows(rows[:stop, q0_cols])
    chains = [_hat_chain(H, d, k, q0, absent) for q0 in layers.tolist()]
    if not np.array([c is not None for c in chains], dtype=bool)[group].all():
        raise NegativeResult("no 2-periodic layer chain of length %d extends "
                             "this pattern to a checkerboard shell" % k)
    if stop < len(rows):
        raise ValueError("input shell is not 2-periodic (or not a homomorphism)")
    big = _rings(n, k, d)[0]
    out = np.empty((len(rows), len(big)), dtype=np.uint8)
    edges = np.empty((len(rows), 2), dtype=np.intp)
    for g, (edge, chain) in enumerate(chains):
        sel = np.flatnonzero(group == g)
        _, out[sel] = _fill_rows(region, rows[sel], k, chain)
        edges[sel] = edge
    return big, edges, out


def hat_extend(H, a, k):
    """Extend a periodic-shell pattern to a checkerboard-shell one.

    Searches for a chain of 2-periodic ring layers from the input shell to a
    plain checkerboard, each consecutive pair compatible across lattice edges.
    Returns the checkerboard edge together with the extended pattern; the
    preferred edge follows the input's residue values at 0 and e_1, in the
    orientation given by the parity of k.  Raises NegativeResult when the
    exhaustive search finds no chain.
    """
    region, edges, rows = hat_extend_rows(H, a.region, _one_row(a), k)
    return tuple(edges[0].tolist()), Pattern(region, rows[0].tobytes())


def sort_rows(rows):
    """rows, a C-contiguous uint8 array, sorted in place lexicographically
    (as byte strings); returns it.  The extensions of distinct patterns
    are distinct, since each restricts to its input, so sorting them
    gives the canonical order of a PatternSet.view."""
    if rows.shape[1]:
        rows.view("V%d" % rows.shape[1]).sort(axis=0)
    return rows

# ---------------------------------------------------------------------------
# the marker overlap check


def overlap_refutation(maps, spacing, d):
    """Pairwise shifted-overlap check for a family of site->value maps.

    Verifies that for all members a, b and every nonzero offset t with
    sup-norm <= 2*spacing, a and the t-shift of b disagree somewhere on the
    overlap of their domains.  Returns None when every pair is refuted, else
    the first (a_index, b_index, t) whose overlap is consistent (an empty
    overlap counts as consistent).
    """
    offsets = [t for t in itertools.product(range(-2 * spacing, 2 * spacing + 1),
                                            repeat=d)
               if any(c != 0 for c in t)]
    for ai, amap in enumerate(maps):
        for bi, bmap in enumerate(maps):
            for t in offsets:
                consistent = True
                for site, bval in bmap.items():
                    shifted = add(site, t)
                    aval = amap.get(shifted)
                    if aval is not None and aval != bval:
                        consistent = False
                        break
                if consistent:
                    return ai, bi, t
    return None


def verify_marker_spacing(family, spacing_n):
    """Overlap-exclusion check for a pattern family on a common box.

    Returns None when no two members (including a member against its own
    shift) can agree on the overlap at any nonzero offset of sup-norm
    <= 2*spacing_n; otherwise the first consistent (a, b, offset) triple.
    A returned triple is inconclusive as a disproof: it only means this
    pairwise test cannot certify the spacing.
    """
    if len(family) == 0:
        return None
    d = family.region.d
    if d < 2:
        raise ValueError("the overlap-exclusion argument needs d >= 2")
    maps = [p.mapping() for p in family]
    hit = overlap_refutation(maps, spacing_n, d)
    if hit is None:
        return None
    ai, bi, t = hit
    return family[ai], family[bi], t


# ---------------------------------------------------------------------------
# serialization


_RECORD_HEAD = np.frombuffer(b'{"values":[', dtype=np.uint8)
_RECORD_TAIL = np.frombuffer(b"]}\n", dtype=np.uint8)
# Rows encoded per block, so that a block's arrays stay small.
ENCODE_BLOCK = 8192
_DECODE_CHARS = 1 << 18  # pattern-file text split into lines at once


def encode_rows(rows, key="values"):
    """The records '{"<key>":[v,...]}' of the integer rows, one line each,
    with the bytes of canonical_json({key: row}); see record_block."""
    return bytes(record_block(rows, key))


def record_block(rows, key="values"):
    """encode_rows, as a C-contiguous uint8 array of the (n, L) records
    when they share one length L, else as bytes.

    A block of one-digit values, 0 to 9 (as every pattern file on a graph
    of at most ten vertices), has each value and the comma after it
    written as one little-endian 16-bit word, v + 0x2c30, through a
    strided view past the head; the tail then overwrites the last comma.
    Any other block has each value laid out as a comma, a sign column
    when the block holds a negative value, and one column per digit of
    the widest magnitude, the first comma on the head's "[", so every
    byte of the (n, L) output is one plane written by one strided pass.
    A nonnegative value's sign and every leading zero are left NUL, and
    one compress drops them when the values differ in width.
    """
    n, m = rows.shape
    lo, hi = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    head = np.frombuffer(b'{"%s":[' % key.encode(), dtype=np.uint8)
    if rows.size and 0 <= lo and hi <= 9:
        length = len(head) + 2 * m + len(_RECORD_TAIL) - 1
        out = np.empty((n, length), dtype=np.uint8)
        out[:, :len(head)] = head
        pairs = np.ndarray((n, m), dtype="<u2", buffer=out, offset=len(head),
                           strides=(length, 2))
        np.add(rows, np.uint16(ord("0") | ord(",") << 8), out=pairs,
               casting="unsafe")
        out[:, -len(_RECORD_TAIL):] = _RECORD_TAIL
        return out
    same = (lo < 0) == (hi < 0) and len(b"%d" % lo) == len(b"%d" % hi)
    sign = int(lo < 0)
    digits = len(b"%d" % max(-lo, hi))
    width = 1 + sign + digits
    start = len(head) - 1
    stop = start + width * m if m else len(head)
    out = np.empty((n, stop + len(_RECORD_TAIL)), dtype=np.uint8)
    out[:, start:stop:width] = ord(",")
    if sign:
        np.multiply(rows < 0, np.uint8(ord("-")),
                    out=out[:, start + 1:stop:width], casting="unsafe")
        # |v|; the unsigned view reads the wrapped abs of the minimum right
        rows = np.abs(rows).view("u%d" % rows.itemsize)
    out[:, :len(head)] = head
    out[:, stop:] = _RECORD_TAIL
    for k in range(digits):  # the digit of 10**k, last in each value
        plane = out[:, start + width - 1 - k:stop:width]
        high = rows // 10 if k < digits - 1 else None
        np.add(rows if high is None else rows - 10 * high, ord("0"),
               out=plane, casting="unsafe")
        if k and not same:
            np.multiply(plane, rows != 0, out=plane, casting="unsafe")
        rows = high
    return out if same else out.tobytes().translate(None, b"\0")


def pattern_set_jsonl_blocks(ps, H, seed=None):
    """The pattern file in blocks: the header line as bytes, then the
    records of at most ENCODE_BLOCK patterns at a time, as record_block
    gives them (bytes-like objects, written and joined without a copy)."""
    header = {
        "alphabet": list(H.labels),
        "count": len(ps),
        "region": ps.region.kind_descriptor(),
    }
    if ps.meta:
        header["meta"] = {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in ps.meta.items()}
    if seed is not None:
        header["seed"] = seed
    yield json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    for start in range(0, len(ps), ENCODE_BLOCK):
        yield record_block(ps.rows[start:start + ENCODE_BLOCK])


def pattern_set_to_jsonl(ps, H, seed=None):
    """Line-delimited JSON: one header record, then one record per pattern."""
    return b"".join(pattern_set_jsonl_blocks(ps, H, seed)).decode("ascii")


def _record_values(line, letters):
    """The values of one record line, read by json.loads and checked."""
    values = json.loads(line)["values"]
    if not isinstance(values, list):
        raise ValueError("pattern values must be a list, got %r" % (values,))
    values = bytes(values)
    if values and max(values) >= letters:
        raise ValueError("value %d outside the %d-letter alphabet"
                         % (max(values), letters))
    return values


def _grid_records(lines, m, letters):
    """The values of lines that are all canonical records of m one-digit
    values, as an (N, m) uint8 array, or None.

    Every pattern file on a graph of at most ten vertices has such
    records, {"values":[v,...]} with each v a digit below
    min(letters, 10), so its lines have one length and are read as an
    (N, L) byte grid, checked a column class at a time: the head, the
    commas, the digits and the tail.  json.loads reads each such line as
    a record that _record_values accepts, with the same values.  If any
    line has another length or fails a check, None.
    """
    width = len(_RECORD_HEAD) + 2 * m + 1
    if m and all(len(line) == width for line in lines):
        grid = np.frombuffer("".join(lines).encode("utf-8", "replace"),
                             dtype=np.uint8)
        if len(grid) == len(lines) * width:
            grid = grid.reshape(len(lines), width)
            body = grid[:, len(_RECORD_HEAD) - 1:-2]  # "[" and v,v,...,v
            values = body[:, 1::2] - np.uint8(ord("0"))
            if ((grid[:, :len(_RECORD_HEAD)] == _RECORD_HEAD).all()
                    and (body[:, 2::2] == ord(",")).all()
                    and (values < min(letters, 10)).all()
                    and (grid[:, -2:] == _RECORD_TAIL[:2]).all()):
                return values
    return None


def _line_blocks(text):
    """The nonblank lines of text, as text.splitlines() gives them, in
    lists: the text is cut at the first line end past every _DECODE_CHARS
    characters.  Every "\\n" ends a line for str.splitlines, so the cuts
    split no line and join none."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _DECODE_CHARS) + 1 or len(text)
        lines = [ln for ln in text[start:end].splitlines() if ln.strip()]
        if lines:
            yield lines
        start = end


def pattern_set_from_jsonl(text, budget=None):
    """Inverse of pattern_set_to_jsonl; returns (PatternSet, header dict).

    The lines are split a block of text at a time (_line_blocks), and
    the records after the first are read a block at a time, as the
    encoder writes them: a block of one-digit records as one byte grid
    (_grid_records), and any other block a line at a time by json.loads,
    which accepts or rejects each line exactly as it would in the whole
    file; errors come in file order.  A box region is built only once
    the first record has as many values as the box the header states
    has sites, and once its sites are ticked on a BudgetCounter(budget)
    of sites, so that a header stating a huge box raises BudgetError
    before the box is built, with or without records.
    """
    blocks = _line_blocks(text)
    first = next(blocks, None)
    if first is None:
        raise ValueError("empty pattern file")
    header = json.loads(first[0])
    alphabet = header["alphabet"]
    if (not isinstance(alphabet, list)
            or not all(isinstance(a, str) for a in alphabet)):
        raise ValueError("alphabet must be a list of strings, got %r"
                         % (alphabet,))
    records, m, loose, parts = 0, 0, [], []
    for block in itertools.chain([first[1:]], blocks):
        if block and not records:
            loose.append(_record_values(block[0], len(alphabet)))
            records, m, block = 1, len(loose[0]), block[1:]
        if block:
            rows = _grid_records(block, m, len(alphabet))
            if rows is None:
                loose.extend(_record_values(line, len(alphabet))
                             for line in block)
            else:
                parts.append(rows)
            records += len(block)
    size = lattice.descriptor_size(header["region"])
    if records and size is not None and size != m:
        raise ValueError("header region has %d sites but the first record "
                         "has %d values" % (size, m))
    if size is not None:
        BudgetCounter(budget, "site", "pattern-file header region").tick(size)
    region = lattice.region_from_descriptor(header["region"])
    # Pattern checks the length of each loose record; every grid one has
    # m values, as the first record has
    for values in loose:
        Pattern(region, values)
    if "count" in header and header["count"] != records:
        raise ValueError("header count %r but %d records"
                         % (header["count"], records))
    parts.append(np.frombuffer(b"".join(loose), dtype=np.uint8).reshape(
        len(loose), len(region)))
    rows = _distinct_rows(_stack_rows(parts, len(region)))[0]
    return PatternSet.view(region, rows), header
