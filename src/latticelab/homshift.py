"""Graph-homomorphism patterns on boxes of Z^d.

A hom-shift is the space of graph homomorphisms from the Cayley graph of
Z^d to a fixed finite graph H (proper q-colorings when H = K_q).  This
module enumerates such patterns on boxes, builds the checkerboard-boundary
families and their marker refinements, and implements the constructive
extension operations between families: exact-length path extension,
full-support embedding, simultaneous block filling, and extension of
periodic-shell patterns to checkerboard-shell ones.  Every operation's
output can be re-validated from scratch.
"""

import functools
import itertools
import json
import math

import numpy as np

from . import lattice
from .lattice import add, box_F, norm_inf, parity, shell_F, sub, unit
from .util import BudgetCounter, BudgetError, NegativeResult


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
        self._connected = None
        self._bipartite = None
        self._np_matrix = None

    def has_edge(self, u, v):
        return v in self.adj_sets[u]

    def edge_list(self):
        """Unordered edges (u <= v), sorted."""
        out = set()
        for u in range(self.n):
            for v in self.adj[u]:
                out.add((min(u, v), max(u, v)))
        return sorted(out)

    def ordered_edges(self):
        """All ordered pairs (u, v) with an edge, sorted."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u])

    def is_connected(self):
        if self._connected is None:
            if self.n == 0:
                self._connected = True
            else:
                seen = {0}
                stack = [0]
                while stack:
                    u = stack.pop()
                    for v in self.adj[u]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                self._connected = len(seen) == self.n
        return self._connected

    def is_bipartite(self):
        if self._bipartite is None:
            color = {}
            ok = True
            for start in range(self.n):
                if start in color:
                    continue
                color[start] = 0
                stack = [start]
                while stack and ok:
                    u = stack.pop()
                    for v in self.adj[u]:
                        if v == u:
                            ok = False
                            break
                        if v not in color:
                            color[v] = 1 - color[u]
                            stack.append(v)
                        elif color[v] == color[u]:
                            ok = False
                            break
            self._bipartite = ok
        return self._bipartite

    def matrix(self):
        """Boolean adjacency matrix as a numpy array."""
        if self._np_matrix is None:
            m = np.zeros((self.n, self.n), dtype=bool)
            for u in range(self.n):
                for v in self.adj[u]:
                    m[u, v] = True
            self._np_matrix = m
        return self._np_matrix

    def __repr__(self):
        return "TargetGraph(%d vertices, %d edges)" % (self.n, len(self.edge_list()))


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
        vals = bytes(self.value(s) for s in subregion.sites)
        return Pattern(subregion, vals)

    def __eq__(self, other):
        return (isinstance(other, Pattern) and self.region == other.region
                and self.values == other.values)

    def __hash__(self):
        return hash((self.region.sites, self.values))

    def __repr__(self):
        return "Pattern(%s, %s)" % (self.region.kind, list(self.values))


def pattern_from_mapping(region, mapping):
    return Pattern(region, bytes(mapping[s] for s in region.sites))


class PatternSet:
    """A canonically ordered set of patterns sharing one region.

    The patterns live in one read-only N x |region| uint8 array, `rows`,
    one pattern per row in lexicographic order; a Pattern is built from
    its row when it is asked for.  The constructor takes Pattern objects
    and sorts and deduplicates them; PatternSet.view wraps rows that are
    already in that order, as the enumerator produces them.
    """

    def __init__(self, region, patterns, meta=None):
        for p in patterns:
            if p.region != region:
                raise ValueError("pattern region mismatch")
        uniq = sorted(set(p.values for p in patterns))
        rows = np.frombuffer(b"".join(uniq), dtype=np.uint8)
        self._wrap(region, rows.reshape(len(uniq), len(region)), meta)

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

    def __iter__(self):
        region, m, data = self.region, self.rows.shape[1], self.rows.tobytes()
        for i in range(len(self.rows)):
            yield Pattern(region, data[i * m:(i + 1) * m])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(Pattern(self.region, row.tobytes())
                         for row in self.rows[i])
        return Pattern(self.region, self.rows[i].tobytes())


def is_hom(H, pattern):
    """True iff every edge internal to the region maps to an edge of H."""
    values = pattern.values
    adj_sets = H.adj_sets
    for pos, earlier in enumerate(pattern.region.earlier_neighbor_table()):
        allowed = adj_sets[values[pos]]
        for j in earlier:
            if values[j] not in allowed:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration


# Rows a search step extends at once; the rest of a block waits on the stack.
ENGINE_BLOCK = 1024


def _hom_blocks(H, region, root, source, counter, trail=None):
    """The homomorphisms region -> H that follow source, in canonical order.

    Yields uint8 arrays of whole rows (one per homomorphism, one column
    per site), lexicographically sorted when concatenated.  Prefixes grow
    from the row root one site at a time, a block of at most ENGINE_BLOCK
    rows per step: site pos takes every vertex of H (source[pos] == -1),
    the root's value (== pos) or the row's value at site source[pos] < pos,
    if it is adjacent to the row's values at all earlier neighbours.  Blocks
    go depth first, one pending block per site at most.  Each step ticks
    one node per row it extends, as the scalar depth-first search did;
    trail, a list of len(region) slots, gets the last block extended at pos.
    """
    m = len(region)
    adj = H.matrix()
    flat = adj.ravel()
    vertices = np.arange(H.n, dtype=np.uint8)
    earlier = region.earlier_neighbor_table()
    stack = [(0, root.reshape(1, m))]
    while stack:
        pos, rows = stack.pop()
        if pos == m:
            yield rows
            continue
        if len(rows) > ENGINE_BLOCK:
            stack.append((pos, rows[ENGINE_BLOCK:]))
            rows = rows[:ENGINE_BLOCK]
        counter.tick(len(rows))
        if trail is not None:
            trail[pos] = rows
        prev = earlier[pos]
        if source[pos] < 0:
            if prev:
                ok = adj[rows[:, prev[0]]]
                for j in prev[1:]:
                    ok &= adj[rows[:, j]]
            else:
                ok = np.ones((len(rows), H.n), dtype=bool)
            parent, choice = np.nonzero(ok)
            child = rows[parent]
            child[:, pos] = vertices[choice]
        else:
            # flat[v * H.n + u] is adj[v, u]; v is the value source[pos] gives
            offsets = rows[:, source[pos]].astype(np.intp) * H.n
            ok = np.ones(len(rows), dtype=bool)
            for j in prev:
                ok &= flat[offsets + rows[:, j]]
            child = rows[ok]
            child[:, pos] = child[:, source[pos]]
        if len(child):
            stack.append((pos + 1, child))


def _check_boundary(H, region, boundary):
    """The engine's (root, source) for a partial assignment {site: vertex}."""
    root = np.zeros(len(region), dtype=np.uint8)
    source = [-1] * len(region)
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


def _stack_rows(blocks, m):
    blocks = list(blocks)
    return (np.concatenate(blocks) if blocks
            else np.empty((0, m), dtype=np.uint8))


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


class _Tally:
    """A node count that raises BudgetError past a limit, like
    BudgetCounter, for searches whose count is charged afterwards."""

    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def tick(self, amount=1):
        self.nodes += amount
        if self.nodes > self.limit:
            raise BudgetError("search exceeded the node budget")


def first_hom(H, region, fixed, counter):
    """The least completion of fixed to a homomorphism region -> H, as
    bytes, or None when there is none.

    The counter is charged what a scalar depth-first search charges when
    it stops at its first hit: every prefix that comes before the hit in
    depth-first order.  The engine extends whole blocks, so it may look
    at up to one block per site past the hit; those rows are taken off
    again, and the search runs at most that much past the budget.
    """
    m = len(region)
    slack = m * ENGINE_BLOCK
    tally = _Tally(counter.budget - counter.nodes + slack)
    trail = [None] * m
    try:
        hit = next(_hom_blocks(H, region, *_check_boundary(H, region, fixed),
                               tally, trail), None)
    except BudgetError:
        counter.tick(tally.nodes - slack)
        raise
    if hit is None:
        counter.tick(tally.nodes)
        return None
    hit = hit[0]
    past = 0
    for pos, rows in enumerate(trail):
        # rows is sorted and holds hit[:pos] once; the rows after it
        # come after the hit in depth-first order
        at = np.flatnonzero((rows[:, :pos] == hit[:pos]).all(axis=1))[0]
        past += len(rows) - 1 - at
    counter.tick(tally.nodes - past)
    return hit.tobytes()


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


def in_checkerboard(H, pattern, v0, v1):
    """Validator: pattern is a homomorphism with the (v0,v1) shell."""
    _require_edge(H, v0, v1, "checkerboard edge")
    region = pattern.region
    if region.kind[0] != "F":
        return False
    n = region.kind[1]
    if not is_hom(H, pattern):
        return False
    values = pattern.values
    return all(values[i] == (v1 if sum(r) % 2 else v0)
               for r, positions in _shell_classes(n, region.d)
               for i in positions)


def pure_checkerboard(H, v0, v1, n, d):
    """The two-color pattern a_i = v_parity(i) on all of F_n."""
    _require_edge(H, v0, v1, "checkerboard edge")
    region = box_F(n, d)
    vals = bytes((v0 if parity(s) == 0 else v1) for s in region.sites)
    return Pattern(region, vals)


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
def _shell_classes(n, d):
    """The shell of F_n by residue mod 2: (residue, ascending positions in
    F_n of its shell sites) pairs, in lexicographic order of residue."""
    index = box_F(n, d).index
    classes = {}
    for s in shell_F(n, d):
        classes.setdefault(tuple(c % 2 for c in s), []).append(index(s))
    return tuple(sorted((r, tuple(p)) for r, p in classes.items()))


def hat_set(H, n, d, budget=None):
    """Patterns on F_n whose shell is (2Z)^d-periodic: one search, in
    which each shell site is tied to the first shell site of its class."""
    if n < 1:
        raise ValueError("periodic-shell family needs n >= 1")
    region = box_F(n, d)
    source = [-1] * len(region)
    for _, positions in _shell_classes(n, d):
        for i in positions[1:]:
            source[i] = positions[0]
    rows = _stack_rows(_hom_blocks(H, region, np.zeros(len(region), np.uint8),
                                   source, BudgetCounter(budget)), len(region))
    return PatternSet.view(region, rows, {"family": "periodic_shell",
                                          "n": n, "d": d})


def in_hat(H, pattern):
    """Validator: homomorphism whose shell values depend only on site mod 2."""
    region = pattern.region
    if region.kind[0] != "F":
        return False
    n = region.kind[1]
    if n < 1 or not is_hom(H, pattern):
        return False
    values = pattern.values
    return all(len({values[i] for i in positions}) == 1
               for _, positions in _shell_classes(n, region.d))


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


def _reach_tables(H):
    """reach[u][v] = a walk of length L from u to v exists, for L = 0, 1, ..."""
    reach = [[u == v for v in range(H.n)] for u in range(H.n)]
    while True:
        yield reach
        nxt = [[False] * H.n for _ in range(H.n)]
        for u in range(H.n):
            for mid in range(H.n):
                if reach[u][mid]:
                    for v in H.adj[mid]:
                        nxt[u][v] = True
        reach = nxt


def min_universal_path_length(H):
    """Smallest N with a walk of every length >= N between any two vertices."""
    if not H.is_connected() or H.is_bipartite():
        raise ValueError("no such N exists: H must be connected and non-bipartite")
    bound = 4 * H.n * H.n + 4
    tables = itertools.islice(_reach_tables(H), 1, bound + 1)
    for length, reach in enumerate(tables, 1):
        if all(all(row) for row in reach):
            return length
    raise AssertionError("universal walk length not found below %d" % bound)


def lex_walk(H, u, v, length):
    """The lexicographically least walk u -> v of exactly this length, or None."""
    tables = list(itertools.islice(_reach_tables(H), length + 1))
    if not tables[length][u][v]:
        return None
    walk = [u]
    cur = u
    for remaining in range(length, 0, -1):
        for w in H.adj[cur]:
            if tables[remaining - 1][w][v]:
                walk.append(w)
                cur = w
                break
        else:
            raise AssertionError("walk table inconsistent")
    return walk


# ---------------------------------------------------------------------------
# extension operations


def _family_n(pattern, what):
    region = pattern.region
    if region.kind[0] != "F":
        raise ValueError("%s must live on a centered box F_n" % what)
    return region.kind[1]


def path_extend(H, a, source, target, k):
    """Extend a checkerboard-shell pattern by k rings to a new shell edge.

    a must lie in the (source) checkerboard family on F_n; the result lies in
    the (target) family on F_{n+k} and restricts to a on F_n.  Each
    intermediate ring is a checkerboard of two consecutive vertices of a walk
    in H; the walk is the lexicographically least one, for reproducibility.
    """
    v0, v1 = source
    w0, w1 = target
    _require_edge(H, v0, v1, "source edge")
    _require_edge(H, w0, w1, "target edge")
    n = _family_n(a, "path_extend input")
    d = a.region.d
    N = min_universal_path_length(H)
    if k < N + 1:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + 1))
    if not in_checkerboard(H, a, v0, v1):
        raise ValueError("input does not lie in the stated checkerboard family")
    # Walk w[0..k+1]: starts along the source edge, ends along the target
    # edge in the orientation matching the parity of k.
    end = (w0, w1) if k % 2 == 0 else (w1, w0)
    middle = lex_walk(H, v1, end[0], k - 1)
    if middle is None:
        raise AssertionError("no walk of length %d from %d to %d" % (k - 1, v1, end[0]))
    walk = [v0] + middle + [end[1]]
    region = box_F(n + k, d)
    values = bytearray(len(region))
    amap = a.mapping()
    for pos, site in enumerate(region.sites):
        r = norm_inf(site)
        if r <= n:
            values[pos] = amap[site]
        else:
            t = r - n
            values[pos] = walk[t] if parity(site) == t % 2 else walk[t + 1]
    return Pattern(region, bytes(values))


def embed_in_marker(H, a, target, k):
    """Embed an arbitrary box pattern into a checkerboard family.

    a in Hom(F_n, H) is spread over F_{2dn} by the retraction tau_n (so the
    result restricts to a on F_n and has a checkerboard shell), then extended
    k more rings to the requested target edge.  Needs k >= N + d.
    """
    n = _family_n(a, "embed_in_marker input")
    if n < 1:
        raise ValueError("embedding needs n >= 1")
    d = a.region.d
    if not is_hom(H, a):
        raise ValueError("input not a homomorphism")
    N = min_universal_path_length(H)
    if k < N + d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + d))
    big, positions = _retraction_positions(n, d)
    spread = Pattern(big, bytes(a.values[i] for i in positions))
    source = (a.value((0,) * d), a.value(unit(1, d)))
    return path_extend(H, spread, source, target, k)


@functools.lru_cache(maxsize=8)
def _retraction_positions(n, d):
    """F_{2dn}, and for each of its sites the position of tau_n(site) in F_n."""
    big = box_F(2 * d * n, d)
    small = box_F(n, d)
    return big, tuple(small.index(tau_n(site, n)) for site in big.sites)


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
        ki = _family_n(W[i], "block at %r" % (i,))
        if k is None:
            k = ki
        elif ki != k:
            raise ValueError("blocks live on different boxes")
        if not in_checkerboard(H, W[i], v0, v1):
            raise ValueError("block at %r is not in the stated family" % (i,))
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
    region = box_F(n, d)
    values = bytearray(w0 if parity(s) == 0 else w1 for s in region.sites)
    for i in K:
        # Pad the block so its own boundary ring agrees with the ambient
        # checkerboard: the padding target depends on the parity of i.
        block_target = (w0, w1) if parity(i) == 0 else (w1, w0)
        padded = path_extend(H, W[i], (v0, v1), block_target, N + 1)
        for site, val in zip(padded.region.sites, padded.values):
            values[region.index(add(site, i))] = val
    return Pattern(region, bytes(values))


@functools.lru_cache(maxsize=8)
def _ring_layers(H, d):
    """The residue cube {0,1}^d and the values of its homs to H (ring layers)."""
    cube = lattice.rectangle((2,) * d, (-1,) * d)
    return cube, tuple(p.values for p in enumerate_hom(H, cube))


def hat_extend(H, a, k):
    """Extend a periodic-shell pattern to a checkerboard-shell one.

    Searches for a chain of 2-periodic ring layers from the input shell to a
    plain checkerboard, each consecutive pair compatible across lattice edges.
    Returns the checkerboard edge together with the extended pattern; the
    preferred edge follows the input's residue values at 0 and e_1, in the
    orientation given by the parity of k.  Raises NegativeResult when the
    exhaustive search finds no chain.
    """
    n = _family_n(a, "hat_extend input")
    d = a.region.d
    if not in_hat(H, a):
        raise ValueError("input shell is not 2-periodic (or not a homomorphism)")
    if k < 2 * d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, 2 * d))
    # The cube neighbors of a residue are its d single-coordinate flips.
    cube, layer_pool = _ring_layers(H, d)
    residues = cube.sites
    index = cube.index
    flips = cube.neighbor_table()
    absent = missing_shell_residue(n, d)
    q0 = [None] * len(residues)
    for r, positions in _shell_classes(n, d):
        q0[index(r)] = a.values[positions[0]]
    q0[index(absent)] = a.value((n - 1,) * d)
    q0 = tuple(q0)

    def cross_ok(lower, upper, skip=None):
        # Lattice edges between consecutive rings shift the residue by one
        # coordinate: every upper value must be adjacent to all its shifted
        # lower values (the absent class of the inner shell is exempt).
        return all(H.has_edge(lower[i], upper[j]) for i in range(len(residues))
                   if i != skip for j in flips[i])

    zero = index((0,) * d)
    e1 = index((1,) + (0,) * (d - 1))
    preferred = (q0[zero], q0[e1]) if k % 2 == 0 else (q0[e1], q0[zero])
    candidates = ([preferred] if H.has_edge(*preferred) else []) + [
        e for e in H.ordered_edges() if e != preferred]

    skip0 = index(absent)
    par = [parity(r) for r in residues]

    for v0, v1 in candidates:
        goal = tuple(v0 if par[i] == 0 else v1 for i in range(len(residues)))

        def search(chain):
            depth = len(chain) - 1
            if depth == k - 1:
                return chain + [goal] if cross_ok(chain[-1], goal) else None
            skip = skip0 if depth == 0 else None
            for layer in layer_pool:
                if cross_ok(chain[-1], layer, skip=skip):
                    res = search(chain + [layer])
                    if res is not None:
                        return res
            return None

        chain = search([q0])
        if chain is None:
            continue
        region = box_F(n + k, d)
        amap = a.mapping()
        values = bytearray(len(region))
        for pos, site in enumerate(region.sites):
            r = norm_inf(site)
            if r <= n:
                values[pos] = amap[site]
            else:
                values[pos] = chain[r - n][index(tuple(c % 2 for c in site))]
        out = Pattern(region, bytes(values))
        return (v0, v1), out
    raise NegativeResult("no 2-periodic layer chain of length %d extends "
                         "this pattern to a checkerboard shell" % k)


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
# flexible families and entropy per site


class FlexibleFamily:
    """A finite range of pattern families indexed by n, with a gap function."""

    def __init__(self, sets, gap, marker=False):
        self.sets = dict(sets)
        self.gap = gap
        self.marker = marker

    def gap_ratio_nonincreasing(self):
        """Check g(n)/n is nonincreasing over the stored range."""
        ns = sorted(self.sets)
        ratios = [self.gap(n) / n for n in ns if n > 0]
        return all(ratios[i + 1] <= ratios[i] + 1e-12 for i in range(len(ratios) - 1))


def finite_entropy_estimate(family, n):
    """log |C_n| / |F_n| in nats; -inf for an empty family."""
    if isinstance(family, FlexibleFamily):
        if n not in family.sets:
            raise ValueError("family has no patterns stored at n = %d" % n)
        ps = family.sets[n]
    else:
        ps = family
    if len(ps) == 0:
        return float("-inf")
    return math.log(len(ps)) / len(ps.region)


# ---------------------------------------------------------------------------
# serialization


# Each byte value as the JSON text ",<digits>", NUL-padded to four bytes.
_VALUE_TOKENS = np.array([list((",%d" % v).encode().ljust(4, b"\0"))
                          for v in range(256)], dtype=np.uint8)
_RECORD_HEAD = np.frombuffer(b'{"values":[', dtype=np.uint8)
_RECORD_TAIL = np.frombuffer(b"]}\n", dtype=np.uint8)
# Rows encoded per block, so that the block's scratch stays small.
ENCODE_BLOCK = 8192


def _encode_rows(rows):
    """The records '{"values":[v,...]}' of the rows, one line each.

    Every value becomes its token ",<digits>", cut to the width of the
    longest token the rows use; the NUL padding of shorter tokens and the
    comma before each row's first value are then dropped in one pass.
    """
    n, m = rows.shape
    width = len(str(rows.max())) + 1 if rows.size else 1
    tokens = np.ascontiguousarray(_VALUE_TOKENS[:, :width])
    head, tail = len(_RECORD_HEAD), len(_RECORD_TAIL)
    body = slice(head, head + width * m)
    out = np.empty((n, head + width * m + tail), dtype=np.uint8)
    out[:, :head] = _RECORD_HEAD
    out[:, body] = tokens.view("V%d" % width)[rows, 0].view(np.uint8).reshape(
        n, width * m)
    out[:, body.stop:] = _RECORD_TAIL
    keep = out != 0
    if m:
        keep[:, head] = False
    return out[keep].tobytes()


def pattern_set_jsonl_blocks(ps, H, seed=None):
    """The bytes of the pattern file: the header line, then the records
    of at most ENCODE_BLOCK patterns at a time."""
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
        yield _encode_rows(ps.rows[start:start + ENCODE_BLOCK])


def pattern_set_to_jsonl(ps, H, seed=None):
    """Line-delimited JSON: one header record, then one record per pattern."""
    return b"".join(pattern_set_jsonl_blocks(ps, H, seed)).decode("ascii")


def pattern_set_from_jsonl(text):
    """Inverse of pattern_set_to_jsonl; returns (PatternSet, header dict).

    A box region is built only once the first record has as many values
    as the box the header states has sites.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pattern file")
    header = json.loads(lines[0])
    alphabet = header["alphabet"]
    if (not isinstance(alphabet, list)
            or not all(isinstance(a, str) for a in alphabet)):
        raise ValueError("alphabet must be a list of strings, got %r"
                         % (alphabet,))
    records = []
    for ln in lines[1:]:
        values = json.loads(ln)["values"]
        if not isinstance(values, list):
            raise ValueError("pattern values must be a list, got %r"
                             % (values,))
        values = bytes(values)
        if values and max(values) >= len(alphabet):
            raise ValueError("value %d outside the %d-letter alphabet"
                             % (max(values), len(alphabet)))
        records.append(values)
    size = lattice.descriptor_size(header["region"])
    if records and size is not None and size != len(records[0]):
        raise ValueError("header region has %d sites but the first record "
                         "has %d values" % (size, len(records[0])))
    region = lattice.region_from_descriptor(header["region"])
    patterns = [Pattern(region, values) for values in records]
    if "count" in header and header["count"] != len(patterns):
        raise ValueError("header count %r but %d records"
                         % (header["count"], len(patterns)))
    return PatternSet(region, patterns), header
