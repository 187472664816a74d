"""Integer height lifts of proper 3-colorings and window gluing checks.

A proper 3-coloring of a connected region lifts to a height function:
one integer per site, zero at a chosen base, stepping by exactly one
across every lattice edge, and congruent to the coloring mod 3.  The
lift is path-independent because the signed steps around any unit
square cancel.  Heights turn gluing questions about colorings into
integer Lipschitz-extension questions, which is what the window check
below exploits: a steep (striped) center pattern cannot meet a flat
(checkerboard) surround across a thin annulus, and for that pair one
L1 envelope of the forced heights decides whether it can, no search.

The lift, the sampler and the Lipschitz check work on blocks of rows,
one coloring per row in site order, each on two paths: a small block in
Python a row at a time, a large one in numpy, each block taking the
path that costs less.  lift_rows follows a breadth-first sweep from the
base, fixed once per (region, base): a small block, below _WALK_EDGES
rows times edges, goes through a scalar walk over the sweep's edges in
order, and a large one sums the signed steps of the sweep's tree as
arrays and checks every other edge against the sums; the walk on its
first bad row, if any, raises that row's error.  sample_rows draws the
seeded choices of a block of seeds by splitmix64, each seed mixed
first as a Python int on the small path and as an array on the large
one, and fills the sites in raster order as one-hot bytes, each site
one lookup in _PICK_HOT.  lipschitz_rows compares heights with the
distance to the base.  height_cocycle, sample_coloring, lipschitz_check
and quasiflat_gap are their one-row (or one-block) calls, and each batch
call reports its first bad row with the message the one-row call gives.
A HeightField keeps its heights mapping and, as an int array, its row,
which lipschitz_check reads.
"""

import functools

import numpy as np

from . import lattice
from .homshift import Pattern, _distinct_rows, is_hom, enumerate_hom
from .util import _MASK, splitmix64


# signed height step of an edge from color a to color b, at index a + 256 b
# (a little-endian uint16 of the two colors): +1 when b = a + 1 mod 3, -1
# when b = a + 2 mod 3, and 0 for equal colors or a color above 2, so that
# stepping back along an edge always negates the step.
_STEP = np.zeros(1 << 16, dtype=np.int8)
_STEP.reshape(256, 256)[:3, :3] = [[(0, 1, -1)[(b - a) % 3] for a in range(3)]
                                   for b in range(3)]


class HeightField:
    """Heights over a connected region, zero at the base site.

    heights maps each site to its int height.  row is the same heights
    as an int array in the region's site order, aligned with
    region.coords: height_cocycle stores the row it lifted as arrays, and
    a field it walked or one built by hand, HeightField(region, base,
    mapping), derives it from heights on first read, which raises
    KeyError for a site without a height, and keeps it.  Instances built
    by hand may violate the step rule; validate() checks it, and
    height_cocycle only ever returns valid fields.
    """

    def __init__(self, region, base, heights, coloring=None):
        if base not in region:
            raise ValueError("base %r outside the region" % (base,))
        self.region = region
        self.base = base
        self.heights = dict(heights)
        self.coloring = coloring

    @functools.cached_property
    def row(self):
        sites = self.region.sites
        return np.fromiter(map(self.heights.__getitem__, sites), np.int64,
                           len(sites))

    def validate(self):
        """Raise unless base height is zero, steps are unit, mod 3 holds."""
        if self.heights.get(self.base) != 0:
            raise ValueError("height at base %r is not zero" % (self.base,))
        sites = self.region.sites
        for site, nbrs in zip(sites, self.region.neighbor_table().tolist()):
            if site not in self.heights:
                raise ValueError("no height at %r" % (site,))
            h = self.heights[site]
            for j in nbrs:
                if j < 0:
                    continue
                other = self.heights.get(sites[j])
                if other is None:
                    raise ValueError("no height at %r" % (sites[j],))
                if abs(h - other) != 1:
                    raise ValueError("non-unit height step %r -> %r"
                                     % (site, sites[j]))
        if self.coloring is not None:
            c0 = self.coloring.value(self.base)
            for site in self.region:
                if (self.heights[site] - self.coloring.value(site) + c0) % 3:
                    raise ValueError("height at %r does not match the "
                                     "coloring mod 3" % (site,))

    def __repr__(self):
        return "HeightField(%s, base=%s)" % (self.region.kind, self.base)


@functools.lru_cache(maxsize=32)
def _sweep(region, base):
    """The breadth-first sweep of region from base, fixed once per pair.

    Returns (edges, walk, arrive, detours, missing).  edges lists the
    region's edges that the sweep reaches as (i, j, tree) triples of two
    positions and a flag, each oriented and ordered as the sweep first
    crosses it, tree true when the edge is the first to reach j, so that
    it joins j to the sweep's tree; missing counts the sites it never
    reaches.  walk is a closed walk from the base as flat (from, to)
    position pairs: a loop at the base, then an Euler tour of the
    sweep's tree that, on arriving at a site i, steps out and back along
    each edge (i, j) of edges outside the tree.
    Summing a coloring's signed steps along the walk, the prefix sum at
    position arrive[s] is the height of site s (0 for the base and for
    unreached sites), and at position detours[0][t] it is what the edge
    (i, j) of the t-th detour says the height of j is; that height is
    the prefix sum at detours[1][t].
    """
    table = [[j for j in row if j >= 0]
             for row in region.neighbor_table().tolist()]
    start = region.index(base)
    rank = [None] * len(region)
    rank[start] = 0
    order = [start]
    children = [[] for _ in range(len(region))]
    others = [[] for _ in range(len(region))]
    edges = []
    for i in order:
        for j in table[i]:
            tree = rank[j] is None
            if tree:
                rank[j] = len(order)
                order.append(j)
                children[i].append(j)
            elif rank[j] > rank[i]:
                others[i].append(j)
            else:
                continue  # crossed from j's side already
            edges.append((i, j, tree))
    walk = [start, start]
    arrive = [0] * len(region)
    detours = []

    def step_out(i):
        for j in others[i]:
            detours.append((len(walk) // 2, j))
            walk.extend((i, j, j, i))

    step_out(start)
    stack = [(start, iter(children[start]))]
    while stack:
        i, below = stack[-1]
        j = next(below, None)
        if j is None:
            stack.pop()
            if stack:
                walk.extend((i, stack[-1][0]))
        else:
            arrive[j] = len(walk) // 2
            walk.extend((i, j))
            step_out(j)
            stack.append((j, iter(children[j])))
    detours = tuple(np.array([[t for t, _ in detours],
                              [arrive[j] for _, j in detours]],
                             dtype=np.intp).reshape(2, len(detours)))
    return (tuple(edges), np.array(walk), np.array(arrive), detours,
            len(region) - len(order))


def check_base(region, base):
    """Raise ValueError unless region has heights zero at base: an empty
    region, or a base outside it."""
    if region.d is None:
        raise ValueError("empty region has no heights")
    if base not in region:
        raise ValueError("base %r outside the region" % (base,))


def lift_rows(region, base, colors):
    """The heights of N colorings of region, zero at base.

    colors is an N x |region| uint8 array, one coloring per row in site
    order; the result is an N x |region| int32 array.  The heights are
    the sums of the steps +1 (color up by 1 mod 3) and -1 (up by 2) along
    the breadth-first tree from the base, and every other edge the sweep
    reaches must then step by its own color change.  Raises ValueError
    for an empty region, a base outside the region, or the first row
    that has no height field (a color above 2, equal colors across an
    edge, a sweep conflict or a disconnected region), with the message
    height_cocycle gives that row.
    """
    check_base(region, base)
    if (not isinstance(colors, np.ndarray) or colors.dtype != np.uint8
            or colors.shape[1:] != (len(region),)):
        raise ValueError("colorings must be uint8 rows of width %d"
                         % len(region))
    return _lift(region, base, colors)


def _lift(region, base, colors):
    """lift_rows on a base and a block of rows it has checked.

    A block of fewer than _WALK_EDGES row edges goes through _walk a row
    at a time.  A larger one sums the steps along the sweep's closed
    walk as arrays, and only its first bad row, if any, goes through
    _walk, which raises that row's error.
    """
    if _walks(region, base, len(colors)):
        heights = [_walk(region, base, row) for row in colors.tolist()]
        return np.array(heights, dtype=np.int32).reshape(colors.shape)
    edges, walk, arrive, detours, missing = _sweep(region, base)
    steps = _STEP.take(colors.take(walk, axis=1).view("<u2"))
    sums = np.add.accumulate(steps, axis=1, dtype=np.int32)
    # each row has one zero step, the loop at the base; any other is an
    # edge between equal colors or from a color above 2.  Such a color
    # makes none only at a base without neighbors: the whole region, or
    # one that leaves sites missing.
    broken = (steps.size - np.count_nonzero(steps) > len(colors)
              or np.count_nonzero(sums.take(detours[0], axis=1)
                                  != sums.take(detours[1], axis=1)))
    if len(colors) and (broken or missing
                        or not edges and colors.max() > 2):
        _raise_first_bad_row(region, base, colors, steps, sums)
    return sums.take(arrive, axis=1)


# A block of rows goes through _walk when rows x edges is below _WALK_EDGES.
# The walk costs one Python step per row and edge, about 0.12 us on a 2-core
# Xeon VM; the array lift about 7 us for a block of a few rows.  A one-row
# height_cocycle, whose walk builds no arrays, breaks even near 64 to 84
# edges on boxes in d = 1..3, a lift_rows block, whose walk converts its
# heights to an array, near 30 to 40 row edges.  So a one-row lift of F_2
# (40 edges) or F_1 in d = 3 (54) walks, one of F_3 (84) or F_5 (220)
# takes the arrays, and so does every block of the command line but the
# last few rows of a file or a handful of samples.
_WALK_EDGES = 64


def _walks(region, base, rows):
    """True when a block of rows colorings lifts through _walk."""
    return rows * len(_sweep(region, base)[0]) < _WALK_EDGES


# the height step of an edge from color a to color b, at 3 * a + b
_WALK_STEP = tuple((0, 1, -1)[(b - a) % 3] for a in range(3)
                   for b in range(3))


def _walk(region, base, values):
    """The heights of one coloring, values its colors in site order, as a
    list in site order.

    The scalar sweep: colors must lie in {0, 1, 2}; then, along the
    sweep's edges in order, each tree edge sets the height of the site
    it reaches from its parent's by the edge's step, and every other
    edge must step by the same amount between the heights set so far.
    Raises height_cocycle's error at the first failure, and then for a
    region the sweep does not cover.
    """
    if max(values) > 2:
        raise ValueError("colors must lie in {0, 1, 2}")
    edges, *_, missing = _sweep(region, base)
    heights = [0] * len(values)
    for i, j, tree in edges:
        step = _WALK_STEP[3 * values[i] + values[j]]
        if not step:
            raise ValueError("equal colors %d across an edge: improper "
                             "coloring" % values[i])
        if tree:
            heights[j] = heights[i] + step
        elif heights[j] != heights[i] + step:
            raise ValueError("not a valid 3-coloring height at %r"
                             % (region.sites[j],))
    if missing:
        raise ValueError("region is disconnected: %d of %d sites "
                         "unreachable from %r" % (missing, len(region), base))
    return heights


def _raise_first_bad_row(region, base, colors, steps, sums):
    """Raise height_cocycle's error for the first row without heights.

    That row is the first with a zero step past the base's loop, a color
    above 2 or a detour its sums disagree with, or the first row of a
    region the sweep does not cover; _walk raises its error.
    """
    detours, missing = _sweep(region, base)[3:]
    bad = (~steps[:, 1:].all(axis=1) | (colors.max(axis=1) > 2)
           | (sums.take(detours[0], axis=1)
              != sums.take(detours[1], axis=1)).any(axis=1))
    r = 0 if missing else int(bad.argmax())
    _walk(region, base, colors[r].tolist())
    raise AssertionError("row %d lifts by the walk but not by its sums" % r)


def height_cocycle(x, base):
    """Lift the proper 3-coloring x to its height field, zero at base.

    The one-row call of lift_rows: raises for improper colorings, a
    disconnected region, a base outside the region, or a sweep conflict
    (impossible for a proper coloring of a simply connected region).
    """
    region = x.region
    check_base(region, base)
    if _walks(region, base, 1):
        heights = _walk(region, base, x.values)
        return HeightField(region, base, zip(region.sites, heights), x)
    row = np.frombuffer(x.values, dtype=np.uint8).reshape(1, len(region))
    row = _lift(region, base, row)[0]
    field = HeightField(region, base, zip(region.sites, row.tolist()), x)
    field.row = row
    return field


@functools.lru_cache(maxsize=32)
def _distances(region, base):
    """||s - base||_1 for every site s of region, in site order."""
    return np.abs(region.coords - base).sum(axis=1)


def lipschitz_rows(region, base, heights):
    """The first row breaking the height bound, as (row, site, height, bound).

    heights is an N x |region| array of heights relative to base.  Returns
    None when |height| <= ||site - base||_1 at every site of every row,
    else the first row that breaks it and its first offending site in
    canonical site order.  Every lift of a coloring of a box passes.
    """
    bound = _distances(region, base)
    over = np.abs(heights) > bound
    if not over.any():
        return None
    r = int(over.any(axis=1).argmax())
    j = int(over[r].argmax())
    return r, region.sites[j], heights[r, j].item(), int(bound[j])


def lipschitz_check(field):
    """First site whose height exceeds its path distance from the base.

    Returns None when |heights[i]| <= ||i - base||_1 everywhere, else
    the first offending (site, height, bound) in canonical site order.
    Every field produced by height_cocycle on a box passes; a field
    built by hand with a site missing raises KeyError for it.
    """
    region, row = field.region, field.row
    row = row - row[region.index(field.base)]
    hit = lipschitz_rows(region, field.base, row.reshape(1, -1))
    return None if hit is None else hit[1:]


# util.splitmix64's constants as uint64 scalars, built once
_GAMMA, _MUL1, _MUL2, _S30, _S27, _S31 = map(np.uint64, (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31))


def _splitmix64(x):
    """util.splitmix64 on a uint64 array, in place (it wraps as the scalar
    masks); returns x."""
    x += _GAMMA
    x ^= x >> _S30
    x *= _MUL1
    x ^= x >> _S27
    x *= _MUL2
    x ^= x >> _S31
    return x


def _pick_hot(mask, r):
    free = [c for c in range(3) if not mask >> c & 1]
    return 1 << free[r % len(free)] if free else 8


# _PICK_HOT[16 * r + mask]: the color of a site, as one set bit 1 << c, when
# its earlier neighbors hold the one-hot colors OR'd in mask and
# r = counter_rng(seed, pos) % 6; 8 when none is free.  r mod 6 fixes r mod k
# for each possible number k = 1, 2, 3 of free colors.  Bit 3 marks a
# neighbor outside the region (the pad byte 8 at position -1) or a blocked
# one; it frees nothing.  Entries 96 to 111 give back the mask itself, for
# the partial ORs of a site with more than two earlier neighbors (_plan).
# Both sampler paths read this one table, as bytes or as an array.
_PICK_HOT = bytes([_pick_hot(mask, r) for r in range(6) for mask in range(16)]
                  + list(range(16)))
_PICK_HOT_ARRAY = np.frombuffer(_PICK_HOT, dtype=np.uint8)
_PARTIAL_KEYS = bytes([96])  # the key of the scratch slot m
_COLORS = bytes.maketrans(b"\1\2\4", b"\0\1\2")

# A block of seeds takes whichever sampler path costs less.  The scalar loop
# takes one _plan step per seed and site.  _fill_sites takes d + 1 numpy
# calls per site whatever the number of seeds (an OR per earlier-neighbor
# column, then the take), and one such call costs about _CALL_STEPS plan
# steps.  So a block goes to _fill_sites once len(seeds) * len(_plan) reaches
# _CALL_STEPS * (d + 1) * |region|: 18 seeds in d = 1, 27 in d = 2, 24 on
# F_2 in d = 3 and 26 on F_1 in d = 4, each near the crossover measured there.
_CALL_STEPS = 9


@functools.lru_cache(maxsize=32)
def _plan(region):
    """The scalar sampler's steps on region, fixed once per region.

    A tuple of (to, a, b) position triples, one per site in raster order,
    each setting hot[to] = _PICK_HOT[key[to] | hot[a] | hot[b]] where a
    and b are the site's earlier neighbors (-1, the pad, for a missing
    one).  A site with more than two earlier neighbors first ORs them
    into the scratch slot m, whose key is 96, two at a time.
    """
    m = len(region)
    steps = []
    for pos, column in enumerate(region.earlier_neighbor_table().tolist()):
        nbrs = [j for j in column if j >= 0]
        nbrs += [-1] * (2 - len(nbrs))
        while len(nbrs) > 2:
            steps.append((m, nbrs[0], nbrs[1]))
            nbrs = [m] + nbrs[2:]
        steps.append((pos, *nbrs))
    return tuple(steps)


def sample_rows(region, seeds):
    """One sampled 3-coloring of region per seed, as a uint8 array.

    Row i is sample_coloring(region, seeds[i]).  The seeded draws are
    util.counter_rng's, bit for bit: each seed is mixed once by
    splitmix64, as a Python int by util.splitmix64 on the small path and
    as an array on the large one, and the mixed seeds plus the cached
    counters 0..m-1 are mixed again by one in-place array splitmix64.
    Both paths keep the filled sites as one-hot bytes 1, 2 and 4, with
    the pad byte 8 at position -1, and give each site its one-hot color
    by one lookup in _PICK_HOT at 16 * draw OR'd with its earlier
    neighbors' bytes.  A small block (every sample_coloring call) fills
    its rows one at a time in a Python loop over the region's _plan, and
    maps them back to colors 0, 1 and 2 with one bytes.translate; a
    large one, where that loop would cost more (see _CALL_STEPS), fills
    a site at a time for every seed at once (_fill_sites).  Both give
    the same rows and raise for the first blocked seed, at its first
    blocked site.
    """
    seeds = [s & _MASK for s in seeds]
    m = len(region)
    steps, table = _plan(region), region.earlier_neighbor_table()
    large = len(seeds) * len(steps) >= _CALL_STEPS * (table.shape[1] + 1) * m
    if large:
        mixed = _splitmix64(np.array(seeds, dtype=np.uint64))
    else:
        mixed = np.array([splitmix64(s) for s in seeds], dtype=np.uint64)
    draws = _splitmix64(mixed[:, None] + _counters(m))
    keys = np.remainder(draws, 6, out=draws).astype(np.uint8) << 4
    if large:
        return _fill_sites(region, keys)
    keys, pick, rows = keys.tobytes(), _PICK_HOT, []
    for i in range(len(seeds)):
        key = keys[i * m:(i + 1) * m] + _PARTIAL_KEYS
        hot = bytearray(m + 1) + b"\10"
        for to, a, b in steps:
            hot[to] = pick[key[to] | hot[a] | hot[b]]
        pos = hot.find(8, 0, m)
        if pos >= 0:
            _raise_blocked(region, pos)
        rows.append(hot[:m])
    rows = b"".join(rows).translate(_COLORS)
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(seeds), m)


@functools.lru_cache(maxsize=32)
def _counters(m):
    """The counters 0..m-1 of a row's draws, as a read-only uint64 array."""
    counters = np.arange(m, dtype=np.uint64)
    counters.flags.writeable = False
    return counters


def _fill_sites(region, keys):
    """sample_rows on a large block, keys its N x m array of 16 * draw.

    Keeps the filled sites as one-hot bytes, an m x N array with the pad
    row 8 after them at position -1; a site's colors come from one take
    of _PICK_HOT at the OR of its earlier neighbors' rows and its keys.
    A blocked site reads 8, which later sites take as the pad: the rows
    up to each seed's first blocked site are the scalar loop's.
    """
    m = len(region)
    hot = np.empty((m + 1, len(keys)), dtype=np.uint8)
    hot[m] = 8
    index = np.empty(len(keys), dtype=np.intp)
    keys = np.ascontiguousarray(keys.T)
    for pos, column in enumerate(region.earlier_neighbor_table().tolist()):
        np.bitwise_or(keys[pos], hot[column[0]], out=index)
        for j in column[1:]:
            index |= hot[j]
        _PICK_HOT_ARRAY.take(index, out=hot[pos])
    blocked = hot[:m] == 8
    if blocked.any():
        seed = int(blocked.any(axis=0).argmax())
        _raise_blocked(region, int(blocked[:, seed].argmax()))
    return np.ascontiguousarray(hot[:m].T) >> 1  # 1, 2, 4 -> 0, 1, 2


def _raise_blocked(region, pos):
    raise RuntimeError("sampler blocked at %r: all colors used by neighbors"
                       % (region.sites[pos],))


def sample_coloring(region, seed):
    """A random proper 3-coloring, filled in raster order.

    Each site takes a seeded uniform choice among the colors its
    already-assigned neighbors leave free; on a box in one or two
    dimensions at most two neighbors are assigned, so a free color
    always exists.  Reproducible for a fixed seed, not uniform over
    all colorings.  The one-row call of sample_rows.
    """
    return Pattern(region, sample_rows(region, (seed,))[0].tobytes())


def striped_coloring(region):
    """The maximal-slope coloring: coordinate sum mod 3."""
    return Pattern(region, bytes((region.coords.sum(axis=1) % 3).tolist()))


def checker_coloring(region):
    """The flat coloring: site parity, colors 0 and 1 only."""
    return Pattern(region, bytes((region.coords.sum(axis=1) % 2).tolist()))


def quasiflat_gap(samples, displacements):
    """Largest height difference between two samples at one displacement.

    All samples must be proper colorings of one region containing the
    origin; heights are taken with base at the origin.  The result is
    max over ordered sample pairs (y, y') and displacements i of
    height_{y'}(i) - height_y(i) - a lower bound for the corresponding
    supremum of any coloring family containing the samples.
    """
    samples = list(samples)
    if not samples:
        return 0
    region = samples[0].region
    base = (0,) * region.d
    if base not in region:
        raise ValueError("region must contain the origin")
    for p in samples:
        if p.region != region:
            raise ValueError("samples live on different regions")
    displacements = list(displacements)
    for i in displacements:
        if i not in region:
            raise ValueError("displacement %r outside the region" % (i,))
    rows = np.frombuffer(b"".join(p.values for p in samples), dtype=np.uint8)
    heights = lift_rows(region, base, rows.reshape(len(samples), len(region)))
    cols = heights[:, [region.index(i) for i in displacements]]
    if not cols.size:
        return 0
    return max(0, int((cols.max(axis=0) - cols.min(axis=0)).max()))


def _is_k3(H):
    return (H.n == 3 and all(H.has_edge(u, v)
                             for u in range(3) for v in range(3) if u != v))


def _window_regions(M, n, buffer, d):
    box = lattice.box_F(n + M + buffer, d)
    inner = lattice.box_F(n, d)
    ring = lattice.Region(box.coords[np.abs(box.coords).max(axis=1) > n + M])
    return box, inner, ring


# the height of a grid site that is no anchor of an envelope
_FAR = np.iinfo(np.int64).min // 4


def _envelope(h):
    """max over anchors a of h[a] - |w - a|_1, at every site w of the grid
    h.  L1 splits by axis: on a line, the anchors at or before w give the
    running max of h[a] + a, less w, and those at or after w the running
    max from the far end of h[a] - a, plus w."""
    for axis in range(h.ndim):
        index = np.arange(h.shape[axis]).reshape(
            [-1 if t == axis else 1 for t in range(h.ndim)])
        ahead = np.maximum.accumulate(h + index, axis=axis) - index
        behind = np.flip(np.maximum.accumulate(
            np.flip(h - index, axis=axis), axis=axis), axis=axis) + index
        h = np.maximum(ahead, behind)
    return h


def _lipschitz_glue(H, box, x, y):
    """The gluing of the striped center x and the checker ring y on box,
    or None when there is none.

    x has heights sum(u) and y the heights parity(v) + shift, for any
    shift in 6Z (multiples of 3 keep the colors, even ones the parity
    of the steps).  A gluing exists exactly when some shift keeps every
    center and ring pair 1-Lipschitz in L1.  Necessary: a proper
    3-coloring of the box lifts to heights stepping by one across every
    edge, 1-Lipschitz in the box's path distance, which is L1, and equal
    on x and y to the heights above at one shift.  Sufficient: McShane's
    least extension, the max over anchors a of h[a] - |w - a|_1, keeps
    every anchor, has the parity of sum(w) and so steps by one across
    every edge, and reads off mod 3 as a proper coloring extending both.
    The shifts form [lo, hi]: lo is the max over ring sites v of the
    center's lower envelope at v less parity(v), hi the min of its upper
    envelope less parity(v).  The gluing, at the least shift in 6Z, is
    validated; one that fails is a bug.
    """
    shape = (2 * box.kind[1] + 1,) * box.d
    heights = box.coords.sum(axis=1)
    parities = heights % 2
    center = box.positions(x.region.coords)
    ring = box.positions(y.region.coords)

    def envelope(positions, values):
        anchors = np.full(len(box), _FAR, dtype=np.int64)
        anchors[positions] = values
        return _envelope(anchors.reshape(shape)).ravel()

    lo = (envelope(center, heights[center])[ring] - parities[ring]).max()
    hi = (-envelope(center, -heights[center])[ring] - parities[ring]).min()
    shift = 6 * -(-lo // 6)
    if shift > hi:
        return None
    glued = envelope(np.concatenate([center, ring]), np.concatenate(
        [heights[center], parities[ring] + shift]))
    glued = Pattern(box, (glued % 3).astype(np.uint8).tobytes())
    if (not is_hom(H, glued)
            or glued.restrict(x.region).values != x.values
            or glued.restrict(y.region).values != y.values):
        raise RuntimeError("the height gluing of the %r window does not "
                           "extend its center and ring" % (box.kind,))
    return glued


def ufp_window_check(H, M, n, buffer=1, mode="targeted", d=2, budget=None):
    """Can every center pattern meet every surround across a margin M?

    Window version of the uniform filling property on the box
    F_{n+M+buffer}: the center F_n and the outer ring (sup-norm above
    n+M) are fixed, and a gluing is a hom on the whole box extending
    both.  Returns None when every tested pair glues, else the first
    failing (center_pattern, ring_pattern).

    mode "targeted" (K3 only, d=2) tests the single extreme pair -
    striped center against checkerboard ring - by one height
    computation: the pair glues exactly when the interval of ring
    offsets that keep the heights 1-Lipschitz holds a multiple of 6
    (see _lipschitz_glue).  It searches nothing, so it ticks no nodes
    and never runs out of budget.  mode "exhaustive" tests every pair
    of restrictions of full-box homs, centers then rings in
    lexicographic order, off one enumeration of the box: a pair glues
    exactly when some row restricts to it.  The budget counts that
    enumeration's nodes; sizes beyond a few sites explode, and the
    guard raises.
    """
    if M < 0:
        raise ValueError("margin M must be >= 0, got %r" % (M,))
    if n < 1:
        raise ValueError("center radius n must be >= 1, got %r" % (n,))
    if buffer < 1:
        raise ValueError("buffer must be >= 1, got %r" % (buffer,))
    if mode == "targeted":
        if not _is_k3(H):
            raise ValueError("targeted mode needs the complete graph on "
                             "three vertices")
        if d != 2:
            raise ValueError("targeted mode is two-dimensional")
        box, inner, ring = _window_regions(M, n, buffer, d)
        x = striped_coloring(inner)
        y = checker_coloring(ring)
        if _lipschitz_glue(H, box, x, y) is not None:
            return None
        return (x, y)
    if mode == "exhaustive":
        box, inner, ring = _window_regions(M, n, buffer, d)
        rows = enumerate_hom(H, box, budget=budget).rows
        centers, cid = _distinct_rows(rows[:, box.positions(inner.coords)])
        rings, rid = _distinct_rows(rows[:, box.positions(ring.coords)])
        # pair k = (centers[k // R], rings[k % R]) glues iff some row has it;
        # the first missing pair is the number of codes k equal to their index
        glued = np.unique(cid * len(rings) + rid)
        k = np.count_nonzero(glued == np.arange(len(glued)))
        if k == len(centers) * len(rings):
            return None
        return (Pattern(inner, centers[k // len(rings)].tobytes()),
                Pattern(ring, rings[k % len(rings)].tobytes()))
    raise ValueError("mode must be 'targeted' or 'exhaustive', got %r"
                     % (mode,))
