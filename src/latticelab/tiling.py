"""Perfect tilings of boxes by rectangular prototiles.

A tile set is a finite list of d-dimensional rectangular prototiles.  With
coprime side projections, rectangles whose sides are multiples of M (the
product of all side lengths) or have one long side are always tileable; box
complements split into such rectangles; prescribed sub-tilings can be
realized simultaneously inside a larger box; and for tile sets with at
least two prototiles there is a marker family of box tilings recognizable
by two single-tile boundary rings.

Any region, rectangle or not, is counted exactly by a frontier dynamic
program over its sites in lexicographic order, with the region's axes
first ordered by bounding-box side, longest first (ties in their order),
so that the frontier spans the shorter sides: a 2 x L and an L x 2 strip
both carry a 2-site frontier.  find_tiling walks the same states depth
first in the same frame, and the walk alone decides: it remembers its
dead states, so it expands each state at most once and ticks the budget
as it does, and a walk that runs out of states is a certified negative.
The tiling it finds is the first one in prototile order in that frame,
mapped back to the caller's axes.
"""

import itertools
import math

import numpy as np

from . import lattice
from .lattice import box_B, rectangle
from .util import BudgetCounter


class TileSet:
    """A finite list of rectangular prototiles, in declaration order."""

    def __init__(self, protos):
        protos = tuple(tuple(int(c) for c in p) for p in protos)
        if not protos:
            raise ValueError("empty tile set")
        d = len(protos[0])
        lattice.check_dim(d)
        for p in protos:
            if len(p) != d:
                raise ValueError("mixed prototile dimensions")
            if any(c < 1 for c in p):
                raise ValueError("prototile sides must be positive")
        if len(set(protos)) != len(protos):
            raise ValueError("duplicate prototiles")
        self.protos = protos
        self.d = d
        self.M = math.prod(c for p in protos for c in p)
        self.coord_gcds = tuple(math.gcd(*(p[t] for p in protos)) if len(protos) > 1
                                else protos[0][t]
                                for t in range(d))

    def __len__(self):
        return len(self.protos)

    def __eq__(self, other):
        return isinstance(other, TileSet) and self.protos == other.protos

    def __repr__(self):
        return "TileSet(%s)" % (self.protos,)


def dominoes():
    return TileSet([(1, 2), (2, 1)])


TILE_PRESETS = {
    "dominoes": lambda: dominoes(),
    "dominoes3": lambda: TileSet([(1, 1, 2), (1, 2, 1), (2, 1, 1)]),
    "squares23": lambda: TileSet([(2, 2), (3, 3)]),
    "bars235": lambda: TileSet([(2, 1), (3, 1), (5, 1)]),
}


def tile_preset(name):
    if name not in TILE_PRESETS:
        raise ValueError("unknown tile preset %r (have %s)"
                         % (name, ", ".join(sorted(TILE_PRESETS))))
    return TILE_PRESETS[name]()


def is_coprime(F):
    """True iff every coordinate projection of the tile set has gcd 1."""
    return all(g == 1 for g in F.coord_gcds)


class Tiling:
    """Placements (proto index, offset); each tile occupies offset + {1..dims}."""

    def __init__(self, tiles, region, placements):
        self.tiles = tiles
        self.region = region
        self.placements = tuple(sorted((int(p), tuple(o)) for p, o in placements))

    def tile_sites(self, placement):
        p, o = placement
        dims = self.tiles.protos[p]
        return [tuple(o[t] + x[t] for t in range(len(dims)))
                for x in itertools.product(*(range(1, c + 1) for c in dims))]

    def _covers_exactly(self):
        """Whether the tiles cover the region exactly, by one array check:
        as many cells as sites, each cell at a position of the region
        (Region.positions) and each position hit once.  False also when
        an offset, a proto index or a cell is outside what the check
        reads (an int64 offset of d coordinates, an index into the set)."""
        protos, region = self.tiles.protos, self.region
        index = [p for p, _ in self.placements]
        if not index:
            return not len(region)
        if not all(0 <= p < len(protos) for p in index):
            return False
        counts = np.bincount(index, minlength=len(protos)).tolist()
        if sum(k * math.prod(dims)
               for k, dims in zip(counts, protos)) != len(region):
            return False
        try:
            offsets = np.array([o for _, o in self.placements], dtype=np.int64)
        except (OverflowError, ValueError):
            return False
        if offsets.shape != (len(index), self.tiles.d):
            return False
        cells, at = [], 0
        for k, dims in zip(counts, protos):
            block = offsets[at:at + k]  # the placements are sorted by proto
            at += k
            if not k:
                continue
            if (block > np.iinfo(np.int64).max - np.array(dims)).any():
                return False
            box = np.indices(dims).reshape(len(dims), -1).T + 1
            cells.append((block[:, None, :] + box).reshape(-1, len(dims)))
        pos = region.positions(np.concatenate(cells))
        return bool((pos >= 0).all()
                    and (np.bincount(pos, minlength=len(region)) == 1).all())

    def _walk_sites(self):
        """validate by walking the placements site by site: the error of
        the first overlap, site outside the region or uncovered site, in
        placement order."""
        seen = {}
        for pl in self.placements:
            for s in self.tile_sites(pl):
                if s in seen:
                    raise ValueError("tiles %r and %r overlap at %r"
                                     % (seen[s], pl, s))
                if s not in self.region:
                    raise ValueError("tile %r leaves the region at %r" % (pl, s))
                seen[s] = pl
        if len(seen) != len(self.region):
            missing = next(s for s in self.region.sites if s not in seen)
            raise ValueError("site %r is uncovered" % (missing,))
        return True

    def validate(self):
        """Exact cover: placements disjoint, union equals the region.

        One array check (_covers_exactly) accepts an exact cover; only
        when it does not are the sites walked (_walk_sites), which raises
        the error of the first fault."""
        return self._covers_exactly() or self._walk_sites()

    def mapping(self):
        """site -> (proto index, position within the tile); the overlap label."""
        out = {}
        for pl in self.placements:
            p, o = pl
            for s in self.tile_sites(pl):
                out[s] = (p, lattice.sub(s, o))
        return out

    def restrict_equals(self, offset, other):
        """True iff this tiling, shifted back by offset, equals `other` on its region."""
        own = self.mapping()
        for s, label in other.mapping().items():
            if own.get(lattice.add(s, offset)) != (label[0], label[1]):
                return False
        # tile boundaries must match too: every tile of `other` must be a
        # whole tile here, which the label comparison already enforces.
        return True

    def __eq__(self, other):
        return (isinstance(other, Tiling) and self.region == other.region
                and self.placements == other.placements
                and self.tiles == other.tiles)

    def __hash__(self):
        return hash((self.region, self.placements))

    def __repr__(self):
        return "Tiling(%d tiles on %s)" % (len(self.placements), self.region.kind)


# ---------------------------------------------------------------------------
# Frobenius decomposition


def frobenius_decompose(lengths, L):
    """Write L as a nonnegative combination of the given lengths.

    Canonical output: minimize the number of summands, then take the
    lexicographically least count vector (lengths ascending).  Returns
    {length: count} or None when L is not representable.  Representable is
    guaranteed for L >= the product of all lengths when their gcd is 1.
    """
    uniq = sorted(set(int(x) for x in lengths))
    if not uniq or any(x < 1 for x in uniq):
        raise ValueError("lengths must be positive")
    if L < 0:
        raise ValueError("target must be nonnegative")
    g = math.gcd(*uniq)
    if g != 1:
        raise ValueError("tile set not coprime in this coordinate (gcd %d)" % g)
    NONE = None
    best = [NONE] * (L + 1)
    best[0] = (0, (0,) * len(uniq))
    for total in range(1, L + 1):
        cand = NONE
        for pos, x in enumerate(uniq):
            if total - x >= 0 and best[total - x] is not NONE:
                cnt, vec = best[total - x]
                new = list(vec)
                new[pos] += 1
                entry = (cnt + 1, tuple(new))
                if cand is NONE or entry < cand:
                    cand = entry
        best[total] = cand
    if best[L] is NONE:
        return None
    _, vec = best[L]
    return {x: c for x, c in zip(uniq, vec) if c > 0}


# ---------------------------------------------------------------------------
# rectangle tiling


def _proto_fits_grid(proto, lo, hi):
    return all((hi[t] - lo[t] + 1) % proto[t] == 0 for t in range(len(proto)))


def _grid_placements(proto_idx, proto, lo, hi):
    """Grid-tile the box [lo, hi] by one prototile; sides must divide spans."""
    if not _proto_fits_grid(proto, lo, hi):
        t, span = next((t, hi[t] - lo[t] + 1) for t in range(len(proto))
                       if (hi[t] - lo[t] + 1) % proto[t])
        raise ValueError("prototile %r does not divide span %d on axis %d"
                         % (proto, span, t + 1))
    steps = [range(lo[t] - 1, hi[t], proto[t]) for t in range(len(proto))]
    return [(proto_idx, o) for o in itertools.product(*steps)]


def _long_axis(dims, N, M):
    """The first axis whose side is >= N while the other sides are
    multiples of M, or None."""
    for axis in range(len(dims)):
        if dims[axis] >= N and all(dims[t] % M == 0
                                   for t in range(len(dims)) if t != axis):
            return axis
    return None


def tile_rectangle(F, dims):
    """A perfect tiling of the box {1..dims[0]} x ... x {1..dims[d]}.

    Certified when either every side is a multiple of M, or one side is
    >= M and the rest are multiples of M.  The first case is tiled as a
    grid of M-cubes; the second by slabs along the long axis, with the long
    side split by Frobenius decomposition over the tile projections.
    """
    dims = tuple(int(c) for c in dims)
    if len(dims) != F.d:
        raise ValueError("dimension mismatch")
    if any(c < 1 for c in dims):
        raise ValueError("sides must be positive")
    region = rectangle(dims)
    if all(c % F.M == 0 for c in dims):
        placements = _grid_placements(0, F.protos[0], (1,) * F.d, dims)
        return Tiling(F, region, placements)
    axis = _long_axis(dims, F.M, F.M)
    if axis is None:
        raise ValueError("rectangle %r not certified tileable: needs all sides "
                         "multiples of %d, or one side >= %d and the rest "
                         "multiples of %d" % (dims, F.M, F.M, F.M))
    lengths = sorted(set(p[axis] for p in F.protos))
    combo = frobenius_decompose(lengths, dims[axis])
    if combo is None:
        raise AssertionError("long side %d >= M=%d not representable"
                             % (dims[axis], F.M))
    by_length = {}
    for idx, p in enumerate(F.protos):
        by_length.setdefault(p[axis], idx)
    placements = []
    pos = 0
    for length in sorted(combo):
        idx = by_length[length]
        proto = F.protos[idx]
        for _ in range(combo[length]):
            lo = tuple(pos + 1 if t == axis else 1 for t in range(F.d))
            hi = tuple(pos + length if t == axis else dims[t] for t in range(F.d))
            placements.extend(_grid_placements(idx, proto, lo, hi))
            pos += length
    return Tiling(F, region, placements)


def grid_tiling_variants(F, dims):
    """All tilings made of M-cubes, each grid-tiled by one prototile.

    Needs every side a multiple of M; yields |F| ** (number of cubes)
    distinct tilings in lexicographic cube-assignment order.
    """
    dims = tuple(int(c) for c in dims)
    M = F.M
    if any(c % M != 0 for c in dims):
        raise ValueError("all sides must be multiples of M=%d" % M)
    region = rectangle(dims)
    cubes = list(itertools.product(*(range(c // M) for c in dims)))
    for assignment in itertools.product(range(len(F.protos)), repeat=len(cubes)):
        placements = []
        for cube, idx in zip(cubes, assignment):
            lo = tuple(cube[t] * M + 1 for t in range(F.d))
            hi = tuple((cube[t] + 1) * M for t in range(F.d))
            placements.extend(_grid_placements(idx, F.protos[idx], lo, hi))
        yield Tiling(F, region, placements)


# ---------------------------------------------------------------------------
# partitioning box complements


def _split_annulus(outer_lo, outer_hi, inner_lo, inner_hi):
    """Partition outer \\ inner into rectangles, two slabs per axis.

    Splits along the last axis first, then recurses inward, so each slab is
    full-width in the axes not yet processed and inner-width in the
    processed ones.  Returns a list of (lo, hi) inclusive bounds.
    """
    d = len(outer_lo)
    if any(inner_hi[t] < inner_lo[t] for t in range(d)):
        return [(tuple(outer_lo), tuple(outer_hi))] \
            if all(outer_hi[t] >= outer_lo[t] for t in range(d)) else []
    pieces = []
    cur_lo = list(outer_lo)
    cur_hi = list(outer_hi)
    for t in reversed(range(d)):
        if inner_hi[t] < cur_hi[t]:
            lo = list(cur_lo)
            lo[t] = inner_hi[t] + 1
            pieces.append((tuple(lo), tuple(cur_hi)))
        if cur_lo[t] < inner_lo[t]:
            hi = list(cur_hi)
            hi[t] = inner_lo[t] - 1
            pieces.append((tuple(cur_lo), tuple(hi)))
        cur_lo[t] = inner_lo[t]
        cur_hi[t] = inner_hi[t]
    return pieces


def partition_complement(n, n_prime, N, M, offset):
    """Split B_{(n+n')M} minus a well-separated translate of B_{nM} into slabs.

    The translate offset + B_{nM}, padded by F_N, must stay inside the big
    box.  Each returned rectangle has one side >= N and all other sides
    multiples of M.
    """
    d = len(offset)
    big = (n + n_prime) * M
    inner_lo = tuple(offset[t] + 1 for t in range(d))
    inner_hi = tuple(offset[t] + n * M for t in range(d))
    for t in range(d):
        if inner_lo[t] - N < 1:
            raise ValueError("padded block crosses the lower face on axis %d"
                             % (t + 1))
        if inner_hi[t] + N > big:
            raise ValueError("padded block crosses the upper face on axis %d"
                             % (t + 1))
    pieces = _split_annulus((1,) * d, (big,) * d, inner_lo, inner_hi)
    out = []
    volume = 0
    for lo, hi in pieces:
        dims = tuple(hi[t] - lo[t] + 1 for t in range(d))
        off = tuple(lo[t] - 1 for t in range(d))
        if _long_axis(dims, N, M) is None:
            raise AssertionError("piece %r at %r violates the side condition"
                                 % (dims, off))
        volume += math.prod(dims)
        out.append(rectangle(dims, off))
    if volume != big ** d - (n * M) ** d:
        raise AssertionError("partition volume mismatch")
    return out


# ---------------------------------------------------------------------------
# flexible fill


def flexible_tile_fill(F, n, k, K, W):
    """A perfect tiling of B_{nM} with prescribed sub-tilings of B_{kM}.

    Each site i in K receives the tiling W[i] on i + B_{kM}; the blocks,
    padded by F_M, must be pairwise far enough apart that no two touch a
    common cell of the M-grid, and must stay inside B_{nM}.  Everything
    else is tiled canonically.
    """
    M = F.M
    d = F.d
    region = box_B(n * M, d)
    K = sorted(tuple(i) for i in K)
    for i in K:
        if i not in W:
            raise ValueError("no block tiling prescribed at %r" % (i,))
        w = W[i]
        if w.region != box_B(k * M, d):
            raise ValueError("block at %r does not live on the %d-box"
                             % (i, k * M))
        w.validate()
    for i in K:
        for t in range(d):
            if i[t] + 1 - M < 1 or i[t] + k * M + M > n * M:
                raise ValueError("padded block at %r leaves the box on axis %d"
                                 % (i, t + 1))
    # Cells of the M-grid touched by each padded block.
    def cell_range(i):
        return [(max(0, (i[t] - M) // M), (i[t] + k * M + M - 1) // M)
                for t in range(d)]

    ranges = {i: cell_range(i) for i in K}
    owner = {}
    for i in K:
        for cell in itertools.product(*(range(a, b + 1) for a, b in ranges[i])):
            if cell in owner:
                raise ValueError("blocks at %r and %r are too close: both "
                                 "touch grid cell %r" % (owner[cell], i, cell))
            owner[cell] = i
    placements = []
    # Ambient cells: canonical single-prototile grid.
    all_cells = itertools.product(*(range(n) for _ in range(d)))
    for cell in all_cells:
        if cell in owner:
            continue
        lo = tuple(cell[t] * M + 1 for t in range(d))
        hi = tuple((cell[t] + 1) * M for t in range(d))
        placements.extend(_grid_placements(0, F.protos[0], lo, hi))
    for i in K:
        # the prescribed block, translated into place
        for p, o in W[i].placements:
            placements.append((p, lattice.add(o, i)))
        # complement of the block within its enlarged cell-aligned box
        enl_lo = tuple(ranges[i][t][0] * M + 1 for t in range(d))
        enl_hi = tuple((ranges[i][t][1] + 1) * M for t in range(d))
        blk_lo = tuple(i[t] + 1 for t in range(d))
        blk_hi = tuple(i[t] + k * M for t in range(d))
        for lo, hi in _split_annulus(enl_lo, enl_hi, blk_lo, blk_hi):
            dims = tuple(hi[t] - lo[t] + 1 for t in range(d))
            sub = tile_rectangle(F, dims)
            off = tuple(lo[t] - 1 for t in range(d))
            for p, o in sub.placements:
                placements.append((p, lattice.add(o, off)))
    out = Tiling(F, region, placements)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# counting


def _long_axis_first(F, region):
    """The tile set and the region with the region's axes ordered by its
    bounding-box sides, longest first (ties in their order), and that
    order: axis t of the result is axis order[t] of the inputs.  A count
    is the same in either frame, and the sweep's frontier spans the
    shorter sides.  The inputs themselves when the order is the identity
    or the region is empty."""
    order = list(range(F.d))
    if not len(region):
        return F, region, order
    if region.d != F.d:
        raise ValueError("dimension mismatch: %d-dimensional tiles on a "
                         "%d-dimensional region" % (F.d, region.d))
    lo, hi = region.bounds()
    order.sort(key=lambda t: lo[t] - hi[t])
    if order == sorted(order):
        return F, region, order
    return (TileSet([[p[t] for t in order] for p in F.protos]),
            lattice.Region(region.coords[:, order]), order)


def _placement_masks(F, region):
    """For each site position, the prototiles that fit with that site as
    their least cell, as (proto index, mask) pairs.  Bit k of a mask is the
    site k positions after the anchor.  The tiles and the region have one
    dimension (_long_axis_first checks it)."""
    if not len(region):
        return []
    out = [[] for _ in range(len(region))]
    for k, proto in enumerate(F.protos):
        # cells[pos, c]: how far the c-th cell of the tile anchored at pos
        # lies after pos, negative when the cell is outside the region
        cells = np.stack([region.positions(region.coords + x)
                          for x in itertools.product(*map(range, proto))],
                         axis=1) - np.arange(len(region))[:, None]
        fit = np.flatnonzero((cells >= 0).all(axis=1))
        for pos, row in zip(fit.tolist(), cells[fit].tolist()):
            out[pos].append((k, sum(1 << c for c in row)))
    return out


def _advance(p, mask, tile):
    """The state reached from (p, mask) by placing `tile` (relative to p)."""
    covered = mask | tile
    skip = ((covered + 1) & ~covered).bit_length() - 1
    return p + skip, covered >> skip


def _volumes_divide(F, size):
    """Whether size is a multiple of the gcd of the tile volumes, which
    every region with a tiling satisfies."""
    return not size % math.gcd(*(math.prod(proto) for proto in F.protos))


def count_tilings(F, region, budget=None):
    """Exact number of perfect tilings of the region, by a frontier dynamic
    program over its site positions, swept with the region's longest axis
    outermost (_long_axis_first).  Each expanded state ticks a
    BudgetCounter(budget) of frontier states.

    A state is (p, mask): sites before position p are covered, site p is
    not, and bit k of mask marks site p + k covered.  The tile covering
    site p has p as its least cell, so every tiling is counted once.  The
    states of each p sit in one dict, mask -> ways, and positions are
    expanded in increasing order.  A region whose size is not a multiple
    of the gcd of the tile volumes has no tiling, and no state is expanded.
    """
    F, region, _ = _long_axis_first(F, region)
    counter = BudgetCounter(budget, "frontier state", "tiling count")
    size = len(region)
    if not _volumes_divide(F, size):
        return 0
    fits = _placement_masks(F, region)
    frontier = {0: {0: 1}}
    for p in range(size):
        layer = frontier.pop(p, None)
        if not layer:
            continue
        for mask, ways in layer.items():
            counter.tick()
            for _, tile in fits[p]:
                if not mask & tile:
                    q, key = _advance(p, mask, tile)
                    nxt = frontier.setdefault(q, {})
                    nxt[key] = nxt.get(key, 0) + ways
    return frontier.get(size, {}).get(0, 0)


def find_tiling(F, region, budget=None):
    """A perfect tiling of the region, or None when it has none.

    The walk runs over the states of count_tilings, in its frame, the
    region's axes longest first, after the same volume test.  It goes
    depth first, trying prototiles in order, and remembers the states
    whose every branch is dead, so it expands each state at most once,
    and only states the count would expand; each first visit ticks a
    BudgetCounter(budget) of frontier states, as the count does.  A walk
    that runs out of states has tried them all, so None is an exact
    negative, not a search giving up; a tiling found is the first one in
    prototile order in that frame.  The walk keeps only the current
    branch and the dead states, not a parent pointer for every state.
    Each anchor is mapped back to the caller's axes, and the tiling is
    validated there.
    """
    tiles, turned, order = _long_axis_first(F, region)
    counter = BudgetCounter(budget, "frontier state", "tiling count")
    size = len(turned)
    if not _volumes_divide(tiles, size):
        return None
    fits = _placement_masks(tiles, turned)
    dead = {}  # position -> the masks of the dead states there
    branch = [(0, 0, 0)]  # (p, mask, index of the next fit to try)
    while branch[-1][0] < size:
        p, mask, i = branch.pop()
        if not i:
            counter.tick()
        for j in range(i, len(fits[p])):
            tile = fits[p][j][1]
            if mask & tile:
                continue
            q, key = _advance(p, mask, tile)
            if key not in dead.get(q, ()):
                branch += [(p, mask, j + 1), (q, key, 0)]
                break
        else:
            dead.setdefault(p, set()).add(mask)
            if not branch:
                return None
    back = [order.index(t) for t in range(F.d)]
    placements = [(fits[p][i - 1][0],
                   tuple(turned.sites[p][t] - 1 for t in back))
                  for p, _, i in branch[:-1]]
    tiling = Tiling(F, region, placements)
    tiling.validate()
    return tiling


# ---------------------------------------------------------------------------
# the marker tiling family


def _centered_bounds(side, d):
    """Bounds of the side-length box placed around the origin (floor center)."""
    lo = -((side + 1) // 2) + 1
    hi = side // 2
    return (lo,) * d, (hi,) * d


def _single_proto_ring(F, proto_idx, outer, inner):
    """Grid-tile every rectangle of the ring by one prototile, or None."""
    proto = F.protos[proto_idx]
    placements = []
    for lo, hi in _split_annulus(outer[0], outer[1], inner[0], inner[1]):
        if not _proto_fits_grid(proto, lo, hi):
            return None
        placements.extend(_grid_placements(proto_idx, proto, lo, hi))
    return placements


class TilingFamily:
    """A canonically ordered family of tilings of one region."""

    def __init__(self, region, members, meta=None):
        members = sorted(members, key=lambda t: t.placements)
        self.region = region
        self.members = tuple(members)
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


def marker_tiling_set(F, n):
    """Marker tilings of the largest M-multiple box centered in F_n.

    Members tile the centered box of side M*floor((2n+1)/M); their two
    outermost rings of side-difference M are each tiled by a single
    prototile, with different prototiles for the two rings, and the
    interior is the canonical flexible fill.  Every member is checked to
    extend to the centered box of side M*ceil((2n+1)/M).
    """
    if len(F.protos) < 2:
        raise ValueError("a single-prototile set admits exactly one tiling "
                         "and carries no marker structure")
    if not is_coprime(F):
        raise ValueError("tile set must have coprime side projections")
    M = F.M
    d = F.d
    side = 2 * n + 1
    c = M * (side // M)
    C = M * (-(-side // M))
    if c < 2 * M:
        raise ValueError("box too small for two single-prototile rings: "
                         "need floor((2n+1)/M) >= 2, got n = %d, M = %d" % (n, M))
    b_outer = _centered_bounds(c, d)
    b_mid = _centered_bounds(c - M, d)
    b_core = _centered_bounds(c - 2 * M, d)
    region = rectangle((c,) * d, tuple(b_outer[0][t] - 1 for t in range(d)))

    interior = []
    if c - 2 * M > 0:
        core = flexible_tile_fill(F, (c - 2 * M) // M, 1, [], {})
        shift = tuple(b_core[0][t] - 1 for t in range(d))
        interior = [(p, lattice.add(o, shift)) for p, o in core.placements]

    members = []
    pairs = []
    for i1, i2 in itertools.permutations(range(len(F.protos)), 2):
        ring1 = _single_proto_ring(F, i1, b_outer, b_mid)
        if ring1 is None:
            continue
        if c - 2 * M > 0:
            ring2 = _single_proto_ring(F, i2, b_mid, b_core)
        else:
            ring2 = _single_proto_ring(
                F, i2, b_mid, ((1,) * d, (0,) * d))  # empty inner: whole box
        if ring2 is None:
            continue
        t = Tiling(F, region, ring1 + ring2 + interior)
        t.validate()
        members.append(t)
        pairs.append((i1, i2))
    if not members:
        raise ValueError("no ordered prototile pair tiles the two rings; "
                         "marker family not constructible for this tile set")
    # Extension certificate: the ring between side c and side C must be
    # tileable so that members extend to the bigger box.
    if C > c:
        ext_outer = _centered_bounds(C, d)
        ext_pieces = []
        for lo, hi in _split_annulus(ext_outer[0], ext_outer[1],
                                     b_outer[0], b_outer[1]):
            for idx in range(len(F.protos)):
                if _proto_fits_grid(F.protos[idx], lo, hi):
                    ext_pieces.extend(_grid_placements(idx, F.protos[idx], lo, hi))
                    break
            else:
                raise ValueError("extension ring piece %r-%r not tileable by a "
                                 "single prototile" % (lo, hi))
        ext_region = rectangle((C,) * d, tuple(ext_outer[0][t] - 1 for t in range(d)))
        for t in members:
            extended = Tiling(F, ext_region, t.placements + tuple(ext_pieces))
            extended.validate()
    order = sorted(range(len(members)), key=lambda j: members[j].placements)
    fam = TilingFamily(region, members,
                       meta={"family": "tiling_marker", "n": n, "side": c,
                             "ext_side": C, "spacing": (c - 3) // 2,
                             "ring_pairs": [pairs[j] for j in order]})
    return fam


# ---------------------------------------------------------------------------
# serialization


def tiling_to_json(t):
    return {
        "tileset": [list(p) for p in t.tiles.protos],
        "region": t.region.kind_descriptor(),
        "placements": [[p, list(o)] for p, o in t.placements],
    }


def tiling_from_json(obj, validate=True):
    """Inverse of tiling_to_json.  Every placement must name a prototile
    of the set and give a d-coordinate offset; whether the tiles cover the
    region exactly is checked only when validate is true."""
    tiles = TileSet([lattice.int_tuple(p, "prototile")
                     for p in obj["tileset"]])
    region = lattice.region_from_descriptor(obj["region"])
    if len(region) and region.d != tiles.d:
        raise ValueError("a %d-dimensional region for %d-dimensional tiles"
                         % (region.d, tiles.d))
    placements = []
    for p, o in obj["placements"]:
        if not isinstance(p, int) or not 0 <= p < len(tiles):
            raise ValueError("placement index %r names no prototile" % (p,))
        placements.append((p, lattice.int_tuple(o, "tile offset", tiles.d)))
    t = Tiling(tiles, region, placements)
    if validate:
        t.validate()
    return t
