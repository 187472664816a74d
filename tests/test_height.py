"""Height lifts of 3-colorings: construction, bounds, gaps, window gluing."""

import contextlib
import itertools
import json
import pickle
import re
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab import height as ht, homshift, lattice
from latticelab.lattice import Region, box_F, rectangle, norm_1, parity
from latticelab.homshift import (Pattern, PatternSet, complete_graph,
                                 count_hom_dfs, full_shift_graph,
                                 enumerate_hom, is_hom,
                                 pattern_set_from_jsonl)
from latticelab.height import (HeightField, height_cocycle, lift_rows,
                               lipschitz_check, lipschitz_rows,
                               sample_coloring, sample_rows,
                               striped_coloring, checker_coloring,
                               quasiflat_gap, ufp_window_check)
from latticelab.cli import main
from latticelab.util import BudgetError, counter_rng

K3 = complete_graph(3)


def pattern_from_mapping(region, mapping):
    return Pattern(region, bytes(mapping[s] for s in region.sites))


def row_pattern(colors):
    return Pattern(rectangle((len(colors),)), bytes(colors))


def oracle_heights(pattern, base):
    """Path-sum heights integrated in raster order, for cross-checking.

    Uses a different spanning tree than the breadth-first construction,
    so agreement on every site exercises path-independence.
    """
    region = pattern.region
    vals = pattern.values
    heights = {}
    for pos, site in enumerate(region.sites):
        if pos == 0:
            heights[site] = 0
            continue
        prev = None
        for t in range(region.d):
            cand = tuple(site[u] - (1 if u == t else 0)
                         for u in range(region.d))
            if cand in heights:
                prev = cand
                break
        assert prev is not None, "raster order left a gap"
        step = (vals[pos] - pattern.value(prev)) % 3
        heights[site] = heights[prev] + (1 if step == 1 else -1)
    offset = heights[base]
    return {s: h - offset for s, h in heights.items()}


def test_forced_row_heights():
    field = height_cocycle(row_pattern([0, 1, 2, 0, 1, 2]), (1,))
    assert [field.heights[(i,)] for i in range(1, 7)] == [0, 1, 2, 3, 4, 5]
    field = height_cocycle(row_pattern([0, 1, 0, 1]), (1,))
    assert [field.heights[(i,)] for i in range(1, 5)] == [0, 1, 0, 1]


def test_cocycle_base_shift_and_validate():
    field = height_cocycle(row_pattern([0, 1, 2, 0]), (3,))
    assert field.heights[(3,)] == 0
    assert field.heights[(1,)] == -2
    field.validate()


def test_improper_coloring_rejected():
    with pytest.raises(ValueError):
        height_cocycle(row_pattern([0, 0, 1]), (1,))
    with pytest.raises(ValueError):
        height_cocycle(row_pattern([0, 4, 0]), (1,))


def test_disconnected_region_rejected():
    region = Region([(0,), (1,), (5,), (6,)])
    with pytest.raises(ValueError, match="disconnected"):
        height_cocycle(Pattern(region, bytes([0, 1, 0, 1])), (0,))


def test_base_outside_region_rejected():
    with pytest.raises(ValueError, match="base"):
        height_cocycle(row_pattern([0, 1, 2]), (9,))


def test_cocycle_consistency_exhaustive_small_box():
    """Every proper 3-coloring of F_1 (d=2) lifts without conflict."""
    box = box_F(1, 2)
    homs = enumerate_hom(K3, box)
    assert len(homs) == 246
    for p in homs:
        field = height_cocycle(p, (0, 0))
        field.validate()
        assert field.heights == oracle_heights(p, (0, 0))


def test_cocycle_matches_oracle_on_samples():
    box = box_F(3, 2)
    for seed in range(25):
        p = sample_coloring(box, seed)
        field = height_cocycle(p, (0, 0))
        assert field.heights == oracle_heights(p, (0, 0))


def test_equal_on_connected_set_implies_equal_differences():
    """Colorings agreeing on a connected set share height differences there."""
    box = box_F(3, 2)
    shared = [s for s in box if norm_1(s) <= 2]
    for seed in range(10):
        x = sample_coloring(box, seed)
        mapping = x.mapping()
        changed = None
        for site in reversed(box.sites):
            if norm_1(site) <= 3:
                continue
            blocked = {mapping[nb] for nb in
                       [tuple(map(sum, zip(site, d))) for d in
                        ((1, 0), (-1, 0), (0, 1), (0, -1))] if nb in box}
            free = [c for c in range(3)
                    if c != mapping[site] and c not in blocked]
            if free:
                changed = site
                mapping[site] = free[0]
                break
        assert changed is not None
        y = pattern_from_mapping(box, mapping)
        assert is_hom(K3, y)
        hx = height_cocycle(x, (0, 0)).heights
        hy = height_cocycle(y, (0, 0)).heights
        base = shared[0]
        for s in shared:
            assert hx[s] - hx[base] == hy[s] - hy[base]


def test_lipschitz_holds_on_samples():
    box = box_F(3, 2)
    for seed in range(200):
        field = height_cocycle(sample_coloring(box, seed), (0, 0))
        assert lipschitz_check(field) is None


def test_lipschitz_violation_reported():
    region = rectangle((3,))
    bad = HeightField(region, (1,), {(1,): 0, (2,): 2, (3,): 3})
    assert lipschitz_check(bad) == ((2,), 2, 1)
    with pytest.raises(ValueError, match="non-unit"):
        bad.validate()
    # heights relative to a nonzero base height; a missing site has none
    shifted = HeightField(region, (1,), {(1,): -5, (2,): -4, (3,): -8})
    assert lipschitz_check(shifted) == ((3,), -3, 2)
    with pytest.raises(KeyError, match=r"\(2,\)"):
        lipschitz_check(HeightField(region, (1,), {(1,): 0, (3,): 1}))


def test_sampler_reproducible_and_proper():
    box = box_F(2, 2)
    a = sample_coloring(box, 7)
    b = sample_coloring(box, 7)
    assert a.values == b.values
    assert is_hom(K3, a)
    seen = {sample_coloring(box, s).values for s in range(20)}
    assert len(seen) > 1


def test_sampler_covers_boxes():
    from latticelab.lattice import box_B
    p = sample_coloring(box_B(5, 2), 3)
    assert is_hom(K3, p)
    q = sample_coloring(rectangle((17,)), 0)
    assert is_hom(K3, q)


def test_reference_colorings():
    box = box_F(2, 2)
    striped = striped_coloring(box)
    checker = checker_coloring(box)
    assert is_hom(K3, striped) and is_hom(K3, checker)
    assert striped.value((1, 1)) == 2
    assert checker.value((1, 1)) == 0
    hs = height_cocycle(striped, (0, 0)).heights
    hc = height_cocycle(checker, (0, 0)).heights
    for s in box:
        assert hs[s] == sum(s)
        assert hc[s] == parity(s)


def test_quasiflat_gap_striped_vs_checker():
    box = box_F(3, 2)
    samples = [striped_coloring(box), checker_coloring(box)]
    assert quasiflat_gap(samples, [(3, 0)]) == 2
    assert quasiflat_gap(samples, iter([(3, 0)])) == 2
    assert quasiflat_gap(samples[:1], [(3, 0)]) == 0
    assert quasiflat_gap([], [(3, 0)]) == 0


def test_quasiflat_gap_grows_linearly():
    for n in range(1, 6):
        box = box_F(n, 2)
        samples = [striped_coloring(box), checker_coloring(box)]
        assert quasiflat_gap(samples, list(box)) == 2 * n


def test_quasiflat_gap_input_validation():
    box = box_F(1, 2)
    samples = [striped_coloring(box), checker_coloring(box_F(2, 2))]
    with pytest.raises(ValueError, match="different regions"):
        quasiflat_gap(samples, [(0, 0)])
    with pytest.raises(ValueError, match="displacement"):
        quasiflat_gap([striped_coloring(box)], [(9, 9)])
    # an array's row is named as a site
    with pytest.raises(ValueError,
                       match=r"^displacement \(9, -9\) outside the region$"):
        quasiflat_gap([striped_coloring(box)],
                      np.array([[0, 0], [9, -9], [7, 7]]))
    # a coordinate that is no int64 is refused, not rounded
    for bad in ([(0.5, 0)], [(2 ** 70, 0)], np.zeros((1, 2))):
        with pytest.raises(ValueError, match="must be int sites"):
            quasiflat_gap([striped_coloring(box)], bad)


def test_the_base_is_found_without_the_regions_sites():
    """check_base and the lift find the base by Region.positions, as
    `base in region` would, and build no tuple of sites or site dict: a
    coordinate that is a float off the grid, a string, or past int64
    lies outside."""
    region = Region(box_F(3, 2).coords)
    for base in [(0.5, 0), ("0", "0"), (2 ** 70, 0), (0, 0, 0)]:
        with pytest.raises(ValueError, match="outside the region"):
            ht.check_base(region, base)
    for base in [(0, 0), (np.int64(1), -1), (0.0, 2.0)]:
        ht.check_base(region, base)
    samples = [striped_coloring(region), checker_coloring(region)]
    assert quasiflat_gap(samples, region.coords) == 6
    assert "sites" not in vars(region) and "_index" not in vars(region)


def test_ufp_refuted_at_thin_margin():
    hit = ufp_window_check(K3, M=1, n=3)
    assert hit is not None
    x, y = hit
    assert x.values == striped_coloring(box_F(3, 2)).values
    assert set(y.region.sites) == {s for s in box_F(5, 2)
                                   if max(abs(c) for c in s) == 5}
    fixed = x.mapping()
    fixed.update(y.mapping())
    assert len(enumerate_hom(K3, box_F(5, 2), boundary=fixed)) == 0


def loop_glue(H, box, x, y):
    """The striped-center / checker-ring gluing by plain loops over site
    pairs: the shift interval from every center and ring pair, then the
    max over anchors at every box site.  None when no shift in 6Z fits."""
    anchors = {s: sum(s) for s in x.region}
    ring_parity = {s: parity(s) for s in y.region}
    lo = None
    hi = None
    for u, hu in anchors.items():
        for v, pv in ring_parity.items():
            dist = norm_1(lattice.sub(u, v))
            lo = hu - pv - dist if lo is None else max(lo, hu - pv - dist)
            hi = hu - pv + dist if hi is None else min(hi, hu - pv + dist)
    shift = 6 * (-((-lo) // 6))
    if shift > hi:
        return None
    for v, pv in ring_parity.items():
        anchors[v] = pv + shift
    items = list(anchors.items())
    values = bytearray(len(box))
    for pos, w in enumerate(box.sites):
        h = max(ha - norm_1(lattice.sub(w, a)) for a, ha in items)
        values[pos] = h % 3
    return Pattern(box, bytes(values))


# Boxes up to this radius: on wider ones the search below runs out of its
# budget anyway, after holding hundreds of MB of pending rows.
SEARCH_RADIUS = 8


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(1, 7))
@example(1, 1, 3)
@example(1, 3, 3)
@example(2, 4, 2)
def test_targeted_window_check_matches_its_oracles(buffer, M, n):
    box, inner, ring = ht._window_regions(M, n, buffer, 2)
    x, y = striped_coloring(inner), checker_coloring(ring)
    want = loop_glue(K3, box, x, y)
    glued = ht._lipschitz_glue(K3, box, x, y)
    assert (glued is None) == (want is None)
    hit = ufp_window_check(K3, M, n, buffer)
    if want is not None:
        assert glued.values == want.values and hit is None
        return
    assert hit[0] == x and hit[1] == y
    if n + M + buffer <= SEARCH_RADIUS:
        fixed = {**x.mapping(), **y.mapping()}
        try:
            assert count_hom_dfs(K3, box, fixed, budget=3 * 10 ** 6) == 0
        except BudgetError:
            pass


def test_ufp_ok_at_wide_margin():
    assert ufp_window_check(K3, M=4, n=2) is None
    assert ufp_window_check(K3, M=6, n=3) is None


def test_ufp_full_shift_control():
    full2 = full_shift_graph(2)
    assert ufp_window_check(full2, M=1, n=1, mode="exhaustive", d=1) is None
    assert ufp_window_check(full2, M=0, n=1, mode="exhaustive", d=1) is None


def test_ufp_exhaustive_k3_line_glues():
    assert ufp_window_check(K3, M=1, n=1, mode="exhaustive", d=1) is None


def test_ufp_exhaustive_finds_adjacent_conflict():
    """With no margin at all, a center color can collide with the ring."""
    hit = ufp_window_check(K3, M=0, n=1, mode="exhaustive", d=1)
    assert hit is not None
    x, y = hit
    fixed = x.mapping()
    fixed.update(y.mapping())
    assert len(enumerate_hom(K3, box_F(2, 1), boundary=fixed)) == 0


def test_ufp_budget_guard():
    with pytest.raises(BudgetError):
        ufp_window_check(K3, M=1, n=2, mode="exhaustive", d=2, budget=2000)


def test_ufp_argument_validation():
    with pytest.raises(ValueError, match="mode"):
        ufp_window_check(K3, M=1, n=1, mode="fancy")
    with pytest.raises(ValueError, match="margin"):
        ufp_window_check(K3, M=-1, n=1)
    with pytest.raises(ValueError, match="complete graph"):
        ufp_window_check(full_shift_graph(2), M=1, n=1)
    with pytest.raises(ValueError, match="two-dimensional"):
        ufp_window_check(K3, M=1, n=1, d=1)


# ---------------------------------------------------------------------------
# the lift and the sampler against their tuple-arithmetic oracles


def tuple_lift(x, base):
    """Breadth-first lift by tuple arithmetic: lattice.neighbors per edge.

    The scalar sweep that lift_rows runs on whole blocks of rows: it
    fails at the first edge, in sweep order, whose colors are equal or
    disagree with the heights set so far."""
    region = x.region
    if region.d is None:
        raise ValueError("empty region has no heights")
    if base not in region:
        raise ValueError("base %r outside the region" % (base,))
    if max(x.values) > 2:
        raise ValueError("colors must lie in {0, 1, 2}")
    sites = region.sites
    vals = x.values
    heights = [None] * len(sites)
    start = region.index(base)
    heights[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        hi = heights[i]
        ci = vals[i]
        for nb in lattice.neighbors(sites[i]):
            if nb not in region:
                continue
            j = region.index(nb)
            r = (vals[j] - ci) % 3
            if r == 0:
                raise ValueError("equal colors %d across an edge: improper "
                                 "coloring" % ci)
            hj = hi + (1 if r == 1 else -1)
            if heights[j] is None:
                heights[j] = hj
                queue.append(j)
            elif heights[j] != hj:
                raise ValueError("not a valid 3-coloring height at %r"
                                 % (nb,))
    missing = sum(1 for h in heights if h is None)
    if missing:
        raise ValueError("region is disconnected: %d of %d sites "
                         "unreachable from %r" % (missing, len(sites), base))
    return dict(zip(sites, heights))


def raster_sample(region, seed):
    """Raster-order sampler by tuple arithmetic: lattice.neighbors per site.

    The loop that sample_rows runs on a small block of seeds and the
    oracle of both its paths: each site takes counter_rng(seed, pos) mod k
    among its k free colors."""
    values = bytearray(len(region))
    for pos, site in enumerate(region.sites):
        used = set()
        for nb in lattice.neighbors(site):
            if nb in region and region.index(nb) < pos:
                used.add(values[region.index(nb)])
        free = [c for c in range(3) if c not in used]
        if not free:
            raise RuntimeError("sampler blocked at %r: all colors used by "
                               "neighbors" % (site,))
        values[pos] = free[counter_rng(seed, pos) % len(free)]
    return bytes(values)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return (type(err), str(err))


@st.composite
def small_regions(draw):
    """Boxes and general site sets (some disconnected) in d = 1..3."""
    d = draw(st.integers(1, 3))
    side = {1: 8, 2: 4, 3: 3}[d]
    if draw(st.booleans()):
        dims = tuple(draw(st.integers(1, side)) for _ in range(d))
        offset = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        return rectangle(dims, offset)
    cells = list(itertools.product(range(side), repeat=d))
    return Region(draw(st.sets(st.sampled_from(cells), min_size=1)))


@st.composite
def colorings(draw):
    """Sampled colorings, some with one changed value (possibly above 2)."""
    region = draw(small_regions())
    n = len(region)
    if draw(st.booleans()):
        values = bytearray(draw(st.lists(st.integers(0, 2), min_size=n,
                                         max_size=n)))
    else:
        try:
            values = bytearray(raster_sample(region, draw(st.integers(0, 99))))
        except RuntimeError:
            values = bytearray(n)
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(st.integers(0, 5))
    base = draw(st.sampled_from(region.sites + ((99,) * region.d,)))
    return Pattern(region, bytes(values)), base


# _WALK_EDGES at 0 sends every block to the array lift, and at 10**6, above
# every block drawn here, every block through the walk
LIFT_PATHS = (0, 10 ** 6)


@contextlib.contextmanager
def lift_path(walk_edges):
    """_WALK_EDGES at walk_edges, every sweep built anew under it: a sweep
    splits its edges for the walk only below it."""
    with mock.patch.object(ht, "_WALK_EDGES", walk_edges):
        ht._sweep.cache_clear()
        try:
            yield
        finally:
            ht._sweep.cache_clear()


def on_both_paths(fn):
    """[fn() with every block lifted by the arrays, then by the walk]."""
    out = []
    for walk_edges in LIFT_PATHS:
        with lift_path(walk_edges):
            out.append(fn())
    return out


@given(colorings())
@settings(max_examples=400, deadline=None)
def test_cocycle_matches_tuple_lift(case):
    x, base = case
    want = outcome(tuple_lift, x, base)
    assert on_both_paths(lambda: outcome(
        lambda: height_cocycle(x, base).heights)) == [want, want]


def test_sweep_conflict_matches_tuple_lift():
    """A proper coloring winding once around a hole has no height."""
    cycle = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
    ring = Region(cycle)
    winding = dict(zip(cycle, [0, 1, 2, 0, 1, 2, 0, 2]))
    x = pattern_from_mapping(ring, winding)
    assert is_hom(K3, x)
    for base in cycle:
        got = outcome(lambda: height_cocycle(x, base).heights)
        assert got == outcome(tuple_lift, x, base)
        assert "not a valid 3-coloring height" in got[1]


@given(small_regions(), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_sampler_matches_raster_sampler(region, seed):
    got = outcome(lambda: sample_coloring(region, seed).values)
    assert got == outcome(raster_sample, region, seed)


def test_region_tables_pinned_and_region_still_pickles():
    regions = [box_F(2, 2), rectangle((3, 1, 2), (1, -1, 0)),
               Region([(0, 0), (0, 1), (2, 2), (3, 2)]), Region([])]
    for region in regions:
        index = {s: i for i, s in enumerate(region.sites)}
        table = tuple(tuple(index[nb] for nb in lattice.neighbors(s)
                            if nb in region) for s in region.sites)
        earlier = tuple(tuple(j for j in nbrs if j < pos)
                        for pos, nbrs in enumerate(table))
        assert in_region(region.neighbor_table()) == table
        assert in_region(region.earlier_neighbor_table()) == earlier
        assert region.neighbor_table() is region.neighbor_table()
        fresh = Region(region.sites, kind=region.kind)
        copy = pickle.loads(pickle.dumps(region))
        for other in (fresh, copy):
            assert other == region and hash(other) == hash(region)
        assert in_region(copy.neighbor_table()) == table
        assert in_region(copy.earlier_neighbor_table()) == earlier


def in_region(table):
    """A position table of the array form without its -1 entries, as
    tuples."""
    return tuple(tuple(j for j in row if j >= 0) for row in table.tolist())


# ---------------------------------------------------------------------------
# the batch calls against their scalar oracles, a block of rows at a time


def tuple_lifts(region, base, rows):
    """Each row's heights by tuple_lift, in site order; or the index of
    the first row without heights and its error message."""
    out = []
    for r, row in enumerate(rows):
        try:
            heights = tuple_lift(Pattern(region, row.tobytes()), base)
        except ValueError as err:
            return r, str(err)
        out.append([heights[s] for s in region.sites])
    return out


# a cycle of eight sites around a hole, and a proper coloring of it that
# winds once around, so that it has no heights
RING = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
WINDING = [0, 1, 2, 0, 1, 2, 0, 2]


@st.composite
def lift_blocks(draw):
    """(region, base, rows): one to five colorings, in d = 1..3, of boxes,
    holey and disconnected site sets and long rows; some improper or
    with a color above 2, some steep enough for two-digit heights of
    either sign, and bases that may lie outside."""
    kind = draw(st.sampled_from(["small", "long", "holey", "ring"]))
    if kind == "small":
        region = draw(small_regions())
    elif kind == "long":
        d = draw(st.integers(1, 2))
        dims = tuple(draw(st.integers(4, 40) if d == 1 else st.integers(3, 8))
                     for _ in range(d))
        region = rectangle(dims, tuple(draw(st.integers(-25, 5))
                                       for _ in range(d)))
    elif kind == "ring":
        region = Region(RING)
    else:
        d = draw(st.integers(2, 3))
        box = rectangle((5,) * d if d == 2 else (4,) * d)
        inner = [s for s in box if all(1 < c < 5 - (d == 3) for c in s)]
        holes = draw(st.sets(st.sampled_from(inner), min_size=1))
        region = Region([s for s in box if s not in holes])
    sites = region.sites
    base = draw(st.sampled_from(sites + ((99,) * region.d,)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(
            ["striped"] * (3 if kind == "long" else 1)
            + ["checker", "sampled", "random"]
            + ["winding"] * 2 * (kind == "ring")))
        shift = draw(st.integers(0, 2))
        if how == "winding":
            turn = draw(st.integers(0, len(RING) - 1))
            around = WINDING[turn:] + WINDING[:turn]
            values = bytearray(dict(zip(RING, ((shift + c) % 3
                                               for c in around)))[s]
                               for s in sites)
        elif how == "striped":
            sign = draw(st.sampled_from([1, -1]))
            values = bytearray((sign * sum(s) + shift) % 3 for s in sites)
        elif how == "checker":
            values = bytearray((parity(s) + shift) % 3 for s in sites)
        elif how == "sampled":
            try:
                values = bytearray(raster_sample(region,
                                                 draw(st.integers(0, 99))))
            except RuntimeError:
                values = bytearray(len(sites))
        else:
            values = bytearray(draw(st.lists(
                st.integers(0, 2), min_size=len(sites), max_size=len(sites))))
        if draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, len(sites) - 1))] = draw(
                st.integers(0, 5))
        rows.append(bytes(values))
    block = np.frombuffer(b"".join(rows), dtype=np.uint8)
    return region, base, block.reshape(len(rows), len(sites))


@given(lift_blocks())
@settings(max_examples=400, deadline=None)
def test_lift_rows_match_tuple_lift(case):
    region, base, rows = case
    want = tuple_lifts(region, base, rows)
    on_both_paths(lambda: check_lift_rows(region, base, rows, want))


def check_lift_rows(region, base, rows, want):
    """lift_rows on rows against want, their tuple_lifts."""
    if isinstance(want, list):
        got = lift_rows(region, base, rows)
        assert got.dtype == np.int32 and got.tolist() == want
        return
    # the rows before the first bad one lift, and that row fails first
    r, message = want
    if r:
        assert lift_rows(region, base, rows[:r]).tolist() == \
            tuple_lifts(region, base, rows[:r])
    for block in (rows[:r + 1], rows):
        with pytest.raises(ValueError) as err:
            lift_rows(region, base, block)
        assert str(err.value) == message


def test_lift_rows_check_the_colors_of_a_lone_base():
    lone = Region([(0,)])
    assert lift_rows(lone, (0,), np.array([[2]], dtype=np.uint8)).tolist() \
        == [[0]]
    with pytest.raises(ValueError, match=r"colors must lie in \{0, 1, 2\}"):
        lift_rows(lone, (0,), np.array([[2], [5]], dtype=np.uint8))


def test_lift_rows_reach_two_digit_heights_of_either_sign():
    row = rectangle((40,), (-21,))
    steep = np.array([[s[0] % 3 for s in row.sites],
                      [-s[0] % 3 for s in row.sites]], dtype=np.uint8)
    heights = lift_rows(row, (0,), steep)
    assert heights.tolist() == [list(range(-20, 20)), list(range(20, -20, -1))]
    assert heights.tolist() == tuple_lifts(row, (0,), steep)


def test_lift_rows_report_the_first_bad_row():
    """Proper rows, then one winding around a hole, then an improper one."""
    ring = Region(RING)
    winding = pattern_from_mapping(ring, dict(zip(RING, WINDING)))
    flat = pattern_from_mapping(ring, {s: parity(s) for s in RING})
    improper = Pattern(ring, bytes(len(ring)))
    rows = np.frombuffer(flat.values * 2 + winding.values + improper.values,
                         dtype=np.uint8).reshape(4, len(ring))
    with pytest.raises(ValueError, match="not a valid 3-coloring height"):
        lift_rows(ring, (0, 0), rows)
    with pytest.raises(ValueError, match="improper"):
        lift_rows(ring, (0, 0), rows[[0, 3, 2]])
    assert lift_rows(ring, (0, 0), rows[:2]).tolist() == \
        tuple_lifts(ring, (0, 0), rows[:2])
    assert lift_rows(ring, (0, 0), rows[:0]).shape == (0, len(ring))
    for wrong in (rows.astype(np.int64), rows[:, 1:], rows.tolist()):
        with pytest.raises(ValueError, match="uint8 rows of width 8"):
            lift_rows(ring, (0, 0), wrong)
    with pytest.raises(ValueError, match="uint8 rows of width 9"):
        lift_rows(box_F(1, 2), (0, 0), [[0] * 9])


def test_walk_and_array_lift_agree_on_the_ring():
    """Every proper coloring of the ring, some winding: the same int32
    block, or the same first bad row and message, on both paths."""
    ring = Region(RING)
    rows = np.array([[dict(zip(RING, values))[s] for s in ring.sites]
                     for values in itertools.product(range(3),
                                                     repeat=len(RING))
                     if all(values[k] != values[k - 1]
                            for k in range(len(RING)))], dtype=np.uint8)
    for base in RING:
        winding = [r for r, row in enumerate(rows)
                   if isinstance(outcome(tuple_lift, Pattern(
                       ring, row.tobytes()), base), tuple)]
        assert 0 < len(winding) < len(rows)
        flat = np.delete(rows, winding, axis=0)
        array, walk = on_both_paths(lambda: lift_rows(ring, base, flat))
        assert array.dtype == walk.dtype == np.int32
        assert np.array_equal(array, walk)
        assert array.tolist() == tuple_lifts(ring, base, flat)
        bad = np.concatenate([flat[:5], rows[winding[-1:]], flat])
        assert on_both_paths(lambda: outcome(lift_rows, ring, base, bad)) \
            == [outcome(tuple_lift, Pattern(ring, rows[winding[-1]].tobytes()),
                        base)] * 2


# ---------------------------------------------------------------------------
# the split walk against the ordered walk, which reports its errors


# the striped coloring of F_2 with (-2, -2) set to 0 and (1, -2) to 1: from
# the origin the sweep meets an edge between colors 1 off its tree before
# one between colors 0 on it
TWO_FAULTS = bytearray(sum(s) % 3 for s in box_F(2, 2).sites)
TWO_FAULTS[0], TWO_FAULTS[15] = 0, 1
TWO_FAULTS = bytes(TWO_FAULTS)
# the ring with a tail of three sites off (0, 2), its coloring winding around
# and the last two tail sites equal, so that from (0, 0) the sweep meets the
# winding's conflict at (2, 2) before the equal colors on its tree
TAILED_RING = Region(RING + [(0, 3), (0, 4), (0, 5)])
TAILED_WINDING = bytes(dict(zip(RING + [(0, 3), (0, 4), (0, 5)],
                                WINDING + [0, 1, 1]))[s]
                       for s in TAILED_RING.sites)


def faulty_values(draw, region):
    """A coloring of region, sampled, striped, winding (on the tailed
    ring) or random, with up to three faults, each a value copied from a
    neighbour (equal colors across an edge) or any value up to 5."""
    sites, n = region.sites, len(region)
    how = draw(st.sampled_from(["sampled", "striped", "random"]
                               + ["winding"] * (region == TAILED_RING)))
    if how == "winding":
        values = bytearray(TAILED_WINDING)
    elif how == "striped":
        values = bytearray(sum(s) % 3 for s in sites)
    elif how == "sampled":
        try:
            values = bytearray(raster_sample(region, draw(st.integers(0, 99))))
        except RuntimeError:
            values = bytearray(n)
    else:
        values = bytearray(draw(st.lists(st.integers(0, 2), min_size=n,
                                         max_size=n)))
    table = region.neighbor_table().tolist()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n - 1))
        nbrs = [j for j in table[k] if j >= 0]
        if nbrs and draw(st.booleans()):
            values[k] = values[draw(st.sampled_from(nbrs))]
        else:
            values[k] = draw(st.integers(0, 5))
    return bytes(values)


def faulty_region(draw):
    """A small region (some disconnected), F_2 or the tailed ring."""
    kind = draw(st.sampled_from(["small", "box", "ring"]))
    return {"small": lambda: draw(small_regions()),
            "box": lambda: box_F(2, 2),
            "ring": lambda: TAILED_RING}[kind]()


@st.composite
def faulty_colorings(draw):
    """(region, base, values): one faulty_values coloring of a
    faulty_region."""
    region = faulty_region(draw)
    values = faulty_values(draw, region)
    return region, draw(st.sampled_from(region.sites)), values


@st.composite
def faulty_blocks(draw):
    """(region, base, rows): one to six faulty_values colorings of one
    faulty_region, as a uint8 block."""
    region = faulty_region(draw)
    base = draw(st.sampled_from(region.sites))
    rows = [faulty_values(draw, region)
            for _ in range(draw(st.integers(1, 6)))]
    block = np.frombuffer(b"".join(rows), dtype=np.uint8)
    return region, base, block.reshape(len(rows), len(region))


@given(faulty_colorings())
@example((box_F(2, 2), (0, 0), TWO_FAULTS))
@example((TAILED_RING, (0, 0), TAILED_WINDING))
@settings(max_examples=400, deadline=None)
def test_split_walk_matches_the_ordered_walk(case):
    """The same heights, or the same error type and message, on bytes
    (as height_cocycle passes them) and on lists (as lift_rows does)."""
    region, base, values = case
    with lift_path(LIFT_PATHS[1]):
        sweep = ht._sweep(region, base)
        want = outcome(ht._walk, region, base, values)
        for row in (values, list(values)):
            assert outcome(ht._split_walk, region, base, row, sweep) == want


@given(faulty_blocks())
@settings(max_examples=300, deadline=None)
def test_lift_rows_give_the_walks_heights_or_its_first_error(case):
    """Every row's heights by _walk, or the error _walk raises for the
    first row without heights, on both sides of _WALK_EDGES."""
    region, base, rows = case
    want = []
    for row in rows.tolist():
        heights = outcome(ht._walk, region, base, row)
        if isinstance(heights, tuple):
            want = heights
            break
        want.append(heights)
    assert on_both_paths(lambda: outcome(
        lambda: lift_rows(region, base, rows).tolist())) == [want, want]


def sweep_oracle(region, base):
    """The breadth-first sweep of region from base by a Python queue:
    (edges, missing), edges the (i, j, is_tree) triples of the edges the
    sweep reaches, each oriented and ordered as it first crosses them,
    and missing the number of sites it never reaches."""
    table = [[j for j in row if j >= 0]
             for row in region.neighbor_table().tolist()]
    start = region.index(base)
    rank = [None] * len(region)
    rank[start] = 0
    order = [start]
    edges = []
    for i in order:
        for j in table[i]:
            is_tree = rank[j] is None
            if is_tree:
                rank[j] = len(order)
                order.append(j)
            elif rank[j] < rank[i]:
                continue  # crossed from j's side already
            edges.append((i, j, is_tree))
    return edges, len(region) - len(order)


@st.composite
def sweep_regions(draw):
    """Boxes F_n in d = 1..4, rectangles, and general site sets of a small
    grid, some of them disconnected."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["box", "rect", "general"]))
    if kind == "box":
        return box_F(draw(st.integers(0, {1: 12, 2: 3, 3: 1, 4: 1}[d])), d)
    side = {1: 16, 2: 6, 3: 3, 4: 2}[d]
    if kind == "rect":
        dims = tuple(draw(st.integers(1, side)) for _ in range(d))
        return rectangle(dims, tuple(draw(st.integers(-3, 3))
                                     for _ in range(d)))
    cells = list(itertools.product(range(side), repeat=d))
    return Region(draw(st.sets(st.sampled_from(cells), min_size=1)))


@given(sweep_regions())
@settings(max_examples=150, deadline=None)
def test_sweep_matches_the_queue_oracle_at_every_base(region):
    for base in region.sites:
        edges, missing = sweep_oracle(region, base)
        sweep = ht._sweep(region, base)
        assert sweep.ends.shape == (2, len(edges))
        assert list(zip(*sweep.ends.tolist(), sweep.is_tree.tolist())) \
            == edges
        assert sweep.missing == missing
        # the tree's parents, and the ancestor tables that double them
        parent = list(range(len(region)))
        for i, j, is_tree in edges:
            if is_tree:
                parent[j] = i
        assert sweep.parent.tolist() == parent
        assert sweep.ancestors[0] is sweep.parent
        for low, high in zip(sweep.ancestors, sweep.ancestors[1:]):
            assert high.tolist() == low[low].tolist()
        # twice the last table's steps up reach the base from every site
        # the sweep reaches, and no fewer tables would
        reached = {region.index(base)} | {j for _, j, t in edges if t}
        up = [region.index(base) if s in reached else s
              for s in range(len(region))]
        top = sweep.ancestors[-1]
        assert top[top].tolist() == up
        if len(sweep.ancestors) > 1:
            below = sweep.ancestors[-2]
            assert below[below].tolist() != up


def test_only_a_sweep_the_walk_can_take_is_split():
    # F_3 has 84 edges, F_2 40
    sweep = ht._sweep(box_F(3, 2), (0, 0))
    assert (sweep.tree, sweep.others) == (None, None)
    sweep = ht._sweep(box_F(2, 2), (0, 0))
    assert (len(sweep.tree), len(sweep.others)) == (24, 16)
    edges = list(zip(*sweep.ends.tolist()))
    assert list(sweep.tree) == list(itertools.compress(edges, sweep.is_tree))
    assert list(sweep.others) == list(itertools.compress(
        edges, ~sweep.is_tree))


def test_split_walk_names_the_first_fault_in_sweep_order():
    box = box_F(2, 2)
    sweep = ht._sweep(box, (0, 0))
    equal = [(is_tree, TWO_FAULTS[i])
             for i, j, is_tree in zip(*sweep.ends.tolist(),
                                      sweep.is_tree.tolist())
             if TWO_FAULTS[i] == TWO_FAULTS[j]]
    assert equal[0] == (False, 1) and (True, 0) in equal
    for path in on_both_paths(lambda: outcome(
            height_cocycle, Pattern(box, TWO_FAULTS), (0, 0))):
        assert path == (ValueError, "equal colors 1 across an edge: "
                                    "improper coloring")
    for path in on_both_paths(lambda: outcome(
            height_cocycle, Pattern(TAILED_RING, TAILED_WINDING), (0, 0))):
        assert path == (ValueError,
                        "not a valid 3-coloring height at (2, 2)")


@pytest.mark.parametrize("sites, base, kind, message", [
    ([(1,), (2,), (3,)], (9,), ValueError, "base (9,) outside the region"),
    ([(1,), (2,), (3,)], (1, 1), ValueError,
     "base (1, 1) outside the region"),
    ([(1,), (2,), (3,)], [1, 2], ValueError,
     "base [1, 2] outside the region"),
    ([(1,), (2,), (3,)], [1], TypeError, "unhashable type: 'list'"),
    ([], (0,), ValueError, "empty region has no heights"),
], ids=["outside", "wrong-length", "unhashable-wrong-length", "unhashable",
        "empty"])
def test_cocycle_base_errors_are_check_bases(sites, base, kind, message):
    """height_cocycle checks the base only when the sweep from it fails,
    and then raises what check_base raises."""
    region = Region(sites)
    x = Pattern(region, bytes([0, 1, 2][:len(region)]))
    for call in (lambda: height_cocycle(x, base),
                 lambda: ht.check_base(region, base)):
        with pytest.raises(kind) as err:
            call()
        assert str(err.value) == message


SEEDS = st.one_of(st.integers(0, 2 ** 16), st.integers(-2 ** 70, -1),
                  st.integers(2 ** 63 - 2, 2 ** 70))


# seed blocks on both sides of the threshold between the sampler's paths:
# in d <= 3 a site takes one or two plan steps, so blocks of fewer than
# 2 * _CALL_STEPS seeds take the scalar loop, which mixes each seed as an int,
# and of 4 * _CALL_STEPS or more the numpy path; single seeds, as
# sample_coloring draws them, come up often
SEED_BLOCKS = st.one_of(
    st.lists(SEEDS, min_size=1, max_size=1),
    st.lists(SEEDS, min_size=1, max_size=2 * ht._CALL_STEPS - 1),
    st.lists(SEEDS, min_size=4 * ht._CALL_STEPS,
             max_size=8 * ht._CALL_STEPS + 8))


def numpy_path(region, n):
    """True when sample_rows fills a block of n seeds with _fill_sites."""
    d = region.earlier_neighbor_table().shape[1]
    return n * len(ht._plan(region)) >= ht._CALL_STEPS * (d + 1) * len(region)


@given(small_regions(), SEED_BLOCKS)
@settings(max_examples=300, deadline=None)
@example(box_F(1, 2), [-1])
@example(rectangle((2, 3, 2), (0, -1, 0)), [2 ** 63 - 2])
@example(rectangle((7,), (-3,)), [2 ** 64 + 5])
@example(box_F(1, 3), [-2 ** 70, 2 ** 63 - 1, 2 ** 64 - 1])
def test_sample_rows_match_raster_sampler(region, seeds):
    want = []
    for seed in seeds:
        try:
            want.append(raster_sample(region, seed))
        except RuntimeError as err:
            with pytest.raises(RuntimeError) as got:
                sample_rows(region, seeds)
            assert str(got.value) == str(err)
            break
    # the rows before the first blocked seed are the raster samples
    assert sample_rows(region, seeds[:len(want)]).tobytes() == b"".join(want)


def test_sample_rows_report_the_first_blocked_seed():
    # the cube {0,1}^3 without its corner (0,0,0): three earlier neighbours
    # of (1,1,1) may take all three colors, which no box allows
    cube = Region([s for s in itertools.product((0, 1), repeat=3) if any(s)])
    seeds = [-45, -44, -9, -46]
    message = "sampler blocked at (1, 1, 1): all colors used by neighbors"
    for seed in seeds[2:]:
        assert outcome(raster_sample, cube, seed) == (RuntimeError, message)
    assert outcome(sample_rows, cube, seeds) == (RuntimeError, message)
    assert sample_rows(cube, seeds[:2]).tobytes() == \
        raster_sample(cube, -45) + raster_sample(cube, -44)
    # a block past the threshold: -53 to -47 (twice) and -32 to -10 sample,
    # -9 is the first to block and -6, -5, -3 and -2 block after it
    seeds = list(range(-53, -46)) * 2 + list(range(-32, 0))
    first = seeds.index(-9)
    assert numpy_path(cube, first) and not numpy_path(cube, 2)
    assert outcome(sample_rows, cube, seeds) == (RuntimeError, message)
    assert sample_rows(cube, seeds[:first]).tobytes() == \
        b"".join(raster_sample(cube, seed) for seed in seeds[:first])


def test_sample_rows_report_the_first_blocked_seeds_site():
    # two such cubes: seed 3 blocks at (4, 1, 1) only, seed 4 at (1, 1, 1),
    # a site earlier in raster order, and the block reports seed 3's site
    corners = [s for s in itertools.product((0, 1), repeat=3) if any(s)]
    cubes = Region(corners + [(x + 3, y, z) for x, y, z in corners])
    seeds = [0, 1] + list(range(3, 3 + 4 * ht._CALL_STEPS))
    assert numpy_path(cubes, len(seeds)) and not numpy_path(cubes, 4)
    for seed, site in ((3, (4, 1, 1)), (4, (1, 1, 1))):
        assert outcome(raster_sample, cubes, seed)[1] == \
            "sampler blocked at %r: all colors used by neighbors" % (site,)
    for block in (seeds, seeds[:4]):
        assert outcome(sample_rows, cubes, block) == \
            outcome(raster_sample, cubes, 3)


def test_lipschitz_rows_report_the_first_row_and_site():
    box = box_F(2, 2)
    good = lift_rows(box, (0, 0), sample_rows(box, range(3)))
    bad = good.copy()
    bad[2, box.index((1, 1))] = 3
    bad[2, box.index((2, 2))] = 5
    assert lipschitz_rows(box, (0, 0), good) is None
    assert lipschitz_rows(box, (0, 0), bad) == (2, (1, 1), 3, 2)
    field = HeightField(box, (0, 0), zip(box.sites, bad[2].tolist()))
    assert lipschitz_check(field) == ((1, 1), 3, 2)


# ---------------------------------------------------------------------------
# HeightField's lifted row, against the dict-based Lipschitz check


def walk_lipschitz_check(heights, region, base):
    """lipschitz_check on a dict of heights, site by site."""
    h0 = heights[base]
    for site in region.sites:
        h, bound = heights[site] - h0, norm_1(lattice.sub(site, base))
        if abs(h) > bound:
            return site, h, bound
    return None


@st.composite
def lifted_fields(draw):
    """A region, a base and a proper coloring that lifts there."""
    region = draw(small_regions())
    base = draw(st.sampled_from(region.sites))
    try:
        x = Pattern(region, raster_sample(region, draw(st.integers(0, 99))))
        height_cocycle(x, base)
    except (RuntimeError, ValueError):   # blocked, or disconnected
        x = striped_coloring(Region([base]))
    return x, base


@given(lifted_fields())
@settings(max_examples=300, deadline=None)
def test_field_row_matches_lift_rows_and_the_mapping(case):
    x, base = case
    region = x.region
    field = height_cocycle(x, base)
    colors = np.frombuffer(x.values, dtype=np.uint8).reshape(1, -1)
    assert field.row.tolist() == lift_rows(region, base, colors)[0].tolist()
    heights = dict(zip(region.sites, field.row.tolist()))
    assert field.heights == heights
    assert all(type(h) is int for h in field.heights.values())
    assert json.dumps(list(field.heights.values())) == \
        json.dumps(list(heights.values()))
    assert lipschitz_check(field) == walk_lipschitz_check(heights, region,
                                                         base)
    field.validate()
    # a hand-built field with the same heights has the same row
    by_hand = HeightField(region, base, heights, coloring=x)
    assert by_hand.row.tolist() == field.row.tolist()
    assert lipschitz_check(by_hand) == lipschitz_check(field)


def test_field_with_a_missing_site():
    # the walk meets (-1, -1) as a site, and (1, -1) first as a neighbour of
    # the earlier (0, -1)
    box = box_F(1, 2)
    assert box.sites.index((0, -1)) < box.sites.index((1, -1))
    for missing in ((-1, -1), (1, -1)):
        heights = dict(height_cocycle(striped_coloring(box), (0, 0)).heights)
        del heights[missing]
        field = HeightField(box, (0, 0), heights)
        with pytest.raises(KeyError, match=re.escape(repr(missing))):
            lipschitz_check(field)
        with pytest.raises(ValueError,
                           match="no height at " + re.escape(repr(missing))):
            field.validate()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -1])
def test_in_place_splitmix_matches_counter_rng(seed):
    # counters that wrap past 2**64 once added to the mixed seed
    counters = [0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
    seeds = np.array([seed & (2 ** 64 - 1)] * 2, dtype=np.uint64)
    mixed = ht._splitmix64(seeds)
    assert mixed is seeds
    draws = ht._splitmix64(mixed[:1, None]
                           + np.array(counters, dtype=np.uint64))
    assert draws[0].tolist() == [counter_rng(seed, c) for c in counters]


def test_sampler_matches_raster_sampler_in_four_dimensions():
    """Three and four earlier neighbours go through the scratch slot."""
    regions = [box_F(1, 4), rectangle((2, 3, 2, 2), (0, -1, 0, 1)),
               Region([s for s in itertools.product((0, 1), repeat=4)
                       if any(s)])]
    for region in regions:
        for seeds in ([5], list(range(-3, 6 * ht._CALL_STEPS))):
            assert numpy_path(region, len(seeds)) == (len(seeds) > 1)
            want = []
            for seed in seeds:
                got = outcome(raster_sample, region, seed)
                if isinstance(got, tuple):
                    assert outcome(sample_rows, region, seeds) == got
                    break
                want.append(got)
            assert sample_rows(region, seeds[:len(want)]).tobytes() == \
                b"".join(want)


def json_decode(text):
    """pattern_set_from_jsonl as it was: json.loads on every line."""
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


def decoded(decode, text):
    """What decode makes of text: the set and header, or the error."""
    try:
        ps, header = decode(text)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return type(err), str(err)
    return ps.region, ps.rows.shape, ps.rows.tobytes(), header


READABLE_FORMS = ["canonical"] * 4 + ["spaced", "extra key", "reordered",
                                      "padded"]
BROKEN_FORMS = ["leading zero", "negative", "float", "string", "no values",
                "bare list", "too long", "too short", "empty", "double comma",
                "leading comma", "trailing comma"]


@st.composite
def pattern_files(draw):
    """Pattern files of canonical records, some lines rewritten in forms
    json.loads reads the same way (spaces, other keys) and, in a third of
    the files, one line in a form it rejects or reads as a bad record;
    with blank lines, CRLF endings, duplicate and unsorted records, a
    wrong count or a cut."""
    q = draw(st.sampled_from([1, 2, 3, 11, 120, 300]))
    region = draw(st.sampled_from([
        rectangle((1,)), rectangle((4,), (-2,)), box_F(1, 1), box_F(1, 2),
        Region([(0, 0), (0, 1), (3, 1)])]))
    m = len(region)
    n = draw(st.integers(0, 9))
    header = {"alphabet": [str(v) for v in range(q)],
              "count": n + draw(st.sampled_from([0] * 5 + [-1, 1])),
              "region": region.kind_descriptor()}
    if draw(st.integers(0, 5)) == 0:
        del header["count"]
    lines = [json.dumps(header, separators=(",", ":"))]
    broken = draw(st.integers(-2 * n, n - 1)) if n else -1
    for i in range(n):
        values = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
        form = draw(st.sampled_from(READABLE_FORMS))
        if i == broken:
            form = draw(st.sampled_from(["canonical", "spaced"]
                                        + BROKEN_FORMS))
            if form in ("canonical", "spaced"):
                values[-1] = draw(st.sampled_from([q, 255, 256]))
        lines.append(record_line(form, values))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    if draw(st.integers(0, 5)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def record_line(form, values):
    """The record of values, written in one of the forms above."""
    body = ",".join(map(str, values))
    return {
        "canonical": '{"values":[%s]}' % body,
        "spaced": json.dumps({"values": values}),
        "extra key": '{"values":[%s],"x":1}' % body,
        "reordered": '{"a":[0],"values":[%s]}' % body,
        "padded": ' {"values":[%s]}\t' % body,
        "leading zero": '{"values":[0%s]}' % body,
        "negative": '{"values":[-%s]}' % body,
        "float": '{"values":[%s.0]}' % body,
        "string": '{"values":"%s"}' % body,
        "no values": '{"value":[%s]}' % body,
        "bare list": "[%s]" % body,
        "too long": '{"values":[%s,0]}' % body,
        "too short": '{"values":[%s]}' % ",".join(map(str, values[1:])),
        "empty": '{"values":[]}',
        "double comma": '{"values":[%s,,0]}' % body,
        "leading comma": '{"values":[,%s]}' % body,
        "trailing comma": '{"values":[%s,]}' % body,
    }[form]


@pytest.mark.parametrize("form", BROKEN_FORMS)
def test_block_decoder_matches_json_loads_on_each_broken_form(form):
    # a box, whose header states its size, and a region listing its sites
    for region in (box_F(1, 1), Region([(0, 0), (0, 1), (3, 1)])):
        head = json.dumps({"alphabet": ["0", "1", "2"], "count": 3,
                           "region": region.kind_descriptor()})
        for broken in range(3):
            lines = [head] + [record_line(form if i == broken else "canonical",
                                          [i, 1, 2 - i]) for i in range(3)]
            text = "\n".join(lines) + "\n"
            assert decoded(pattern_set_from_jsonl, text) == \
                decoded(json_decode, text)


# Lines of the length of a record of three one-digit values, but not one:
# the fixed-width check must pass each of them, and its block, to json.loads
SAME_LENGTH_LINES = [
    '{"values":[0,,12]}',       # double comma
    '{"values":[0,,2] }',       # double comma, the length made up by a space
    '{"values":[01,2]}\t',      # leading zero
    '{"values":[0,12]}\t',      # two values, one of two digits
    '{"values":[0, 12]}',       # a space in a digit slot
    '{"values":[ 1,2]}\t',      # a space after the bracket
    '{"values":[0,a,2]}',       # a letter in a digit slot
    '{"values":[0,1e0]}',       # a float, read by json.loads
    '{"values":[0,1,2}]',       # "}]" for "]}"
    '{"values":[0,1,7]}',       # a digit outside a 3-letter alphabet
    '{"values":[0,1,9]}',
    '{"values":[0;1,2]}',       # a semicolon for a comma
    '{"valuez":[0,1,2]}',       # another key
    '{"values":(0,1,2]}',
    '{"values":[0,1,\xb2]}',    # a character of two UTF-8 bytes
    '{"values":[0,1,2]]',
]


@pytest.mark.parametrize("line", SAME_LENGTH_LINES)
def test_fixed_width_check_passes_hostile_lines_to_the_scan(line):
    assert len(line) == len(record_line("canonical", [0, 1, 2]))
    for letters in (3, 12):
        head = json.dumps({"alphabet": [str(v) for v in range(letters)],
                           "count": 4, "region": box_F(1, 1).kind_descriptor()})
        good = [record_line("canonical", [i, 1, 2 - i]) for i in range(3)]
        for at in range(4):
            text = "\n".join([head] + good[:at] + [line] + good[at:]) + "\n"
            assert decoded(pattern_set_from_jsonl, text) == \
                decoded(json_decode, text)


@pytest.mark.parametrize("other", ['{"values":[10,1,2]}', '{"values":[0,1]}',
                                   '{"values":[0,1,2,0]}'])
def test_fixed_width_check_in_a_block_of_mixed_lengths(other):
    # a line of another length sends the whole block to json.loads, which
    # reads the one-digit lines as the fixed-width check would
    head = json.dumps({"alphabet": [str(v) for v in range(12)],
                       "region": box_F(1, 1).kind_descriptor()})
    good = [record_line("canonical", [i % 3, 1, 2]) for i in range(5)]
    for at in range(6):
        text = "\n".join([head] + good[:at] + [other] + good[at:]) + "\n"
        assert decoded(pattern_set_from_jsonl, text) == \
            decoded(json_decode, text)


@given(pattern_files(), st.integers(1, 200))
@settings(max_examples=400, deadline=None)
def test_block_decoder_matches_json_loads(text, block):
    # the text is split into lines block by block, at the first line end
    # past every `block` characters: one line or several at a time
    with mock.patch.object(homshift, "_DECODE_CHARS", block):
        assert decoded(pattern_set_from_jsonl, text) == \
            decoded(json_decode, text)


@pytest.mark.parametrize("argv", [
    ["--graph", name, "--family", "box", "--n", "1"]
    for name in sorted(homshift.GRAPH_PRESETS)]
    + [["--family", "checker", "--n", "3"]], ids=lambda argv: argv[1])
def test_files_the_cli_writes_take_the_grid(tmp_path, argv):
    # every preset graph has at most ten vertices, so every record the CLI
    # writes for one has one-digit values: after the first record, which
    # fixes m, each block is one grid and json.loads reads no line
    out = tmp_path / "patterns.jsonl"
    assert main(["enumerate", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    want = decoded(json_decode, text)
    for newline in ("\n", "\r\n"):
        with mock.patch.object(homshift, "_grid_records",
                               wraps=homshift._grid_records) as grid, \
                mock.patch.object(homshift, "_record_values",
                                  wraps=homshift._record_values) as loose:
            got = decoded(pattern_set_from_jsonl,
                          text.replace("\n", newline))
        assert got == want
        # a block the grid turned down would go to json.loads line by line
        assert loose.call_count == 1
        assert grid.call_count >= (2 if "checker" in argv else 1)


def test_block_decoder_across_full_blocks():
    K3 = complete_graph(3)
    ps = homshift.checkerboard_set(K3, 0, 1, 3, 2)
    text = homshift.pattern_set_to_jsonl(ps, K3)
    assert len(ps) > homshift.ENCODE_BLOCK
    assert len(text) > 2 * homshift._DECODE_CHARS
    lines = text.splitlines()
    assert decoded(pattern_set_from_jsonl, text) == decoded(json_decode, text)
    shuffled = "\n".join(lines[:1] + lines[:0:-1] + lines[1:3]).replace(
        '"count":%d' % len(ps), '"count":%d' % (len(ps) + 2))
    assert decoded(pattern_set_from_jsonl, shuffled) == \
        decoded(json_decode, shuffled)
    far = homshift.ENCODE_BLOCK + 5
    lines[far] = lines[far].replace("1", "7", 1)
    broken = "\n".join(lines)
    assert decoded(pattern_set_from_jsonl, broken) == \
        (ValueError, "value 7 outside the 3-letter alphabet")
