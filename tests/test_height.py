"""Height lifts of 3-colorings: construction, bounds, gaps, window gluing."""

import itertools
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import lattice
from latticelab.lattice import Region, box_F, rectangle, norm_1, parity
from latticelab.homshift import (Pattern, complete_graph, full_shift_graph,
                                 enumerate_hom, is_hom, pattern_from_mapping)
from latticelab.height import (HeightField, height_cocycle, lipschitz_check,
                               slope_estimate, sample_coloring,
                               striped_coloring, checker_coloring,
                               quasiflat_gap, ufp_window_check)
from latticelab.util import BudgetError, rng_choice

K3 = complete_graph(3)


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


def test_slope_estimate():
    field = height_cocycle(striped_coloring(box_F(2, 2)), (0, 0))
    assert slope_estimate(field, (2, 2)) == 1.0
    assert slope_estimate(field, (0, 0)) == 0.0
    flat = height_cocycle(checker_coloring(box_F(2, 2)), (0, 0))
    assert slope_estimate(flat, (2, 2)) == 0.0


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
    """Breadth-first lift by tuple arithmetic: lattice.neighbors per edge."""
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
    """Raster-order sampler by tuple arithmetic: lattice.neighbors per site."""
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
        values[pos] = free[rng_choice(seed, pos, len(free))]
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


@given(colorings())
@settings(max_examples=400, deadline=None)
def test_cocycle_matches_tuple_lift(case):
    x, base = case
    got = outcome(lambda: height_cocycle(x, base).heights)
    assert got == outcome(tuple_lift, x, base)


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
        assert region.neighbor_table() == table
        assert region.earlier_neighbor_table() == earlier
        assert region.neighbor_table() is region.neighbor_table()
        fresh = Region(region.sites, kind=region.kind)
        copy = pickle.loads(pickle.dumps(region))
        for other in (fresh, copy):
            assert other == region and hash(other) == hash(region)
        assert copy.neighbor_table() == table
        assert copy.earlier_neighbor_table() == earlier
