"""Rectangular tilings: Frobenius splitting, certified rectangles, box
complements, simultaneous block realization, counting, and the two-ring
marker family.

Oracles: reachable-sum search for Frobenius questions, exact-cover set
arithmetic for every constructed tiling.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import cli
from latticelab import homshift as hs
from latticelab import lattice
from latticelab import tiling as tl
from latticelab.lattice import Region, box_B, rectangle
from latticelab.util import BudgetCounter, BudgetError

DOM = tl.dominoes()


def oracle_representable(lengths, L):
    """Breadth-first reachable sums, counting summands; independent of the DP."""
    frontier = {0}
    seen = {0: 0}
    k = 0
    while frontier:
        k += 1
        nxt = set()
        for s in frontier:
            for x in lengths:
                v = s + x
                if v <= L and v not in seen:
                    seen[v] = k
                    nxt.add(v)
        frontier = nxt
    return seen.get(L)  # minimal summand count, or None


# ---------------------------------------------------------------------------
# tile sets


def test_is_coprime_examples():
    assert tl.is_coprime(DOM)
    assert not tl.is_coprime(tl.TileSet([(2, 2), (4, 2)]))
    assert tl.is_coprime(tl.TileSet([(3, 1), (5, 1)]))


def test_tileset_M_is_product_of_all_sides():
    assert DOM.M == 4
    assert tl.TileSet([(2, 3)]).M == 6
    assert tl.TileSet([(2, 1), (3, 1), (5, 1)]).M == 30


def test_tileset_rejects_bad_input():
    with pytest.raises(ValueError):
        tl.TileSet([])
    with pytest.raises(ValueError):
        tl.TileSet([(1, 2), (2,)])
    with pytest.raises(ValueError):
        tl.TileSet([(0, 2)])
    with pytest.raises(ValueError):
        tl.TileSet([(1, 2), (1, 2)])


# ---------------------------------------------------------------------------
# Frobenius decomposition


@pytest.mark.parametrize("lengths", [(2, 3), (3, 5), (2, 5), (1, 2)],
                         ids=["2-3", "3-5", "2-5", "1-2"])
def test_frobenius_matches_oracle_up_to_200(lengths):
    product = 1
    for x in lengths:
        product *= x
    for L in range(1, 201):
        combo = tl.frobenius_decompose(lengths, L)
        want = oracle_representable(lengths, L)
        if want is None:
            assert combo is None
        else:
            assert combo is not None
            assert sum(x * c for x, c in combo.items()) == L
            assert all(c >= 0 for c in combo.values())
            assert sum(combo.values()) == want  # minimal summand count
        if L >= product:
            assert combo is not None


def test_frobenius_examples():
    assert tl.frobenius_decompose((2, 3), 7) == {2: 2, 3: 1}
    assert tl.frobenius_decompose((2, 3), 1) is None
    combo = tl.frobenius_decompose((1, 5), 13)
    assert sum(x * c for x, c in combo.items()) == 13


def test_frobenius_rejects_non_coprime():
    with pytest.raises(ValueError):
        tl.frobenius_decompose((4, 6), 10)


def test_frobenius_canonical_tie_break():
    # 10 = 2*5 = 5+5 over {2,5}: two summands beats five
    assert tl.frobenius_decompose((2, 5), 10) == {5: 2}
    # 6 over {2,3}: both 2+2+2 and 3+3; fewer summands wins
    assert tl.frobenius_decompose((2, 3), 6) == {3: 2}


# ---------------------------------------------------------------------------
# rectangles


def test_tile_rectangle_grid_condition():
    t = tl.tile_rectangle(DOM, (4, 4))
    assert t.validate()
    assert t.region == rectangle((4, 4))


def test_tile_rectangle_frobenius_condition():
    t = tl.tile_rectangle(DOM, (5, 4))
    assert t.validate()
    t2 = tl.tile_rectangle(DOM, (4, 7))
    assert t2.validate()


def test_tile_rectangle_longer_cases():
    bars = tl.TileSet([(2, 1), (3, 1), (5, 1)])
    t = tl.tile_rectangle(bars, (31, 30))
    assert t.validate()


def test_tile_rectangle_rejects_uncertified():
    with pytest.raises(ValueError):
        tl.tile_rectangle(DOM, (3, 3))
    with pytest.raises(ValueError):
        tl.tile_rectangle(DOM, (5, 5))  # two non-multiples of M


def test_tile_rectangle_is_deterministic():
    a = tl.tile_rectangle(DOM, (5, 4))
    b = tl.tile_rectangle(DOM, (5, 4))
    assert a.placements == b.placements


def test_grid_variants_count_and_distinctness():
    variants = list(tl.grid_tiling_variants(DOM, (4, 4)))
    assert len(variants) == 2  # |F| ** 1 cube
    assert len(set(v.placements for v in variants)) == 2
    for v in variants:
        assert v.validate()
    variants = list(tl.grid_tiling_variants(DOM, (8, 4)))
    assert len(variants) == 2 ** 2
    assert len(set(v.placements for v in variants)) == 4


def test_grid_variants_needs_multiples():
    with pytest.raises(ValueError):
        list(tl.grid_tiling_variants(DOM, (5, 4)))


# ---------------------------------------------------------------------------
# box complement partition


def region_sites(rects):
    out = set()
    for r in rects:
        for s in r.sites:
            assert s not in out, "pieces overlap"
            out.add(s)
    return out


def test_partition_complement_d1():
    pieces = tl.partition_complement(1, 2, 2, 4, (4,))
    big = set(box_B(12, 1).sites)
    inner = set((4 + x,) for x in range(1, 5))
    assert region_sites(pieces) == big - inner
    for r in pieces:
        lo, hi = r.bounds()
        assert hi[0] - lo[0] + 1 >= 2


def test_partition_complement_d2_centered():
    pieces = tl.partition_complement(1, 2, 4, 4, (4, 4))
    big = set(box_B(12, 2).sites)
    inner = set((4 + x, 4 + y) for x in range(1, 5) for y in range(1, 5))
    assert region_sites(pieces) == big - inner
    assert len(pieces) <= 4
    for r in pieces:
        lo, hi = r.bounds()
        dims = tuple(hi[t] - lo[t] + 1 for t in range(2))
        assert any(dims[a] >= 4 and dims[1 - a] % 4 == 0 for a in range(2))


def test_partition_complement_d2_off_center():
    pieces = tl.partition_complement(1, 3, 4, 4, (5, 7))
    big = set(box_B(16, 2).sites)
    inner = set((5 + x, 7 + y) for x in range(1, 5) for y in range(1, 5))
    assert region_sites(pieces) == big - inner


def test_partition_complement_rejects_bad_offset():
    with pytest.raises(ValueError):
        tl.partition_complement(1, 2, 4, 4, (0, 4))
    with pytest.raises(ValueError):
        tl.partition_complement(1, 2, 4, 4, (4, 9))


def test_partition_complement_d3():
    pieces = tl.partition_complement(1, 2, 2, 2, (2, 2, 2))
    big = set(box_B(6, 3).sites)
    inner = set((2 + x, 2 + y, 2 + z)
                for x in range(1, 3) for y in range(1, 3) for z in range(1, 3))
    assert region_sites(pieces) == big - inner
    assert len(pieces) <= 6


# ---------------------------------------------------------------------------
# flexible fill


def test_flexible_fill_empty_prescription():
    t = tl.flexible_tile_fill(DOM, 3, 1, [], {})
    assert t.validate()
    assert t.region == box_B(12, 2)


def test_flexible_fill_single_block_aligned():
    w = list(tl.grid_tiling_variants(DOM, (4, 4)))[1]
    t = tl.flexible_tile_fill(DOM, 3, 1, [(4, 4)], {(4, 4): w})
    assert t.validate()
    assert t.restrict_equals((4, 4), w)


def test_flexible_fill_single_block_unaligned():
    w = list(tl.grid_tiling_variants(DOM, (4, 4)))[1]
    t = tl.flexible_tile_fill(DOM, 4, 1, [(5, 6)], {(5, 6): w})
    assert t.validate()
    assert t.restrict_equals((5, 6), w)


def test_flexible_fill_two_blocks():
    va, vb = list(tl.grid_tiling_variants(DOM, (4, 4)))
    t = tl.flexible_tile_fill(DOM, 7, 1, [(4, 4), (16, 16)],
                              {(4, 4): va, (16, 16): vb})
    assert t.validate()
    assert t.restrict_equals((4, 4), va)
    assert t.restrict_equals((16, 16), vb)


def test_flexible_fill_rejects_close_blocks():
    va, vb = list(tl.grid_tiling_variants(DOM, (4, 4)))
    with pytest.raises(ValueError):
        tl.flexible_tile_fill(DOM, 7, 1, [(4, 4), (8, 4)],
                              {(4, 4): va, (8, 4): vb})


def test_flexible_fill_rejects_block_near_face():
    w = list(tl.grid_tiling_variants(DOM, (4, 4)))[0]
    with pytest.raises(ValueError):
        tl.flexible_tile_fill(DOM, 3, 1, [(2, 4)], {(2, 4): w})
    with pytest.raises(ValueError):
        tl.flexible_tile_fill(DOM, 3, 1, [(8, 4)], {(8, 4): w})


def test_flexible_fill_rejects_wrong_block_region():
    w = tl.tile_rectangle(DOM, (4, 8))
    with pytest.raises(ValueError):
        tl.flexible_tile_fill(DOM, 4, 1, [(4, 4)], {(4, 4): w})


# ---------------------------------------------------------------------------
# counting


def test_count_tilings_goldens():
    assert tl.count_tilings(DOM, box_B(2, 2)) == 2
    assert tl.count_tilings(DOM, rectangle((2, 3))) == 3
    assert tl.count_tilings(DOM, rectangle((3, 2))) == 3
    assert tl.count_tilings(DOM, box_B(4, 2)) == 36


def test_count_tilings_odd_region_is_zero():
    assert tl.count_tilings(DOM, rectangle((3, 3))) == 0


def test_count_tilings_non_rectangular_region():
    # 2x3 with two opposite corners removed: count by hand = 1
    sites = [s for s in rectangle((3, 2)).sites if s not in ((1, 1), (3, 2))]
    assert tl.count_tilings(DOM, Region(sites)) == 1


def test_count_tilings_empty_region_is_one():
    assert tl.count_tilings(DOM, Region([])) == 1


def test_count_tilings_budget():
    with pytest.raises(BudgetError):
        tl.count_tilings(DOM, rectangle((6, 6)), budget=10)


def test_count_matches_exhaustive_placement_oracle():
    """Independent oracle: enumerate all placement subsets on a tiny region."""
    region = rectangle((2, 2))
    placements = []
    for idx, proto in enumerate(DOM.protos):
        for off in itertools.product(range(0, 3), repeat=2):
            cells = [tuple(off[t] + x[t] for t in range(2))
                     for x in itertools.product(*(range(1, c + 1) for c in proto))]
            if all(c in region for c in cells):
                placements.append(frozenset(cells))
    target = frozenset(region.sites)
    count = 0
    for r in range(1, len(placements) + 1):
        for subset in itertools.combinations(placements, r):
            union = frozenset().union(*subset)
            if union == target and sum(len(s) for s in subset) == len(target):
                count += 1
    assert tl.count_tilings(DOM, region) == count == 2


def test_count_tilings_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        tl.count_tilings(DOM, rectangle((2, 2, 2)))


def test_find_tiling_reads_back_a_valid_tiling():
    bars = tl.tile_preset("bars235")
    t = tl.find_tiling(bars, rectangle((40, 1)))
    assert t.validate() and t.region == rectangle((40, 1))
    assert t == tl.find_tiling(bars, rectangle((40, 1)))
    assert tl.find_tiling(DOM, rectangle((3, 3))) is None
    assert tl.find_tiling(DOM, Region([])).placements == ()
    with pytest.raises(BudgetError, match="^tiling count exceeded the "
                                          "frontier state budget of 10$"):
        tl.find_tiling(DOM, rectangle((6, 6)), budget=10)


@pytest.mark.parametrize("F, dims", [(DOM, (42, 42)),
                                     (tl.tile_preset("bars235"), (12, 12))],
                         ids=["dominoes-42x42", "bars235-12x12"])
def test_find_tiling_walks_without_counting(F, dims):
    # neither rectangle is certified by a construction, and counting
    # either runs far past this budget (dominoes 14 x 14 alone expand
    # over 10**5 frontier states); the walk needs one state per tile here
    t = tl.find_tiling(F, rectangle(dims), budget=2000)
    assert t.region == rectangle(dims) and t.validate()


# ---------------------------------------------------------------------------
# the frontier DP against the backtracking search it replaced


def oracle_first_uncovered(region, covered):
    for s in region.sites:
        if s not in covered:
            return s
    return None


def oracle_count(F, region, covered, counter):
    site = oracle_first_uncovered(region, covered)
    if site is None:
        return 1
    counter.tick()
    total = 0
    d = F.d
    for proto in F.protos:
        cells = [tuple(site[t] + x[t] for t in range(d))
                 for x in itertools.product(*(range(c) for c in proto))]
        if all(c in region and c not in covered for c in cells):
            covered.update(cells)
            total += oracle_count(F, region, covered, counter)
            covered.difference_update(cells)
    return total


@st.composite
def tiling_cases(draw):
    """A random rectangular tile set and a small region of its dimension:
    a box, or a site set (often disconnected)."""
    d = draw(st.integers(1, 3))
    side = {1: 12, 2: 4, 3: 2}[d]
    protos = draw(st.lists(st.tuples(*[st.integers(1, 3)] * d),
                           min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        dims = tuple(draw(st.integers(1, side)) for _ in range(d))
        offset = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        region = rectangle(dims, offset)
    else:
        cells = list(itertools.product(range(side), repeat=d))
        region = Region(draw(st.sets(st.sampled_from(cells))))
    return tl.TileSet(protos), region


@given(tiling_cases())
@settings(max_examples=300, deadline=None)
def test_count_matches_backtracking(case):
    F, region = case
    want = oracle_count(F, region, set(), BudgetCounter())
    assert tl.count_tilings(F, region) == want
    # the DP expands at most one state per node of the backtracking run
    # in its own sweep order, the region's longest axis outermost
    counter = BudgetCounter()
    tiles, turned, _ = tl._long_axis_first(F, region)
    assert oracle_count(tiles, turned, set(), counter) == want
    assert tl.count_tilings(F, region, budget=max(1, counter.nodes)) == want
    biggest = max(math.prod(p) for p in F.protos)
    if want and len(region) > biggest:
        with pytest.raises(BudgetError):
            tl.count_tilings(F, region, budget=1)
    # the walk expands no state the count does not, so the same budget
    # decides it
    found = tl.find_tiling(F, region, budget=max(1, counter.nodes))
    assert (found is None) == (want == 0)
    if found is not None:
        assert found.region == region and found.validate()


def test_find_tiling_exhausts_a_region_without_tilings():
    # the 6 x 6 box without two corners of one colour has no domino
    # tiling, and the walk proves it by running out of states
    region = Region([s for s in rectangle((6, 6)).sites
                     if s not in ((1, 1), (6, 6))])
    assert oracle_count(DOM, region, set(), BudgetCounter()) == 0
    assert tl.find_tiling(DOM, region) is None


def permuted(F, region, perm):
    """The tile set and the region with axis t taken from axis perm[t]."""
    tiles = tl.TileSet([[p[t] for t in perm] for p in F.protos])
    if not len(region):
        return tiles, region
    return tiles, Region(region.coords[:, list(perm)])


@given(tiling_cases())
@settings(max_examples=200, deadline=None)
def test_count_is_the_same_under_axis_permutations(case):
    F, region = case
    want = oracle_count(F, region, set(), BudgetCounter())
    for perm in itertools.permutations(range(F.d)):
        tiles, turned = permuted(F, region, perm)
        assert tl.count_tilings(tiles, turned) == want
        found = tl.find_tiling(tiles, turned)
        assert (found is None) == (want == 0)
        if found is not None:
            # read back in the caller's frame, with the caller's tiles
            assert found.tiles == tiles and found.region == turned
            assert found.validate()


def test_long_axis_first_orders_the_bounding_box():
    F = tl.TileSet([(1, 2, 3), (3, 1, 1)])
    tiles, region, order = tl._long_axis_first(F, rectangle((2, 5, 2),
                                                            (0, -3, 7)))
    assert order == [1, 0, 2]  # ties keep their order
    assert tiles.protos == ((2, 1, 3), (1, 3, 1))
    assert region == rectangle((5, 2, 2), (-3, 0, 7))
    # square, already long-first and empty regions come back as they are
    for box in (rectangle((3, 3)), rectangle((4, 1)), Region([])):
        tiles, region, order = tl._long_axis_first(DOM, box)
        assert (tiles, region, order) == (DOM, box, [0, 1])
        assert tiles is DOM and region is box
    with pytest.raises(ValueError, match="dimension mismatch"):
        tl._long_axis_first(DOM, rectangle((2, 2, 2)))


def test_find_tiling_reads_back_in_the_sweep_frame():
    # the 5 x 12 rectangle is swept as 12 x 5; its first tiling there,
    # mapped back, is the mirror of the 12 x 5 one
    S = tl.tile_preset("squares23")
    wide, tall = tl.find_tiling(S, rectangle((5, 12))), \
        tl.find_tiling(S, rectangle((12, 5)))
    assert wide.validate() and wide.region == rectangle((5, 12))
    assert wide.placements == tuple(sorted((p, o[::-1])
                                           for p, o in tall.placements))


# ---------------------------------------------------------------------------
# the marker tiling family


def test_marker_tiling_dominoes_n4():
    fam = tl.marker_tiling_set(DOM, 4)
    assert len(fam) == 2
    for member in fam:
        assert member.validate()
    # rings are single-type: outer ring sites all carry one prototile,
    # the next ring a different one
    for member, (i1, i2) in zip(fam, fam.meta["ring_pairs"]):
        assert i1 != i2
        labels = member.mapping()
        outer = [s for s in member.region.sites
                 if not (-1 <= s[0] <= 2 and -1 <= s[1] <= 2)]
        inner = [s for s in member.region.sites
                 if (-1 <= s[0] <= 2 and -1 <= s[1] <= 2)]
        assert set(labels[s][0] for s in outer) == {i1}
        assert set(labels[s][0] for s in inner) == {i2}


def test_marker_tiling_overlap_check():
    fam = tl.marker_tiling_set(DOM, 4)
    assert hs.verify_marker_spacing(fam, fam.meta["spacing"]) is None


def test_marker_tiling_overlap_has_limit():
    # far enough out there are genuinely consistent shifted pairs, so the
    # refutation radius cannot be pushed arbitrarily: document the frontier
    fam = tl.marker_tiling_set(DOM, 4)
    assert hs.verify_marker_spacing(fam, 3) is not None


def test_marker_tiling_rejects_singleton():
    with pytest.raises(ValueError):
        tl.marker_tiling_set(tl.TileSet([(1, 2)]), 4)


def test_marker_tiling_rejects_small_box():
    with pytest.raises(ValueError):
        tl.marker_tiling_set(DOM, 3)


def test_marker_tiling_larger_box():
    fam = tl.marker_tiling_set(DOM, 6)  # c = 12, interior side 4
    assert len(fam) == 2
    for member in fam:
        assert member.validate()


# ---------------------------------------------------------------------------
# serialization


def test_tiling_json_round_trip():
    t = tl.tile_rectangle(DOM, (5, 4))
    back = tl.tiling_from_json(json.loads(json.dumps(tl.tiling_to_json(t))))
    assert back == t


def test_tiling_json_validates_on_load():
    t = tl.tile_rectangle(DOM, (4, 4))
    obj = tl.tiling_to_json(t)
    obj["placements"] = obj["placements"][1:]  # drop a tile
    with pytest.raises(ValueError):
        tl.tiling_from_json(obj)
    assert tl.tiling_from_json(obj, validate=False) is not None


@pytest.mark.parametrize("field, value", [
    ("placements", [[0, [1]]]), ("placements", [[5, [0, 0]]]),
    ("placements", [[-1, [0, 0]]]), ("placements", [[0, [0, "1"]]]),
    ("placements", [[0, [0, 0], 1]]), ("tileset", [[1, "2"], [2, 1]]),
    ("region", {"kind": "rect", "dims": [2, 2, 2], "offset": [0, 0, 0]}),
], ids=["short-offset", "index-too-big", "negative-index", "string-offset",
        "long-placement", "string-side", "region-dimension"])
def test_tiling_json_rejects_malformed_even_unvalidated(field, value):
    obj = tl.tiling_to_json(tl.tile_rectangle(DOM, (4, 4)))
    obj[field] = value
    with pytest.raises(ValueError):
        tl.tiling_from_json(obj, validate=False)


# ---------------------------------------------------------------------------
# validation: the array check against the site walk


# small valid tilings: (tile set, region, placements)
BASE_TILINGS = [(F, region, tl.find_tiling(F, region).placements)
                for F, region in [
                    (DOM, rectangle((4, 4))),
                    (DOM, rectangle((3, 4), (-2, 5))),
                    (DOM, Region([(i, j) for i in range(4) for j in range(4)
                                  if i < 2 or j < 2])),
                    (tl.tile_preset("bars235"), rectangle((5, 3))),
                    (tl.tile_preset("squares23"), rectangle((6, 6))),
                    (tl.tile_preset("dominoes3"), rectangle((2, 2, 2)))]]
# shifts of a whole tiling, up to the ends of int64
SHIFTS = [0, -7, 2 ** 62, 2 ** 63 - 10, -2 ** 63 + 1]
# moves of one tile, some past int64 and some wrapping to the far end
MOVES = [-1, 0, 1, 2, 2 ** 63, -2 ** 64, 2 ** 64 + 1, 2 ** 70]
FAR = [2 ** 63 - 1, 2 ** 63, -2 ** 63, 2 ** 64, -2 ** 70, 10 ** 6]


@st.composite
def changed_tilings(draw):
    """A valid tiling, shifted, then with one placement moved, duplicated,
    dropped, put far away or given another prototile, or left alone;
    or an empty region, with no tiles or one."""
    F, region, placements = draw(st.sampled_from(BASE_TILINGS))
    d = F.d
    if draw(st.integers(0, 9)) == 0:
        return F, Region([]), [(0, (0,) * d)] * draw(st.integers(0, 1))
    shift = draw(st.sampled_from(SHIFTS))
    region = Region([tuple(c + shift for c in s) for s in region.sites])
    pl = [(p, tuple(c + shift for c in o)) for p, o in placements]
    kind = draw(st.sampled_from(["none", "move", "duplicate", "drop",
                                 "far", "proto", "none-left"]))
    i = draw(st.integers(0, len(pl) - 1))
    p, o = pl[i]
    if kind == "move":
        pl[i] = (p, tuple(c + draw(st.sampled_from(MOVES)) for c in o))
    elif kind == "duplicate":
        pl.append(pl[i])
    elif kind == "drop":
        del pl[i]
    elif kind == "far":
        pl[i] = (p, tuple(draw(st.sampled_from(FAR)) for _ in o))
    elif kind == "proto":
        pl[i] = ((p + 1) % len(F), o)
    elif kind == "none-left":
        pl = []
    return F, region, pl


def _outcome(check):
    try:
        return check()
    except ValueError as err:
        return str(err)


@given(changed_tilings())
@settings(max_examples=300, deadline=None)
def test_validate_array_check_matches_the_site_walk(case):
    # the array check accepts no tiling the walk rejects, and every one it
    # accepts whose offsets fit int64 (a tile at the low end of int64 has
    # its offset just below)
    t = tl.Tiling(*case)
    want = _outcome(t._walk_sites)
    assert _outcome(t.validate) == want
    fits = all(-2 ** 63 <= c < 2 ** 63 for _, o in t.placements for c in o)
    covers = t._covers_exactly()
    assert want is True if covers else not (want is True and fits)


def test_verify_tiling_reports_the_site_walks_reason(tmp_path, capsys):
    F, region, placements = BASE_TILINGS[0]
    pl = list(placements)
    changes = {"valid": pl, "overlap": pl + pl[:1], "hole": pl[1:],
               "outside": pl[:-1] + [(pl[-1][0], (4, 4))],
               "past-int64": pl[:-1] + [(pl[-1][0], (2 ** 63, 0))],
               "wrapping": pl[:-1] + [(pl[-1][0], (2 ** 64 - 1, 0))]}
    for name, changed in changes.items():
        t = tl.Tiling(F, region, changed)
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps({"tiling": tl.tiling_to_json(t)}))
        code = cli.main(["verify", "tiling", "--file", str(path)])
        record = json.loads(capsys.readouterr().out)
        want = _outcome(t._walk_sites)
        if want is True:
            assert code == 0 and record["ok"] is True
        else:
            assert code == 1 and record["ok"] is False
            assert record["reason"] == want
