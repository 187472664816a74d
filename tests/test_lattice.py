"""Geometry primitives: boxes, shells, parity, spacing."""

import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import lattice
from latticelab.lattice import (Region, box_B, box_F, is_box_spaced,
                                is_K_spaced, parity, rectangle, shell_F)

sites_2d = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
sites_3d = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))


def test_box_F_sizes():
    assert len(box_F(0, 1)) == 1
    assert len(box_F(2, 1)) == 5
    assert len(box_F(1, 2)) == 9
    assert len(box_F(2, 2)) == 25
    assert len(box_F(1, 3)) == 27


def test_box_F_is_centered():
    r = box_F(2, 2)
    assert (0, 0) in r
    assert (-2, 2) in r
    assert (3, 0) not in r
    lo, hi = r.bounds()
    assert lo == (-2, -2) and hi == (2, 2)


def test_box_B_is_positive_corner():
    r = box_B(2, 2)
    assert len(r) == 4
    assert (1, 1) in r and (2, 2) in r
    assert (0, 0) not in r


def test_box_B_rejects_n_zero():
    with pytest.raises(ValueError):
        box_B(0, 2)


def test_rectangle_with_offset():
    r = rectangle((2, 3), (5, -1))
    assert len(r) == 6
    assert (6, 0) in r
    assert (5, -1) not in r  # offset is exclusive: sites start at offset+1
    assert (7, 2) in r and (8, 2) not in r


def test_sites_are_lexicographically_sorted():
    r = box_F(1, 2)
    assert list(r.sites) == sorted(r.sites)
    assert r.sites[0] == (-1, -1)
    assert r.sites[-1] == (1, 1)


def box_contains(region, site):
    """Membership as the bounding-box walk answered it: the dimension,
    then each coordinate against the box, then the site set."""
    if region.d is None or len(site) != region.d:
        return False
    lo, hi = region.bounds()
    return (all(a <= c <= b for a, c, b in zip(lo, site, hi))
            and site in set(region.sites))


@settings(max_examples=200)
@given(st.sampled_from([box_F(2, 2), box_B(3, 3), rectangle((2, 5), (-3, 1)),
                        Region([(0, 0), (2, 3), (-1, 5)]), Region([])]),
       st.lists(st.integers(-7, 7), min_size=0, max_size=4).map(tuple))
def test_membership_matches_the_bounding_box_walk(region, site):
    # out-of-box, wrong-length and member sites; numpy ints hash as ints
    assert (site in region) == box_contains(region, site)
    numpy_site = tuple(np.int64(c) for c in site)
    assert (numpy_site in region) == box_contains(region, site)
    for member in region.sites[:3]:
        assert member in region


@st.composite
def regions_with_sites(draw):
    """(region, its sites as sorted tuples built without numpy): a box, an
    offset rectangle, a general or a disconnected site set in d = 1..4,
    or the empty region."""
    d = draw(st.integers(1, 4))
    small = 3 if d < 4 else 2
    kind = draw(st.sampled_from(["F", "B", "rect", "general", "apart",
                                 "empty"]))
    if kind == "F":
        n = draw(st.integers(0, small - 1))
        return box_F(n, d), tuple(itertools.product(range(-n, n + 1),
                                                    repeat=d))
    if kind == "B":
        n = draw(st.integers(1, small))
        return box_B(n, d), tuple(itertools.product(range(1, n + 1),
                                                    repeat=d))
    if kind == "rect":
        dims = tuple(draw(st.integers(1, small + 1)) for _ in range(d))
        offset = tuple(draw(st.integers(-6, 6)) for _ in range(d))
        return rectangle(dims, offset), tuple(itertools.product(
            *(range(o + 1, o + c + 1) for o, c in zip(offset, dims))))
    if kind == "empty":
        return Region([]), ()
    coord = st.integers(-3, 3)
    sites = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=30))
    if kind == "apart":
        # a second cluster far away along a random axis, so the bounding
        # box is mostly empty and the region is disconnected
        far = draw(st.integers(0, d - 1))
        sites += [tuple(c + 40 * (t == far) for t, c in enumerate(s))
                  for s in draw(st.lists(st.sampled_from(sites), min_size=1))]
    return Region(draw(st.permutations(sites))), tuple(sorted(set(sites)))


@settings(max_examples=300, deadline=None)
@given(regions_with_sites(), st.data())
def test_region_arrays_match_the_tuple_oracle(case, data):
    region, sites = case
    index = {s: i for i, s in enumerate(sites)}
    table = [[index.get(nb, -1) for nb in lattice.neighbors(s)]
             for s in sites]
    assert region.sites == sites and len(region) == len(sites)
    assert region.coords.tolist() == [list(s) for s in sites]
    got = region.neighbor_table()
    assert got.dtype == np.int32
    assert got.shape == (len(sites), 2 * (region.d or 0))
    assert got.tolist() == table
    earlier = region.earlier_neighbor_table().tolist()
    assert earlier == [row[0::2] for row in table]
    assert [[j for j in row if j >= 0] for row in earlier] == [
        [j for j in row if 0 <= j < pos] for pos, row in enumerate(table)]
    # positions, index and membership, inside and outside the region
    d = region.d or data.draw(st.integers(1, 4))
    probes = list(sites) + data.draw(st.lists(
        st.tuples(*[st.integers(-5, 45)] * d), max_size=12))
    found = region.positions(np.array(probes, dtype=np.int64).reshape(-1, d))
    assert found.tolist() == [index.get(p, -1) for p in probes]
    for p in probes:
        assert (p in region) == (p in index)
        if p in index:
            assert region.index(p) == index[p]
        else:
            with pytest.raises(KeyError):
                region.index(p)
    # equality, hashing and pickling, across region kinds
    copy = pickle.loads(pickle.dumps(region))
    assert copy.kind == region.kind
    others = [copy, Region(sites), Region(reversed(sites), kind=region.kind)]
    if sites:
        others.append(Region(region.coords[::-1]))
    for other in others:
        assert other == region and hash(other) == hash(region)
        assert other.neighbor_table().tolist() == table
    if sites:
        fewer = Region(sites[1:])
        assert fewer != region and region != fewer


@pytest.mark.parametrize("make", [
    lambda: Region([(0, 2 ** 63)]),
    lambda: Region([(0, -2 ** 63 - 1), (0, 0)]),
    lambda: Region([(-2 ** 62, 0), (2 ** 62, 0)]),
    lambda: Region([(0, 0, 0), (2 ** 21,) * 3]),
    lambda: rectangle((2, 2), (2 ** 70, 0)),
    lambda: lattice.region_from_descriptor(
        {"kind": "general", "sites": [[0, 0], [0, 2 ** 70]]}),
    lambda: box_F(2 ** 62, 1),
], ids=["coordinate", "negative", "span", "volume", "rect-offset",
        "descriptor", "box"])
def test_regions_past_int64_are_value_errors(make):
    with pytest.raises(ValueError, match="int64"):
        make()


def test_region_index_roundtrip():
    r = box_F(2, 2)
    for i, s in enumerate(r.sites):
        assert r.index(s) == i


def test_shell_is_box_difference():
    # the shell lists its sites in the site order of box_F
    for n in range(5):
        for d in (1, 2, 3):
            inner = set(box_F(n - 1, d).sites) if n else set()
            expect = [s for s in box_F(n, d).sites if s not in inner]
            assert shell_F(n, d) == expect


def test_shell_at_zero_is_origin():
    assert list(shell_F(0, 2)) == [(0, 0)]


def test_parity_alternates_on_neighbors():
    for s in box_F(2, 2).sites:
        for nb in lattice.neighbors(s):
            assert parity(s) != parity(nb)


def test_dimension_cap():
    with pytest.raises(ValueError):
        box_F(1, 5)


@given(st.lists(sites_2d, min_size=1, max_size=5, unique=True),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_box_spacing_routes_agree(points, n):
    """Occupied-set disjointness and pairwise sup-distance give the same answer."""
    K = box_F(n, 2)
    assert is_K_spaced(points, K) == is_box_spaced(points, n)


def test_box_spacing_threshold():
    # two sites i, j with ||i-j||_inf = 2n+1 have disjoint i+F_n, j+F_n
    assert is_box_spaced([(0, 0), (3, 0)], 1)
    assert not is_box_spaced([(0, 0), (2, 0)], 1)
    assert not is_box_spaced([(0, 0), (2, 2)], 1)
    assert is_box_spaced([(0, 0), (3, 1)], 1)


def test_spacing_of_singleton_and_empty():
    assert is_box_spaced([], 3)
    assert is_box_spaced([(1, 1)], 3)


def test_general_K_spacing():
    # a non-box translate set: the two-site domino footprint
    K = Region([(0, 0), (1, 0)])
    assert is_K_spaced([(0, 0), (3, 0)], K)
    assert not is_K_spaced([(0, 0), (1, 0)], K)
    assert is_K_spaced([(0, 0), (0, 1)], K)  # disjoint columns


@given(sites_3d)
def test_parity_is_sum_mod_two(s):
    assert parity(s) == sum(s) % 2


def test_translate_preserves_order_and_size():
    r = box_F(1, 2)
    t = r.translate((3, -2))
    assert len(t) == len(r)
    assert (2, -3) in t
    assert list(t.sites) == sorted(t.sites)


def test_region_equality_is_by_sites():
    assert box_F(1, 2) == Region(box_F(1, 2).sites)
    assert box_F(1, 2) != box_F(1, 1)


def test_is_box_detects_holes():
    assert box_F(1, 2).is_box()
    holey = Region([s for s in box_F(1, 2).sites if s != (0, 0)])
    assert not holey.is_box()


def test_neighbors_count():
    assert len(lattice.neighbors((0, 0))) == 4
    assert len(lattice.neighbors((1,))) == 2
    assert set(lattice.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_unit_vectors_are_one_based():
    assert lattice.unit(1, 3) == (1, 0, 0)
    assert lattice.unit(3, 3) == (0, 0, 1)


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        Region([(0, 0), (1, 2, 3)])


@pytest.mark.parametrize("region", [
    box_F(1, 2), box_B(2, 3), rectangle((2, 3), (1, -1)),
    Region([(0, 0), (1, 0), (0, 1)]), Region([])],
    ids=["F", "B", "rect", "general", "empty"])
def test_region_descriptor_round_trip(region):
    desc = json.loads(json.dumps(region.kind_descriptor()))
    back = lattice.region_from_descriptor(desc)
    assert back == region
    assert back.kind_descriptor() == region.kind_descriptor()


@pytest.mark.parametrize("desc", [
    {"kind": "general", "sites": [["a", "b"]]},
    {"kind": "general", "sites": [[0, 0], [1]]},
    {"kind": "general", "sites": [3]},
    {"kind": "rect", "dims": [2, 2], "offset": [0]},
    {"kind": "rect", "dims": [2, "2"], "offset": [0, 0]},
    {"kind": "F", "n": "1", "d": 2},
    {"kind": "torus", "n": 1, "d": 2},
], ids=["letters", "mixed-dims", "bare-int", "short-offset", "string-dim",
        "string-n", "unknown-kind"])
def test_region_descriptor_rejects_malformed(desc):
    with pytest.raises(ValueError):
        lattice.region_from_descriptor(desc)
