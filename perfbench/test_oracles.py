"""Pins the benchmark's oracles to known values and checks their checkers.

    python3 -m pytest perfbench

These tests import only oracles.py, never the package under test.
"""

import itertools
import math

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("m, n, count", [(2, 2, 2), (2, 3, 3), (4, 4, 36),
                                         (8, 8, 12988816),
                                         (8, 16, 540061286536921),
                                         (12, 12, 53060477521960000)])
def test_domino_dp_known_counts(m, n, count):
    assert oracles.domino_counts(m, n)[n] == count
    assert oracles.domino_table(max(m, n))[(m, n)] == count


@pytest.mark.parametrize("n, count", [(0, 3), (1, 246), (2, 580986)])
def test_box_colorings_known_counts(n, count):
    assert oracles.count_box_colorings(n) == count


def test_torus_and_family_counts():
    # 2x2 torus: 6 proper rows, 3 compatible rows above each
    assert oracles.count_torus_colorings(1) == 18
    assert oracles.count_checker_colorings(1) == 2   # center avoids color 1
    assert oracles.count_marker_colorings(1) == 1
    # the family sizes the pipeline workload draws its subsets from
    assert oracles.count_checker_colorings(3) == 64914
    assert oracles.count_hat_colorings(2) == 492
    assert oracles.count_marker_colorings(2) == 2


def test_tiling_routes_agree():
    dominoes = [(1, 2), (2, 1)]
    for m in range(1, 6):
        for n in range(1, 7):
            assert (oracles.count_box_tilings(dominoes, (m, n))
                    == oracles.domino_counts(m, n)[n])
    bars = [(2, 1), (3, 1), (5, 1)]
    for length in range(1, 25):
        assert (oracles.count_box_tilings(bars, (length, 1))
                == oracles.bars235_count(length))
    # 2x2xL by 1x1x2 bricks in three directions: 2, 9, 32 for L = 1, 2, 3
    bricks = [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert [oracles.count_box_tilings(bricks, (2, 2, L)) for L in (1, 2, 3)] \
        == [2, 9, 32]


def test_strip_entropy_oracle():
    assert oracles.strip_entropy(1, False) == pytest.approx(math.log(2), abs=1e-12)
    periodic = [oracles.strip_entropy(w, True) for w in (2, 4, 6)]
    assert periodic[0] > periodic[1] > periodic[2] > oracles.SQUARE_ICE_ENTROPY


def test_packed_pattern_checker():
    good = np.array([[0, 1, 1, 0], [0, 1, 2, 0], [1, 0, 0, 1]], dtype=np.uint8)
    oracles.check_packed_patterns(good, (2, 2))
    with pytest.raises(ValueError, match="improper"):
        oracles.check_packed_patterns(np.array([[0, 0, 1, 0]]), (2, 2))
    with pytest.raises(ValueError, match="order"):
        oracles.check_packed_patterns(good[::-1], (2, 2))
    with pytest.raises(ValueError, match="duplicate"):
        oracles.check_packed_patterns(good[[0, 0]], (2, 2))
    with pytest.raises(ValueError, match="alphabet"):
        oracles.check_packed_patterns(np.array([[0, 3, 1, 0]]), (2, 2))


def test_packed_pattern_checker_across_blocks():
    # all proper 3-colorings of a 1x8 path, in lex order: 384 rows
    rows = [r for r in itertools.product(range(3), repeat=8)
            if all(a != b for a, b in zip(r, r[1:]))]
    arr = np.array(rows, dtype=np.uint8)
    size = oracles.CHECK_ROWS
    try:
        oracles.CHECK_ROWS = 64
        oracles.check_packed_patterns(arr, (1, 8))
        with pytest.raises(ValueError, match="duplicate"):
            oracles.check_packed_patterns(arr[np.r_[:64, 63:len(arr)]], (1, 8))
        swapped = arr.copy()
        swapped[[63, 64]] = swapped[[64, 63]]
        with pytest.raises(ValueError, match="order"):
            oracles.check_packed_patterns(swapped, (1, 8))
    finally:
        oracles.CHECK_ROWS = size


def test_height_field_checker():
    colors = [0, 1, 2, 1, 2, 0, 2, 0, 1]   # striped: (row + col) mod 3
    heights = [0, 1, 2, 1, 2, 3, 2, 3, 4]
    oracles.check_height_field(colors, heights, 3, (0, 0))
    with pytest.raises(ValueError, match="base"):
        oracles.check_height_field(colors, [h + 3 for h in heights], 3, (0, 0))
    with pytest.raises(ValueError, match="step"):
        oracles.check_height_field(colors, heights[:-1] + [6], 3, (0, 0))
    with pytest.raises(ValueError, match="mod 3"):
        oracles.check_height_field(colors, [-h for h in heights], 3, (0, 0))


def test_exact_cover_checker():
    region = {"kind": "rect", "dims": [2, 2], "offset": [0, 0], "d": 2}
    tiling = {"tileset": [[1, 2], [2, 1]], "region": region,
              "placements": [[0, [0, 0]], [0, [1, 0]]]}
    assert oracles.check_exact_cover(tiling) == 2
    with pytest.raises(ValueError, match="overlap"):
        oracles.check_exact_cover(dict(tiling, placements=[[0, [0, 0]],
                                                           [1, [0, 0]]]))
    with pytest.raises(ValueError, match="covered"):
        oracles.check_exact_cover(dict(tiling, placements=[[0, [0, 0]]]))
    with pytest.raises(ValueError, match="leaves"):
        oracles.check_exact_cover(dict(tiling, placements=[[0, [0, 0]],
                                                           [0, [1, 1]]]))
