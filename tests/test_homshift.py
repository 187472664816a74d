"""Homomorphism pattern families and the extension operations.

The oracle here is plain exhaustion: every assignment region -> V filtered
by edge checks, feasible at desk scale.  Library results are compared
against it wherever the region is small enough, and frozen counts pin the
rest.
"""

import itertools
import json
import random
import time
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import lattice
from latticelab.lattice import Region, box_F, parity, shell_F
from latticelab import homshift as hs
from latticelab.util import BudgetError, NegativeResult, canonical_json

K3 = hs.complete_graph(3)
K4 = hs.complete_graph(4)
C4 = hs.cycle_graph(4)
C5 = hs.cycle_graph(5)


def neighbor_tuples(region):
    """Each site's in-region neighbours' positions, in the order of
    lattice.neighbors, looked up site by site."""
    return tuple(tuple(region.index(nb) for nb in lattice.neighbors(s)
                       if nb in region) for s in region.sites)


def shell_classes(n, d):
    """The shell of F_n by residue mod 2: (residue, ascending positions in
    F_n of its shell sites) pairs, in lexicographic order of residue."""
    index = box_F(n, d).index
    classes = {}
    for s in shell_F(n, d):
        classes.setdefault(tuple(c % 2 for c in s), []).append(index(s))
    return tuple(sorted((r, tuple(p)) for r, p in classes.items()))


def oracle_enumerate(H, region, boundary=None):
    """Exhaustive reference enumeration (site order = canonical order)."""
    boundary = boundary or {}
    out = []
    for combo in itertools.product(range(H.n), repeat=len(region)):
        ok = True
        for pos, site in enumerate(region.sites):
            if site in boundary and combo[pos] != boundary[site]:
                ok = False
                break
            for t in range(region.d):
                nb = tuple(c + 1 if s == t else c for s, c in enumerate(site))
                if nb in region and not H.has_edge(combo[pos], combo[region.index(nb)]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(bytes(combo))
    return out


# ---------------------------------------------------------------------------
# enumeration against the oracle


@pytest.mark.parametrize("H", [K3, C4, C5], ids=["K3", "C4", "C5"])
@pytest.mark.parametrize("region", [box_F(1, 1), box_F(2, 1), box_F(1, 2)],
                         ids=["F1d1", "F2d1", "F1d2"])
def test_enumeration_matches_oracle(H, region):
    got = [p.values for p in hs.enumerate_hom(H, region)]
    assert got == sorted(oracle_enumerate(H, region))


def test_enumeration_matches_oracle_d3():
    region = lattice.rectangle((2, 2, 2))
    got = [p.values for p in hs.enumerate_hom(K3, region)]
    assert got == sorted(oracle_enumerate(K3, region))


def test_enumeration_with_boundary_matches_oracle():
    region = box_F(1, 2)
    boundary = {(-1, -1): 0, (1, 1): 1, (0, 0): 2}
    got = [p.values for p in hs.enumerate_hom(K3, region, boundary)]
    assert got == sorted(oracle_enumerate(K3, region, boundary))
    assert len(got) > 0


def test_enumeration_on_non_box_region():
    ell = Region([(0, 0), (1, 0), (2, 0), (2, 1)])
    got = [p.values for p in hs.enumerate_hom(K3, ell)]
    assert got == sorted(oracle_enumerate(K3, ell))
    assert len(got) == 3 * 2 * 2 * 2


def test_inconsistent_boundary_gives_empty_set():
    region = box_F(1, 1)
    assert len(hs.enumerate_hom(K3, region, {(-1,): 0, (0,): 0})) == 0


def test_boundary_outside_region_rejected():
    with pytest.raises(ValueError):
        hs.enumerate_hom(K3, box_F(1, 1), {(5,): 0})


def test_frozen_counts():
    assert len(hs.enumerate_hom(K3, box_F(1, 1))) == 12
    assert hs.count_hom_dfs(K3, box_F(1, 2)) == 246
    assert hs.count_hom_dfs(K3, box_F(0, 2)) == 3


def test_count_k4_square():
    # 2x2 proper 4-colorings: oracle value
    region = lattice.rectangle((2, 2))
    assert hs.count_hom_dfs(K4, region) == len(oracle_enumerate(K4, region))


def test_budget_is_enforced():
    with pytest.raises(BudgetError):
        hs.count_hom_dfs(K3, box_F(2, 2), budget=50)


def test_is_hom_validator_agrees_with_oracle_membership():
    region = box_F(1, 1)
    good = set(oracle_enumerate(K3, region))
    for combo in itertools.product(range(3), repeat=len(region)):
        p = hs.Pattern(region, bytes(combo))
        assert hs.is_hom(K3, p) == (bytes(combo) in good)


def test_is_hom_dict_path_on_non_box_region():
    # canonical order of this region: (0,0), (0,1), (1,0)
    ell = Region([(0, 0), (1, 0), (0, 1)])
    for combo in itertools.product(range(3), repeat=3):
        p = hs.Pattern(ell, bytes(combo))
        expect = (combo[1] != combo[0]) and (combo[2] != combo[0])
        assert hs.is_hom(K3, p) == expect


def brute_is_hom(H, pattern):
    """Every in-region lattice neighbor pair maps to an edge of H."""
    region = pattern.region
    for site, u in zip(region.sites, pattern.values):
        for nb in lattice.neighbors(site):
            if nb in region and not H.has_edge(u, pattern.value(nb)):
                return False
    return True


@st.composite
def hom_candidates(draw):
    """A preset graph and a pattern on a box or a holey subset of one.

    The values are a checkerboard of one edge of H with a few sites
    redrawn, so both homomorphisms and near misses come up.
    """
    H = hs.graph_preset(draw(st.sampled_from(sorted(hs.GRAPH_PRESETS))))
    d = draw(st.integers(1, 4))
    side = {1: 6, 2: 5}.get(d, 3)
    dims = tuple(draw(st.integers(1, side)) for _ in range(d))
    offset = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    region = lattice.rectangle(dims, offset)
    if draw(st.booleans()):
        region = Region(draw(st.sets(st.sampled_from(region.sites),
                                     min_size=1)))
    u, v = draw(st.sampled_from(H.ordered_edges()))
    values = bytearray(u if parity(s) == 0 else v for s in region.sites)
    for pos in draw(st.lists(st.integers(0, len(region) - 1), max_size=3)):
        values[pos] = draw(st.integers(0, H.n - 1))
    return H, hs.Pattern(region, bytes(values))


@given(hom_candidates())
@settings(max_examples=300, deadline=None)
def test_is_hom_matches_brute_force_edge_check(case):
    H, pattern = case
    assert hs.is_hom(H, pattern) == brute_is_hom(H, pattern)


# ---------------------------------------------------------------------------
# checkerboard, marker and periodic-shell families


def test_checkerboard_counts():
    assert len(hs.checkerboard_set(K3, 0, 1, 1, 1)) == 2
    assert len(hs.checkerboard_set(K3, 0, 1, 1, 2)) == 2
    assert len(hs.checkerboard_set(K3, 0, 2, 1, 2)) == 2


def test_checkerboard_members_validate():
    fam = hs.checkerboard_set(K3, 0, 1, 1, 2)
    for p in fam:
        assert hs.in_checkerboard(K3, p, 0, 1)
        assert not hs.in_checkerboard(K3, p, 0, 2)


def test_checkerboard_shell_values():
    fam = hs.checkerboard_set(C5, 1, 2, 2, 2)
    for p in fam:
        for s in shell_F(2, 2):
            assert p.value(s) == (1 if parity(s) == 0 else 2)


def test_checkerboard_non_edge_rejected():
    with pytest.raises(ValueError):
        hs.checkerboard_set(K3, 0, 0, 1, 2)  # no self-loop in K3
    with pytest.raises(ValueError):
        hs.checkerboard_set(C5, 0, 2, 1, 2)  # not adjacent on the 5-cycle


def test_checkerboard_oracle_equivalence():
    boundary = hs.checkerboard_shell(0, 1, 1, 2)
    expect = sorted(oracle_enumerate(K3, box_F(1, 2), boundary))
    got = [p.values for p in hs.checkerboard_set(K3, 0, 1, 1, 2)]
    assert got == expect


def test_marker_restriction_is_bijective():
    for d in (1, 2):
        for n in (1, 2):
            tilde = hs.marker_set(K3, 0, 1, 2, n, d)
            inner = hs.checkerboard_set(K3, 0, 2, n, d)
            assert len(tilde) == len(inner)
            restricted = sorted(p.restrict(box_F(n, d)).values for p in tilde)
            assert restricted == [p.values for p in inner]


def test_marker_counts_frozen():
    assert len(hs.marker_set(K3, 0, 1, 2, 0, 2)) == 1
    assert len(hs.marker_set(K3, 0, 1, 2, 1, 2)) == 2


def test_marker_needs_distinct_companions():
    with pytest.raises(ValueError):
        hs.marker_set(K3, 0, 1, 1, 1, 2)


def test_hat_counts_frozen():
    assert len(hs.hat_set(K3, 1, 1)) == 6
    assert len(hs.hat_set(K3, 1, 2)) == 18
    assert len(hs.hat_set(C5, 1, 2)) == 30


def test_hat_oracle_equivalence():
    # the same patterns in the same (lexicographic) order
    got = [p.values for p in hs.hat_set(K3, 1, 2)]
    expect = [vals for vals in oracle_enumerate(K3, box_F(1, 2))
              if hs.in_hat(K3, hs.Pattern(box_F(1, 2), vals))]
    assert got == expect


def site_in_hat(H, pattern):
    """in_hat as first written: shell sites looked up one by one."""
    n = pattern.region.kind[1]
    if n < 1 or not hs.is_hom(H, pattern):
        return False
    by_residue = {}
    for s in shell_F(n, pattern.region.d):
        r = tuple(c % 2 for c in s)
        if by_residue.setdefault(r, pattern.value(s)) != pattern.value(s):
            return False
    return True


def site_in_checkerboard(H, pattern, v0, v1):
    """in_checkerboard as first written: the shell dict, site by site."""
    if not hs.is_hom(H, pattern):
        return False
    want = hs.checkerboard_shell(v0, v1, pattern.region.kind[1],
                                 pattern.region.d)
    return all(pattern.value(s) == w for s, w in want.items())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shell_validators_match_site_lookup(data):
    # Residue-periodic or checkerboard fills, with a few sites overwritten,
    # so that both verdicts occur; K3 adds the is_hom gate.
    H = data.draw(st.sampled_from([K3, hs.full_shift_graph(2),
                                   hs.full_shift_graph(3)]))
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 3 if d < 3 else 2))
    region = box_F(n, d)
    v0, v1 = data.draw(st.sampled_from(H.ordered_edges()))
    if data.draw(st.booleans()):
        by_residue = {r: data.draw(st.integers(0, H.n - 1))
                      for r in itertools.product((0, 1), repeat=d)}
        values = [by_residue[tuple(c % 2 for c in s)] for s in region.sites]
    else:
        values = [v1 if parity(s) else v0 for s in region.sites]
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(0, len(region) - 1))
        values[pos] = data.draw(st.integers(0, H.n - 1))
    p = hs.Pattern(region, bytes(values))
    assert hs.in_hat(H, p) == site_in_hat(H, p)
    assert hs.in_checkerboard(H, p, v0, v1) == site_in_checkerboard(H, p, v0, v1)


@pytest.mark.parametrize("n,d", [(0, 1), (1, 1), (3, 1), (1, 2), (2, 2),
                                 (3, 2), (1, 3), (2, 3), (1, 4)])
def test_shell_columns_match_the_shell_classes(n, d):
    shell, lead, residue, odd = hs._shell_columns(n, d)
    classes = shell_classes(n, d)
    cube = lattice.rectangle((2,) * d, (-1,) * d)
    assert shell.tolist() == [i for _, p in classes for i in p]
    assert lead.tolist() == [p[0] for _, p in classes for _ in p]
    assert residue.tolist() == [cube.index(r) for r, p in classes for _ in p]
    assert odd.tolist() == [sum(r) % 2 == 1 for r, p in classes for _ in p]


def test_hat_contains_marker_family():
    tilde = set(p.values for p in hs.marker_set(K3, 0, 1, 2, 0, 2))
    hat = set(p.values for p in hs.hat_set(K3, 1, 2))
    assert tilde <= hat


def test_pattern_set_is_sorted_and_deduplicated():
    region = box_F(1, 1)
    p1 = hs.Pattern(region, bytes([0, 1, 0]))
    p2 = hs.Pattern(region, bytes([0, 2, 0]))
    ps = hs.PatternSet(region, [p2, p1, p1])
    assert [p.values for p in ps] == [bytes([0, 1, 0]), bytes([0, 2, 0])]


# ---------------------------------------------------------------------------
# tau and the retraction


def test_tau_examples():
    assert hs.tau((0, 0)) == (1, 0)
    assert hs.tau((3, 3)) == (2, 3)
    assert hs.tau((-2, 1)) == (-1, 1)
    assert hs.tau((2, -3)) == (2, -2)
    assert hs.tau((5,)) == (4,)


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_tau_changes_l1_norm_by_one(i):
    before = lattice.norm_1(i)
    after = lattice.norm_1(hs.tau(i))
    if before == 0:
        assert after == 1  # the origin steps out to e_1
    else:
        assert after == before - 1


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.integers(1, 2).map(lambda t: (t == 1)))
@settings(max_examples=300, deadline=None)
def test_tau_preserves_adjacency(i, horizontal):
    j = lattice.add(i, (1, 0) if horizontal else (0, 1))
    ti, tj = hs.tau(i), hs.tau(j)
    assert lattice.norm_1(lattice.sub(ti, tj)) == 1


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       st.integers(1, 3),
       st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
@settings(max_examples=400, deadline=None)
def test_retraction_is_an_adjacency_preserving_map_into_the_box(i, n, step):
    j = lattice.add(i, step)
    ti, tj = hs.tau_n(i, n), hs.tau_n(j, n)
    assert lattice.norm_inf(ti) <= n and lattice.norm_inf(tj) <= n
    assert lattice.norm_1(lattice.sub(ti, tj)) == 1


def test_retraction_fixes_the_box():
    for s in box_F(2, 2).sites:
        assert hs.tau_n(s, 2) == s


def test_retraction_far_sites_hit_origin_or_e1():
    for i in [(12, 0), (0, 12), (-7, 7), (11, -5)]:
        out = hs.tau_n(i, 1)
        assert out in {(0, 0), (1, 0)}
        assert parity(out) == parity(i)


def test_retraction_rejects_n_zero():
    with pytest.raises(ValueError):
        hs.tau_n((3, 0), 0)


# ---------------------------------------------------------------------------
# walks


P3 = hs.TargetGraph("abc", [("a", "b"), ("b", "c")])
TWO_TRIANGLES = hs.TargetGraph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"),
                                          ("d", "e"), ("e", "f"), ("f", "d")])
LOOP = hs.TargetGraph("a", [("a", "a")])
NO_LOOP = hs.TargetGraph("a", [])


def oracle_universal_length(H, horizon):
    """The least N such that walks of every length N..horizon join every
    two vertices, found by stepping the set of each vertex's walk ends."""
    ends = [{u} for u in range(H.n)]
    full = []
    for _ in range(horizon + 1):
        full.append(all(len(e) == H.n for e in ends))
        ends = [{w for v in e for w in H.adj[v]} for e in ends]
    return next(N for N in range(1, horizon + 1) if all(full[N:]))


def test_min_universal_path_length_values():
    for H, N in [(K3, 2), (K4, 2), (C5, 4), (hs.cycle_graph(7), 6),
                 (hs.petersen_graph(), 4), (hs.full_shift_graph(2), 1),
                 (LOOP, 1)]:
        assert hs.min_universal_path_length(H) == N
        assert oracle_universal_length(H, 4 * H.n + 4) == N


def test_min_universal_path_length_rejects_bipartite_and_disconnected():
    for H in [C4, P3, TWO_TRIANGLES, NO_LOOP]:
        with pytest.raises(ValueError, match="connected and non-bipartite"):
            hs.min_universal_path_length(H)


def oracle_walks(H, u, v, length):
    out = []
    for mid in itertools.product(range(H.n), repeat=max(length - 1, 0)):
        walk = (u,) + mid + (v,) if length > 0 else (u,)
        if length == 0 and u != v:
            continue
        if all(H.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)):
            out.append(list(walk))
    return out


@pytest.mark.parametrize("H", [K3, C5, C4, P3, TWO_TRIANGLES, LOOP],
                         ids=["K3", "C5", "C4", "P3", "two-triangles", "loop"])
def test_lex_walk_is_least_valid_walk(H):
    for length in range(6):
        for u in range(H.n):
            for v in range(H.n):
                walks = oracle_walks(H, u, v, length)
                got = hs.lex_walk(H, u, v, length)
                if walks:
                    assert got == min(walks)
                else:
                    assert got is None


# ---------------------------------------------------------------------------
# path extension


def test_path_extend_postconditions():
    for H, k in [(K3, 3), (K3, 4), (C5, 5), (C5, 6)]:
        fam = hs.checkerboard_set(H, 0, 1, 1, 2)
        for a in fam:
            for target in [(0, 1), (1, 0), (1, 2)]:
                ext = hs.path_extend(H, a, (0, 1), target, k)
                assert ext.region == box_F(1 + k, 2)
                assert hs.is_hom(H, ext)
                assert hs.in_checkerboard(H, ext, *target)
                assert ext.restrict(box_F(1, 2)) == a


def test_path_extend_d1():
    fam = hs.checkerboard_set(K3, 0, 1, 2, 1)
    a = fam[0]
    ext = hs.path_extend(K3, a, (0, 1), (2, 1), 3)
    assert hs.is_hom(K3, ext)
    assert hs.in_checkerboard(K3, ext, 2, 1)


def test_path_extend_too_short_rejected():
    a = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    with pytest.raises(ValueError):
        hs.path_extend(K3, a, (0, 1), (1, 2), 2)  # needs k >= N+1 = 3
    b = hs.checkerboard_set(C5, 0, 1, 1, 2)[0]
    with pytest.raises(ValueError):
        hs.path_extend(C5, b, (0, 1), (1, 2), 4)  # needs k >= 5


def test_path_extend_wrong_family_rejected():
    a = hs.pure_checkerboard(K3, 0, 1, 1, 2)
    with pytest.raises(ValueError):
        hs.path_extend(K3, a, (0, 2), (1, 2), 3)


def test_path_extend_deterministic():
    a = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    e1 = hs.path_extend(K3, a, (0, 1), (1, 2), 4)
    e2 = hs.path_extend(K3, a, (0, 1), (1, 2), 4)
    assert e1.values == e2.values


# ---------------------------------------------------------------------------
# embedding arbitrary patterns


@pytest.mark.parametrize("H,k", [(K3, 4), (C5, 6)], ids=["K3", "C5"])
def test_embed_in_marker_postconditions(H, k):
    fam = hs.enumerate_hom(H, box_F(1, 2))
    step = max(1, len(fam) // 12)
    for a in fam[::step]:
        emb = hs.embed_in_marker(H, a, (0, 1), k)
        assert emb.region == box_F(2 * 2 * 1 + k, 2)
        assert hs.is_hom(H, emb)
        assert hs.in_checkerboard(H, emb, 0, 1)
        assert emb.restrict(box_F(1, 2)) == a


def test_embed_in_marker_d1():
    fam = hs.enumerate_hom(K3, box_F(2, 1))
    for a in fam[:: max(1, len(fam) // 10)]:
        emb = hs.embed_in_marker(K3, a, (1, 2), 3)
        assert hs.is_hom(K3, emb)
        assert hs.in_checkerboard(K3, emb, 1, 2)
        assert emb.restrict(box_F(2, 1)) == a


def test_embed_rejects_short_extension_and_non_hom():
    a = hs.enumerate_hom(K3, box_F(1, 2))[0]
    with pytest.raises(ValueError):
        hs.embed_in_marker(K3, a, (0, 1), 3)  # needs k >= N+d = 4
    bad = hs.Pattern(box_F(1, 2), bytes([0] * 9))
    with pytest.raises(ValueError):
        hs.embed_in_marker(K3, bad, (0, 1), 4)


# ---------------------------------------------------------------------------
# flexible fill


def test_flexible_fill_single_block():
    blocks = hs.checkerboard_set(K3, 0, 1, 1, 2)
    w = hs.flexible_fill(K3, (0, 2), 6, [(0, 0)], {(0, 0): blocks[1]}, (0, 1))
    assert hs.is_hom(K3, w)
    assert hs.in_checkerboard(K3, w, 0, 2)
    assert w.restrict(box_F(1, 2)) == blocks[1]


def test_flexible_fill_multiple_blocks_both_parities():
    blocks = hs.checkerboard_set(K3, 0, 1, 1, 2)
    K = [(-9, 0), (0, 0), (9, 1)]
    W = {(-9, 0): blocks[0], (0, 0): blocks[1], (9, 1): blocks[0]}
    w = hs.flexible_fill(K3, (0, 1), 14, K, W, (0, 1))
    assert hs.is_hom(K3, w)
    assert hs.in_checkerboard(K3, w, 0, 1)
    for i in K:
        for s in box_F(1, 2).sites:
            assert w.value(lattice.add(s, i)) == W[i].value(s)


def test_flexible_fill_empty_prescription_is_pure_checkerboard():
    w = hs.flexible_fill(K3, (1, 2), 3, [], {}, (0, 1), d=2)
    assert w == hs.pure_checkerboard(K3, 1, 2, 3, 2)


def test_flexible_fill_ambient_sites_are_checkerboard():
    blocks = hs.checkerboard_set(K3, 0, 1, 1, 2)
    w = hs.flexible_fill(K3, (0, 2), 7, [(0, 0)], {(0, 0): blocks[0]}, (0, 1))
    # everything outside the padded block is the plain target checkerboard
    for s in w.region.sites:
        if lattice.norm_inf(s) > 4:  # pad = k+N+1 = 4
            assert w.value(s) == (0 if parity(s) == 0 else 2)


def test_flexible_fill_spacing_and_containment_errors():
    blocks = hs.checkerboard_set(K3, 0, 1, 1, 2)
    W = {(0, 0): blocks[0], (8, 0): blocks[1]}
    with pytest.raises(ValueError):
        hs.flexible_fill(K3, (0, 1), 20, [(0, 0), (8, 0)], W, (0, 1))
    with pytest.raises(ValueError):
        hs.flexible_fill(K3, (0, 1), 6, [(2, 0)], {(2, 0): blocks[0]}, (0, 1))


def test_flexible_fill_rejects_foreign_blocks():
    block = hs.checkerboard_set(K3, 0, 2, 1, 2)[0]
    with pytest.raises(ValueError):
        hs.flexible_fill(K3, (0, 1), 6, [(0, 0)], {(0, 0): block}, (0, 1))


def test_flexible_fill_rejects_blocks_of_another_dimension():
    block = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    with pytest.raises(ValueError, match="not 3-dimensional"):
        hs.flexible_fill(K3, (0, 1), 12, [(0, 0)], {(0, 0): block}, (0, 1), d=3)
    with pytest.raises(ValueError, match="not 3-dimensional"):
        hs.flexible_fill(K3, (0, 1), 12, [(0, 0, 0)], {(0, 0, 0): block},
                         (0, 1))


def test_flexible_fill_c5():
    blocks = hs.checkerboard_set(C5, 0, 1, 1, 2)
    n = 1 + 4 + 1 + 2  # smallest box the containment bound allows
    w = hs.flexible_fill(C5, (1, 2), n, [(0, 0)], {(0, 0): blocks[0]}, (0, 1))
    assert hs.is_hom(C5, w)
    assert hs.in_checkerboard(C5, w, 1, 2)
    assert w.restrict(box_F(1, 2)) == blocks[0]


# ---------------------------------------------------------------------------
# extending periodic shells


@pytest.mark.parametrize("H", [K3, C5], ids=["K3", "C5"])
def test_hat_extend_every_member_d2(H):
    for p in hs.hat_set(H, 1, 2):
        edge, ext = hs.hat_extend(H, p, 4)
        assert H.has_edge(*edge)
        assert hs.is_hom(H, ext)
        assert hs.in_checkerboard(H, ext, *edge)
        assert ext.restrict(box_F(1, 2)) == p


def test_hat_extend_every_member_d1():
    for p in hs.hat_set(K3, 1, 1):
        edge, ext = hs.hat_extend(K3, p, 2)
        assert hs.is_hom(K3, ext)
        assert hs.in_checkerboard(K3, ext, *edge)
        assert ext.restrict(box_F(1, 1)) == p


def test_hat_extend_prefers_the_input_edge():
    # a pattern whose shell is already a checkerboard should keep its edge
    p = hs.pure_checkerboard(K3, 0, 1, 1, 2)
    edge, ext = hs.hat_extend(K3, p, 4)
    assert edge == (0, 1)
    assert ext.values[ext.region.index((0, 0))] == 0


def test_hat_extend_reports_an_exhausted_search_as_a_negative(monkeypatch):
    # with no ring layers to chain, the exhaustive search finds nothing
    cube, _ = hs._ring_layers(K3, 2)
    monkeypatch.setattr(hs, "_ring_layers", lambda H, d: (cube, ()))
    p = hs.hat_set(K3, 1, 2)[0]
    with pytest.raises(NegativeResult):
        hs.hat_extend(K3, p, 4)
    with pytest.raises(RuntimeError):  # what callers caught before
        hs.hat_extend(K3, p, 4)


def test_hat_extend_rejects_short_and_foreign_input():
    p = hs.hat_set(K3, 1, 2)[0]
    with pytest.raises(ValueError):
        hs.hat_extend(K3, p, 3)  # needs k >= 2d = 4
    vals = bytearray(hs.pure_checkerboard(K3, 0, 1, 1, 2).values)
    vals[0] = 2  # break periodicity at a shell corner
    broken = hs.Pattern(box_F(1, 2), bytes(vals))
    with pytest.raises(ValueError):
        hs.hat_extend(K3, broken, 4)


def test_hat_extend_larger_box():
    fam = hs.hat_set(K3, 2, 2)
    step = max(1, len(fam) // 8)
    for p in fam[::step]:
        edge, ext = hs.hat_extend(K3, p, 4)
        assert hs.is_hom(K3, ext)
        assert hs.in_checkerboard(K3, ext, *edge)
        assert ext.restrict(box_F(2, 2)) == p


# ---------------------------------------------------------------------------
# one ring layout: the extension ops against their per-site versions


RING_GRAPHS = {name: hs.graph_preset(name)
               for name in ("K3", "C5", "petersen", "full2")}


def oracle_path_extend(H, a, source, target, k):
    """path_extend's output as it was built site by site."""
    v0, v1 = source
    w0, w1 = target
    n, d = a.region.kind[1], a.region.d
    end = (w0, w1) if k % 2 == 0 else (w1, w0)
    walk = [v0] + hs.lex_walk(H, v1, end[0], k - 1) + [end[1]]
    region = box_F(n + k, d)
    values = bytearray(len(region))
    amap = a.mapping()
    for pos, site in enumerate(region.sites):
        r = lattice.norm_inf(site)
        if r <= n:
            values[pos] = amap[site]
        else:
            t = r - n
            values[pos] = walk[t] if parity(site) == t % 2 else walk[t + 1]
    return hs.Pattern(region, bytes(values))


def oracle_embed_in_marker(H, a, target, k):
    n, d = a.region.kind[1], a.region.d
    big, positions = hs._retraction_positions(n, d)
    spread = hs.Pattern(big, bytes(a.values[i] for i in positions))
    source = (a.value((0,) * d), a.value(lattice.unit(1, d)))
    return oracle_path_extend(H, spread, source, target, k)


def oracle_hat_extend(H, a, k):
    """hat_extend's layer-chain search, with its output built site by site."""
    n, d = a.region.kind[1], a.region.d
    cube, layer_pool = hs._ring_layers(H, d)
    residues, index, flips = cube.sites, cube.index, neighbor_tuples(cube)
    absent = hs.missing_shell_residue(n, d)
    q0 = [None] * len(residues)
    for r, positions in shell_classes(n, d):
        q0[index(r)] = a.values[positions[0]]
    q0[index(absent)] = a.value((n - 1,) * d)
    q0 = tuple(q0)

    def cross_ok(lower, upper, skip=None):
        return all(H.has_edge(lower[i], upper[j]) for i in range(len(residues))
                   if i != skip for j in flips[i])

    zero, e1 = index((0,) * d), index((1,) + (0,) * (d - 1))
    preferred = (q0[zero], q0[e1]) if k % 2 == 0 else (q0[e1], q0[zero])
    candidates = ([preferred] if H.has_edge(*preferred) else []) + [
        e for e in H.ordered_edges() if e != preferred]
    for v0, v1 in candidates:
        goal = tuple(v0 if parity(r) == 0 else v1 for r in residues)

        def search(chain):
            depth = len(chain) - 1
            if depth == k - 1:
                return chain + [goal] if cross_ok(chain[-1], goal) else None
            skip = index(absent) if depth == 0 else None
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
            r = lattice.norm_inf(site)
            if r <= n:
                values[pos] = amap[site]
            else:
                values[pos] = chain[r - n][index(tuple(c % 2 for c in site))]
        return (v0, v1), hs.Pattern(region, bytes(values))
    raise NegativeResult("no chain")


def oracle_flexible_fill(H, target, n, K, W, base, d):
    w0, w1 = target
    region = box_F(n, d)
    values = bytearray(w0 if parity(s) == 0 else w1 for s in region.sites)
    pad_k = hs.min_universal_path_length(H) + 1
    for i in K:
        block_target = (w0, w1) if parity(i) == 0 else (w1, w0)
        padded = oracle_path_extend(H, W[i], base, block_target, pad_k)
        for site, val in zip(padded.region.sites, padded.values):
            values[region.index(lattice.add(site, i))] = val
    return hs.Pattern(region, bytes(values))


def outcome(fn, *args):
    try:
        return fn(*args)
    except NegativeResult:
        return NegativeResult


def redraw(H, pattern, inner, rnd):
    """pattern with each site of inner, in random order, redrawn among the
    vertices adjacent to its neighbours' current values."""
    region = pattern.region
    values = bytearray(pattern.values)
    nbrs = neighbor_tuples(region)
    positions = [region.index(s) for s in inner]
    rnd.shuffle(positions)
    for pos in positions:
        values[pos] = rnd.choice([v for v in range(H.n) if all(
            H.has_edge(v, values[j]) for j in nbrs[pos])])
    return hs.Pattern(region, bytes(values))


def random_checker_member(H, edge, n, d, rnd):
    start = hs.pure_checkerboard(H, *edge, n, d)
    return redraw(H, start, [s for s in start.region.sites
                             if lattice.norm_inf(s) < n], rnd)


def random_periodic_hom(H, n, d, rnd, redraw_shell):
    """A 2-periodic layer spread over F_n, its interior (and its shell too
    when redraw_shell) redrawn."""
    cube, layers = hs._ring_layers(H, d)
    layer = rnd.choice(layers)
    region = box_F(n, d)
    start = hs.Pattern(region, bytes(
        layer[cube.index(tuple(c % 2 for c in s))] for s in region.sites))
    return redraw(H, start, [s for s in region.sites
                             if redraw_shell or lattice.norm_inf(s) < n], rnd)


@pytest.mark.parametrize("op", ["path", "embed", "hat", "fill"])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_extension_ops_match_their_per_site_versions(op, data):
    name = data.draw(st.sampled_from(sorted(RING_GRAPHS)), label="graph")
    H = RING_GRAPHS[name]
    # the per-site version's layer-chain search has no memo of dead ends:
    # at d = 3 it runs for minutes on some C5 and petersen inputs, so those
    # stop at d = 2
    slow_chain = op == "hat" and name in ("C5", "petersen")
    d = data.draw(st.integers(1, 2 if slow_chain else 3), label="d")
    n = data.draw(st.integers(1, 2), label="n")
    extra = data.draw(st.integers(0, 3), label="k - minimum")
    rnd = data.draw(st.randoms(use_true_random=False))
    edges = H.ordered_edges()
    N = hs.min_universal_path_length(H)
    if op == "path":
        source = data.draw(st.sampled_from(edges), label="source")
        target = data.draw(st.sampled_from(edges), label="target")
        a = random_checker_member(H, source, n, d, rnd)
        args = (H, a, source, target, N + 1 + extra)
        got, want = hs.path_extend(*args), oracle_path_extend(*args)
    elif op == "embed":
        target = data.draw(st.sampled_from(edges), label="target")
        a = random_periodic_hom(H, n, d, rnd, redraw_shell=True)
        args = (H, a, target, N + d + extra)
        got, want = hs.embed_in_marker(*args), oracle_embed_in_marker(*args)
    elif op == "hat":
        a = random_periodic_hom(H, n, d, rnd, redraw_shell=False)
        args = (H, a, 2 * d + extra)
        got, want = outcome(hs.hat_extend, *args), outcome(oracle_hat_extend, *args)
    else:
        base = data.draw(st.sampled_from(edges), label="base")
        target = data.draw(st.sampled_from(edges), label="target")
        pad = n + N + 1
        K = [(0,) * d]
        if data.draw(st.booleans(), label="two blocks"):
            K.append(((2 * pad + 1),) + (0,) * (d - 1))
        W = {i: random_checker_member(H, base, n, d, rnd) for i in K}
        size = max(lattice.norm_inf(i) for i in K) + pad + 1 + extra
        args = (H, target, size, K, W, base)
        got = hs.flexible_fill(*args)
        want = oracle_flexible_fill(*args, d)
    assert got == want


@pytest.mark.parametrize("name, seed, d, n, k", [
    ("petersen", 19, 2, 1, 6), ("C5", 7, 3, 2, 6), ("C5", 2, 3, 2, 8),
    ("C5", 14, 3, 2, 8)])
def test_hat_extend_memo_keeps_the_first_chain(name, seed, d, n, k):
    # inputs on which the search backtracks through dead layers, which the
    # memo skips: the per-site version takes 5 to 90 times longer on them
    H = hs.graph_preset(name)
    a = random_periodic_hom(H, n, d, random.Random(seed), redraw_shell=False)
    assert outcome(hs.hat_extend, H, a, k) == outcome(oracle_hat_extend,
                                                      H, a, k)


def test_hat_extend_finishes_a_petersen_chain_at_d3():
    # the search without a memo ran past 10 s on this input
    H = hs.graph_preset("petersen")
    a = hs.Pattern(box_F(1, 3), bytes([7, 2, 7, 2, 1, 2, 7, 2, 7, 2, 3, 2, 1,
                                       2, 1, 2, 3, 2, 7, 2, 7, 2, 1, 2, 7, 2,
                                       7]))
    t0 = time.monotonic()
    edge, ext = hs.hat_extend(H, a, 9)
    assert time.monotonic() - t0 < 5
    assert hs.is_hom(H, ext)
    assert hs.in_checkerboard(H, ext, *edge)
    assert ext.restrict(box_F(1, 3)) == a


def test_hat_extend_petersen_d3_members_within_a_time_bound():
    # testing every pool layer edge by edge at each search state took
    # 13 s on these 20 inputs
    H = hs.graph_preset("petersen")
    fam = hs.hat_set(H, 1, 3)
    rnd = random.Random(3)
    members = [(fam[rnd.randrange(len(fam))], 6 + j % 4) for j in range(20)]
    t0 = time.monotonic()
    results = [hs.hat_extend(H, a, k) for a, k in members]
    assert time.monotonic() - t0 < 5
    for (a, _), (edge, ext) in zip(members, results):
        assert hs.in_checkerboard(H, ext, *edge)
        assert ext.restrict(box_F(1, 3)) == a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_ring_slots_decode_to_ring_and_residue(n, k, d):
    region, inner, slot = hs._rings(n, k, d)
    assert region == box_F(n + k, d)
    cube, _ = hs._ring_layers(K3, d)
    for s, v in zip(region.sites, slot):
        ring, residue = divmod(int(v), 2 ** d)
        assert ring == max(lattice.norm_inf(s) - n, 0)
        assert residue == cube.index(tuple(c % 2 for c in s))
    assert [region.sites[i] for i in inner] == list(box_F(n, d).sites)


def test_path_extend_cache_keys_are_complete():
    # two targets and two graphs in one process, against fresh calls
    a3 = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    a5 = hs.checkerboard_set(C5, 0, 1, 1, 2)[0]
    calls = [(K3, a3, (0, 1), (1, 2), 5), (K3, a3, (0, 1), (2, 0), 5),
             (C5, a5, (0, 1), (1, 2), 5), (C5, a5, (0, 1), (2, 3), 5)]
    warm = [hs.path_extend(*c) for c in calls]
    for c, got in zip(calls, warm):
        hs._walk_layers.cache_clear()
        hs._rings.cache_clear()
        assert hs.path_extend(*c) == got == oracle_path_extend(*c)


# ---------------------------------------------------------------------------
# the row-block extension ops against their per-pattern versions


def edge_loop_is_hom(H, region, values):
    """Every value a vertex of H and every edge inside region an edge."""
    if any(v >= H.n for v in values):
        return False
    return all(H.has_edge(values[pos], values[j])
               for pos, nbrs in enumerate(neighbor_tuples(region))
               for j in nbrs if j < pos)


@st.composite
def row_blocks(draw):
    """A preset graph, a region (a box or a holey subset of one) and a
    block of rows on it: checkerboards of an edge of H with a few sites
    redrawn, some to values that are no vertex of H."""
    H = hs.graph_preset(draw(st.sampled_from(sorted(hs.GRAPH_PRESETS))))
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 5 if d < 3 else 3)) for _ in range(d))
    region = lattice.rectangle(dims, (0,) * d)
    if draw(st.booleans()):
        region = Region(draw(st.sets(st.sampled_from(region.sites),
                                     min_size=1)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.sampled_from(H.ordered_edges()))
        values = [u if parity(s) == 0 else v for s in region.sites]
        for pos in draw(st.lists(st.integers(0, len(region) - 1),
                                 max_size=2)):
            values[pos] = draw(st.sampled_from([0, H.n - 1, H.n, 255]))
        rows.append(values)
    return H, region, np.array(rows, dtype=np.uint8).reshape(-1, len(region))


@given(row_blocks(), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_hom_rows_matches_the_edge_loop(case, block):
    H, region, rows = case
    with unittest.mock.patch.object(hs, "MASK_BLOCK", block):
        got = hs.hom_rows(H, region, rows)
    assert got.dtype == bool and got.shape == (len(rows),)
    assert got.tolist() == [edge_loop_is_hom(H, region, bytes(r)) for r in rows]
    for r in rows:
        p = hs.Pattern(region, bytes(r))
        assert hs.is_hom(H, p) == edge_loop_is_hom(H, region, p.values)


# The per-pattern extension ops as they were before the row-block layer,
# one pattern a call with scalar validators; an error is (type, message).


def pattern_require_edge(H, v0, v1, what):
    if not (0 <= v0 < H.n and 0 <= v1 < H.n and H.has_edge(v0, v1)):
        raise ValueError("%s (%r, %r) is not an edge of H" % (what, v0, v1))


def pattern_family_n(a, what):
    if a.region.kind[0] != "F":
        raise ValueError("%s must live on a centered box F_n" % what)
    return a.region.kind[1]


def pattern_in_checkerboard(H, a, v0, v1):
    pattern_require_edge(H, v0, v1, "checkerboard edge")
    if a.region.kind[0] != "F" or not edge_loop_is_hom(H, a.region, a.values):
        return False
    return all(a.values[i] == (v1 if sum(r) % 2 else v0)
               for r, positions in shell_classes(a.region.kind[1], a.region.d)
               for i in positions)


def pattern_in_hat(H, a):
    if a.region.kind[0] != "F" or a.region.kind[1] < 1:
        return False
    if not edge_loop_is_hom(H, a.region, a.values):
        return False
    return all(len({a.values[i] for i in positions}) == 1
               for _, positions in shell_classes(a.region.kind[1],
                                                 a.region.d))


def pattern_fill_rings(a, k, layers):
    region, inner, slot = hs._rings(a.region.kind[1], k, a.region.d)
    values = np.frombuffer(b"".join(map(bytes, layers)), dtype=np.uint8)[slot]
    values[inner] = np.frombuffer(a.values, dtype=np.uint8)
    return hs.Pattern(region, values.tobytes())


def pattern_path_extend(H, a, source, target, k):
    v0, v1 = source
    w0, w1 = target
    pattern_require_edge(H, v0, v1, "source edge")
    pattern_require_edge(H, w0, w1, "target edge")
    pattern_family_n(a, "path_extend input")
    N = hs.min_universal_path_length(H)
    if k < N + 1:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + 1))
    if not pattern_in_checkerboard(H, a, v0, v1):
        raise ValueError("input does not lie in the stated checkerboard family")
    return pattern_fill_rings(a, k, hs._walk_layers(H, (v0, v1), (w0, w1), k,
                                                    a.region.d))


def pattern_embed_in_marker(H, a, target, k):
    n = pattern_family_n(a, "embed_in_marker input")
    if n < 1:
        raise ValueError("embedding needs n >= 1")
    d = a.region.d
    if not edge_loop_is_hom(H, a.region, a.values):
        raise ValueError("input not a homomorphism")
    N = hs.min_universal_path_length(H)
    if k < N + d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, N + d))
    big, positions = hs._retraction_positions(n, d)
    spread = hs.Pattern(big, bytes(a.values[i] for i in positions))
    source = (a.value((0,) * d), a.value(lattice.unit(1, d)))
    return pattern_path_extend(H, spread, source, target, k)


def pattern_hat_extend(H, a, k):
    n = pattern_family_n(a, "hat_extend input")
    d = a.region.d
    if not pattern_in_hat(H, a):
        raise ValueError("input shell is not 2-periodic (or not a homomorphism)")
    if k < 2 * d:
        raise ValueError("extension length too short: k = %d but k >= %d needed"
                         % (k, 2 * d))
    cube, pool = hs._ring_layers(H, d)
    fits = hs._layer_fits(H, cube, pool)
    index = cube.index
    absent = index(hs.missing_shell_residue(n, d))
    q0 = [None] * len(cube)
    for r, positions in shell_classes(n, d):
        q0[index(r)] = a.values[positions[0]]
    q0[absent] = a.value((n - 1,) * d)

    def above(layer, skip=None):
        out = -1
        for i, u in enumerate(layer):
            if i != skip:
                out &= fits[i][u]
        return out

    first = above(q0, skip=absent)

    def chain_to(goal):
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
            depth = len(picks) + 1
            if depth == k:
                return [q0] + [pool[i] for i in picks] + [goal]
            nxt = above(pool[picks[-1]]) & ~dead[depth]
            todo.append(nxt & below if depth == k - 1 else nxt)
        return None

    zero = index((0,) * d)
    e1 = index((1,) + (0,) * (d - 1))
    preferred = (q0[zero], q0[e1]) if k % 2 == 0 else (q0[e1], q0[zero])
    candidates = ([preferred] if H.has_edge(*preferred) else []) + [
        e for e in H.ordered_edges() if e != preferred]
    for v0, v1 in candidates:
        chain = chain_to(tuple(v1 if parity(r) else v0 for r in cube.sites))
        if chain is not None:
            return (v0, v1), pattern_fill_rings(a, k, chain)
    raise NegativeResult("no 2-periodic layer chain of length %d extends "
                         "this pattern to a checkerboard shell" % k)


def per_pattern(fn, patterns, *args):
    """fn on each pattern in turn: the outputs, or the first error."""
    try:
        return [fn(args[0], p, *args[1:]) for p in patterns]
    except (ValueError, NegativeResult) as exc:
        return type(exc), str(exc)


def row_block(fn, region, rows, *args):
    """The row-block op on rows: its outputs as patterns, or its error."""
    try:
        out = fn(args[0], region, rows, *args[1:])
    except (ValueError, NegativeResult) as exc:
        return type(exc), str(exc)
    patterns = [hs.Pattern(out[0], r.tobytes()) for r in out[-1]]
    if len(out) == 2:
        return patterns
    return [(tuple(e), p) for e, p in zip(out[1].tolist(), patterns)]


def broken(H, pattern, rnd):
    """pattern with one site moved to a value that breaks an edge at it,
    or pattern itself when every value fits (as in a full shift)."""
    region = pattern.region
    nbrs = neighbor_tuples(region)
    values = bytearray(pattern.values)
    spots = [(pos, v) for pos in range(len(region)) for v in range(H.n)
             if any(not H.has_edge(v, values[j]) for j in nbrs[pos])]
    if spots:
        pos, v = rnd.choice(spots)
        values[pos] = v
    return hs.Pattern(region, bytes(values))


def off_shell(H, pattern, rnd):
    """pattern with one shell site redrawn among the values that keep it
    a homomorphism (so the shell may stop being periodic or a given
    checkerboard), or pattern itself when none is left."""
    region = pattern.region
    n, d = region.kind[1], region.d
    nbrs = neighbor_tuples(region)
    values = bytearray(pattern.values)
    spots = [(pos, v) for pos in (region.index(s) for s in shell_F(n, d))
             for v in range(H.n) if v != values[pos]
             and all(H.has_edge(v, values[j]) for j in nbrs[pos])]
    if spots:
        pos, v = rnd.choice(spots)
        values[pos] = v
    return hs.Pattern(region, bytes(values))


@pytest.mark.parametrize("op", ["path", "embed", "hat"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_block_ops_match_per_pattern_calls(op, data):
    # rows of one family with broken ones at random positions, and k
    # around its least value: outputs in row order, or the error of the
    # first row that fails, checked in the per-pattern order
    name = data.draw(st.sampled_from(sorted(RING_GRAPHS)), label="graph")
    H = RING_GRAPHS[name]
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(1, 2 if d < 3 else 1), label="n")
    rnd = data.draw(st.randoms(use_true_random=False))
    edges = H.ordered_edges()
    # mostly edges of H, sometimes any pair of vertices
    targets = st.one_of(st.sampled_from(edges), st.sampled_from(
        list(itertools.product(range(H.n), repeat=2))))
    N = hs.min_universal_path_length(H)
    if op == "path":
        source = data.draw(st.sampled_from(edges), label="source")
        good = [random_checker_member(H, source, n, d, rnd) for _ in range(4)]
        least = N + 1
    else:
        good = [random_periodic_hom(H, n, d, rnd, redraw_shell=op == "embed")
                for _ in range(4)]
        least = N + d if op == "embed" else 2 * d
    bad = {"hom": lambda p: broken(H, p, rnd),
           "shell": lambda p: off_shell(H, p, rnd)}
    patterns = [data.draw(st.sampled_from(["good", "good", "hom", "shell"]),
                          label="row %d" % i)
                for i in range(data.draw(st.integers(1, 5), label="rows"))]
    patterns = [rnd.choice(good) if kind == "good"
                else bad[kind](rnd.choice(good)) for kind in patterns]
    k = least + data.draw(st.integers(-1, 2), label="k - least")
    region = patterns[0].region
    rows = np.array([list(p.values) for p in patterns], dtype=np.uint8)
    if op == "path":
        target = data.draw(targets, label="target")
        got = row_block(hs.path_extend_rows, region, rows, H, source, target, k)
        want = per_pattern(pattern_path_extend, patterns, H, source, target, k)
    elif op == "embed":
        target = data.draw(targets, label="target")
        got = row_block(hs.embed_in_marker_rows, region, rows, H, target, k)
        want = per_pattern(pattern_embed_in_marker, patterns, H, target, k)
    else:
        # a few layers of the pool only, so that some rows have no chain
        cube, pool = hs._ring_layers(H, d)
        if data.draw(st.booleans(), label="fewer layers"):
            keep = rnd.sample(range(len(pool)), rnd.randint(1, 3))
            pool = tuple(pool[i] for i in sorted(keep))
        with unittest.mock.patch.object(hs, "_ring_layers",
                                        lambda H, d: (cube, pool)):
            got = row_block(hs.hat_extend_rows, region, rows, H, k)
            want = per_pattern(pattern_hat_extend, patterns, H, k)
    assert got == want


def test_row_block_errors_follow_the_per_pattern_order():
    # which error wins when rows fail in different ways: a row's own
    # check comes before the length and target checks only for the first
    # row, and the first failing row decides among rows
    region = box_F(1, 2)
    good = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    hom = np.frombuffer(good.values, dtype=np.uint8)
    zero = np.zeros(len(region), dtype=np.uint8)
    not_hom = ("input not a homomorphism",)
    short = ("extension length too short: k = 3 but k >= 4 needed",)
    cases = [
        ([zero, hom], (0, 1), 3, not_hom),
        ([hom, zero], (0, 1), 3, short),
        ([hom, zero], (1, 1), 4, ("target edge (1, 1) is not an edge of H",)),
        ([hom, zero], (0, 1), 4, not_hom),
    ]
    for rows, target, k, message in cases:
        with pytest.raises(ValueError) as err:
            hs.embed_in_marker_rows(K3, region, np.array(rows), target, k)
        assert err.value.args == message
    # a row without a chain before a row outside the family, and after it
    cube, pool = hs._ring_layers(K3, 2)
    with unittest.mock.patch.object(hs, "_ring_layers",
                                    lambda H, d: (cube, pool[:1])):
        ends = {outcome(pattern_hat_extend, K3, p, 4) is NegativeResult: p
                for p in hs.hat_set(K3, 1, 2)}
        rows = np.array([list(ends[False].values), list(ends[True].values),
                         zero], dtype=np.uint8)
        with pytest.raises(NegativeResult):
            hs.hat_extend_rows(K3, region, rows, 4)
        with pytest.raises(ValueError, match="not 2-periodic"):
            hs.hat_extend_rows(K3, region, rows[[0, 2, 1]], 4)
        with pytest.raises(ValueError, match="too short"):
            hs.hat_extend_rows(K3, region, rows[[0, 2, 1]], 3)
        with pytest.raises(ValueError, match="not 2-periodic"):
            hs.hat_extend_rows(K3, region, rows[[2, 0, 1]], 3)


def test_flexible_fill_reports_the_first_block_outside_the_family():
    # the row mask checks the blocks before the first misshapen one
    inside = hs.checkerboard_set(K3, 0, 1, 1, 2)[0]
    outside = hs.checkerboard_set(K3, 0, 2, 1, 2)[0]
    K = [(0, 0), (0, 9), (9, 0)]
    W = {(0, 0): inside, (0, 9): outside, (9, 0): inside}
    with pytest.raises(ValueError, match=r"block at \(0, 9\) is not in"):
        hs.flexible_fill(K3, (0, 1), 30, K, W, (0, 1))
    W[(9, 0)] = hs.checkerboard_set(K3, 0, 1, 2, 2)[0]  # another box
    with pytest.raises(ValueError, match=r"block at \(0, 9\) is not in"):
        hs.flexible_fill(K3, (0, 1), 30, K, W, (0, 1))
    W[(0, 9)] = inside
    with pytest.raises(ValueError, match="different boxes"):
        hs.flexible_fill(K3, (0, 1), 30, K, W, (0, 1))


# ---------------------------------------------------------------------------
# marker overlap verification


def test_marker_spacing_holds_for_tilde_n2():
    fam = hs.marker_set(K3, 0, 1, 2, 1, 2)  # patterns on F_2
    assert hs.verify_marker_spacing(fam, 1) is None


def test_marker_spacing_vacuous_at_zero():
    fam = hs.marker_set(K3, 0, 1, 2, 0, 2)
    assert hs.verify_marker_spacing(fam, 0) is None


def test_marker_spacing_counterexample_for_plain_checkerboard():
    fam = hs.checkerboard_set(K3, 0, 1, 1, 2)
    hit = hs.verify_marker_spacing(fam, 1)
    assert hit is not None
    a, b, t = hit
    # verify the reported overlap really is consistent
    amap, bmap = a.mapping(), b.mapping()
    for site, bval in bmap.items():
        shifted = lattice.add(site, t)
        if shifted in amap:
            assert amap[shifted] == bval


def test_marker_spacing_needs_d2():
    fam = hs.marker_set(K3, 0, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        hs.verify_marker_spacing(fam, 1)


# ---------------------------------------------------------------------------
# serialization


def test_jsonl_round_trip():
    fam = hs.checkerboard_set(K3, 0, 1, 1, 2)
    text = hs.pattern_set_to_jsonl(fam, K3, seed=7)
    back, header = hs.pattern_set_from_jsonl(text)
    assert [p.values for p in back] == [p.values for p in fam]
    assert header["count"] == 2
    assert header["seed"] == 7
    assert header["alphabet"] == ["0", "1", "2"]
    assert back.region == fam.region


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda size: st.lists(
    st.binary(min_size=size, max_size=size), min_size=1, max_size=4)))
def test_jsonl_records_match_json_dumps(arrays):
    region = Region([(i,) for i in range(len(arrays[0]))])
    ps = hs.PatternSet(region, [hs.Pattern(region, v) for v in arrays])
    lines = hs.pattern_set_to_jsonl(ps, hs.full_shift_graph(2)).splitlines()
    assert lines[1:] == [json.dumps({"values": list(p.values)},
                                    separators=(",", ":")) for p in ps]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(0, 2), (0, 9), (3, 7), (-9, -1), (10, 99),
                        (0, 120), (-50, 50), (-1000, 3), (100, 999),
                        (-99, -10), (-2**63, 2**63 - 1), (0, 10**18),
                        (-10**12, 7)]),
       st.integers(0, 5), st.integers(0, 7), st.randoms(use_true_random=False))
def test_encode_rows_paths_match_canonical_json(bounds, n, m, rnd):
    # single-digit, same-width negative and two-digit ranges are written
    # as they are laid out; mixed widths and signs, up to the int64
    # extremes, lose their NUL padding in the compress
    lo, hi = bounds
    dtype = np.int32 if -2**31 <= lo and hi < 2**31 else np.int64
    rows = np.array([[rnd.choice((lo, hi, rnd.randint(lo, hi)))
                      for _ in range(m)] for _ in range(n)],
                    dtype=dtype).reshape(n, m)
    want = "".join(canonical_json({"heights": row}) + "\n"
                   for row in rows.tolist()).encode()
    assert hs.encode_rows(rows, "heights") == want


def test_jsonl_general_region_round_trip():
    ell = Region([(0, 0), (1, 0), (0, 1)])
    ps = hs.enumerate_hom(K3, ell)
    text = hs.pattern_set_to_jsonl(ps, K3)
    back, _ = hs.pattern_set_from_jsonl(text)
    assert back.region == ell
    assert [p.values for p in back] == [p.values for p in ps]


@pytest.mark.parametrize("header, record", [
    ('"alphabet":["0","1","2"]', '{"values":3}'),
    ('"alphabet":"012"', '{"values":[0,1,2]}'),
    ('"alphabet":["0",1,"2"]', '{"values":[0,1,2]}'),
], ids=["int-values", "string-alphabet", "int-letter"])
def test_jsonl_rejects_malformed_records(header, record):
    text = '{%s,"region":{"d":1,"kind":"F","n":1}}\n%s\n' % (header, record)
    with pytest.raises(ValueError):
        hs.pattern_set_from_jsonl(text)


def test_target_graph_edges_name_vertices_by_label():
    one_based = hs.TargetGraph([1, 2, 3], [(1, 2), ("2", 3), (3, 1)])
    assert one_based.adj == K3.adj
    assert one_based.labels == ("1", "2", "3")
    with pytest.raises(ValueError):
        hs.TargetGraph(["0", "1"], [(-1, 0)])


def test_restrict_gathers_by_position():
    box = box_F(2, 2)
    p = hs.Pattern(box, bytes(i % 3 for i in range(len(box))))
    inner = box_F(1, 2)
    assert p.restrict(inner).values == bytes(p.value(s) for s in inner.sites)
    assert p.restrict(Region([])).values == b""
    for outside, site in ((Region([(0, 0), (3, 0), (4, 4)]), (3, 0)),
                          (Region([(0, 0, 0)]), (0, 0, 0))):
        with pytest.raises(KeyError) as err:
            p.restrict(outside)
        assert err.value.args == (site,)
