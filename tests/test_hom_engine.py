"""The block homomorphism engine against the scalar depth-first search.

The oracle is the scalar search the engine replaced: it fills the sites
one at a time in canonical order, tries each vertex of H (or the one value
the boundary fixes, or the value of the earlier site a tied site copies),
and ticks one node per prefix it extends.  The engine must give the same
rows in the same order and tick the same nodes, so that a budget runs out
exactly where the scalar one did.  The periodic-shell family and the
exhaustive window check are each checked against the many small searches
they replaced.
"""

import contextlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticelab import height as ht
from latticelab import homshift as hs
from latticelab import lattice
from latticelab.lattice import Region, box_F, parity
from latticelab.util import BudgetCounter, BudgetError


# Instances whose scalar search visits more nodes are discarded.
MAX_NODES = 20_000


class _Stop(Exception):
    pass


def scalar_dfs(H, region, fixed, ties=None):
    """(rows, nodes) of the scalar search.  ties maps a site to an earlier
    site whose value it takes.  None past MAX_NODES nodes."""
    sites = region.sites
    m = len(sites)
    if m == 0:
        return [b""], 0
    prevs = [[region.index(nb) for nb in lattice.neighbors(s)
              if nb in region and region.index(nb) < pos]
             for pos, s in enumerate(sites)]
    fixed_vals = [fixed.get(s) for s in sites]
    tied = [region.index(ties[s]) if s in (ties or {}) else None
            for s in sites]
    values = bytearray(m)
    rows = []
    nodes = [0]

    def rec(pos):
        if pos == m:
            rows.append(bytes(values))
            return
        nodes[0] += 1
        if nodes[0] > MAX_NODES:
            raise _Stop
        forced = (fixed_vals[pos] if tied[pos] is None
                  else values[tied[pos]])
        for v in (forced,) if forced is not None else range(H.n):
            if all(v in H.adj_sets[values[j]] for j in prevs[pos]):
                values[pos] = v
                rec(pos + 1)

    try:
        rec(0)
    except _Stop:
        return None
    return rows, nodes[0]


# ---------------------------------------------------------------------------
# random graphs, regions and boundaries


@st.composite
def graphs(draw, max_vertices=11):
    """A graph on 1..max_vertices vertices: loops allowed, edgeless
    allowed."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    edges = [e for e in pairs if draw(st.floats(0, 1)) < density]
    return hs.TargetGraph(range(n), edges)


@st.composite
def regions(draw):
    """A box F_n, a rectangle or a general site set (maybe disconnected)."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["F", "rect", "general"]))
    if kind == "F":
        return box_F(draw(st.integers(0, {1: 3, 2: 1, 3: 0}[d])), d)
    if kind == "rect":
        dims = draw(st.lists(st.integers(1, {1: 7, 2: 3, 3: 2}[d]),
                             min_size=d, max_size=d))
        return lattice.rectangle(tuple(dims), tuple(
            draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))))
    cells = list(itertools.product(range(4), repeat=d))
    sites = draw(st.lists(st.sampled_from(cells), max_size=7))
    return Region(sites)


@st.composite
def instances(draw):
    H = draw(graphs())
    region = draw(regions())
    fixed = {}
    if len(region):
        for site in draw(st.lists(st.sampled_from(region.sites), max_size=3)):
            fixed[site] = draw(st.integers(0, H.n - 1))
    return H, region, fixed


def count_ticks(H, region, fixed, ties=None):
    counter = BudgetCounter(10 ** 9)
    root, source = hs._check_boundary(H, region, fixed)
    for site, earlier in (ties or {}).items():
        source[region.index(site)] = region.index(earlier)
    rows = [r.tobytes() for block in
            hs._hom_blocks(H, region, root, source, counter) for r in block]
    return rows, counter.nodes


@settings(max_examples=300, deadline=None)
@given(instances())
@example((hs.complete_graph(3), box_F(1, 2), {(-1, -1): 0, (-1, 0): 0}))
@example((hs.TargetGraph(range(10), []), box_F(1, 1), {}))
@example((hs.petersen_graph(), Region([(0, 0), (2, 2), (0, 1)]), {(2, 2): 9}))
@example((hs.complete_graph(3), Region([]), {}))
def test_engine_matches_scalar_search(case):
    H, region, fixed = case
    oracle = scalar_dfs(H, region, fixed)
    assume(oracle is not None)
    want, nodes = oracle
    got, ticks = count_ticks(H, region, fixed)
    assert got == want
    assert ticks == nodes
    # the budget runs out exactly where the scalar search's did
    ps = hs.enumerate_hom(H, region, fixed, budget=nodes)
    assert [p.values for p in ps] == want
    assert hs.count_hom_dfs(H, region, fixed, budget=nodes) == len(want)
    if nodes:
        with pytest.raises(BudgetError):
            hs.enumerate_hom(H, region, fixed, budget=nodes - 1)
        with pytest.raises(BudgetError):
            hs.count_hom_dfs(H, region, fixed, budget=nodes - 1)


def test_engine_blocks_stay_bounded_and_in_order():
    # F_2 needs many blocks per site: they must still come out in order,
    # and no block may grow past one step's children
    H = hs.complete_graph(3)
    root, source = hs._check_boundary(H, box_F(2, 2), {})
    blocks = list(hs._hom_blocks(H, box_F(2, 2), root, source,
                                 BudgetCounter(10 ** 9)))
    assert max(len(b) for b in blocks) <= hs.ENGINE_BLOCK * H.n
    rows = np.concatenate(blocks)
    assert len(rows) == 580986
    later = rows[1:].astype(int) - rows[:-1]
    first_change = later[np.arange(len(later)), (later != 0).argmax(axis=1)]
    assert (first_change > 0).all()


# Graphs of degree two or three, whose searches along a line longer than
# the engine's reach K stay within MAX_NODES.
LINE_GRAPHS = [hs.complete_graph(3), hs.complete_graph(4), hs.cycle_graph(4),
               hs.cycle_graph(5), hs.full_shift_graph(2),
               hs.TargetGraph(range(3), [(0, 1), (1, 2)])]


def reach(H):
    """The engine's K: the largest k with Delta(H)^(k-1) <= ENGINE_BLOCK."""
    degree = int(H.matrix().sum(axis=1).max())
    k = 1
    while degree ** k <= hs.ENGINE_BLOCK:
        k += 1
    return k


def box_boundary(region):
    """The sites on the boundary of the region's bounding box."""
    lo, hi = region.bounds()
    return [s for s in region.sites
            if any(c in (a, b) for a, c, b in zip(lo, s, hi))]


def shell_classes(n, d):
    """The shell of F_n by residue mod 2: (residue, ascending positions in
    F_n of its shell sites) pairs, in lexicographic order of residue."""
    index = box_F(n, d).index
    classes = {}
    for s in lattice.shell_F(n, d):
        classes.setdefault(tuple(c % 2 for c in s), []).append(index(s))
    return tuple(sorted((r, tuple(p)) for r, p in classes.items()))


def hat_ties(n, d):
    """The periodic-shell family's ties on F_n: each shell site to the
    first shell site of its class mod 2."""
    sites = box_F(n, d).sites
    return {sites[i]: sites[p[0]] for _, p in shell_classes(n, d)
            for i in p[1:]}


def marker_shells(n, d):
    """The marker family's fixed sites on F_{n+1}: the (0, 1) shell
    outside and the (0, 2) shell on F_n."""
    fixed = hs.checkerboard_shell(0, 1, n + 1, d)
    fixed.update(hs.checkerboard_shell(0, 2, n, d))
    return fixed


@st.composite
def segment_instances(draw):
    """An instance whose search spans several segments: a box or rectangle
    up to 6 x 6 in d = 2, F_1 in d = 3 or a line longer than K; with fixed
    sites, a fixed checkerboard shell, whole lattice lines fixed to a
    checkerboard (the engine folds them into the segment before them), or
    ties, some of them (as in the periodic-shell family) to a site on an
    earlier line."""
    shape = draw(st.sampled_from(["rect", "F", "F1d3", "line"]))
    if shape == "line":
        H = draw(st.sampled_from(LINE_GRAPHS))
        length = reach(H) + draw(st.integers(1, 3))
        region = lattice.rectangle(
            draw(st.sampled_from([(length,), (1, length), (2, length)])))
    else:
        H = draw(st.one_of(graphs(max_vertices=5), st.sampled_from(
            LINE_GRAPHS + [hs.petersen_graph()])))
        region = {"rect": lambda: lattice.rectangle(
            (draw(st.integers(1, 6)), draw(st.integers(1, 6))),
            (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))),
                  "F": lambda: box_F(draw(st.integers(1, 2)), 2),
                  "F1d3": lambda: box_F(1, 3)}[shape]()
    shell = box_boundary(region)
    fixed, ties = {}, {}
    mode = draw(st.sampled_from(["free", "sites", "shell", "lines", "periodic",
                                 "tied"]))
    if mode == "sites":
        for site in draw(st.lists(st.sampled_from(region.sites), max_size=4)):
            fixed[site] = draw(st.integers(0, H.n - 1))
    elif mode in ("shell", "lines") and H.ordered_edges():
        v0, v1 = draw(st.sampled_from(H.ordered_edges()))
        if mode == "lines":     # a line: the sites that differ in the last axis
            heads = sorted({s[:-1] for s in region.sites})
            lines = draw(st.sets(st.sampled_from(heads), min_size=1))
            shell = [s for s in region.sites if s[:-1] in lines]
        fixed = {s: (v0 if parity(s) == 0 else v1) for s in shell}
    elif mode == "periodic":
        lead = {}
        for s in shell:
            ties[s] = lead.setdefault(tuple(c % 2 for c in s), s)
        ties = {s: t for s, t in ties.items() if s != t}
    elif mode == "tied":
        for pos, site in enumerate(region.sites):
            if pos and draw(st.integers(0, 3)) == 0:
                ties[site] = region.sites[draw(st.integers(0, pos - 1))]
    return H, region, fixed, ties


def run_engine(H, region, fixed, ties, budget):
    """(rows, nodes, largest block) of one engine run, with ties."""
    counter = BudgetCounter(budget)
    root, source = hs._check_boundary(H, region, fixed)
    for site, earlier in ties.items():
        source[region.index(site)] = region.index(earlier)
    blocks = list(hs._hom_blocks(H, region, root, source, counter))
    return ([r.tobytes() for block in blocks for r in block], counter.nodes,
            max(len(b) for b in blocks) if blocks else 0)


@pytest.mark.parametrize("memo", [None, 2], ids=["memo", "memo-cleared"])
@settings(max_examples=150, deadline=None)
@given(segment_instances())
@example((hs.complete_graph(3), lattice.rectangle((1, 13)), {}, {}))
@example((hs.complete_graph(3), box_F(2, 2), {}, hat_ties(2, 2)))
@example((hs.cycle_graph(5), lattice.rectangle((6, 6)),
          {s: parity(s) for s in box_boundary(lattice.rectangle((6, 6)))}, {}))
@example((hs.cycle_graph(200), lattice.rectangle((2, 12)),
          {(1, j): j % 2 for j in range(1, 13)}, {}))
@example((hs.complete_graph(3), box_F(2, 2), hs.checkerboard_shell(0, 1, 2, 2),
          {}))
@example((hs.complete_graph(3), box_F(3, 2), marker_shells(2, 2), {}))
def test_segment_steps_match_scalar_search(memo, case):
    H, region, fixed, ties = case
    oracle = scalar_dfs(H, region, fixed, ties=ties)
    assume(oracle is not None)
    want, nodes = oracle
    with contextlib.ExitStack() as stack:
        if memo is not None:
            stack.enter_context(mock.patch.object(
                hs, "_memo_bound", lambda H, length: (memo, memo)))
        got, ticks, largest = run_engine(H, region, fixed, ties, nodes)
        assert got == want
        assert ticks == nodes
        assert largest <= hs.ENGINE_BLOCK * H.n
        if nodes:
            with pytest.raises(BudgetError):
                run_engine(H, region, fixed, ties, nodes - 1)
        if not ties:
            assert hs.count_hom_dfs(H, region, fixed, budget=nodes) == len(want)
            if nodes:
                with pytest.raises(BudgetError):
                    hs.enumerate_hom(H, region, fixed, budget=nodes - 1)
                with pytest.raises(BudgetError):
                    hs.count_hom_dfs(H, region, fixed, budget=nodes - 1)


@pytest.mark.parametrize("n, fixed, ties, segments, free", [
    (3, hs.checkerboard_shell(0, 1, 3, 2), {},
     (0, 7, 14, 21, 28, 35, 49), (0, 5, 5, 5, 5, 5)),
    (3, marker_shells(2, 2), {}, (0, 14, 21, 28, 49), (0, 3, 3, 3)),
    (2, {}, hat_ties(2, 2), (0, 5, 10, 15, 20, 25), (2, 4, 3, 3, 0))],
    ids=["checker", "marker", "hat"])
def test_fixed_lines_join_the_segment_before_them(n, fixed, ties, segments,
                                                  free):
    # one segment per line of F_n (n <= 5), but a line whose sites are
    # all fixed joins the segment before it, unless it is the first: C_3
    # has a segment fewer.  A tied line keeps its own segment.
    K3 = hs.complete_graph(3)
    region = box_F(n, 2)
    bounds = hs._segment_bounds(region, reach(K3))
    assert bounds == tuple(range(0, len(region) + 1, 2 * n + 1))
    source = hs._check_boundary(K3, region, fixed)[1]
    for site, earlier in ties.items():
        source[region.index(site)] = region.index(earlier)
    assert hs._fold_fixed(bounds, source) == (segments, free)


def test_engine_memory_is_bounded_by_its_segments():
    # F_12, free and with a fixed checkerboard shell, runs out of its
    # budget deep in the box, with a pending block at most per segment;
    # the bound below follows from the design alone
    K3 = hs.complete_graph(3)
    region = box_F(12, 2)
    region.earlier_neighbor_table()     # the region's tables, built first
    k = reach(K3)
    lines = -(-25 // k)                 # a 25-site line is ceil(25 / K) segments
    block = hs.ENGINE_BLOCK * K3.n * len(region)    # bytes of one block
    # a fixed line joins the segment before it, but the first has none
    for fixed, segments in (({}, 25 * lines),
                            (hs.checkerboard_shell(0, 1, 12, 2),
                             25 * lines - 2 * lines + 1)):
        bounds, free = hs._fold_fixed(hs._segment_bounds(region, k),
                                      hs._check_boundary(K3, region, fixed)[1])
        assert len(free) == segments and max(free) <= k
        # a memo of L-site words is cleared, before an expansion, when it
        # holds C contexts or W words, (C, W) = _memo_bound(H, L), and one
        # expansion adds at most ENGINE_BLOCK contexts and ENGINE_BLOCK *
        # H.n words (a context has at most H.n * Delta^(f-1) words, f <= K
        # its segment's branching sites); so it holds fewer than
        # C + ENGINE_BLOCK contexts (an int64 key and an int64 start, count
        # and ticks each) and fewer than W + ENGINE_BLOCK * H.n words of
        # L bytes, L a segment's length: at most K, more with a fixed line
        # folded in
        memo = max((c + hs.ENGINE_BLOCK) * 4 * 8
                   + (w + hs.ENGINE_BLOCK * K3.n) * length
                   for length in set(np.diff(bounds).tolist())
                   for c, w in [hs._memo_bound(K3, length)])
        # a block and a memo per segment, and one more of each for a
        # step's working arrays and a memo's copy while it grows
        bound = (segments + 1) * (block + memo)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                hs.count_hom_dfs(K3, region, fixed, budget=10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


@st.composite
def tied_instances(draw):
    """An instance whose free sites may copy the value of an earlier site."""
    H, region, fixed = draw(instances())
    ties = {}
    for pos, site in enumerate(region.sites):
        if pos and site not in fixed and draw(st.booleans()):
            ties[site] = region.sites[draw(st.integers(0, pos - 1))]
    return H, region, fixed, ties


@settings(max_examples=300, deadline=None)
@given(tied_instances())
@example((hs.complete_graph(3), box_F(1, 2), {(0, 0): 1},
          {(0, 1): (-1, -1), (1, 1): (0, 0), (1, -1): (0, 1)}))
@example((hs.complete_graph(3), Region([(0,), (1,), (2,)]), {},
          {(1,): (0,)}))
def test_engine_with_tied_sites_matches_scalar_search(case):
    H, region, fixed, ties = case
    oracle = scalar_dfs(H, region, fixed, ties=ties)
    assume(oracle is not None)
    assert count_ticks(H, region, fixed, ties) == oracle


def hat_by_assignment(H, n, d):
    """The periodic-shell family as the union of one search per shell
    assignment, sorted afterwards."""
    region = box_F(n, d)
    classes = shell_classes(n, d)
    rows = set()
    for assignment in itertools.product(range(H.n), repeat=len(classes)):
        boundary = {region.sites[i]: v
                    for (_, positions), v in zip(classes, assignment)
                    for i in positions}
        rows.update(r.tobytes()
                    for r in hs.enumerate_hom(H, region, boundary).rows)
    return sorted(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    graphs(max_vertices=5 if d < 3 else 3), st.integers(1, 2 if d < 3 else 1),
    st.just(d))))
@example((hs.complete_graph(3), 1, 3))
@example((hs.cycle_graph(5), 2, 2))
def test_hat_set_is_the_union_over_shell_assignments(case):
    H, n, d = case
    try:
        ps = hs.hat_set(H, n, d, budget=20_000)
    except BudgetError:
        ps = None
    assume(ps is not None)
    assert [p.values for p in ps] == hat_by_assignment(H, n, d)
    assert all(hs.in_hat(H, p) for p in ps)


def test_hat_set_counts_the_nodes_of_one_search():
    K3 = hs.complete_graph(3)
    assert len(hs.hat_set(K3, 1, 3, budget=1828)) == 114
    with pytest.raises(BudgetError):
        hs.hat_set(K3, 1, 3, budget=1827)


def window_by_pairs(H, box, inner, ring, everything):
    """The exhaustive window check as one counting search per (center,
    ring) pair of restrictions of the box's homomorphisms, in sorted
    order; None when there are too many pairs to try."""
    rows = everything.rows
    centers = sorted({r.tobytes() for r in rows[:, box.positions(inner.coords)]})
    rings = sorted({r.tobytes() for r in rows[:, box.positions(ring.coords)]})
    if len(centers) * len(rings) > 400:
        return None
    for xv in centers:
        for yv in rings:
            fixed = dict(zip(inner.sites, xv))
            fixed.update(zip(ring.sites, yv))
            if hs.count_hom_dfs(H, box, fixed, budget=10 ** 9) == 0:
                return xv, yv
    return "glues"


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=5), st.integers(0, 3), st.integers(1, 3),
       st.integers(1, 3))
@example(hs.complete_graph(3), 0, 1, 1)
@example(hs.complete_graph(3), 1, 2, 1)
@example(hs.full_shift_graph(2), 1, 1, 1)
def test_exhaustive_window_check_matches_the_pair_loop(H, M, n, buffer):
    box, inner, ring = ht._window_regions(M, n, buffer, 1)
    try:
        everything = hs.enumerate_hom(H, box, budget=20_000)
    except BudgetError:
        everything = None
    assume(everything is not None)
    want = window_by_pairs(H, box, inner, ring, everything)
    assume(want is not None)
    hit = ht.ufp_window_check(H, M, n, buffer, mode="exhaustive", d=1)
    assert ("glues" if hit is None else (hit[0].values, hit[1].values)) == want


def test_boundary_values_must_be_vertices():
    with pytest.raises(ValueError):
        hs.enumerate_hom(hs.complete_graph(3), box_F(1, 1), {(0,): 3})


# ---------------------------------------------------------------------------
# the pattern set is a view of one array


def test_pattern_set_is_a_read_only_view():
    ps = hs.enumerate_hom(hs.complete_graph(3), box_F(1, 1))
    assert ps.rows.dtype == np.uint8 and ps.rows.shape == (12, 3)
    assert not ps.rows.flags.writeable
    assert len(ps) == 12
    assert [p.values for p in ps] == [r.tobytes() for r in ps.rows]
    assert ps[-1].values == ps.rows[-1].tobytes()
    assert [p.values for p in ps[1:3]] == [ps[1].values, ps[2].values]
    assert ps[0].region is ps.region


def test_pattern_set_of_a_zero_site_region():
    ps = hs.enumerate_hom(hs.complete_graph(3), Region([]))
    assert len(ps) == 1 and [p.values for p in ps] == [b""]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.binary(min_size=m, max_size=m), max_size=30))))
def test_distinct_rows_are_the_sorted_set(case):
    # bytes sort unsigned, and a zero-site region has one pattern at most
    m, rows = case
    cols = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), m)
    uniq, ids = hs._distinct_rows(cols)
    want = sorted(set(rows))
    assert [r.tobytes() for r in uniq] == want
    assert [want[i] for i in ids] == rows
    region = Region([(i,) for i in range(m)])
    ps = hs.PatternSet(region, [hs.Pattern(region, r) for r in rows])
    assert [p.values for p in ps] == want


# ---------------------------------------------------------------------------
# the block encoder


def per_record(ps):
    """The records as written one pattern at a time."""
    return "".join('{"values":[' + ",".join(map(str, p.values)) + ']}\n'
                   for p in ps)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 256).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(0, 6).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, q - 1), min_size=m, max_size=m),
        max_size=20)))))
def test_block_encoder_matches_per_record(case):
    q, rows = case
    m = len(rows[0]) if rows else 3
    region = Region([(i,) for i in range(m)])
    ps = hs.PatternSet(region, [hs.Pattern(region, bytes(r)) for r in rows])
    H = hs.full_shift_graph(q)
    text = hs.pattern_set_to_jsonl(ps, H)
    header, _, body = text.partition("\n")
    assert json.loads(header)["count"] == len(ps)
    assert body == per_record(ps)


def test_block_encoder_across_blocks():
    H = hs.complete_graph(3)
    ps = hs.checkerboard_set(H, 0, 1, 3, 2)
    assert len(ps) > hs.ENCODE_BLOCK
    body = hs.pattern_set_to_jsonl(ps, H).partition("\n")[2]
    assert body == per_record(ps)


def test_block_encoder_on_a_zero_site_region():
    H = hs.complete_graph(3)
    one = hs.enumerate_hom(H, Region([]))
    assert hs.pattern_set_to_jsonl(one, H).partition("\n")[2] == \
        '{"values":[]}\n'
    none = hs.PatternSet(Region([]), [])
    assert hs.pattern_set_to_jsonl(none, H).count("\n") == 1


# ---------------------------------------------------------------------------
# regions from file headers


def test_boxes_are_built_once():
    assert box_F(3, 2) is box_F(3, 2)
    assert lattice.box_B(2, 3) is lattice.box_B(2, 3)
    assert box_F(1, 2) is not box_F(1, 3)


@pytest.mark.parametrize("n, d", [([1], 2), (1, [2]), (True, 2), (-1, 2)])
def test_box_arguments_are_checked_before_the_cache(n, d):
    with pytest.raises(ValueError):
        box_F(n, d)
    with pytest.raises(ValueError):
        lattice.box_B(n, d)


@pytest.mark.parametrize("region, sites", [
    ('{"d":4,"kind":"F","n":30}', 13845841),
    ('{"d":4,"kind":"B","n":60}', 12960000),
    ('{"d":3,"dims":[300,300,300],"kind":"rect","offset":[0,0,0]}', 27000000),
], ids=["F", "B", "rect"])
def test_oversized_header_region_rejected_before_it_is_built(region, sites):
    text = ('{"alphabet":["0","1","2"],"count":1,"region":%s}\n'
            '{"values":[0,1,0]}\n' % region)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="has %d sites" % sites):
            hs.pattern_set_from_jsonl(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_header_size_check_passes_matching_boxes():
    H = hs.complete_graph(3)
    for ps in (hs.checkerboard_set(H, 0, 1, 1, 2),
               hs.enumerate_hom(H, lattice.box_B(2, 2))):
        back, _ = hs.pattern_set_from_jsonl(hs.pattern_set_to_jsonl(ps, H))
        assert back.region == ps.region
        assert back.rows.tobytes() == ps.rows.tobytes()
