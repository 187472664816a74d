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

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticelab import height as ht
from latticelab import homshift as hs
from latticelab import lattice
from latticelab.lattice import Region, box_F
from latticelab.util import BudgetCounter, BudgetError


# Instances whose scalar search visits more nodes are discarded.
MAX_NODES = 20_000


class _Stop(Exception):
    pass


def scalar_dfs(H, region, fixed, first=False, ties=None):
    """(rows, nodes) of the scalar search; with first, it stops at its
    first row.  ties maps a site to an earlier site whose value it takes.
    None past MAX_NODES nodes."""
    sites = region.sites
    m = len(sites)
    if m == 0:
        return [b""], 0
    prevs = region.earlier_neighbor_table()
    fixed_vals = [fixed.get(s) for s in sites]
    tied = [region.index(ties[s]) if s in (ties or {}) else None
            for s in sites]
    values = bytearray(m)
    rows = []
    nodes = [0]

    def rec(pos):
        if pos == m:
            rows.append(bytes(values))
            if first:
                raise _Stop
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
        if nodes[0] > MAX_NODES:
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


@settings(max_examples=300, deadline=None)
@given(instances())
@example((hs.complete_graph(3), box_F(1, 2), {(1, 1): 2}))
def test_first_hom_charges_the_scalar_nodes(case):
    H, region, fixed = case
    oracle = scalar_dfs(H, region, fixed, first=True)
    assume(oracle is not None)
    rows, nodes = oracle
    counter = BudgetCounter(10 ** 9)
    hit = hs.first_hom(H, region, fixed, counter)
    assert hit == (rows[0] if rows else None)
    assert counter.nodes == nodes
    if nodes:
        with pytest.raises(BudgetError):
            hs.first_hom(H, region, fixed, BudgetCounter(nodes - 1))
    assert hs.first_hom(H, region, fixed, BudgetCounter(nodes)) == hit


def test_first_hom_charges_the_scalar_nodes_across_blocks():
    # F_2 has far more prefixes per site than one block: the hit comes
    # out of the first block, and the rest of each block is taken off
    H = hs.complete_graph(3)
    region = box_F(2, 2)
    fixed = {(2, 2): 1, (0, 0): 2}
    rows, nodes = scalar_dfs(H, region, fixed, first=True)
    counter = BudgetCounter(10 ** 9)
    assert hs.first_hom(H, region, fixed, counter) == rows[0]
    assert counter.nodes == nodes
    with pytest.raises(BudgetError):
        hs.first_hom(H, region, fixed, BudgetCounter(nodes - 1))


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
    classes = hs._shell_classes(n, d)
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
    """The exhaustive window check as one first-hit search per (center,
    ring) pair of restrictions of the box's homomorphisms, in sorted
    order; None when there are too many pairs to try."""
    centers = sorted({p.restrict(inner).values for p in everything})
    rings = sorted({p.restrict(ring).values for p in everything})
    if len(centers) * len(rings) > 400:
        return None
    for xv in centers:
        for yv in rings:
            fixed = dict(zip(inner.sites, xv))
            fixed.update(zip(ring.sites, yv))
            if hs.first_hom(H, box, fixed, BudgetCounter(10 ** 9)) is None:
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
