"""Counting engines: transfer operators, torus traces, dimer counts, strips.

Independent routes for the same quantity: transfer matrices vs pruned
search for box counts, the exact-count kernel vs the object-array
products it replaced, the exact Kasteleyn product vs the tiling frontier
DP vs a copy of the old column-profile DP for dimers, the subresultant
resultant vs Bareiss elimination on the Sylvester matrix, an inline
Cayley-graph search for the torus.
"""

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticelab import entropy as en
from latticelab import homshift as hs
from latticelab import tiling as tl
from latticelab.cli import main
from latticelab.lattice import box_F, rectangle
from latticelab.util import BudgetCounter, BudgetError

K3 = hs.complete_graph(3)
C5 = hs.cycle_graph(5)


def torus_oracle(H, side):
    """Proper H-colorings of the side x side torus by direct search."""
    verts = [(x, y) for x in range(side) for y in range(side)]
    idx = {v: i for i, v in enumerate(verts)}
    nbrs = [set() for _ in verts]
    for (x, y) in verts:
        i = idx[(x, y)]
        for dx, dy in ((1, 0), (0, 1)):
            j = idx[((x + dx) % side, (y + dy) % side)]
            if j != i:
                nbrs[i].add(j)
                nbrs[j].add(i)
    count = 0
    vals = [None] * len(verts)

    def rec(i):
        nonlocal count
        if i == len(verts):
            count += 1
            return
        for v in range(H.n):
            if all(vals[j] is None or H.has_edge(v, vals[j]) for j in nbrs[i]):
                vals[i] = v
                rec(i + 1)
                vals[i] = None

    rec(0)
    return count


# ---------------------------------------------------------------------------
# transfer operator


def dense_matrix(op):
    """The 0/1 transfer matrix of op, built from its CSR arrays."""
    dense = np.zeros((op.size(), op.size()), dtype=np.uint8)
    dense[np.repeat(np.arange(op.size()), np.diff(op.indptr)), op.indices] = 1
    return dense


def test_transfer_matrix_is_symmetric():
    matrix = dense_matrix(en.TransferOperator(K3, 3, "free"))
    assert (matrix == matrix.T).all()


def test_transfer_states_are_valid_columns():
    op = en.TransferOperator(K3, 4, "free")
    assert op.size() == 3 * 2 ** 3
    for s in op.state_values:
        assert all(K3.has_edge(s[i], s[i + 1]) for i in range(3))
    per = en.TransferOperator(K3, 4, "periodic")
    for s in per.state_values:
        assert K3.has_edge(s[-1], s[0])


def test_transfer_state_space_guard():
    K5 = hs.complete_graph(5)
    with pytest.raises(ValueError):
        en.TransferOperator(K5, 9, "free")


def test_transfer_rejects_bad_boundary():
    with pytest.raises(ValueError):
        en.TransferOperator(K3, 2, "wrapped")


# ---------------------------------------------------------------------------
# the sparse operator against the dense list-of-lists operator it replaced


def oracle_column_states(H, width, periodic):
    """All vertical colorings of one column, as value tuples in lex order."""
    if width < 1:
        raise ValueError("width must be positive")
    out = []
    for prefix in [(v,) for v in range(H.n)]:
        oracle_extend_column(H, prefix, width, out)
    if periodic and width > 1:
        out = [s for s in out if H.has_edge(s[-1], s[0])]
    elif periodic and width == 1:
        out = [s for s in out if H.has_edge(s[0], s[0])]
    return out


def oracle_extend_column(H, prefix, width, out):
    if len(prefix) == width:
        out.append(prefix)
        return
    for v in H.adj[prefix[-1]]:
        oracle_extend_column(H, prefix + (v,), width, out)


class ListTransfer:
    """Dense transfer matrix as a Python list of lists, exact ints."""

    def __init__(self, H, width, boundary="free"):
        if boundary not in ("free", "periodic"):
            raise ValueError("boundary must be 'free' or 'periodic'")
        states = oracle_column_states(H, width, boundary == "periodic")
        if not states:
            raise ValueError("no valid column states for width %d (%s)"
                             % (width, boundary))
        if len(states) > en.MAX_TRANSFER_STATES:
            raise ValueError("transfer state space too large: %d states"
                             % len(states))
        self.state_values = states
        adj = H.adj_sets
        self.matrix = [[1 if all(a[i] in adj[b[i]] for i in range(width)) else 0
                        for b in states] for a in states]

    def size(self):
        return len(self.state_values)

    def apply(self, vec):
        return [sum(row[j] * vec[j] for j in range(len(vec)) if vec[j])
                for row in self.matrix]

    def count_strip(self, length):
        if length < 1:
            raise ValueError("length must be positive")
        vec = [1] * self.size()
        for _ in range(length - 1):
            vec = self.apply(vec)
        return sum(vec)

    def trace_power(self, length):
        if length < 1:
            raise ValueError("length must be positive")
        power = [row[:] for row in self.matrix]
        for _ in range(length - 1):
            power = [self.apply(row) for row in power]
        return sum(power[i][i] for i in range(self.size()))


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err))


# a path 0-1-2 with a loop at 2, and the isolated vertex 3
LOOPED_PATH = hs.TargetGraph(["0", "1", "2", "3"], [(0, 1), (1, 2), (2, 2)])
GRAPHS = [hs.graph_preset(name)
          for name in ("K3", "K4", "C4", "C5", "petersen", "full2")]
GRAPHS.append(LOOPED_PATH)


@given(st.sampled_from(GRAPHS), st.integers(1, 5),
       st.sampled_from(["free", "periodic"]), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_operator_matches_list_operator(H, width, boundary, length):
    want = outcome(ListTransfer, H, width, boundary)
    if isinstance(want, tuple):
        assert outcome(en.TransferOperator, H, width, boundary) == want
        return
    assume(want.size() <= 120)
    op = en.TransferOperator(H, width, boundary)
    assert op.size() == want.size()
    assert op.state_values == want.state_values
    assert dense_matrix(op).tolist() == want.matrix
    assert op.count_strip(length) == want.count_strip(length)
    assert type(op.count_strip(length)) is int
    if want.size() <= 64:
        assert op.trace_power(length) == want.trace_power(length)
    assert outcome(op.count_strip, 0) == outcome(want.count_strip, 0)
    assert outcome(op.trace_power, 0) == outcome(want.trace_power, 0)


def test_operator_errors_match_list_operator():
    cases = [(K3, 1, "periodic"), (K3, 3, "wrapped"), (K3, 0, "free"),
             (hs.cycle_graph(4), 3, "periodic"),
             (hs.TargetGraph(["0", "1"], []), 2, "free")]
    for H, width, boundary in cases:
        assert (outcome(en.TransferOperator, H, width, boundary)
                == outcome(ListTransfer, H, width, boundary))


def test_state_guard_fires_before_any_neighbour_list(monkeypatch, capsys):
    K5 = hs.complete_graph(5)
    want = outcome(ListTransfer, K5, 9, "free")
    assert "too large: 327680 states" in want[1]

    def no_lists(*args):
        raise AssertionError("neighbour lists built past the state guard")

    monkeypatch.setattr(en, "_compatible_columns", no_lists)
    assert outcome(en.TransferOperator, K5, 9, "free") == want
    # far beyond anything that could be enumerated
    with pytest.raises(ValueError, match="too large"):
        en.TransferOperator(K3, 60, "periodic")
    # few enough states, but 6 * 3**16 and 6 * 3**15 compatible pairs
    for what in ("hom", "torus"):
        assert main(["count", what, "--n", "8"]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and err.count("\n") == 1


def test_apply_leaves_rows_without_neighbours_at_zero():
    op = en.TransferOperator(LOOPED_PATH, 1, "free")
    assert op.state_values == [(0,), (1,), (2,), (3,)]
    assert op.apply([5, 7, 11, 13]).tolist() == [7, 16, 18, 0]
    floats = op.apply(np.array([0.5, 1.0, 2.0, 4.0]))
    assert floats.dtype == np.float64 and floats.tolist() == [1.0, 2.5, 3.0, 0.0]


def test_apply_refuses_integers_that_could_wrap():
    op = en.TransferOperator(LOOPED_PATH, 1, "free")  # at most 2 neighbours
    top = (1 << 62) - 1
    # 2 * top = 2**63 - 2 is the largest sum that may be asked for
    assert op.apply([top, 0, top, 0]).tolist() == [0, 2 * top, top, 0]
    assert op.apply([-top, 0, -top, 0]).tolist() == [0, -2 * top, -top, 0]
    assert op.apply(np.array([[1, 2]] * 4, dtype=np.uint8)).tolist() == \
        [[1, 2], [2, 4], [2, 4], [0, 0]]
    for big in (1 << 62, -(1 << 62), 1 << 70):
        with pytest.raises(ValueError, match="may not fit in int64"):
            op.apply([0, big, 0, 0])


# ---------------------------------------------------------------------------
# the exact-count kernel against the object-array routes it replaced


def object_product(op, x):
    """T @ x over Python ints, as TransferOperator.apply computed it."""
    x = np.asarray(x).astype(object)
    nonempty = op.indptr[:-1] < op.indptr[1:]
    out = np.zeros(x.shape, dtype=object)
    out[nonempty] = np.add.reduceat(x[op.indices], op.indptr[:-1][nonempty],
                                    axis=0)
    return out


def object_count_strip(op, length):
    """count_strip as it was: length - 1 products of a vector of ones."""
    vec = np.ones(op.size(), dtype=object)
    for _ in range(length - 1):
        vec = object_product(op, vec)
    return int(vec.sum())


def object_trace_power(op, length):
    """trace_power as it was: with P = T^ceil(length/2) and
    Q = T^floor(length/2), powered from identity blocks of columns, the
    trace is sum_ij P_ij Q_ij (T is symmetric)."""
    size = op.size()
    block = max(1, en.GATHER_LIMIT // max(1, len(op.indices)))
    total = 0
    for lo in range(0, size, block):
        cols = min(block, size - lo)
        power = np.zeros((size, cols), dtype=object)
        power[np.arange(lo, lo + cols), np.arange(cols)] = 1
        for _ in range(length // 2):
            power = object_product(op, power)
        half = power
        if length % 2:
            power = object_product(op, power)
        total += int((power * half).sum())
    return total


def count_bound(op, steps):
    """The kernel's bound S * D**steps on trace(T^steps) and 1' T^steps 1."""
    return op.size() * int(np.diff(op.indptr).max()) ** steps


@given(st.sampled_from(GRAPHS), st.integers(1, 6),
       st.sampled_from(["free", "periodic"]), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_object_oracles(H, width, boundary, length):
    # lengths to 40 take every route: about a third of these draws have a
    # bound past 2**63, so their sums run on residues
    op = outcome(en.TransferOperator, H, width, boundary)
    assume(not isinstance(op, tuple) and op.size() <= 120)
    strip = op.count_strip(length)
    assert type(strip) is int and strip == object_count_strip(op, length)
    trace = op.trace_power(length)
    assert type(trace) is int and trace == object_trace_power(op, length)


@pytest.mark.parametrize("limit", [1, 5, 64])
def test_products_split_at_the_gather_limit(monkeypatch, limit):
    # every product gathers at most GATHER_LIMIT entries at once, a row
    # with more neighbours alone: small limits cut each product into
    # many row ranges, which must not change a count (a strip on int64
    # powers summed by residues, a trace in int64, one on residues)
    op = en.TransferOperator(K3, 4, "free")
    dense = dense_matrix(op).astype(np.int64)
    x = np.arange(2 * op.size()).reshape(op.size(), 2) - op.size()
    want = (object_count_strip(op, 30), object_trace_power(op, 12),
            object_trace_power(op, 41))
    monkeypatch.setattr(en, "GATHER_LIMIT", limit)
    # one operator's gather buffer serves products of every shape and
    # dtype in turn, a smaller one after a larger
    for v in (x, x[:, 0] / 2, x[:, 1], x.astype(float)):
        assert op.apply(v).tolist() == (dense @ v).tolist()
    assert (op.count_strip(30), op.trace_power(12), op.trace_power(41)) \
        == want


WORD = 1 << 63


@pytest.mark.parametrize("width, boundary, length, trace, route", [
    (8, "periodic", 8, True, "int64"),  # count torus --n 4
    (9, "free", 9, False, "int64"),  # count hom --n 4
    (6, "periodic", 20, True, "int64 powers"),
    (6, "free", 25, True, "int64 powers"),
    (11, "free", 11, False, "int64 powers"),  # count hom --n 5: 91 bits
    (6, "free", 31, True, "residues"),
    (6, "free", 32, False, "residues"),
], ids=["torus-4", "hom-4", "orbit-periodic-trace", "int64-powers-trace",
        "int64-powers-strip", "residue-trace", "residue-strip"])
def test_each_route_against_object_oracles(width, boundary, length, trace,
                                           route):
    # the route follows from the bounds alone: check which one each case
    # takes, then its count; all but the first two sum past 2**63, on
    # residues modulo several primes.  Every trace runs on the columns of
    # the orbit representatives (the dense float64 route is gone): 4 of
    # the 66 periodic states at width 6, under the 12 symmetries of the
    # column times the 6 automorphisms of K3.
    op = en.TransferOperator(K3, width, boundary)
    steps = length if trace else length - 1
    entry = int(np.diff(op.indptr).max()) ** (steps - steps // 2)
    taken = ("int64" if count_bound(op, steps) < WORD else
             "int64 powers" if entry < WORD else "residues")
    assert taken == route
    if route != "int64":
        assert len(en._primes_past(count_bound(op, steps))) >= 2
    if trace:
        assert op.trace_power(length) == object_trace_power(op, length)
    else:
        assert op.count_strip(length) == object_count_strip(op, length)


def primes_to(n):
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def test_primes_and_crt():
    small = primes_to(math.isqrt(1 << 31))

    def is_prime(n):
        return all(n % p for p in small if p * p <= n)

    top = 1 << 31
    assert [n for n in range(top - 401, top, 2) if en._is_prime(n)] == \
        [n for n in range(top - 401, top, 2) if is_prime(n)]
    primes = en._primes_past(1 << 300)
    assert math.prod(primes[:-1]) <= 1 << 300 < math.prod(primes)
    assert list(primes) == sorted(set(primes), reverse=True)
    assert primes[0] == top - 1 and all(map(is_prime, primes))
    assert [p for p in range(primes[-1], top) if is_prime(p)][::-1] == \
        list(primes)
    for x in (0, 1, 3 ** 180, math.prod(primes) - 1):
        assert en._crt([x % p for p in primes], primes) == x
    assert en._primes_past(0) == () and en._primes_past(1) == (top - 1,)


def test_count_torus_n5_is_exact_in_a_child(tmp_path):
    # S = 1 026 states in 18 orbits, D = 123, a bound of 2**80
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(en.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "latticelab.cli", "count",
                          "torus", "--n", "5"], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert time.perf_counter() - start < 5
    assert json.loads(out)["count"] == 16178049740086515288


def test_orbit_trace_holds_no_square_matrix(monkeypatch):
    # count torus --n 5's operator (S = 1 026) with 16 columns a block:
    # the whole trace, its neighbour lists and orbits built inside it,
    # holds less than one S x S float64 matrix (the dense route held
    # 2.25 of them), and the products alone a few blocks of
    # GATHER_LIMIT entries
    op = en.TransferOperator(K3, 10, "periodic")
    size = op.size()
    monkeypatch.setattr(en, "GATHER_LIMIT", 16 * size)
    for built in (False, True):
        tracemalloc.start()
        try:
            count = op.trace_power(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 16178049740086515288
        if built:
            assert peak <= 8 * en.GATHER_LIMIT * 8
        else:
            assert peak <= size * size * 8


# ---------------------------------------------------------------------------
# orbits of the column symmetries and Aut(H)


def all_automorphisms(H):
    """Every permutation of H's vertices that keeps its matrix, loops
    included, by trying them all."""
    m = H.matrix()
    return [p for p in itertools.permutations(range(H.n))
            if (m[np.ix_(p, p)] == m).all()]


def closure(perms, n):
    """The group the permutations generate, as a set of tuples."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for p in perms:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def orbit_oracle(op):
    """The orbit partition of op's states under every column symmetry
    times every automorphism, by applying each group element to each
    state tuple: the set of orbits, as frozensets of state tuples."""
    w = op.width
    positions = [list(range(w)), list(range(w))[::-1]]
    if op.boundary == "periodic":
        positions = [[(i * s + r) % w for i in range(w)]
                     for r in range(w) for s in (1, -1)]
    auts = (all_automorphisms(op.H) if op.H.n <= 7 else
            closure(en._aut_generators(op.H.n, op.H.matrix().tobytes(),
                                       en.AUT_MAX_NODES), op.H.n))
    orbits = set()
    for s in op.state_values:
        orbits.add(frozenset(tuple(sigma[s[i]] for i in pos)
                             for pos in positions for sigma in auts))
    return orbits


def op_orbits(op):
    reps, sizes, orbit = op._orbits
    states = op.state_values
    groups = [[] for _ in reps]
    for s, i in zip(states, orbit.tolist()):
        groups[i].append(s)
    return reps, sizes, orbit, groups


def orbit_cases(limit):
    """(H, width, boundary) over GRAPHS, both boundaries and widths up to
    8 with at least one and at most limit states."""
    cases = []
    for H in GRAPHS:
        for width in range(1, 9):
            for boundary in ("free", "periodic"):
                op = outcome(en.TransferOperator, H, width, boundary)
                if not isinstance(op, tuple) and op.size() <= limit:
                    cases.append((H, width, boundary))
    return cases


ORBIT_CASES = orbit_cases(2000)


@given(st.sampled_from(ORBIT_CASES))
@settings(max_examples=60, deadline=None)
def test_orbits_are_the_group_orbits(case):
    op = en.TransferOperator(*case)
    reps, sizes, orbit, groups = op_orbits(op)
    assert int(sizes.sum()) == op.size()
    assert [len(g) for g in groups] == sizes.tolist()
    # each representative is the least state of its orbit, in order
    assert reps.tolist() == sorted(reps.tolist())
    assert [op.state_values[r] for r in reps] == [min(g) for g in groups]
    if op.size() <= 600:
        assert set(map(frozenset, groups)) == orbit_oracle(op)


@given(st.sampled_from(ORBIT_CASES))
@settings(max_examples=60, deadline=None)
def test_lumped_matrix_is_the_orbit_quotient(case):
    # T P = P B: every state of orbit i has B[i, j] neighbours in orbit j,
    # so B's row sums are T's degrees
    op = en.TransferOperator(*case)
    reps, sizes, orbit, _ = op_orbits(op)
    lumped = op._lumped
    k = len(reps)
    quotient = np.zeros((k, k), dtype=np.int64)
    rows = np.repeat(np.arange(k), np.diff(lumped.indptr))
    quotient[rows, lumped.indices] = lumped.data
    dense = dense_matrix(op).astype(np.int64)
    indicator = np.zeros((op.size(), k), dtype=np.int64)
    indicator[np.arange(op.size()), orbit] = 1
    assert (dense @ indicator == quotient[orbit]).all()
    assert (quotient.sum(axis=1)[orbit] == dense.sum(axis=1)).all()
    assert lumped.degree == op._full.degree == int(dense.sum(axis=1).max())


@given(st.sampled_from(ORBIT_CASES), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_orbit_counts_match_the_full_operator(case, length):
    # the full operator, through the object-array products it replaced,
    # is the oracle; lengths to 30 reach the residue route
    op = en.TransferOperator(*case)
    assert op.count_strip(length) == object_count_strip(op, length)
    if op.size() <= 150:
        assert op.trace_power(length) == object_trace_power(op, length)


@given(st.sampled_from(ORBIT_CASES), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_trivial_group_fallback_keeps_the_counts(case, length):
    # an Aut(H) search past its cap gives no generators: smaller orbits,
    # the same counts
    op = en.TransferOperator(*case)
    assume(op.size() <= 600)
    want = (op.count_strip(length), op.trace_power(length))
    assert en._aut_generators(case[0].n, case[0].matrix().tobytes(), 0) == ()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "AUT_MAX_NODES", 0)
        small = en.TransferOperator(*case)
        assert len(small._automorphisms()) == 0
        assert (small.count_strip(length), small.trace_power(length)) == want
        assert len(small._orbits[0]) >= len(op._orbits[0])
        assert int(small._orbits[1].sum()) == small.size()


@pytest.mark.parametrize("H, order", [
    (K3, 6), (hs.complete_graph(4), 24), (hs.cycle_graph(4), 8), (C5, 10),
    (hs.graph_preset("petersen"), 120), (hs.full_shift_graph(2), 2),
    (LOOPED_PATH, 1)])
def test_automorphism_generators(H, order):
    gens = en._aut_generators(H.n, H.matrix().tobytes(), en.AUT_MAX_NODES)
    assert len(gens) <= H.n ** 2
    group = closure(gens, H.n)
    assert len(group) == order
    if H.n <= 7:
        assert group == set(all_automorphisms(H))


# The generators each preset graph gets, pinned: the stabiliser chain keeps
# one automorphism for each point of i's orbit that the ones kept at i do
# not yet reach, so these fix which ones the transfer operators lump by
PRESET_GENERATORS = {
    "C4": [(1, 0, 3, 2), (2, 1, 0, 3), (0, 3, 2, 1)],
    "C5": [(1, 0, 4, 3, 2), (2, 1, 0, 4, 3), (0, 4, 3, 2, 1)],
    "C7": [(1, 0, 6, 5, 4, 3, 2), (2, 1, 0, 6, 5, 4, 3),
           (0, 6, 5, 4, 3, 2, 1)],
    "K3": [(1, 0, 2), (2, 0, 1), (0, 2, 1)],
    "K4": [(1, 0, 2, 3), (2, 0, 1, 3), (3, 0, 1, 2), (0, 2, 1, 3),
           (0, 3, 1, 2), (0, 1, 3, 2)],
    "K5": [(1, 0, 2, 3, 4), (2, 0, 1, 3, 4), (3, 0, 1, 2, 4),
           (4, 0, 1, 2, 3), (0, 2, 1, 3, 4), (0, 3, 1, 2, 4),
           (0, 4, 1, 2, 3), (0, 1, 3, 2, 4), (0, 1, 4, 2, 3),
           (0, 1, 2, 4, 3)],
    "full2": [(1, 0)],
    "full3": [(1, 0, 2), (2, 0, 1), (0, 2, 1)],
    "petersen": [(1, 0, 4, 3, 2, 6, 5, 9, 8, 7), (2, 1, 0, 4, 3, 7, 6, 5, 9, 8),
                 (5, 0, 1, 2, 7, 8, 4, 6, 3, 9), (0, 4, 3, 2, 1, 5, 9, 8, 7, 6),
                 (0, 5, 7, 2, 1, 4, 8, 9, 3, 6), (0, 1, 6, 8, 5, 4, 2, 9, 3, 7),
                 (0, 1, 2, 7, 5, 4, 6, 3, 9, 8)],
}


def test_automorphism_generators_of_every_preset():
    assert sorted(PRESET_GENERATORS) == sorted(hs.GRAPH_PRESETS)
    for name, want in PRESET_GENERATORS.items():
        H = hs.graph_preset(name)
        assert en._aut_generators(H.n, H.matrix().tobytes(),
                                  en.AUT_MAX_NODES) == tuple(want)


def test_orbits_shrink_the_counted_operators():
    # count torus --n 6, count torus --graph petersen --n 4 and the free
    # strip of width 10
    for H, width, boundary, orbits in [
            (K3, 12, "periodic", 48), (hs.graph_preset("petersen"), 8,
                                       "periodic", 14),
            (K3, 10, "free", 136)]:
        op = en.TransferOperator(H, width, boundary)
        assert len(op._orbits[0]) == orbits


# ---------------------------------------------------------------------------
# box counts


@pytest.mark.parametrize("n", [0, 1, 2])
def test_box_count_transfer_equals_search_k3(n):
    assert en.count_hom_box(K3, n, 2) == hs.count_hom_dfs(K3, box_F(n, 2))


def test_box_count_transfer_equals_search_c5():
    assert en.count_hom_box(C5, 1, 2) == hs.count_hom_dfs(C5, box_F(1, 2))


def test_box_count_frozen_values():
    assert en.count_hom_box(K3, 0, 2) == 3
    assert en.count_hom_box(K3, 1, 2) == 246
    assert en.count_hom_box(K3, 2, 2) == 580986


def test_box_count_transfer_goldens():
    assert en.count_hom_box(K3, 4, 2) == 93574975249028022
    assert en.count_hom_box(K3, 5, 2) == 6529777647254616589112172


def test_box_count_d1_and_d3():
    assert en.count_hom_box(K3, 2, 1) == 3 * 2 ** 4
    assert en.count_hom_box(K3, 0, 3) == 3
    # 2x2x2 workaround through the general search is checked in test_homshift


def test_box_count_rejects_bad_dimension():
    with pytest.raises(ValueError):
        en.count_hom_box(K3, 1, 4)


# ---------------------------------------------------------------------------
# torus counts


def test_torus_count_matches_oracle():
    assert en.count_hom_torus(K3, 1) == torus_oracle(K3, 2) == 18
    assert en.count_hom_torus(K3, 2) == torus_oracle(K3, 4) == 2970
    assert en.count_hom_torus(C5, 1) == torus_oracle(C5, 2)


def test_torus_count_golden():
    assert en.count_hom_torus(K3, 4) == 2901094068042


def test_torus_count_d1_is_cycle_count():
    # homomorphisms of the 2n-cycle: trace of A^(2n)
    assert en.count_hom_torus(K3, 1, d=1) == 6
    assert en.count_hom_torus(K3, 2, d=1) == 18  # closed walks of length 4


def test_torus_needs_positive_n():
    with pytest.raises(ValueError):
        en.count_hom_torus(K3, 0)


# ---------------------------------------------------------------------------
# dimer counts


def profile_dimer_count(m, n):
    """The column-profile DP count_dimer_tilings_dp used to be: the state is
    the set of rows protruding into the next column."""
    full = (1 << m) - 1

    def even_runs(mask):
        run = 0
        for r in range(m + 1):
            if r < m and mask >> r & 1:
                run += 1
            elif run % 2:
                return False
            else:
                run = 0
        return True

    dp = {0: 1}
    for _col in range(n):
        nxt = {}
        for s_in, ways in dp.items():
            room = full & ~s_in
            for s_out in range(full + 1):
                if s_out & ~room == 0 and even_runs(room & ~s_out):
                    nxt[s_out] = nxt.get(s_out, 0) + ways
        dp = nxt
    return dp.get(0, 0)


# exact m x n domino tilings (OEIS A004003 for the squares)
DIMER_GOLDENS = {(8, 16): 540061286536921, (12, 12): 53060477521960000,
                 (14, 14): 112202208776036178000000,
                 (16, 16): 2444888770250892795802079170816}


def test_dimer_goldens():
    assert en.count_dimer_tilings_kasteleyn(2, 2) == 2
    assert en.count_dimer_tilings_kasteleyn(2, 3) == 3
    assert en.count_dimer_tilings_kasteleyn(4, 4) == 36
    assert en.count_dimer_tilings_kasteleyn(8, 8) == 12988816
    for (m, n), want in DIMER_GOLDENS.items():
        assert en.count_dimer_tilings_kasteleyn(m, n) == want
        assert en.count_dimer_tilings_kasteleyn(n, m) == want
    assert en.count_dimer_tilings_dp(8, 16) == DIMER_GOLDENS[(8, 16)]
    assert en.count_dimer_tilings_dp(16, 8) == DIMER_GOLDENS[(8, 16)]


def test_dimer_routes_match_profile_oracle():
    for m in range(1, 9):
        for n in range(1, 9):
            want = profile_dimer_count(m, n)
            assert en.count_dimer_tilings_kasteleyn(m, n) == want, (m, n)
            assert en.count_dimer_tilings_dp(m, n) == want, (m, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_dimer_resultant_matches_frontier_count(m, n):
    assert (en.count_dimer_tilings_kasteleyn(m, n)
            == tl.count_tilings(tl.dominoes(), rectangle((m, n))))


def _bareiss_abs_det(rows):
    """|det| of a square integer matrix, fraction-free (Bareiss 1968): every
    division is exact, so the entries stay Python ints.  Row swaps only
    flip the sign, which is dropped.  The dimer route used to take its
    resultant this way, in O(N^3) steps."""
    a = [list(row) for row in rows]
    size = len(a)
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(a[-1][-1])


def sylvester(f, g):
    """The Sylvester matrix of f and g, coefficients highest first."""
    p, q = len(f) - 1, len(g) - 1
    return ([[0] * i + f + [0] * (q - 1 - i) for i in range(q)]
            + [[0] * i + g + [0] * (p - 1 - i) for i in range(p)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20))
def test_subresultant_matches_bareiss(m, n):
    f = en._cosine_polynomial(m)
    g = [c * (-1) ** i for i, c in enumerate(en._cosine_polynomial(n))]
    assert en.count_dimer_tilings_kasteleyn(m, n) == \
        _bareiss_abs_det(sylvester(f, g))


polynomials = st.integers(1, 7).flatmap(lambda deg: st.tuples(
    st.sampled_from([1, -1, 2, -3, 5]),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 7]),
             min_size=deg, max_size=deg)).map(lambda t: [t[0]] + t[1]))


@settings(max_examples=300, deadline=None)
@given(polynomials, polynomials)
def test_resultant_matches_bareiss_on_any_polynomials(f, g):
    # zero-heavy coefficients give degree gaps above one in the remainder
    # sequence, common roots and non-monic leading terms
    assert en._abs_resultant(f, g) == _bareiss_abs_det(sylvester(f, g))


def test_square_dimer_count_prints_in_full(capsys):
    # a 2n x 2n square has 2**n times an odd square of tilings (Pachter
    # 1997); at 200 x 200 that is 5 040 digits, past Python's default
    # int -> str limit, which must hold again afterwards
    limit = sys.get_int_max_str_digits()
    assert main(["count", "dimers", "--dims", "200x200"]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = capsys.readouterr().out
    digits = text.split('"count":')[1].split(",")[0]
    assert len(digits) == 5040
    sys.set_int_max_str_digits(0)
    try:
        odd, rest = divmod(int(digits), 1 << 100)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rest == 0 and odd % 2 == 1 and math.isqrt(odd) ** 2 == odd


def test_dimer_units_bound_the_resultant():
    # deg f * deg g * ceil(B / 64) units, B = m deg g + n deg f
    assert en.dimer_units(200, 200) == 100 * 100 * 625 == 6_250_000
    assert en.dimer_units(300, 300) == 150 * 150 * 1407 == 31_657_500
    for m in range(1, 30):
        assert len(en._cosine_polynomial(m)) - 1 == (m + 1) // 2
    # the coefficient sums behind the bound, and the resultant, the last
    # subresultant, within B bits
    for m, n in [(7, 12), (16, 16), (31, 9)]:
        f = en._cosine_polynomial(m)
        g = [c * (-1) ** i for i, c in enumerate(en._cosine_polynomial(n))]
        assert sum(map(abs, f)) < 2 ** m and sum(map(abs, g)) < 2 ** n
        bits = m * (len(g) - 1) + n * (len(f) - 1)
        assert en._abs_resultant(f, g).bit_length() <= bits


def test_dimer_counts_are_charged_before_they_run(capsys):
    # 300 x 300 needs 31 657 500 units: past the default budget it stops
    # at once with one line; the charge is exact
    start = time.perf_counter()
    assert main(["count", "dimers", "--dims", "300x300"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    units = en.dimer_units(40, 40)
    assert main(["count", "dimers", "--dims", "40x40"]) == 0
    want = capsys.readouterr().out
    assert main(["count", "dimers", "--dims", "40x40",
                 "--budget", str(units)]) == 0
    assert capsys.readouterr().out == want
    assert main(["count", "dimers", "--dims", "40x40",
                 "--budget", str(units - 1)]) == 3
    assert capsys.readouterr().out == ""
    # the table is charged as a whole, and prints nothing when it stops
    table = sum(en.dimer_units(m, n) for m in range(1, 5) for n in range(m, 5))
    for budget, code in ((table, 0), (table - 1, 3)):
        assert main(["entropy", "dimers", "--max", "4",
                     "--budget", str(budget)]) == code
        out = capsys.readouterr().out
        assert (out.count("\n") == 12) if code == 0 else out == ""


def test_dimer_table_builds_each_polynomial_once(monkeypatch):
    built = []
    cosine = en._cosine_polynomial
    monkeypatch.setattr(en, "_cosine_polynomial",
                        lambda m: built.append(m) or cosine(m))
    table = list(en.dimer_table(9))
    assert sorted(built) == list(range(1, 10))
    monkeypatch.undo()
    assert table == [(m, n, en.count_dimer_tilings_kasteleyn(m, n))
                     for m in range(1, 10) for n in range(m, 10)]


def test_dimer_table_runs_out_where_the_entry_loop_did():
    # each entry is charged before its resultant, in the order of the
    # table, as one count_dimer_tilings_kasteleyn call per entry was
    entries = [(m, n) for m in range(1, 7) for n in range(m, 7)]
    for budget in (0, 1, 20, 57, 85):  # the whole table takes 86 units
        counter, done = BudgetCounter(budget), []
        with pytest.raises(BudgetError):
            for m, n in entries:
                en.count_dimer_tilings_kasteleyn(m, n, counter)
                done.append((m, n))
        counter, table = BudgetCounter(budget), []
        with pytest.raises(BudgetError):
            for m, n, _ in en.dimer_table(6, counter):
                table.append((m, n))
        assert table == done and counter.nodes > budget


def leibniz_det(a):
    total = 0
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(a))
                         for j in range(i + 1, len(a)))
        total += (-1) ** inversions * math.prod(a[i][perm[i]]
                                                for i in range(len(a)))
    return total


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda size: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
             min_size=size, max_size=size), min_size=size, max_size=size)))
def test_bareiss_matches_leibniz(a):
    # zero-heavy entries force row swaps and singular matrices
    assert _bareiss_abs_det(a) == abs(leibniz_det(a))


def test_dimer_odd_area_is_zero():
    assert en.count_dimer_tilings_kasteleyn(3, 3) == 0
    assert en.count_dimer_tilings_dp(3, 5) == 0


def test_dimer_routes_agree_up_to_six():
    for m in range(1, 7):
        for n in range(1, 7):
            kd = en.count_dimer_tilings_kasteleyn(m, n)
            dp = en.count_dimer_tilings_dp(m, n)
            assert kd == dp, (m, n)
            bt = tl.count_tilings(tl.dominoes(), rectangle((m, n)))
            assert bt == kd, (m, n)


def test_dimer_dp_transpose_symmetry():
    assert en.count_dimer_tilings_dp(4, 6) == en.count_dimer_tilings_dp(6, 4)


def test_dimer_rejects_nonpositive():
    with pytest.raises(ValueError):
        en.count_dimer_tilings_kasteleyn(0, 4)
    with pytest.raises(ValueError):
        en.count_dimer_tilings_dp(-1, 4)
    assert en.count_dimer_tilings_dp(0, 4) == en.count_dimer_tilings_dp(3, 0) == 1


# ---------------------------------------------------------------------------
# strip entropy


def test_strip_entropy_closed_forms():
    assert en.strip_entropy(K3, 1, "free") == pytest.approx(math.log(2), abs=1e-9)
    # periodic width 2: six column states, every pair compatible row-wise
    # except equal-in-a-row ones; dominant eigenvalue 3
    assert en.strip_entropy(K3, 2, "periodic") == pytest.approx(math.log(3) / 2,
                                                                abs=1e-9)


def test_strip_entropy_even_periodic_monotone_to_limit():
    limit = 1.5 * math.log(4 / 3)
    values = [en.strip_entropy(K3, w, "periodic") for w in (2, 4, 6, 8)]
    for a, b in zip(values, values[1:]):
        assert b < a
    for v in values:
        assert v > limit
    assert values[-1] == pytest.approx(limit, abs=0.02)


def test_strip_entropy_bounds():
    for w, boundary in [(1, "free"), (3, "free"), (4, "periodic")]:
        h = en.strip_entropy(K3, w, boundary)
        assert 0.0 <= h <= math.log(3)


@given(st.sampled_from(GRAPHS), st.integers(1, 6),
       st.sampled_from(["free", "periodic"]))
@settings(max_examples=80, deadline=None)
def test_strip_entropy_matches_eigvalsh(H, width, boundary):
    op = outcome(en.TransferOperator, H, width, boundary)
    assume(not isinstance(op, tuple) and op.size() <= 3000)
    lam = np.linalg.eigvalsh(dense_matrix(op).astype(np.float64))[-1]
    assert en.strip_entropy(H, width, boundary) == pytest.approx(
        math.log(lam) / width, abs=1e-9)


def full_strip_entropy(H, width, boundary):
    """strip_entropy's power iteration on T's full neighbour lists, through
    TransferOperator.apply: the state route that the orbit route
    replaced."""
    op = en.TransferOperator(H, width, boundary)
    if not op._full.degree:
        raise ArithmeticError("dominant eigenvalue not positive")
    vec = np.full(op.size(), 1.0 / math.sqrt(op.size()))
    step = op.apply(vec) + vec
    lam = 0.0
    for _ in range(en.POWER_MAX_ITER):
        vec = step / float(np.linalg.norm(step))
        step = op.apply(vec) + vec
        lam, last = float(vec @ step), lam
        if abs(lam - last) <= en.POWER_TOL * max(1.0, abs(lam)):
            break
    return math.log(lam - 1.0) / width


@given(st.sampled_from(GRAPHS + [hs.TargetGraph(["0", "1"], [])]),
       st.integers(1, 8), st.sampled_from(["free", "periodic"]))
@settings(max_examples=120, deadline=None)
def test_orbit_entropy_matches_the_full_list_iteration(H, width, boundary):
    op = outcome(en.TransferOperator, H, width, boundary)
    # K4 and petersen at width 8 have 9.9 M and 2.3 M neighbour entries
    assume(isinstance(op, tuple) or op.size() <= 8000)
    want = outcome(full_strip_entropy, H, width, boundary)
    got = outcome(en.strip_entropy, H, width, boundary)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got == pytest.approx(want, rel=1e-12)
    assert "%.12g" % got == "%.12g" % want


@pytest.mark.parametrize("H, width, boundary", [
    (K3, 8, "free"), (K3, 8, "periodic"), (hs.graph_preset("petersen"), 5,
                                           "free"),
    (LOOPED_PATH, 4, "periodic")],
    ids=["K3-8-free", "K3-8-periodic", "petersen-5-free", "looped-4-periodic"])
def test_orbit_entropy_asks_for_the_representatives_only(monkeypatch, H,
                                                         width, boundary):
    asked = []
    compatible = en._compatible_columns

    def spy(columns, lefts):
        asked.append(lefts.copy())
        return compatible(columns, lefts)

    def no_full(op):
        raise AssertionError("full neighbour lists built")

    monkeypatch.setattr(en, "_compatible_columns", spy)
    monkeypatch.setattr(en.TransferOperator, "_full", property(no_full))
    h = en.strip_entropy(H, width, boundary)
    monkeypatch.undo()
    assert "%.12g" % h == "%.12g" % full_strip_entropy(H, width, boundary)
    op = en.TransferOperator(H, width, boundary)
    reps = op._orbits[0]
    assert len(reps) < op.size()
    assert len(asked) == 1 and np.array_equal(asked[0], op.states[reps])


def test_walk_total_stops_past_its_cap():
    K5 = hs.complete_graph(5)
    ones = [1] * 5
    # 5 * 4**t walks of t steps: past 1 000 from t = 4 on
    assert en._walk_total(K5.adj, ones, 3, 1000) == 320
    assert en._walk_total(K5.adj, ones, 4, 1000) == 1280  # on the last step
    assert en._walk_total(K5.adj, ones, 5, 1000) is None
    assert en._walk_total(K5.adj, ones, 10 ** 9, 1000) is None
    # no step taken: the count is exact, past the cap or not
    edge = hs.TargetGraph(["0", "1", "2"], [(0, 1)])
    assert en._walk_total(edge.adj, [1] * 3, 0, 2) == 3
    assert en._walk_total(edge.adj, [1] * 3, 5, 1) is None
    with pytest.raises(ValueError, match="too large: more than 200000 "
                                         "states$"):
        en.TransferOperator(K3, 10 ** 6)
    with pytest.raises(ValueError, match="too large: more than 33554432 "
                                         "compatible column pairs$"):
        en.TransferOperator.check(K5, 8)
    en.TransferOperator.check(K3, 15, "periodic")


def fresh(H):
    """A new graph equal to H, sharing nothing kept on H."""
    return hs.TargetGraph(H.labels, [(H.labels[u], H.labels[v])
                                     for u, v in H.ordered_edges()])


def sparse_arrays(matrix):
    return [a.tolist() for a in (matrix.indptr, matrix.indices,
                                 matrix.data) if a is not None]


def transfer_results(H, width, boundary):
    """What the operators of one width give: B's and T's CSR arrays, a
    strip count, a trace and the printed strip entropy, or the error."""
    op = outcome(en.TransferOperator, H, width, boundary)
    if isinstance(op, tuple) or op.size() > 800:
        return op if isinstance(op, tuple) else op.size()
    return (op.size(), sparse_arrays(op._lumped), sparse_arrays(op._full),
            op.count_strip(7), op.trace_power(6),
            outcome(lambda: "%.12g" % en.strip_entropy(H, width, boundary)))


@given(st.sampled_from(GRAPHS), st.sampled_from(["free", "periodic"]),
       st.lists(st.one_of(st.integers(1, 7), st.just(40)), min_size=2,
                max_size=6),
       st.sampled_from(["drawn", "ascending", "descending"]))
@settings(max_examples=60, deadline=None)
def test_operators_on_a_shared_graph_match_fresh_graphs(H, boundary, widths,
                                                        order):
    # one graph object for the whole sequence, as a command holds one:
    # its column tree, tables and walk counts are reused, grown, or asked
    # for a width past a cap (40), and every result equals the one a
    # graph of its own gives
    if order != "drawn":
        widths = sorted(widths, reverse=order == "descending")
    shared = fresh(H)
    for width in widths:
        assert transfer_results(shared, width, boundary) == \
            transfer_results(fresh(H), width, boundary)


@pytest.mark.parametrize("name", ["K3", "C5", "petersen", "full2"])
@pytest.mark.parametrize("cap", ["MAX_TRANSFER_STATES", "MAX_TRANSFER_PAIRS"])
def test_a_checked_graph_meets_lowered_caps(monkeypatch, name, cap):
    # check keeps counts, not verdicts: a graph that passed at a width
    # gets the error a fresh graph gets once a cap is lowered, worded the
    # same, whether the count stopped early or was taken to the end
    H = hs.graph_preset(name)
    check = en.TransferOperator.check
    columns = en._Columns(hs.graph_preset(name))
    walks = columns.states if cap == "MAX_TRANSFER_STATES" else columns.pairs
    # (C5 and petersen have no periodic columns of width 3, which check
    # refuses at any cap: width 4 has some on every graph here)
    for width, boundary in ((5, "free"), (4, "periodic"), (4, "free")):
        check(H, width, boundary)
        totals = [walks.total(s, math.inf) for s in (width - 2, width - 1)]
        limits = sorted({max(0, t + e) for t in totals for e in (-1, 0, 1)})
        raised = 0
        for limit in limits:
            monkeypatch.setattr(en, cap, limit)
            got = outcome(check, H, width, boundary)
            assert got == outcome(check, hs.graph_preset(name), width,
                                  boundary)
            raised += got is not None
            for bad in ((width, "wrapped"), (0, boundary)):
                assert outcome(check, H, *bad) == \
                    outcome(check, hs.graph_preset(name), *bad)
        assert raised
        monkeypatch.undo()
        assert check(H, width, boundary) is None


@pytest.mark.parametrize("H", GRAPHS, ids=["K3", "K4", "C4", "C5", "petersen",
                                        "full2", "looped"])
def test_check_refuses_a_periodic_width_without_states(H):
    # a periodic width has trace(A^w) states, the closed walks of length
    # w; check refuses one with none, with the constructor's old message,
    # and passes every width the list operator finds states at
    A = H.matrix().astype(object)
    for width in range(1, 9):
        closed = np.trace(np.linalg.matrix_power(A, width))
        assert closed == len(oracle_column_states(H, width, True))
        got = outcome(en.TransferOperator.check, fresh(H), width, "periodic")
        if closed:
            assert got is None
            op = en.TransferOperator(fresh(H), width, "periodic")
            assert op.size() == closed
        else:
            assert got == (ValueError, "no valid column states for width "
                                       "%d (periodic)" % width)


def test_strips_refuse_a_stateless_periodic_width_before_any_row(
        monkeypatch, capsys):
    # C5 has no periodic columns of width 3: the command refuses it
    # before the wider widths before it are computed
    def no_rows(*args, **kwargs):
        raise AssertionError("a row computed before the widths were checked")

    monkeypatch.setattr(en, "strip_entropy", no_rows)
    assert main(["entropy", "strips", "--graph", "C5", "--boundary",
                 "periodic", "--widths", "14,12,10,8,6,4,3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: no valid column states for width 3 " \
                  "(periodic)\n"


@pytest.mark.parametrize("width, boundary", [(6, "free"), (7, "periodic"),
                                             (9, "free")])
def test_lumped_blocks_give_the_one_block_matrix(monkeypatch, width,
                                                 boundary):
    # at a small GATHER_LIMIT B is merged from many blocks of
    # representatives, and its CSR arrays are the one-block ones
    want = sparse_arrays(en.TransferOperator(K3, width, boundary)._lumped)
    for limit in (1, 400, 2000):
        monkeypatch.setattr(en, "GATHER_LIMIT", limit)
        op = en.TransferOperator(fresh(K3), width, boundary)
        assert sparse_arrays(op._lumped) == want
        assert op._lumped.degree == op._full.degree


def test_a_dropped_graph_is_collected():
    # what the transfer operators, the row checks and the extensions keep
    # of a graph is kept on the graph, so nothing keeps a dropped one
    H = hs.complete_graph(3)
    assert en.count_hom_box(H, 2, 2) == 580986
    assert "%.12g" % en.strip_entropy(H, 4, "periodic") == "0.462989385247"
    rows = hs.checkerboard_set(H, 0, 1, 1, 2).rows
    assert hs.hom_rows(H, box_F(1, 2), rows).all()
    big, out = hs.path_extend_rows(H, box_F(1, 2), rows, (0, 1), (1, 2), 5)
    assert hs.hom_rows(H, big, out).all()
    hats = hs.hat_set(H, 1, 2)
    big, _, out = hs.hat_extend_rows(H, hats.region, hats.rows, 4)
    assert hs.hom_rows(H, big, out).all()
    ref = weakref.ref(H)
    del H
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv, rows", [
    (["--widths", "1..10"],
     ["1,0.69314718056", "2,0.549306144334", "3,0.505887698228",
      "4,0.485474125155", "5,0.473728587897", "6,0.466132654048",
      "7,0.460830690774", "8,0.456925548202", "9,0.453932190993",
      "10,0.451566073436"]),
    (["--widths", "2,4,6,8,10", "--boundary", "periodic"],
     ["2,0.549306144334", "4,0.462989385247", "6,0.4457653504",
      "8,0.439601098213", "10,0.436715236659"])], ids=["free", "periodic"])
def test_strip_entropy_table_bytes(capsys, argv, rows):
    """The benchmark's strip tables, byte for byte."""
    assert main(["entropy", "strips"] + argv) == 0
    want = ["# seed=0", "width,entropy"] + rows
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_strip_entropy_of_a_regular_operator_is_exact(capsys):
    # one edge: every column has one neighbour, so T is a permutation and
    # its entropy is 0, not the power iteration's last bit of noise
    edge = hs.TargetGraph(["0", "1"], [(0, 1)])
    for width in (1, 2, 3, 8, 4000):
        assert en.strip_entropy(edge, width) == 0.0
    # full2: T is all ones, 2**w-regular
    for width in (1, 4):
        assert en.strip_entropy(hs.full_shift_graph(2), width) == \
            math.log(2 ** width) / width
    # K3 free, width 2: each column (a, b) continues to the (c, d) with
    # c != a, d != b, c != d, three of them
    assert en.strip_entropy(K3, 2) == math.log(3) / 2


def test_strip_entropy_no_states_error():
    with pytest.raises(ValueError):
        en.strip_entropy(K3, 1, "periodic")  # needs a self-loop
    assert en.strip_entropy(hs.full_shift_graph(2), 1, "periodic") == \
        pytest.approx(math.log(2), abs=1e-9)
    # no edges: T = 0 has no entropy
    with pytest.raises(ArithmeticError, match="not positive"):
        en.strip_entropy(hs.TargetGraph(["0", "1"], []), 1)


# ---------------------------------------------------------------------------
# ratio report


def test_report_values_and_csv():
    rep = en.entropy_ratio_report(K3, 2)
    assert [r["n"] for r in rep.rows] == [1, 2]
    r1, r2 = rep.rows
    assert r1["count_box"] == 246 and r2["count_box"] == 580986
    assert r1["count_hat"] == 18 and r2["count_hat"] == 492
    assert r1["count_tilde"] == 1 and r2["count_tilde"] == 2
    assert r1["count_torus"] == 18 and r2["count_torus"] == 2970
    for r in rep.rows:
        assert r["count_hat"] <= r["count_box"]  # ratio <= 1
        assert 0 <= r["h_box"] <= math.log(3)
        assert math.isfinite(r["c_hat"])
    assert r2["c_hat"] <= 3 * r1["c_hat"]
    assert r1["c_hat"] <= 3 * r2["c_hat"]
    csv = rep.to_csv()
    assert csv.splitlines()[0] == ("n,|F_n|,count_box,count_hat,count_tilde,"
                                   "count_torus,h_box,h_hat,c_hat,c_torus")
    assert len(csv.splitlines()) == 3


def test_report_hat_count_matches_filter_oracle():
    # the periodic-shell census at n=2 agrees with filtering the full census,
    # by one hat_rows mask, which in_hat is on one row
    full = hs.enumerate_hom(K3, box_F(2, 2))
    hat = hs.hat_rows(K3, full.region, full.rows)
    for i in itertools.chain(range(200), range(len(full) - 200, len(full))):
        assert hs.in_hat(K3, full[i]) == hat[i]
    assert int(hat.sum()) == 492


def test_report_deterministic():
    a = en.entropy_ratio_report(K3, 1).to_csv()
    b = en.entropy_ratio_report(K3, 1).to_csv()
    assert a == b
