"""Acceptance gate: twelve checks with stated tolerances and time limits.

Each test prints one `criterion NN PASS` line (visible under `pytest -s`
or in the captured output) and fails loudly otherwise.
"""

import itertools
import math
import time

from latticelab import lattice
from latticelab.lattice import box_F, box_B, rectangle
from latticelab import homshift as hs
from latticelab import tiling as tl
from latticelab import entropy as en
from latticelab import height as ht
from latticelab.cli import main

K3 = hs.complete_graph(3)
C5 = hs.cycle_graph(5)


def _done(num, limit, t0, label):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, ("criterion %d took %.1fs, limit %ds"
                             % (num, elapsed, limit))
    print("criterion %2d PASS (%6.1fs): %s" % (num, elapsed, label))


def all_tilings(F, region):
    """Every perfect tiling, by first-uncovered-cell backtracking."""
    sites = region.sites
    out = []

    def rec(placements, covered):
        target = None
        for s in sites:
            if s not in covered:
                target = s
                break
        if target is None:
            out.append(tl.Tiling(F, region, placements))
            return
        for idx, proto in enumerate(F.protos):
            offset = tuple(target[t] - 1 for t in range(F.d))
            cells = [tuple(offset[t] + 1 + rel[t] for t in range(F.d))
                     for rel in itertools.product(*(range(c) for c in proto))]
            if all(c in region and c not in covered for c in cells):
                rec(placements + [(idx, offset)], covered | set(cells))

    rec([], frozenset())
    return out


def test_criterion_01_dimer_goldens():
    t0 = time.monotonic()
    dom = tl.dominoes()
    for dims, want in [((2, 2), 2), ((2, 3), 3), ((4, 4), 36)]:
        assert tl.count_tilings(dom, rectangle(dims)) == want
    assert en.count_dimer_tilings_kasteleyn(8, 8) == 12988816
    for m in range(1, 7):
        for n in range(m, 7):
            if (m * n) % 2:
                continue
            brute = tl.count_tilings(dom, rectangle((m, n)))
            assert brute == en.count_dimer_tilings_kasteleyn(m, n)
            assert brute == en.count_dimer_tilings_dp(m, n)
    _done(1, 10, t0, "dimer goldens 2/3/36 and 12988816; three routes "
                     "agree up to 6x6")


def test_criterion_02_hom_count_oracle():
    t0 = time.monotonic()
    values = {}
    for n in (0, 1, 2):
        transfer = en.count_hom_box(K3, n, 2)
        brute = hs.count_hom_dfs(K3, box_F(n, 2))
        assert transfer == brute
        values[n] = transfer
    assert values[0] == 3 and values[1] == 246 and values[2] == 580986
    _done(2, 60, t0, "transfer matrix equals brute force on F_0..F_2 "
                     "(3 / 246 / 580986)")


def test_criterion_03_strip_entropy_convergence():
    t0 = time.monotonic()
    limit_value = 1.5 * math.log(4.0 / 3.0)
    h = {w: en.strip_entropy(K3, w, boundary="periodic")
         for w in (2, 4, 6, 8)}
    assert h[2] > h[4] > h[6] > h[8] > limit_value
    assert h[8] - limit_value < 0.02
    _done(3, 300, t0, "periodic strips (even widths) decrease to "
                      "1.5*ln(4/3); width 8 within 0.02")


def test_criterion_04_lemma_postcondition_suite():
    t0 = time.monotonic()
    for H in (K3, C5):
        N = hs.min_universal_path_length(H)
        targets = H.ordered_edges()
        for d in (1, 2):
            fam = hs.checkerboard_set(H, 0, 1, 1, d)
            assert len(fam) > 0
            for a in fam:
                for target in targets:
                    ext = hs.path_extend(H, a, (0, 1), target, N + 1)
                    assert ext.region == box_F(1 + N + 1, d)
                    assert hs.is_hom(H, ext)
                    assert hs.in_checkerboard(H, ext, *target)
                    assert ext.restrict(box_F(1, d)) == a
            for a in hs.enumerate_hom(H, box_F(1, d)):
                emb = hs.embed_in_marker(H, a, (0, 1), N + d)
                assert emb.region == box_F(2 * d + N + d, d)
                assert hs.is_hom(H, emb)
                assert hs.in_checkerboard(H, emb, 0, 1)
                assert emb.restrict(box_F(1, d)) == a
            n_fill = N + 1 + 2
            origin = (0,) * d
            for b in fam:
                w = hs.flexible_fill(H, (0, 1), n_fill, [origin],
                                     {origin: b}, (0, 1))
                assert hs.is_hom(H, w)
                assert hs.in_checkerboard(H, w, 0, 1)
                assert w.restrict(box_F(1, d)) == b
            empty = hs.flexible_fill(H, (0, 1), n_fill, [], {}, (0, 1), d=d)
            assert empty == hs.pure_checkerboard(H, 0, 1, n_fill, d)
            for a in hs.hat_set(H, 1, d):
                edge, q = hs.hat_extend(H, a, 2 * d)
                assert q.region == box_F(1 + 2 * d, d)
                assert hs.is_hom(H, q)
                assert hs.in_checkerboard(H, q, *edge)
                assert q.restrict(box_F(1, d)) == a
    _done(4, 600, t0, "path/embed/fill/hat extensions pass validator, "
                      "family membership, restriction identity "
                      "(K3 and C5, d=1,2)")


def test_criterion_05_marker_spacing():
    t0 = time.monotonic()
    for n in (1, 2):
        fam = hs.marker_set(K3, 0, 1, 2, n - 1, 2)
        assert len(fam) > 0
        assert hs.verify_marker_spacing(fam, n - 1) is None
    _done(5, 300, t0, "marker families refute all shifted overlaps "
                      "(K3, d=2, n<=2)")


def test_criterion_06_tiling_lemma_suite():
    t0 = time.monotonic()
    # complement partitions: exact cover plus the slab side condition
    cases = 0
    for d in (1, 2, 3):
        for M in (2, 3):
            for n in (1, 2):
                for n_prime in (2, 3):
                    big = (n + n_prime) * M
                    for N in (1, 2, M):
                        lo = N
                        hi = big - n * M - N
                        if hi < lo:
                            continue
                        offsets = {(lo,) * d, (hi,) * d,
                                   tuple(lo if t % 2 else hi
                                         for t in range(d))}
                        for offset in sorted(offsets):
                            pieces = tl.partition_complement(
                                n, n_prime, N, M, offset)
                            whole = set(box_B(big, d).sites)
                            inner = set(
                                tuple(offset[t] + 1 + rel[t]
                                      for t in range(d))
                                for rel in itertools.product(
                                    range(n * M), repeat=d))
                            union = []
                            for r in pieces:
                                union.extend(r.sites)
                                b_lo, b_hi = r.bounds()
                                dims = tuple(b_hi[t] - b_lo[t] + 1
                                             for t in range(d))
                                assert any(
                                    dims[a] >= N
                                    and all(dims[t] % M == 0
                                            for t in range(d) if t != a)
                                    for a in range(d))
                            assert len(union) == len(set(union))
                            assert set(union) == whole - inner
                            cases += 1
    assert cases >= 100
    # rectangle tiling over every certified shape, plus refusals otherwise
    bars23 = tl.TileSet([(2,), (3,)])
    for F, sides in [(tl.dominoes(), 2), (bars23, 1)]:
        M = F.M
        for dims in itertools.product(range(1, 13), repeat=sides):
            cond1 = all(c % M == 0 for c in dims)
            cond2 = any(dims[a] >= M
                        and all(dims[t] % M == 0
                                for t in range(sides) if t != a)
                        for a in range(sides))
            if cond1 or cond2:
                t = tl.tile_rectangle(F, dims)
                t.validate()
            else:
                try:
                    tl.tile_rectangle(F, dims)
                except ValueError:
                    pass
                else:
                    raise AssertionError("uncertified %r tiled" % (dims,))
    # grid variants meet the |F|^(vol / M^d) bound exactly
    for F, dims_list in [(tl.dominoes(), [(4, 4), (4, 8), (8, 8)]),
                         (bars23, [(6,), (12,)])]:
        for dims in dims_list:
            vol = 1
            for c in dims:
                vol *= c
            bound = len(F.protos) ** (vol // F.M ** F.d)
            variants = list(tl.grid_tiling_variants(F, dims))
            assert len(variants) == bound
            assert len(set(v for v in variants)) == bound
            variants[0].validate()
            variants[-1].validate()
    _done(6, 300, t0, "complement partitions exact-cover with side "
                      "condition (%d cases); certified rectangles tile; "
                      "variant counts meet the bound" % cases)


def test_criterion_07_frobenius_oracle():
    t0 = time.monotonic()
    for lengths in [(2, 3), (3, 5), (2, 5)]:
        best = {0: 0}
        frontier = [0]
        while frontier:
            new = []
            for v in frontier:
                for a in lengths:
                    w = v + a
                    if w <= 200 and w not in best:
                        best[w] = best[v] + 1
                        new.append(w)
            frontier = new
        for L in range(1, 201):
            got = tl.frobenius_decompose(list(lengths), L)
            if L in best:
                assert got is not None
                assert sum(a * c for a, c in got.items()) == L
                assert sum(got.values()) == best[L]
            else:
                assert got is None
            if L >= lengths[0] * lengths[1]:
                assert got is not None
    _done(7, 1, t0, "decomposition matches exhaustive search, L <= 200, "
                    "three length sets")


def test_criterion_08_flexible_tile_fill():
    t0 = time.monotonic()
    dom = tl.dominoes()
    M = dom.M
    blocks = all_tilings(dom, box_B(M, 2))
    assert len(blocks) == 36
    n, k = 3, 1
    admissible = [i for i in itertools.product(
        range(0, n * M + 1, M), repeat=2)
        if all(i[t] >= M and i[t] + k * M + M <= n * M for t in range(2))]
    assert admissible == [(M, M)]
    for i in admissible:
        for w in blocks:
            t = tl.flexible_tile_fill(dom, n, k, [i], {i: w})
            t.validate()
            assert t.restrict_equals(i, w)
    _done(8, 60, t0, "every aligned single-block fill validates and "
                     "restricts to its block (36 blocks)")


def test_criterion_09_height_suite():
    t0 = time.monotonic()
    box2 = box_F(2, 2)
    homs = hs.enumerate_hom(K3, box2)
    assert len(homs) == 580986
    origin = (0, 0)
    # the batch calls, a block of rows at a time: every coloring lifts
    block = hs.ENCODE_BLOCK
    lifted = 0
    for start in range(0, len(homs), block):
        lifted += len(ht.lift_rows(box2, origin,
                                   homs.rows[start:start + block]))
    assert lifted == 580986
    box5 = box_F(5, 2)
    first_seed, samples = 1000, 10_000
    checked = 0
    for start in range(first_seed, first_seed + samples, block):
        seeds = range(start, min(start + block, first_seed + samples))
        heights = ht.lift_rows(box5, origin, ht.sample_rows(box5, seeds))
        assert ht.lipschitz_rows(box5, origin, heights) is None
        checked += len(heights)
    assert checked == samples
    for n in range(1, 9):
        box = box_F(n, 2)
        gap = ht.quasiflat_gap(
            [ht.striped_coloring(box), ht.checker_coloring(box)], list(box))
        assert gap == 2 * n
        assert gap >= n
    _done(9, 120, t0, "cocycle consistent on all 580986 colorings of F_2; "
                      "Lipschitz on 10^4 samples of F_5 (seeds %d..%d); "
                      "gap 2n >= n for n <= 8"
                      % (first_seed, first_seed + samples - 1))


def test_criterion_10_ufp_window():
    t0 = time.monotonic()
    first = ht.ufp_window_check(K3, 1, 3)
    second = ht.ufp_window_check(K3, 1, 3)
    assert first is not None
    assert (first[0].values, first[1].values) == (second[0].values,
                                                  second[1].values)
    assert first[0].values == ht.striped_coloring(box_F(3, 2)).values
    full2 = hs.full_shift_graph(2)
    assert ht.ufp_window_check(full2, 1, 1, mode="exhaustive", d=1) is None
    assert ht.ufp_window_check(full2, 0, 1, mode="exhaustive", d=1) is None
    _done(10, 300, t0, "margin-1 window refuted for K3 (striped vs "
                       "checker); full-shift control glues")


def test_criterion_11_entropy_ratio_report():
    t0 = time.monotonic()
    report = en.entropy_ratio_report(K3, 2)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["count_hat"] > 0
        assert row["count_box"] >= row["count_hat"]
        assert math.isfinite(row["c_hat"])
        assert math.isfinite(row["h_box"]) and math.isfinite(row["h_hat"])
    assert math.isfinite(report.empirical_c())
    _done(11, 600, t0, "hat families nonempty with finite count-ratio "
                       "exponents up to n=2")


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.monotonic()
    pat = tmp_path / "hat1.jsonl"
    assert main(["enumerate", "--graph", "K3", "--family", "hat", "--n", "1",
                 "--d", "2", "--out", str(pat)]) == 0
    block = tmp_path / "blocks.json"
    tiled = tmp_path / "block4.json"
    assert main(["tile", "--tileset", "dominoes", "--dims", "4x4",
                 "--out", str(tiled)]) == 0
    import json
    obj = json.loads(tiled.read_text())["tiling"]
    block.write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": obj}]}))
    battery = [
        ("enumerate", ["enumerate", "--graph", "K3", "--family", "box",
                       "--n", "1", "--d", "2", "--seed", "3"], True),
        ("extend", ["extend", "--graph", "K3", "--op", "hat",
                    "--in", str(pat), "--k", "4", "--seed", "3"], False),
        ("fill", ["fill", "--tileset", "dominoes", "--n", "4", "--k", "1",
                  "--blocks", str(block)], False),
        ("tile", ["tile", "--tileset", "dominoes", "--dims", "8x8"], False),
        ("count", ["count", "tilings", "--tileset", "dominoes",
                   "--dims", "4x6"], True),
        ("entropy", ["entropy", "ratio", "--graph", "K3",
                     "--nmax", "1"], False),
        ("verify-marker", ["verify", "marker", "--graph", "K3", "--n", "2",
                           "--d", "2"], True),
        ("verify-ufp", ["verify", "ufp", "--graph", "K3", "--M", "0",
                        "--n", "1", "--mode", "exhaustive", "--d", "1"],
         True),
        ("height", ["height", "sample", "--n", "3", "--d", "2",
                    "--seed", "42"], False),
    ]
    for name, argv, sweep in battery:
        workers = [1, 4, 8] if sweep else [1]
        blobs = []
        for run, w in enumerate(workers + [workers[0]]):
            out = tmp_path / ("%s.%d.out" % (name, run))
            code = main(argv + ["--workers", str(w), "--out", str(out)])
            assert code in (0, 1), "command %s exited %d" % (name, code)
            blobs.append(out.read_bytes())
        assert all(b == blobs[0] for b in blobs), \
            "command %s varies across runs/workers" % name
    _done(12, 600, t0, "all eight subcommands byte-identical across "
                       "reruns and workers 1/4/8")
