"""The benchmark's three workloads: heights, counts and pipeline.

A workload is a fixed list of operations built from the seed.  Each
operation has a timed `run` (a call into latticelab) and an untimed
`check` that validates the output against the oracles in oracles.py and
returns the output's bytes (for rerun and worker-count identity) and the
work it did (patterns, megabytes, ...).  One round runs the whole list;
run.py repeats rounds for the requested time.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

import numpy as np

import oracles

import latticelab
from latticelab import cli, entropy, height, homshift, lattice, tiling, util

MODULES = [latticelab, cli, entropy, height, homshift, lattice, tiling, util]


class Op:
    """One timed call into the program, with the check of its output.

    known_fault names a program fault that makes this operation fail on
    every input: it is still run and counted, but a failure of it does
    not make the run incorrect.
    """

    __slots__ = ("name", "run", "check", "known_fault")

    def __init__(self, name, run, check, known_fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.known_fault = known_fault


class CheckError(Exception):
    """An output disagrees with the oracle or with a required property."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def run_cli(argv):
    """cli.main(argv) with stdout and stderr captured: (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_record(raw):
    """The single JSON record a count/verify command prints, after rc 0."""
    rc, out, err = raw
    expect(rc == 0, "exit %r: %s" % (rc, err.strip()))
    return json.loads(out)


def read_file(path):
    with open(path, "rb") as fh:
        return fh.read()


def parse_patterns(data):
    """(header, uint8 array of values) from pattern-file bytes, decoded one
    record at a time into the array."""
    expect(data.endswith(b"\n"), "pattern file does not end in a newline")
    lines = io.BytesIO(data)
    header = json.loads(lines.readline())
    count = header["count"]
    arr = None
    for i in range(count):
        values = json.loads(lines.readline())["values"]
        if arr is None:
            arr = np.empty((count, len(values)), dtype=np.uint8)
        arr[i] = values
    expect(lines.read() == b"", "more records than the header count %r"
           % count)
    return header, (arr if arr is not None else np.empty((0, 0), np.uint8))


def box_grid(arr, n):
    side = 2 * n + 1
    return arr.reshape(len(arr), side, side)


def shell_mask(n):
    side = 2 * n + 1
    r, c = np.indices((side, side))
    return np.maximum(np.abs(r - n), np.abs(c - n)) == n, (r + c) % 2


def check_checker_shell(arr, n, v0, v1):
    mask, par = shell_mask(n)
    grid = box_grid(arr, n)
    want = np.where(par == 0, v0, v1)
    expect(np.all(grid[:, mask] == want[mask]),
           "shell is not the (%d,%d) checkerboard" % (v0, v1))


def center(arr, n, k):
    """Restriction of F_n patterns to F_k, packed."""
    grid = box_grid(arr, n)
    return grid[:, n - k:n + k + 1, n - k:n + k + 1].reshape(len(arr), -1)


def row_set(arr):
    return {bytes(row) for row in arr}


def write_subset(src, dst, indices):
    """Copy the header and the chosen records (sorted indices) of a
    pattern file."""
    lines = io.BytesIO(src)
    header = json.loads(lines.readline())
    header["count"] = len(indices)
    with open(dst, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode() + b"\n")
        wanted = iter(indices)
        want = next(wanted, None)
        for i, line in enumerate(lines):
            if i == want:
                fh.write(line)
                want = next(wanted, None)


class Workload:
    """Base: name, seeded inputs, reference values and the op list."""

    name = None
    # (metric, unit, kind, work key): kind "rate" is sum(work) / time of
    # the ops that report the key, kind "time" is their time.
    stages = []

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ref = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def reference(self):
        """Compute the oracle values the checks compare against."""
        raise NotImplementedError

    def prepare(self):
        """Write the input files the op list reads (once per run)."""

    def ops(self):
        """A fresh op list for one round."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Heights(Workload):
    """Criterion-9 shape, library calls in memory: DFS, lift, sampler, gap."""

    name = "heights"
    N_LIFT = 5000
    N_SAMPLE = 400
    GAP_MAX = 8
    stages = [
        ("enum_patterns_per_s", "patterns/s", "rate", "enum"),
        ("lifts_per_s", "fields/s", "rate", "lift"),
        ("samples_per_s", "samples/s", "rate", "sample"),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # 580 986 = |Hom(F_2, K3)|, pinned by the oracle tests
        self.lift_idx = sorted(self.rng.sample(range(580986), self.N_LIFT))
        first = self.rng.randrange(1 << 31)
        self.sample_seeds = list(range(first, first + self.N_SAMPLE))

    def reference(self):
        self.ref = {"box2": oracles.count_box_colorings(2)}

    def ops(self):
        K3 = homshift.complete_graph(3)
        ctx = {}
        ops = []

        def enum_run():
            return homshift.enumerate_hom(K3, lattice.box_F(2, 2))

        def enum_check(ps):
            # block by block, so that the check holds no copy of the set
            expect(len(ps) == self.ref["box2"], "count %d" % len(ps))
            sha, last, values = hashlib.sha256(), None, iter(ps)
            while True:
                block = b"".join(p.values for p in
                                 itertools.islice(values, oracles.CHECK_ROWS))
                if not block:
                    break
                sha.update(block)
                arr = np.frombuffer(block, dtype=np.uint8).reshape(-1, 25)
                if last is not None:
                    arr = np.concatenate([last, arr])
                oracles.check_packed_patterns(arr, (5, 5))
                last = arr[-1:].copy()
            ctx["colorings"] = ps
            return sha.hexdigest().encode(), {"enum": len(ps)}

        ops.append(Op("enumerate_hom F_2", enum_run, enum_check))

        for i in self.lift_idx:
            ops.append(Op("height_cocycle", self._lift_run(ctx, i),
                          self._lift_check(5, (2, 2))))

        region5 = lattice.box_F(5, 2)
        for s in self.sample_seeds:
            ops.append(Op("sample F_5", self._sample_run(region5, s),
                          self._sample_check))

        for n in range(1, self.GAP_MAX + 1):
            ops.append(Op("quasiflat_gap F_%d" % n, self._gap_run(n),
                          self._gap_check(n)))
        return ops

    @staticmethod
    def _lift_run(ctx, i):
        def run():
            p = ctx["colorings"][i]
            return p, height.height_cocycle(p, (0, 0))
        return run

    @staticmethod
    def _lift_check(side, base):
        def check(out):
            p, field = out
            heights = [field.heights[s] for s in p.region.sites]
            oracles.check_height_field(np.frombuffer(p.values, np.uint8),
                                       heights, side, base)
            return bytes(p.values) + json.dumps(heights).encode(), {"lift": 1}
        return check

    @staticmethod
    def _sample_run(region5, seed):
        def run():
            p = height.sample_coloring(region5, seed)
            field = height.height_cocycle(p, (0, 0))
            return p, field, height.lipschitz_check(field)
        return run

    @staticmethod
    def _sample_check(out):
        p, field, bad = out
        expect(bad is None, "lipschitz_check reported %r" % (bad,))
        arr = np.frombuffer(p.values, dtype=np.uint8).reshape(1, -1)
        oracles.check_packed_patterns(arr, (11, 11))
        heights = [field.heights[s] for s in p.region.sites]
        oracles.check_height_field(arr, heights, 11, (5, 5))
        return bytes(p.values) + json.dumps(heights).encode(), {"sample": 1}

    @staticmethod
    def _gap_run(n):
        def run():
            region = lattice.box_F(n, 2)
            samples = [height.striped_coloring(region),
                       height.checker_coloring(region)]
            return height.quasiflat_gap(samples, list(region))
        return run

    @staticmethod
    def _gap_check(n):
        def check(gap):
            expect(gap == 2 * n, "gap %r on F_%d, want %d" % (gap, n, 2 * n))
            return str(gap).encode(), {}
        return check


# ---------------------------------------------------------------------------


TILING_SHAPES = [("dominoes", "6x6"), ("dominoes", "4x10"), ("dominoes", "5x8"),
                 ("squares23", "12x12"), ("bars235", "34x1"),
                 ("dominoes3", "2x2x6")]
DIMER_DIMS = ["8x16", "12x12", "14x14", "16x16"]
DIMER_MAX = 16
KASTELEYN_FAULT = ("count_dimer_tilings_kasteleyn rounds a long-double "
                   "product: wrong from 8x16 up")


class Counts(Workload):
    """Exact counts through the CLI: transfer, power iteration, backtracking."""

    name = "counts"
    HOM_N = 4
    TORUS_N = 4
    FREE_WIDTHS = list(range(1, 11))
    PERIODIC_WIDTHS = [2, 4, 6, 8, 10]
    RATIO_NMAX = 2
    stages = [
        ("count_hom_s", "s", "time", "count_hom"),
        ("count_torus_s", "s", "time", "count_torus"),
        ("count_tilings_s", "s", "time", "tilings_w1"),
        ("count_tilings_w2_s", "s", "time", "tilings_w2"),
        ("strip_entropy_s", "s", "time", "strips"),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.order = list(range(len(self._specs())))
        self.rng.shuffle(self.order)
        self.cli_seed = self.rng.randrange(1 << 31)

    def reference(self):
        dims_protos = {"dominoes": [(1, 2), (2, 1)], "squares23": [(2, 2), (3, 3)],
                       "bars235": [(2, 1), (3, 1), (5, 1)],
                       "dominoes3": [(1, 1, 2), (1, 2, 1), (2, 1, 1)]}
        dimers = oracles.domino_table(DIMER_MAX)
        tilings = {}
        for name, dims in TILING_SHAPES:
            shape = tuple(int(x) for x in dims.split("x"))
            if name == "dominoes":
                tilings[(name, dims)] = dimers[tuple(sorted(shape))]
            elif name == "bars235":
                tilings[(name, dims)] = oracles.bars235_count(shape[0])
            else:
                tilings[(name, dims)] = oracles.count_box_tilings(
                    dims_protos[name], shape)
        strips = {(w, "free"): oracles.strip_entropy(w, False)
                  for w in self.FREE_WIDTHS}
        strips.update({(w, "periodic"): oracles.strip_entropy(w, True)
                       for w in self.PERIODIC_WIDTHS})
        ratio = {n: {"box": oracles.count_box_colorings(n),
                     "hat": oracles.count_hat_colorings(n),
                     "tilde": oracles.count_marker_colorings(n),
                     "torus": oracles.count_torus_colorings(n)}
                 for n in range(1, self.RATIO_NMAX + 1)}
        self.ref = {"hom": oracles.count_box_colorings(self.HOM_N),
                    "torus": oracles.count_torus_colorings(self.TORUS_N),
                    "tilings": tilings, "dimers": dimers, "strips": strips,
                    "ratio": ratio}

    def _specs(self):
        """(name, argv without --seed, check, work key, known fault)."""
        specs = [
            ("count hom --n %d" % self.HOM_N,
             ["count", "hom", "--n", str(self.HOM_N)],
             self._count_check("hom"), "count_hom", None),
            ("count torus --n %d" % self.TORUS_N,
             ["count", "torus", "--n", str(self.TORUS_N)],
             self._count_check("torus"), "count_torus", None),
        ]
        for workers in ("1", "2"):
            for name, dims in TILING_SHAPES:
                specs.append((
                    "count tilings %s %s --workers %s" % (name, dims, workers),
                    ["count", "tilings", "--tileset", name, "--dims", dims,
                     "--workers", workers],
                    self._tilings_check(name, dims),
                    "tilings_w" + workers, None))
        specs.append(("entropy strips free",
                      ["entropy", "strips", "--widths",
                       "%d..%d" % (self.FREE_WIDTHS[0], self.FREE_WIDTHS[-1])],
                      self._strips_check("free"), "strips", None))
        specs.append(("entropy strips periodic",
                      ["entropy", "strips", "--boundary", "periodic", "--widths",
                       ",".join(str(w) for w in self.PERIODIC_WIDTHS)],
                      self._strips_check("periodic"), "strips", None))
        specs.append(("entropy ratio --nmax %d" % self.RATIO_NMAX,
                      ["entropy", "ratio", "--nmax", str(self.RATIO_NMAX)],
                      self._ratio_check, "ratio", None))
        for dims in DIMER_DIMS:
            specs.append(("count dimers %s" % dims,
                          ["count", "dimers", "--dims", dims],
                          self._dimer_check(dims), "dimers", KASTELEYN_FAULT))
        specs.append(("entropy dimers --max %d" % DIMER_MAX,
                      ["entropy", "dimers", "--max", str(DIMER_MAX)],
                      self._dimer_table_check, "dimers", KASTELEYN_FAULT))
        return specs

    def ops(self):
        specs = self._specs()
        ctx = {}
        ops = []
        seed = self.cli_seed
        for pos in self.order:
            name, argv, check, key, fault = specs[pos]
            argv = argv + ["--seed", str(seed)]
            ops.append(Op(name, self._run(argv),
                          self._wrap(check, key, seed, ctx), fault))
        return ops

    @staticmethod
    def _run(argv):
        return lambda: run_cli(argv)

    @staticmethod
    def _wrap(check, key, seed, ctx):
        def wrapped(raw):
            check(raw, seed, ctx)
            return raw[1].encode(), {key: 1}
        return wrapped

    def _count_check(self, what):
        def check(raw, seed, ctx):
            rec = cli_record(raw)
            expect(rec["seed"] == seed and rec["what"] == what, "record %r" % rec)
            expect(rec["count"] == self.ref[what],
                   "count %r, oracle %r" % (rec["count"], self.ref[what]))
        return check

    def _tilings_check(self, name, dims):
        def check(raw, seed, ctx):
            rec = cli_record(raw)
            want = self.ref["tilings"][(name, dims)]
            expect(rec["count"] == want, "%s %s: count %r, oracle %r"
                   % (name, dims, rec["count"], want))
            first = ctx.setdefault((name, dims), raw[1])
            expect(first == raw[1], "--workers changes the bytes")
        return check

    @staticmethod
    def _csv(raw, seed):
        rc, out, err = raw
        expect(rc == 0, "exit %r: %s" % (rc, err.strip()))
        lines = out.splitlines()
        expect(lines[0] == "# seed=%d" % seed, "header %r" % lines[0])
        cols = lines[1].split(",")
        return [dict(zip(cols, ln.split(","))) for ln in lines[2:]]

    def _strips_check(self, boundary):
        def check(raw, seed, ctx):
            rows = self._csv(raw, seed)
            widths = (self.FREE_WIDTHS if boundary == "free"
                      else self.PERIODIC_WIDTHS)
            expect([int(r["width"]) for r in rows] == widths, "widths")
            values = [float(r["entropy"]) for r in rows]
            for w, h in zip(widths, values):
                want = self.ref["strips"][(w, boundary)]
                expect(abs(h - want) <= 1e-9, "width %d: %r vs eigvalsh %r"
                       % (w, h, want))
            if boundary == "periodic":
                expect(all(a > b for a, b in zip(values, values[1:])),
                       "periodic strip entropies do not decrease")
                expect(values[-1] > oracles.SQUARE_ICE_ENTROPY,
                       "periodic strip entropy below 1.5 ln(4/3)")
        return check

    def _ratio_check(self, raw, seed, ctx):
        rows = self._csv(raw, seed)
        expect(len(rows) == self.RATIO_NMAX, "%d rows" % len(rows))
        for row in rows:
            n = int(row["n"])
            ref = self.ref["ratio"][n]
            size = (2 * n + 1) ** 2
            expect(int(row["|F_n|"]) == size, "|F_n|")
            for key in ("box", "hat", "tilde", "torus"):
                expect(int(row["count_" + key]) == ref[key],
                       "n=%d count_%s %s, oracle %d"
                       % (n, key, row["count_" + key], ref[key]))
            logs = {k: np.log(ref[k]) for k in ("box", "hat", "torus")}
            floats = {"h_box": logs["box"] / size, "h_hat": logs["hat"] / size,
                      "c_hat": (logs["box"] - logs["hat"]) / n,
                      "c_torus": (logs["box"] - logs["torus"]) / n}
            for key, want in floats.items():
                expect(abs(float(row[key]) - want) <= 1e-9 * max(1.0, abs(want)),
                       "n=%d %s %s vs %r" % (n, key, row[key], want))

    def _dimer_check(self, dims):
        m, n = sorted(int(x) for x in dims.split("x"))

        def check(raw, seed, ctx):
            rec = cli_record(raw)
            want = self.ref["dimers"][(m, n)]
            expect(rec["count"] == want, "dimers %s: %r, exact %r"
                   % (dims, rec["count"], want))
        return check

    def _dimer_table_check(self, raw, seed, ctx):
        rows = self._csv(raw, seed)
        table = self.ref["dimers"]
        expect(len(rows) == len(table), "%d rows" % len(rows))
        wrong = [(r["m"], r["n"]) for r in rows
                 if int(r["count"]) != table[(int(r["m"]), int(r["n"]))]]
        expect(not wrong, "%d of %d entries wrong, first %s"
               % (len(wrong), len(rows), "x".join(wrong[0]) if wrong else ""))


# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """Pattern files through the CLI: enumerate, extend, lift, validators."""

    name = "pipeline"
    CHECKER_N = 3
    CHECKER_COUNT = 64914       # |C_3^(0,1)| for K3, pinned by the oracle tests
    HAT_N = 2
    N_PATH = 2000
    N_EMBED = 30
    N_LIFT = 2000
    N_LIPSCHITZ = 300
    MARKER_N = 2
    stages = [
        ("enum_patterns_per_s", "patterns/s", "rate", "enum"),
        ("lifts_per_s", "fields/s", "rate", "lift"),
        ("samples_per_s", "samples/s", "rate", "sample"),
        ("extend_patterns_per_s", "patterns/s", "rate", "extend"),
        ("jsonl_mb_per_s", "MB/s", "rate", "jsonl_mb"),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        pool = range(self.CHECKER_COUNT)
        self.sub_path = sorted(rng.sample(pool, self.N_PATH))
        self.sub_embed = sorted(rng.sample(pool, self.N_EMBED))
        self.sub_lift = sorted(rng.sample(pool, self.N_LIFT))
        edges = [(u, v) for u in range(3) for v in range(3) if u != v]
        self.path_target = rng.choice(edges)
        self.embed_target = rng.choice(edges)
        self.lipschitz_seed = rng.randrange(1 << 31)
        self.tile_dims = "%dx%d" % (4 * rng.randint(1, 6), 4 * rng.randint(1, 6))
        self.block_site = (rng.randint(4, 8), rng.randint(4, 8))
        self.block = random_domino_tiling(4, rng)
        self.cli_seed = rng.randrange(1 << 31)

    def reference(self):
        self.ref = {"checker": oracles.count_checker_colorings(self.CHECKER_N),
                    "hat": oracles.count_hat_colorings(self.HAT_N),
                    "marker": oracles.count_marker_colorings(self.MARKER_N)}

    def prepare(self):
        with open(self.path("blocks.json"), "w", encoding="utf-8") as fh:
            json.dump({"blocks": [{"site": list(self.block_site),
                                   "tiling": self.block}]}, fh)

    def ops(self):
        ctx = {}
        p = self.path
        n = self.CHECKER_N
        ops = []

        def cli_op(name, argv, check, workers=None, seed=None):
            argv = argv + ["--seed", str(self.cli_seed if seed is None else seed)]
            if workers is not None:
                argv = argv + ["--workers", workers]
            ops.append(Op(name, lambda: run_cli(argv), check))

        for workers in ("1", "2"):
            cli_op("enumerate checker --n %d --workers %s" % (n, workers),
                   ["enumerate", "--family", "checker", "--n", str(n),
                    "--out", p("checker%s.jsonl" % workers)],
                   self._checker_check(ctx, workers), workers)
        cli_op("enumerate hat --n %d" % self.HAT_N,
               ["enumerate", "--family", "hat", "--n", str(self.HAT_N),
                "--out", p("hat.jsonl")], self._hat_family_check(ctx))
        cli_op("extend path",
               ["extend", "--op", "path", "--in", p("sub_path.jsonl"),
                "--source", "0,1", "--target", "%d,%d" % self.path_target,
                "--k", "3", "--out", p("path.jsonl")],
               self._extend_check(ctx, "sub_path.jsonl", "path.jsonl", n, n + 3,
                                  self.path_target))
        cli_op("extend embed",
               ["extend", "--op", "embed", "--in", p("sub_embed.jsonl"),
                "--target", "%d,%d" % self.embed_target, "--k", "4",
                "--out", p("embed.jsonl")],
               self._extend_check(ctx, "sub_embed.jsonl", "embed.jsonl", n,
                                  4 * n + 4, self.embed_target))  # F_(2dn+k)
        cli_op("extend hat",
               ["extend", "--op", "hat", "--in", p("hat.jsonl"), "--k", "4",
                "--out", p("hat_ext.jsonl")],
               self._extend_check(ctx, "hat.jsonl", "hat_ext.jsonl",
                                  self.HAT_N, self.HAT_N + 4, None))
        cli_op("height cocycle",
               ["height", "cocycle", "--in", p("sub_lift.jsonl"),
                "--out", p("heights.jsonl")], self._cocycle_check(ctx))
        # verify lipschitz takes its first sample seed from --seed
        cli_op("verify lipschitz --n 5",
               ["verify", "lipschitz", "--n", "5",
                "--samples", str(self.N_LIPSCHITZ)],
               self._lipschitz_check, seed=self.lipschitz_seed)
        for workers in ("1", "2"):
            cli_op("verify marker --n %d --workers %s" % (self.MARKER_N, workers),
                   ["verify", "marker", "--n", str(self.MARKER_N)],
                   self._marker_check(ctx, workers), workers)
        for tileset, dims in [("dominoes", self.tile_dims),
                              ("squares23", "36x36"), ("dominoes3", "8x8x8")]:
            out = p("tile-%s.json" % tileset)
            cli_op("tile %s %s" % (tileset, dims),
                   ["tile", "--tileset", tileset, "--dims", dims, "--out", out],
                   self._tiling_file_check(out, ctx))
            cli_op("verify tiling %s" % tileset,
                   ["verify", "tiling", "--file", out],
                   self._verify_tiling_check(out, ctx))
        cli_op("fill dominoes --n 4 --k 1",
               ["fill", "--tileset", "dominoes", "--n", "4", "--k", "1",
                "--blocks", p("blocks.json"), "--out", p("fill.json")],
               self._fill_check(ctx))
        cli_op("verify tiling fill",
               ["verify", "tiling", "--file", p("fill.json")],
               self._verify_tiling_check(p("fill.json"), ctx))
        return ops

    # -- checks --------------------------------------------------------------

    def _file_op(self, raw, out_name):
        rc, out, err = raw
        expect(rc == 0, "exit %r: %s" % (rc, err.strip()))
        return read_file(self.path(out_name))

    def _checker_check(self, ctx, workers):
        n = self.CHECKER_N

        def check(raw):
            data = self._file_op(raw, "checker%s.jsonl" % workers)
            mb = len(data) / 1e6
            if workers != "1":
                expect(hashlib.sha256(data).digest() == ctx["checker"],
                       "--workers changes the bytes")
                return data, {"enum": self.ref["checker"], "jsonl_mb": mb}
            header, arr = parse_patterns(data)
            expect(len(arr) == self.ref["checker"], "count %d, oracle %d"
                   % (len(arr), self.ref["checker"]))
            expect(header["region"] == {"kind": "F", "n": n, "d": 2},
                   "region %r" % header["region"])
            oracles.check_packed_patterns(arr, (2 * n + 1, 2 * n + 1))
            check_checker_shell(arr, n, 0, 1)
            ctx["checker"] = hashlib.sha256(data).digest()
            for name, idx in (("sub_path", self.sub_path),
                              ("sub_embed", self.sub_embed),
                              ("sub_lift", self.sub_lift)):
                write_subset(data, self.path(name + ".jsonl"), idx)
                ctx[name + ".jsonl"] = arr[idx]
            return data, {"enum": len(arr), "jsonl_mb": mb}
        return check

    def _hat_family_check(self, ctx):
        n = self.HAT_N

        def check(raw):
            data = self._file_op(raw, "hat.jsonl")
            header, arr = parse_patterns(data)
            expect(len(arr) == self.ref["hat"], "count %d, oracle %d"
                   % (len(arr), self.ref["hat"]))
            oracles.check_packed_patterns(arr, (2 * n + 1, 2 * n + 1))
            mask, _ = shell_mask(n)
            r, c = np.indices(mask.shape)
            grid = box_grid(arr, n)
            for res in {(a % 2, b % 2) for a, b in zip(r[mask], c[mask])}:
                sel = mask & (r % 2 == res[0]) & (c % 2 == res[1])
                vals = grid[:, sel]
                expect(np.all(vals == vals[:, :1]), "shell not 2-periodic")
            ctx["hat.jsonl"] = arr
            return data, {"enum": len(arr), "jsonl_mb": len(data) / 1e6}
        return check

    def _extend_check(self, ctx, in_name, out_name, n, m, target):
        """Outputs on F_m that restrict to the F_n inputs, with a checkerboard
        shell: the given target edge, or any edge when target is None."""
        def check(raw):
            data = self._file_op(raw, out_name)
            header, arr = parse_patterns(data)
            inputs = ctx[in_name]
            expect(header["region"] == {"kind": "F", "n": m, "d": 2},
                   "region %r" % header["region"])
            expect(len(arr) == len(inputs), "%d outputs for %d inputs"
                   % (len(arr), len(inputs)))
            oracles.check_packed_patterns(arr, (2 * m + 1, 2 * m + 1))
            expect(row_set(center(arr, m, n)) == row_set(inputs),
                   "outputs do not restrict to the inputs")
            if target is not None:
                check_checker_shell(arr, m, *target)
            else:
                mask, par = shell_mask(m)
                grid = box_grid(arr, m)[:, mask]
                even, odd = grid[:, par[mask] == 0], grid[:, par[mask] == 1]
                expect(np.all(even == even[:, :1]) and np.all(odd == odd[:, :1])
                       and np.all(even[:, 0] != odd[:, 0]),
                       "hat extension shell is not a checkerboard")
            read_mb = os.path.getsize(self.path(in_name)) / 1e6
            return data, {"extend": len(arr),
                          "jsonl_mb": read_mb + len(data) / 1e6}
        return check

    def _cocycle_check(self, ctx):
        n = self.CHECKER_N
        side = 2 * n + 1

        def check(raw):
            data = self._file_op(raw, "heights.jsonl")
            lines = data.decode().splitlines()
            head = json.loads(lines[0])
            colors = ctx["sub_lift.jsonl"]
            expect(head["base"] == [0, 0] and head["count"] == len(colors)
                   and len(lines) == len(colors) + 1, "header %r" % head)
            for row, line in zip(colors, lines[1:]):
                oracles.check_height_field(row, json.loads(line)["heights"],
                                           side, (n, n))
            read_mb = os.path.getsize(self.path("sub_lift.jsonl")) / 1e6
            return data, {"lift": len(colors),
                          "jsonl_mb": read_mb + len(data) / 1e6}
        return check

    def _lipschitz_check(self, raw):
        rec = cli_record(raw)
        first = self.lipschitz_seed
        expect(rec["ok"] is True and rec["samples"] == self.N_LIPSCHITZ
               and rec["first_seed"] == first
               and rec["last_seed"] == first + self.N_LIPSCHITZ - 1,
               "record %r" % rec)
        return raw[1].encode(), {"sample": self.N_LIPSCHITZ}

    def _marker_check(self, ctx, workers):
        def check(raw):
            rec = cli_record(raw)
            expect(rec["ok"] is True and rec["members"] == self.ref["marker"],
                   "record %r, oracle members %d" % (rec, self.ref["marker"]))
            expect(ctx.setdefault("marker", raw[1]) == raw[1],
                   "--workers changes the bytes")
            return raw[1].encode(), {}
        return check

    def _tiling_file_check(self, out, ctx):
        def check(raw):
            rc, text, err = raw
            expect(rc == 0, "exit %r: %s" % (rc, err.strip()))
            data = read_file(out)
            obj = json.loads(data)
            ctx[out] = oracles.check_exact_cover(obj["tiling"])
            return data, {}
        return check

    def _verify_tiling_check(self, out, ctx):
        def check(raw):
            rec = cli_record(raw)
            expect(rec["ok"] is True and rec["tiles"] == ctx[out],
                   "record %r, %d tiles" % (rec, ctx[out]))
            return raw[1].encode(), {}
        return check

    def _fill_check(self, ctx):
        out = self.path("fill.json")

        def check(raw):
            rc, text, err = raw
            expect(rc == 0, "exit %r: %s" % (rc, err.strip()))
            data = read_file(out)
            obj = json.loads(data)["tiling"]
            ctx[out] = oracles.check_exact_cover(obj)
            placed = {(p, tuple(o)) for p, o in obj["placements"]}
            i, j = self.block_site
            for p, (a, b) in self.block["placements"]:
                expect((p, (a + i, b + j)) in placed,
                       "prescribed block tile missing")
            return data, {}
        return check


def random_domino_tiling(side, rng):
    """A seeded domino tiling of {1..side}^2 as tiling JSON, by backtracking."""
    covered = set()
    placements = []

    def rec():
        free = next(((a, b) for a in range(1, side + 1)
                     for b in range(1, side + 1) if (a, b) not in covered), None)
        if free is None:
            return True
        a, b = free
        options = [(0, [(a, b), (a, b + 1)]), (1, [(a, b), (a + 1, b)])]
        rng.shuffle(options)
        for proto, cells in options:
            if all(1 <= x <= side and 1 <= y <= side and (x, y) not in covered
                   for x, y in cells):
                covered.update(cells)
                placements.append([proto, [a - 1, b - 1]])
                if rec():
                    return True
                placements.pop()
                covered.difference_update(cells)
        return False

    rec()
    return {"tileset": [[1, 2], [2, 1]],
            "region": {"kind": "B", "n": side, "d": 2},
            "placements": sorted(placements)}


WORKLOADS = {cls.name: cls for cls in (Heights, Counts, Pipeline)}
