#!/usr/bin/env python3
"""Compare the bytes the command line writes in two source trees.

    python3 tools/cli_bytes.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (a `git archive` of a commit
will do).  Every command of a fixed list runs in a child process,
`python3 -m latticelab.cli` with PYTHONPATH=<tree>/src, once per tree, in
a directory of its own, writing `--out out` where it writes a file.  The
files the commands read are made once, by OLD_TREE, and shared.  The list
holds:

- the `--out` battery (OUT_ARGVS) and the pinned `enumerate` arguments
  (ENUMERATE_SHA256, ENUMERATE13_SHA256) of tests/test_cli.py, the
  13-vertex ones on its edge list;
- the commands of the benchmark's `pipeline` workload, with its inputs
  drawn from random.Random(1);
- `height cocycle` on the three files of the cocycle pins in
  tests/test_cli.py, whose heights reach every record layout, and on
  three files it rejects: one whose third record is improper, one of a
  ring of eight sites around a hole whose coloring winds around it, and
  one record on F_2 with two faults, an edge between equal colors off
  the sweep's tree met before one on it, so that its message names the
  fault the sweep meets first; and on a general region of two
  components, which it refuses as disconnected (exit 2);
- `height sample` in d = 1, 3 and 4 at seeds -1, 2**63 and 2**64 + 5,
  and `verify lipschitz` on 3 and 20 samples in d = 1..3: one-seed and
  small blocks, which take the scalar sampler (but 20 seeds in d = 1)
  and, the smallest, the row walk of the lift, and `height gap` and
  `verify lipschitz` on boxes past int64 at a budget that holds them
  (exit 2);
- `height gap` on F_40 and on F_6 in d = 3, and `verify lipschitz --n 12
  --samples 400`, large blocks that the lift sums as arrays;
- `count tilings` on the dominoes 4x10 and the dominoes3 2x2x6 boxes and
  `tile` on the squares23 5x12 rectangle, which the frontier DP sweeps
  with their longest axis outermost, so their axes are turned;
- `tile` on more rectangles that no construction certifies, which the
  depth-first walk decides: dominoes 14x14, bars235 8x12, squares23 7x7,
  which has no tiling (exit 1), and dominoes 6x6 at a budget of 10
  states (exit 3);
- `enumerate --family checker --n 4` at a budget of 100 000 nodes, which
  the search runs out of partway through the box (exit 3);
- the transfer-operator routes: `entropy strips` free and periodic to
  width 12 on K3 and C5 (C5 has no periodic columns of width 3: exit
  2), to width 5 on petersen, and on an edge list with a loop and a
  second component; `count hom` and `count torus` on K3, K4, C5 and
  petersen; `entropy ratio --nmax 3`; transfer builds within the default
  budget, `count hom --graph K4 --n 4` and `entropy strips --widths 16`,
  and past it (exit 3), `entropy strips --widths 40`, `count hom --n 8`,
  `count torus --n 8`, `entropy strips --widths 1..1000000000` and
  `count hom --n 4` at a budget of 1 000 entries;
- the argv of every op of the benchmark's `counts` workload, read from
  OLD_TREE's perfbench/workloads.py;
- `enumerate` and `height sample --n 3` to stdout, which decodes the
  encoded blocks as text;
- `enumerate` and `extend --op path` on edge lists of 10 vertices (the
  Petersen graph: every value one digit) and 11 vertices (it and a
  vertex 10 joined to 0 and 2: values of one and two digits).

One line per command says `same`, or names what differs of the exit
code, stdout, stderr and the `out` file; the exit status is 1 on any
difference.
"""

import ast
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

TEST_CLI = pathlib.Path(__file__).resolve().parents[1] / "tests" / "test_cli.py"
SEED = 1
CLI = ("-m", "latticelab.cli")
# a cycle of eight sites around a hole, and a proper coloring of it that
# winds once around, so that it has no heights
RING = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
WINDING = [0, 1, 2, 0, 1, 2, 0, 2]
# two components: a 2 x 2 square at the origin and a bar of three sites,
# colored by parity
SPLIT = [(0, 0), (0, 1), (1, 0), (1, 1), (4, 0), (4, 1), (4, 2)]
# the striped coloring of F_2 in site order with (-2, -2) set to 0 and
# (1, -2) to 1: from the origin the sweep meets an edge between colors 1 off
# its tree before one between colors 0 on it
TWO_FAULTS = [(i + j) % 3 for i in range(-2, 3) for j in range(-2, 3)]
TWO_FAULTS[0], TWO_FAULTS[15] = 0, 1
EDGES13 = "".join("%d %d\n" % (i, i + 1) for i in range(9)) + \
    "10 11\n11 12\n10 12\n"
# a path 0 - 1 - 2 with a loop at 2, and a triangle beside it
LOOPED = "0 1\n1 2\n2 2\n5 6\n6 7\n7 5\n"
# the Petersen graph, and it with a vertex 10 joined to 0 and 2
EDGES10 = "".join("%d %d\n" % (i, (i + 1) % 5) for i in range(5)) + \
    "".join("%d %d\n" % (5 + i, 5 + (i + 2) % 5) for i in range(5)) + \
    "".join("%d %d\n" % (i, 5 + i) for i in range(5))
EDGES11 = EDGES10 + "10 0\n10 2\n"
# per edge list: its name, the checkerboard edge of its pattern file and
# the target of the path extension of that file
WIDE = (("edges10", "0,1", "2,3"), ("edges11", "10,0", "0,10"))

# Run by OLD_TREE: the cocycle files of 1000 sampled colourings of F_5 with
# the striped one and its mirror, and of the striped colouring of F_2.
COLORINGS = """
import sys
import numpy as np
from latticelab import height, homshift
from latticelab.lattice import box_F

for path, n in ((sys.argv[1], 5), (sys.argv[2], 2)):
    region = box_F(n, 2)
    rows = [np.frombuffer(height.striped_coloring(region).values,
                          dtype=np.uint8)]
    if n == 5:
        rows += [(3 - rows[0]) % 3, *height.sample_rows(region, range(1000))]
    ps = homshift.PatternSet(region, [homshift.Pattern(region, r.tobytes())
                                      for r in rows])
    with open(path, "w") as fh:
        fh.write(homshift.pattern_set_to_jsonl(ps, homshift.complete_graph(3)))
"""

# Run by OLD_TREE in its perfbench directory: the argv (without --seed) of
# every op of the counts workload, as JSON.
COUNTS_ARGVS = """
import json
import workloads

print(json.dumps([spec[1] for spec in workloads.Counts(0, ".")._specs()]))
"""


def pinned(name):
    """The literal value assigned to `name` in tests/test_cli.py."""
    for node in ast.parse(TEST_CLI.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def python(tree, args, cwd):
    """The finished `python3 args` run in cwd on tree's package."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree).resolve() / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True)


def subset(src, dst, idx):
    """dst: the pattern file src keeping the records at the indices idx."""
    lines = src.read_text().splitlines()
    header = json.loads(lines[0])
    header["count"] = len(idx)
    dst.write_text("\n".join([json.dumps(header)]
                             + [lines[1 + i] for i in idx]) + "\n")


def make_inputs(tree, d):
    """The shared input files, made in d by tree; the pipeline's draws and
    the counts workload's argv."""
    def run(*args, cwd=d):
        p = python(tree, args, cwd)
        if p.returncode:
            sys.exit("making inputs: %s: %s" % (" ".join(args[:4]),
                                                p.stderr.decode().strip()))
        return p.stdout

    def cli(cmd):
        run(*CLI, *cmd.split())

    cli("enumerate --family checker --n 3 --seed 0 --out checker3.jsonl")
    cli("enumerate --family checker --n 2 --out checker2.jsonl")
    cli("enumerate --graph K3 --family hat --n 1 --d 2 --out hat1.jsonl")
    cli("enumerate --family hat --n 2 --out hat2.jsonl")
    cli("height sample --n 2 --d 2 --seed 5 --out sample.jsonl")
    cli("tile --tileset dominoes --dims 4x4 --out block.json")
    run("-c", COLORINGS, "F5.jsonl", "stripe.jsonl")
    tiling = json.loads((d / "block.json").read_text())["tiling"]
    (d / "blocks.json").write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": tiling}]}))
    (d / "edges13.txt").write_text(EDGES13)
    (d / "looped.txt").write_text(LOOPED)
    (d / "edges10.txt").write_text(EDGES10)
    (d / "edges11.txt").write_text(EDGES11)
    for name, edge, _ in WIDE:
        v0, v1 = edge.split(",")
        cli("enumerate --edges %s.txt --family checker --n 2 --v0 %s --v1 %s "
            "--out checker-%s.jsonl" % (name, v0, v1, name))

    rng = random.Random(SEED)
    checker3 = d / "checker3.jsonl"
    count = len(checker3.read_text().splitlines()) - 1
    for name, size in (("sub_path", 2000), ("sub_embed", 30),
                       ("sub_lift", 2000)):
        subset(checker3, d / (name + ".jsonl"),
               sorted(rng.sample(range(count), size)))
    subset(checker3, d / "F3.jsonl", range(0, count, 32))
    lines = (d / "F3.jsonl").read_text().splitlines()
    values = json.loads(lines[3])["values"]
    lines[3] = json.dumps({"values": [values[0]] * len(values)})
    (d / "improper.jsonl").write_text("\n".join(lines) + "\n")
    ring = {"alphabet": ["0", "1", "2"], "count": 1,
            "region": {"kind": "general", "d": 2,
                       "sites": [list(s) for s in sorted(RING)]}}
    winding = dict(zip(RING, WINDING))
    (d / "winding.jsonl").write_text(
        json.dumps(ring) + "\n" + json.dumps(
            {"values": [winding[s] for s in sorted(RING)]}) + "\n")
    (d / "split.jsonl").write_text(
        json.dumps(dict(ring, region={"kind": "general", "d": 2,
                                      "sites": [list(s) for s in SPLIT]}))
        + "\n" + json.dumps({"values": [sum(s) % 2 for s in SPLIT]}) + "\n")
    (d / "faults.jsonl").write_text(
        json.dumps({"alphabet": ["0", "1", "2"], "count": 1,
                    "region": {"kind": "F", "n": 2, "d": 2}}) + "\n"
        + json.dumps({"values": TWO_FAULTS}) + "\n")
    edges = [(u, v) for u in range(3) for v in range(3) if u != v]
    draws = {"path": "%d,%d" % rng.choice(edges),
             "embed": "%d,%d" % rng.choice(edges),
             "lipschitz": rng.randrange(1 << 31),
             "tilings": (("dominoes", "%dx%d" % (4 * rng.randint(1, 6),
                                                 4 * rng.randint(1, 6))),
                         ("squares23", "36x36"), ("dominoes3", "8x8x8")),
             "seed": rng.randrange(1 << 31),
             "counts": json.loads(run("-c", COUNTS_ARGVS,
                                      cwd=pathlib.Path(tree) / "perfbench"))}
    for tileset, dims in draws["tilings"]:
        cli("tile --tileset %s --dims %s --out tile-%s.json"
            % (tileset, dims, tileset))
    cli("fill --tileset dominoes --n 4 --k 1 --blocks blocks.json "
        "--out fill.json")
    return draws


def commands(draws):
    """The argv strings to compare, {dir} standing for the input directory."""
    cmds = [a + " --out out" for a in pinned("OUT_ARGVS")]
    cmds += ["enumerate %s --seed 0 --out out" % a
             for a in sorted(pinned("ENUMERATE_SHA256"))]
    cmds += ["enumerate --edges {dir}/edges13.txt %s --seed 0 --out out" % a
             for a in sorted(pinned("ENUMERATE13_SHA256"))]
    seed = " --seed %d" % draws["seed"]
    for workers in ("1", "2"):
        cmds.append("enumerate --family checker --n 3 --out out --workers "
                    + workers + seed)
    cmds += [
        "enumerate --family hat --n 2 --out out" + seed,
        "extend --op path --in {dir}/sub_path.jsonl --source 0,1 --target %s "
        "--k 3 --out out%s" % (draws["path"], seed),
        "extend --op embed --in {dir}/sub_embed.jsonl --target %s --k 4 "
        "--out out%s" % (draws["embed"], seed),
        "extend --op hat --in {dir}/hat2.jsonl --k 4 --out out" + seed,
        "height cocycle --in {dir}/sub_lift.jsonl --out out" + seed,
        "verify lipschitz --n 5 --samples 300 --seed %d" % draws["lipschitz"],
    ]
    for workers in ("1", "2"):
        cmds.append("verify marker --n 2 --workers " + workers + seed)
    for tileset, dims in draws["tilings"]:
        cmds += ["tile --tileset %s --dims %s --out out%s" % (tileset, dims,
                                                              seed),
                 "verify tiling --file {dir}/tile-%s.json%s" % (tileset, seed)]
    cmds += ["fill --tileset dominoes --n 4 --k 1 --blocks {dir}/blocks.json "
             "--out out" + seed,
             "verify tiling --file {dir}/fill.json" + seed]
    cmds += ["height cocycle --in {dir}/F3.jsonl --base=0,0 --out out",
             "height cocycle --in {dir}/F5.jsonl --base=-5,-5 --out out",
             "height cocycle --in {dir}/stripe.jsonl --base=-2,-2 --out out",
             "height cocycle --in {dir}/improper.jsonl --base=0,0 --out out",
             "height cocycle --in {dir}/winding.jsonl --base=1,0 --out out",
             "height cocycle --in {dir}/faults.jsonl --base=0,0 --out out",
             "height cocycle --in {dir}/split.jsonl --base=0,0 --out out"]
    for d, n in ((1, 4), (3, 2), (4, 1)):
        for s in (-1, 2 ** 63, 2 ** 64 + 5):
            cmds.append("height sample --n %d --d %d --seed=%d --out out"
                        % (n, d, s))
    for d in (1, 2, 3):
        for samples in (3, 20):
            cmds.append("verify lipschitz --n 2 --d %d --samples %d%s"
                        % (d, samples, seed))
    cmds += ["height gap --n 40" + seed, "height gap --n 6 --d 3" + seed,
             "verify lipschitz --n 12 --samples 400" + seed]
    cmds += ["height gap --n 99999999999999999999 --budget %d%s"
             % (10 ** 50, seed),
             "verify lipschitz --n 10000000000 --d 3 --budget %d%s"
             % (10 ** 50, seed)]
    cmds += ["count tilings --tileset dominoes --dims 4x10" + seed,
             "count tilings --tileset dominoes3 --dims 2x2x6" + seed,
             "tile --tileset squares23 --dims 5x12 --out out" + seed,
             "tile --tileset dominoes --dims 14x14 --out out" + seed,
             "tile --tileset bars235 --dims 8x12 --out out" + seed,
             "tile --tileset squares23 --dims 7x7 --out out" + seed,
             "tile --tileset dominoes --dims 6x6 --budget 10 --out out" + seed,
             "enumerate --family checker --n 4 --budget 100000 --out out"
             + seed]
    for graph in ("K3", "C5"):
        cmds += ["entropy strips --graph %s --widths %s" % (graph, w)
                 for w in ("1..12", "2..12 --boundary periodic")]
    cmds += ["entropy strips --graph C5 --widths 2,4,6,8,10,12 "
             "--boundary periodic",
             "entropy strips --graph petersen --widths 1..5"]
    cmds += ["entropy strips --edges {dir}/looped.txt --widths 1..8" + b
             for b in ("", " --boundary periodic")]
    for graph, n in (("K3", 4), ("K4", 3), ("C5", 4), ("petersen", 3)):
        cmds += ["count %s --graph %s --n %d%s" % (what, graph, n, seed)
                 for what in ("hom", "torus")]
    cmds += ["count hom --graph petersen --n 4" + seed,
             "entropy ratio --nmax 3" + seed,
             "entropy strips --widths 40" + seed,
             "count hom --n 8" + seed,
             "count hom --graph K4 --n 4" + seed,
             "entropy strips --widths 16" + seed,
             "count torus --n 8" + seed,
             "entropy strips --widths 1..1000000000" + seed,
             "count hom --n 4 --budget 1000" + seed]
    cmds += [" ".join(argv) + seed for argv in draws["counts"]]
    cmds += ["enumerate --family checker --n 2" + seed,
             "enumerate --family hat --n 2 --seed 0",
             "enumerate --graph petersen --family box --n 1 --d 1" + seed,
             "height sample --n 3" + seed]
    for name, edge, target in WIDE:
        v0, v1 = edge.split(",")
        cmds += ["enumerate --edges {dir}/%s.txt --family %s --v0 %s --v1 %s "
                 "--out out%s" % (name, family, v0, v1, seed)
                 for family in ("box --n 1 --d 1", "checker --n 2")]
        cmds.append("extend --edges {dir}/%s.txt --op path --in "
                    "{dir}/checker-%s.jsonl --source %s --target %s --k 5 "
                    "--out out%s" % (name, name, edge, target, seed))
    return cmds


def outcome(tree, argv, cwd):
    """(exit code, stdout, stderr, out bytes or None) of argv in cwd."""
    out = cwd / "out"
    if out.exists():
        out.unlink()
    p = python(tree, [*CLI, *argv], cwd)
    return (p.returncode, p.stdout, p.stderr,
            out.read_bytes() if out.exists() else None)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/cli_bytes.py OLD_TREE NEW_TREE")
    old, new = argv
    fields = ("exit code", "stdout", "stderr", "out")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_bytes-") as tmp:
        tmp = pathlib.Path(tmp)
        dirs = {name: tmp / name for name in ("in", "old", "new")}
        for path in dirs.values():
            path.mkdir()
        draws = make_inputs(old, dirs["in"])
        cmds = commands(draws)
        for cmd in cmds:
            args = cmd.replace("{dir}", str(dirs["in"])).split()
            a = outcome(old, args, dirs["old"])
            b = outcome(new, args, dirs["new"])
            diff = [f for f, x, y in zip(fields, a, b) if x != y]
            differ += bool(diff)
            line = "%-7s exit %d  %s" % ("differs" if diff else "same", a[0],
                                         cmd)
            print(line + (" (%s)" % ", ".join(diff) if diff else ""),
                  flush=True)
    print("%d commands, %d differ" % (len(cmds), differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
