"""End-to-end runs of the command line: exit codes, files, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest.mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab import cli, homshift
from latticelab.cli import main
from latticelab.homshift import pattern_set_from_jsonl
from latticelab.lattice import Region
from latticelab.tiling import dominoes, tile_rectangle, tiling_to_json
from latticelab.util import NegativeResult


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_box_counts(tmp_path, capsys):
    out = tmp_path / "box.jsonl"
    code, stdout, _ = run(capsys, ["enumerate", "--graph", "K3",
                                   "--family", "box", "--n", "0", "--d", "2",
                                   "--out", str(out)])
    assert code == 0
    assert "count=3" in stdout
    ps, header = pattern_set_from_jsonl(out.read_text())
    assert len(ps) == 3
    assert header["count"] == 3
    assert header["seed"] == 0


def test_enumerate_tilde_family(tmp_path, capsys):
    out = tmp_path / "tilde.jsonl"
    code, stdout, _ = run(capsys, ["enumerate", "--graph", "K3",
                                   "--family", "tilde", "--n", "1",
                                   "--d", "2", "--out", str(out)])
    assert code == 0
    assert "count=2" in stdout
    ps, _ = pattern_set_from_jsonl(out.read_text())
    assert len(ps) == 2


def test_enumerate_rejects_bad_graph(capsys):
    code, _, stderr = run(capsys, ["enumerate", "--graph", "K99",
                                   "--family", "box", "--n", "0"])
    assert code == 2
    assert "usage error" in stderr


def test_enumerate_rejects_malformed_edge_list(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\nbroken line here\n")
    code, _, stderr = run(capsys, ["enumerate", "--edges", str(edges),
                                   "--family", "box", "--n", "0"])
    assert code == 2
    assert "edge list" in stderr


def test_enumerate_custom_edges(tmp_path, capsys):
    edges = tmp_path / "k3.txt"
    edges.write_text("0 1\n1 2\n0 2\n")
    code, stdout, _ = run(capsys, ["enumerate", "--edges", str(edges),
                                   "--family", "box", "--n", "0",
                                   "--d", "1"])
    assert code == 0
    assert "count=3" in stdout


def test_extend_hat_patterns(tmp_path, capsys):
    src = tmp_path / "hat.jsonl"
    dst = tmp_path / "extended.jsonl"
    code, _, _ = run(capsys, ["enumerate", "--graph", "K3", "--family",
                              "hat", "--n", "1", "--d", "2",
                              "--out", str(src)])
    assert code == 0
    code, stdout, _ = run(capsys, ["extend", "--graph", "K3", "--op", "hat",
                                   "--in", str(src), "--k", "4",
                                   "--out", str(dst)])
    assert code == 0
    assert "count=" in stdout
    ps, header = pattern_set_from_jsonl(dst.read_text())
    assert header["region"]["n"] == 5
    assert len(ps) >= 1


def test_extend_path_requires_edges(tmp_path, capsys):
    src = tmp_path / "box.jsonl"
    run(capsys, ["enumerate", "--graph", "K3", "--family", "box",
                 "--n", "1", "--d", "1", "--out", str(src)])
    code, _, stderr = run(capsys, ["extend", "--graph", "K3", "--op", "path",
                                   "--in", str(src), "--k", "3"])
    assert code == 2
    assert "source" in stderr


BAD_VALUE_FILE = ('{"alphabet":["0","1","2"],"count":1,'
                  '"region":{"d":1,"kind":"F","n":1}}\n{"values":[0,7,0]}\n')
WIDE_ALPHABET_FILE = ('{"alphabet":["0","1","2","3"],"count":1,'
                      '"region":{"d":1,"kind":"F","n":1}}\n{"values":[0,3,0]}\n')
NUMBER_ALPHABET_FILE = ('{"alphabet":3,"count":1,'
                        '"region":{"d":1,"kind":"F","n":1}}\n{"values":[0,1,0]}\n')


@pytest.mark.parametrize("op", ["hat", "path"])
@pytest.mark.parametrize("text, needle",
                         [(BAD_VALUE_FILE, "outside the 3-letter alphabet"),
                          (WIDE_ALPHABET_FILE, "4-letter alphabet"),
                          (NUMBER_ALPHABET_FILE, "cannot read pattern file")],
                         ids=["value", "alphabet", "malformed"])
def test_extend_rejects_values_outside_the_graph(tmp_path, capsys, op, text,
                                                 needle):
    src = tmp_path / "bad.jsonl"
    src.write_text(text)
    code, _, stderr = run(capsys, ["extend", "--graph", "K3", "--op", op,
                                   "--in", str(src), "--k", "4",
                                   "--source", "0,1", "--target", "1,2"])
    assert code == 2
    assert needle in stderr
    assert stderr.count("\n") == 1


def test_tile_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, stdout, _ = run(capsys, ["tile", "--tileset", "dominoes",
                                   "--dims", "4x4", "--out", str(out)])
    assert code == 0
    assert "tiled" in stdout
    code, stdout, _ = run(capsys, ["verify", "tiling", "--file", str(out)])
    assert code == 0
    assert '"ok":true' in stdout


def test_tile_untileable_exits_one(capsys):
    code, _, stderr = run(capsys, ["tile", "--tileset", "dominoes",
                                   "--dims", "3x3"])
    assert code == 1
    assert "untileable" in stderr


def test_tile_uncertified_rectangle_by_search(tmp_path, capsys):
    # 40 is not a multiple of M = 30 and 40x1 has a short side, so no
    # construction certifies it; twenty 2x1 bars still tile it
    out = tmp_path / "bars.json"
    code, stdout, _ = run(capsys, ["tile", "--tileset", "bars235",
                                   "--dims", "40x1", "--out", str(out)])
    assert code == 0
    assert "tiled dims=40x1" in stdout
    code, stdout, _ = run(capsys, ["verify", "tiling", "--file", str(out)])
    assert code == 0
    assert '"ok":true' in stdout


def test_count_tilings_long_strip(capsys):
    code, stdout, _ = run(capsys, ["count", "tilings", "--tileset", "dominoes",
                                   "--dims", "3000x2"])
    assert code == 0
    ways = [1, 1]  # domino tilings of the 0x2 and 1x2 strips
    while len(ways) <= 3000:
        ways.append(ways[-1] + ways[-2])
    count = json.loads(stdout)["count"]
    assert count == ways[3000]
    assert len(str(count)) == 627


def test_verify_tiling_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code, _, stderr = run(capsys, ["verify", "tiling", "--file", str(bad)])
    assert code == 2
    assert "usage error" in stderr


def test_verify_tiling_invalid_tiling(tmp_path, capsys):
    t = tile_rectangle(dominoes(), (4, 4))
    obj = tiling_to_json(t)
    obj["placements"] = obj["placements"][:-1]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, ["verify", "tiling", "--file", str(bad)])
    assert code == 1
    assert '"ok":false' in stdout


def test_fill_with_blocks(tmp_path, capsys):
    block = tile_rectangle(dominoes(), (4, 4))
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": tiling_to_json(block)}]}))
    out = tmp_path / "fill.json"
    code, stdout, _ = run(capsys, ["fill", "--tileset", "dominoes",
                                   "--n", "4", "--k", "1",
                                   "--blocks", str(blocks),
                                   "--out", str(out)])
    assert code == 0
    assert "blocks=1" in stdout
    code, _, _ = run(capsys, ["verify", "tiling", "--file", str(out)])
    assert code == 0


def test_fill_rejects_colliding_blocks(tmp_path, capsys):
    block = tile_rectangle(dominoes(), (4, 4))
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": tiling_to_json(block)},
                    {"site": [8, 4], "tiling": tiling_to_json(block)}]}))
    code, _, stderr = run(capsys, ["fill", "--tileset", "dominoes",
                                   "--n", "7", "--k", "1",
                                   "--blocks", str(blocks)])
    assert code == 1
    assert "no admissible fill" in stderr


def test_count_hom_and_dimers(capsys):
    code, stdout, _ = run(capsys, ["count", "hom", "--graph", "K3",
                                   "--n", "1", "--d", "2"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["count"] == 246
    code, stdout, _ = run(capsys, ["count", "dimers", "--dims", "8x8"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["count"] == 12988816
    code, stdout, _ = run(capsys, ["count", "tilings", "--tileset",
                                   "dominoes", "--dims", "4x4"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["count"] == 36
    code, stdout, _ = run(capsys, ["count", "torus", "--graph", "K3",
                                   "--n", "1", "--d", "2"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["count"] == 18


@pytest.mark.parametrize("dims, want", [
    ("8x16", 540061286536921), ("12x12", 53060477521960000),
    ("14x14", 112202208776036178000000),
    ("16x16", 2444888770250892795802079170816)])
def test_count_dimers_past_float_precision(capsys, dims, want):
    code, stdout, _ = run(capsys, ["count", "dimers", "--dims", dims])
    assert code == 0
    assert json.loads(stdout)["count"] == want


def test_entropy_dimer_table_to_sixteen(capsys):
    code, stdout, _ = run(capsys, ["entropy", "dimers", "--max", "16"])
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2 + 16 * 17 // 2
    assert "8,16,540061286536921" in lines
    assert "12,12,53060477521960000" in lines
    assert lines[-1] == "16,16,2444888770250892795802079170816"


def test_entropy_dimer_table(capsys):
    code, stdout, _ = run(capsys, ["entropy", "dimers", "--max", "8"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "m,n,count"
    assert lines[-1] == "8,8,12988816"


def test_entropy_strips_table(capsys):
    code, stdout, _ = run(capsys, ["entropy", "strips", "--graph", "K3",
                                   "--widths", "1..4"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[1] == "width,entropy"
    assert len(lines) == 6


def test_entropy_ratio_table(capsys):
    code, stdout, _ = run(capsys, ["entropy", "ratio", "--graph", "K3",
                                   "--nmax", "1"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1].startswith("n,")
    assert len(lines) == 3


def test_verify_marker_ok(capsys):
    code, stdout, _ = run(capsys, ["verify", "marker", "--graph", "K3",
                                   "--n", "2", "--d", "2"])
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["ok"] is True
    assert rec["spacing"] == 1


def test_verify_ufp_counterexample(tmp_path, capsys):
    out = tmp_path / "ufp.jsonl"
    code, _, _ = run(capsys, ["verify", "ufp", "--graph", "K3", "--M", "1",
                              "--n", "3", "--out", str(out)])
    assert code == 1
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["role"] == "center"
    assert json.loads(lines[1])["role"] == "ring"
    verdict = json.loads(lines[2])
    assert verdict["ok"] is False and verdict["check"] == "ufp"


def test_verify_ufp_ok(capsys):
    code, stdout, _ = run(capsys, ["verify", "ufp", "--graph", "K3",
                                   "--M", "4", "--n", "2"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["ok"] is True


def test_verify_lipschitz(capsys):
    code, stdout, _ = run(capsys, ["verify", "lipschitz", "--n", "3",
                                   "--samples", "50", "--seed", "11"])
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["ok"] is True
    assert rec["first_seed"] == 11 and rec["last_seed"] == 60


def test_height_sample_and_cocycle(tmp_path, capsys):
    src = tmp_path / "sample.jsonl"
    code, _, _ = run(capsys, ["height", "sample", "--n", "2", "--d", "2",
                              "--seed", "5", "--out", str(src)])
    assert code == 0
    code, stdout, _ = run(capsys, ["height", "cocycle", "--in", str(src),
                                   "--base", "0,0"])
    assert code == 0
    lines = stdout.strip().splitlines()
    heights = json.loads(lines[1])["heights"]
    assert len(heights) == 25


def test_height_gap(capsys):
    code, stdout, _ = run(capsys, ["height", "gap", "--n", "4"])
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["gap"] == 8


def test_budget_exit_code(capsys):
    code, _, stderr = run(capsys, ["count", "hom", "--graph", "K3",
                                   "--n", "2", "--d", "3",
                                   "--budget", "100"])
    assert code == 3
    assert "budget" in stderr


def test_budget_is_the_same_at_every_worker_count(capsys):
    # Enumerating Hom(F_2, K3) ticks 1 055 224 nodes.  Each branch at the
    # first site ticks a third of them, under this budget, so a search
    # that gave every branch the whole budget would finish.
    for workers in ("1", "2"):
        code, _, stderr = run(capsys, ["enumerate", "--n", "2",
                                       "--budget", "703482",
                                       "--workers", workers])
        assert code == 3
        assert "budget" in stderr


def test_outputs_byte_identical_across_reruns_and_workers(tmp_path, capsys):
    paths = [tmp_path / ("run%d.jsonl" % i) for i in range(3)]
    for path, workers in zip(paths, ["1", "2", "4"]):
        code, _, _ = run(capsys, ["enumerate", "--graph", "K3",
                                  "--family", "box", "--n", "1", "--d", "2",
                                  "--workers", workers, "--seed", "9",
                                  "--out", str(path)])
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("argv", [
    ["frobnicate"], ["enumerate", "--n"], ["count", "hom", "--n", "x"],
    ["enumerate", "--family", "cube", "--n", "1"],
    ["count", "hom", "--budget", "0"], ["extend", "--op", "hat", "--k", "1"],
    ["count", "hom", "--budget", "x"]],
    ids=["unknown-subcommand", "missing-value", "non-int", "bad-choice",
         "budget-0", "missing-required-flag", "budget-not-int"])
def test_argument_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage error: ") and stderr.count("\n") == 1


def test_argument_errors_name_the_type(capsys):
    with pytest.raises(SystemExit):
        main(["count", "hom", "--budget", "x"])
    assert "invalid positive integer value: 'x'" in capsys.readouterr().err


# SHA-256 of `enumerate --out` at seed 0, as the per-pattern scalar search
# and the per-record encoder wrote them
ENUMERATE_SHA256 = {
    "--family box --n 2":
        "5b1008abbef53149fbffd07415852cb0740308e7e4e37dcbe4441f64ca55f278",
    "--family checker --n 3":
        "0ceec03b903139247b4a7db4989b50800ee1de90838451d3b7d521adc14a3104",
    "--family hat --n 2":
        "0c0f26fa3c0042277867c3dd7aafdbc0e705b7b0489806dad80bc2d1bc359220",
    "--family tilde --n 2":
        "f993105db1a75c91b5f5886db602e593d1d1f995abe2295bbe13e73f456e95c0",
    "--family box --n 1 --d 3":
        "8e87d10fc4841bb9d2465a8a883f1f9935a237fccf20b5b205ac6871c4e0111c",
    "--family checker --n 2 --graph petersen":
        "e7e3dd6b45e3086198870dae8558daeaf83ea59f600c93bb4bf77605b0ae7038",
}


@pytest.mark.parametrize("args", sorted(ENUMERATE_SHA256))
def test_enumerate_output_bytes_are_pinned(tmp_path, capsys, args):
    out = tmp_path / "family.jsonl"
    code, _, _ = run(capsys, ["enumerate"] + args.split() +
                     ["--seed", "0", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ENUMERATE_SHA256[args]


def _child_run(*argv):
    """(exit code, peak RSS in kB) of `latticelab argv` run in a child
    process at the default budget."""
    probe = ("import resource, subprocess, sys\n"
             "rc = subprocess.run([sys.executable, '-m', 'latticelab.cli'] "
             "+ sys.argv[1:], capture_output=True).returncode\n"
             "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN)"
             ".ru_maxrss)\n")
    env = dict(os.environ)
    env.pop("LATTICELAB_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return tuple(int(x) for x in out.split())


def test_count_hom_d3_runs_out_of_budget_in_bounded_memory():
    # F_2 in d = 3 has far more than 10^7 prefixes: the search must stop
    # at the default budget holding one block per site, not the patterns
    rc, peak_kb = _child_run("count", "hom", "--n", "2", "--d", "3")
    assert rc == 3
    assert peak_kb <= 64 * 1024


def test_enumerate_writes_its_file_in_bounded_memory(tmp_path):
    # the 580 986 patterns of F_2 take 14.5 MB as rows and 35 MB as a
    # file: the file must be written block by block, never held whole
    out = tmp_path / "box.jsonl"
    rc, peak_kb = _child_run("enumerate", "--n", "2", "--out", str(out))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        ENUMERATE_SHA256["--family box --n 2"]
    assert peak_kb <= 80 * 1024


# ---------------------------------------------------------------------------
# edge lists name their vertices


@pytest.mark.parametrize("text", ["1 2\n2 3\n3 1\n", "-1 0\n0 7\n7 -1\n"],
                         ids=["one-based", "negative"])
def test_edge_list_labels_are_names(tmp_path, capsys, text):
    edges = tmp_path / "triangle.txt"
    edges.write_text(text)
    code, stdout, _ = run(capsys, ["count", "hom", "--edges", str(edges),
                                   "--n", "1"])
    assert code == 0
    record = json.loads(stdout)
    assert record.pop("edges") == str(edges)  # and no "graph" key
    code, stdout, _ = run(capsys, ["count", "hom", "--n", "1"])
    assert stdout == ('{"command":"count","count":246,"d":2,"graph":"K3",'
                      '"n":1,"seed":0,"what":"hom"}\n')
    preset = json.loads(stdout)
    del preset["graph"]
    assert record == preset  # the count 246, as for K3
    out = tmp_path / "box.jsonl"
    code, _, _ = run(capsys, ["enumerate", "--edges", str(edges), "--n", "0",
                              "--out", str(out)])
    assert code == 0
    ps, header = pattern_set_from_jsonl(out.read_text())
    labels = sorted({int(u) for u in text.split()})
    assert header["alphabet"] == [str(u) for u in labels]
    assert len(ps) == 3


def test_edge_list_with_a_gap_in_its_labels(tmp_path, capsys):
    edges = tmp_path / "gap.txt"
    edges.write_text("0 5\n")
    code, stdout, _ = run(capsys, ["enumerate", "--edges", str(edges),
                                   "--n", "0", "--d", "1"])
    assert code == 0
    assert "count=2" in stdout


def test_fill_rejects_a_repeated_block_site(tmp_path, capsys):
    block = tiling_to_json(tile_rectangle(dominoes(), (4, 4)))
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": block},
                    {"site": [4, 4], "tiling": block}]}))
    code, _, stderr = run(capsys, ["fill", "--n", "4", "--k", "1",
                                   "--blocks", str(blocks)])
    assert code == 1
    assert "no admissible fill" in stderr


# ---------------------------------------------------------------------------
# the exit-code table


@pytest.mark.parametrize("exc, code, prefix", [
    (NegativeResult("no chain"), 1, "negative result: no chain"),
    (ValueError("bad"), 2, "usage error: bad"),
    (ArithmeticError("no digits"), 4, "precision failure: no digits"),
    (ZeroDivisionError("x"), 4, "precision failure: x"),
    (AssertionError("broken"), 5, "internal error: AssertionError: broken"),
    (RuntimeError("sampler blocked"), 5,
     "internal error: RuntimeError: sampler blocked"),
    (KeyError("k"), 5, "internal error: KeyError: 'k'"),
    (ValueError("two\nlines"), 2, "usage error: two lines"),
])
def test_exit_code_table(monkeypatch, capsys, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli.entropy_mod, "strip_entropy", fail)
    got, stdout, stderr = run(capsys, ["entropy", "strips", "--widths", "2"])
    assert got == code
    assert stdout == ""
    assert stderr == prefix + "\n"


# ---------------------------------------------------------------------------
# fuzzing the file loaders: every malformed file exits 2 with one line


def _jsonl(ps, H):
    """A pattern file without the optional header keys (count, meta)."""
    lines = homshift.pattern_set_to_jsonl(ps, H).splitlines()
    header = json.loads(lines[0])
    for key in ("count", "meta"):
        header.pop(key, None)
    if header["region"]["kind"] == "general":
        del header["region"]["d"]  # not read for a general region
    return [header] + [json.loads(ln) for ln in lines[1:]]


def _bare_tiling(dims):
    obj = tiling_to_json(tile_rectangle(dominoes(), dims))
    del obj["region"]["d"]  # not read for a rectangle
    return obj


_K3 = homshift.complete_graph(3)
_ELL = Region([(0, 0), (1, 0), (0, 1)])
_CHECKER_FILE = homshift.pattern_set_to_jsonl(
    homshift.checkerboard_set(_K3, 0, 1, 2, 2), _K3)  # 64 patterns

# case -> (argv with FILE for the input path, valid file content); a JSON
# content is a list of records, one per line
LOADER_CASES = {
    "edges": (["enumerate", "--edges", "FILE", "--n", "0", "--d", "1"],
              "0 1\n1 2\n0 2\n"),
    "extend": (["extend", "--op", "hat", "--in", "FILE", "--k", "2"],
               _jsonl(homshift.hat_set(_K3, 1, 1), _K3)),
    "cocycle": (["height", "cocycle", "--in", "FILE"],
                _jsonl(homshift.enumerate_hom(_K3, _ELL), _K3)),
    "blocks": (["fill", "--n", "4", "--k", "1", "--blocks", "FILE"],
               [{"blocks": [{"site": [4, 4],
                             "tiling": _bare_tiling((4, 4))}]}]),
    "tiling": (["verify", "tiling", "--file", "FILE"],
               [{"tiling": _bare_tiling((4, 4))}]),
}


def _run_case(case, text):
    argv, _ = LOADER_CASES[case]
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a == "FILE" else a for a in argv])
    finally:
        os.remove(path)
    return code, err.getvalue()


def _text(case, records):
    if case == "edges":
        return records
    return "".join(json.dumps(r) + "\n" for r in records)


def _slots(node):
    """(container, key) for every value below node, depth first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


_SWAPS = ["x", 0.5, None, [1], {"x": 1}]


@st.composite
def malformed_files(draw):
    """(case, text) where text is a valid loader input broken by truncation,
    a swapped type, a dropped key or a coordinate too many or too few."""
    case = draw(st.sampled_from(sorted(LOADER_CASES)))
    kind = draw(st.sampled_from(["truncate", "swap", "drop", "dimension"]))
    valid = LOADER_CASES[case][1]
    if case == "edges":
        rows = [ln.split() for ln in valid.splitlines()]
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "truncate":
            rows = rows[:i] + [rows[i][:1]]
        elif kind == "swap":
            rows[i][draw(st.integers(0, 1))] = draw(
                st.sampled_from(["x", "0.5", "[1]", "{}"]))
        elif kind == "drop":
            del rows[i][draw(st.integers(0, 1))]
        else:
            rows[i].append("0")
        return case, "".join(" ".join(r) + "\n" for r in rows)
    records = json.loads(json.dumps(valid))
    if kind == "truncate":
        i = draw(st.integers(0, len(records) - 1))
        line = json.dumps(records[i])
        cut = draw(st.integers(1, len(line) - 1))
        return case, _text(case, records[:i]) + line[:cut]
    slots = list(_slots(records))
    if kind == "drop":
        slots = [s for s in slots if isinstance(s[0], dict)]
    elif kind == "dimension":
        slots = [s for s in slots if isinstance(s[0][s[1]], list)
                 and s[0][s[1]]
                 and all(isinstance(a, int) for a in s[0][s[1]])]
    node, key = draw(st.sampled_from(slots))
    if kind == "drop":
        del node[key]
    elif kind == "dimension":
        if draw(st.booleans()):
            node[key].append(0)
        else:
            node[key].pop()
    else:
        old = node[key]
        node[key] = draw(st.sampled_from(
            [v for v in _SWAPS if type(v) is not type(old)]))
    return case, _text(case, records)


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_cases_pass_unmutated(case):
    code, err = _run_case(case, _text(case, LOADER_CASES[case][1]))
    assert (code, err) == (0, "")


@settings(max_examples=300, deadline=None)
@given(malformed_files().map(lambda case_text: case_text + (2,)))
@example(("edges", "1 2\n2 3\n3 1\n", 0))
@example(("tiling", '{"tileset":[[1,2],[2,1]],"region":{"kind":"rect",'
                    '"dims":[2,2],"offset":[0,0]},"placements":[[0,[1]]]}', 2))
@example(("tiling", '{"tileset":[[1,2],[2,1]],"region":{"kind":"rect",'
                    '"dims":[2,2],"offset":[0,0]},"placements":[[5,[0,0]]]}',
          2))
@example(("cocycle", '{"alphabet":["0","1","2"],"region":{"kind":"general",'
                     '"sites":[["a","b"]]}}\n{"values":[0]}\n', 2))
@example(("blocks", json.dumps(
    {"blocks": [{"site": [4, 4, 0], "tiling": _bare_tiling((4, 4))}]}), 2))
@example(("cocycle", "".join(_CHECKER_FILE.splitlines(True)[:5]), 2))
def test_loader_inputs_get_their_exit_code_and_one_line(case_text_code):
    """Malformed files exit 2; the repros of the four tracebacks the
    loaders once let through, and a file cut short of its header's count,
    are pinned as examples."""
    case, text, want = case_text_code
    code, err = _run_case(case, text)
    assert "Traceback" not in err
    assert code == want, err
    if want == 0:
        assert err == ""
    else:
        assert err.startswith("usage error: cannot read ")
        assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# fuzzing argv: every mutated command line exits 0-5, a failure with one line


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """(folder, name -> path) of the input files the base command lines
    name."""
    folder = tmp_path_factory.mktemp("fuzz")
    files = {"PATTERNS": folder / "checker.jsonl",
             "TILING": folder / "tiling.json",
             "BLOCKS": folder / "blocks.json"}
    files["PATTERNS"].write_text(homshift.pattern_set_to_jsonl(
        homshift.checkerboard_set(_K3, 0, 1, 1, 2), _K3))
    files["TILING"].write_text(json.dumps({"tiling": _bare_tiling((4, 4))}))
    files["BLOCKS"].write_text(json.dumps(
        [{"site": [4, 4], "tiling": _bare_tiling((4, 4))}]))
    return folder, {k: str(v) for k, v in files.items()}


# a valid command line for every subcommand and every `what`
FUZZ_BASES = [
    "enumerate --family hat --n 1 --d 2 --graph K3 --out OUT",
    "enumerate --family tilde --n 1 --v0 0 --v1 1 --v2 2",
    "extend --op path --in PATTERNS --k 3 --source 0,1 --target 1,2",
    "extend --op hat --in PATTERNS --k 4",
    "tile --tileset dominoes --dims 2x3 --out OUT",
    "fill --n 4 --k 1 --blocks BLOCKS",
    "count hom --n 1 --d 2",
    "count torus --n 2 --d 1 --graph C5",
    "count tilings --dims 2x2 --tileset dominoes",
    "count dimers --dims 2x3",
    "entropy strips --widths 1..3 --boundary free",
    "entropy dimers --max 3",
    "entropy ratio --nmax 1",
    "verify marker --n 2 --d 2",
    "verify ufp --mode exhaustive --M 1 --n 1 --d 1 --buffer 1",
    "verify ufp --mode targeted --M 1 --n 1",
    "verify tiling --file TILING",
    "verify lipschitz --n 2 --samples 3 --seed 1",
    "height sample --n 2 --d 2 --out OUT",
    "height cocycle --in PATTERNS --base 0,0",
    "height gap --n 2",
]
_JUNK = ["", "-1", "0", "x", "1x", "2..1", "1,,2", "3"]


def _run_argv(argv, fuzz_files):
    """(exit code, stderr) of main(argv) at a budget of 10 000 nodes."""
    folder, files = fuzz_files
    argv = [files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)  # --out and relative junk paths land here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                unittest.mock.patch.dict(os.environ,
                                         {"LATTICELAB_BUDGET": "10000"}):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@pytest.mark.parametrize("base", FUZZ_BASES)
def test_fuzz_bases_pass_unmutated(fuzz_files, base):
    assert _run_argv(base.split(), fuzz_files) == (0, "")


@st.composite
def mutated_argv(draw):
    """A base command line after one to three drops, flag duplications
    and swaps of a token for a junk value."""
    argv = draw(st.sampled_from(FUZZ_BASES)).split()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        flags = [i for i, a in enumerate(argv) if a.startswith("--")]
        if kind == "duplicate" and flags:
            i = draw(st.sampled_from(flags))
            argv += argv[i:i + 2]
        elif argv:
            i = draw(st.integers(0, len(argv) - 1))
            if kind == "drop":
                del argv[i]
            else:
                argv[i] = draw(st.sampled_from(_JUNK))
    return argv


@settings(max_examples=150, deadline=None)
@given(mutated_argv())
@example([])
@example("verify ufp --mode exhaustive --M 0 --n 1 --d 1".split())
def test_mutated_argv_exits_with_a_code_and_one_line(fuzz_files, argv):
    code, stderr = _run_argv(argv, fuzz_files)
    assert "Traceback" not in stderr
    assert code in range(6), (argv, stderr)
    if code:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
