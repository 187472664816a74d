"""End-to-end runs of the command line: exit codes, files, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab import cli, height, homshift
from latticelab.cli import main
from latticelab.homshift import pattern_set_from_jsonl
from latticelab.lattice import Region, box_F
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


def test_extend_hat_many_rings(tmp_path, capsys):
    # a chain of 1 200 ring layers is searched without recursion
    src = tmp_path / "hat.jsonl"
    dst = tmp_path / "extended.jsonl"
    run(capsys, ["enumerate", "--family", "hat", "--n", "1", "--d", "1",
                 "--out", str(src)])
    code, _, stderr = run(capsys, ["extend", "--op", "hat", "--k", "1200",
                                   "--in", str(src), "--out", str(dst)])
    assert (code, stderr) == (0, "")
    inputs, _ = pattern_set_from_jsonl(src.read_text())
    out, _ = pattern_set_from_jsonl(dst.read_text())
    K3 = homshift.graph_preset("K3")
    assert {q.restrict(inputs.region) for q in out} == set(inputs)
    assert len(out) == len(inputs)
    for q in out:
        assert any(homshift.in_checkerboard(K3, q, *edge)
                   for edge in K3.ordered_edges())


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


def _header_only(path, n, d):
    """path: a pattern file of K3 on F_n in d dimensions with no records."""
    path.write_text(json.dumps({"alphabet": ["0", "1", "2"], "count": 0,
                                "region": {"kind": "F", "n": n, "d": d}},
                               separators=(",", ":")) + "\n")
    return path


def test_height_cocycle_checks_the_base_of_a_file_without_records(
        tmp_path, capsys):
    sample = tmp_path / "sample.jsonl"
    assert run(capsys, ["height", "sample", "--n", "1", "--d", "2",
                        "--out", str(sample)])[0] == 0
    for path, base in ((sample, "7,7"),
                       (_header_only(tmp_path / "d2.jsonl", 1, 2), "7,7"),
                       (_header_only(tmp_path / "d4.jsonl", 1, 4), "0,0")):
        assert run(capsys, ["height", "cocycle", "--in", str(path), "--base",
                            base]) == \
            (2, "", "usage error: base (%s) outside the region\n"
             % base.replace(",", ", "))
    code, stdout, _ = run(capsys, ["height", "cocycle", "--in",
                                   str(tmp_path / "d4.jsonl"), "--base",
                                   "0,0,0,0"])
    assert (code, stdout) == (0, '{"base":[0,0,0,0],"count":0,"seed":0}\n')


@pytest.mark.parametrize("argv", [
    ["height", "cocycle"],
    ["extend", "--op", "path", "--source", "0,1", "--target", "1,2", "--k",
     "1"]], ids=["cocycle", "extend"])
def test_a_huge_header_runs_out_of_budget_before_its_box_is_built(tmp_path,
                                                                    argv):
    # F_30 in d = 4 has 61^4 = 13 845 841 sites, past the default budget;
    # building the box took 3 s and 1.4 GB
    path = _header_only(tmp_path / "huge.jsonl", 30, 4)
    start = time.perf_counter()
    rc, peak_kb, out, err = _child(*argv, "--in", str(path))
    assert time.perf_counter() - start < 2
    assert (rc, out, err) == (3, "", "budget exceeded: pattern-file header "
                              "region exceeded the site budget of 10000000\n")
    assert peak_kb <= 100 * 1024


def test_budget_exit_code(capsys):
    code, _, stderr = run(capsys, ["count", "hom", "--graph", "K3",
                                   "--n", "2", "--d", "3",
                                   "--budget", "100"])
    assert code == 3
    assert "budget" in stderr


@pytest.mark.parametrize("argv, line", [
    ("enumerate --family checker --n 4 --budget 100000",
     "search exceeded the node budget of 100000"),
    ("count tilings --dims 20x20 --budget 100",
     "tiling count exceeded the frontier state budget of 100"),
    ("count dimers --dims 40x40 --budget 100",
     "dimer count exceeded the resultant unit budget of 100"),
    ("entropy dimers --max 10 --budget 100",
     "dimer count exceeded the resultant unit budget of 100")],
    ids=["search", "tilings", "dimers", "dimer-table"])
def test_a_budget_exit_names_its_unit(capsys, argv, line):
    assert run(capsys, argv.split()) == \
        (3, "", "budget exceeded: %s\n" % line)


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


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argument errors too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once; calls through it, a usage error among
    # them, print what the same calls print each on a fresh parser
    calls = [["count", "torus", "--n", "2"],
             ["count", "hom", "--n", "x"],
             ["entropy", "strips", "--widths", "1..3", "--seed", "4"],
             ["enumerate", "--family", "cube", "--n", "1"],
             ["count", "dimers", "--dims", "4x6"],
             ["count", "torus", "--n", "2", "--graph", "C5"],
             ["verify", "lipschitz", "--n", "2", "--samples", "3"]]
    shared = [_outcome(capsys, argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == [_outcome(capsys, argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0]
    for code, out, err in shared:
        if code == 2:
            assert out == "" and err.startswith("usage error: ")
            assert err.count("\n") == 1


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
    "--family tilde --n 3":
        "65482fb4283e44a83bb8f070b3c07985c591be456a2180c0f7697b8f6ba34b75",
    "--family checker --n 2 --d 3":
        "e83243180898961eed0f7db38d0713b80aab1b35c15fecc3dbe716c5534d76e9",
}


@pytest.mark.parametrize("args", sorted(ENUMERATE_SHA256))
def test_enumerate_output_bytes_are_pinned(tmp_path, capsys, args):
    out = tmp_path / "family.jsonl"
    code, _, _ = run(capsys, ["enumerate"] + args.split() +
                     ["--seed", "0", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ENUMERATE_SHA256[args]


# SHA-256 of `enumerate --out` at seed 0 on a 13-vertex graph, a path on
# 0..9 and a triangle on 10, 11, 12, as the per-record encoder wrote them:
# the shells on the triangle have only two-digit values, the box mixes
# widths
EDGES13 = "".join("%d %d\n" % (i, i + 1) for i in range(9)) + \
    "10 11\n11 12\n10 12\n"
ENUMERATE13_SHA256 = {
    "--family checker --n 2 --v0 10 --v1 11":
        "45bb0d7d8e70fa4afd1c996f56d9f60ea8501625d6a6a700a807e1104492d149",
    "--family tilde --n 2 --v0 10 --v1 11 --v2 12":
        "f194eef346db839281e20ca32d630e4466efaf71e3a8cfb00fae41d5509c8728",
    "--family box --n 1":
        "3a63806f32a231913e79967e82608d25c789c2190934e58eadc3e3a299f0a691",
}


@pytest.mark.parametrize("args", sorted(ENUMERATE13_SHA256))
def test_enumerate_on_a_13_vertex_graph_bytes_are_pinned(tmp_path, capsys,
                                                         args):
    edges, out = tmp_path / "edges.txt", tmp_path / "family.jsonl"
    edges.write_text(EDGES13)
    code, _, _ = run(capsys, ["enumerate", "--edges", str(edges)]
                     + args.split() + ["--seed", "0", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        ENUMERATE13_SHA256[args]
    text = out.read_text()
    ps, _ = pattern_set_from_jsonl(text)
    assert homshift.encode_rows(ps.rows).decode() == \
        text[text.index("\n") + 1:]


# SHA-256 of `extend --out` at seed 0 on the `enumerate --out` file of
# the first argument, as the per-site ring loops wrote them
EXTEND_SHA256 = {
    ("--family checker --n 2", "--op path --source 0,1 --target 1,2 --k 3"):
        "be30d01f3aeeb87fe83c9fed5588d6ad1df9173353f9959ddff35ef6ccdb18a9",
    ("--family checker --n 2", "--op embed --target 2,0 --k 4"):
        "1cc162ac4c32b1d8cb21aa91cdd86da0409f4bbee72b29ddd3e3da7661c42592",
    ("--family hat --n 2", "--op hat --k 4"):
        "a37090055f6d002de5c034d412cb1b0d6db2c4ed1f04af6f509dcf1b3eeb6339",
    ("--family hat --n 1 --d 3", "--op hat --k 6"):
        "e5a452e1d6ef5777ec870edd2e0e195908418d5538c625bd2bfd57f37eeab7d0",
}


@pytest.mark.parametrize("family, op", sorted(EXTEND_SHA256))
def test_extend_output_bytes_are_pinned(tmp_path, capsys, family, op):
    src, out = tmp_path / "family.jsonl", tmp_path / "extended.jsonl"
    code, _, _ = run(capsys, ["enumerate"] + family.split() +
                     ["--seed", "0", "--out", str(src)])
    assert code == 0
    code, _, _ = run(capsys, ["extend"] + op.split() +
                     ["--in", str(src), "--seed", "0", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EXTEND_SHA256[family, op]


def _child(*argv):
    """(exit code, peak RSS in kB, stdout, stderr) of `latticelab argv` run
    in a child process at the default budget."""
    probe = ("import json, resource, subprocess, sys\n"
             "p = subprocess.run([sys.executable, '-m', 'latticelab.cli'] "
             "+ sys.argv[1:], capture_output=True, text=True)\n"
             "print(json.dumps([p.returncode, resource.getrusage("
             "resource.RUSAGE_CHILDREN).ru_maxrss, p.stdout, p.stderr]))\n")
    env = dict(os.environ)
    env.pop("LATTICELAB_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return tuple(json.loads(out))


def _child_run(*argv):
    """(exit code, peak RSS in kB) of `latticelab argv` run in a child
    process at the default budget."""
    return _child(*argv)[:2]


def test_strip_entropy_width_15_on_orbits():
    # 49 152 free columns in 4 160 orbits; on the full neighbour lists
    # (28.7 M entries) this took about 9 s and 2 GB
    start = time.perf_counter()
    rc, peak_kb, out, err = _child("entropy", "strips", "--widths", "15")
    assert time.perf_counter() - start < 5
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "15,0.444626639254"
    assert peak_kb <= 400 * 1024


BUDGET_LINE = ("budget exceeded: transfer build exceeded the transfer entry "
               "budget of 10000000\n")


@pytest.mark.parametrize("argv, rc, out, err, seconds", [
    # the free columns are charged before any is built, an entry per
    # value, their count stopping once past the budget
    (["entropy", "strips", "--widths", "1000000"], 3, "", BUDGET_LINE, 2),
    (["count", "hom", "--n", "1000000"], 3, "", BUDGET_LINE, 2),
    (["count", "torus", "--n", "1000000"], 3, "", BUDGET_LINE, 2),
    # fewer free columns than the budget, but more values: 3 * 2**21 of
    # width 22, 3 * 2**20 of width 21 and 10 * 3**12 of width 13, so
    # neither the columns nor their orbit images are built
    (["entropy", "strips", "--widths", "22"], 3, "", BUDGET_LINE, 2),
    (["count", "hom", "--n", "10"], 3, "", BUDGET_LINE, 2),
    (["count", "hom", "--graph", "petersen", "--n", "6"], 3, "", BUDGET_LINE,
     2),
    # 9.2 M entries at width 16: every width prints
    (["entropy", "strips", "--widths", "14..16"], 0,
     "# seed=0\nwidth,entropy\n14,0.445602970278\n15,0.444626639254\n"
     "16,0.44377656779\n", "", 10),
    # every width is charged its free columns before the first row
    (["entropy", "strips", "--widths", "1..1000000000"], 3, "", BUDGET_LINE,
     2),
    (["entropy", "strips", "--widths", "5..3"], 2, "",
     "usage error: widths range '5..3' is empty\n", 2),
], ids=["strips-1e6", "hom-1e6", "torus-1e6", "strips-22", "hom-10",
        "hom-petersen-6", "strips-14..16", "strips-1..1e9", "strips-5..3"])
def test_oversized_and_empty_requests_fail_fast(argv, rc, out, err, seconds):
    start = time.perf_counter()
    got, peak_kb, *printed = _child(*argv)
    assert time.perf_counter() - start < seconds
    assert (got, *printed) == (rc, out, err)
    assert peak_kb <= 400 * 1024


@pytest.mark.parametrize("dims, turned", [("2x60", "60x2"),
                                          ("2x5000", "5000x2")])
def test_count_tilings_sweeps_the_long_side(dims, turned):
    # the frontier spans the short side whichever side --dims names first;
    # swept along the first axis, 2x60 did not finish in 60 s of CPU
    counts = []
    for argv in (dims, turned):
        start = time.perf_counter()
        rc, _, out, err = _child("count", "tilings", "--tileset", "dominoes",
                                 "--dims", argv)
        assert time.perf_counter() - start < 5
        assert (rc, err) == (0, "")
        counts.append(json.loads(out)["count"])
    assert counts[0] == counts[1]


def test_tile_reads_back_a_turned_rectangle(tmp_path):
    # 5x12 is not certified by a construction, and is swept as 12x5
    out = tmp_path / "tile.json"
    rc, _, _, err = _child("tile", "--tileset", "squares23", "--dims", "5x12",
                           "--out", str(out))
    assert (rc, err) == (0, "")
    rc, _, stdout, err = _child("verify", "tiling", "--file", str(out))
    assert (rc, err) == (0, "") and '"ok":true' in stdout


def test_count_torus_petersen_n4_on_orbits(tmp_path):
    # 7 590 periodic states fall into 14 orbits of the dihedral group of
    # the column times Aut(petersen); on every state it took about 87 s
    out = tmp_path / "count.json"
    start = time.perf_counter()
    rc, _ = _child_run("count", "torus", "--graph", "petersen", "--n", "4",
                       "--out", str(out))
    assert time.perf_counter() - start < 5
    assert rc == 0
    assert json.loads(out.read_text())["count"] == 1021165402791934230


def test_count_hom_n7_builds_only_the_orbit_neighbours(tmp_path):
    # 49 152 free columns, 28.7 M compatible pairs; the lumped matrix
    # needs the neighbours of the 4 160 orbit representatives only
    out = tmp_path / "count.json"
    rc, peak_kb = _child_run("count", "hom", "--n", "7", "--out", str(out))
    assert rc == 0
    assert json.loads(out.read_text())["count"] == \
        980192371189327713284510199471642989220315132
    assert peak_kb <= 500 * 1024


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


@pytest.mark.parametrize("M, n", [(3, 3), (12, 12), (20, 20)])
def test_verify_ufp_certifies_thin_margins_in_bounded_time(tmp_path, M, n):
    # the height interval decides these windows; a search over the free
    # annulus ran out of budget at --M 3 and held gigabytes at --M 12
    out = tmp_path / "ufp.jsonl"
    start = time.perf_counter()
    rc, peak_kb = _child_run("verify", "ufp", "--M", str(M), "--n", str(n),
                             "--out", str(out))
    assert time.perf_counter() - start < 2
    assert rc == 1
    assert peak_kb <= 100 * 1024
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("role") for r in records] == ["center", "ring", None]
    assert records[2]["check"] == "ufp" and records[2]["ok"] is False


def test_verify_ufp_glues_a_wide_window_in_bounded_time():
    start = time.perf_counter()
    rc, peak_kb = _child_run("verify", "ufp", "--M", "40", "--n", "20")
    assert time.perf_counter() - start < 2
    assert rc == 0
    assert peak_kb <= 200 * 1024


# ---------------------------------------------------------------------------
# extend on pipeline-shaped files: bytes and errors pinned, and the time
# of one file through the row-block ops


@pytest.fixture(scope="module")
def checker3(tmp_path_factory):
    """The `enumerate --family checker --n 3` file (64 914 patterns)."""
    path = tmp_path_factory.mktemp("checker3") / "checker3.jsonl"
    assert main(["enumerate", "--family", "checker", "--n", "3",
                 "--seed", "0", "--out", str(path)]) == 0
    return path


def _every(src, dst, step):
    """dst: the pattern file src keeping every step-th record."""
    lines = src.read_text().splitlines()
    header = json.loads(lines[0])
    header["count"] = len(lines[1::step])
    dst.write_text("\n".join([json.dumps(header)] + lines[1::step]) + "\n")
    return dst


# SHA-256 of `extend --out` at seed 0 on every step-th record of the
# checker --n 3 file, as the per-pattern loop wrote them
PIPELINE_EXTEND_SHA256 = {
    (32, "--op path --source 0,1 --target 2,1 --k 3"):
        "d071a63de4996d84aec5d7428e878a8d4f64b6ab5c2531860ac0d69d558f5dd5",
    (2000, "--op embed --target 1,0 --k 4"):
        "f00af92333b454db3d71bfd7b78d70f8507851c7db4b7ec0239ac0dbb7addf42",
    (1, "--op path --source 0,1 --target 1,2 --k 3"):
        "03f3e3bde65cc591254ed3e843f21ccdc8e63c8b5247396eff124e61d71a2eeb",
    (1, "--op hat --k 4"):
        "da7c9d92af9012170ba8eed486eeeea46d207de5498e6f5bac34283a9e9715dd",
}


@pytest.mark.parametrize("step, op", sorted(PIPELINE_EXTEND_SHA256))
def test_extend_pipeline_bytes_are_pinned(tmp_path, capsys, checker3, step,
                                          op):
    src = _every(checker3, tmp_path / "sub.jsonl", step)
    out = tmp_path / "extended.jsonl"
    code, stdout, stderr = run(capsys, ["extend"] + op.split() + [
        "--in", str(src), "--seed", "0", "--out", str(out)])
    count = len(src.read_text().splitlines()) - 1
    assert (code, stderr) == (0, "")
    assert stdout == "count=%d op=%s k=%s\n" % (count, op.split()[1],
                                                 op.split()[-1])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PIPELINE_EXTEND_SHA256[step, op]


def _colorings(path, region, rows):
    """path: the pattern file of the distinct K3 colourings in rows."""
    ps = homshift.PatternSet(region, [homshift.Pattern(region, r.tobytes())
                                      for r in rows])
    path.write_text(homshift.pattern_set_to_jsonl(ps, homshift.complete_graph(3)))
    return path


def _cocycle_input(name, directory, checker3):
    """The pattern file of a `height cocycle` pin.

    "F3": every 32nd record of the checker --n 3 file, heights -6..6;
    "F5": 1000 sampled colourings of F_5 with the striped one and its
    mirror, heights -20..20 from a corner; "stripe": the striped
    colouring of F_2, heights 0..8 from a corner."""
    path = directory / ("%s.jsonl" % name)
    if name == "F3":
        return _every(checker3, path, 32)
    region = box_F(5 if name == "F5" else 2, 2)
    stripe = height.striped_coloring(region).values
    rows = [np.frombuffer(stripe, dtype=np.uint8)]
    if name == "F5":
        rows += [(3 - rows[0]) % 3, *height.sample_rows(region, range(1000))]
    return _colorings(path, region, rows)


# SHA-256 of `height cocycle --out` at seed 0, as the token and plane
# encoders wrote them: one-digit heights of both signs, one- to
# three-character heights, and heights of one width
COCYCLE_SHA256 = {
    ("F3", "--base=0,0"):
        "bdc3ede5cf6297fbc90b78da14ab78d65a4d9a9556bfc62dc7bfaf36590dd1e3",
    ("F5", "--base=-5,-5"):
        "b282960161406c58050ca7216a129713b448ce02dca1d6a6ddbdf752461a94e9",
    ("stripe", "--base=-2,-2"):
        "f6a07a1f9266cc6d78d505d404f9a81a7932d716b1ec5ebeb8380c1c35d68ce0",
}


@pytest.mark.parametrize("name, base", sorted(COCYCLE_SHA256))
def test_height_cocycle_bytes_are_pinned(tmp_path, capsys, checker3, name,
                                         base):
    src = _cocycle_input(name, tmp_path, checker3)
    out = tmp_path / "heights.jsonl"
    code, _, stderr = run(capsys, ["height", "cocycle", "--in", str(src), base,
                                   "--seed", "0", "--out", str(out)])
    assert (code, stderr) == (0, "")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == COCYCLE_SHA256[name, base]


@pytest.fixture(scope="module")
def battery_inputs(tmp_path_factory):
    """The input files of the criterion-12 battery and of height cocycle."""
    root = tmp_path_factory.mktemp("battery")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", "--graph", "K3", "--family", "hat",
                     "--n", "1", "--d", "2", "--out",
                     str(root / "hat1.jsonl")]) == 0
        assert main(["enumerate", "--family", "checker", "--n", "2",
                     "--out", str(root / "checker2.jsonl")]) == 0
        assert main(["height", "sample", "--n", "2", "--d", "2", "--seed",
                     "5", "--out", str(root / "sample.jsonl")]) == 0
    tiling = tiling_to_json(tile_rectangle(dominoes(), (4, 4)))
    (root / "blocks.json").write_text(json.dumps(
        {"blocks": [{"site": [4, 4], "tiling": tiling}]}))
    return root


# the criterion-12 battery, then height cocycle and extend's other two ops
OUT_ARGVS = [
    "enumerate --graph K3 --family box --n 1 --d 2 --seed 3",
    "extend --graph K3 --op hat --in {dir}/hat1.jsonl --k 4 --seed 3",
    "fill --tileset dominoes --n 4 --k 1 --blocks {dir}/blocks.json",
    "tile --tileset dominoes --dims 8x8",
    "count tilings --tileset dominoes --dims 4x6",
    "entropy ratio --graph K3 --nmax 1",
    "verify marker --graph K3 --n 2 --d 2",
    "verify ufp --graph K3 --M 0 --n 1 --mode exhaustive --d 1",
    "height sample --n 3 --d 2 --seed 42",
    "height cocycle --in {dir}/sample.jsonl --base 0,0 --seed 1",
    "extend --op path --in {dir}/checker2.jsonl --source 0,1 --target 1,2 "
    "--k 3 --seed 2",
    "extend --graph K3 --op embed --in {dir}/hat1.jsonl --target 1,0 --k 4",
]


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=[
    "enumerate", "extend-hat", "fill", "tile", "count-tilings",
    "entropy-ratio", "verify-marker", "verify-ufp", "height-sample",
    "height-cocycle", "extend-path", "extend-embed"])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys,
                                            battery_inputs, argv):
    argv = argv.format(dir=battery_inputs).split()
    out = tmp_path / "out"
    code, summary, err = run(capsys, argv + ["--out", str(out)])
    plain = run(capsys, argv)
    assert plain[::2] == (code, err)
    # stdout carries the text, then the summary line --out leaves there
    assert plain[1].encode("utf-8") == out.read_bytes() + summary.encode()


def _checker2_with(kind):
    """The K3 checker --n 2 family, plus one row: all zeros ("zero"), a
    member whose centre copies its right neighbour ("broken"), or none."""
    K3 = homshift.graph_preset("K3")
    fam = homshift.checkerboard_set(K3, 0, 1, 2, 2)
    rows = [bytearray(p.values) for p in fam]
    if kind == "zero":
        rows.append(bytearray(len(fam.region)))
    elif kind == "broken":
        row = bytearray(rows[len(rows) // 2])
        row[len(row) // 2] = row[len(row) // 2 + 1]
        rows.append(row)
    ps = homshift.PatternSet(fam.region, [homshift.Pattern(fam.region, r)
                                          for r in rows])
    return homshift.pattern_set_to_jsonl(ps, K3)


# (row added to the checker --n 2 family, extend arguments, exit code,
# stderr), as the per-pattern loop ended: a row's own check comes before
# the length and target checks only for the first row, and the first
# failing row decides among rows
EXTEND_ERRORS = [
    ("zero", "--op embed --target 1,2 --k 2", 2,
     "usage error: input not a homomorphism"),
    ("broken", "--op embed --target 1,2 --k 2", 2,
     "usage error: extension length too short: k = 2 but k >= 4 needed"),
    ("broken", "--op embed --target 1,1 --k 5", 2,
     "usage error: target edge (1, 1) is not an edge of H"),
    ("broken", "--op embed --target 1,2 --k 5", 2,
     "usage error: input not a homomorphism"),
    ("zero", "--op hat --k 1", 2,
     "usage error: input shell is not 2-periodic (or not a homomorphism)"),
    ("broken", "--op hat --k 1", 2,
     "usage error: extension length too short: k = 1 but k >= 4 needed"),
    ("broken", "--op hat --k 6", 2,
     "usage error: input shell is not 2-periodic (or not a homomorphism)"),
    ("broken", "--op path --source 0,1 --target 1,2 --k 2", 2,
     "usage error: extension length too short: k = 2 but k >= 3 needed"),
    ("broken", "--op path --source 0,1 --target 1,2 --k 3", 2,
     "usage error: input does not lie in the stated checkerboard family"),
    ("none", "--op path --source 0,2 --target 1,2 --k 3", 2,
     "usage error: input does not lie in the stated checkerboard family"),
]


@pytest.mark.parametrize("kind, op, code, message", EXTEND_ERRORS)
def test_extend_errors_are_pinned(tmp_path, capsys, kind, op, code, message):
    src = tmp_path / "family.jsonl"
    src.write_text(_checker2_with(kind))
    out = tmp_path / "extended.jsonl"
    assert run(capsys, ["extend"] + op.split() + [
        "--in", str(src), "--out", str(out)]) == (code, "", message + "\n")
    assert not out.exists()


def test_extend_hat_without_a_chain_is_a_negative(tmp_path, capsys):
    # with one ring layer left, the family's first row has no chain
    src = tmp_path / "family.jsonl"
    src.write_text(_checker2_with("none"))
    cube, pool = homshift._ring_layers(homshift.graph_preset("K3"), 2)
    with unittest.mock.patch.object(homshift, "_ring_layers",
                                    lambda H, d: (cube, pool[5:6])):
        code, stdout, stderr = run(capsys, ["extend", "--op", "hat",
                                            "--k", "4", "--in", str(src)])
    assert (code, stdout) == (1, "")
    assert stderr == ("negative result: no 2-periodic layer chain of length "
                      "4 extends this pattern to a checkerboard shell\n")


def test_extend_embed_on_the_checker_n3_file_in_a_child(tmp_path, checker3):
    # one embed per pattern took 16.4 s on this file, at 263 MB
    out = tmp_path / "embedded.jsonl"
    start = time.perf_counter()
    rc, peak_kb = _child_run("extend", "--op", "embed", "--k", "4",
                             "--target", "1,2", "--in", str(checker3),
                             "--seed", "0", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0d93a5d9f9d048712a55853723d70dd87ee226f306ea011db105405ce59d9a27"
    assert elapsed < 4
    assert peak_kb <= 256 * 1024

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


@pytest.mark.parametrize("sites,base", [
    ([[0, 2 ** 70], [0, 2 ** 70 + 1]], "0,%d" % 2 ** 70),
    ([[0, -2 ** 62], [0, 2 ** 62]], "0,%d" % -2 ** 62),
], ids=["coordinate", "span"])
def test_regions_past_int64_are_usage_errors(tmp_path, capsys, sites, base):
    # a general region must pack into int64 keys: a coordinate past int64,
    # or a bounding box of more than 2^63 - 1 sites, is a malformed file
    path = tmp_path / "far.jsonl"
    path.write_text(json.dumps({"alphabet": ["0", "1", "2"], "region": {
        "kind": "general", "sites": sites}}) + '\n{"values":[0,1]}\n')
    code, stdout, stderr = run(capsys, ["height", "cocycle", "--in",
                                        str(path), "--base", base])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("usage error: cannot read pattern file ")
    assert "fit int64" in stderr
    assert stderr.count("\n") == 1 and "Traceback" not in stderr


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
