"""End-to-end runs of the command line: exit codes, files, determinism."""

import json

import pytest

from latticelab.cli import main
from latticelab.homshift import pattern_set_from_jsonl
from latticelab.tiling import dominoes, tile_rectangle, tiling_to_json


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


def test_usage_error_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
