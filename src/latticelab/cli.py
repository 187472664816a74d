"""Command-line surface for the lattice laboratory.

Subcommands: enumerate, extend, fill, tile, count, entropy, verify,
height.  Exit codes: 0 = pass, 1 = certified negative (a counterexample,
no tiling, an invalid tiling or fill, no extension), 2 = usage error (bad
arguments or a malformed file), 3 = budget exceeded, 4 = precision
failure, 5 = internal error.  Each failure, an argument error included,
prints one line on stderr.  Every output starts with a header carrying
the seed, and rerunning any command with the same arguments produces
byte-identical output regardless of the worker count.
"""

import argparse
import contextlib
import functools
import json
import sys

from . import entropy as entropy_mod
from . import height as height_mod
from . import homshift
from . import lattice
from . import tiling as tiling_mod
from .util import BudgetError, NegativeResult, canonical_json

EXIT_OK = 0

# How main() reports an exception: the first row whose classes match.
_EXITS = (
    (BudgetError, 3, "budget exceeded"),
    (NegativeResult, 1, "negative result"),
    ((ValueError, OSError), 2, "usage error"),
    (ArithmeticError, 4, "precision failure"),
    (Exception, 5, "internal error"),
)


def _positive(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


# argparse names the type in "invalid <name> value: 'x'"
_positive.__name__ = "positive integer"


def _ints(text, sep, what, form, count=None):
    """The integers of text split at sep (at whitespace when sep is None);
    ValueError unless there are count of them, or any number when count
    is None."""
    try:
        values = tuple(int(p) for p in text.split(sep))
    except ValueError:
        values = ()
    if not values or (count is not None and len(values) != count):
        raise ValueError("%s must look like %s, got %r" % (what, form, text))
    return values


def _parse_dims(text):
    dims = _ints(text.lower(), "x", "dims", "4x4")
    if any(a < 1 for a in dims):
        raise ValueError("dims must be positive, got %r" % (text,))
    return dims


def _parse_widths(text):
    if ".." in text:
        lo, hi = _ints(text, "..", "widths range", "2..8", 2)
        if lo > hi:
            raise ValueError("widths range %r is empty" % (text,))
        return range(lo, hi + 1)
    return _ints(text, ",", "widths", "2,4,6")


def _read(path, what, parse):
    """parse(text) of the file at path; any failure is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError("cannot read %s %s: %s" % (what, path, exc))


def _parse_edges(text):
    edges = [_ints(ln, None, "edge", "u v", 2) for ln in text.splitlines()
             if ln.strip()]
    if not edges:
        raise ValueError("no edges")
    return homshift.TargetGraph(sorted({u for e in edges for u in e}), edges)


def _load_graph(args):
    if getattr(args, "edges", None):
        return _read(args.edges, "edge list", _parse_edges)
    return homshift.graph_preset(args.graph)


def _load_patterns(args):
    return _read(args.infile, "pattern file", functools.partial(
        homshift.pattern_set_from_jsonl, budget=args.budget))


def _parse_tiling(text):
    obj = json.loads(text)
    if "tiling" in obj:
        obj = obj["tiling"]
    return tiling_mod.tiling_from_json(obj, validate=False)


def _parse_blocks(text, d):
    """(sites in file order, site -> tiling).  A repeated site stays in
    the list, so that the fill rejects it."""
    raw = json.loads(text)
    sites, blocks = [], {}
    for entry in raw["blocks"] if isinstance(raw, dict) else raw:
        site = lattice.int_tuple(entry["site"], "block site", d)
        sites.append(site)
        blocks[site] = tiling_mod.tiling_from_json(entry["tiling"])
    return sites, blocks


def _marker_colors(H, args):
    return tuple(c if given is None else given for c, given in zip(
        entropy_mod.canonical_marker_triple(H), (args.v0, args.v1, args.v2)))


def _emit(args, text, summary=None):
    """Write text, a str or blocks of ASCII bytes (bytes-like objects, as
    homshift.record_block gives them), to --out or stdout.

    --out is written in binary mode: the blocks go out as they come,
    without a copy, and a str once as UTF-8, the bytes stdout gets as a
    text stream."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "wb") as fh:
            fh.writelines([text.encode()] if isinstance(text, str) else text)
    else:
        sys.stdout.writelines([text] if isinstance(text, str)
                              else (str(block, "ascii") for block in text))
    if summary is not None:
        print(summary)


@contextlib.contextmanager
def _all_digits():
    """Let int -> str conversion take any number of digits, so that a
    count prints in full past the 4 300 digits Python allows by default
    (a 200 x 200 dimer count has 5 040).  Input parsing keeps the limit."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def _record(args, payload):
    rec = {"command": args.cmd, "seed": args.seed}
    rec.update(payload)
    with _all_digits():
        return canonical_json(rec) + "\n"


# Sites held per block of rows that the height commands lift or sample.
_BLOCK_SITES = 1 << 16


def _block_rows(region):
    return max(1, _BLOCK_SITES // max(1, len(region)))


def _tiling_text(args, t):
    """The output record of a constructed tiling, validated first."""
    t.validate()
    return canonical_json({"seed": args.seed,
                           "tiling": tiling_mod.tiling_to_json(t)}) + "\n"


def cmd_enumerate(args):
    H = _load_graph(args)
    n, d = args.n, args.d
    if args.family == "box":
        ps = homshift.enumerate_hom(H, lattice.box_F(n, d),
                                    budget=args.budget)
    elif args.family == "checker":
        v0, v1, _ = _marker_colors(H, args)
        ps = homshift.checkerboard_set(H, v0, v1, n, d, budget=args.budget)
    elif args.family == "tilde":
        v0, v1, v2 = _marker_colors(H, args)
        ps = homshift.marker_set(H, v0, v1, v2, n, d, budget=args.budget)
    else:
        ps = homshift.hat_set(H, n, d, budget=args.budget)
    _emit(args, homshift.pattern_set_jsonl_blocks(ps, H, seed=args.seed),
          "count=%d family=%s n=%d d=%d" % (len(ps), args.family, n, d))
    return EXIT_OK


def cmd_extend(args):
    H = _load_graph(args)
    ps, header = _load_patterns(args)
    if len(ps) == 0:
        raise ValueError("pattern file %s holds no patterns" % args.infile)
    if len(header["alphabet"]) > H.n:
        raise ValueError("pattern file %s has a %d-letter alphabet but the "
                         "graph has %d vertices"
                         % (args.infile, len(header["alphabet"]), H.n))
    if args.op == "path":
        if args.source is None or args.target is None:
            raise ValueError("op path needs --source and --target")
        source = _ints(args.source, ",", "source", "u,v", 2)
    elif args.op == "embed" and args.target is None:
        raise ValueError("op embed needs --target")
    if args.op != "hat":
        target = _ints(args.target, ",", "target", "u,v", 2)
    if args.op == "path":
        region, rows = homshift.path_extend_rows(H, ps.region, ps.rows,
                                                 source, target, args.k)
    elif args.op == "embed":
        region, rows = homshift.embed_in_marker_rows(H, ps.region, ps.rows,
                                                     target, args.k)
    else:
        region, _, rows = homshift.hat_extend_rows(H, ps.region, ps.rows,
                                                   args.k)
    out = homshift.PatternSet.view(region, homshift.sort_rows(rows))
    _emit(args, homshift.pattern_set_jsonl_blocks(out, H, seed=args.seed),
          "count=%d op=%s k=%d" % (len(out), args.op, args.k))
    return EXIT_OK


def cmd_tile(args):
    F = tiling_mod.tile_preset(args.tileset)
    dims = _parse_dims(args.dims)
    try:
        t = tiling_mod.tile_rectangle(F, dims)
    except ValueError:
        # not certified by a construction: decide it by the exact search
        t = tiling_mod.find_tiling(F, lattice.rectangle(dims),
                                   budget=args.budget)
        if t is None:
            raise NegativeResult("untileable: the %s rectangle has no tiling "
                                 "by %s" % (args.dims, args.tileset))
    _emit(args, _tiling_text(args, t),
          "tiled dims=%s tiles=%d" % (args.dims, len(t.placements)))
    return EXIT_OK


def cmd_fill(args):
    F = tiling_mod.tile_preset(args.tileset)
    sites, blocks = [], {}
    if args.blocks:
        sites, blocks = _read(args.blocks, "blocks file",
                              lambda text: _parse_blocks(text, F.d))
    try:
        t = tiling_mod.flexible_tile_fill(F, args.n, args.k, sites, blocks)
    except ValueError as exc:
        raise NegativeResult("no admissible fill: %s" % exc)
    _emit(args, _tiling_text(args, t), "filled n=%d k=%d blocks=%d"
          % (args.n, args.k, len(sites)))
    return EXIT_OK


def cmd_count(args):
    if args.what in ("hom", "torus"):
        H = _load_graph(args)
        if args.what == "hom":
            value = entropy_mod.count_hom_box(H, args.n, args.d,
                                              budget=args.budget)
        else:
            value = entropy_mod.count_hom_torus(H, args.n, args.d,
                                                budget=args.budget)
        source = "edges" if args.edges else "graph"
        params = {"what": args.what, source: getattr(args, source),
                  "n": args.n, "d": args.d}
    elif args.what == "tilings":
        F = tiling_mod.tile_preset(args.tileset)
        dims = _parse_dims(args.dims)
        value = tiling_mod.count_tilings(F, lattice.rectangle(dims),
                                         budget=args.budget)
        params = {"what": "tilings", "tileset": args.tileset,
                  "dims": list(dims)}
    else:
        dims = _parse_dims(args.dims)
        if len(dims) != 2:
            raise ValueError("dimers need two dims, got %r" % (args.dims,))
        value = entropy_mod.count_dimer_tilings_kasteleyn(
            dims[0], dims[1], entropy_mod.dimer_counter(args.budget))
        params = {"what": "dimers", "dims": list(dims)}
    params["count"] = value
    _emit(args, _record(args, params))
    return EXIT_OK


def cmd_entropy(args):
    lines = ["# seed=%d" % args.seed]
    if args.what == "dimers":
        lines.append("m,n,count")
        counter = entropy_mod.dimer_counter(args.budget)  # one for the table
        for m, n, count in entropy_mod.dimer_table(args.max, counter):
            with _all_digits():
                lines.append("%d,%d,%d" % (m, n, count))
    elif args.what == "strips":
        H = _load_graph(args)
        widths = _parse_widths(args.widths)
        # refuse a width past the budget or without states before any row
        for w in widths:
            entropy_mod.TransferOperator.check(H, w, args.boundary,
                                               args.budget)
        lines.append("width,entropy")
        for w in widths:
            h = entropy_mod.strip_entropy(H, w, boundary=args.boundary,
                                          budget=args.budget)
            lines.append("%d,%.12g" % (w, h))
    else:
        H = _load_graph(args)
        report = entropy_mod.entropy_ratio_report(H, args.nmax, d=args.d,
                                                  budget=args.budget)
        text = "# seed=%d\n%s" % (args.seed, report.to_csv())
        _emit(args, text)
        return EXIT_OK
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _ufp_records(args, hit):
    x, y = hit
    lines = [
        canonical_json({"role": "center",
                        "region": x.region.kind_descriptor(),
                        "values": list(x.values)}),
        canonical_json({"role": "ring",
                        "region": y.region.kind_descriptor(),
                        "values": list(y.values)}),
        _record(args, {"check": "ufp", "ok": False, "M": args.M,
                       "n": args.n, "buffer": args.buffer,
                       "mode": args.mode}).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def cmd_verify(args):
    if args.what == "marker":
        H = _load_graph(args)
        if args.n < 1:
            raise ValueError("marker family index must be >= 1")
        v0, v1, v2 = _marker_colors(H, args)
        family = homshift.marker_set(H, v0, v1, v2, args.n - 1, args.d,
                                     budget=args.budget)
        spacing = args.n - 1
        hit = homshift.verify_marker_spacing(family, spacing)
        if hit is None:
            _emit(args, _record(args, {"check": "marker", "ok": True,
                                       "n": args.n, "d": args.d,
                                       "spacing": spacing,
                                       "members": len(family)}))
            return EXIT_OK
        _emit(args, _record(args, {"check": "marker", "ok": False,
                                   "n": args.n, "d": args.d,
                                   "spacing": spacing,
                                   "offset": list(hit[2])}))
        raise NegativeResult("marker patterns agree at offset %r" % (hit[2],))
    if args.what == "ufp":
        H = _load_graph(args)
        hit = height_mod.ufp_window_check(H, args.M, args.n,
                                          buffer=args.buffer, mode=args.mode,
                                          d=args.d, budget=args.budget)
        if hit is None:
            _emit(args, _record(args, {"check": "ufp", "ok": True,
                                       "M": args.M, "n": args.n,
                                       "buffer": args.buffer,
                                       "mode": args.mode}))
            return EXIT_OK
        _emit(args, _ufp_records(args, hit))
        raise NegativeResult("a center and a ring do not glue")
    if args.what == "tiling":
        if args.file is None:
            raise ValueError("verify tiling needs --file")
        t = _read(args.file, "tiling file", _parse_tiling)
        try:
            t.validate()
        except ValueError as exc:
            _emit(args, _record(args, {"check": "tiling", "ok": False,
                                       "reason": str(exc)}))
            raise NegativeResult("invalid tiling: %s" % exc)
        _emit(args, _record(args, {"check": "tiling", "ok": True,
                                   "tiles": len(t.placements)}))
        return EXIT_OK
    # lipschitz: height bound on freshly sampled colorings, a block of
    # seeds at a time.  On a box the sampler never blocks and every sample
    # lifts, so the first seed breaking the bound is the first failure.
    region = lattice.box_F(args.n, args.d)
    base = (0,) * args.d
    step = _block_rows(region)
    for start in range(0, args.samples, step):
        seeds = range(args.seed + start,
                      args.seed + min(start + step, args.samples))
        heights = height_mod.lift_rows(
            region, base, height_mod.sample_rows(region, seeds))
        bad = height_mod.lipschitz_rows(region, base, heights)
        if bad is not None:
            row, site, h, bound = bad
            _emit(args, _record(args, {"check": "lipschitz", "ok": False,
                                       "n": args.n, "d": args.d,
                                       "sample_seed": seeds[row],
                                       "site": list(site), "height": h,
                                       "bound": bound}))
            raise NegativeResult("height bound broken at seed %d"
                                 % seeds[row])
    _emit(args, _record(args, {"check": "lipschitz", "ok": True,
                               "n": args.n, "d": args.d,
                               "samples": args.samples,
                               "first_seed": args.seed,
                               "last_seed": args.seed + args.samples - 1}))
    return EXIT_OK


def cmd_height(args):
    if args.what == "sample":
        region = lattice.box_F(args.n, args.d)
        p = height_mod.sample_coloring(region, args.seed)
        ps = homshift.PatternSet(region, [p])
        _emit(args, homshift.pattern_set_jsonl_blocks(
            ps, homshift.complete_graph(3), seed=args.seed),
            "sampled n=%d d=%d" % (args.n, args.d))
        return EXIT_OK
    if args.what == "cocycle":
        if args.infile is None:
            raise ValueError("height cocycle needs --in")
        ps, _ = _load_patterns(args)
        base = _ints(args.base, ",", "base site", "i,j")
        height_mod.check_base(ps.region, base)
        blocks = [(canonical_json({"seed": args.seed, "base": list(base),
                                   "count": len(ps)}) + "\n").encode()]
        step = _block_rows(ps.region)
        for start in range(0, len(ps), step):
            heights = height_mod.lift_rows(ps.region, base,
                                           ps.rows[start:start + step])
            blocks.append(homshift.record_block(heights, "heights"))
        _emit(args, blocks)
        return EXIT_OK
    # gap: quasiflat gap of the two reference colorings
    region = lattice.box_F(args.n, args.d)
    samples = [height_mod.striped_coloring(region),
               height_mod.checker_coloring(region)]
    gap = height_mod.quasiflat_gap(samples, list(region))
    _emit(args, _record(args, {"check": "quasiflat_gap", "n": args.n,
                               "d": args.d, "gap": gap}))
    return EXIT_OK


def _add_common(sub, out=True):
    sub.add_argument("--seed", type=int, default=0,
                     help="seed recorded in output headers (default 0)")
    sub.add_argument("--budget", type=_positive, default=None,
                     help="work budget in the command's own unit, per width "
                     "in entropy strips (README; default from environment)")
    sub.add_argument("--workers", type=_positive, default=1,
                     help="accepted for compatibility; has no effect")
    if out:
        sub.add_argument("--out", default=None,
                         help="output file (default stdout)")


def _add_graph(sub):
    sub.add_argument("--graph", default="K3",
                     help="named graph preset (default K3)")
    sub.add_argument("--edges", default=None,
                     help="edge list file: one 'u v' pair per line")


def _add_colors(sub):
    sub.add_argument("--v0", type=int, default=None)
    sub.add_argument("--v1", type=int, default=None)
    sub.add_argument("--v2", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Argument errors, the subparsers' too, are one line and exit 2."""

    def error(self, message):
        self.exit(2, "usage error: %s\n" % " ".join(message.splitlines()))


def build_parser():
    parser = _Parser(
        prog="latticelab",
        description="pattern families, tilings, entropy counts and height "
                    "checks on small lattice windows")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("enumerate", help="enumerate a pattern family")
    _add_graph(p)
    _add_colors(p)
    p.add_argument("--family", choices=["box", "checker", "tilde", "hat"],
                   default="box")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("extend", help="extend patterns from a file")
    _add_graph(p)
    p.add_argument("--op", choices=["path", "embed", "hat"], required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="pattern file from 'enumerate'")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--source", default=None, help="edge 'u,v' (op path)")
    p.add_argument("--target", default=None,
                   help="edge 'u,v' (ops path and embed)")
    _add_common(p)
    p.set_defaults(func=cmd_extend)

    p = subs.add_parser("tile", help="tile a rectangle")
    p.add_argument("--tileset", default="dominoes")
    p.add_argument("--dims", required=True, help="like 4x4")
    _add_common(p)
    p.set_defaults(func=cmd_tile)

    p = subs.add_parser("fill", help="tile a box around prescribed blocks")
    p.add_argument("--tileset", default="dominoes")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--blocks", default=None,
                   help="JSON file of {site, tiling} blocks")
    _add_common(p)
    p.set_defaults(func=cmd_fill)

    p = subs.add_parser("count", help="exact counts")
    p.add_argument("what", choices=["hom", "torus", "tilings", "dimers"])
    _add_graph(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--tileset", default="dominoes")
    p.add_argument("--dims", default="4x4")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("entropy", help="entropy tables")
    p.add_argument("what", choices=["dimers", "strips", "ratio"])
    _add_graph(p)
    p.add_argument("--max", type=_positive, default=8,
                   help="largest side for the dimer table")
    p.add_argument("--widths", default="1..8",
                   help="strip widths, like 2..8 or 2,4,6")
    p.add_argument("--boundary", choices=["free", "periodic"],
                   default="free")
    p.add_argument("--nmax", type=_positive, default=2,
                   help="largest box index for the ratio table")
    p.add_argument("--d", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("verify", help="run a checker, exit 1 on negatives")
    p.add_argument("what", choices=["marker", "ufp", "tiling", "lipschitz"])
    _add_graph(p)
    _add_colors(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--buffer", type=_positive, default=1)
    p.add_argument("--mode", choices=["targeted", "exhaustive"],
                   default="targeted")
    p.add_argument("--file", default=None, help="tiling JSON to validate")
    p.add_argument("--samples", type=_positive, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("height", help="height-field utilities")
    p.add_argument("what", choices=["sample", "cocycle", "gap"])
    p.add_argument("--n", type=_positive, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--in", dest="infile", default=None,
                   help="pattern file (what=cocycle)")
    p.add_argument("--base", default="0,0", help="base site 'i,j'")
    _add_common(p)
    p.set_defaults(func=cmd_height)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser main uses, built on its first call: argparse makes a
    help formatter, which reads the terminal size, for each argument, so
    one parser serves every call in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        kinds, code, prefix = next(row for row in _EXITS
                                   if isinstance(exc, row[0]))
        message = str(exc)
        if kinds is Exception:  # a bug: name the exception
            message = "%s: %s" % (type(exc).__name__, message)
        print("%s: %s" % (prefix, " ".join(message.splitlines())),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
