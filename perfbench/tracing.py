"""Span and count recording around latticelab's public functions.

The tracer wraps the program's public functions from the outside: every
module attribute (and class attribute) that is one of the listed objects
is swapped for a wrapper while the tracer is installed, and restored by
uninstall().  A span is (layer, start, end, parent index); counts are
plain integers.  Spans stay in memory until the run writes them out.

Only the benchmark process is traced.  Work that a process pool hands
to its workers shows up as the parent's time inside the calling span.
"""

import json
import time

# layer -> public functions whose calls are recorded as spans of that layer
SPAN_LAYERS = {
    "lattice.region": ["lattice.box_F", "lattice.box_B", "lattice.rectangle",
                       "lattice.shell_F", "lattice.Region.__init__"],
    "homshift.enumerate": ["homshift.enumerate_hom", "homshift.count_hom_dfs",
                           "homshift.checkerboard_set", "homshift.marker_set",
                           "homshift.hat_set"],
    "homshift.patternset": ["homshift.PatternSet.__init__"],
    "homshift.encode": ["homshift.pattern_set_to_jsonl"],
    "homshift.decode": ["homshift.pattern_set_from_jsonl"],
    "homshift.extend": ["homshift.path_extend", "homshift.embed_in_marker",
                        "homshift.hat_extend", "homshift.flexible_fill"],
    "homshift.validate": ["homshift.is_hom", "homshift.in_checkerboard",
                          "homshift.in_hat", "homshift.verify_marker_spacing"],
    "height.cocycle": ["height.height_cocycle"],
    "height.sample": ["height.sample_coloring"],
    "height.lipschitz": ["height.lipschitz_check"],
    "height.gap": ["height.quasiflat_gap", "height.striped_coloring",
                   "height.checker_coloring"],
    "entropy.transfer_build": ["entropy.TransferOperator.__init__"],
    "entropy.transfer_apply": ["entropy.TransferOperator.apply",
                               "entropy.TransferOperator.count_strip",
                               "entropy.TransferOperator.trace_power"],
    "entropy.eigen": ["entropy.strip_entropy"],
    "entropy.dimer": ["entropy.count_dimer_tilings_kasteleyn",
                      "entropy.count_dimer_tilings_dp"],
    "tiling.count": ["tiling.count_tilings"],
    "tiling.construct": ["tiling.tile_rectangle", "tiling.flexible_tile_fill",
                         "tiling.marker_tiling_set",
                         "tiling.partition_complement"],
    "tiling.validate": ["tiling.Tiling.validate"],
    "util.json": ["util.canonical_json"],
    "cli": ["cli.main"],
}

# count name -> public function whose calls are only counted
COUNTED = {
    "lattice.neighbor_calls": "lattice.neighbors",
    "lattice.contains_calls": "lattice.Region.__contains__",
}

# layers whose nested spans are one unit of work for the *_builds/_calls counts
CALL_COUNTS = {
    "lattice.region": "lattice.region_builds",
    "height.cocycle": "height.cocycle_calls",
    "homshift.validate": "homshift.validate_calls",
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = [
    ("lattice.region_s", "s"), ("lattice.region_builds", "count"),
    ("lattice.neighbor_calls", "count"), ("lattice.contains_calls", "count"),
    ("homshift.enumerate_s", "s"), ("homshift.dfs_nodes", "count"),
    ("homshift.patternset_s", "s"), ("homshift.encode_s", "s"),
    ("homshift.encode_mb", "MB"), ("homshift.decode_s", "s"),
    ("homshift.extend_s", "s"), ("homshift.validate_s", "s"),
    ("homshift.validate_calls", "count"),
    ("height.cocycle_s", "s"), ("height.cocycle_calls", "count"),
    ("height.sample_s", "s"), ("height.lipschitz_s", "s"),
    ("height.gap_s", "s"),
    ("entropy.transfer_build_s", "s"), ("entropy.transfer_states", "count"),
    ("entropy.transfer_apply_s", "s"), ("entropy.eigen_s", "s"),
    ("entropy.dimer_s", "s"),
    ("tiling.count_s", "s"), ("tiling.search_nodes", "count"),
    ("tiling.construct_s", "s"), ("tiling.validate_s", "s"),
    ("cli.self_s", "s"), ("util.json_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


def _resolve(package, dotted):
    """(owner, attribute name, object) for 'module.name' or 'module.Class.name'."""
    parts = dotted.split(".")
    owner = getattr(package, parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Records spans and counts while installed on the latticelab package."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = list(modules)
        self.spans = []
        self.stack = []
        self.layers = []
        self.counts = {name: 0 for name in
                       ("lattice.neighbor_calls", "lattice.contains_calls",
                        "homshift.dfs_nodes", "tiling.search_nodes",
                        "homshift.encode_mb", "entropy.transfer_states")}
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, fn):
        spans, stack, layers = self.spans, self.stack, self.layers
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            layers.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                layers.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _tick(self, fn):
        counts, layers = self.counts, self.layers

        def tick(counter, amount=1):
            key = ("tiling.search_nodes" if layers and layers[-1] == "tiling.count"
                   else "homshift.dfs_nodes")
            counts[key] += amount
            return fn(counter, amount)

        return tick

    def _encode(self, fn):
        counts = self.counts

        def encode(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts["homshift.encode_mb"] += len(text) / 1e6
            return text

        return encode

    def _transfer_init(self, fn):
        counts = self.counts

        def init(op, *args, **kwargs):
            fn(op, *args, **kwargs)
            counts["entropy.transfer_states"] += op.size()

        return init

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        """Point every module and class binding of `original` at `wrapper`."""
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _replace_attr(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        pkg = self.package
        for layer, targets in SPAN_LAYERS.items():
            for dotted in targets:
                owner, name, fn = _resolve(pkg, dotted)
                if layer == "homshift.encode":
                    fn_wrapped = self._span(layer, self._encode(fn))
                elif dotted == "entropy.TransferOperator.__init__":
                    fn_wrapped = self._span(layer, self._transfer_init(fn))
                else:
                    fn_wrapped = self._span(layer, fn)
                if isinstance(owner, type):
                    self._replace_attr(owner, name, fn_wrapped)
                else:
                    self._replace(fn, fn_wrapped)
        for count, dotted in COUNTED.items():
            owner, name, fn = _resolve(pkg, dotted)
            wrapped = self._counter(count, fn)
            if isinstance(owner, type):
                self._replace_attr(owner, name, wrapped)
            else:
                self._replace(fn, wrapped)
        counter_cls = pkg.util.BudgetCounter
        self._replace_attr(counter_cls, "tick",
                           self._tick(counter_cls.__dict__["tick"]))

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def mark(self):
        """Position to pass to summary() for the work recorded after now."""
        return len(self.spans), dict(self.counts)

    def summary(self, mark):
        """Per-layer metrics for the spans and counts recorded since mark."""
        first, counts0 = mark
        spans = self.spans[first:]
        self_time = {}
        calls = {}
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        for i, (layer, start, end, parent) in enumerate(spans):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child[i]
            outer = self.spans[parent][0] if parent >= 0 else None
            if layer in CALL_COUNTS and outer != layer:
                calls[layer] = calls.get(layer, 0) + 1
        out = {}
        for layer in SPAN_LAYERS:
            key = "cli.self_s" if layer == "cli" else layer + "_s"
            out[key] = self_time.get(layer, 0.0)
        for layer, key in CALL_COUNTS.items():
            out[key] = calls.get(layer, 0)
        for key, value in self.counts.items():
            out[key] = value - counts0[key]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """Write every recorded span, one JSON list per line, and the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": self.counts}) + "\n")
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps([layer, start, end, parent]) + "\n")
