"""Run one benchmark workload of latticelab and print its metrics.

    python3 perfbench/run.py --workload heights --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
The workload's op list is built from --seed and run in whole rounds
until --seconds have passed (at least one round; with --trace 1 at least
one untraced and one traced round, alternating).  Every output is
checked against the oracles in oracles.py and must be byte-identical
across rounds.  Op times are rescaled to a reference interpreter speed
measured while they run (see Speedometer), set-up time to a reference
interpreter-start speed measured beside it (see measure_setup).

stdout carries one "metric NAME VALUE UNIT" line per metric, then, as its
last line, a JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the JSON metrics are the end-to-end ones of
BENCHMARK.json; the workload's stage metrics are printed on the lines
before it.  With --trace 1 they are the per-layer metrics, and the spans
are written to perfbench/.out/.
"""

import argparse
import bisect
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORKLOAD_NAMES = ["heights", "counts", "pipeline"]
SETUP_PROBES = 11
# an interpreter that starts, imports nothing of the program and is ready
BARE_START = [sys.executable, "-c", "print('ready', flush=True)"]
# BARE_START's time to ready that defines the reference speed of setup_s
REFERENCE_START_S = 0.06
SAMPLE_EVERY_S = 0.25
# kernel() CPU time that defines the reference speed (a slow phase here)
REFERENCE_KERNEL_S = 0.0029


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true",
                        help="load the program, build the inputs, print "
                             "'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def load_program():
    """Import latticelab from ./src of the checkout, and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "latticelab", "__init__.py")):
        raise SystemExit("perfbench: no latticelab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import latticelab
    if not os.path.abspath(latticelab.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: latticelab imported from %s, not %s"
                         % (latticelab.__file__, SRC))
    import workloads
    return workloads


def time_to_ready(cmd):
    """Wall seconds from starting cmd to its first line, 'ready'."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise SystemExit("perfbench: set-up probe failed (exit %d): %s"
                         % (rc, " ".join(cmd)))
    return elapsed


def measure_setup(args):
    """Set-up seconds at the reference interpreter-start speed.

    SETUP_PROBES times, a fresh interpreter loads the program and builds
    the inputs (run.py --probe), between two starts of a bare one
    (BARE_START).  A probe's time over the mean of the bare starts on
    either side of it tracks the machine's speed of the moment; the
    median ratio times REFERENCE_START_S is the set-up time at the
    reference speed.
    """
    probe = [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"]
    before = time_to_ready(BARE_START)
    ratios = []
    for _ in range(SETUP_PROBES):
        took = time_to_ready(probe)
        after = time_to_ready(BARE_START)
        ratios.append(2 * took / (before + after))
        before = after
    return REFERENCE_START_S * statistics.median(ratios)


def reference_in_child(wl):
    """wl.reference() in a forked child, so that the oracles' memory
    stays out of this process's peak resident memory, which is the
    program's."""
    fork = multiprocessing.get_context("fork")
    recv_end, send_end = fork.Pipe(duplex=False)

    def child():
        wl.reference()
        send_end.send(wl.ref)

    proc = fork.Process(target=child)
    proc.start()
    send_end.close()
    try:
        wl.ref = recv_end.recv()
    except EOFError:
        raise SystemExit("perfbench: the oracles failed (exit %s)"
                         % proc.exitcode) from None
    finally:
        proc.join()


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def digest(blob):
    return hashlib.sha256(blob).hexdigest()


def kernel():
    """Fixed interpreter work whose duration tracks the machine's speed."""
    table = {}
    total = 0
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class Speedometer:
    """Samples how fast the interpreter runs while the ops run.

    A SIGALRM handler times kernel() in CPU seconds of the main thread
    (OpenBLAS threads left spinning by a numpy call do not count) every
    SAMPLE_EVERY_S of wall time.  factor(t0, t1) is REFERENCE_KERNEL_S
    over the median sample taken in [t0, t1] (or the last one before t1),
    so op time, wall or CPU, times the factor is the time the op would
    take at the reference speed.  The handler's own wall and CPU time are
    kept in `spent_wall` and `spent_cpu`, to be taken off op times.
    """

    def __init__(self):
        self.times, self.kernels = [], []
        self.spent_wall = self.spent_cpu = 0.0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.times.append(t1)
        self.kernels.append(c1 - c0)
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        window = self.kernels[lo:hi] or self.kernels[max(hi - 1, 0):hi]
        return REFERENCE_KERNEL_S / statistics.median(window)


class Round:
    """Times, failures, work and output digests of one pass over the ops."""

    def __init__(self):
        self.wall = self.cpu = self.ref_cpu = self.ref_wall = 0.0
        self.peak_rss = 0
        self.attempted = self.failed = 0
        self.unexpected, self.faults, self.digests = [], [], []
        self.ref_wall_by_key, self.work = {}, {}
        self.traced = False


def run_round(wl, speed):
    """Run one round of the op list and check every output."""
    res = Round()
    for op in wl.ops():
        c0, k0 = time.process_time(), children_cpu()
        sw0, sc0 = speed.spent_wall, speed.spent_cpu
        t0 = time.perf_counter()
        raw = error = None
        try:
            raw = op.run()
        except (Exception, SystemExit) as exc:   # a failing op is counted,
            error = exc                          # the run goes on
        t1 = time.perf_counter()
        # high-water mark before this op's check (the checks stay below
        # the program's own peak: see README)
        res.peak_rss = max(res.peak_rss, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss)
        dt = t1 - t0 - (speed.spent_wall - sw0)
        dc = (time.process_time() - c0 + children_cpu() - k0
              - (speed.spent_cpu - sc0))
        scale = speed.factor(t0, t1)
        res.wall += dt
        res.cpu += dc
        res.ref_cpu += dc * scale
        res.ref_wall += dt * scale
        res.attempted += 1
        work = {}
        if error is None:
            try:
                blob, work = op.check(raw)
            except Exception as exc:
                error = exc
        if error is not None:
            res.failed += 1
            note = "%s: %s: %s" % (op.name, type(error).__name__, error)
            (res.faults if op.known_fault else res.unexpected).append(note)
            blob = repr(raw).encode()
        res.digests.append(digest(blob))
        for key, amount in work.items():
            res.work[key] = res.work.get(key, 0) + amount
            res.ref_wall_by_key[key] = (res.ref_wall_by_key.get(key, 0.0)
                                        + dt * scale)
    return res


def stage_values(wl, res):
    """The workload's stage metrics for one round, from its ops' wall time
    at reference speed."""
    out = {}
    for name, unit, kind, key in wl.stages:
        spent = res.ref_wall_by_key.get(key, 0.0)
        if kind == "time":
            out[name] = spent
        elif spent > 0:
            out[name] = res.work.get(key, 0) / spent
    return out


def median_of(rounds, attr):
    return statistics.median(getattr(r, attr) for r in rounds)


def main(argv=None):
    args = parse_args(argv)
    workloads = load_program()
    if args.probe:
        workloads.WORKLOADS[args.workload](args.seed, None)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    speed = Speedometer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        reference_in_child(wl)
        wl.prepare()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(workloads.latticelab, workloads.MODULES)
        rounds, layer_rows = [], []
        speed.start()
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
                mark = tracer.mark()
            try:
                res = run_round(wl, speed)
            finally:
                if traced:
                    tracer.uninstall()
            res.traced = traced
            if traced:
                layer_rows.append(tracer.summary(mark))
            rounds.append(res)
            if (time.perf_counter() - begin >= args.seconds
                    and (tracer is None or len(rounds) >= 2)):
                break
        if tracer is not None:
            tracer.write(os.path.join(
                OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    for res in rounds:
        problems.extend(res.unexpected)
        if res.digests != rounds[0].digests:
            changed = sum(a != b for a, b in zip(res.digests, rounds[0].digests))
            problems.append("%d outputs differ from the first round" % changed)
    for note in sorted(set(problems + [f for r in rounds for f in r.faults])):
        print("perfbench: failed: %s" % note[:300], file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print("workload %s seed %d rounds %d (traced %d) attempted %d failed %d"
          % (args.workload, args.seed, len(rounds), len(layer_rows),
             attempted, failed))
    e2e = {"setup_s": (setup_s, "s"),
           "ref_wall_s": (median_of(plain, "ref_wall"), "s"),
           "ref_cpu_s": (median_of(plain, "ref_cpu"), "s"),
           "peak_rss_mb": (rounds[0].peak_rss / 1024.0, "MB")}
    detail = {"wall_s": (median_of(plain, "wall"), "s"),
              "cpu_s": (median_of(plain, "cpu"), "s")}
    rows = [stage_values(wl, r) for r in plain]
    for name, unit, _, _ in wl.stages:
        values = [row[name] for row in rows if name in row]
        if values:
            detail[name] = (statistics.median(values), unit)
    metrics = e2e
    if tracer is not None:
        import tracing
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = (median_of([r for r in rounds if r.traced], "ref_wall")
                         - e2e["ref_wall_s"][0])
            else:
                value = statistics.median(row[name] for row in layer_rows)
            metrics[name] = (value, unit)
    for name, (value, unit) in (list(e2e.items()) + list(detail.items())
                                + list(metrics.items() if tracer else [])):
        print("metric %s %r %s" % (name, value, unit))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
