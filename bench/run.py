#!/usr/bin/env python3
"""gspans benchmark: one workload per process, exact checks on every op.

    python3 bench/run.py --workload stirling --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
gives the per-layer metrics: it times the first half of the budget untraced,
then replays the same ops (same seed, fresh objects) with every listed layer
wrapped, and reports the tracing overhead between the two passes.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it are a readable report and the run metadata.

Exit status: 0 when every op's result checked out, 1 on a wrong result (the
workload, seed, op index and earlier failures go to stderr, and the JSON line
has "correct": false), 2 on a usage error or when the gspans sources are
missing next to this directory.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 9
# the op-time percentile reported beside the median, on runs with enough ops
# for it to mean something (not stirling's ~20)
TAIL_PERCENT = 90
TAIL_MIN_OPS = 100

# Host-speed reference: a fixed pure-Python loop that takes about
# REF_NOMINAL_S on an uncontended 2-vCPU Intel Xeon VM.  It is sampled every
# REF_EVERY_S while an op runs (from a timer signal, its time taken out of the
# op's) and once after every op.  Each op's time is scaled by REF_NOMINAL_S
# over the trimmed mean of the samples taken during and after it, widened to
# the REF_WINDOW samples nearest to it.  That removes the host's own speed
# swings from the metrics (README.md, Steadiness).
REF_ITERATIONS = 6000
REF_NOMINAL_S = 0.001
REF_WINDOW = 4
# samples taken before the first op, and before and after a set-up probe
REF_AROUND = 24
REF_EVERY_S = 0.025
REF_TRIM = 0.1  # share of samples dropped at each end before averaging


def _child_env():
    env = dict(os.environ)
    env.pop("GSPANS_SIZE_GUARD", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, seed):
    """Runs in a fresh interpreter: import gspans, then generate the inputs
    of the workload's first ops (workloads.setup_inputs); prints the elapsed
    seconds, scaled to the nominal host speed, and raw."""
    before = [reference_loop() for _ in range(REF_AROUND)]
    t0 = time.perf_counter()
    import gspans  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    stream = workloads.rounds(workload, seed)
    count = workloads.setup_inputs(workload)
    if count is None:  # one whole round
        ops = next(stream)
    else:
        ops = itertools.islice(itertools.chain.from_iterable(stream), count)
    for op in ops:
        op.make_input()
    elapsed = time.perf_counter() - t0
    after = [reference_loop() for _ in range(REF_AROUND)]
    scale = REF_NOMINAL_S / host_speed(before + after)
    print(repr(elapsed * scale), repr(elapsed))


def measure_setup(workload, seed):
    """Median set-up time over SETUP_REPEATS fresh interpreters, scaled to
    the nominal host speed; also returns the raw samples."""
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        scaled, elapsed = proc.stdout.split()[-2:]
        samples.append(float(scaled))
        raw.append(float(elapsed))
    return statistics.median(samples), raw


# ---------------------------------------------------------------------------
# the op loop


class Mismatch(Exception):
    """A wrong result; `done` is the Pass up to and including that op."""

    def __init__(self, index, message, done):
        super().__init__("op %d: %s" % (index, message))
        self.index = index
        self.done = done


def reference_loop():
    """One host-speed sample: seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    d = {}
    for i in range(REF_ITERATIONS):
        k = i % 97
        d[k] = d.get(k, 0) + i * i
    return time.perf_counter() - t0


def host_speed(samples):
    """Trimmed mean of reference-loop seconds.  The host switches between a
    fast and a slow state, so a median would jump between the two."""
    ordered = sorted(samples)
    cut = int(len(ordered) * REF_TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class InOpSampler:
    """Takes reference-loop samples every REF_EVERY_S of wall time from a
    SIGALRM handler while armed, so that a long op is sampled while it runs
    rather than only around it.  Records (start, seconds in the handler) for
    each, so that the caller can take the handler's time out of the op's."""

    def __init__(self):
        self.samples = []
        self.stalls = []
        self._old = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.stalls.append((start, time.perf_counter() - start))

    def arm(self):
        self.samples, self.stalls = [], []
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def disarm(self, t0, t1):
        """Stop sampling; return the handler seconds spent within [t0, t1]."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(d for start, d in self.stalls if t0 <= start < t1)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


class Pass:
    """Ops run by run_ops: each op's raw seconds (the sampler's time taken
    out), whether it returned, and the host-speed samples taken during and
    right after it (blocks[0] is taken before the first op)."""

    def __init__(self):
        self.raw = []
        self.ok = []
        self.blocks = [[reference_loop() for _ in range(REF_AROUND)]]
        self.failures = {}

    @property
    def attempted(self):
        return len(self.raw)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def raw_op_time(self):
        return sum(self.raw)

    def ref_samples(self):
        return [x for block in self.blocks for x in block]

    def scaled(self):
        """Each op's seconds at the nominal host speed.  Op i is scaled by
        the host speed over its own block, widened to at least REF_WINDOW
        samples with the blocks around it, alternately after and before."""
        out = []
        for i, dt in enumerate(self.raw):
            near = list(self.blocks[i + 1])
            lo, hi = i, i + 2
            while len(near) < REF_WINDOW and (lo >= 0 or hi < len(self.blocks)):
                if hi < len(self.blocks):
                    near += self.blocks[hi]
                    hi += 1
                if lo >= 0 and len(near) < REF_WINDOW:
                    near += self.blocks[lo]
                    lo -= 1
            out.append(dt * REF_NOMINAL_S / host_speed(near))
        return out


def run_ops(workload, seed, seconds=None, max_ops=None, tracer=None):
    """Run whole rounds from the seeded stream while one more round, as long
    as the last one, still ends within `seconds` of wall time (at least one
    round), or until `max_ops` ops ran.  Inputs are made untimed just before
    each op; results are checked untimed just after it, and the host speed is
    sampled during it and after it."""
    sampler = InOpSampler()
    try:
        return _run_ops(workload, seed, seconds, max_ops, tracer, sampler)
    finally:
        sampler.close()


def _run_ops(workload, seed, seconds, max_ops, tracer, sampler):
    import workloads

    out = Pass()
    clock = time.perf_counter
    start = clock()
    last_round = 0.0
    for ops in workloads.rounds(workload, seed):
        round_start = clock()
        if seconds is not None and out.attempted and \
                round_start + last_round - start > seconds:
            return out
        for op in ops:
            if max_ops is not None and out.attempted >= max_ops:
                return out
            if tracer is not None:
                tracer.op_id = -1
            inputs = op.make_input()
            index = out.attempted
            if tracer is not None:
                tracer.op_id = index
            sampler.arm()
            t0 = clock()
            try:
                result = op.run(inputs)
            except Exception as exc:  # a refused or crashed op is a failure
                t1, ok = clock(), False
                key = type(exc).__name__
                out.failures[key] = out.failures.get(key, 0) + 1
            else:
                t1, ok = clock(), True
            dt = t1 - t0 - sampler.disarm(t0, t1)
            if tracer is not None:
                tracer.op_id = -1
            out.raw.append(dt)
            out.ok.append(ok)
            if ok:
                message = op.check(inputs, result)
                if message is not None:
                    raise Mismatch(index, "%s op: %s" % (op.kind, message), out)
            out.blocks.append(sampler.samples + [reference_loop()])
        last_round = clock() - round_start
    return out


def percentile(values, percent):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def op_metrics(times, ok):
    """ops_per_s, op_p50_ms and, given TAIL_MIN_OPS ops, op_p90_ms from
    per-op seconds.  The time of ops that raised counts in the rate, not in
    the percentiles."""
    done = [t for t, good in zip(times, ok) if good]
    out = {
        "ops_per_s": {"value": len(done) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(done) * 1e3, "unit": "ms"},
    }
    if len(done) >= TAIL_MIN_OPS:
        out["op_p90_ms"] = {"value": percentile(done, TAIL_PERCENT) * 1e3,
                            "unit": "ms"}
    return out


def end_to_end(p, setup_s, extra):
    """The gated metrics; op_p90_ms, which only some workloads have, goes to
    the report lines."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    metrics.update(op_metrics(p.scaled(), p.ok))
    tail = metrics.pop("op_p90_ms", None)
    if tail is not None:
        extra["op_p90_ms"] = tail["value"]
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return metrics


# ---------------------------------------------------------------------------
# metadata


def metadata(workload, seed, seconds, trace):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def report(meta, p, metrics, extra):
    print("meta " + json.dumps(meta, sort_keys=True))
    print("ops attempted=%d failed=%d failed_ratio=%s failures=%s" % (
        p.attempted, p.failed, p.failed / p.attempted if p.attempted else 0.0,
        json.dumps(p.failures, sort_keys=True)))
    for key, value in extra.items():
        print("info %s = %s" % (key, value))
    for name, m in metrics.items():
        print("metric %-48s %14.6g %s" % (name, m["value"], m["unit"]))


def main(argv=None):
    if not (SRC / "gspans" / "__init__.py").is_file():
        print("run.py: gspans sources not found under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("GSPANS_SIZE_GUARD", None)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    extra = {}
    if not args.trace:
        setup_s, extra["setup_raw_samples_s"] = measure_setup(args.workload, args.seed)
    try:
        if args.trace:
            metrics, p = traced_run(args, extra)
        else:
            p = run_ops(args.workload, args.seed, seconds=args.seconds)
            if not any(p.ok):
                print("run.py: no op of %s returned" % args.workload, file=sys.stderr)
                return 1
            metrics = end_to_end(p, setup_s, extra)
    except Mismatch as exc:
        done = exc.done
        print("MISMATCH workload=%s seed=%d %s (failed before it: %s)" % (
            args.workload, args.seed, exc, json.dumps(done.failures, sort_keys=True)),
            file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": done.attempted,
                          "failed": done.failed, "metrics": {}}))
        return 1
    extra["raw_op_time_s"] = p.raw_op_time
    extra["host_ref_mean_ms"] = host_speed(p.ref_samples()) * 1e3
    extra["raw"] = json.dumps({k: v["value"] for k, v in
                               op_metrics(p.raw, p.ok).items()})
    report(meta, p, metrics, extra)
    print(json.dumps({"correct": True, "attempted": p.attempted,
                      "failed": p.failed, "metrics": metrics}))
    return 0


def traced_run(args, extra):
    """Untraced pass over half the budget, then the same ops traced."""
    from tracer import Tracer

    plain = run_ops(args.workload, args.seed, seconds=args.seconds / 2.0)
    gc.collect()  # the traced pass starts without the first pass's garbage
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(args.workload, args.seed, max_ops=plain.attempted,
                         tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced.attempted)
    plain_s, traced_s = plain.scaled(), traced.scaled()
    metrics["trace.untraced_ops_per_s"] = {
        "value": sum(plain.ok) / sum(plain_s), "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {
        "value": sum(traced.ok) / sum(traced_s), "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {
        "value": sum(traced_s) / sum(plain_s) - 1.0, "unit": "ratio"}
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("trace_%s_seed%d.json" % (args.workload, args.seed))
    tracer.dump(path)
    extra["trace_file"] = str(path.relative_to(ROOT))
    extra["spans_recorded"] = len(tracer.spans)
    return metrics, traced


if __name__ == "__main__":
    sys.exit(main())
