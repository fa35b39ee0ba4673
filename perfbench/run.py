"""coxkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload splitting --seed 1 --seconds 20 --trace 0

One process, one thread, one caller: each operation starts when the last
one returns.  The program is imported from ``src/`` of the checkout; every
operation's output is checked against the committed references in
``perfbench/refs/``.  Untraced times are scaled to a reference speed of
the host by ``hostclock.HostClock``; the report keeps the wall times.  The
last line of stdout is the result object; the line before it is a report
with sample counts, error rate and the machine.  See ``perfbench/README.md``.
"""

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from hostclock import PROBE_REF_S, HostClock, WallClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "commutators", "cubical", "intlinalg", "simplicial",
           "words")
SETUP_REPS = 31
HELD_OUT_SEED = 20261017


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def import_program():
    """A fresh import of coxkit from this checkout's ``src``."""
    if not (SRC / "coxkit" / "__init__.py").is_file():
        raise BenchError(f"no coxkit package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "coxkit" or n.startswith("coxkit.")]:
        del sys.modules[name]
    cx = SimpleNamespace(**{name: importlib.import_module(f"coxkit.{name}")
                            for name in MODULES})
    origin = Path(cx.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"coxkit was imported from {origin}, not {SRC}")
    return cx


def setup(wl, pool, keys, clock):
    """Import coxkit and prepare every pool input, ``SETUP_REPS`` times
    after one untimed warm-up.  Returns the last state and the median
    (scaled, wall) time of one set-up."""
    times = []
    for _ in range(SETUP_REPS + 1):
        clock.start()
        cx = import_program()
        prepared = {key: wl.prepare(cx, doc) for key, doc in zip(keys, pool)}
        times.append(clock.stop())
    scaled, wall = zip(*times[1:])
    return cx, prepared, statistics.median(scaled), statistics.median(wall)


def load_refs(wl):
    path = HERE / "refs" / f"{wl.name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["refs"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read references {path}: {exc}") from None


class Runner:
    """Runs operations one after another and checks each answer."""

    def __init__(self, wl, cx, pool, keys, prepared, refs):
        self.wl = wl
        self.cx = cx
        self.key_of = {id(doc): key for doc, key in zip(pool, keys)}
        self.prepared = prepared
        self.refs = refs
        self.attempted = 0
        self.failures = []

    def op(self, doc, clock, tracer=None, op_id=-1):
        """One operation; returns its (scaled, wall) latency in seconds,
        as ``clock`` measures them."""
        key = self.key_of[id(doc)]
        prepared = self.prepared[key]
        cache = self.cx.simplicial._reduced_homology_key
        cache.cache_clear()  # every operation starts cold, as a CLI call
        root = tracer.start_op(op_id) if tracer is not None else None
        clock.start()
        try:
            output = self.wl.run(self.cx, prepared)
            error = None
        except (Exception, SystemExit) as exc:
            output = None
            error = f"{type(exc).__name__}: {exc}"
        latency = clock.stop()
        if tracer is not None:
            tracer.end_op(root)
            counts = tracer.op_counts[op_id]
            info = cache.cache_info()
            counts["simplicial.cache_hits"] += info.hits
            counts["simplicial.cache_misses"] += info.misses
            if self.wl.cli and output is not None:
                counts["cli.stdout_bytes"] += len(output[1].encode())
        self.attempted += 1
        if error is None:
            ref = self.refs.get(key)
            try:
                error = ("no reference for this input" if ref is None
                         else self.wl.check(self.cx, doc, output, ref))
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{key}: {error}")
        return latency


def whole_blocks(blocks, seconds):
    """The first block, then each next block while it is expected to end
    within ``seconds`` (judged by the mean block time so far)."""
    start = time.perf_counter()
    for done, block in enumerate(blocks, 1):
        yield block
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return


def measure(runner, blocks, seconds, clock):
    """Untraced run over whole blocks; returns the (scaled, wall) op
    latencies per block."""
    return [[runner.op(doc, clock) for doc in block]
            for block in whole_blocks(blocks, seconds)]


def measure_traced(runner, blocks, seconds):
    """Traced run.  After one untimed warm-up op, every op runs untraced and
    traced, in whole blocks, for about ``seconds`` in all.  The
    first op then runs traced once more, and its exact counts must repeat.
    Times are means over the traced ops; counts are totals over the first
    block.  Returns the per-layer metrics."""
    tracer = spans.Tracer()
    clock = WallClock()
    blocks = iter(blocks)
    first_block = next(blocks)
    runner.op(first_block[0], clock)
    untraced, traced = [], []
    for block in whole_blocks(itertools.chain([first_block], blocks),
                              seconds):
        for doc in block:
            # alternate which of the pair runs first, so that neither side
            # gains from running second on a warmed heap
            op_id = len(untraced)
            if op_id % 2:
                with tracer.installed(runner.cx):
                    traced.append(runner.op(doc, clock, tracer, op_id)[1])
            untraced.append(runner.op(doc, clock)[1])
            if not op_id % 2:
                with tracer.installed(runner.cx):
                    traced.append(runner.op(doc, clock, tracer, op_id)[1])
    n_traced = len(untraced)
    with tracer.installed(runner.cx):
        runner.op(first_block[0], clock, tracer, n_traced)
    once, again = tracer.op_counts[0], tracer.op_counts[n_traced]
    if once != again:
        diff = {k: (once[k], again[k]) for k in set(once) | set(again)
                if once[k] != again[k]}
        raise BenchError(f"exact counts differ between two runs of one "
                         f"operation: {diff}")
    metrics = tracer.layer_metrics(range(n_traced), range(len(first_block)))
    untraced_op = statistics.fmean(untraced)
    metrics["trace.untraced_op_s"] = untraced_op
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - untraced_op
    metrics["trace.ops"] = n_traced
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{runner.wl.name}.spans.tsv.gz")
    # The overhead is a difference of two noisy means; its standard error
    # comes from the per-op differences of each traced/untraced pair.
    pairs = [t - u for t, u in zip(traced, untraced)]
    se = (statistics.stdev(pairs) / len(pairs) ** 0.5
          if len(pairs) > 1 else 0.0)
    gap = metrics["trace.self_sum_s"] - untraced_op
    check = {"self_sum_minus_untraced_s": gap, "overhead_se_s": se,
             "self_times_add_up":
                 abs(gap) <= abs(metrics["trace.overhead_s"]) + 2 * se}
    return metrics, check


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def unit_of(name):
    if name.endswith("_s") or ".smith_s.d" in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        refs = load_refs(wl)
        pool = wl.pool()
        keys = [wl.key(doc) for doc in pool]
        with HostClock() as clock:
            cx, prepared, setup_s, setup_wall_s = setup(wl, pool, keys, clock)
            runner = Runner(wl, cx, pool, keys, prepared, refs)
            # The input pool is large and lives for the whole run; keep the
            # collector from rescanning it during the program's own
            # collections.
            gc.collect()
            gc.freeze()
            blocks = wl.blocks(args.seed, pool)
            report = {"workload": wl.name, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}
            if args.trace:
                metrics, check = measure_traced(runner, blocks, args.seconds)
                printed = {k: {"value": v, "unit": unit_of(k)}
                           for k, v in metrics.items()}
                report.update(check)
            else:
                per_block = measure(runner, blocks, args.seconds, clock)
        if not args.trace:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            scaled = [[t for t, _ in block] for block in per_block]
            latencies = [t for block in scaled for t in block]
            wall = [w for block in per_block for _, w in block]
            n = len(latencies)
            # the median block keeps what the scaling misses of a slow
            # spell of the host from moving the throughput of the whole run
            printed = {
                "ops_per_s": {"value": statistics.median(
                    len(block) / sum(block) for block in scaled),
                    "unit": "1/s"},
                "latency_p50_s": {"value": statistics.median(latencies),
                                  "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            report["latency_samples"] = n
            report["blocks"] = len(per_block)
            report["ops_per_s_overall"] = n / sum(latencies)
            report["latency_p90_s"] = (statistics.quantiles(latencies, n=10)[8]
                                       if n >= 100 else None)
            report["busy_s"] = sum(latencies)
            # the same figures in unscaled wall time, and how much slower
            # than the probe's reference speed the host ran
            report["wall_ops_per_s_overall"] = n / sum(wall)
            report["wall_latency_p50_s"] = statistics.median(wall)
            report["wall_setup_s"] = setup_wall_s
            report["host_slowdown"] = sum(wall) / sum(latencies)
            report["probe_ref_s"] = PROBE_REF_S
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failed = len(runner.failures)
    report.update({
        "attempted": runner.attempted, "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:5],
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()})
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
