"""The holtypes benchmark.

    python3 bench/run.py --workload {corpus,copies,long} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  One closed-loop caller with no think
time calls ``holtypes.cli.main`` in process, one op after another; an op
is one ``main([...])`` call on one theory file, with stdout and stderr
captured.  The seed makes the inputs and the op order; the program only
sees the generated files.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate run in which every op runs once traced and once
untraced.  Names, units and bounds come from ``BENCHMARK.json``.  A report
with every metric, the ladder the growth exponent was fitted from, the
failures and the output digest goes to stdout, and the last line is the
result as one JSON object.  Details and spans are written under
``bench/out``.

An op fails when an exception escapes ``main``, when its exit code is not
the expected one, when its output differs from the first op on the same
input and mode, or when the independent checker (``checker.py``) flags the
JSON artifact of its input.  ``ok_share`` is one minus the failed share.

End-to-end times are scaled to a fixed machine speed (see ``Clock``); the
report also prints the unscaled median.  ``op_tail_ms`` is the p99 on the
corpus and the p75 on the scaling families, whose runs hold ~45 headline
ops: the highest percentile with ten ops beyond it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import checker
import workloads
from tracing import COUNT_KEYS, SPAN_KEYS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = "bench/out"

SETUP_RUNS = 7
LADDER_ROUNDS = 9
CHILD_TIMEOUT_S = 120

# Runs in a fresh interpreter: import holtypes, then one warm-up op.
SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import holtypes
from holtypes.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(["check", sys.argv[2]])
sys.exit(code)
"""


class Ops:
    """Runs ops and keeps what judging them needs: the expected exit
    code, the first output per (input, mode) and the checker's verdict."""

    def __init__(self, cli):
        self.cli = cli
        self.reference = {}              # (input, mode) -> (exit, stdout, stderr)
        self.count = Counter()           # (input, mode) -> ops run
        self.failures = defaultdict(Counter)  # (input, mode) -> reason -> ops
        self.flagged = {}                # input name -> checker problems
        self.extra_attempted = 0
        self.extra_failed = Counter()

    def run(self, inp, mode):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([*mode, inp.path])
        except (Exception, SystemExit) as exc:  # a failed op, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        key = (inp.name, mode)
        result = (code, out.getvalue(), err.getvalue())
        self.count[key] += 1
        if code != inp.expected_exit(mode):
            self.failures[key][f"exit {code}, expected {inp.expected_exit(mode)}"] += 1
        if self.reference.setdefault(key, result) != result:
            self.failures[key]["output differs from the first op"] += 1
        return elapsed, result

    def failed_ops(self):
        failed = Counter()
        for key, n in self.count.items():
            if key[0] in self.flagged:
                failed[key] = n
            elif self.failures[key]:
                failed[key] = max(self.failures[key].values())
        return failed

    def attempted(self):
        return sum(self.count.values()) + self.extra_attempted

    def digest(self):
        h = hashlib.sha256()
        for (name, mode), (code, out, err) in sorted(self.reference.items()):
            h.update("\0".join([name, " ".join(mode), str(code), out, err, ""]).encode())
        return h.hexdigest()


def load_metrics():
    """The end-to-end and per-layer metric entries of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def json_nodes(node):
    """Typed nodes under a JSON node: expressions plus lambda parameters."""
    return 1 + len(node.get("params", ())) + sum(json_nodes(k) for k in node["children"])


def check_outputs(ops, inputs):
    """One JSON op per input: count its nodes and run the checker.
    Returns the checker's self-test verdict."""
    self_tested = None
    for inp in inputs:
        _, (code, out, _) = ops.run(inp, workloads.JSON)
        try:
            docs = json.loads(out)
            problems = checker.check_artifact(docs, inp.source, inp.negative)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            docs, problems = [], [f"unreadable JSON artifact: {exc!r}"]
        inp.nodes = sum(json_nodes(n) for doc in docs for eq in doc["equations"]
                        for n in eq["patterns"] + [eq["rhs"]])
        if problems:
            ops.flagged[inp.name] = problems
        elif self_tested is None and not inp.negative:
            self_tested = checker.self_test(docs, inp.source)
    return bool(self_tested)


def measure_setup(ops, inp, clock):
    """Median scaled wall time of a fresh interpreter importing holtypes
    and running one warm-up op, over ``SETUP_RUNS`` interpreters."""
    def interpreter():
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, inp.path],
                              capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
        elapsed = perf_counter() - start
        ops.extra_attempted += 1
        if proc.returncode != inp.expected_exit(workloads.CHECK):
            ops.extra_failed[f"setup interpreter exited {proc.returncode}"] += 1
        return elapsed

    return statistics.median(s for _, s, _ in clock.timed([interpreter] * SETUP_RUNS))


def measure_peak_mem(ops, pairs):
    """Largest tracemalloc peak over one untimed op per (input, mode)."""
    peak = 0
    for inp, mode in pairs:
        tracemalloc.start()
        try:
            ops.run(inp, mode)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def growth(ladder_times):
    """Least-squares slope of log(median op time) against log(nodes)."""
    points = [(math.log(inp.nodes), math.log(statistics.median(ts)))
              for inp, ts in ladder_times.items()]
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points))


def percentile(samples, q):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Clock:
    """Scales wall times to a fixed reference speed of the machine.

    The effective speed of a shared host drifts by up to 2x within seconds.
    A fixed pure-Python reference loop is timed between chunks of ops.
    Every op time in a chunk is multiplied by ``REFERENCE_S`` over the
    median of the loop times nearest to the chunk (``WINDOW`` before and
    after it), which tracks the drift while averaging out the loop's own
    noise.  A change to holtypes moves the scaled times exactly as it moves
    the raw ones; a change in machine speed moves the loop too.
    """

    REFERENCE_S = 0.008   # near the loop's median time on the 2-core x86-64 VM
                          # the bounds were set on
    CHUNK_S = 0.1         # calibrate at least this often
    WINDOW = 2

    def __init__(self):
        self.loops = []

    @staticmethod
    def _loop():
        table = {}
        for i in range(16000):
            key = (i % 97, str(i % 13))
            table[key] = table.get(key, 0) + len(key[1])
        return table

    def _measure(self):
        start = perf_counter()
        self._loop()
        self.loops.append(perf_counter() - start)

    def timed(self, thunks, seconds=0.0):
        """Run the thunks (each returns its wall time) round after round,
        at least once and until ``seconds`` have passed.  Returns the
        (thunk index, scaled seconds, raw seconds) of every call."""
        first = len(self.loops)
        self._measure()
        calls, chunk_s = [], 0.0   # (index, raw seconds, chunk)
        start = perf_counter()
        while True:
            for k, thunk in enumerate(thunks):
                elapsed = thunk()
                calls.append((k, elapsed, len(self.loops) - first - 1))
                chunk_s += elapsed
                if chunk_s >= self.CHUNK_S:
                    self._measure()
                    chunk_s = 0.0
            if perf_counter() - start >= seconds:
                break
        self._measure()
        loops = self.loops[first:]
        factors = [self.REFERENCE_S / statistics.median(
                       loops[max(0, j - self.WINDOW + 1):j + 1 + self.WINDOW])
                   for j in range(len(loops) - 1)]
        return [(k, raw * factors[j], raw) for k, raw, j in calls]


def timed_loop(ops, stream, seconds, clock):
    """Round after round over the op stream until ``seconds`` have passed.
    Returns (input, scaled seconds, raw seconds) per op."""
    thunks = [lambda inp=inp, mode=mode: ops.run(inp, mode)[0] for inp, mode in stream]
    return [(stream[k][0], scaled, raw) for k, scaled, raw in clock.timed(thunks, seconds)]


def traced_loop(ops, stream, seconds, tracer):
    """Round after round over the op stream until ``seconds`` have passed,
    every op traced and then untraced.  Returns (input, untraced seconds,
    traced seconds, self times, counts) per op."""
    samples = []
    start = perf_counter()
    while True:
        for inp, mode in stream:
            tracer.install()
            try:
                traced, _ = ops.run(inp, mode)
            finally:
                tracer.uninstall()
            self_s, counts = tracer.end_op()
            counts["parser.nodes"] = inp.nodes
            elapsed, _ = ops.run(inp, mode)
            samples.append((inp, elapsed, traced, self_s, counts))
        if perf_counter() - start >= seconds:
            return samples


def layer_metrics(samples, bound, workload):
    """Per-layer metrics over the traced headline ops, and the trace
    self-test: on the corpus every wrapper fires and each op's self times
    cover its wall time within ``bound``."""
    n = len(samples)
    traced = sum(s[2] for s in samples)
    untraced = sum(s[1] for s in samples)
    self_s, counts = Counter(), Counter()
    coverage = []
    for _, _, wall, op_self, op_counts in samples:
        self_s.update(op_self)
        counts.update(op_counts)
        coverage.append(sum(op_self.values()) / wall)
    metrics = {}
    for key in SPAN_KEYS:
        metrics[f"{key}_ms"] = self_s[key] / n * 1e3
        metrics[f"{key}_share"] = self_s[key] / traced
    for key in COUNT_KEYS:
        if key != "infer.subst_hits":
            metrics[key] = counts[key] / n
    metrics["infer.subst_hit_ratio"] = (counts["infer.subst_hits"] / counts["infer.subst_nodes"]
                                        if counts["infer.subst_nodes"] else 0.0)
    metrics["trace.traced_op_ms"] = traced / n * 1e3
    metrics["trace.untraced_op_ms"] = untraced / n * 1e3
    metrics["trace_overhead"] = traced / untraced
    metrics["trace_coverage"] = sum(self_s.values()) / traced
    low = [c for c in coverage if c < 1 - bound]
    problems = []
    if workload == "corpus" and low:
        problems.append(f"{len(low)} of {n} traced ops: self times cover less than "
                        f"{1 - bound:.0%} of wall time (lowest {min(low):.3f})")
    return metrics, problems


def write_out(name, detail, spans=None):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(f"{OUT_DIR}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if spans is not None:
        with open(f"{OUT_DIR}/{name}.spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tkey\tstart_s\tend_s\n")
            for op, sid, parent, key, start, end in spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{key}\t{start:.9f}\t{end:.9f}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "copies", "long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "holtypes", "cli.py")):
        print(f"bench: no holtypes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from holtypes import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"bench: imported holtypes from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metrics()
    began = perf_counter()

    rng = random.Random(args.seed)
    wl = workloads.make_workload(args.workload, rng)
    distinct = list(dict.fromkeys(wl.inputs + wl.ladder))
    workloads.write_inputs(distinct, wl.name)
    ops = Ops(cli)
    problems = []

    if not check_outputs(ops, distinct):
        problems.append("checker self-test: a planted wrong type was not flagged")
    stream = [(inp, mode) for inp in wl.inputs for mode in wl.modes]
    rng.shuffle(stream)

    headline = {inp.name for inp in wl.headline}
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "nodes": {inp.name: inp.nodes for inp in distinct}}

    if args.trace:
        tracer = Tracer().prepare()
        samples = traced_loop(ops, stream, args.seconds, tracer)
        bound = next(m["bound"] for m in end_to_end if m["name"] == "op_p50_ms")
        metrics, trace_problems = layer_metrics(
            [s for s in samples if s[0].name in headline], bound, wl.name)
        problems += trace_problems
        if wl.name == "corpus" and tracer.labels - tracer.fired:
            problems.append(f"wrappers that never fired: {sorted(tracer.labels - tracer.fired)}")
        detail["absent_targets"] = tracer.absent
        wanted = per_layer
    else:
        setup_input = min((i for i in wl.inputs if not i.negative), key=lambda i: len(i.source))
        clock = Clock()
        setup_s = measure_setup(ops, setup_input, clock)
        # Also the warm-up: every op kind of the timed loop runs once here.
        peak_mem_mb = measure_peak_mem(
            ops, [(inp, mode) for inp, mode in stream if inp in wl.headline])
        samples = timed_loop(ops, stream, args.seconds, clock)
        ladder_times = defaultdict(list)
        if wl.ladder is wl.inputs:
            for inp in wl.ladder:
                ladder_times[inp] = [s[1] for s in samples if s[0] is inp]
        else:
            thunks = [lambda inp=inp: ops.run(inp, workloads.CHECK)[0] for inp in wl.ladder]
            for k, scaled, _ in clock.timed(thunks * LADDER_ROUNDS):
                ladder_times[wl.ladder[k % len(wl.ladder)]].append(scaled)
        head = [s for s in samples if s[0].name in headline]
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(s[1] for s in head) * 1e3,
            "op_tail_ms": percentile([s[1] for s in head], wl.tail_percentile) * 1e3,
            "nodes_per_s": sum(s[0].nodes for s in samples) / sum(s[1] for s in samples),
            "growth_exp": growth(ladder_times),
            "peak_mem_mb": peak_mem_mb,
        }
        detail["ladder"] = [
            {"input": inp.name, "size": inp.size, "nodes": inp.nodes,
             "median_ms": statistics.median(ts) * 1e3, "samples": len(ts)}
            for inp, ts in ladder_times.items()
        ]
        detail["tail"] = {"percentile": wl.tail_percentile, "samples": len(head)}
        detail["unscaled"] = {
            "op_p50_ms": statistics.median(s[2] for s in head) * 1e3,
            "nodes_per_s": sum(s[0].nodes for s in samples) / sum(s[2] for s in samples)}
        detail["reference_loop_ms"] = {
            "nominal": Clock.REFERENCE_S * 1e3, "median": statistics.median(clock.loops) * 1e3,
            "min": min(clock.loops) * 1e3, "max": max(clock.loops) * 1e3,
            "count": len(clock.loops)}
        wanted = end_to_end

    failed_ops = ops.failed_ops()
    failed = sum(failed_ops.values()) + sum(ops.extra_failed.values())
    if not args.trace:
        metrics["ok_share"] = 1 - failed / ops.attempted()
    detail.update({
        "ops_timed": len(samples), "attempted": ops.attempted(), "failed": failed,
        "failures": {f"{name} {' '.join(mode)}": dict(ops.failures[(name, mode)])
                     or ops.flagged.get(name) for (name, mode) in failed_ops},
        "setup_failures": dict(ops.extra_failed),
        "checker_flags": ops.flagged, "problems": problems, "digest": ops.digest(),
        "metrics": metrics, "run_wall_s": perf_counter() - began,
    })
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"bench: metrics out of step with BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2

    report(wl, detail, units)
    run_name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    write_out(run_name, detail, tracer.spans if args.trace else None)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": ops.attempted(),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(wl, detail, units):
    print(f"workload {wl.name}  seed {detail['seed']}  seconds {detail['seconds']}  "
          f"trace {detail['trace']}  python {detail['python']}  cpus {detail['cpus']}")
    print(f"inputs: {len(detail['nodes'])} distinct, "
          f"{sum(inp.nodes for inp in wl.inputs)} typed nodes in the op stream's inputs")
    for row in detail.get("ladder", ()):
        print(f"  ladder {row['input']:>10}  size {row['size']:>4}  nodes {row['nodes']:>5}  "
              f"median {row['median_ms']:10.3f} ms  over {row['samples']} ops")
    if "tail" in detail:
        q, n = detail["tail"]["percentile"], detail["tail"]["samples"]
        loop = detail["reference_loop_ms"]
        print(f"op_tail_ms is p{q} of {n} headline ops ({n * (100 - q) // 100} beyond it)")
        print(f"times scaled to a reference loop of {loop['nominal']:.1f} ms; measured "
              f"median {loop['median']:.2f} ms (min {loop['min']:.2f}, max {loop['max']:.2f}, "
              f"{loop['count']} times); unscaled op_p50_ms "
              f"{detail['unscaled']['op_p50_ms']:.6f}, nodes_per_s "
              f"{detail['unscaled']['nodes_per_s']:.6f}")
    for name, unit in units.items():
        print(f"  {name:<32} {detail['metrics'][name]:>16.6f} {unit}")
    print(f"ops timed {detail['ops_timed']}, attempted {detail['attempted']}, "
          f"failed {detail['failed']}")
    for what, why in detail["failures"].items():
        print(f"  failed: {what}: {why}")
    for why, n in detail["setup_failures"].items():
        print(f"  failed: {n} set-up interpreter(s): {why}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print(f"output digest sha256:{detail['digest']}")


if __name__ == "__main__":
    sys.exit(main())
