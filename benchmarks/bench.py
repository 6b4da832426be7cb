"""Measurement and reporting for `run.py`.

Load model: one closed-loop client. The benchmark starts one CLI
subprocess at a time and waits for it before the next, with no extra
threads. With `--trace 0` it reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` a separate in-process run under the
span tracer reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from click.testing import CliRunner

import antinomy.cli
from antinomy import builtin_registry, classify, generate
import tracing
import workloads
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CLI_TIMEOUT_S = 60.0
PROBE_RUNS = 5            # fresh processes timing import, parse and registry
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2       # empty-input CLI runs per round
LATENCY_ITEMS = 1080      # items timed per pass; their p99 leaves 11 items beyond
LATENCY_SLICE_S = 0.5     # seconds of latency passes per round
TRACE_GENERATE_COUNT = 100
TRACE_DETECT_LINES = 2000


@dataclass(frozen=True)
class CliRun:
    wall_s: float
    exit_code: int
    peak_rss_kb: int
    stdout: bytes
    stderr: str

    @property
    def crashed(self) -> bool:
        return self.exit_code != 0 or "Traceback (most recent call last)" in self.stderr


# Runs antinomy.cli as __main__, as `python -m` does, and at exit records
# the child's own peak RSS. VmHWM belongs to the address space built by
# exec; wait4's ru_maxrss would also count the benchmark's RSS at spawn.
LAUNCHER = """\
import atexit, os, runpy, sys
def report():
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_PEAK_RSS_PATH"], "w") as out:
        out.write(hwm)
atexit.register(report)
sys.argv[0] = "antinomy"
runpy.run_module("antinomy.cli", run_name="__main__", alter_sys=True)
"""


def child_env(**extra: str) -> dict[str, str]:
    """Children import antinomy from this checkout's sources, with a fixed
    hash seed so set iteration order is the same in every run."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **extra)


def run_cli(args: tuple[str, ...], stdin: bytes, tag: str) -> CliRun:
    """Run the CLI once in a fresh interpreter: wall time from spawn to
    exit, and the child's peak RSS."""
    WORK.mkdir(exist_ok=True)
    paths = {name: WORK / f"{tag}.{name}" for name in ("in", "out", "err", "rss")}
    paths["in"].write_bytes(stdin)
    paths["rss"].unlink(missing_ok=True)
    env = child_env(BENCH_PEAK_RSS_PATH=str(paths["rss"]))
    with open(paths["in"], "rb") as fin, open(paths["out"], "wb") as fout, \
            open(paths["err"], "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *args],
                                stdin=fin, stdout=fout, stderr=ferr, cwd=ROOT, env=env)
        # Popen.wait(timeout) polls with sleeps of up to 50 ms; a pidfd
        # becomes readable the moment the child exits.
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CLI_TIMEOUT_S)[0]:
                proc.kill()
            code = proc.wait()
            wall = time.perf_counter() - t0
        finally:
            os.close(pidfd)
    rss = paths["rss"].read_text() if paths["rss"].exists() else "0"
    return CliRun(wall, code, int(rss or 0), paths["out"].read_bytes(),
                  paths["err"].read_text(encoding="utf-8", errors="replace"))


class Tally:
    """Items checked and items failed across every run of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, workload: Workload, run: CliRun) -> None:
        self.attempted += workload.items
        self.failed += (workload.items if run.crashed
                        else workloads.count_failures(workload, run.stdout))


def pinned_check(tally: Tally) -> None:
    """Generate at the default seed and compare with the frozen digest;
    the run also warms the bytecode cache before anything is timed."""
    pinned = workloads.generate_all(workloads.DEFAULT_SEED)
    run = run_cli(pinned.args, b"", "pinned")
    ok = not run.crashed and workloads.check_pinned(run.stdout)
    tally.attempted += pinned.items
    tally.failed += 0 if ok else pinned.items


def setup_run(workload: Workload, tally: Tally) -> float:
    """One CLI run on empty input; it counts as one item, failed unless it
    exits cleanly with empty stdout."""
    run = run_cli(*workloads.empty_input(workload), "setup")
    tally.attempted += 1
    tally.failed += run.crashed or bool(run.stdout)
    return run.wall_s


def latency_calls(workload: Workload):
    """(function, args) for one in-process call per item of a fixed subset."""
    lexicon = workloads.demo_lexicon()
    registry = builtin_registry()
    if workload.name == "generate-all":
        per_class = LATENCY_ITEMS // len(registry)
        seed = workloads.reference_sub_seed
        return [(generate, (lexicon, schema, seed(workload.seed, i * per_class + r)))
                for i, schema in enumerate(registry) for r in range(per_class)]
    return [(classify, (lexicon, registry, line)) for line in workload.lines[:LATENCY_ITEMS]]


def latency_pass(calls, best: list[float]) -> None:
    """Time each call once; keep each item's fastest time (ns) in `best`."""
    clock = time.perf_counter_ns
    for i, (fn, args) in enumerate(calls):
        t0 = clock()
        fn(*args)
        elapsed = clock() - t0
        if elapsed < best[i]:
            best[i] = elapsed


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, round(q / 100 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """Rounds of one workload CLI run, two empty-input CLI runs and about
    LATENCY_SLICE_S of in-process latency passes, until `seconds` are up.

    Interleaving lets every metric sample the same stretches of host load.
    Co-tenant load on a shared host only ever adds time, so throughput
    takes the fastest CLI run and latency each item's fastest call, with
    p50 and p99 taken across items; set-up time takes the median.
    """
    if workload.name == "generate-all":
        pinned_check(tally)
    else:                                          # warms the bytecode cache
        tally.check(workload, run_cli(workload.args, workload.stdin, workload.name))
    calls = latency_calls(workload)
    latency_pass(calls, [0] * len(calls))         # warm-up: caches, lazy set-up
    best = [float("inf")] * len(calls)
    passes = 0
    runs: list[CliRun] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_ROUNDS or time.perf_counter() < deadline:
        run = run_cli(workload.args, workload.stdin, workload.name)
        tally.check(workload, run)
        runs.append(run)
        setup.extend(setup_run(workload, tally) for _ in range(SETUP_PER_ROUND))
        slice_end = time.perf_counter() + LATENCY_SLICE_S
        while time.perf_counter() < slice_end:
            latency_pass(calls, best)
            passes += 1
    best.sort()
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": workload.items / min(r.wall_s for r in runs),
        "item_p50_us": percentile(best, 50) / 1e3,
        "item_p99_us": percentile(best, 99) / 1e3,
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in runs) / 1024,
    }
    notes = [
        f"{len(runs)} rounds; setup_s: median of {len(setup)} CLI runs on empty input",
        f"items_per_s: fastest of {len(runs)} CLI runs of {workload.items} items; "
        f"peak_rss_mb: their median",
        f"item_p50_us, item_p99_us: over {len(calls)} items, each the fastest of "
        f"{passes} in-process calls",
    ]
    return values, notes


PROBE = """\
import json, time
t0 = time.perf_counter()
import antinomy.cli
t1 = time.perf_counter()
from importlib import resources
import antinomy
text = (resources.files("antinomy") / "data" / "demo.lex").read_text(encoding="utf-8")
t2 = time.perf_counter()
antinomy.parse_lexicon(text)
t3 = time.perf_counter()
antinomy.builtin_registry()
t4 = time.perf_counter()
print(json.dumps({"setup.import_s": t1 - t0, "lexicon.parse_s": t3 - t2,
                  "schema.registry_s": t4 - t3}))
"""


def setup_split() -> dict[str, float]:
    """Import, lexicon parse and registry build, each timed in a fresh process."""
    env = child_env()
    probes = []
    for _ in range(PROBE_RUNS):
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        probes.append(json.loads(out.stdout))
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def trace_workload(workload: Workload) -> Workload:
    """The smaller input of the traced run, so its spans fit in memory."""
    if workload.name == "generate-all":
        return workloads.generate_all(workload.seed, TRACE_GENERATE_COUNT)
    return workloads.head(workload, TRACE_DETECT_LINES)


def invoke(workload: Workload):
    """The CLI in this process; returns stdout bytes, or raises."""
    result = CliRunner().invoke(antinomy.cli.main, list(workload.args), input=workload.stdin)
    if result.exit_code != 0 or result.exception is not None:
        raise RuntimeError(f"in-process CLI failed: {result.exception!r}")
    return result.stdout_bytes


class Observed:
    """Counts taken from values the traced functions return."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            ("lines", "schemas", "hits", "checked", "satisfied", "kept",
             "sentences", "skips"), 0)

    def classify(self, args, detections) -> None:
        c = self.counts
        c["lines"] += 1
        c["schemas"] += len(args[1])
        c["hits"] += len(detections)
        c["checked"] += sum(d.relations_checked for d in detections)
        c["satisfied"] += sum(d.relations_satisfied for d in detections)
        c["kept"] += sum(d.score >= workloads.MIN_SCORE for d in detections)

    def generate_batch(self, _args, result) -> None:
        self.counts["sentences"] += len(result.sentences)
        self.counts["skips"] += len(result.skips)

    def metrics(self) -> dict[str, float]:
        c = self.counts
        return {
            "detector.skeleton_hits": c["hits"],
            "detector.hit_ratio": c["hits"] / c["schemas"] if c["schemas"] else 0.0,
            "detector.relations_checked": c["checked"],
            "detector.relations_satisfied": c["satisfied"],
            "detector.kept_ratio": c["kept"] / c["hits"] if c["hits"] else 0.0,
            "generator.sentences": c["sentences"],
            "generator.skips": c["skips"],
        }


def traced_once(workload: Workload) -> tuple[bytes, dict[str, float], tracing.Tracer]:
    tracer = tracing.Tracer()
    observed = Observed()
    observers = {"detector.classify": observed.classify,
                 "generator.generate_batch": observed.generate_batch}
    with tracing.patched(tracer, observers):
        with tracer.span("cli.main"):
            stdout = invoke(workload)
    values = tracing.summarize(tracer)
    values.update(observed.metrics())
    values["cli.bytes_out"] = len(stdout)
    values["rng.draws"] = values.get("rng.next_u64.calls", 0)
    return stdout, values, tracer


def per_layer(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """Untraced and traced in-process runs, alternating until the time is up;
    per-layer values are medians over the traced runs."""
    small = trace_workload(workload)
    reference = run_cli(small.args, small.stdin, f"{small.name}.trace")
    tally.check(small, reference)
    values = setup_split()
    invoke(small)                                  # warm caches before timing
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        invoke(small)
        plain.append(time.perf_counter() - t0)
        stdout, run_values, tracer = traced_once(small)
        tally.attempted += small.items
        if stdout != reference.stdout or abs(
                run_values["trace.self_sum_s"] - run_values["trace.wall_s"]) > 1e-6:
            tally.failed += small.items
        traced.append(run_values)
    tracer.dump(WORK / f"{small.name}.spans.tsv")
    for key in traced[-1]:
        values[key] = statistics.median(run.get(key, 0.0) for run in traced)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(plain)
    notes = [f"traced input: {small.items} items, sha256 {small.digest}",
             f"medians of {len(traced)} traced and {len(plain)} untraced in-process runs",
             f"self times sum to {values['trace.self_sum_s']:.6f} s of "
             f"{values['trace.wall_s']:.6f} s traced wall",
             f"spans of the last traced run: {WORK.name}/{small.name}.spans.tsv"]
    return values, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.BUILDERS[name](seed)
    tally = Tally()
    if trace:
        values, notes = per_layer(workload, seconds, tally)
        spec = SPEC["per_layer"]
    else:
        values, notes = end_to_end(workload, seconds, tally)
        spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec}
    print(f"== {name}  seed {seed}  trace {int(trace)}  items {workload.items}  "
          f"input sha256 {workload.digest}")
    for note in notes:
        print(f"   {note}")
    for metric_name, metric in metrics.items():
        print(f"   {metric_name:<36} {metric['value']:>16.6f} {metric['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"   {'failed_ratio':<36} {ratio:>16.6f} ({tally.failed}/{tally.attempted} items)")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default both, end-to-end first")
    args = parser.parse_args(argv)
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = [run_one(name, args.seed, args.seconds, trace)
               for trace in modes for name in names]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {}}
        for name, result in zip([n for _ in modes for n in names], results):
            summary["metrics"].setdefault(name, {}).update(result["metrics"])
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
