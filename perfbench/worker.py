"""Run one workload in this process: set up, measure, check, report.

``run.py`` starts this script in a child process of its own, under an
address-space cap, and reads the JSON object it prints last.

Set-up (importing ``borrays`` and building the inputs) is timed in
short child processes started between passes, every few seconds of the
run and after the last pass, so that its samples spread over the run as
the passes do and its memory stays out of this process's peak.  Each
child sets up several times; before each set-up every module the
previous one imported is dropped, so each imports everything again.
``setup_s`` is the median of all of them.  A traced run reports no
``setup_s`` and starts no such child.

The loop is closed with one client: each command is a call of
``borrays.cli.main`` with a generated argv list, made after the previous
one returned.  A pass runs the whole command list once; passes repeat
while the next one fits in ``--seconds``.  Every command runs at least
twice, so every output is compared with a repeat: with ``--trace 1`` each
command also runs traced, right after its untraced run; without it there
are at least two passes.
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
TRACE_DIR = BENCH_DIR / "out"
# One set-up takes 30-80 ms, so a single one moves with the load of a
# shared machine at that moment; many, spread over the run like the
# passes, have a median that moves no more than wall_s does.
SETUP_BURST = 6  # set-ups per child process
SETUP_EVERY_S = 3.0  # seconds of the run between set-up processes


def load_program():
    """Import borrays from this checkout's sources, never from elsewhere."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import borrays
    import borrays.cli

    if Path(borrays.__file__).resolve().parent != SRC_DIR / "borrays":
        raise ImportError(f"borrays imported from {borrays.__file__}, not {SRC_DIR}")
    return borrays


def set_up(workload, seed, tiny, baseline):
    """Seconds to import borrays afresh and build the inputs.

    Every module not in ``baseline`` is dropped first, and the garbage
    of the previous import is collected outside the timed part."""
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    load_program()
    workloads.build(workload, seed, tiny)
    return perf_counter() - start


def current_cpu():
    """The CPU this process last ran on, or None where that is unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


def set_up_elsewhere(args):
    """Times of SETUP_BURST set-ups, made in a child process.

    The child runs on the CPU this process was running on, which is idle
    while it waits.  Left to the scheduler, children land on either CPU,
    and on a shared machine the two can differ in speed by 40%, which
    splits the set-up samples into two groups."""
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    cpu = current_cpu()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60,
                          preexec_fn=pin)
    return json.loads(proc.stdout)


class NodeCounter:
    """Sums the node counts the search kernel returns."""

    def __init__(self, kernel):
        self.nodes = 0
        self.present = hasattr(kernel, "search_homs")
        if self.present:
            search = kernel.search_homs

            def counted(*args, **kwargs):
                result = search(*args, **kwargs)
                self.nodes += result[2]
                return result
            kernel.search_homs = counted


def run_case(main, case):
    """Run one command; (exit code, stdout, seconds)."""
    out, err = StringIO(), StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(case.argv))
    except Exception as exc:  # a traceback or the memory cap: a failed command
        rc = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if rc != 0 and err.getvalue():
        rc = f"{rc} ({err.getvalue().splitlines()[0]})"
    return rc, out.getvalue(), seconds


def run_pass(main, cases, counter, reference=None, tracer=None):
    """Run every case once, untraced; with a tracer, run each case again
    traced right after it, so both see the same machine load.

    Without a reference the untraced (exit code, output) pairs are kept
    and returned as ``outputs``.  With one, each output is compared with
    it at once and dropped, so memory does not grow with passes; then
    ``untraced_diff`` holds the indices whose output differs.  The traced
    outputs are always compared, in ``traced_diff``."""
    result = {"outputs": [], "untraced_diff": None, "traced_diff": None,
              "seconds": [], "traced_seconds": [], "nodes": 0}
    if reference is not None:
        result["untraced_diff"] = set()
    if tracer:
        result["traced_diff"] = set()
        traced_main = tracer.traced_main(main)
    for i, case in enumerate(cases):
        before = counter.nodes
        rc, out, seconds = run_case(main, case)
        result["nodes"] += counter.nodes - before
        result["seconds"].append(seconds)
        if reference is None:
            result["outputs"].append((rc, out))
            expected = (rc, out)
        else:
            expected = reference[i]
            if (rc, out) != expected:
                result["untraced_diff"].add(i)
        if tracer:
            tracer.install()
            try:
                rc, out, seconds = run_case(traced_main, case)
            finally:
                tracer.remove()
            result["traced_seconds"].append(seconds)
            if (rc, out) != expected:
                result["traced_diff"].add(i)
    return result


def wrong_outputs(cases, outputs):
    """Index -> reason for each output the independent references reject."""
    wrong = {}
    for i, (case, (rc, out)) in enumerate(zip(cases, outputs)):
        try:
            why = workloads.check(case, rc, out)
        except Exception as exc:  # output the checker cannot read is wrong output
            why = f"unreadable output ({type(exc).__name__}: {exc})"
        if why:
            wrong[i] = why
    return wrong


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        baseline = set(sys.modules)
        print(json.dumps([set_up(args.workload, args.seed, args.tiny, baseline)
                          for _ in range(SETUP_BURST)]))
        return 0

    borrays = load_program()
    cases = workloads.build(args.workload, args.seed, args.tiny)
    cli_main = borrays.cli.main
    counter = NodeCounter(borrays.homcount._kernel)
    tracer = tracing.Tracer() if args.trace else None
    min_passes = 1 if tracer else 2
    setups, reference, diffs, walls, traced_walls, latencies = [], None, [], [], [], []
    pass_starts, pass_nodes = [], []
    start = next_setup = perf_counter()
    while True:
        t = perf_counter()
        if not tracer and t >= next_setup:
            setups += set_up_elsewhere(args)
            next_setup = perf_counter() + SETUP_EVERY_S
        if tracer:
            pass_starts.append(len(tracer.spans))
        result = run_pass(cli_main, cases, counter, reference, tracer)
        if reference is None:
            reference = result["outputs"]
        diffs += [d for d in (result["untraced_diff"], result["traced_diff"])
                  if d is not None]
        pass_nodes.append(result["nodes"])
        walls.append(sum(result["seconds"]))
        latencies.extend(result["seconds"])
        if tracer:
            traced_walls.append(sum(result["traced_seconds"]))
        elapsed = perf_counter() - start
        if len(walls) >= min_passes and elapsed + (perf_counter() - t) > args.seconds:
            break
    # Read before the checks run, so the peak is the program's work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not tracer:
        setups += set_up_elsewhere(args)

    wrong = wrong_outputs(cases, reference)
    failed = sum(len(wrong.keys() | d) for d in [set()] + diffs)
    reasons = [f"{' '.join(cases[i].argv)[:100]}: {why}" for i, why in wrong.items()]
    reasons += [f"{' '.join(cases[i].argv)[:100]}: output differs from the first pass"
                for i in sorted(set().union(*diffs) - wrong.keys())]
    report = {
        "attempted": len(cases) * (1 + len(diffs)),
        "failed": failed,
        "reasons": reasons[:5],
        "end_to_end": {
            "setup_s": median(setups) if setups else None,
            "wall_s": median(walls),
            "peak_rss_mb": peak_rss_mb,
        },
        "info": {
            "kernel": borrays.kernel_name(),
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
            "passes": len(walls),
            "setups": len(setups),
            "commands_per_pass": len(cases),
            "latency_samples": len(latencies),
            # Printed, not benchmark metrics: a counting workload runs 10-21
            # commands of very different sizes, so neither percentile has
            # ten samples beyond it there.
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p99_ms": 1000 * percentile(latencies, 99),
            # Commands over the summed pass times; wall_s says the same.
            "calls_per_s": len(latencies) / sum(walls),
            # Exact and repeatable; None when the kernel has no search_homs.
            "search_nodes": pass_nodes[0] if counter.present else None,
            "search_nodes_repeat": len(set(pass_nodes)) == 1,
        },
    }
    if tracer:
        overhead = median(t - w for t, w in zip(traced_walls, walls))
        report["per_layer"] = tracing.layer_metrics(
            tracer.spans, pass_starts, tracer.absent, overhead)
        self_s = tracing.self_times(tracer.spans, 0, len(tracer.spans))
        report["info"]["self_s_per_pass"] = {
            name: s / len(traced_walls) for name, s in sorted(self_s.items())}
        report["info"]["absent_hooks"] = tracer.absent
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, start)
        report["info"]["trace_file"] = str(path.relative_to(BENCH_DIR.parent))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
