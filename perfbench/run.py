"""The borrays benchmark: one workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): paper-tables, enumerate-crosscheck,
block-words, classify.  The seed fixes the generated inputs; the program
receives only argv lists.  Each workload runs in a child process of its
own under an address-space cap, so ``peak_rss_mb`` is that workload's
alone and a runaway Tietze word fails one command, not the machine.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it print every metric with its unit and context.

The benchmark runs whichever search kernel ``borrays.kernel_name()``
reports and passes no ``--threads`` and no ``--budget``.
"""

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
PROGRAM = ROOT_DIR / "src" / "borrays" / "cli.py"

# End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
MEMORY_CAP = 2 << 30  # bytes of address space per child
DEADLINE_S = 170  # the workload process, set-up included


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _child(args):
    """Run worker.py in a capped child; its JSON report, or None."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    try:
        proc = subprocess.run(argv, cwd=ROOT_DIR, capture_output=True, text=True,
                              timeout=DEADLINE_S, preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        print(f"error: workload process passed the {DEADLINE_S} s deadline",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: workload process exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (every command runs "
                             "at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small commands per workload (self-test)")
    args = parser.parse_args()
    if not PROGRAM.is_file():
        print(f"error: {PROGRAM.relative_to(ROOT_DIR)} is missing; run from a "
              "borrays checkout", file=sys.stderr)
        return 2

    report = _child(args)
    if report is None:
        return 1
    info = report["info"]

    print(f"workload {args.workload}  seed {args.seed}  kernel {info['kernel']}  "
          f"python {info['python']}  machine {info['machine']}")
    print(f"passes {info['passes']} x {info['commands_per_pass']} commands; "
          f"failed {report['failed']}/{report['attempted']} "
          f"(failed_frac {report['failed'] / report['attempted']:.4g})")
    for reason in report["reasons"]:
        print(f"  FAILED {reason}")
    nodes = info["search_nodes"]
    print(f"search_nodes: {'absent' if nodes is None else nodes} count per pass "
          f"(exact; {'repeats' if info['search_nodes_repeat'] else 'DIFFERS'} across passes)")
    for name in ("latency_p50_ms", "latency_p99_ms"):
        print(f"{name}: {info[name]} ms  n={info['latency_samples']}")
    print(f"calls_per_s: {info['calls_per_s']} 1/s")
    if args.trace:
        metrics = report["per_layer"]
        spec = LAYER_METRICS
        print(f"self time per pass by span: {info['self_s_per_pass']}")
        if info["absent_hooks"]:
            print(f"absent hooks (metrics null): {', '.join(info['absent_hooks'])}")
        print(f"spans written to {info['trace_file']}")
    else:
        metrics = report["end_to_end"]
        spec = END_TO_END
    notes = {
        "setup_s": f"median of {info['setups']} set-ups",
        "wall_s": f"median of {info['passes']} passes",
    }
    for name, unit in spec.items():
        print(f"{name}: {metrics[name]} {unit}  {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
