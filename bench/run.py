"""Benchmark of ruminslice: one workload per run, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload mesh-slice --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole rounds of calls until ``--seconds``
have passed and prints the end-to-end metrics.  With ``--trace 1`` it wraps
the library (see ``tracing.py``), runs a fixed number of rounds so that the
counts repeat exactly, prints the per-layer metrics and writes the spans to
``.bench_out/``.  The last line of standard output is the result object.

``--workload all`` runs the four workloads one after another, each in its
own interpreter, prints one line per workload and, last, a JSON object of
the four results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def timed_setup(workload) -> float:
    """Median of several cold set-ups; the library's caches are emptied first."""
    from workloads import clear_caches

    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_round(workload, r: int, run) -> float:
    """Run round r; return the seconds spent inside its library calls."""
    before = sum(run.call_s)
    workload.round(r, run)
    return sum(run.call_s) - before


def run_all(args, names) -> int:
    """Run every workload in its own interpreter, one after another."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results[name] = result
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        shown = ", ".join(f"{metric} {value['value']:.6g} {value['unit']}"
                          for metric, value in result["metrics"].items())
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}; {shown}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ruminslice" / "__init__.py").is_file():
        print(f"error: no ruminslice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS, CliFixtures, Run

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    import ruminslice  # noqa: F401  (imported before set-up, as a user's program has it)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = timed_setup(workload)
    run = Run()
    round_s = []
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if isinstance(workload, CliFixtures):
            workload.trace_dir = OUT / f"children-{stem}"
            workload.trace_dir.mkdir(exist_ok=True)
        for r in range(workload.trace_rounds):
            round_s.append(timed_round(workload, r, run))
        for path in getattr(workload, "child_traces", []):
            with open(path, encoding="utf-8") as handle:
                tracer.merge(json.load(handle))
        tracer.write(OUT / f"trace-{stem}.json")
        metrics = tracing.per_layer(tracer)
    else:
        start = time.perf_counter()
        while not round_s or time.perf_counter() - start < args.seconds:
            round_s.append(timed_round(workload, len(round_s), run))
        busy = sum(run.call_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "units_per_s": (run.units / busy if busy else 0.0, "1/s"),
            "call_p50_s": (statistics.median(run.call_s) if run.call_s else 0.0, "s"),
            "peak_rss_mib": (peak_rss_mib(isinstance(workload, CliFixtures)), "MiB"),
        }
    print(f"{len(round_s)} round(s), {run.attempted} calls, {run.units} units; seconds in "
          f"calls per round: {' '.join(f'{t:.3f}' for t in round_s)}", file=sys.stderr)
    for note in (run.failures + run.problems)[:20]:
        print(f"problem: {note}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
