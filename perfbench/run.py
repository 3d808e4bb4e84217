"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload train|report|cnn --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The workload is built from the seed, then rounds of its timed
units run back to back (a closed loop with one caller) until `--seconds`
have passed: one untimed warm-up round, then at least two timed ones.
Every unit's output is checked.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates
untraced and traced rounds, prints the per-layer metrics, and writes the
spans and a summary to `perfbench/out/`. The metric names, units and
directions are those of `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 2
SETUP_REPEATS = 5

# per-layer names for the untraced timings of each workload's units:
# unit kind -> (metric, True for items per second, False for seconds)
PHASES = {
    "train": {"standard": ("standard_samples_per_s", True),
              "pgdat": ("pgdat_samples_per_s", True),
              "igd": ("igd_samples_per_s", True)},
    "report": {"cold": ("report_cold_s", False),
               "warm": ("report_warm_s", False)},
    "cnn": {"attack": ("cnn_attack_images_per_s", True),
            "igd": ("cnn_igd_images_per_s", True)},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PHASES))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload and exit; used to time set-up")
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "GRADEQ_THREADS": os.environ.get("GRADEQ_THREADS", "unset"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "unset"),
    }


def time_setup(args) -> float:
    """Median wall time of fresh processes that import and build the workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Runs rounds of units, times them and collects check results."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.times: dict[bool, dict[str, list[float]]] = {False: defaultdict(list),
                                                          True: defaultdict(list)}
        self.round_times: dict[bool, list[float]] = {False: [], True: []}
        self.items: dict[str, int] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.traced_rounds: list[tuple[list[int], Counter]] = []

    def run(self, seconds: float) -> None:
        """Rounds until `seconds` are used up, ending as close to it as a
        whole round allows, and never fewer than the minimum.

        The first round is checked but not timed: it pays for first-touch
        page faults and lazy imports, which no later round sees.
        """
        min_rounds = 1 + MIN_ROUNDS * (2 if self.tracer else 1)
        start = now = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds < min_rounds or now - start + last / 2 < seconds:
            self.round(timed=rounds > 0,
                       traced=self.tracer is not None and rounds % 2 == 0 and rounds > 0)
            rounds += 1
            t = time.perf_counter()
            last, now = t - now, t

    def round(self, timed: bool, traced: bool) -> None:
        tracer = self.tracer if traced else None
        ids = []
        total = 0.0
        if tracer:
            tracer.counters.clear()
        for unit in self.workload.round():
            self.attempted += 1
            self.items[unit.kind] = unit.items
            if tracer:
                tracer.begin_unit(unit.kind)
                ids.append(tracer.trace_id)
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = unit.run()
            except Exception as exc:  # a failed unit is counted, the loop goes on
                out, problems = None, [f"{unit.kind}: raised {exc!r}"]
            else:
                problems = None
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            if problems is None:
                if timed:
                    self.times[traced][unit.kind].append(elapsed)
                problems = unit.check(out)
            total += elapsed
            if problems:
                self.failed += 1
                self.problems += problems
        if timed:
            self.round_times[traced].append(total)
        if tracer:
            self.traced_rounds.append((ids, Counter(tracer.counters)))

    def medians(self) -> dict[str, float]:
        """Median untraced wall time of each unit kind."""
        return {k: statistics.median(v) for k, v in self.times[False].items() if v}


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "round_s": statistics.median(loop.round_times[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, workload_name: str, setup_counts: Counter) -> tuple[dict, list]:
    from tracer import summarize
    by_trace = loop.tracer.trace_sums()
    per_round = []
    for ids, counts in loop.traced_rounds:
        sums = Counter()
        for trace in [-1, *ids]:
            sums.update(by_trace.get(trace, {}))
        per_round.append((sums, counts + setup_counts))
    metrics, problems = summarize(per_round)
    untraced = loop.medians()
    for phases in PHASES.values():
        for kind, (name, rate) in phases.items():
            metrics[name] = 0.0
    for kind, (name, rate) in PHASES[workload_name].items():
        t = untraced.get(kind)
        if t:
            metrics[name] = loop.items[kind] / t if rate else t
    rounds = loop.round_times
    metrics["trace.overhead_frac"] = (
        statistics.median(rounds[True]) / statistics.median(rounds[False]) - 1.0
        if rounds[True] and rounds[False] else 0.0)
    metrics["error_frac"] = loop.failed / loop.attempted
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy asks for transparent huge pages for large arrays, which the host
    # grants only while it has unfragmented memory; that moved peak RSS of
    # the same run by 17% from one hour to the next. Normal pages always.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if not (ROOT / "src" / "gradeq").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a gradeq source checkout (needs src/gradeq "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            import workloads
            workloads.WORKLOADS[args.workload](args.seed, workloads.FULL, workdir)
            return 0
        return bench(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name: str, make, seconds: float, trace: bool,
            setup_s: float | None = None) -> tuple[dict, Loop]:
    """Build the workload with `make()`, run its loop, compute the metrics.

    With `trace` the set-up runs traced too, and the per-layer metrics
    come back; otherwise the end-to-end ones, with `setup_s` defaulting to
    the in-process set-up time.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        workload = make()
    finally:
        if tracer:
            tracer.uninstall()
    if setup_s is None:
        setup_s = time.perf_counter() - t0
    setup_counts = Counter(tracer.counters) if tracer else Counter()

    loop = Loop(workload, tracer)
    loop.run(seconds)
    if not tracer:
        return end_to_end(loop, setup_s), loop
    values, count_problems = per_layer(loop, name, setup_counts)
    loop.problems += count_problems
    return values, loop


def bench(args, spec: dict, workdir: Path) -> int:
    setup_s = time_setup(args)
    import workloads

    values, loop = measure(
        args.workload,
        lambda: workloads.WORKLOADS[args.workload](args.seed, workloads.FULL, workdir),
        args.seconds, bool(args.trace), setup_s)
    tracer = loop.tracer
    declared = spec["per_layer" if tracer else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: emitted metrics do not match BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for p in loop.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("unit seconds: " + json.dumps(loop.times[False]), file=sys.stderr)
    if tracer:
        stem = f"{args.workload}-seed{args.seed}"
        # one traced round and the set-up; every round would run to ~100 MB
        tracer.write_spans(OUT / f"{stem}.spans.jsonl", [-1, *loop.traced_rounds[0][0]])
        summary = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine_facts(),
                   "unit_seconds": {"untraced": loop.times[False],
                                    "traced": loop.times[True]},
                   "round_seconds": {"untraced": loop.round_times[False],
                                     "traced": loop.round_times[True]},
                   "problems": loop.problems, "metrics": values}
        (OUT / f"{stem}.layers.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": loop.failed == 0 and not loop.problems,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
