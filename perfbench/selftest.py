"""Self-test of the benchmark at tiny scale; exits 0 when every check holds.

    python3 perfbench/selftest.py

- `BENCHMARK.json` has the declared shape and bounds.
- Each workload, run untraced and traced on tiny inputs, emits exactly the
  declared end-to-end and per-layer metrics, with error_frac 0.
- The count metrics repeat exactly across two traced runs at one seed.
- Planted faults are caught: a flipped byte in a warm-run CSV (`report`),
  a PGD output pushed outside the eps-ball (`cnn`) and a unit that raises
  (`train`) each raise error_frac.
- The CSV comparison tolerates float drift but not a changed number.
- In a directory holding only `BENCHMARK.json` and the benchmark's files,
  `run.py` exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import is_count  # noqa: E402

SEED = workloads.DEFAULT_SEED
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(name: str, workdir: Path, trace: bool, plant=None):
    def make():
        w = workloads.WORKLOADS[name](SEED, workloads.TINY, workdir)
        return Planted(w, plant) if plant else w
    return run.measure(name, make, 0.0, trace)


class Planted:
    """Passes rounds through, replacing each unit of `kind` by
    `fault(workload, unit)`."""

    def __init__(self, inner, plant):
        self.inner = inner
        self.kind, self.fault = plant

    def round(self):
        return [self.fault(self.inner, u) if u.kind == self.kind else u
                for u in self.inner.round()]


def flip_csv_byte(workload, unit):
    def run_then_flip():
        rc = unit.run()
        path = workload.out / "tables" / "gini.csv"
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 1
        path.write_bytes(bytes(raw))
        return rc
    return dataclasses.replace(unit, run=run_then_flip)


def raise_instead(workload, unit):
    def run_raising():
        raise FloatingPointError("planted")
    return dataclasses.replace(unit, run=run_raising)


def push_outside_ball(workload, unit):
    def run_then_push():
        res, pred = unit.run()
        x_adv = res.x_adv.copy()
        flat = x_adv.reshape(-1)
        flat[0] = 0.5 if flat[0] > 0.75 else flat[0] + 0.25
        return dataclasses.replace(res, x_adv=x_adv), pred
    return dataclasses.replace(unit, run=run_then_push)


def check_spec() -> None:
    expect(set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect([w["name"] for w in SPEC["workloads"]] == list(run.PHASES),
           "workloads are train, report, cnn")
    e2e = SPEC["end_to_end"]
    expect(all(0 < m["bound"] <= 0.25 for m in e2e), "end-to-end bounds in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s has the largest bound")
    for m in e2e + SPEC["per_layer"]:
        expect(m["better"] in ("higher", "lower") and m["unit"], f"{m['name']} direction and unit")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    expect(all(is_count(n) for n in counts)
           and all(m["unit"] == "count" for m in SPEC["per_layer"] if is_count(m["name"])),
           f"{len(counts)} exact counts carry unit 'count'")


def check_emitted(name: str, values: dict, loop, section: str) -> None:
    declared = {m["name"] for m in SPEC[section]}
    expect(set(values) == declared, f"{name}: emits exactly the {section} metrics")
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()),
           f"{name}: {section} values are finite numbers")
    expect(loop.failed == 0 and not loop.problems,
           f"{name}: error_frac 0 ({loop.problems[:3]})")


def main() -> int:
    check_spec()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for name in run.PHASES:
            values, loop = tiny(name, workdir, trace=False)
            check_emitted(name, values, loop, "end_to_end")
            expect(all(values[m] > 0 for m in values), f"{name}: end-to-end metrics nonzero")
            first, loop = tiny(name, workdir, trace=True)
            check_emitted(name, first, loop, "per_layer")
            second, _ = tiny(name, workdir, trace=True)
            changed = [k for k in first if is_count(k) and first[k] != second[k]]
            expect(not changed, f"{name}: counts repeat exactly across runs {changed}")

        for name, plant in [("report", ("warm", flip_csv_byte)),
                            ("cnn", ("attack", push_outside_ball)),
                            ("train", ("standard", raise_instead))]:
            values, loop = tiny(name, workdir, trace=True, plant=plant)
            expect(values["error_frac"] > 0,
                   f"{name}: planted fault raises error_frac to {values['error_frac']:.2f}"
                   f" ({loop.problems[0] if loop.problems else 'no problem reported'})")

        ref = ["a,0.25", "b,1"]
        expect(not workloads.compare_csv("a,0.25000000000000006\nb,1", ref, 1e-9),
               "CSV check tolerates 1e-16 drift")
        expect(bool(workloads.compare_csv("a,0.255\nb,1", ref, 1e-9)),
               "CSV check catches a changed number")

        bare = workdir / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py refuses a directory without the program")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
