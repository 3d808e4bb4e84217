"""Record the reference outputs the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Writes `perfbench/reference.json`: best-epoch validation accuracies of the
`train` workload's three models, and the cells of `tables/gini.csv` and
`curves/error_rate.csv` from the `report` workload. Rerun it only when a
change is meant to alter those numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
    try:
        seed, scale = workloads.DEFAULT_SEED, workloads.FULL
        ref = {"seed": seed,
               "train": workloads.TrainWorkload(seed, scale, workdir).outputs(),
               "report": workloads.ReportWorkload(seed, scale, workdir).outputs()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
