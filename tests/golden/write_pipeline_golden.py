"""Rewrite `pipeline_report.json` from a fresh `report` run of the
`pipeline` fixture's config (`tests/test_harness.py::base_config`, seed 3).

Run it only for a change that is meant to alter what the report computes:

    PYTHONPATH=src:tests python tests/golden/write_pipeline_golden.py
"""

import json
import tempfile
from pathlib import Path

from gradeq.harness import load_config, run
from support import report_summary
from test_harness import base_config, write_config

GOLDEN = Path(__file__).with_name("pipeline_report.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run(load_config(write_config(root / "cfg.json", base_config(root / "out"))))
        summary = report_summary(root / "out")
    GOLDEN.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
