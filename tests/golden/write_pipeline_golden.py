"""Rewrite both golden files from fresh `report` runs:

- `pipeline_report.json`, the summary of the `pipeline` fixture's run
  (`tests/test_harness.py::base_config`, two MLPs, seed 3);
- `cnn_report.json`, the summary of the one-channel CNN run
  (`tests/test_harness.py::cnn_config`, seed 7), and beside it
  `cnn_arrays.json`, the sha256 of every PGD `x_adv`, every
  input-gradient batch and every conv2d, maxpool2 and unpool2 result that
  run computed, each list in call order.

The summaries are compared with a float tolerance, the digests byte for
byte. The digests were written with numpy 2.4.6 on OpenBLAS 0.3.31
(x86-64, 2 cores); another numpy or BLAS build may round a GEMM
differently and move them without any change to gradeq. Run this only for
a change that is meant to alter what a report computes; a change that
moves one golden file must show the other unchanged.

    PYTHONPATH=src:tests python tests/golden/write_pipeline_golden.py
"""

import json
import tempfile
from pathlib import Path

from gradeq.harness import load_config, run
from support import report_summary
from test_harness import base_config, cnn_golden_run, write_config

GOLDEN = Path(__file__).with_name("pipeline_report.json")
CNN_GOLDEN = GOLDEN.with_name("cnn_report.json")
CNN_ARRAYS = GOLDEN.with_name("cnn_arrays.json")


def write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run(load_config(write_config(root / "cfg.json", base_config(root / "out"))))
        write_json(GOLDEN, report_summary(root / "out"))
    with tempfile.TemporaryDirectory() as tmp:
        config, seen = cnn_golden_run(Path(tmp))
        write_json(CNN_GOLDEN, report_summary(config.out))
        write_json(CNN_ARRAYS, {k: seen[k] for k in ("pgd", "input_gradients", "conv2d",
                                                    "maxpool2", "unpool2")})


if __name__ == "__main__":
    main()
