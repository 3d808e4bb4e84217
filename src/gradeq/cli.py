"""Command line front end.

    gradeq <command> --config FILE [--seed N] [--out DIR]

Commands map to pipeline stages; `report` runs everything. A successful
command deletes the tables, curves and plots the previous `bundle.json`
listed, as written or as stale, and it did not write. Exit codes:
0 success, 2 config problem, 3 a stage failed partway (partial outputs
and the failing stage id are left in the output directory) or a write to
the output directory outside a stage failed (one stderr line names the path;
after a failed stage it follows the stage's own line), 130 interrupted by
Ctrl-C (one stderr line; a rerun recovers as after a failed stage).
"""

import argparse
import sys

from .harness import STAGES, ConfigError, StageError, load_config, run

_COMMAND_STAGES = {
    "train": ("data", "train"),
    "evaluate": ("data", "train", "tables"),
    "gini": ("data", "train", "tables"),
    "attack": ("data", "train", "attack"),
    "theory": ("data", "train", "theory"),
    "corrupt": ("data", "train", "corrupt"),
    "report": STAGES,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradeq")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def _run(args) -> int:
    try:
        config = load_config(args.config, seed=args.seed, out=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        bundle = run(config, _COMMAND_STAGES[args.command])
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        for w in e.unwritten:
            print(f"error: cannot write {w.filename}: {w.strerror}", file=sys.stderr)
        return 3
    except OSError as e:  # the output directory, outside every stage
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 3
    print(f"{config.digest[:12]} seed={config.seed} -> {bundle.out} "
          f"({len(bundle.files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
