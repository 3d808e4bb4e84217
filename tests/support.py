"""Helpers several test modules share and the package itself does not need:
a single-input class score (the finite-difference oracle), the writer of
attribution-map fixture files, and the summary of a `report` run that the
golden file holds, with its comparison."""

import json
import re
from pathlib import Path

import numpy as np

from gradeq.models import load_checkpoint


def class_score(model, x: np.ndarray, y: int) -> float:
    """Logit of class y for a single input."""
    if not 0 <= int(y) < model.classes:
        raise ValueError(f"class {y} out of range for {model.classes} classes")
    return float(model.logits(np.asarray(x)[None])[0, int(y)])


def write_attribution(values: np.ndarray, method: str, target: int, path) -> None:
    """One map as raw little-endian float64 values plus the JSON sidecar
    that `gradeq.attribution.load_attribution` reads."""
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(values.astype("<f8")).tobytes())
    sidecar = {"shape": list(values.shape), "dtype": "<f8",
               "method": method, "target": target}
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, sort_keys=True)


GOLDEN_TOLERANCE = 1e-9


def report_summary(out) -> dict:
    """What a `report` run computed, in a form that can be compared across
    versions: every cell of its tables, curves and training records, its
    `bundle.json`, and per checkpoint the `extra` header (best epoch
    included) and, per parameter, its shape and float64 sum and sum of
    squares."""
    out = Path(out)
    csvs = {str(p.relative_to(out)): [ln.split(",") for ln in p.read_text().splitlines()]
            for d in ("tables", "curves", "records") for p in sorted((out / d).glob("*.csv"))}
    checkpoints = {}
    for p in sorted((out / "checkpoints").glob("*.ckpt")):
        model, extra = load_checkpoint(p)
        params = {n: {"shape": list(a.shape),
                      "sum": float(np.sum(a, dtype=np.float64)),
                      "sum_sq": float(np.sum(np.square(a, dtype=np.float64)))}
                  for n, a in model.params.items()}
        checkpoints[p.name] = {"extra": extra, "params": params}
    bundle = json.loads((out / "bundle.json").read_text())
    return {"csv": csvs, "bundle": bundle, "checkpoints": checkpoints}


def summary_mismatches(got, want, tol: float = GOLDEN_TOLERANCE, where: str = "") -> list[str]:
    """Differences between two `report_summary` trees. Strings, ints and
    structure must match exactly; a float, in JSON or as a CSV cell that
    is not an integer literal, may differ by `tol`."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in summary_mismatches(got[k], want[k], tol, f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in summary_mismatches(a, b, tol, f"{where}[{i}]")]
    if got == want and type(got) is type(want):
        return []
    ints = [s for s in (got, want) if isinstance(s, str) and re.fullmatch(r"-?\d+", s)]
    if isinstance(got, str) and isinstance(want, str) and not ints:
        try:
            got, want = float(got), float(want)
        except ValueError:
            pass
    if type(got) is float and type(want) is float and abs(got - want) <= tol:
        return []
    return [f"{where}: {got!r} != {want!r}"]
