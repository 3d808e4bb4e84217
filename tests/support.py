"""Helpers several test modules share and the package itself does not need:
a single-input class score (the finite-difference oracle) and the writer
of attribution-map fixture files."""

import json

import numpy as np


def class_score(model, x: np.ndarray, y: int) -> float:
    """Logit of class y for a single input."""
    if not 0 <= int(y) < model.classes:
        raise ValueError(f"class {y} out of range for {model.classes} classes")
    return float(model.logits(np.asarray(x)[None])[0, int(y)])


def write_attribution(amap, path) -> None:
    """Raw little-endian float64 values plus the JSON sidecar that
    `gradeq.attribution.load_attribution` reads."""
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(amap.values.astype("<f8")).tobytes())
    sidecar = {"shape": list(amap.values.shape), "dtype": "<f8",
               "method": amap.method, "target": amap.target}
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, sort_keys=True)
