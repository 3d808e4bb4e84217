"""The benchmark's three closed-loop workloads and their output checks.

A workload is built once from the seed (`setup`) and then yields rounds of
timed units. One caller issues every unit, each after the previous one
returned. A unit's `run` is what the clock sees; its `check` runs after
the clock stops and returns the problems it found (empty when the output
is correct).

- `train` trains `standard`, `pgdat` and `igd` (lam=2, taught by the
  standard model of the same round) for one epoch each at the scale of
  acceptance criterion 08. Thousands of small tape ops on an L2-resident
  working set: autodiff per-op overhead, PGD and double backward dominate.
- `report` runs `gradeq report` on the README quick-start config, cold in
  a fresh directory and then warm in the same one. The only workload where
  the harness, the per-sample error-rate loop, exact Gini, the mask sweep
  and checkpoint I/O dominate; cold writes checkpoints, warm reads them.
- `cnn` runs batched PGD plus prediction on a CNN, then one `igd` epoch on
  a small CNN. Few large conv/pool ops on activations bigger than L2, so
  kernel time and the plain CNN forward dominate, and double backward goes
  through convolution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gradeq import attacks, cli, data, models, training
from gradeq.seeding import seed_stream

DEFAULT_SEED = 7
REFERENCE = Path(__file__).with_name("reference.json")

# the data of acceptance criterion 08
BLOBS = dict(resolution=32, classes=4, noise=0.18, amplitude=0.44,
             spread=3.0, jitter=3.0)

# README quick start; `out` and `seed` come from the command line
README_CONFIG = {
    "dataset": {"kind": "blobs", "n": 600, "resolution": 16, "classes": 2,
                "noise": 0.1, "spread": 2.0},
    "train": [
        {"name": "std", "method": "standard",
         "model": {"kind": "mlp", "in_shape": [1, 16, 16], "hidden": [32], "classes": 2},
         "epochs": 8},
        {"name": "pgdat", "method": "pgdat",
         "model": {"kind": "mlp", "in_shape": [1, 16, 16], "hidden": [32], "classes": 2},
         "epochs": 8},
        {"name": "igd2", "method": "igd", "teacher": "std", "lam": 2,
         "model": {"kind": "mlp", "in_shape": [1, 16, 16], "hidden": [32], "classes": 2},
         "epochs": 8},
    ],
    "attacks": [
        {"name": "noise16", "kind": "ina1", "k": 16},
        {"name": "noise64", "kind": "ina1", "k": 64},
        {"name": "pgd", "kind": "pgd"},
    ],
    "gini": {"region": 4},
    "theory": {"ks": [4, 16, 64], "limit": 32},
    "corrupt": {"kinds": ["gaussian", "shot", "impulse"], "limit": 64},
}

# Reported numbers may drift by float rounding (batching order, BLAS) but
# not by a changed sample: any accuracy or error rate moves by >= 1/200.
CSV_TOLERANCE = 1e-9
# validation accuracy may move by this many samples across BLAS builds
ACC_TOLERANCE_SAMPLES = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is the benchmark, `TINY` the self-test."""

    train_n: int
    train_hidden: tuple[int, ...]
    report_config: dict
    cnn_batch: int
    cnn_batches: int
    cnn_channels: tuple[int, int]
    cnn_igd_n: int
    cnn_igd_channels: tuple[int, int]


# The README config evaluates on a 120-sample holdout, which makes one
# cold+warm round take ~12 s on a 2-core Xeon; capping it at 24 samples
# keeps every stage, the training and the per-sample loops, and fits ~7
# rounds into a run for a steady median.
REPORT_CONFIG = {**README_CONFIG, "eval_limit": 24}

FULL = Scale(train_n=2000, train_hidden=(64, 64), report_config=REPORT_CONFIG,
             cnn_batch=64, cnn_batches=2, cnn_channels=(16, 32),
             cnn_igd_n=80, cnn_igd_channels=(8, 16))
TINY = Scale(
    train_n=120, train_hidden=(8,),
    report_config={**README_CONFIG,
                   "dataset": {**README_CONFIG["dataset"], "n": 60},
                   "train": [{**e, "epochs": 1} for e in README_CONFIG["train"]],
                   "theory": {"ks": [4], "limit": 4},
                   "corrupt": {"kinds": ["gaussian"], "limit": 4}},
    cnn_batch=4, cnn_batches=2, cnn_channels=(2, 2), cnn_igd_n=20,
    cnn_igd_channels=(2, 2))


@dataclass
class Unit:
    kind: str
    items: int  # samples this unit pushes through, for throughput
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def params_digest(model) -> str:
    return digest(*(model.params[n] for n in sorted(model.params)))


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded outputs for the default seed at full scale, else None."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


class _Repeats:
    """Remembers the first output digest of each key; later ones must match."""

    def __init__(self):
        self.seen: dict[str, str] = {}

    def check(self, key: str, value: str) -> list[str]:
        first = self.seen.setdefault(key, value)
        return [] if first == value else [f"{key}: output differs from its first run"]


# --------------------------------------------------------------------------
# train


def _train_config(method: str, hidden, seed: int, lam: float = 0.0,
                  model_kind: str = "mlp", in_shape=(1, 32, 32),
                  val_fraction: float = 0.1) -> training.TrainConfig:
    key = "hidden" if model_kind == "mlp" else "channels"
    return training.TrainConfig(
        method=method, lam=lam, epochs=1, batch_size=64, lr=0.02,
        val_fraction=val_fraction, seed=seed,
        model={"kind": model_kind, "in_shape": list(in_shape),
               key: list(hidden), "classes": 4})


def _check_trained(model, record, val, tag: str, repeats: _Repeats,
                   reference: dict | None) -> list[str]:
    problems = []
    if record.aborted:
        problems.append(f"{tag}: training aborted")
    if record.best_epoch < 0:
        return problems + [f"{tag}: no epoch ran"]
    if not all(np.all(np.isfinite(p)) for p in model.params.values()):
        problems.append(f"{tag}: non-finite parameters")
    best = record.rows[record.best_epoch]
    acc = training.accuracy(model, val.pixels, val.labels)
    if acc != best.clean_acc:
        problems.append(f"{tag}: returned model scores {acc}, record says {best.clean_acc}")
    problems += repeats.check(f"{tag} parameters", params_digest(model))
    if reference is not None:
        tol = ACC_TOLERANCE_SAMPLES / len(val) + 1e-12
        for field in ("clean_acc", "adv_acc"):
            want = reference[tag][field]
            if abs(getattr(best, field) - want) > tol:
                problems.append(f"{tag}: {field} {getattr(best, field)} != reference {want}")
    return problems


class TrainWorkload:
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.data = data.synth_blobs(scale.train_n, seed=seed, **BLOBS)
        self.configs = {
            "standard": _train_config("standard", scale.train_hidden, seed),
            "pgdat": _train_config("pgdat", scale.train_hidden, seed),
            "igd": _train_config("igd", scale.train_hidden, seed, lam=2.0),
        }
        # the same split train() makes internally, for the output checks
        self.train_split, self.val = data.train_val_split(self.data, 0.1, seed)
        self.repeats = _Repeats()
        self.reference = load_reference("train", seed) if scale == FULL else None

    def outputs(self) -> dict:
        """Reference values recorded for this seed."""
        out = {}
        teacher = None
        for method, cfg in self.configs.items():
            model, record = training.train(cfg, self.data, teacher=teacher)
            if method == "standard":
                teacher = model
            best = record.rows[record.best_epoch]
            out[method] = {"clean_acc": best.clean_acc, "adv_acc": best.adv_acc}
        return out

    def round(self) -> list[Unit]:
        trained: dict[str, Any] = {}
        items = len(self.train_split)

        def unit(method):
            def run():
                teacher = trained.get("standard") if method == "igd" else None
                model, record = training.train(self.configs[method], self.data,
                                               teacher=teacher)
                trained[method] = model
                return model, record

            def check(out):
                return _check_trained(*out, self.val, method, self.repeats,
                                      self.reference)
            return Unit(method, items, run, check)

        return [unit(m) for m in self.configs]


# --------------------------------------------------------------------------
# report


def _manifest_bytes(out: Path) -> dict[str, bytes]:
    bundle = json.loads((out / "bundle.json").read_text())
    files = {rel: (out / rel).read_bytes() for rel in bundle["files"]}
    files["bundle.json"] = (out / "bundle.json").read_bytes()
    return files


def compare_csv(got: str, want: list[str], tol: float) -> list[str]:
    """Cell-by-cell comparison with reference lines; numeric cells may
    differ by `tol`."""
    rows = [line.split(",") for line in got.splitlines()]
    want = [line.split(",") for line in want]
    if len(rows) != len(want) or any(len(a) != len(b) for a, b in zip(rows, want)):
        return [f"shape {[len(r) for r in rows]} != reference {[len(r) for r in want]}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, want)):
        for j, (a, b) in enumerate(zip(row, ref)):
            if a == b:
                continue
            try:
                close = abs(float(a) - float(b)) <= tol
            except ValueError:
                close = False
            if not close:
                problems.append(f"row {i} column {j}: {a!r} != reference {b!r}")
    return problems


REFERENCE_CSVS = ("tables/gini.csv", "curves/error_rate.csv")


class ReportWorkload:
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "report.json"
        self.config.write_text(json.dumps(scale.report_config, indent=2))
        self.model_names = [e["name"] for e in scale.report_config["train"]]
        self.repeats = _Repeats()
        self.reference = load_reference("report", seed) if scale == FULL else None
        self.rounds = 0
        self.out: Path | None = None  # output directory of the current round

    def _report(self, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["report", "--config", str(self.config),
                             "--seed", str(self.seed), "--out", str(out)])

    def outputs(self) -> dict:
        out = self.workdir / "reference-run"
        try:
            if self._report(out) != 0:
                raise RuntimeError("report failed while recording the reference")
            return {rel: (out / rel).read_text().splitlines() for rel in REFERENCE_CSVS}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def round(self) -> list[Unit]:
        self.rounds += 1
        self.out = out = self.workdir / f"run-{self.rounds}"
        cold_files: dict[str, bytes] = {}

        def cold():
            return self._report(out)

        def check_cold(rc):
            if rc != 0:
                return [f"cold report exited {rc}"]
            cold_files.update(_manifest_bytes(out))
            problems = self.repeats.check(
                "cold report files", digest(*(np.frombuffer(cold_files[k], np.uint8)
                                              for k in sorted(cold_files))))
            if self.reference is not None:
                for rel in REFERENCE_CSVS:
                    problems += [f"{rel} {p}" for p in compare_csv(
                        cold_files[rel].decode(), self.reference[rel], CSV_TOLERANCE)]
            return problems

        def warm():
            return self._report(out)

        def check_warm(rc):
            try:
                if rc != 0:
                    return [f"warm report exited {rc}"]
                if not cold_files:
                    return ["cold run left no files to compare against"]
                warm_files = _manifest_bytes(out)
                problems = []
                if sorted(warm_files) != sorted(cold_files):
                    problems.append("warm manifest lists other files than cold")
                problems += [f"{rel} differs between cold and warm run"
                             for rel in sorted(cold_files)
                             if warm_files.get(rel) != cold_files[rel]]
                log = (out / "log.txt").read_text()
                problems += [f"warm run retrained {name}" for name in self.model_names
                             if f"train: {name} cached" not in log]
                return problems
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return [Unit("cold", 1, cold, check_cold),
                Unit("warm", 1, warm, check_warm)]


# --------------------------------------------------------------------------
# cnn


class CnnWorkload:
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        n = max(scale.cnn_batch * scale.cnn_batches, scale.cnn_igd_n)
        self.data = data.synth_blobs(n, channels=3, seed=seed, **BLOBS)
        self.model = models.build_model(
            {"kind": "cnn", "in_shape": [3, 32, 32],
             "channels": list(scale.cnn_channels), "classes": 4}, seed=seed)
        self.igd_config = _train_config(
            "igd", scale.cnn_igd_channels, seed, lam=2.0, model_kind="cnn",
            in_shape=(3, 32, 32), val_fraction=0.2)
        self.teacher = models.build_model(self.igd_config.model, seed=seed + 1)
        self.igd_data = self.data.subset(np.arange(scale.cnn_igd_n))
        self.train_split, self.val = data.train_val_split(self.igd_data, 0.2, seed)
        self.repeats = _Repeats()
        self.rounds = 0

    def round(self) -> list[Unit]:
        b = self.rounds % self.scale.cnn_batches
        self.rounds += 1
        lo = b * self.scale.cnn_batch
        x = self.data.pixels[lo:lo + self.scale.cnn_batch]
        y = self.data.labels[lo:lo + self.scale.cnn_batch]

        def attack():
            res = attacks.pgd(self.model, x, y, rng=seed_stream(self.seed, "cnn-pgd", b))
            return res, models.predict(self.model, res.x_adv)

        def check_attack(out):
            res, pred = out
            problems = check_ball(x, res.x_adv, attacks.PGD_EPS)
            if res.aborted.any():
                problems.append(f"batch {b}: {int(res.aborted.sum())} samples aborted")
            return problems + self.repeats.check(f"cnn batch {b}",
                                                 digest(res.x_adv, pred))

        def igd():
            return training.train(self.igd_config, self.igd_data, teacher=self.teacher)

        def check_igd(out):
            return _check_trained(*out, self.val, "cnn igd", self.repeats, None)

        return [Unit("attack", len(x), attack, check_attack),
                Unit("igd", len(self.train_split), igd, check_igd)]


# The projection computes x + clip(x_adv - x), which can land one ulp past
# the ball; acceptance criterion 07 allows the same 1e-12.
BALL_SLACK = 1e-12


def check_ball(x: np.ndarray, x_adv: np.ndarray, eps: float) -> list[str]:
    problems = []
    if not (np.all(x_adv >= 0.0) and np.all(x_adv <= 1.0)):
        problems.append("PGD output leaves [0,1]")
    dx = float(np.max(np.abs(x_adv - x)))
    if dx > eps + BALL_SLACK:
        problems.append(f"PGD output leaves the eps-ball: max|dx|={dx!r} > {eps!r}")
    return problems


WORKLOADS = {"train": TrainWorkload, "report": ReportWorkload, "cnn": CnnWorkload}
