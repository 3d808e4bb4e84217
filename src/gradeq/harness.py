"""Experiment orchestration: a strict JSON config drives a staged pipeline
(train, tables, attack curves, mask-statistic sweeps, corruptions, plots)
and everything lands in one output directory as CSV, SVG and checkpoints.

Reruns are idempotent per (config digest, seed): finished checkpoints are
reused (one that fails its integrity check, or whose training record is
missing, is retrained), every downstream number is a pure function of
config and seed, and the emitted files are byte-identical across runs.
Each file is written whole or not at all; a run starts by deleting the
temp files that writers killed mid-write left in its directories. Every
CSV table goes through `RunState.table`, which ends each row with the seed
and config digest, and charts are drawn from the rows this run computed,
never from files on disk. Attribution maps arrive as one array per batch
(one map for the `attribution_file` dataset), and every Gini is taken of
their `attribution.reduced` view through `inequality.mean_gini`.
The only timestamped output is log.txt, which is deliberately excluded from
the bundle manifest.
"""

from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
import csv
import hashlib
import html
import inspect
import io
import json
import math
import time
from typing import Annotated

import numpy as np

from . import attribution
from .attacks import CORRUPT_KINDS, SEVERITY, AttackSpec, corrupt, error_rate, pgd
from .data import (CIFAR_VARIANTS, IMAGE_SIDE, ImageBatch, load_cifar, split_sizes,
                   synth_blobs, train_val_split)
from .inequality import gini_exact  # noqa: F401  (re-exported: perfbench's tracer wraps it here)
from .inequality import mean_gini
from .models import (IntegrityError, Model, atomic_write, build_model, check_args,
                     check_keys, check_kind, load_checkpoint,
                     remove_orphan_temps, save_checkpoint, signature_keys)
from .seeding import seed_stream
from .theory import SELECTIONS, sweep_mask_stats
from .training import EpochRow, TrainConfig, accuracy, train


class ConfigError(ValueError):
    """The config file is malformed: unknown keys, bad types, bad references."""


class StageError(RuntimeError):
    """A stage failed; `unwritten` holds the OSErrors of the `bundle.json`
    and `log.txt` writes that failed after it, so neither hides the other."""

    def __init__(self, stage: str, cause: BaseException,
                 unwritten: tuple[OSError, ...] = ()):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.unwritten = unwritten


# --------------------------------------------------------------------------
# config: parsed once, at load, into the objects the stages run

@contextmanager
def _at(where: str = ""):
    """Re-raise a ValueError, TypeError or OverflowError (an integer too
    large for a float) from parsing `where` as a ConfigError."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"{where}: {e}" if where else str(e)) from e


# the top level and each section: the signature of the function that takes
# it. A limit must keep at least one sample; a default of None means no limit.
def _top(dataset, seed: Annotated[int, (">=", 0), ("<", 2**32)] = 0,  # seed_stream reads 32 bits
         out: str = "out", eval_fraction: Annotated[float, (">", 0), ("<", 1)] = 0.2,
         eval_limit: Annotated[int, (">=", 1)] = None, train: list = [], attacks: list = [],
         gini={}, theory=None, corrupt=None) -> SimpleNamespace:
    return SimpleNamespace(**locals())


def _gini(region: Annotated[int, (">=", 1)] = 4,
          method: Annotated[str, ("in", tuple(attribution.METHODS))] = "saliency",
          limit: Annotated[int, (">=", 1)] = None) -> SimpleNamespace:
    return SimpleNamespace(**locals())


def _theory(ks: Annotated[list[int], (">=", 0)] = [1, 4, 16],
            selections: Annotated[list[str], ("in", SELECTIONS)] = list(SELECTIONS),
            draws: Annotated[int, (">=", 1)] = 16,
            limit: Annotated[int, (">=", 1)] = 32) -> SimpleNamespace:
    return SimpleNamespace(**locals())


def _corrupt(kinds: Annotated[list[str], ("in", CORRUPT_KINDS)] = list(SEVERITY),
             severities: Annotated[list[int], (">=", 1), ("<=", 5)] = [1, 2, 3, 4, 5],
             limit: Annotated[int, (">=", 1)] = None) -> SimpleNamespace:
    return SimpleNamespace(**locals())


def _parsed(fn, given, keys_at: str, values_at: str = "") -> SimpleNamespace:
    """`fn(**given)`, after refusing a missing or unknown key (reported at
    `keys_at`) and a value outside its annotation (at `values_at`)."""
    with _at(keys_at):
        check_keys(given, *signature_keys(fn))
    with _at(values_at):
        check_args(fn, given)
    return fn(**given)


def _loaders() -> dict:
    """kind: the loader a dataset entry is read by; the entry's other keys are
    its arguments. Built when called, so a name rebound on this module (as
    the benchmark's tracer does) is the one that runs."""
    return {"blobs": synth_blobs, "cifar": load_cifar,
            "attribution_file": attribution.load_attribution}


def _dataset(d: dict, seed: int) -> dict:
    loaders = _loaders()
    kind = check_kind(d, {k: signature_keys(f) for k, f in loaders.items()})
    check_args(loaders[kind], {k: v for k, v in d.items() if k != "kind"})
    return {"seed": seed} | d if kind == "blobs" else d  # blobs without a seed take the run's


def _check_image_bounds(config: "ExperimentConfig") -> None:
    """Refuse an attack `k` or a `theory.ks` entry above the image's pixel
    count, a `gini.region` that leaves a single block, a blobs split that
    leaves no training sample, and a train entry with a `cutout_hole` above
    the image's side or a model that cannot take the images or has fewer
    classes than the data; an attribution file's size is known only to the
    file."""
    kind = config.dataset["kind"]
    if kind == "attribution_file":
        return
    args = {n: p.default for n, p in inspect.signature(_loaders()[kind]).parameters.items()}
    args |= config.dataset
    channels, side, classes = ((3, IMAGE_SIDE, CIFAR_VARIANTS[args["variant"]][1])
                               if kind == "cifar" else
                               (args["channels"], args["resolution"], args["classes"]))
    ks = [(f"attacks[{i}]: k", spec.k) for i, (_, spec) in enumerate(config.attacks)]
    ks += [("theory.ks entry", k) for k in config.theory.ks] if config.theory else []
    for what, k in ks:
        if k > side**2:
            raise ConfigError(f"{what} must be at most the image's {side**2} pixels, got {k}")
    if config.gini.region >= side:
        raise ConfigError(f"gini.region must be below the image's side {side}, "
                          f"got {config.gini.region}")
    if kind == "blobs":
        with _at("eval_fraction"):
            pool = split_sizes(args["n"], config.eval_fraction)[1]
    for i, (_, tcfg) in enumerate(config.train):
        if kind == "blobs":
            with _at(f"train[{i}]: val_fraction"):
                split_sizes(pool, tcfg.val_fraction)
        if tcfg.cutout_hole > side:
            raise ConfigError(f"train[{i}]: cutout_hole must be at most the image's "
                              f"side {side}, got {tcfg.cutout_hole}")
        with _at(f"train[{i}]: model"):
            model = build_model(tcfg.model)
            if model.classes < classes:
                raise ValueError(f"{model.classes} classes, fewer than the dataset's {classes}")
        with _at(f"train[{i}]: model in_shape {list(model.in_shape)} on "
                 f"{(channels, side, side)} images"):
            model.check_input((channels, side, side))


def _named(entries: list, section: str, parse) -> tuple:
    """(name, parse(entry without its name, the names before it)) per entry of
    a list section. A name is a file name part and a CSV cell."""
    parsed = []
    for i, entry in enumerate(entries):
        with _at(f"{section}[{i}]"):
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str) or not name or "/" in name or "," in name:
                raise ValueError("needs a 'name': a non-empty string without '/' or ','")
            names = [n for n, _ in parsed]
            if name in names:
                raise ValueError(f"duplicate name {name!r}")
            parsed.append((name, parse({k: v for k, v in entry.items() if k != "name"},
                                       names)))
    return tuple(parsed)


def _train_entry(entry: dict, earlier: list, seed: int) -> TrainConfig:
    """An igd entry's `teacher` names an earlier entry, whose model the train
    stage hands to `train`; `_check_image_bounds` builds the model."""
    check_keys(entry, *signature_keys(TrainConfig, {"seed"}))
    teacher = entry.get("teacher")
    if entry["method"] == "igd":
        if not isinstance(teacher, str) or teacher not in earlier:
            raise ValueError("igd needs 'teacher' naming an earlier entry")
    elif teacher is not None:
        raise ValueError("teacher is only valid for method 'igd'")
    # lam stays as written, 0 when absent: checkpoints record it so
    return TrainConfig(**entry | {"lam": entry.get("lam", 0), "seed": seed})


@dataclass(frozen=True)
class ExperimentConfig:
    """A config file parsed into what the stages run: every value is checked
    and every default filled in at load."""

    seed: int
    out: Path
    digest: str  # sha256 of the canonical body; seed and out do not contribute
    dataset: dict  # the dataset entry; blobs without a seed take the run's
    eval_fraction: float
    eval_limit: int | None
    gini: SimpleNamespace  # region, method, limit
    theory: SimpleNamespace | None  # ks, selections, draws, limit; None: no sweep
    corrupt: SimpleNamespace | None  # kinds, severities, limit; None: no ladder
    attacks: tuple = ()  # (name, AttackSpec) per entry, in file order
    train: tuple = ()  # (name, TrainConfig) per entry, in file order

    def tag(self, name: str) -> str:
        """Filename stem tying an artifact to this config and seed."""
        return f"{name}-{self.digest[:12]}-s{self.seed}"

    def checkpoint(self, name: str) -> Path:
        return self.out / "checkpoints" / f"{self.tag(name)}.ckpt"


def config_digest(body: dict) -> str:
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path, seed: int | None = None, out=None) -> ExperimentConfig:
    """Parse a config file into the objects the stages run; every bad key or
    value raises ConfigError here, before any stage starts. seed/out
    arguments override the file; neither participates in the digest, so the
    same experiment body run at two seeds shares one identity."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    top = _parsed(_top, cfg, "config")
    if seed is not None:
        with _at():
            check_args(_top, {"seed": seed})
    use_seed = top.seed if seed is None else int(seed)
    with _at("dataset"):
        dataset = _dataset(top.dataset, use_seed)
    if top.train and dataset["kind"] == "attribution_file":
        raise ConfigError("train: attribution_file datasets have nothing to train on")
    body = {k: v for k, v in cfg.items() if k not in ("seed", "out")}
    config = ExperimentConfig(
        seed=use_seed, out=Path(out if out is not None else top.out),
        digest=config_digest(body), dataset=dataset,
        eval_fraction=top.eval_fraction, eval_limit=top.eval_limit,
        gini=_parsed(_gini, top.gini, "gini", "gini"),
        theory=_parsed(_theory, top.theory, "theory", "theory") if "theory" in cfg else None,
        corrupt=_parsed(_corrupt, top.corrupt, "corrupt", "corrupt") if "corrupt" in cfg else None,
        attacks=_named(top.attacks, "attacks", lambda entry, _: AttackSpec.parse(entry)),
        train=_named(top.train, "train",
                     lambda entry, earlier: _train_entry(entry, earlier, use_seed)))
    _check_image_bounds(config)
    return config


# --------------------------------------------------------------------------
# small shared pieces

def confidence_stats(model: Model, pixels: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Mean softmax probability assigned to the true class, averaged over
    the samples the model classifies correctly. Ties in the argmax go to
    the lowest class index, same as np.argmax. Returns (mean, count); the
    mean is nan when nothing is classified correctly.
    """
    logits = model.logits(pixels)
    pred = np.argmax(logits, axis=1)
    ok = pred == labels
    if not ok.any():
        return float("nan"), 0
    z = logits[ok]
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    conf = p[np.arange(len(z)), labels[ok]]
    return float(conf.mean()), int(ok.sum())


def csv_text(header: list[str], rows: list[list]) -> str:
    """Deterministic CSV: floats, numpy's included, as the repr of a Python
    float (shortest round-trip); minimal quoting, so only a cell holding a
    comma or a quote, such as the label `ioa(n=2,r=1)`, is quoted."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows([repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                  for row in rows)
    return buf.getvalue()


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#bcbd22"]


def svg_line_chart(title: str, xlabel: str, ylabel: str,
                   series: list[tuple[str, list[float], list[float]]]) -> str:
    """Hand-rolled line chart. Deterministic text output, no external deps,
    fixed 640x420 canvas with 5 ticks per axis."""
    def esc(text: str) -> str:
        return html.escape(text, quote=False)

    width, height = 640, 420
    ml, mr, mt, mb = 60, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x0, x1 = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y0, y1 = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (1 - (y - y0) / (y1 - y0)) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
             f'font-size="15">{esc(title)}</text>']
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        gx, gy = px(fx), py(fy)
        parts.append(f'<line x1="{gx:.1f}" y1="{mt}" x2="{gx:.1f}" y2="{mt + ph}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<line x1="{ml}" y1="{gy:.1f}" x2="{ml + pw}" y2="{gy:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{gx:.1f}" y="{mt + ph + 16}" text-anchor="middle">'
                     f'{fx:.4g}</text>')
        parts.append(f'<text x="{ml - 6}" y="{gy + 4:.1f}" text-anchor="end">'
                     f'{fy:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
                 f'stroke="#333333"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle">'
                 f'{esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{esc(ylabel)}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.8"/>')
        ly = mt + 14 + 16 * idx
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 30}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{ml + pw + 34}" y="{ly}">{esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# pipeline state

@dataclass
class RunState:
    config: ExperimentConfig
    data: ImageBatch | None = None       # training pool
    holdout: ImageBatch | None = None    # evaluation split, untouched by training
    models: dict = field(default_factory=dict)      # name -> Model
    files: list = field(default_factory=list)       # manifest entries, relative
    # (rel, title, xlabel, ylabel, {series: [(x, y)]}), rendered by the plots stage
    charts: list = field(default_factory=list)
    log_lines: list = field(default_factory=list)

    def log(self, msg: str) -> None:
        self.log_lines.append(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {msg}")

    def emit(self, rel: str, text: str) -> None:
        path = self.config.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, text.encode("utf-8"))
        self.files.append(rel)

    def table(self, rel: str, header: list[str], rows: list[list]) -> None:
        """A CSV table; every row ends with this run's seed and config digest."""
        cfg = self.config
        self.emit(rel, csv_text([*header, "seed", "config"],
                                [[*row, cfg.seed, cfg.digest] for row in rows]))

    def holdout_subset(self, limit) -> ImageBatch:
        b = self.holdout
        return b if limit is None or limit >= len(b) else b.subset(np.arange(limit))


@dataclass(frozen=True)
class ReportBundle:
    """What a successful run wrote; a failed run raises StageError instead."""

    digest: str
    seed: int
    out: Path
    files: list


# --------------------------------------------------------------------------
# stages

def _stage_data(state: RunState) -> None:
    cfg = state.config
    kind = cfg.dataset["kind"]
    if kind == "attribution_file":
        return  # handled by the tables stage directly
    batch = _loaders()[kind](**{k: v for k, v in cfg.dataset.items() if k != "kind"})
    state.data, state.holdout = train_val_split(batch, cfg.eval_fraction, cfg.seed)
    state.holdout = state.holdout_subset(cfg.eval_limit)
    state.log(f"data: pool={len(state.data.labels)} holdout={len(state.holdout.labels)}")


def _stage_train(state: RunState) -> None:
    cfg = state.config
    for name, tcfg in cfg.train:
        ckpt = cfg.checkpoint(name)
        record_rel = f"records/{cfg.tag(name)}-train.csv"
        # the record is written first, so a checkpoint marks a finished entry;
        # one without its record is from a run killed in between
        if ckpt.exists() and not (cfg.out / record_rel).exists():
            state.log(f"train: {name} checkpoint has no record, retraining")
        elif ckpt.exists():
            try:
                state.models[name], extra = load_checkpoint(ckpt)
            except IntegrityError as e:
                state.log(f"train: {name} checkpoint unreadable ({e}), retraining")
            else:
                state.files.append(record_rel)
                state.log(f"train: {name} cached ({extra.get('best_epoch')})")
                continue
        teacher = state.models[tcfg.teacher] if tcfg.teacher else None
        model, record = train(tcfg, state.data, teacher)
        state.models[name] = model
        state.table(record_rel, ["name", *(f.name for f in fields(EpochRow))],
                    [[name, *astuple(r)] for r in record.rows])
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(ckpt, model, {
            "model": tcfg.model, "method": tcfg.method, "lam": tcfg.lam,
            "best_epoch": record.best_epoch, "seed": cfg.seed,
            "config": cfg.digest, "aborted": record.aborted,
        })
        state.log(f"train: {name} done, best_epoch={record.best_epoch} "
                  f"aborted={record.aborted}")


def _fixture_tables(state: RunState) -> None:
    cfg = state.config
    values, method = attribution.load_attribution(cfg.dataset["path"])
    reduced = attribution.reduced(values[None])
    g, rg, kept = mean_gini(reduced, cfg.gini.region)
    if not kept:
        raise ValueError("gini undefined when all values are zero")
    row = {"global_gini": g, "regional_gini": rg, "region": cfg.gini.region,
           "n": int(reduced.size), "method": method,
           "seed": cfg.seed, "config": cfg.digest}
    state.emit("tables/gini.json", json.dumps(row, sort_keys=True) + "\n")
    state.log(f"tables: fixture gini={g}")


def _stage_tables(state: RunState) -> None:
    cfg = state.config
    if cfg.dataset["kind"] == "attribution_file":
        _fixture_tables(state)
        return
    if not state.models:
        return
    sub = state.holdout_subset(cfg.gini.limit)
    px, lab = sub.pixels, sub.labels
    trained = dict(cfg.train)
    gini_rows, l1_rows, conf_rows = [], [], []
    for name, model in state.models.items():
        meth, lam = trained[name].method, trained[name].lam
        clean = accuracy(model, px, lab)
        adv_x = pgd(model, px, lab, rng=seed_stream(cfg.seed, "tables-pgd", name)).x_adv
        adv = accuracy(model, adv_x, lab)
        maps = attribution.attribute(model, px, lab, cfg.gini.method)
        gg, rg, kept = mean_gini(attribution.reduced(maps), cfg.gini.region)
        l1s = [float(np.abs(m).sum()) for m in maps]
        gini_rows.append([name, meth, float(lam), clean, adv, gg, rg, kept])
        l1_rows.append([name, meth, float(lam), np.mean(l1s), np.max(l1s), len(l1s)])
        conf_rows.append([name, meth, float(lam), *confidence_stats(model, px, lab)])
    state.table("tables/gini.csv", ["name", "method", "lam", "clean_acc", "adv_acc",
                                    "global_gini", "regional_gini", "maps"], gini_rows)
    state.table("tables/l1.csv", ["name", "method", "lam", "mean_l1", "max_l1", "maps"],
                l1_rows)
    state.table("tables/confidence.csv", ["name", "method", "lam", "confidence", "correct"],
                conf_rows)
    state.log(f"tables: {len(gini_rows)} models on {len(lab)} holdout samples")


def _stage_attack(state: RunState) -> None:
    cfg = state.config
    if not cfg.attacks or not state.models:
        return
    sub = state.holdout
    names = list(state.models)
    models = [state.models[n] for n in names]
    rows, by_kind = [], {}
    for attack, spec in cfg.attacks:
        rep = error_rate(models, spec, sub.pixels, sub.labels, cfg.seed)
        for name, rate in zip(names, rep.rates):
            rows.append([attack, spec.kind, spec.label(), spec.size, name,
                         rate, rep.evaluated])
            by_kind.setdefault(spec.kind, {}).setdefault(name, []).append(
                (float(spec.size), rate))
    state.table("curves/error_rate.csv", ["attack", "kind", "label", "param", "model",
                                          "error_rate", "evaluated"], rows)
    for kind, per_model in by_kind.items():
        # a single attack size per model draws no curve
        curves = {m: pts for m, pts in per_model.items() if len(pts) >= 2}
        state.charts.append((f"plots/error_rate_{kind}.svg", f"{kind} error rate",
                             "attack size", "error rate", curves))
    state.log(f"attack: {len(cfg.attacks)} specs x {len(names)} models, "
              f"joint pool {rep.evaluated}")


def _stage_theory(state: RunState) -> None:
    cfg = state.config
    theory = cfg.theory
    if theory is None or not state.models:
        return
    sub = state.holdout_subset(theory.limit)
    rows, curves = [], {}
    for name, model in state.models.items():
        maps = attribution.saliency(model, sub.pixels, sub.labels)
        for sel in theory.selections:
            pts = sweep_mask_stats(maps, theory.ks, sel,
                                   seed_stream(cfg.seed, "theory", name, sel),
                                   draws=theory.draws)
            for p in pts:
                rows.append([name, sel, p.k, p.mean_sum_sq, p.stderr_sum_sq,
                             p.mean_sum2, p.stderr_sum2, p.count])
                curves.setdefault(f"{name}/{sel}", []).append((float(p.k), p.mean_sum_sq))
    state.table("curves/mask_stats.csv", ["model", "selection", "k", "mean_sum_sq",
                                          "stderr_sum_sq", "mean_sum2", "stderr_sum2",
                                          "count"], rows)
    state.charts.append(("plots/mask_stats.svg", "masked weight concentration",
                         "k", "sum of squared weights", curves))
    state.log(f"theory: {len(rows)} sweep points")


def _stage_corrupt(state: RunState) -> None:
    cfg = state.config
    if cfg.corrupt is None or not state.models:
        return
    sub = state.holdout_subset(cfg.corrupt.limit)
    names = list(state.models)
    models = [state.models[n] for n in names]
    rows, curves = [], {}
    for kind in cfg.corrupt.kinds:
        for sev in cfg.corrupt.severities:
            param = SEVERITY[kind][sev - 1]
            spec = AttackSpec(kind="corrupt", corrupt_kind=kind, param=param)
            rep = error_rate(models, spec, sub.pixels, sub.labels, cfg.seed)
            # mean squared distortion of the corruption itself, model-free
            mses = []
            for i in range(len(sub.labels)):
                rng = seed_stream(cfg.seed, "corrupt-mse", kind, sev, i)
                xc = corrupt(sub.pixels[i], kind, param, rng)
                mses.append(float(np.mean((xc - sub.pixels[i]) ** 2)))
            mse = float(np.mean(mses))
            for name, rate in zip(names, rep.rates):
                rows.append([kind, sev, param, name, rate, rep.evaluated, mse])
                curves.setdefault(f"{name}/{kind}", []).append((float(sev), rate))
    state.table("curves/corrupt.csv", ["kind", "severity", "param", "model", "error_rate",
                                       "evaluated", "mse"], rows)
    state.charts.append(("plots/corrupt.svg", "corruption error rate",
                         "severity", "error rate", curves))
    state.log(f"corrupt: {len(rows)} rows")


def _stage_plots(state: RunState) -> None:
    """One SVG per chart that has a curve."""
    for rel, title, xlabel, ylabel, curves in state.charts:
        if not curves:
            continue
        series = []
        for key, pts in sorted(curves.items()):
            pts = sorted(pts)
            series.append((key, [x for x, _ in pts], [y for _, y in pts]))
        state.emit(rel, svg_line_chart(title, xlabel, ylabel, series))
    state.log("plots: done")


_STAGE_FNS = {
    "data": _stage_data,
    "train": _stage_train,
    "tables": _stage_tables,
    "attack": _stage_attack,
    "theory": _stage_theory,
    "corrupt": _stage_corrupt,
    "plots": _stage_plots,
}
STAGES = tuple(_STAGE_FNS)  # in pipeline order


# the directories a run writes, relative to its output directory
_OUTPUT_DIRS = ("", "checkpoints", "records", "tables", "curves", "plots")


def _listed_untagged(manifest: Path) -> set:
    """The outputs without a config tag (tables/, curves/, plots/) that a
    bundle manifest lists as written or as stale; none when it is absent or
    unreadable."""
    try:
        listed = json.loads(manifest.read_text())
        parts = [Path(f).parts for f in listed["files"] + listed.get("stale", [])]
    except (OSError, ValueError, TypeError, KeyError):
        return set()
    return {"/".join(p) for p in parts
            if len(p) == 2 and p[0] in ("tables", "curves", "plots") and p[1] != ".."}


def run(config: ExperimentConfig, stages=STAGES) -> ReportBundle:
    """Execute the requested stages in pipeline order. On a stage failure
    the partial outputs stay on disk, the manifest records the stage id,
    and a StageError carrying the same id is raised. A successful run
    deletes the untagged outputs the previous manifest listed and it did
    not write; a failed run lists them as `stale` instead, so they stay due.
    A file no manifest listed is never touched. `bundle.json` and `log.txt`
    are each attempted whatever became of the other; after a failed stage
    the StageError carries a failed write's OSError, else the first is
    raised."""
    for s in stages:
        if s not in STAGES:
            raise ConfigError(f"unknown stage {s!r}")
    ordered = [s for s in STAGES if s in stages]
    state = RunState(config)
    config.out.mkdir(parents=True, exist_ok=True)
    for d in _OUTPUT_DIRS:
        for p in remove_orphan_temps(config.out / d):
            state.log(f"removed {p.relative_to(config.out)}: a killed write's temp file")
    earlier = _listed_untagged(config.out / "bundle.json")
    failed = None
    error = None
    for stage in ordered:
        try:
            _STAGE_FNS[stage](state)
        except Exception as e:  # recorded, then surfaced
            failed = stage
            error = e
            state.log(f"{stage}: FAILED {e}")
            break
    files = sorted(set(state.files))
    stale = sorted(earlier - set(files))
    if failed is None:
        for rel in stale:
            if (config.out / rel).is_file():
                (config.out / rel).unlink()
                state.log(f"removed {rel}: an earlier run's output, not this run's")
    manifest = {"config": config.digest, "seed": config.seed,
                "files": files, "failed_stage": failed,
                "stages": list(ordered)}
    if failed is not None:
        manifest["stale"] = stale  # for the next successful run to delete
    unwritten = []
    # timestamps live in log.txt and only there; bundle.json stays byte-stable
    for name, body in (("bundle.json", json.dumps(manifest, indent=2, sort_keys=True)),
                       ("log.txt", "\n".join(state.log_lines))):
        try:
            atomic_write(config.out / name, (body + "\n").encode())
        except OSError as e:  # each write is tried; the first failure is raised
            unwritten.append(e)
    if failed is not None:
        raise StageError(failed, error, tuple(unwritten))
    if unwritten:
        raise unwritten[0]
    return ReportBundle(digest=config.digest, seed=config.seed, out=config.out, files=files)
