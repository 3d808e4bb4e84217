"""Experiment orchestration: a strict JSON config drives a staged pipeline
(train, tables, attack curves, mask-statistic sweeps, corruptions, plots)
and everything lands in one output directory as CSV, SVG and checkpoints.

Reruns are idempotent per (config digest, seed): finished checkpoints are
reused (one that fails its integrity check is retrained), every downstream
number is a pure function of config and seed, and the emitted files are
byte-identical across runs. Each file is written whole or not at all, and
charts are drawn from the rows this run computed, never from files on disk.
The only timestamped output is log.txt, which is deliberately excluded from
the bundle manifest.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path
import hashlib
import json
import math
import time
import xml.sax.saxutils

import numpy as np

from . import attribution
from .attacks import AttackSpec, corrupt, error_rate, pgd
from .data import ImageBatch, load_cifar, synth_blobs, train_val_split
from .inequality import GiniReport, gini_exact, mean_gini, region_blocks
from .models import (IntegrityError, Model, atomic_write, build_model,
                     load_checkpoint, predict, save_checkpoint)
from .seeding import seed_stream
from .theory import SELECTIONS, sweep_mask_stats
from .training import METHODS as TRAIN_METHODS
from .training import EpochRow, TrainConfig, accuracy, train


class ConfigError(ValueError):
    """The config file is malformed: unknown keys, bad types, bad references."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# Corruption severity ladders, mildest first. Gaussian values are sigma on
# the [0,1] pixel scale; shot is the rate multiplier (smaller = noisier);
# impulse is the flipped-pixel fraction.
SEVERITY = {
    "gaussian": [0.04, 0.06, 0.08, 0.09, 0.10],
    "shot": [60.0, 25.0, 12.0, 5.0, 3.0],
    "impulse": [0.03, 0.06, 0.09, 0.17, 0.27],
}

STAGES = ("data", "train", "tables", "attack", "theory", "corrupt", "plots")


# --------------------------------------------------------------------------
# config schema

def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _positive_int(v) -> bool:
    return _is_int(v) and v > 0


def _list_of(v, ok) -> bool:
    return isinstance(v, list) and all(ok(e) for e in v)


def _built(where: str, make) -> None:
    """Build a config entry's object now, so a bad value fails at load, not
    after earlier entries have trained; its ValueError or TypeError becomes
    a ConfigError."""
    try:
        make()
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from e


_MODEL_KEYS = {
    "mlp": ({"kind", "in_shape", "hidden", "classes"}, {"activation"}),
    "cnn": ({"kind", "in_shape", "channels", "classes"}, {"activation"}),
    "linear": ({"kind", "in_shape"}, set()),
}

_TRAIN_OPTIONAL = {f.name for f in fields(TrainConfig)} - {"method", "model", "seed"}

# (section, key): (test a present value must pass, what it must be)
_SECTION_VALUES = {
    ("gini", "region"): (_positive_int, "a positive integer"),
    ("gini", "method"): (lambda v: v in tuple(attribution.METHODS),
                         f"one of {list(attribution.METHODS)}"),
    ("theory", "ks"): (lambda v: _list_of(v, lambda k: _is_int(k) and k >= 0),
                       "a list of nonnegative integers"),
    ("theory", "selections"): (lambda v: _list_of(v, lambda e: e in SELECTIONS),
                               f"a list drawn from {list(SELECTIONS)}"),
    ("theory", "draws"): (_positive_int, "a positive integer"),
    ("corrupt", "kinds"): (lambda v: _list_of(v, lambda e: e in tuple(SEVERITY)),
                           f"a list drawn from {list(SEVERITY)}"),
    ("corrupt", "severities"): (lambda v: _list_of(v, lambda e: _is_int(e) and 1 <= e <= 5),
                                "a list of integers in 1..5"),
    # a limit must keep at least one sample
    ("gini", "limit"): (_positive_int, "a positive integer"),
    ("theory", "limit"): (_positive_int, "a positive integer"),
    ("corrupt", "limit"): (_positive_int, "a positive integer"),
}

_ATTACK_KEYS = {
    "pgd": (set(), {"eps", "step", "iters"}),
    "ina1": ({"k"}, {"method"}),
    "ina2": ({"k"}, {"method"}),
    "rn": ({"k"}, set()),
    "ioa": (set(), {"n", "r", "color", "method"}),
    "corrupt": ({"corrupt_kind", "param"}, set()),
}


def _validate_dataset(d: dict) -> None:
    kind = d.get("kind")
    if kind == "blobs":
        _check_keys(d, {"kind", "n"},
                    {"resolution", "classes", "seed", "channels", "background",
                     "amplitude", "spread", "noise", "jitter"}, "dataset")
    elif kind == "cifar":
        _check_keys(d, {"kind", "path"}, {"variant"}, "dataset")
    elif kind == "attribution_file":
        _check_keys(d, {"kind", "path"}, set(), "dataset")
    else:
        raise ConfigError(f"dataset: unknown kind {kind!r}")


def _validate_train_entry(entry: dict, i: int, names: set) -> None:
    where = f"train[{i}]"
    _check_keys(entry, {"name", "method", "model"}, _TRAIN_OPTIONAL, where)
    name = entry["name"]
    if not isinstance(name, str) or not name or "/" in name:
        raise ConfigError(f"{where}: name must be a non-empty string without '/'")
    if name in names:
        raise ConfigError(f"{where}: duplicate name {name!r}")
    if entry["method"] not in TRAIN_METHODS:
        raise ConfigError(f"{where}: unknown method {entry['method']!r}")
    model = entry["model"]
    kind = model.get("kind") if isinstance(model, dict) else None
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"{where}.model: unknown kind {kind!r}")
    req, opt = _MODEL_KEYS[kind]
    _check_keys(model, req, opt, f"{where}.model")
    teacher = entry.get("teacher")
    if entry["method"] == "igd":
        if not isinstance(teacher, str) or teacher not in names:
            raise ConfigError(f"{where}: igd needs 'teacher' naming an earlier entry")
    elif teacher is not None:
        raise ConfigError(f"{where}: teacher is only valid for method 'igd'")
    _built(where, lambda: (build_model(model), _train_config(entry, model, 0, None)))


def _validate_attack_entry(entry: dict, i: int, names: set) -> None:
    where = f"attacks[{i}]"
    if not isinstance(entry, dict) or "kind" not in entry or "name" not in entry:
        raise ConfigError(f"{where}: needs 'name' and 'kind'")
    kind = entry["kind"]
    if kind not in _ATTACK_KEYS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    req, opt = _ATTACK_KEYS[kind]
    _check_keys(entry, req | {"name", "kind"}, opt, where)
    if entry["name"] in names:
        raise ConfigError(f"{where}: duplicate name {entry['name']!r}")
    _built(where, lambda: _attack_spec(entry))


def _validate(cfg: dict) -> None:
    _check_keys(cfg, {"dataset"},
                {"seed", "out", "eval_fraction", "eval_limit",
                 "train", "attacks", "gini", "theory", "corrupt"}, "config")
    _validate_dataset(cfg["dataset"])
    fixture = cfg["dataset"]["kind"] == "attribution_file"
    names: set = set()
    for i, entry in enumerate(cfg.get("train", [])):
        if fixture:
            raise ConfigError("train: attribution_file datasets have nothing to train on")
        _validate_train_entry(entry, i, names)
        names.add(entry["name"])
    attack_names: set = set()
    for i, entry in enumerate(cfg.get("attacks", [])):
        _validate_attack_entry(entry, i, attack_names)
        attack_names.add(entry["name"])
    for section in ("gini", "theory", "corrupt"):
        if section in cfg:
            keys = {k for s, k in _SECTION_VALUES if s == section}
            _check_keys(cfg[section], set(), keys, section)
    # an absent value takes the stage default; a present one must be usable
    for (section, key), (ok, what) in _SECTION_VALUES.items():
        if key in cfg.get(section, {}) and not ok(cfg[section][key]):
            raise ConfigError(f"{section}.{key} must be {what}, got {cfg[section][key]!r}")
    if "eval_limit" in cfg and not _positive_int(cfg["eval_limit"]):
        raise ConfigError(f"eval_limit must be a positive integer, got {cfg['eval_limit']!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict  # validated config body, seed/out stripped
    seed: int
    out: Path
    digest: str  # sha256 of the canonical body; seed and out do not contribute

    @property
    def dataset(self) -> dict:
        return self.raw["dataset"]

    @property
    def train_entries(self) -> list:
        return self.raw.get("train", [])

    @property
    def attack_entries(self) -> list:
        return self.raw.get("attacks", [])

    def tag(self, name: str) -> str:
        """Filename stem tying an artifact to this config and seed."""
        return f"{name}-{self.digest[:12]}-s{self.seed}"


def config_digest(body: dict) -> str:
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path, seed: int | None = None, out=None) -> ExperimentConfig:
    """Parse and validate a config file. seed/out arguments override the
    file; neither participates in the digest, so the same experiment body
    run at two seeds shares one identity."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _validate(cfg)
    file_seed = cfg.get("seed", 0)
    if not isinstance(file_seed, int):
        raise ConfigError("seed must be an integer")
    use_seed = int(seed) if seed is not None else file_seed
    use_out = Path(out) if out is not None else Path(cfg.get("out", "out"))
    body = {k: v for k, v in cfg.items() if k not in ("seed", "out")}
    return ExperimentConfig(raw=body, seed=use_seed, out=use_out,
                            digest=config_digest(body))


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
    """Deterministic CSV: floats via repr (shortest round-trip), no quoting
    needed because no field ever contains a comma."""
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#bcbd22"]


def svg_line_chart(title: str, xlabel: str, ylabel: str,
                   series: list[tuple[str, list[float], list[float]]]) -> str:
    """Hand-rolled line chart. Deterministic text output, no external deps,
    fixed 640x420 canvas with 5 ticks per axis."""
    esc = xml.sax.saxutils.escape
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
    model_meta: dict = field(default_factory=dict)  # name -> (method, lam)
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

    def holdout_subset(self, limit) -> ImageBatch:
        b = self.holdout
        if limit is not None and limit < len(b.labels):
            b = b.subset(np.arange(int(limit)))
        return b


@dataclass(frozen=True)
class ReportBundle:
    digest: str
    seed: int
    out: Path
    files: list
    failed_stage: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None


# --------------------------------------------------------------------------
# stages

def _stage_data(state: RunState) -> None:
    cfg = state.config
    ds = cfg.dataset
    if ds["kind"] == "attribution_file":
        return  # handled by the tables stage directly
    if ds["kind"] == "blobs":
        kw = {k: v for k, v in ds.items() if k != "kind"}
        kw.setdefault("seed", cfg.seed)
        batch = synth_blobs(**kw)
    else:
        batch = load_cifar(ds["path"], ds.get("variant", "cifar10"))
    frac = cfg.raw.get("eval_fraction", 0.2)
    state.data, state.holdout = train_val_split(batch, frac, cfg.seed)
    state.holdout = state.holdout_subset(cfg.raw.get("eval_limit"))
    state.log(f"data: pool={len(state.data.labels)} holdout={len(state.holdout.labels)}")


def _train_config(entry: dict, model_cfg: dict, seed: int, teacher_path) -> TrainConfig:
    kw = {k: entry[k] for k in _TRAIN_OPTIONAL & set(entry) if k != "teacher"}
    return TrainConfig(method=entry["method"], model=model_cfg, seed=seed,
                       teacher=teacher_path, **kw)


def _stage_train(state: RunState) -> None:
    cfg = state.config
    if not cfg.train_entries:
        return
    ckpt_dir = cfg.out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for entry in cfg.train_entries:
        name = entry["name"]
        ckpt = ckpt_dir / f"{cfg.tag(name)}.ckpt"
        method, lam = entry["method"], entry.get("lam", 0)
        state.model_meta[name] = (method, lam)
        record_rel = f"records/{cfg.tag(name)}-train.csv"
        if ckpt.exists():
            try:
                state.models[name], extra = load_checkpoint(ckpt)
            except IntegrityError as e:
                state.log(f"train: {name} checkpoint unreadable ({e}), retraining")
            else:
                if (cfg.out / record_rel).exists():
                    state.files.append(record_rel)
                state.log(f"train: {name} cached ({extra.get('best_epoch')})")
                continue
        teacher_path = None
        if method == "igd":
            teacher_path = ckpt_dir / f"{cfg.tag(entry['teacher'])}.ckpt"
        tcfg = _train_config(entry, entry["model"], cfg.seed, teacher_path)
        model, record = train(tcfg, state.data)
        state.models[name] = model
        save_checkpoint(ckpt, model, {
            "model": entry["model"], "method": method, "lam": lam,
            "best_epoch": record.best_epoch, "seed": cfg.seed,
            "config": cfg.digest, "aborted": record.aborted,
        })
        rows = [[name, *r.as_dict().values(), cfg.seed, cfg.digest]
                for r in record.rows]
        header = ["name", *(f.name for f in fields(EpochRow)), "seed", "config"]
        state.emit(record_rel, csv_text(header, rows))
        state.log(f"train: {name} done, best_epoch={record.best_epoch} "
                  f"aborted={record.aborted}")


def _fixture_tables(state: RunState) -> None:
    cfg = state.config
    amap = attribution.load_attribution(cfg.dataset["path"])
    gcfg = cfg.raw.get("gini", {})
    region = gcfg.get("region", 4)
    reduced = amap.reduced
    g = gini_exact(reduced.reshape(-1))
    rg = gini_exact(region_blocks(reduced, region)) if reduced.ndim == 2 else g
    report = GiniReport(global_gini=float(g), regional_gini=float(rg),
                        region=region, n=int(reduced.size), method=amap.method)
    row = report.as_row() | {"seed": cfg.seed, "config": cfg.digest}
    state.emit("tables/gini.json", json.dumps(row, sort_keys=True) + "\n")
    state.log(f"tables: fixture gini={g}")


def _stage_tables(state: RunState) -> None:
    cfg = state.config
    if cfg.dataset["kind"] == "attribution_file":
        _fixture_tables(state)
        return
    if not state.models:
        return
    gcfg = cfg.raw.get("gini", {})
    region = gcfg.get("region", 4)
    method = gcfg.get("method", "saliency")
    sub = state.holdout_subset(gcfg.get("limit"))
    px, lab = sub.pixels, sub.labels
    gini_rows, l1_rows, conf_rows = [], [], []
    for name, model in state.models.items():
        meth, lam = state.model_meta.get(name, ("?", 0))
        clean = accuracy(model, px, lab)
        adv_x = pgd(model, px, lab, rng=seed_stream(cfg.seed, "tables-pgd", name)).x_adv
        adv = accuracy(model, adv_x, lab)
        maps = attribution.attribute(model, px, lab, method)
        gg, rg, kept = mean_gini([m.reduced for m in maps], region)
        l1s = [float(np.abs(m.values).sum()) for m in maps]
        gini_rows.append([name, meth, float(lam), clean, adv, gg, rg,
                          kept, cfg.seed, cfg.digest])
        l1_rows.append([name, meth, float(lam), float(np.mean(l1s)),
                        float(np.max(l1s)), len(l1s), cfg.seed, cfg.digest])
        conf, count = confidence_stats(model, px, lab)
        conf_rows.append([name, meth, float(lam), conf, count, cfg.seed, cfg.digest])
    state.emit("tables/gini.csv", csv_text(
        ["name", "method", "lam", "clean_acc", "adv_acc", "global_gini",
         "regional_gini", "maps", "seed", "config"], gini_rows))
    state.emit("tables/l1.csv", csv_text(
        ["name", "method", "lam", "mean_l1", "max_l1", "maps", "seed", "config"],
        l1_rows))
    state.emit("tables/confidence.csv", csv_text(
        ["name", "method", "lam", "confidence", "correct", "seed", "config"],
        conf_rows))
    state.log(f"tables: {len(gini_rows)} models on {len(lab)} holdout samples")


def _attack_spec(entry: dict) -> AttackSpec:
    kw = {k: v for k, v in entry.items() if k != "name"}
    return AttackSpec(**kw)


def _stage_attack(state: RunState) -> None:
    cfg = state.config
    if not cfg.attack_entries or not state.models:
        return
    sub = state.holdout
    names = list(state.models)
    models = [state.models[n] for n in names]
    rows, by_kind = [], {}
    for entry in cfg.attack_entries:
        spec = _attack_spec(entry)
        rep = error_rate(models, spec, sub.pixels, sub.labels, cfg.seed)
        if spec.kind in ("ina1", "ina2", "rn"):
            param = float(spec.k)
        elif spec.kind == "pgd":
            param = spec.eps
        elif spec.kind == "ioa":
            param = float(spec.n)
        else:
            param = spec.param
        for name, rate in zip(names, rep.rates):
            rows.append([entry["name"], spec.kind, spec.label(), param, name,
                         rate, rep.evaluated, cfg.seed, cfg.digest])
            by_kind.setdefault(spec.kind, {}).setdefault(name, []).append(
                (float(param), rate))
    state.emit("curves/error_rate.csv", csv_text(
        ["attack", "kind", "label", "param", "model", "error_rate", "evaluated",
         "seed", "config"], rows))
    for kind, per_model in by_kind.items():
        # a single attack size per model draws no curve
        curves = {m: pts for m, pts in per_model.items() if len(pts) >= 2}
        if curves:
            state.charts.append((f"plots/error_rate_{kind}.svg", f"{kind} error rate",
                                 "attack size", "error rate", curves))
    state.log(f"attack: {len(cfg.attack_entries)} specs x {len(names)} models, "
              f"joint pool {rep.evaluated}")


def _stage_theory(state: RunState) -> None:
    cfg = state.config
    tcfg = cfg.raw.get("theory")
    if tcfg is None or not state.models:
        return
    ks = tcfg.get("ks", [1, 4, 16])
    selections = tcfg.get("selections", ["attribution_ranked", "random"])
    draws = tcfg.get("draws", 16)
    sub = state.holdout_subset(tcfg.get("limit", 32))
    rows, curves = [], {}
    for name, model in state.models.items():
        for sel in selections:
            pts = sweep_mask_stats(model, sub.pixels, sub.labels, ks, sel,
                                   seed_stream(cfg.seed, "theory", name, sel),
                                   draws=draws)
            for p in pts:
                rows.append([name, sel, p.k, p.mean_sum_sq, p.stderr_sum_sq,
                             p.mean_sum2, p.stderr_sum2, p.count,
                             cfg.seed, cfg.digest])
                curves.setdefault(f"{name}/{sel}", []).append((float(p.k), p.mean_sum_sq))
    state.emit("curves/mask_stats.csv", csv_text(
        ["model", "selection", "k", "mean_sum_sq", "stderr_sum_sq", "mean_sum2",
         "stderr_sum2", "count", "seed", "config"], rows))
    if curves:
        state.charts.append(("plots/mask_stats.svg", "masked weight concentration",
                             "k", "sum of squared weights", curves))
    state.log(f"theory: {len(rows)} sweep points")


def _stage_corrupt(state: RunState) -> None:
    cfg = state.config
    ccfg = cfg.raw.get("corrupt")
    if ccfg is None or not state.models:
        return
    kinds = ccfg.get("kinds", list(SEVERITY))
    severities = ccfg.get("severities", [1, 2, 3, 4, 5])
    sub = state.holdout_subset(ccfg.get("limit"))
    names = list(state.models)
    models = [state.models[n] for n in names]
    rows, curves = [], {}
    for kind in kinds:
        for sev in severities:
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
                rows.append([kind, sev, param, name, rate, rep.evaluated,
                             mse, cfg.seed, cfg.digest])
                curves.setdefault(f"{name}/{kind}", []).append((float(sev), rate))
    state.emit("curves/corrupt.csv", csv_text(
        ["kind", "severity", "param", "model", "error_rate", "evaluated", "mse",
         "seed", "config"], rows))
    if curves:
        state.charts.append(("plots/corrupt.svg", "corruption error rate",
                             "severity", "error rate", curves))
    state.log(f"corrupt: {len(rows)} rows")


def _stage_plots(state: RunState) -> None:
    for rel, title, xlabel, ylabel, curves in state.charts:
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


def run(config: ExperimentConfig, stages=STAGES) -> ReportBundle:
    """Execute the requested stages in pipeline order. On a stage failure
    the partial outputs stay on disk, the manifest records the stage id,
    and a StageError carrying the same id is raised."""
    for s in stages:
        if s not in STAGES:
            raise ConfigError(f"unknown stage {s!r}")
    ordered = [s for s in STAGES if s in stages]
    state = RunState(config)
    config.out.mkdir(parents=True, exist_ok=True)
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
    bundle = ReportBundle(digest=config.digest, seed=config.seed,
                          out=config.out, files=sorted(set(state.files)),
                          failed_stage=failed)
    manifest = {"config": config.digest, "seed": config.seed,
                "files": bundle.files, "failed_stage": failed,
                "stages": list(ordered)}
    atomic_write(config.out / "bundle.json",
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    # timestamps live here and only here; bundle.json stays byte-stable
    atomic_write(config.out / "log.txt", ("\n".join(state.log_lines) + "\n").encode())
    if failed is not None:
        raise StageError(failed, error)
    return bundle
