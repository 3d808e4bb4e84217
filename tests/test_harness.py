import copy
import errno
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradeq import attribution, cli, harness, training
from gradeq.attacks import CORRUPT_PARAM, AttackSpec, corrupt
from gradeq.autodiff import kernels
from gradeq.data import load_cifar, synth_blobs
from gradeq.harness import (SEVERITY, ConfigError, StageError, confidence_stats,
                            config_digest, csv_text, load_config, run,
                            svg_line_chart)
from gradeq.inequality import gini_exact
from gradeq.models import (CNN, MLP, LinearScore, atomic_write, check_value, load_checkpoint,
                           remove_orphan_temps)
from gradeq.seeding import seed_stream
from gradeq.training import mean_saliency_gini
from support import (csv_faults, faulty_replace, read_csv, recorded_arrays,
                     report_summary, summary_mismatches, write_attribution)

GOLDEN = Path(__file__).with_name("golden") / "pipeline_report.json"
CNN_GOLDEN = GOLDEN.with_name("cnn_report.json")
CNN_ARRAYS = GOLDEN.with_name("cnn_arrays.json")


def base_config(out, n=96, epochs=2):
    return {
        "seed": 3,
        "out": str(out),
        "dataset": {"kind": "blobs", "n": n, "resolution": 8, "classes": 2,
                    "noise": 0.05, "spread": 1.5},
        "eval_fraction": 0.25,
        "train": [
            {"name": "std", "method": "standard",
             "model": {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [12],
                       "classes": 2},
             "epochs": epochs, "batch_size": 24, "val_fraction": 0.2,
             "pgd_iters": 2},
            {"name": "igd2", "method": "igd", "teacher": "std", "lam": 2,
             "model": {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [12],
                       "classes": 2},
             "epochs": epochs, "batch_size": 24, "val_fraction": 0.2,
             "pgd_iters": 2},
        ],
        "attacks": [
            {"name": "noise2", "kind": "ina1", "k": 2},
            {"name": "noise5", "kind": "ina1", "k": 5},
            {"name": "pgd8", "kind": "pgd", "iters": 2},
        ],
        "gini": {"region": 4},
        "theory": {"ks": [2, 8], "draws": 4, "limit": 6},
        "corrupt": {"kinds": ["gaussian"], "severities": [1, 3], "limit": 8},
    }


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return path


def cnn_config(out):
    """One-channel CNNs whose runs reach conv2d with a channel or a batch of
    1: the first layer, the kernel gradient of the input, and the last
    training batch, which holds 1 of the 96 training samples. The 40-image
    holdout spans conv2d tiles of 32 images, the last one partial."""
    def cnn(activation):
        return {"kind": "cnn", "in_shape": [1, 8, 8], "channels": [4, 8], "classes": 2,
                "activation": activation}

    return {
        "seed": 7,
        "out": str(out),
        "dataset": {"kind": "blobs", "n": 160, "resolution": 8, "classes": 2,
                    "noise": 0.05, "spread": 1.5},
        "eval_fraction": 0.25,
        "train": [
            {"name": "std", "method": "standard", "model": cnn("relu"),
             "epochs": 3, "batch_size": 19, "val_fraction": 0.2, "pgd_iters": 2},
            {"name": "igd2", "method": "igd", "teacher": "std", "lam": 2,
             "model": cnn("softplus"),
             "epochs": 3, "batch_size": 19, "val_fraction": 0.2, "pgd_iters": 2},
        ],
        "attacks": [
            {"name": "pgd2", "kind": "pgd", "iters": 2},
            {"name": "occlude", "kind": "ioa", "n": 2, "r": 1},
            {"name": "smooth4", "kind": "ina2", "k": 4, "method": "smoothgrad"},
        ],
        "gini": {"region": 4, "method": "input_x_gradient"},
        "theory": {"ks": [2, 8], "draws": 4, "limit": 6},
        "corrupt": {"kinds": ["gaussian"], "severities": [1, 3], "limit": 8},
    }


def cnn_golden_run(root):
    """A `report` run of `cnn_config` under `support.recorded_arrays`: its
    loaded config and what the recorder saw."""
    config = load_config(write_config(root / "cfg.json", cnn_config(root / "out")))
    with recorded_arrays() as seen:
        run(config)
    return config, seen


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full report run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(root / "cfg.json", base_config(root / "out"))
    config = load_config(cfg_path)
    bundle = run(config)
    return cfg_path, config, bundle


def tree_digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name != "log.txt"}


# --------------------------------------------------------------------------
# config validation


def test_unknown_top_level_key(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_unknown_dataset_kind(tmp_path):
    cfg = {"dataset": {"kind": "imagenet"}}
    with pytest.raises(ConfigError, match="imagenet"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_dataset_extra_key_rejected(tmp_path):
    cfg = {"dataset": {"kind": "blobs", "n": 8, "flavor": "x"}}
    with pytest.raises(ConfigError, match="flavor"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_duplicate_train_names(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["train"][1] = dict(cfg["train"][0])
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_igd_teacher_must_come_earlier(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["train"][1]["teacher"] = "later"
    with pytest.raises(ConfigError, match="teacher"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_teacher_rejected_outside_igd(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["train"] = [dict(cfg["train"][0], teacher="std")]
    with pytest.raises(ConfigError, match="teacher"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_student_trains_on_the_teacher_model_the_stage_holds(tmp_path, monkeypatch):
    """The train stage hands the igd student its teacher's model; no
    checkpoint is read back to get it."""
    def no_read(path):
        raise AssertionError(f"checkpoint {path} read back")

    monkeypatch.setattr(training, "load_checkpoint", no_read)
    config = load_config(write_config(tmp_path / "c.json",
                                      base_config(tmp_path / "o", n=40, epochs=1)))
    run(config, stages=("data", "train"))
    assert all(config.checkpoint(name).exists() for name, _ in config.train)


def test_theory_stage_takes_one_saliency_batch_per_model(tmp_path, monkeypatch):
    """Every selection of a model's mask sweep reads the same saliency
    batch, so a cached rerun takes one input-gradient batch per model."""
    config = load_config(write_config(tmp_path / "c.json",
                                      base_config(tmp_path / "o", n=40, epochs=1)))
    run(config, stages=("data", "train", "theory"))
    calls, real = [], attribution.input_gradients
    monkeypatch.setattr(attribution, "input_gradients",
                        lambda *args: calls.append(args) or real(*args))
    run(config, stages=("data", "train", "theory"))
    assert len(config.theory.selections) == 2
    assert len(calls) == len(config.train) == 2


def test_unknown_attack_kind(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["attacks"] = [{"name": "x", "kind": "warp"}]
    with pytest.raises(ConfigError, match="warp"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_attack_option_spelling_checked(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["attacks"] = [{"name": "x", "kind": "ina1", "K": 5}]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_not_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


def test_root_must_be_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(p)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize("section, key, value", [
    ("corrupt", "severities", [0]),
    ("corrupt", "severities", [6]),
    ("corrupt", "severities", [1, 2.0]),
    ("corrupt", "severities", [True]),
    ("corrupt", "severities", 3),
    (None, "eval_limit", 0),
    (None, "eval_limit", -4),
    (None, "eval_limit", 2.5),
    (None, "eval_limit", None),
    (None, "eval_limit", "8"),
    ("gini", "limit", 0),
    ("theory", "limit", 0),
    ("theory", "limit", 1.0),
    ("corrupt", "limit", 0),
    ("corrupt", "limit", False),
    ("gini", "region", 0),
    ("gini", "region", 2.5),
    ("gini", "method", "saliancy"),
    ("theory", "ks", [-1]),
    ("theory", "ks", [4.0]),
    ("theory", "selections", ["rand"]),
    ("theory", "draws", 0),
    ("corrupt", "kinds", ["blur"]),
    ("attacks.0", "k", -1),
    ("attacks.0", "method", "salency"),
    ("train.0.model", "hidden", [-3]),
    ("train.0.model", "classes", 0),
    ("train.0", "lam", 1),
    ("train.1", "lam", -1),
    ("train.1", "epochs", 1.5),
    ("train.0", "batch_size", 8.0),
    ("train.0", "pgd_iters", True),
    ("attacks.0", "k", 1.5),
    ("attacks.1", "k", True),
    ("attacks.2", "iters", 2.5),
    (None, "seed", True),
    (None, "eval_fraction", 1.5),
    (None, "eval_fraction", 0),
    (None, "eval_fraction", "0.2"),
    ("dataset", "n", 40.5),
    ("dataset", "n", 0),
    ("dataset", "resolution", "8"),
    ("dataset", "resolution", 4),
    ("dataset", "classes", 0),
    ("dataset", "channels", 2.0),
    ("dataset", "seed", 1.5),
    ("dataset", "seed", True),
    ("attacks.0", "name", "noise,2"),
    ("attacks.1", "name", 5),
    ("train.1", "name", "igd,2"),
    ("train.1", "lr", "0.05"),
    ("train.0", "momentum", True),
    ("train.0", "weight_decay", float("nan")),
    ("attacks.2", "eps", "0.03"),
    ("attacks.2", "step", float("inf")),
    ("attacks.0", "k", 65),
    ("theory", "ks", [2, 65]),
    ("dataset", "background", "0.2"),
    ("dataset", "amplitude", float("nan")),
    ("dataset", "spread", 0),
    ("dataset", "spread", -1.5),
    ("dataset", "noise", "x"),
    ("dataset", "noise", -0.05),
    ("dataset", "jitter", True),
    ("dataset", "jitter", None),
    (None, "dataset", {"kind": "cifar", "path": "train.bin", "variant": "cifar11"}),
    ("train.1", "pgd_eps", -0.1),
    ("train.0", "pgd_step", -0.01),
    ("train.0", "pgd_iters", -1),
    ("train.0", "cutout_hole", -1),
    ("train.0", "cutout_hole", 9),
    ("train.1", "cutout_hole", 40),
    ("train.1.model", "in_shape", [1, 16, 16]),
    ("train.0.model", "in_shape", [3, 8, 8]),
    ("dataset", "spread", 1e300),
    ("train.0", "model", {"kind": "cnn", "in_shape": [3, 8, 8], "channels": [2, 2],
                          "classes": 2}),
    (None, "dataset", {"kind": "cifar", "path": 5}),
    (None, "dataset", {"kind": "attribution_file", "path": 5}),
    ("dataset", "spread", 1e-300),
    ("dataset", "jitter", 1e300),
    ("dataset", "jitter", -1e300),
    ("gini", "region", 8),
    ("dataset", "n", 10**400),
    ("train.0", "model", {"kind": "mlp", "in_shape": [1, 8, 10**400], "hidden": [12],
                          "classes": 2}),
    (None, "seed", 10**300),
    (None, "seed", -1),
    (None, "seed", 2**32),
    ("dataset", "seed", -1),
    ("dataset", "seed", 2**32),
    ("train.0", "lr", 0.0),
    ("train.0", "weight_decay", -1e-4),
    ("train.0", "momentum", -0.1),
    ("train.0", "momentum", 1.0),
    ("train.0", "plateau_factor", 0),
    ("train.0", "plateau_factor", 1.5),
    ("train.0", "plateau_patience", -1),
    ("train.0.model", "in_shape", 5),
])
def test_bad_values_rejected_at_load(tmp_path, section, key, value):
    """Refused at load, before any model trains: severity 0 would index
    severity 5's sigma under a severity-0 label, a zero limit would fail deep
    inside a stage on a zero-size array, and a bad attack, model or training
    value used to exit 3 only after the entries before it had trained.
    `section` is a dotted path into the config; list indices are numbers.
    The message starts at the section, `train.1` as `train[1]`, and then
    names the key."""
    cfg = base_config(tmp_path / "o")
    target = cfg
    for part in section.split(".") if section else ():
        target = target[int(part)] if part.isdigit() else target[part]
    target[key] = value
    location = re.sub(r"\.(\d+)", r"\\[\1\\]", section).replace(".", ".*") + ".*" if section else ""
    with pytest.raises(ConfigError, match=rf"^{location}\b{key}\b"):
        load_config(write_config(tmp_path / "c.json", cfg))


@pytest.mark.parametrize("key, value, message", [
    ("classes", 4, "train[0]: model: 2 classes, fewer than the dataset's 4"),
    ("n", 1, "eval_fraction: a batch of 1 split at 0.25 leaves no training sample"),
    ("n", 2, "train[0]: val_fraction: a batch of 1 split at 0.2 leaves no training sample"),
], ids=["classes-4", "n-1", "n-2"])
def test_bad_dataset_values_rejected_through_another_entry(tmp_path, key, value, message):
    """A dataset value that only a split or a train entry cannot take is
    refused at load under the name of what refuses it."""
    cfg = base_config(tmp_path / "o")
    cfg["dataset"][key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(write_config(tmp_path / "c.json", cfg))


def declared_defaults():
    """(where, name, annotation, default) of each declared config value, and
    each severity ladder step as a corruption `param`."""
    for fn in (training.TrainConfig, AttackSpec, synth_blobs, load_cifar, MLP, CNN,
               LinearScore, harness._top, harness._gini, harness._theory, harness._corrupt):
        for p in inspect.signature(fn, eval_str=True).parameters.values():
            yield fn.__name__, p.name, p.annotation, p.default
    for kind, ladder in SEVERITY.items():
        for param in ladder:
            yield f"SEVERITY[{kind!r}]", "param", CORRUPT_PARAM[kind], param


def test_every_default_meets_its_annotation():
    """Load checks only the values a config gives, so a default that broke
    its own bounds would pass unseen; a default of None means "not given"."""
    seen = 0
    for where, name, annotation, default in declared_defaults():
        if default is not inspect.Parameter.empty and default is not None:
            check_value(f"{where}: {name}", annotation, default)
            seen += 1
    assert seen > 40


# what each leaf of the fuzzed config is replaced with, in turn
FUZZ_VALUES = [0, -1, 1, 2, 3, 64, 0.5, 1e-300, 1e300, True, "x", None, [], {}, [0]]
# the causes of a failed stage that depend on the data and the trained models
DATA_DEPENDENT = ["no sample is classified correctly by every model"]


def leaf_paths(node, path=()):
    """The key path of each value in `node` that is neither an object nor a list."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def test_every_config_runs_or_is_refused_at_load(tmp_path, capsys):
    """Each leaf of a config, replaced in turn by each of FUZZ_VALUES, either
    runs `report` to the end (exit 0) or is refused at load (exit 2); a stage
    may fail (exit 3) only for a cause in DATA_DEPENDENT. Every CSV a run
    writes parses, with this run's seed and digest in every row; the `ioa`
    and `corrupt` labels hold commas."""
    base = base_config(tmp_path / "unused", n=32, epochs=1)
    base["attacks"] += [{"name": "occlude", "kind": "ioa", "n": 2, "r": 2},
                        {"name": "shot", "kind": "corrupt", "corrupt_kind": "shot",
                         "param": 5}]
    cases = [(None, None)] + [(path, v) for path in leaf_paths(base) for v in FUZZ_VALUES]
    bad = []
    for i, (path, value) in enumerate(cases):
        cfg = copy.deepcopy(base)
        if path:
            target = cfg
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        p = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / str(i)
        code = cli.main(["report", "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        if code not in (0, 2) and not (code == 3 and any(m in err for m in DATA_DEPENDENT)):
            bad.append(f"{path} = {value!r}: exit {code}: {err.strip()}")
        if code in (0, 3):
            config = load_config(p)
            bad += [f"{path} = {value!r}: {f}"
                    for f in csv_faults(out, config.seed, config.digest)]
    assert bad == []


@pytest.mark.parametrize("second, message", [
    ({"kind": "mlp", "in_shape": [1, 16, 16], "hidden": [4], "classes": 4},
     r"train\[1\]: model in_shape \[1, 16, 16\] on \(1, 8, 8\) images: matmul"),
    ({"kind": "linear", "in_shape": [1, 8, 8]},
     r"train\[1\]: model: 2 classes, fewer than the dataset's 4"),
])
def test_model_that_cannot_take_the_data_exits_2(tmp_path, capsys, second, message):
    """Refused at load: such an entry used to exit 3 in the train stage,
    after the entries before it had written their checkpoints."""
    mlp = {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [4], "classes": 4}
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "blobs", "n": 40, "resolution": 8, "classes": 4},
           "train": [{"name": "a", "method": "standard", "model": mlp, "epochs": 1},
                     {"name": "b", "method": "standard", "model": second, "epochs": 1}]}
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["train", "--config", str(p)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_attribution_file_path_must_be_a_string(tmp_path):
    """A number used to reach `np.fromfile`, which took it for a file descriptor."""
    cfg = {"dataset": {"kind": "attribution_file", "path": 5}}
    with pytest.raises(ConfigError, match="dataset: path must be a string, got 5"):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_split_leaving_no_training_sample_is_refused_at_load(tmp_path, capsys):
    """Two blobs leave one pool sample and no training sample: load says so,
    where the train stage used to fail after the data stage had run."""
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "blobs", "n": 2, "resolution": 8, "classes": 2},
           "train": [{"name": "s", "method": "standard", "epochs": 1,
                      "model": {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [4],
                                "classes": 2}}]}
    p = write_config(tmp_path / "c.json", cfg)
    with pytest.raises(ConfigError, match=r"train\[0\]: val_fraction: a batch of 1 split"):
        load_config(p)
    assert cli.main(["train", "--config", str(p)]) == 2
    assert "leaves no training sample" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, param", [("gaussian", -1), ("shot", 0), ("impulse", 2)])
def test_bad_corrupt_param_rejected_at_load(tmp_path, kind, param):
    """A corruption its kind cannot apply used to fail the attack stage,
    after every model had trained."""
    cfg = base_config(tmp_path / "o")
    cfg["attacks"].append({"name": "c", "kind": "corrupt", "corrupt_kind": kind,
                           "param": param})
    with pytest.raises(ConfigError, match=r"^attacks\[3\]: param must be"):
        load_config(write_config(tmp_path / "c.json", cfg))


@pytest.mark.parametrize("key, value", [("n", 0), ("r", 0), ("r", -2),
                                        ("color", 1.5), ("color", -0.1)])
def test_bad_ioa_rejected_at_load(tmp_path, key, value):
    """An occlusion attack that cannot run is refused before any model trains."""
    cfg = base_config(tmp_path / "o")
    cfg["attacks"].append({"name": "occlude", "kind": "ioa", key: value})
    with pytest.raises(ConfigError, match=r"attacks\[3\].*" + key):
        load_config(write_config(tmp_path / "c.json", cfg))


def test_k_above_cifar_pixels_rejected_at_load(tmp_path):
    """A CIFAR image has 32 * 32 pixels, so k = 1025 cannot be drawn."""
    cfg = base_config(tmp_path / "o")
    cfg["dataset"] = {"kind": "cifar", "path": "train.bin"}
    for entry in cfg["train"]:
        entry["model"] |= {"in_shape": [3, 32, 32], "classes": 10}
    load_config(write_config(tmp_path / "c.json", cfg))
    cfg["attacks"][0]["k"] = 1025
    with pytest.raises(ConfigError, match=r"attacks\[0\].*1024 pixels"):
        load_config(write_config(tmp_path / "c.json", cfg))


def readme_config() -> dict:
    """The quick-start config in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"cat > exp.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1))


def test_readme_quick_start_loads(tmp_path):
    """The quick-start config in README.md is one this version accepts."""
    config = load_config(write_config(tmp_path / "exp.json", readme_config()))
    assert [name for name, _ in config.train] == ["std", "pgdat", "igd2"]
    assert [spec.label() for _, spec in config.attacks] == [
        "ina1(k=16)", "ina1(k=64)", f"pgd(eps={8 / 255:.4g})"]


def test_unknown_stage_rejected(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.json",
                                   {"dataset": {"kind": "blobs", "n": 8}}))
    with pytest.raises(ConfigError, match="deploy"):
        run(cfg, stages=("deploy",))


# --------------------------------------------------------------------------
# digest and overrides


def test_digest_ignores_seed_and_out(tmp_path):
    cfg = base_config(tmp_path / "o")
    a = load_config(write_config(tmp_path / "a.json", cfg))
    cfg2 = dict(cfg, seed=99, out=str(tmp_path / "elsewhere"))
    b = load_config(write_config(tmp_path / "b.json", cfg2))
    assert a.digest == b.digest
    assert a.seed == 3 and b.seed == 99


def test_digest_tracks_body(tmp_path):
    cfg = base_config(tmp_path / "o")
    a = load_config(write_config(tmp_path / "a.json", cfg))
    cfg["train"][0]["lr"] = 0.01
    b = load_config(write_config(tmp_path / "b.json", cfg))
    assert a.digest != b.digest


def test_overrides_beat_file(tmp_path):
    p = write_config(tmp_path / "c.json", base_config(tmp_path / "o"))
    cfg = load_config(p, seed=11, out=tmp_path / "other")
    assert cfg.seed == 11
    assert cfg.out == tmp_path / "other"
    assert cfg.digest == load_config(p).digest


def test_digest_is_canonical_json_hash():
    body = {"b": 1, "a": [1, 2]}
    expect = hashlib.sha256(b'{"a":[1,2],"b":1}').hexdigest()
    assert config_digest(body) == expect


# --------------------------------------------------------------------------
# confidence statistics


class _FixedLogits:
    def __init__(self, logits):
        self._z = np.asarray(logits, dtype=np.float64)

    def logits(self, x):
        return self._z[: len(x)]


def test_confidence_hand_fixture():
    z = [[2.0, 0.0],   # label 0, correct, p = sigma(2)
         [0.0, 1.0],   # label 1, correct, p = sigma(1)
         [3.0, 0.0]]   # label 1, wrong, excluded
    model = _FixedLogits(z)
    x = np.zeros((3, 4))
    mean, count = confidence_stats(model, x, np.array([0, 1, 1]))
    expect = (1 / (1 + math.exp(-2)) + 1 / (1 + math.exp(-1))) / 2
    assert count == 2
    assert abs(mean - expect) < 1e-6


def test_confidence_tie_goes_to_lowest_index():
    model = _FixedLogits([[1.0, 1.0], [1.0, 1.0]])
    x = np.zeros((2, 4))
    mean, count = confidence_stats(model, x, np.array([0, 1]))
    # only the label-0 sample counts as correct, at probability one half
    assert count == 1
    assert abs(mean - 0.5) < 1e-12


def test_confidence_saturated_and_uniform():
    model = _FixedLogits([[1000.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    x = np.zeros((2, 4))
    mean, count = confidence_stats(model, x, np.array([0, 0]))
    assert count == 2
    assert abs(mean - (1.0 + 1.0 / 3.0) / 2) < 1e-9


def test_confidence_no_correct_samples():
    model = _FixedLogits([[1.0, 0.0]])
    mean, count = confidence_stats(model, np.zeros((1, 4)), np.array([1]))
    assert count == 0
    assert math.isnan(mean)


# --------------------------------------------------------------------------
# writers


def test_csv_roundtrips_floats():
    vals = [0.1, 1 / 3, 2.0 ** -52, float(np.float64(math.pi)), np.float64(0.49)]
    line = csv_text(["a", "b", "c", "d", "e"], [vals]).splitlines()[1]
    assert [float(s) for s in line.split(",")] == vals


def test_csv_is_deterministic():
    rows = [["m", 0.25, 7], ["n", float("nan"), 8], ["ioa(n=2,r=1)", 'a"b', 9]]
    text = csv_text(["x", "y", "z"], rows)
    assert text == csv_text(["x", "y", "z"], rows)
    assert text == 'x,y,z\nm,0.25,7\nn,nan,8\n"ioa(n=2,r=1)","a""b",9\n'


def test_atomic_write_keeps_old_file_on_failure(tmp_path):
    p = tmp_path / "f.bin"
    atomic_write(p, b"old")
    with pytest.raises(TypeError):
        atomic_write(p, "not bytes")
    assert p.read_bytes() == b"old"
    assert [x.name for x in tmp_path.iterdir()] == ["f.bin"]


def test_atomic_write_failure_names_the_file_not_its_temp(tmp_path):
    p = tmp_path / "gone" / "f.bin"
    with pytest.raises(FileNotFoundError) as e:
        atomic_write(p, b"new")
    assert e.value.filename == str(p)


def test_svg_chart_basics():
    svg = svg_line_chart("t<itle", "k", "rate",
                         [("a&b", [1.0, 2.0, 3.0], [0.1, 0.4, 0.2])])
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "t&lt;itle" in svg and "a&amp;b" in svg
    assert svg == svg_line_chart("t<itle", "k", "rate",
                                 [("a&b", [1.0, 2.0, 3.0], [0.1, 0.4, 0.2])])


def test_svg_chart_degenerate_ranges():
    svg = svg_line_chart("flat", "x", "y", [("s", [1.0, 1.0], [2.0, 2.0])])
    assert "polyline" in svg
    empty = svg_line_chart("none", "x", "y", [])
    assert empty.startswith("<svg")


# --------------------------------------------------------------------------
# pipeline behavior


def test_bundle_lists_expected_files(pipeline):
    _, config, bundle = pipeline
    names = set(bundle.files)
    assert "tables/gini.csv" in names
    assert "tables/l1.csv" in names
    assert "tables/confidence.csv" in names
    assert "curves/error_rate.csv" in names
    assert "curves/mask_stats.csv" in names
    assert "curves/corrupt.csv" in names
    for rel in names:
        assert (config.out / rel).exists()
    manifest = json.loads((config.out / "bundle.json").read_text())
    assert manifest["failed_stage"] is None
    assert manifest["config"] == config.digest
    assert manifest["files"] == sorted(names)


def test_every_row_carries_seed_and_digest(pipeline):
    _, config, _ = pipeline
    for rel in ["tables/gini.csv", "tables/l1.csv", "tables/confidence.csv",
                "curves/error_rate.csv", "curves/mask_stats.csv",
                "curves/corrupt.csv"]:
        assert len(read_csv(config.out / rel)) > 1, rel
    assert csv_faults(config.out, config.seed, config.digest) == []


def test_checkpoints_carry_provenance(pipeline):
    _, config, _ = pipeline
    ckpts = sorted((config.out / "checkpoints").glob("*.ckpt"))
    assert len(ckpts) == 2
    for p in ckpts:
        _, extra = load_checkpoint(p)
        assert extra["seed"] == config.seed
        assert extra["config"] == config.digest
        assert extra["method"] in ("standard", "igd")
        assert "best_epoch" in extra and "model" in extra


def test_rerun_is_bytewise_identical_without_retraining(pipeline):
    cfg_path, config, _ = pipeline
    before = tree_digests(config.out)
    stamps = {p: p.stat().st_mtime_ns
              for p in (config.out / "checkpoints").glob("*.ckpt")}
    run(load_config(cfg_path))
    after = tree_digests(config.out)
    assert before == after
    assert all(p.stat().st_mtime_ns == t for p, t in stamps.items())


def test_report_matches_the_golden_file(pipeline):
    """What the report computes does not change: every table and curve
    cell, `bundle.json`, and each checkpoint's header and parameter summary
    match `golden/pipeline_report.json` (strings and ints exactly, floats
    within 1e-9). `golden/write_pipeline_golden.py` rewrites it for a change
    that is meant to alter the numbers."""
    _, config, _ = pipeline
    want = json.loads(GOLDEN.read_text())
    assert summary_mismatches(report_summary(config.out), want) == []


@pytest.fixture(scope="module")
def cnn_pipeline(tmp_path_factory):
    return cnn_golden_run(tmp_path_factory.mktemp("cnn"))


def test_cnn_run_reaches_conv2d_with_a_channel_and_a_batch_of_one(cnn_pipeline):
    """The golden CNN config must keep the conv2d calls that it was chosen
    to guard: with a size-1 axis, and over more than one tile of images
    with a partial last tile."""
    _, seen = cnn_pipeline
    inputs = [x for x, _ in seen["conv2d_shapes"]]
    assert any(c == 1 for _, c, _, _ in inputs)
    assert any(n == 1 for n, _, _, _ in inputs)
    tiles = [(n, max(1, kernels._TILE_COLS // (ho * wo)))
             for _, (n, _, ho, wo) in seen["conv2d_shapes"]]
    assert any(n > nb and n % nb for n, nb in tiles)


def test_cnn_report_matches_the_golden_files(cnn_pipeline):
    """A one-channel CNN report matches `golden/cnn_report.json` by the rule
    of `golden/pipeline_report.json`, and every PGD `x_adv`, input-gradient
    batch, conv2d, maxpool2 and unpool2 result it computed has the sha256
    in `golden/cnn_arrays.json`, so a change to a conv or pool kernel that
    moves no written number still shows."""
    config, seen = cnn_pipeline
    assert csv_faults(config.out, config.seed, config.digest) == []
    want = json.loads(CNN_GOLDEN.read_text())
    assert summary_mismatches(report_summary(config.out), want) == []
    arrays = json.loads(CNN_ARRAYS.read_text())
    assert {name: seen[name] for name in arrays} == arrays


@pytest.mark.parametrize("got,want,ok", [
    ("0.5", "0.5000000000001", True), ("0.5", "0.500001", False),
    ("16", "17", False), ("16", "16.0", False), ("std", "igd2", False),
    (0.25, 0.25 + 1e-12, True), (0.25, 0.2501, False), (3, 3, True),
    (3, 3.0, False), ([1, 2], [1, 2, 3], False), ({"a": 1}, {"b": 1}, False),
])
def test_golden_comparison_rules(got, want, ok):
    assert (summary_mismatches(got, want) == []) is ok


def gini_rows(out):
    lines = (out / "tables" / "gini.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_table_gini_is_the_training_probe(pipeline):
    """tables/gini.csv and the per-epoch probe share one reducer, so on the
    same samples they agree bit for bit."""
    _, config, _ = pipeline
    state = harness.RunState(config)
    harness._stage_data(state)
    harness._stage_train(state)
    rows = gini_rows(config.out)
    assert [r["name"] for r in rows] == list(state.models)
    px, lab = state.holdout.pixels, state.holdout.labels
    for r in rows:
        model = state.models[r["name"]]
        assert float(r["global_gini"]) == mean_saliency_gini(model, px, lab, cap=len(lab))
        assert int(r["maps"]) == len(lab)


def test_tables_and_probe_count_a_tiny_map_alike(tmp_path):
    """A map of 1e-14 per pixel carries mass: the tables used to skip it
    (L2 norm below 1e-12) while the training probe counted it."""
    cfg = {"out": str(tmp_path / "o"), "gini": {"region": 2},
           "dataset": {"kind": "blobs", "n": 16, "resolution": 8, "classes": 2},
           "train": [{"name": "tiny", "method": "standard",
                      "model": {"kind": "linear", "in_shape": [1, 8, 8]}}]}
    state = harness.RunState(load_config(write_config(tmp_path / "c.json", cfg)))
    harness._stage_data(state)
    state.holdout = state.holdout.subset(state.holdout.labels == 1)
    state.models["tiny"] = LinearScore.from_arrays(np.full(64, 1e-14), 0.0, (1, 8, 8))
    harness._stage_tables(state)
    (row,) = gini_rows(state.config.out)
    px, lab = state.holdout.pixels, state.holdout.labels
    assert int(row["maps"]) == len(lab) > 0
    assert float(row["global_gini"]) == mean_saliency_gini(state.models["tiny"], px, lab)
    assert float(row["global_gini"]) == float(row["regional_gini"]) == 0.0


def test_single_block_region_is_refused_at_load(tmp_path, capsys):
    """region 16 on 16x16 data leaves one block: refused at load, where the
    tables stage used to fail after every model had trained."""
    cfg = base_config(tmp_path / "o", epochs=1)
    cfg["dataset"]["resolution"] = 16
    cfg["train"] = cfg["train"][:1]
    cfg["train"][0]["model"]["in_shape"] = [1, 16, 16]
    cfg["gini"] = {"region": 16}
    p = write_config(tmp_path / "c.json", cfg)
    with pytest.raises(ConfigError, match="gini.region must be below the image's side 16"):
        load_config(p)
    assert cli.main(["report", "--config", str(p)]) == 2
    capsys.readouterr()
    assert not (tmp_path / "o").exists()


def test_plots_come_from_this_runs_rows(tmp_path):
    """A second config without attacks or theory, run into the same out,
    must not draw charts from the first config's CSVs, and deletes the
    untagged outputs the first run listed that it did not write itself;
    a file no bundle listed stays."""
    out = tmp_path / "out"
    cfg = base_config(out, n=48, epochs=1)
    cfg["train"] = cfg["train"][:1]
    del cfg["corrupt"]
    first = run(load_config(write_config(tmp_path / "a.json", cfg)))
    assert {"plots/error_rate_ina1.svg", "plots/mask_stats.svg"} <= set(first.files)
    (out / "tables" / "notes.csv").write_text("kept\n")
    del cfg["attacks"], cfg["theory"]
    second = run(load_config(write_config(tmp_path / "b.json", cfg)))
    assert not (out / "curves" / "error_rate.csv").exists()
    assert not list((out / "plots").iterdir())
    assert (out / "tables" / "notes.csv").read_text() == "kept\n"
    assert (out / "tables" / "gini.csv").exists()
    assert not [f for f in second.files if f.startswith("plots/")]
    manifest = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert manifest["files"] == second.files


def test_failed_run_keeps_earlier_outputs_due(tmp_path, monkeypatch):
    """A failed run between two successful ones does not lose what the
    first one listed: config A writes an attack curve, config B fails in
    the tables stage, B then succeeds and deletes A's curve."""
    out = tmp_path / "out"
    cfg = base_config(out, n=48, epochs=1)
    cfg["train"] = cfg["train"][:1]
    del cfg["theory"], cfg["corrupt"]
    run(load_config(write_config(tmp_path / "a.json", cfg)))
    assert (out / "curves" / "error_rate.csv").exists()
    del cfg["attacks"]
    config_b = load_config(write_config(tmp_path / "b.json", cfg))

    def failing_gini(maps, region=None):  # a cause load cannot see
        raise ValueError("no gini today")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "mean_gini", failing_gini)
        with pytest.raises(StageError, match="no gini today") as err:
            run(config_b)
    assert err.value.stage == "tables"
    assert json.loads((out / "bundle.json").read_text())["stale"] == [
        "curves/error_rate.csv", "plots/error_rate_ina1.svg", "tables/confidence.csv",
        "tables/gini.csv", "tables/l1.csv"]
    fixed = run(config_b)
    assert not (out / "curves" / "error_rate.csv").exists()
    assert not (out / "plots" / "error_rate_ina1.svg").exists()
    manifest = json.loads((out / "bundle.json").read_text())
    assert "stale" not in manifest and manifest["files"] == fixed.files


def rerun_after(tmp_path, damage) -> str:
    """Run a small config into two directories, `damage(out, config)` the
    second, rerun there, and check that every file but log.txt then equals
    the clean run's; returns the rerun's log."""
    cfg = base_config(tmp_path / "unused", n=48, epochs=1)
    del cfg["attacks"], cfg["theory"], cfg["corrupt"]
    p = write_config(tmp_path / "c.json", cfg)
    clean, cut = tmp_path / "clean", tmp_path / "cut"
    for out in (clean, cut):
        assert cli.main(["evaluate", "--config", str(p), "--out", str(out)]) == 0
    damage(cut, load_config(p))
    assert cli.main(["evaluate", "--config", str(p), "--out", str(cut)]) == 0
    assert tree_digests(cut) == tree_digests(clean)
    return (cut / "log.txt").read_text()


@pytest.mark.parametrize("victim", ["std", "igd2"])
def test_truncated_checkpoint_is_retrained(tmp_path, capsys, victim):
    def truncate(out, config):
        ckpt = out / "checkpoints" / f"{config.tag(victim)}.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])

    assert f"{victim} checkpoint unreadable" in rerun_after(tmp_path, truncate)
    capsys.readouterr()


def test_checkpoint_without_its_record_is_retrained(tmp_path, capsys):
    """A run killed between the training record and the checkpoint leaves
    only the record (it is written first); a checkpoint whose record is
    gone is not a finished entry, so the rerun retrains it."""
    def lose_record(out, config):
        (out / "records" / f"{config.tag('std')}-train.csv").unlink()

    assert "std checkpoint has no record, retraining" in rerun_after(tmp_path, lose_record)
    capsys.readouterr()


def test_run_removes_temp_files_of_dead_writers_only(tmp_path):
    cfg = base_config(tmp_path / "out", n=48)
    config = load_config(write_config(tmp_path / "c.json", cfg))
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (config.out / "checkpoints").mkdir(parents=True)
    dead = config.out / "checkpoints" / f".std.ckpt.{child.pid}.tmp"
    live = config.out / f".other.csv.{os.getpid()}.tmp"
    dead.write_bytes(b"torn")
    live.write_bytes(b"being written")
    run(config, stages=("data",))
    assert not dead.exists() and live.read_bytes() == b"being written"
    assert f"removed checkpoints/{dead.name}" in (config.out / "log.txt").read_text()


def test_orphan_cleanup_keeps_the_temp_file_of_another_users_writer(tmp_path, monkeypatch):
    """A pid that may not be signalled names a running process of another
    user, so its temp file is being written."""
    live = tmp_path / f".f.csv.{os.getpid()}.tmp"
    live.write_bytes(b"being written")

    def kill(pid, sig):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(os, "kill", kill)
    assert remove_orphan_temps(tmp_path) == []
    assert live.read_bytes() == b"being written"


@pytest.mark.parametrize("command", ["report", "evaluate"])
def test_a_run_with_no_trained_models_writes_only_its_manifest_and_log(
        tmp_path, capsys, command):
    p = write_config(tmp_path / "c.json", dict(readme_config(), train=[]))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "bundle.json").read_text())["files"] == []
    assert sorted(str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()) == [
        "bundle.json", "log.txt"]
    capsys.readouterr()


def test_igd_student_differs_from_teacher(pipeline):
    _, config, _ = pipeline
    std, _ = load_checkpoint(config.out / "checkpoints" /
                             f"{config.tag('std')}.ckpt")
    igd, _ = load_checkpoint(config.out / "checkpoints" /
                             f"{config.tag('igd2')}.ckpt")
    assert any(not np.array_equal(std.params[k], igd.params[k])
               for k in std.params)


def test_train_only_stages(tmp_path):
    cfg = base_config(tmp_path / "out", n=48)
    cfg["train"] = cfg["train"][:1]
    config = load_config(write_config(tmp_path / "c.json", cfg))
    bundle = run(config, stages=("data", "train"))
    assert all(f.startswith("records/") for f in bundle.files)
    assert not (config.out / "tables").exists()


def test_seed_override_separates_artifacts(tmp_path):
    cfg = base_config(tmp_path / "out", n=48)
    cfg["train"] = cfg["train"][:1]
    p = write_config(tmp_path / "c.json", cfg)
    run(load_config(p), stages=("data", "train"))
    run(load_config(p, seed=4), stages=("data", "train"))
    ckpts = sorted(x.name for x in (tmp_path / "out" / "checkpoints").iterdir())
    assert len(ckpts) == 2
    assert any(c.endswith("-s3.ckpt") for c in ckpts)
    assert any(c.endswith("-s4.ckpt") for c in ckpts)


def test_stage_failure_recorded_with_partials(tmp_path):
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "cifar", "path": str(tmp_path / "nope")}}
    config = load_config(write_config(tmp_path / "c.json", cfg))
    with pytest.raises(StageError) as err:
        run(config)
    assert err.value.stage == "data"
    manifest = json.loads((config.out / "bundle.json").read_text())
    assert manifest["failed_stage"] == "data"


# --------------------------------------------------------------------------
# attribution-file fixture path


def test_gini_fixture_single_row(tmp_path):
    rng = seed_stream(7, "fixture")
    values = rng.random((1, 8, 8))
    fpath = tmp_path / "map.f64"
    write_attribution(values, "saliency", 1, fpath)
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "attribution_file", "path": str(fpath)},
           "gini": {"region": 4}}
    config = load_config(write_config(tmp_path / "c.json", cfg))
    bundle = run(config, stages=("data", "train", "tables"))
    assert bundle.files == ["tables/gini.json"]
    row = json.loads((config.out / "tables" / "gini.json").read_text())
    assert row["n"] == 64
    assert row["method"] == "saliency"
    assert row["config"] == config.digest
    expect = gini_exact(np.abs(values).sum(axis=0).reshape(-1))
    assert abs(row["global_gini"] - expect) < 1e-12
    assert 0.0 <= row["regional_gini"] <= 1.0


def test_gini_fixture_single_block_refused(tmp_path):
    fpath = tmp_path / "map.f64"
    write_attribution(np.ones((1, 4, 4)), "saliency", 0, fpath)
    cfg = {"out": str(tmp_path / "out"), "gini": {"region": 4},
           "dataset": {"kind": "attribution_file", "path": str(fpath)}}
    config = load_config(write_config(tmp_path / "c.json", cfg))
    with pytest.raises(StageError, match="single block"):
        run(config, stages=("data", "train", "tables"))
    assert not (config.out / "tables" / "gini.json").exists()


def test_gini_fixture_all_zero_map_fails_the_tables_stage(tmp_path, capsys):
    fpath = tmp_path / "map.f64"
    write_attribution(np.zeros((1, 8, 8)), "saliency", 0, fpath)
    cfg = {"out": str(tmp_path / "out"), "gini": {"region": 4},
           "dataset": {"kind": "attribution_file", "path": str(fpath)}}
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["gini", "--config", str(p)]) == 3
    assert "stage 'tables'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tables" / "gini.json").exists()


def test_fixture_config_rejects_training(tmp_path):
    cfg = {"dataset": {"kind": "attribution_file", "path": "x"},
           "train": [{"name": "m", "method": "standard",
                      "model": {"kind": "linear", "in_shape": [4]}}]}
    with pytest.raises(ConfigError, match="nothing to train"):
        load_config(write_config(tmp_path / "c.json", cfg))


# --------------------------------------------------------------------------
# corruption severity ladders


def test_severity_tables_are_monotone_in_mse():
    rng = seed_stream(0, "severity-images")
    imgs = np.clip(rng.normal(0.5, 0.2, size=(6, 3, 16, 16)), 0, 1)
    for kind, params in SEVERITY.items():
        mses = []
        for sev, param in enumerate(params, start=1):
            acc = 0.0
            for i, x in enumerate(imgs):
                r = seed_stream(1, "sev", kind, sev, i)
                acc += float(np.mean((corrupt(x, kind, param, r) - x) ** 2))
            mses.append(acc / len(imgs))
        assert all(a < b for a, b in zip(mses, mses[1:])), (kind, mses)


def test_corrupt_curve_mse_column_monotone(pipeline):
    _, config, _ = pipeline
    lines = (config.out / "curves" / "corrupt.csv").read_text().splitlines()
    header = lines[0].split(",")
    si, mi = header.index("severity"), header.index("mse")
    by_sev = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        by_sev[int(cells[si])] = float(cells[mi])
    sevs = sorted(by_sev)
    assert len(sevs) >= 2
    assert all(by_sev[a] < by_sev[b] for a, b in zip(sevs, sevs[1:]))


# --------------------------------------------------------------------------
# command line


def test_cli_report_and_cache(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", n=48, epochs=1)
    cfg["train"] = cfg["train"][:1]
    cfg["attacks"] = cfg["attacks"][:1]
    del cfg["theory"], cfg["corrupt"]
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["report", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "out") in out
    before = tree_digests(tmp_path / "out")
    assert cli.main(["report", "--config", str(p)]) == 0
    assert tree_digests(tmp_path / "out") == before


def test_cli_config_error_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{"dataset": {"kind": "x"}}')
    assert cli.main(["train", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "gone.json")]) == 2
    capsys.readouterr()


def test_cli_stage_failure_exit_3(tmp_path, capsys):
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "cifar", "path": str(tmp_path / "gone")}}
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["evaluate", "--config", str(p)]) == 3
    assert "stage 'data'" in capsys.readouterr().err


def test_cli_out_naming_a_file_exit_3(tmp_path, capsys):
    cfg = {"dataset": {"kind": "blobs", "n": 16, "resolution": 8, "classes": 2}}
    p = write_config(tmp_path / "c.json", cfg)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    assert cli.main(["train", "--config", str(p), "--out", str(taken)]) == 3
    assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"
    assert taken.read_text() == "a file"


@pytest.mark.parametrize("name", ["bundle.json", "log.txt"])
def test_cli_failed_write_after_the_stages_exit_3(tmp_path, capsys, monkeypatch, name):
    """A full disk on a write after the stage loop ends in exit 3 and one
    stderr line naming the file, not in a traceback; the clean run's
    bundle.json keeps its bytes and no temp file is left."""
    cfg = base_config(tmp_path / "out", n=48, epochs=1)
    cfg["train"] = cfg["train"][:1]
    cfg["attacks"] = cfg["attacks"][:1]
    del cfg["theory"], cfg["corrupt"]
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["report", "--config", str(p)]) == 0
    bundle = (tmp_path / "out" / "bundle.json").read_bytes()
    capsys.readouterr()
    _fill_disk_for(monkeypatch, name)
    assert cli.main(["report", "--config", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write {tmp_path / 'out' / name}: "
                            f"{os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""
    assert (tmp_path / "out" / "bundle.json").read_bytes() == bundle
    assert not list((tmp_path / "out").rglob("*.tmp"))


def test_cli_failed_bundle_write_after_a_failed_stage_keeps_both_errors(
        tmp_path, capsys, monkeypatch):
    """A full disk on `bundle.json` after a failed stage hides neither
    error: stderr holds the stage's line, then the write's, the exit code
    stays 3, and log.txt is still written."""
    cfg = {"out": str(tmp_path / "out"),
           "dataset": {"kind": "cifar", "path": str(tmp_path / "gone")}}
    p = write_config(tmp_path / "c.json", cfg)
    _fill_disk_for(monkeypatch, "bundle.json")
    assert cli.main(["evaluate", "--config", str(p)]) == 3
    stage_line, write_line = capsys.readouterr().err.splitlines()
    assert stage_line.startswith("error: stage 'data' failed: ")
    assert write_line == (f"error: cannot write {tmp_path / 'out' / 'bundle.json'}: "
                          f"{os.strerror(errno.ENOSPC)}")
    assert "data: FAILED" in (tmp_path / "out" / "log.txt").read_text()
    assert not (tmp_path / "out" / "bundle.json").exists()


def _fill_disk_for(monkeypatch, name):
    """Make `harness.atomic_write` raise ENOSPC for the file called `name`."""
    real = harness.atomic_write

    def full_disk(path, data):
        if Path(path).name == name:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        real(path, data)

    monkeypatch.setattr(harness, "atomic_write", full_disk)


# --------------------------------------------------------------------------
# a fault at every write of a run, then a rerun

KILLED = 17  # exit status of a child stopped at a write

# A child `report` run that `os._exit`s just before or just after its n-th
# write into its output directory: argv is config, out, n and "before" or
# "after".
_KILL_AT_WRITE = f"""
import os, sys
from gradeq import cli
from support import faulty_replace
config, out, n, when = sys.argv[1:]
with faulty_replace(out, int(n), when, lambda: os._exit({KILLED})):
    cli.main(["report", "--config", config, "--out", out])
"""


@pytest.fixture(scope="module")
def fault_run(tmp_path_factory):
    """A clean `report` of a one-epoch config without theory or corrupt
    sections: its config file, the digests of what it wrote and the files
    it moved into place, in order."""
    root = tmp_path_factory.mktemp("faults")
    cfg = base_config(root / "clean", n=32, epochs=1)
    del cfg["theory"], cfg["corrupt"]
    p = write_config(root / "c.json", cfg)
    with faulty_replace(root / "clean") as moved:
        assert cli.main(["report", "--config", str(p)]) == 0
    return p, tree_digests(root / "clean"), moved


def assert_rerun_recovers(fault_run, out, n):
    """A rerun in `out` without a fault exits 0 and writes, log.txt aside,
    the clean run's bytes and no temp file."""
    p, clean, _ = fault_run
    assert cli.main(["report", "--config", str(p), "--out", str(out)]) == 0, n
    assert not list(out.rglob("*.tmp")), n
    assert tree_digests(out) == clean, n


def test_a_full_disk_at_any_write_exits_3_and_a_rerun_recovers(fault_run, tmp_path, capsys):
    p, _, moved = fault_run
    assert len(moved) == 11 and moved[-2:] == ["bundle.json", "log.txt"]

    def full_disk():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for n, name in enumerate(moved, 1):
        out = tmp_path / str(n)
        with faulty_replace(out, n, "before", full_disk):
            assert cli.main(["report", "--config", str(p), "--out", str(out)]) == 3, n
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / name) in err, (n, err)
        assert os.strerror(errno.ENOSPC) in err, (n, err)
        assert not list(out.rglob("*.tmp")), n
        assert_rerun_recovers(fault_run, out, n)
        capsys.readouterr()


def test_ctrl_c_at_any_write_exits_130_and_a_rerun_recovers(fault_run, tmp_path, capsys):
    p, _, moved = fault_run

    def ctrl_c():
        raise KeyboardInterrupt

    for n in range(1, len(moved) + 1):
        out = tmp_path / str(n)
        with faulty_replace(out, n, "before", ctrl_c):
            assert cli.main(["report", "--config", str(p), "--out", str(out)]) == 130, n
        assert capsys.readouterr().err == "error: interrupted\n", n
        assert not list(out.rglob("*.tmp")), n
        assert_rerun_recovers(fault_run, out, n)
        capsys.readouterr()


@pytest.mark.parametrize("when", ["before", "after"])
def test_a_run_killed_at_any_write_is_recovered_by_a_rerun(fault_run, tmp_path, capsys, when):
    p, _, moved = fault_run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(harness.__file__).parents[1]), str(Path(__file__).parent)]))
    for n in range(1, len(moved) + 1):
        out = tmp_path / str(n)
        child = subprocess.run([sys.executable, "-c", _KILL_AT_WRITE, str(p), str(out),
                                str(n), when], env=env, capture_output=True)
        assert child.returncode == KILLED, (n, child.stderr)
        assert_rerun_recovers(fault_run, out, n)
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", str(2**32), "1" + "0" * 300],
                         ids=["-1", "2**32", "10**300"])
def test_cli_seed_out_of_range_exit_2(tmp_path, capsys, seed):
    """seed_stream reads a seed's low 32 bits, so a seed outside [0, 2**32)
    would alias one inside it under another file tag."""
    cfg = base_config(tmp_path / "out", n=32, epochs=1)
    p = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["train", "--config", str(p), "--seed", seed]) == 2
    assert "config error: seed must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_seed_and_out_flags(tmp_path, capsys):
    cfg = {"dataset": {"kind": "blobs", "n": 16, "resolution": 8,
                       "classes": 2}}
    p = write_config(tmp_path / "c.json", cfg)
    dest = tmp_path / "custom"
    assert cli.main(["train", "--config", str(p), "--seed", "9",
                     "--out", str(dest)]) == 0
    assert (dest / "bundle.json").exists()
    assert json.loads((dest / "bundle.json").read_text())["seed"] == 9
    capsys.readouterr()
