"""Small classifiers, each with one forward run on raw arrays or on the tape.

Each model writes its forward once, as `_forward(ns, x, p)` against an op
namespace of the autodiff engine, the way the engine's VJP rules are
written. `logits` runs it with the `kernels` module on raw float64 arrays
for evaluation; `graph_logits` runs it with the input's `Graph`, which
emits every op onto the tape, for training and attribution, so the two
routes agree bit for bit. The independent cross-check (a
shift-and-add convolution and a direct 2x2 max) lives in the tests.

Parameters are stored float32 and promoted to float64 inside either
route; training quantizes back to float32 after every update so a saved
checkpoint reproduces the run that wrote it bit for bit.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import operator
import os
import re
import struct
import sys
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np

from . import autodiff as ag
from .autodiff import kernels
from .autodiff.functional import affine, conv_bias, flatten
from .seeding import seed_stream

# elementwise namespace ops a hidden layer may apply, called by name
_ACTIVATIONS = ("relu", "softplus")


def _check_activation(activation: str) -> None:
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")


def is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _sizes(what: str, values) -> list[int]:
    """`values` as ints, each a positive int; checked before any arithmetic."""
    values = list(values)
    if not all(is_int(v) and v > 0 for v in values):
        raise ValueError(f"{what} must be positive integers, got {values!r}")
    return [int(v) for v in values]


def check_keys(d, required: set, optional: set) -> None:
    """Refuse a config object with a required key missing or an unknown key."""
    if not isinstance(d, dict):
        raise ValueError(f"expected an object, got {type(d).__name__}")
    for what, keys in (("missing", required - set(d)), ("unknown", set(d) - required - optional)):
        if keys:
            raise ValueError(f"{what} keys {sorted(keys)}")


def check_kind(d, kinds: dict) -> str:
    """The "kind" of config object `d`, refusing an unknown kind and a missing
    or unknown key; `kinds` maps each kind to its (required, optional, ...) keys."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    check_keys(d, kinds[kind][0] | {"kind"}, kinds[kind][1])
    return kind


def signature_keys(fn, skip=()) -> tuple[set, set]:
    """(required, optional) argument names of `fn`, leaving out those in `skip`."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in skip]
    return ({p.name for p in params if p.default is p.empty},
            {p.name for p in params if p.default is not p.empty})


# type: (what a value must be, its test); a bool is neither an integer nor a
# number, and an integer beyond every float is not a finite number
_TYPES = {int: ("an integer", is_int),
          float: ("a finite number", lambda v: (is_int(v) or isinstance(v, float))
                  and abs(v) <= sys.float_info.max),
          str: ("a string", lambda v: isinstance(v, str)),
          list: ("a list", lambda v: isinstance(v, list))}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
           "in": lambda v, choices: v in choices}


def check_value(name: str, annotation, value) -> None:
    """Refuse `value` unless it is of `annotation`'s type and within its
    bounds. An annotation is a type or `Annotated[type, (op, bound), ...]`,
    op one of >=, >, <=, < or "in" (a tuple of choices); the bounds of an
    `Annotated[list[type], ...]` hold for each entry. A type other than
    int, float, str and list is not checked."""
    base, *bounds = get_args(annotation) if get_origin(annotation) is Annotated else [annotation]
    values = [value]
    if get_origin(base) is list:
        check_value(name, list, value)
        (base,), name, values = get_args(base), f"{name} entry", value
    what, ok = _TYPES.get(base, (None, lambda v: True))
    for v in values:
        if not ok(v):
            raise ValueError(f"{name} must be {what}, got {v!r}")
        for op, bound in bounds:
            if not _BOUNDS[op](v, bound):
                limit = f"one of {list(bound)}" if op == "in" else f"{op} {bound}"
                raise ValueError(f"{name} must be {limit}, got {v!r}")


def check_args(fn, args: dict) -> None:
    """`check_value` per argument in `args`, by the annotations of `fn`'s
    parameters (a wrapper's are those of the function it wraps)."""
    params = inspect.signature(fn, eval_str=True).parameters
    for name, value in args.items():
        check_value(name, params[name].annotation, value)


class _OneForward:
    """`logits` and `graph_logits` from the subclass's `_forward(ns, x, p)`;
    `config` from its constructor, whose every argument but `seed` is an
    attribute of the same name."""

    def config(self) -> dict:
        """The `build_model` config of this model, tuples written as lists."""
        config = {"kind": self.kind}
        for name in inspect.signature(type(self)).parameters:
            if name != "seed":
                value = getattr(self, name)
                config[name] = list(value) if isinstance(value, tuple) else value
        return config

    def logits(self, x: np.ndarray) -> np.ndarray:
        p = {k: v.astype(np.float64) for k, v in self.params.items()}
        return self._forward(kernels, np.asarray(x, dtype=np.float64), p)

    def bind(self, graph: ag.Graph) -> dict[str, ag.Var]:
        return {name: graph.var(arr) for name, arr in self.params.items()}

    def graph_logits(self, xv: ag.Var, pv: dict[str, ag.Var]) -> ag.Var:
        return self._forward(xv.graph, xv, pv)

    def check_input(self, shape) -> None:
        """Run the forward on one zero image of `shape`: a shape it cannot
        take raises ValueError."""
        self._forward(kernels, np.zeros((1, *shape)), self.params)


class MLP(_OneForward):
    """Fully connected classifier over flattened inputs."""

    kind = "mlp"

    def __init__(self, in_shape, hidden, classes, activation="relu", seed=0):
        _check_activation(activation)
        self.in_shape = tuple(_sizes("in_shape", in_shape))
        self.hidden = _sizes("hidden", hidden)
        (self.classes,) = _sizes("classes", [classes])
        self.activation = activation
        self.params: dict[str, np.ndarray] = {}
        rng = seed_stream(seed, "init", self.kind)
        dims = [int(np.prod(self.in_shape))] + self.hidden + [self.classes]
        for i, (din, dout) in enumerate(zip(dims, dims[1:])):
            std = np.sqrt(2.0 / din)
            self.params[f"w{i}"] = (rng.normal(size=(din, dout)) * std).astype(np.float32)
            self.params[f"b{i}"] = np.zeros(dout, dtype=np.float32)

    def _forward(self, ns, x, p):
        act = getattr(ns, self.activation)
        h = flatten(ns, x) if len(x.shape) > 2 else x
        n_layers = len(self.hidden) + 1
        for i in range(n_layers):
            h = affine(ns, h, p[f"w{i}"], p[f"b{i}"])
            if i < n_layers - 1:
                h = act(h)
        return h


class CNN(_OneForward):
    """Two padded 3x3 conv blocks with 2x2 pooling, then a linear head."""

    kind = "cnn"

    def __init__(self, in_shape, channels, classes, activation="relu", seed=0):
        _check_activation(activation)
        c, h, w = _sizes("in_shape", in_shape)
        if h % 4 or w % 4:
            raise ValueError(f"two pooling stages need dims divisible by 4, got {h}x{w}")
        self.in_shape = (c, h, w)
        self.channels = _sizes("channels", channels)
        if len(self.channels) != 2:
            raise ValueError("expected exactly two conv stages")
        (self.classes,) = _sizes("classes", [classes])
        self.activation = activation
        self.params = {}
        rng = seed_stream(seed, "init", self.kind)
        c1, c2 = self.channels
        for name, shape, fan in [
            ("k1", (c1, c, 3, 3), c * 9),
            ("k2", (c2, c1, 3, 3), c1 * 9),
        ]:
            std = np.sqrt(2.0 / fan)
            self.params[name] = (rng.normal(size=shape) * std).astype(np.float32)
            self.params[name.replace("k", "cb")] = np.zeros(shape[0], dtype=np.float32)
        feat = c2 * (h // 4) * (w // 4)
        self.params["w"] = (rng.normal(size=(feat, classes)) * np.sqrt(2.0 / feat)).astype(np.float32)
        self.params["b"] = np.zeros(classes, dtype=np.float32)

    def _forward(self, ns, x, p):
        act = getattr(ns, self.activation)
        h = x
        for i in (1, 2):
            h = act(conv_bias(ns, h, p[f"k{i}"], p[f"cb{i}"], 1))
            h = ns.maxpool2(h, ns.pool_mask(h))
        return affine(ns, flatten(ns, h), p["w"], p["b"])


class LinearScore(_OneForward):
    """One linear score wrapped as two-class logits [0, s].

    Class 1 wins exactly when the score is positive, and the class-1
    "logit" is the raw score, which keeps closed-form gradient checks
    one line long.
    """

    kind = "linear"

    def __init__(self, in_shape, seed=0):
        self.in_shape = tuple(_sizes("in_shape", in_shape))
        self.classes = 2
        d = int(np.prod(self.in_shape))
        rng = seed_stream(seed, "init", self.kind)
        self.params = {
            "w": (rng.normal(size=(d, 1)) / np.sqrt(d)).astype(np.float32),
            "b": np.zeros(1, dtype=np.float32),
        }

    @classmethod
    def from_arrays(cls, w, b, in_shape=None) -> "LinearScore":
        """Wrap explicit weights without narrowing their precision."""
        w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
        m = cls.__new__(cls)
        m.in_shape = tuple(in_shape) if in_shape is not None else (w.shape[0],)
        m.classes = 2
        m.params = {"w": w, "b": np.atleast_1d(np.asarray(b, dtype=np.float64))}
        return m

    @property
    def w(self) -> np.ndarray:
        return self.params["w"].astype(np.float64).reshape(-1)

    @property
    def b(self) -> float:
        return float(self.params["b"][0])

    def _forward(self, ns, x, p):
        flat = flatten(ns, x) if len(x.shape) > 2 else x
        lift = ns.const(np.array([[0.0, 1.0]]))
        return ns.matmul(affine(ns, flat, p["w"], p["b"]), lift)


Model = MLP | CNN | LinearScore


def build_model(config: dict, seed: int = 0) -> Model:
    """The model a config object describes: the keys besides "kind" are the
    arguments of its class but `seed`; a missing or unknown key is refused."""
    classes = {c.kind: c for c in (MLP, CNN, LinearScore)}
    kind = check_kind(config, {k: signature_keys(c, {"seed"}) for k, c in classes.items()})
    return classes[kind](**{k: v for k, v in config.items() if k != "kind"}, seed=seed)


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    return np.argmax(model.logits(x), axis=1)


def label_score(model: Model, xv: ag.Var, pv: dict[str, ag.Var], y) -> ag.Var:
    """The labeled logits of a batch, summed, on `xv`'s tape. Its input
    gradient holds each sample's saliency map at once, exactly, because no
    op mixes samples; a label out of the model's range is refused."""
    return ag.sum_all(ag.picked_rows(model.graph_logits(xv, pv), np.asarray(y)))


def input_gradients(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(labeled logit)/d(input) for each sample, shaped like `x`."""
    graph = ag.Graph()
    xv = graph.var(np.asarray(x, dtype=np.float64))
    (gx,) = ag.grad(label_score(model, xv, model.bind(graph), y), [xv])
    return gx


def linearize(model: Model, x: np.ndarray, y: int) -> LinearScore:
    """First-order Taylor surrogate of the class-y logit at x.

    The weights are the input gradient, the bias absorbs the residual so
    the surrogate's score equals the model's at x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    w = input_gradients(model, x[None], [int(y)]).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("non-finite input gradient at linearization point")
    b = float(model.logits(x[None])[0, int(y)]) - float(w @ x.reshape(-1))
    return LinearScore.from_arrays(w, b, in_shape=x.shape)


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, length-prefixed JSON header, fp32 payload.
# The header carries a SHA-256 of the payload, so a single flipped byte in
# the weights is caught on load rather than silently degrading a model.

_MAGIC = b"IGDC"
_VERSION = 1


class IntegrityError(ValueError):
    """Checkpoint bytes do not match their recorded digest or framing."""


def atomic_write(path, data: bytes) -> None:
    """Write `data` to a temp file in the same directory, then `os.replace`
    it: a run cut off midway leaves the old file or the new one, never a torn
    one. A killed writer leaves its temp file behind; `remove_orphan_temps`
    deletes it. A failed write raises an OSError that names `path`, not
    the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from e
    finally:
        tmp.unlink(missing_ok=True)


_TEMP_NAME = re.compile(r"\..+\.([0-9]+)\.tmp")


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # another user's process
        return True
    return True


def remove_orphan_temps(directory) -> list[Path]:
    """Delete the `atomic_write` temp files in `directory` whose writer's pid
    names no running process, and return their paths. A running writer's
    temp file stays."""
    removed = []
    for p in sorted(Path(directory).glob(".*.tmp")):
        m = _TEMP_NAME.fullmatch(p.name)
        if m and not _running(int(m.group(1))):
            p.unlink(missing_ok=True)
            removed.append(p)
    return removed


def save_checkpoint(path, model: Model, extra: dict | None = None) -> None:
    names = list(model.params)
    payload = b"".join(
        np.ascontiguousarray(model.params[n].astype("<f4")).tobytes() for n in names
    )
    header = {
        "model": model.config(),
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    atomic_write(path, _MAGIC + struct.pack("<IQ", _VERSION, len(blob)) + blob + payload)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Model and `extra` of a checkpoint; any malformed file raises IntegrityError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise IntegrityError("bad magic; not a checkpoint file")
    if len(raw) < 16:
        raise IntegrityError("truncated framing")
    version, hlen = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    if 16 + hlen > len(raw):
        raise IntegrityError("truncated header")
    payload = raw[16 + hlen :]
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
        digest, extra = header["payload_sha256"], header["extra"]
        declared = [(rec["name"], tuple(rec["shape"])) for rec in header["params"]]
        model = build_model(header["model"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IntegrityError(f"malformed header: {exc!r}") from exc
    if hashlib.sha256(payload).hexdigest() != digest:
        raise IntegrityError("payload digest mismatch")
    if not isinstance(extra, dict):
        raise IntegrityError("header extra is not an object")
    if model.config() != header["model"]:
        raise IntegrityError("model config is not one this version writes")
    if declared != [(n, arr.shape) for n, arr in model.params.items()]:
        raise IntegrityError("declared params do not match the model config")
    if 4 * sum(arr.size for arr in model.params.values()) != len(payload):
        raise IntegrityError("payload length does not match declared shapes")
    offset = 0
    for name, arr in model.params.items():
        flat = np.frombuffer(payload, dtype="<f4", count=arr.size, offset=offset)
        model.params[name] = flat.reshape(arr.shape).astype(np.float32)
        offset += arr.size * 4
    return model, extra
