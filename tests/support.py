"""Helpers several test modules share and the package itself does not need:
a single-input class score (the finite-difference oracle), a model whose
class-1 logit log(sum x) goes non-finite at x = 0, the unpruned
backward sweep (the oracle of `autodiff.grad`), the IGD objective on one
tape (the oracle of `training.igd_loss`), PGD with a fresh tape every
iteration (the oracle of `attacks.pgd`), conv2d as one `einsum` and the
2x2 pool through a copied window array (the oracles of `kernels.conv2d`,
`pool_mask`, `maxpool2` and `unpool2`), the writer of attribution-map
fixture files, the check that every CSV a run wrote parses, the recorder
of the arrays a run computes but does not write, the fault injector at
the N-th `os.replace` of a run, and the summary of a `report` run that
the golden files hold, with its comparison."""

import csv
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gradeq import attacks, models
from gradeq import autodiff as ag
from gradeq.attacks import PGD_EPS, PGD_ITERS, PGD_STEP, PgdResult, _live_rows
from gradeq.autodiff import engine, kernels
from gradeq.models import load_checkpoint
from gradeq.training import LossParts


def class_score(model, x: np.ndarray, y: int) -> float:
    """Logit of class y for a single input."""
    if not 0 <= int(y) < model.classes:
        raise ValueError(f"class {y} out of range for {model.classes} classes")
    return float(model.logits(np.asarray(x)[None])[0, int(y)])


class LogSumModel:
    """Class-1 logit log(sum x): non-finite once PGD drives every pixel to 0."""

    classes = 2

    def bind(self, g):
        return {}

    def graph_logits(self, xv, params):
        g = xv.graph
        s = g.log(g.sum_axes(ag.flatten(g, xv), (1,)))  # [N,1]
        return g.matmul(s, g.const(np.array([[0.0, 1.0]])))

    def logits(self, x):
        with np.errstate(divide="ignore"):
            s = np.log(np.asarray(x).reshape(len(x), -1).sum(axis=1, keepdims=True))
        return np.concatenate([np.zeros_like(s), s], axis=1)


def unpruned_grad(out, wrts, *, create_graph=False) -> list:
    """`autodiff.grad` without its pruning: the sweep computes an adjoint
    for every non-const input of every node it reaches, whether or not a
    path leads from that input to a target. `grad` must equal it bit for
    bit."""
    graph, nodes = out.graph, out.graph.nodes
    ns = graph if create_graph else kernels
    adj = {out.idx: ns.const(np.ones_like(nodes[out.idx].value))}
    for i in range(out.idx, -1, -1):
        node = nodes[i]
        if i not in adj or node.op in ("var", *engine._CUTS):
            continue
        if create_graph:
            xs, out_h = tuple(engine.Var(graph, j) for j in node.args), engine.Var(graph, i)
        else:
            xs, out_h = tuple(nodes[j].value for j in node.args), node.value
        want = (True,) * len(node.args)
        contribs = engine._OPS[node.op](ns, adj[i], xs, out_h, node.meta, want)
        for j, c in zip(node.args, contribs):
            if nodes[j].op not in engine._CUTS:
                adj[j] = c if j not in adj else ns.add(adj[j], c)
    return [adj[w.idx] if w.idx in adj else ns.const(np.zeros_like(nodes[w.idx].value))
            for w in wrts]


def one_tape_igd_loss(student, teacher, x, x_adv, y, lam) -> LossParts:
    """`training.igd_loss` with both terms on one tape and one sweep of
    their sum for every parameter. `igd_loss` must equal it bit for bit
    in every field and every gradient."""
    y = np.asarray(y)
    g = ag.Graph()
    pv = student.bind(g)
    xa = g.const(np.asarray(x_adv, dtype=np.float64))
    ce = ag.cross_entropy_mean(student.graph_logits(xa, pv), y)
    if lam == 0.0:
        total = ce
        cos_val = 0.0
        flags = np.zeros(len(y), dtype=bool)
    else:
        if teacher is None:
            raise ValueError("gradient alignment needs a teacher model")
        ref = models.input_gradients(teacher, x, y).reshape(len(y), -1)
        xv = g.var(np.asarray(x, dtype=np.float64))
        (gx,) = ag.grad(models.label_score(student, xv, pv, y), [xv], create_graph=True)
        cos, flags = ag.cosine_rows(ag.flatten(g, gx), ref)
        cmean = ag.mean_all(cos)
        total = g.add(ce, g.scale(cmean, -lam))
        cos_val = float(cmean.value)
    names = list(pv)
    grads = dict(zip(names, ag.grad(total, [pv[n] for n in names])))
    return LossParts(float(total.value), float(ce.value), cos_val, flags, grads)


def tape_pgd(model, x, y, eps=PGD_EPS, step=PGD_STEP, iters=PGD_ITERS, rng=None,
             random_start=True) -> PgdResult:
    """`attacks.pgd` without its recorded plan: every iteration builds a
    fresh tape over the live samples and runs the raw backward pass on it.
    `pgd` must equal it bit for bit in `x_adv` and `aborted`."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not random_start:
        cur = x.copy()
    elif isinstance(rng, np.random.Generator):
        cur = np.clip(x + rng.uniform(-eps, eps, size=x.shape), 0.0, 1.0)
    else:
        start = np.stack([r.uniform(-eps, eps, size=x.shape[1:]) for r in rng])
        cur = np.clip(x + start, 0.0, 1.0)

    def tape(idx):
        gr = ag.Graph()
        xv = gr.var(cur[idx])
        loss = ag.cross_entropy_mean(model.graph_logits(xv, model.bind(gr)), y[idx])
        return ag.grad(loss, [xv])[0]

    aborted = np.zeros(len(x), dtype=bool)
    for _ in range(iters):
        g = _live_rows(tape, np.flatnonzero(~aborted), aborted, cur.shape)
        cur = cur + step * np.sign(g)
        cur = np.clip(x + np.clip(cur - x, -eps, eps), 0.0, 1.0)
    return PgdResult(cur, aborted)


def einsum_conv2d(x: np.ndarray, k: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation as one `einsum` over the padded input's
    windows, the oracle of `kernels.conv2d`. Where no batch, channel,
    kernel or output side is 1, einsum makes conv2d's GEMM, and conv2d must
    equal it in bytes and in strides. Where one is, einsum drops that axis
    and lays its GEMM out otherwise, so conv2d must equal it in value: in
    bytes, and in the strides of every axis longer than 1, on the 3x3,
    pad-1 calls a CNN makes, and within a relative 1e-12 elsewhere."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = k.shape[2:]
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))  # [n, c, ho, wo, kh, kw]
    return np.einsum("nchwuv,ocuv->nohw", win, k, optimize=True)


def window_array(x: np.ndarray) -> np.ndarray:
    """The 2x2 windows of x copied out: [n, c, h/2, w/2, 4], each row-major."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return win.reshape(n, c, h // 2, w // 2, 4)


def window_pool_mask(x: np.ndarray) -> np.ndarray:
    """One-hot argmax over each row of `window_array(x)`: the oracle of
    `kernels.pool_mask`, whose corner-first mask is this one with its last
    axis moved first. The pool oracles keep the [..., 4] window layout."""
    flat = window_array(x)
    mask = np.zeros_like(flat)
    np.put_along_axis(mask, np.argmax(flat, axis=-1)[..., None], 1.0, axis=-1)
    return mask


def window_maxpool2(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The oracle of `kernels.maxpool2`: `np.sum` of the masked windows."""
    return np.sum(window_array(x) * mask, axis=-1)


def window_unpool2(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The oracle of `kernels.unpool2`: the masked gradients folded back into windows."""
    n, c, hh, ww, _ = mask.shape
    win = (g[..., None] * mask).reshape(n, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(win.reshape(n, c, hh * 2, ww * 2))


def write_attribution(values: np.ndarray, method: str, target: int, path) -> None:
    """One map as raw little-endian float64 values plus the JSON sidecar
    that `gradeq.attribution.load_attribution` reads."""
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(values.astype("<f8")).tobytes())
    sidecar = {"shape": list(values.shape), "dtype": "<f8",
               "method": method, "target": target}
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, sort_keys=True)


def read_csv(path) -> list[list[str]]:
    """The rows of a CSV file as `csv.reader` parses them."""
    with open(path, newline="") as f:
        return list(csv.reader(f))


def csv_faults(out, seed: int, digest: str) -> list[str]:
    """What is wrong with the CSV files under `out`, each parsed with
    `csv.reader`: a header without `seed` and `config`, a row whose field
    count is not the header's, or a `seed` or `config` cell that is not
    this run's."""
    faults = []
    for p in sorted(Path(out).rglob("*.csv")):
        header, *rows = read_csv(p)
        if not {"seed", "config"} <= set(header):
            faults.append(f"{p}: header {header} lacks seed or config")
            continue
        si, ci = header.index("seed"), header.index("config")
        for i, row in enumerate(rows, 2):
            if len(row) != len(header):
                faults.append(f"{p}:{i}: {len(row)} fields under {len(header)}: {row}")
            elif (row[si], row[ci]) != (str(seed), digest):
                faults.append(f"{p}:{i}: seed {row[si]}, config {row[ci]}")
    return faults


@contextmanager
def recorded_arrays():
    """While open, every `attacks.pgd`, `models.input_gradients`,
    `kernels.conv2d`, `kernels.maxpool2` and `kernels.unpool2` call goes
    through a recorder, under every name a gradeq module binds it to.
    Yields a dict that collects, in call order, the sha256 of each PGD
    `x_adv` ("pgd"), of each input-gradient batch ("input_gradients"), of
    each conv2d result ("conv2d") and of each maxpool2 and unpool2 result
    ("maxpool2", "unpool2"), and the input and result shapes of each conv2d
    ("conv2d_shapes")."""
    originals = {"pgd": attacks.pgd, "input_gradients": models.input_gradients,
                 "conv2d": kernels.conv2d, "maxpool2": kernels.maxpool2,
                 "unpool2": kernels.unpool2}
    record = {"pgd": lambda args, out: {"pgd": _sha256(out.x_adv)},
              "input_gradients": lambda args, out: {"input_gradients": _sha256(out)},
              "conv2d": lambda args, out: {"conv2d": _sha256(out),
                                           "conv2d_shapes": (args[0].shape, out.shape)},
              "maxpool2": lambda args, out: {"maxpool2": _sha256(out)},
              "unpool2": lambda args, out: {"unpool2": _sha256(out)}}
    seen = {key: [] for key in ("pgd", "input_gradients", "conv2d", "conv2d_shapes",
                                "maxpool2", "unpool2")}

    def recorder(name):
        def call(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            for key, value in record[name](args, out).items():
                seen[key].append(value)
            return out
        return call

    patched = [(m, name) for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("gradeq")
               for name in originals if getattr(m, name, None) is originals[name]]
    try:
        for m, name in patched:
            setattr(m, name, recorder(name))
        yield seen
    finally:
        for m, name in patched:
            setattr(m, name, originals[name])


@contextmanager
def faulty_replace(out, n: int = 0, when: str = "before", fault=None):
    """While open, `os.replace` lists, in call order, the path relative to
    `out` of each file it moves into the directory `out`, and yields that
    list. At the n-th (from 1) it calls `fault()` just "before" or just
    "after" the move; a fault that raises stops the move. The temp file
    exists when the fault fires."""
    real, moved, root = os.replace, [], os.path.join(os.path.abspath(out), "")

    def replace(src, dst, *args, **kwargs):
        if not os.path.abspath(dst).startswith(root):
            return real(src, dst, *args, **kwargs)
        moved.append(os.path.relpath(dst, root))
        if len(moved) == n and when == "before":
            fault()
        real(src, dst, *args, **kwargs)
        if len(moved) == n and when == "after":
            fault()

    os.replace = replace
    try:
        yield moved
    finally:
        os.replace = real


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


GOLDEN_TOLERANCE = 1e-9


def report_summary(out) -> dict:
    """What a `report` run computed, in a form that can be compared across
    versions: every cell of its tables, curves and training records, its
    `bundle.json`, and per checkpoint the `extra` header (best epoch
    included) and, per parameter, its shape and float64 sum and sum of
    squares."""
    out = Path(out)
    csvs = {str(p.relative_to(out)): read_csv(p)
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
