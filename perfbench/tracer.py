"""Span tracing of gradeq's public entry points, from outside the package.

`Tracer.install` replaces each entry point below with a wrapper that
records one span per call: name, start, end, parent span and the trace id
of the timed unit it ran in. The wrappers go where the name is looked up
at call time, so a name bound by `from .x import f` is patched in every
importing module (for example `harness.gini_exact`, `training.pgd`,
`attacks.attribute`). `uninstall` restores the originals, so untimed and
untraced code runs the unmodified program.

Known blind spot: the raw (non-recording) backward pass calls the numpy
kernels through `_RawNS`, whose attributes are bound when the class is
created. Those kernel calls cannot be wrapped from outside, so raw
backward kernel time shows only inside `autodiff.grad.s`; only the
forward tape ops and the `create_graph=True` backward ops appear under
`autodiff.op.*`.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

# ops reported one by one; every op counts towards autodiff.apply.*
TRACKED_OPS = ("matmul", "conv2d", "maxpool2", "add", "mul", "broadcast",
               "reshape", "sum_axes", "permute", "relu", "exp", "log")

LAYERS = ("autodiff", "models", "data", "attribution", "inequality",
          "attacks", "theory", "training", "harness", "cli")

STAGES = ("data", "train", "tables", "attack", "theory", "corrupt", "plots")

# span names that feed a `.calls` and a `.s` metric
_TIMED = ("autodiff.grad", "autodiff.grad2", "models.logits",
          "models.graph_logits", "models.linearize", "attribution.attribute",
          "attribution.input_gradients", "inequality.gini",
          "inequality.gini_exact", "attacks.pgd", "attacks.error_rate",
          "attacks.apply_spec", "attacks.corrupt", "theory.sweep_mask_stats",
          "training.igd_loss")
# span names that feed only a `.s` metric
_SECONDS_ONLY = ("models.save_checkpoint", "models.load_checkpoint",
                 "data.synth_blobs", "data.train_val_split",
                 "training.train", "training.eval", "cli.main")
# per-call quantities accumulated by the wrappers' `extra` hooks
_COUNTERS = ("autodiff.apply.bytes", "autodiff.nonfinite",
             "models.logits.samples", "models.checkpoint.bytes",
             "attribution.attribute.samples", "attacks.pgd.samples",
             "attacks.pgd.aborted", "attacks.error_rate.evaluated",
             "attacks.error_rate.offered", "training.epochs",
             "training.aborted", "training.degenerate_frac_sum",
             "training.rows", "harness.ckpt_hits", "harness.ckpt_misses",
             "harness.files", "harness.bytes_written")


def metric_names() -> list[str]:
    """Every per-layer metric `summarize` emits, in a stable order."""
    names = ["autodiff.apply.calls", "autodiff.apply.s", "autodiff.apply.bytes",
             "autodiff.nonfinite"]
    for op in TRACKED_OPS:
        names += [f"autodiff.op.{op}.calls", f"autodiff.op.{op}.s"]
    for name in _TIMED:
        names += [f"{name}.calls", f"{name}.s"]
    names += [f"{n}.s" for n in _SECONDS_ONLY]
    names += ["models.logits.samples", "models.checkpoint.bytes",
              "attribution.attribute.samples", "attacks.pgd.samples",
              "attacks.pgd.aborted", "attacks.error_rate.joint_frac",
              "training.epochs", "training.pgd_share", "training.aborted",
              "training.degenerate_frac", "harness.ckpt_hits",
              "harness.ckpt_misses", "harness.files", "harness.bytes_written"]
    for mode in ("cold", "warm"):
        names += [f"harness.{mode}.stage.{s}.s" for s in STAGES]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    return names


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.counters: Counter = Counter()
        self.trace_id = -1
        self.trace_kind: dict[int, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_unit(self, kind: str) -> None:
        """Open a new trace id; later spans belong to this timed unit."""
        self.trace_id += 1
        self.trace_kind[self.trace_id] = kind

    def _wrap(self, name, fn, extra=None):
        names, parents, traces = self.name, self.parent, self.trace
        t0s, t1s, stack = self.t0, self.t1, self._stack
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            sid = len(t0s)
            names.append(name(args, kwargs) if dynamic else name)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1s[sid] = perf_counter()
                stack.pop()
                if extra is not None:
                    extra(args, kwargs, None, exc)
                raise
            t1s[sid] = perf_counter()
            stack.pop()
            if extra is not None:
                extra(args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, extra=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, extra))

    def install(self) -> None:
        """Wrap every traced entry point; pair with `uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import gradeq.autodiff as ag
        from gradeq import (attacks, attribution, cli, data, harness,
                            inequality, models, theory, training)
        from gradeq.autodiff import engine

        c = self.counters

        def apply_extra(args, kwargs, out, exc):
            if exc is None:
                c["autodiff.apply.bytes"] += out.value.nbytes
            elif isinstance(exc, ag.NonFiniteError):
                c["autodiff.nonfinite"] += 1

        def grad_name(args, kwargs):
            second = kwargs.get("create_graph", args[3] if len(args) > 3 else False)
            return "autodiff.grad2" if second else "autodiff.grad"

        self._patch(engine.Graph, "apply", lambda a, k: f"autodiff.op.{a[1]}",
                    apply_extra)
        for owner in (ag, engine):
            self._patch(owner, "grad", grad_name)

        def logits_extra(args, kwargs, out, exc):
            c["models.logits.samples"] += len(args[1])

        for cls in (models.MLP, models.CNN, models.LinearScore):
            self._patch(cls, "logits", "models.logits", logits_extra)
            self._patch(cls, "graph_logits", "models.graph_logits")
        for owner in (models, theory):
            self._patch(owner, "linearize", "models.linearize")

        def saved_extra(args, kwargs, out, exc):
            if exc is None:
                c["models.checkpoint.bytes"] += os.path.getsize(args[0])

        for owner in (models, harness):
            self._patch(owner, "save_checkpoint", "models.save_checkpoint",
                        saved_extra)
        for owner in (models, training):
            self._patch(owner, "load_checkpoint", "models.load_checkpoint")

        def hit_extra(args, kwargs, out, exc):
            c["harness.ckpt_hits"] += 1

        self._patch(harness, "load_checkpoint", "models.load_checkpoint", hit_extra)

        for owner in (data, harness):
            self._patch(owner, "synth_blobs", "data.synth_blobs")
        for owner in (data, training, harness):
            self._patch(owner, "train_val_split", "data.train_val_split")

        def attribute_extra(args, kwargs, out, exc):
            c["attribution.attribute.samples"] += len(args[2])

        for owner in (attribution, attacks):
            self._patch(owner, "attribute", "attribution.attribute", attribute_extra)
        for owner in (attribution, training):
            self._patch(owner, "input_gradients", "attribution.input_gradients")

        for owner in (inequality, training):
            self._patch(owner, "gini", "inequality.gini")
        for owner in (inequality, harness):
            self._patch(owner, "gini_exact", "inequality.gini_exact")

        def pgd_extra(args, kwargs, out, exc):
            if exc is None:
                c["attacks.pgd.samples"] += len(out.x_adv)
                c["attacks.pgd.aborted"] += int(out.aborted.sum())

        for owner in (attacks, training, harness):
            self._patch(owner, "pgd", "attacks.pgd", pgd_extra)

        def error_rate_extra(args, kwargs, out, exc):
            c["attacks.error_rate.offered"] += len(args[3])
            if exc is None:
                c["attacks.error_rate.evaluated"] += out.evaluated

        for owner in (attacks, harness):
            self._patch(owner, "error_rate", "attacks.error_rate", error_rate_extra)
            self._patch(owner, "corrupt", "attacks.corrupt")
        self._patch(attacks, "apply_spec", "attacks.apply_spec")
        for owner in (theory, harness):
            self._patch(owner, "sweep_mask_stats", "theory.sweep_mask_stats")

        def train_extra(args, kwargs, out, exc):
            if exc is None:
                rows = out[1].rows
                c["training.epochs"] += len(rows)
                c["training.aborted"] += int(out[1].aborted)
                c["training.rows"] += len(rows)
                c["training.degenerate_frac_sum"] += sum(r.degenerate_frac for r in rows)

        def miss_extra(args, kwargs, out, exc):
            c["harness.ckpt_misses"] += 1
            train_extra(args, kwargs, out, exc)

        self._patch(training, "train", "training.train", train_extra)
        self._patch(harness, "train", "training.train", miss_extra)
        self._patch(training, "igd_loss", "training.igd_loss")
        for attr in ("accuracy", "pgd_accuracy", "mean_saliency_gini"):
            self._patch(training, attr, "training.eval")

        for stage in STAGES:
            self._patch_item(harness._STAGE_FNS, stage, f"harness.stage.{stage}")

        def run_extra(args, kwargs, out, exc):
            if exc is None:
                c["harness.files"] += len(out.files)
                c["harness.bytes_written"] += sum(
                    (out.out / f).stat().st_size for f in out.files)

        self._patch(harness, "run", "harness.run", run_extra)
        self._patch(cli, "run", "harness.run", run_extra)
        self._patch(cli, "main", "cli.main")

    def _patch_item(self, table: dict, key, name) -> None:
        original = table[key]
        self._patches.append((table, key, original))
        table[key] = self._wrap(name, original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover.

        The program runs on one thread, so children never overlap and the
        covered part is the sum of their durations.
        """
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def trace_sums(self) -> dict[int, Counter]:
        """Per-layer span sums (calls, busy and self seconds) per trace id.

        A call nested directly in a call of the same name adds to `.calls`
        but not to `.s`, so busy time is not counted twice.
        """
        own = self.self_times()
        by_trace: dict[int, Counter] = {}
        for sid, name in enumerate(self.name):
            trace = self.trace[sid]
            sums = by_trace.setdefault(trace, Counter())
            dur = self.t1[sid] - self.t0[sid]
            sums[f"layer.{name.split('.', 1)[0]}.self_s"] += own[sid]
            if name.startswith("autodiff.op."):
                sums["autodiff.apply.calls"] += 1
                sums["autodiff.apply.s"] += dur
                if name[len("autodiff.op."):] in TRACKED_OPS:
                    sums[f"{name}.calls"] += 1
                    sums[f"{name}.s"] += dur
                continue
            if name.startswith("harness.stage."):
                mode = self.trace_kind.get(trace, "setup")
                sums[f"harness.{mode}.stage.{name[len('harness.stage.'):]}.s"] += dur
                continue
            if name in _TIMED:
                sums[f"{name}.calls"] += 1
            p = self.parent[sid]
            if p < 0 or self.name[p] != name:
                sums[f"{name}.s"] += dur
            if name == "attacks.pgd" and self._inside(sid, "training.train"):
                sums["training.pgd_in_train_s"] += dur
        return by_trace

    def _inside(self, sid: int, ancestor: str) -> bool:
        p = self.parent[sid]
        while p >= 0:
            if self.name[p] == ancestor:
                return True
            p = self.parent[p]
        return False

    def write_spans(self, path: Path, trace_ids) -> None:
        """Spans of the given trace ids, one JSON line each in start order.

        The first line names the columns; each later line is one span as
        [id, parent, trace, unit kind, name, start, end, self seconds].
        """
        wanted = set(trace_ids)
        own = self.self_times()
        with open(path, "w") as f:
            f.write(json.dumps(["id", "parent", "trace", "unit", "name",
                                "start", "end", "self"]) + "\n")
            for sid, name in enumerate(self.name):
                trace = self.trace[sid]
                if trace in wanted:
                    f.write(json.dumps([sid, self.parent[sid], trace,
                                        self.trace_kind.get(trace, "setup"), name,
                                        self.t0[sid], self.t1[sid], own[sid]]) + "\n")


def summarize(per_round: list[tuple[dict, Counter]]) -> tuple[dict, list[str]]:
    """Per-layer metrics for one traced round from per-round span sums.

    `per_round` holds, for every traced round, the span sums of that round
    and the counter increments it made. Times are the median over rounds;
    counts come from the first round, and any count that differs between
    rounds is reported back as a problem, since the same inputs must cost
    the same work every time.
    """
    names = metric_names()
    problems = []
    rounds = []
    for sums, counts in per_round:
        vals = dict.fromkeys(names, 0.0)
        for k, v in sums.items():
            if k in vals:
                vals[k] = v
        for k in _COUNTERS:
            if k in vals:
                vals[k] = counts[k]
        vals["attacks.error_rate.joint_frac"] = (
            counts["attacks.error_rate.evaluated"] / counts["attacks.error_rate.offered"]
            if counts["attacks.error_rate.offered"] else 0.0)
        vals["training.degenerate_frac"] = (
            counts["training.degenerate_frac_sum"] / counts["training.rows"]
            if counts["training.rows"] else 0.0)
        train_s = sums["training.train.s"]
        vals["training.pgd_share"] = (sums["training.pgd_in_train_s"] / train_s
                                      if train_s else 0.0)
        rounds.append(vals)
    out = {}
    for name in names:
        series = [r[name] for r in rounds]
        if is_count(name):
            out[name] = series[0]
            if any(v != series[0] for v in series):
                problems.append(f"count {name} differs between rounds: {series}")
        else:
            out[name] = statistics.median(series)
    return out, problems


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".samples", ".bytes", ".aborted",
                          ".nonfinite", ".epochs", "ckpt_hits", "ckpt_misses",
                          ".files", "bytes_written"))
