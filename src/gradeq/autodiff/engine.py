"""Reverse-mode automatic differentiation on an append-only op tape.

A Graph records every primitive application as a node holding the op name,
the argument node ids, any static payload (padding, axes, shapes), and the
eagerly computed float64 value. Node arguments always have smaller
ids than the node itself, so the tape is topologically sorted by
construction and a backward sweep is a single reverse pass.

An op is its kernel, `kernels.<op>`, which checks its arguments, and its
VJP rule; `_OPS` is the one list of them. `Graph.<op>` (`graph.matmul(a,
b)`), generated from `_OPS` for every op, records it on the tape through
`Graph.apply`, which runs the same kernel. Every VJP rule and every model
forward takes its op namespace, the `kernels` module or a Graph, as an
argument, so the raw and the recording routes cannot drift apart.

`grad` runs the backward sweep either on raw arrays through `kernels`
(fast path) or, with `create_graph=True`, by emitting the adjoint
computation onto the same tape. In the second mode the returned gradients
are graph values, so differentiating through them again is just another
`grad` call. Either way the sweep computes only the adjoints on a path
from the output to a target; a cut op ends the path, so an attack's
input gradient computes no parameter adjoint and a training step none of
its input's. `reaches(out, w)` tells whether such a path leads from `w` to
`out`, so whether the sweep gives `w` an adjoint or zeros.

A `Plan` replays a recorded tape on a new value of one leaf: it recomputes
on raw arrays only the nodes downstream of that leaf and keeps every other
value as recorded. So no payload and no `const` may be computed from a
value: each quantity derived from one is its own op, which `_CUTS` lists
with `const` because no gradient flows through it. These are the row
maximum of log-sum-exp (`rowmax`), the ReLU backward mask (`relu_mask`)
and the 2x2 argmax mask (`pool_mask`), an explicit second input of
`maxpool2` and `unpool2`: a max pool is `ns.maxpool2(h, ns.pool_mask(h))`
on either namespace. The ReLU mask being a cut makes ReLU's second
derivative identically zero; use softplus where curvature matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import kernels
from .kernels import GraphError


class NonFiniteError(FloatingPointError):
    """An op, or a result read off a tape, holds NaN or infinity."""


def _check_finite(op: str, value: np.ndarray) -> np.ndarray:
    if not np.isfinite(value).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values")
    return value


class _Node:
    __slots__ = ("op", "args", "meta", "value")

    def __init__(self, op: str, args: tuple[int, ...], meta: Any, value: np.ndarray):
        self.op = op
        self.args = args
        self.meta = meta
        self.value = value


@dataclass(frozen=True)
class Var:
    """Handle to one node of a Graph."""

    graph: "Graph"
    idx: int

    @property
    def value(self) -> np.ndarray:
        return self.graph.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)


class Graph:
    """Append-only tape of primitive ops with eagerly computed values."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _append(self, node: _Node) -> Var:
        _check_finite(node.op, node.value)
        self.nodes.append(node)
        return Var(self, len(self.nodes) - 1)

    def var(self, value: np.ndarray) -> Var:
        """Differentiable leaf."""
        arr = np.asarray(value, dtype=np.float64)
        return self._append(_Node("var", (), None, arr))

    def const(self, value: np.ndarray) -> Var:
        """Non-differentiable leaf; gradients never flow into it."""
        arr = np.asarray(value, dtype=np.float64)
        return self._append(_Node("const", (), None, arr))

    def apply(self, op: str, args: Sequence[Var], meta: Any = None) -> Var:
        for a in args:
            if a.graph is not self:
                raise GraphError(f"op '{op}' mixes values from different graphs")
        vals = tuple(self.nodes[a.idx].value for a in args)
        kernel = getattr(kernels, op)
        value = kernel(*vals) if meta is None else kernel(*vals, meta)
        return self._append(_Node(op, tuple(a.idx for a in args), meta, value))


# ---------------------------------------------------------------------------
# VJP rules. Each receives the namespace `ns` (the `kernels` module or the
# Graph), the upstream adjoint `g`, ns-domain handles (each with a `.shape`)
# of the inputs and output, the static payload, and `want`, one flag per
# input that is set when the input lies on a path to a target.
# They return one contribution per input; the sweep drops those of unwanted
# inputs, so a rule whose contributions cost a kernel call returns None for
# them instead.


def _vjp_matmul(ns, g, xs, out, meta, want):
    a, b = xs
    return (ns.matmul(g, ns.permute(b, (1, 0))) if want[0] else None,
            ns.matmul(ns.permute(a, (1, 0)), g) if want[1] else None)


def _vjp_conv2d(ns, g, xs, out, meta, want):
    x, k = xs
    pad = meta
    kh = k.shape[2]
    gx = gk = None
    if want[0]:
        k_flip = ns.flip_hw(ns.permute(k, (1, 0, 2, 3)))
        gx = ns.conv2d(g, k_flip, kh - 1 - pad)
    if want[1]:
        gk = ns.permute(
            ns.conv2d(ns.permute(x, (1, 0, 2, 3)), ns.permute(g, (1, 0, 2, 3)), pad),
            (1, 0, 2, 3),
        )
    return gx, gk


def _vjp_permute(ns, g, xs, out, meta, want):
    inv = [0] * len(meta)
    for i, a in enumerate(meta):
        inv[a] = i
    return (ns.permute(g, tuple(inv)),)


def _vjp_flip_hw(ns, g, xs, out, meta, want):
    return (ns.flip_hw(g),)


def _vjp_reshape(ns, g, xs, out, meta, want):
    return (ns.reshape(g, xs[0].shape),)


def _vjp_add(ns, g, xs, out, meta, want):
    return g, g


def _vjp_mul(ns, g, xs, out, meta, want):
    a, b = xs
    return ns.mul(g, b) if want[0] else None, ns.mul(g, a) if want[1] else None


def _vjp_scale(ns, g, xs, out, meta, want):
    return (ns.scale(g, meta),)


def _vjp_relu(ns, g, xs, out, meta, want):
    return (ns.mul(g, ns.relu_mask(xs[0])),)


def _vjp_softplus(ns, g, xs, out, meta, want):
    (x,) = xs
    # sigmoid(x) = exp(-softplus(-x)), stable on both tails
    sig = ns.exp(ns.scale(ns.softplus(ns.scale(x, -1.0)), -1.0))
    return (ns.mul(g, sig),)


def _vjp_exp(ns, g, xs, out, meta, want):
    return (ns.mul(g, out),)


def _vjp_log(ns, g, xs, out, meta, want):
    return (ns.mul(g, ns.reciprocal(xs[0])),)


def _vjp_reciprocal(ns, g, xs, out, meta, want):
    return (ns.scale(ns.mul(g, ns.mul(out, out)), -1.0),)


def _vjp_rsqrt(ns, g, xs, out, meta, want):
    return (ns.scale(ns.mul(g, ns.mul(out, ns.mul(out, out))), -0.5),)


def _vjp_sum_axes(ns, g, xs, out, meta, want):
    return (ns.broadcast(g, xs[0].shape),)


def _vjp_broadcast(ns, g, xs, out, meta, want):
    axes = tuple(
        i for i, (a, b) in enumerate(zip(xs[0].shape, meta)) if a == 1 and b != 1
    )
    return (ns.sum_axes(g, axes),)


def _vjp_maxpool2(ns, g, xs, out, meta, want):
    return ns.unpool2(g, xs[1]), None


def _vjp_unpool2(ns, g, xs, out, meta, want):
    return ns.maxpool2(g, xs[1]), None


# ops no gradient flows through: a path to a `grad` target ends at them
_CUTS = ("const", "rowmax", "relu_mask", "pool_mask")

# the one list of op names: each maps to its VJP rule `_vjp_<op>`, a cut op
# to None; its forward is `kernels.<op>`
_OPS = {op: globals().get(f"_vjp_{op}") for op in (
    "matmul", "conv2d", "permute", "flip_hw", "reshape", "add", "mul", "scale",
    "relu", "softplus", "exp", "log", "rsqrt", "reciprocal", "sum_axes",
    "broadcast", "maxpool2", "unpool2", *_CUTS[1:])}


def _method(op: str):
    """`Graph.<op>(*inputs, payload)`: the leading Vars are the op's inputs,
    a trailing non-Var its payload; `apply` is looked up at each call."""
    def method(self, *args):
        if args and not isinstance(args[-1], Var):
            return self.apply(op, args[:-1], args[-1])
        return self.apply(op, args)
    method.__name__ = method.__qualname__ = op
    return method


for _op in _OPS:
    setattr(Graph, _op, _method(_op))
del _op


def _live(nodes: list[_Node], last: int, targets: set[int], cuts: tuple[str, ...]) -> list[bool]:
    """Per node up to `last`, whether it lies on a path to a target: it is a
    target or one of its arguments is live, and its op is not in `cuts`."""
    live = []
    for i, node in enumerate(nodes[:last + 1]):
        live.append(node.op not in cuts
                    and (i in targets or any(live[j] for j in node.args)))
    return live


def reaches(out: Var, w: Var) -> bool:
    """Whether a path without a cut op leads from `w` to `out`: exactly when
    `grad(out, [..., w, ...])` gives `w` an adjoint rather than zeros."""
    if w.graph is not out.graph:
        raise GraphError("grad target lives on a different graph")
    return _live(out.graph.nodes, out.idx, {w.idx}, _CUTS)[out.idx]


def grad(out: Var, wrts: Sequence[Var], *, create_graph: bool = False) -> list:
    """Gradients of `out` with respect to each entry of `wrts`.

    With `create_graph=False` the sweep runs on raw arrays and returns
    ndarrays. With `create_graph=True` the adjoint computation is emitted
    onto the tape and Vars come back, ready for another `grad` call.
    The sweep starts from ones of the output's shape and computes only the
    adjoints of nodes on a path to a `wrts` entry; a cut op ends the path,
    and a target no path reaches gets zeros. Every adjoint it computes
    gets the same contributions, in the same order, as a sweep over every
    node would give it. Adjoints accumulate in strict reverse node order,
    so repeated calls on the same tape are bitwise reproducible.
    """
    graph = out.graph
    nodes = graph.nodes
    for w in wrts:
        if w.graph is not graph:
            raise GraphError("grad target lives on a different graph")
    ns = graph if create_graph else kernels
    targets = {w.idx for w in wrts}
    live = _live(nodes, out.idx, targets, _CUTS)
    adj: dict[int, Any] = {out.idx: ns.const(np.ones_like(nodes[out.idx].value))}
    for i in range(out.idx, -1, -1):
        if i not in adj:
            continue
        node = nodes[i]
        want = tuple(live[j] for j in node.args)
        if not any(want):
            continue
        g = adj[i] if i in targets else adj.pop(i)  # freed once consumed
        vjp = _OPS[node.op]
        if create_graph:
            xs = tuple(Var(graph, j) for j in node.args)
            out_h = Var(graph, i)
        else:
            xs, out_h = tuple(nodes[j].value for j in node.args), node.value
        contribs = vjp(ns, g, xs, out_h, node.meta, want)
        for j, w, c in zip(node.args, want, contribs):
            if w:
                adj[j] = c if j not in adj else ns.add(adj[j], c)
    return [
        adj[w.idx] if w.idx in adj else ns.const(np.zeros_like(nodes[w.idx].value))
        for w in wrts
    ]


class Plan:
    """A recorded tape, replayed on a new value of the leaf `leaf`.

    `run` recomputes, in tape order and with `kernels.<op>`, only the nodes
    downstream of the leaf: those `_live` finds from it with no cuts, since
    a replay recomputes cut ops too. It checks each finite as the Graph
    does, and frees each recomputed value after its last reader. Every
    other value a recomputed node reads was computed once, when the tape
    was built, and is kept. Since no payload and no `const` depends on a
    value, a replay gives bit for bit what a tape built on the new leaf
    value would hold; `run` returns the value of node `out`.
    """

    def __init__(self, leaf: Var, out: Var):
        nodes = leaf.graph.nodes
        down = _live(nodes, len(nodes) - 1, {leaf.idx}, ())
        order = [i for i in range(leaf.idx + 1, len(nodes)) if down[i]]
        last = {j: i for i in order for j in nodes[i].args}  # each value's last reader
        self.leaf, self.out = leaf.idx, out.idx
        self.kept = {j: nodes[j].value for j in (*last, out.idx) if not down[j]}
        self.steps = [(i, nodes[i].op, getattr(kernels, nodes[i].op), nodes[i].args,
                       nodes[i].meta, {j for j in nodes[i].args if last[j] == i} - {out.idx})
                      for i in order]

    def run(self, x: np.ndarray) -> np.ndarray:
        vals = dict(self.kept)
        vals[self.leaf] = _check_finite("var", np.asarray(x, dtype=np.float64))
        for i, op, kernel, args, meta, free in self.steps:
            ins = [vals[j] for j in args]
            vals[i] = _check_finite(op, kernel(*ins) if meta is None else kernel(*ins, meta))
            for j in free:
                del vals[j]
        return vals[self.out]
