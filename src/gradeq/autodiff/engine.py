"""Reverse-mode automatic differentiation on an append-only op tape.

A Graph records every primitive application as a node holding the op name,
the argument node ids, any static payload (padding, axes, pooling masks),
and the eagerly computed float64 value. Node arguments always have smaller
ids than the node itself, so the tape is topologically sorted by
construction and a backward sweep is a single reverse pass.

An op is its kernel, `kernels.<op>`, which checks its arguments, and its
VJP rule; `_OPS` is the one list of them. `Graph.<op>` (`graph.matmul(a,
b)`) records an op on the tape through `Graph.apply`, which runs the same
kernel. Every VJP rule and every model forward takes its op namespace, the
`kernels` module or a Graph, as an argument, so the raw and the recording
routes cannot drift apart.

`grad` runs the backward sweep either on raw arrays through `kernels`
(fast path) or, with `create_graph=True`, by emitting the adjoint
computation onto the same tape. In the second mode the returned gradients
are graph values, so differentiating through them again is just another
`grad` call. Either way the sweep computes only the adjoints on a path
from the output to a target; a `const` cuts the path, so an attack's
input gradient computes no parameter adjoint and a training step none of
its input's.

ReLU backward multiplies by a constant activation mask, so its second
derivative is identically zero; use softplus where curvature matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import kernels
from .kernels import GraphError


class NonFiniteError(FloatingPointError):
    """An op produced NaN or infinity during forward evaluation."""


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
        if not np.all(np.isfinite(node.value)):
            raise NonFiniteError(f"op '{node.op}' produced non-finite values")
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

    def maxpool2(self, x: Var, mask: np.ndarray | None = None) -> Var:
        """2x2 max pool through `mask`, by default the argmax mask of x's
        value; either way the mask is frozen into the tape at build time."""
        return self.apply("maxpool2", (x,), kernels.pool_mask(x.value) if mask is None else mask)


# ---------------------------------------------------------------------------
# VJP rules. Each receives the namespace `ns` (the `kernels` module or the
# Graph), the upstream adjoint `g`, ns-domain handles of the inputs and
# output, the recorded input arrays `vals`, the static payload, and `want`,
# one flag per input that is set when the input lies on a path to a target.
# They return one contribution per input; the sweep drops those of unwanted
# inputs, so a rule whose contributions cost a kernel call returns None for
# them instead.


def _vjp_matmul(ns, g, xs, vals, out, meta, want):
    a, b = xs
    return (ns.matmul(g, ns.permute(b, (1, 0))) if want[0] else None,
            ns.matmul(ns.permute(a, (1, 0)), g) if want[1] else None)


def _vjp_conv2d(ns, g, xs, vals, out, meta, want):
    x, k = xs
    pad = meta
    kh = vals[1].shape[2]
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


def _vjp_permute(ns, g, xs, vals, out, meta, want):
    inv = [0] * len(meta)
    for i, a in enumerate(meta):
        inv[a] = i
    return (ns.permute(g, tuple(inv)),)


def _vjp_flip_hw(ns, g, xs, vals, out, meta, want):
    return (ns.flip_hw(g),)


def _vjp_reshape(ns, g, xs, vals, out, meta, want):
    return (ns.reshape(g, vals[0].shape),)


def _vjp_add(ns, g, xs, vals, out, meta, want):
    return g, g


def _vjp_mul(ns, g, xs, vals, out, meta, want):
    a, b = xs
    return ns.mul(g, b) if want[0] else None, ns.mul(g, a) if want[1] else None


def _vjp_scale(ns, g, xs, vals, out, meta, want):
    return (ns.scale(g, meta),)


def _vjp_relu(ns, g, xs, vals, out, meta, want):
    mask = (vals[0] > 0.0).astype(np.float64)
    return (ns.mul(g, ns.const(mask)),)


def _vjp_softplus(ns, g, xs, vals, out, meta, want):
    (x,) = xs
    # sigmoid(x) = exp(-softplus(-x)), stable on both tails
    sig = ns.exp(ns.scale(ns.softplus(ns.scale(x, -1.0)), -1.0))
    return (ns.mul(g, sig),)


def _vjp_exp(ns, g, xs, vals, out, meta, want):
    return (ns.mul(g, out),)


def _vjp_log(ns, g, xs, vals, out, meta, want):
    return (ns.mul(g, ns.reciprocal(xs[0])),)


def _vjp_reciprocal(ns, g, xs, vals, out, meta, want):
    return (ns.scale(ns.mul(g, ns.mul(out, out)), -1.0),)


def _vjp_rsqrt(ns, g, xs, vals, out, meta, want):
    return (ns.scale(ns.mul(g, ns.mul(out, ns.mul(out, out))), -0.5),)


def _vjp_sum_axes(ns, g, xs, vals, out, meta, want):
    return (ns.broadcast(g, vals[0].shape),)


def _vjp_broadcast(ns, g, xs, vals, out, meta, want):
    axes = tuple(
        i for i, (a, b) in enumerate(zip(vals[0].shape, meta)) if a == 1 and b != 1
    )
    if not axes:
        return (g,)
    return (ns.sum_axes(g, axes),)


def _vjp_maxpool2(ns, g, xs, vals, out, meta, want):
    return (ns.unpool2(g, meta),)


def _vjp_unpool2(ns, g, xs, vals, out, meta, want):
    return (ns.maxpool2(g, meta),)


# the one list of op names: each maps to its VJP rule `_vjp_<op>`; its
# forward is `kernels.<op>`
_OPS = {op: globals()[f"_vjp_{op}"] for op in (
    "matmul", "conv2d", "permute", "flip_hw", "reshape", "add", "mul", "scale",
    "relu", "softplus", "exp", "log", "rsqrt", "reciprocal", "sum_axes",
    "broadcast", "maxpool2", "unpool2")}


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
    if _op not in vars(Graph):
        setattr(Graph, _op, _method(_op))
del _op


def _live(nodes: list[_Node], last: int, targets: set[int]) -> list[bool]:
    """Per node up to `last`, whether it lies on a path to a target: it is a
    target or one of its arguments is live, and it is not a `const`."""
    live = []
    for i, node in enumerate(nodes[:last + 1]):
        live.append(node.op != "const"
                    and (i in targets or any(live[j] for j in node.args)))
    return live


def grad(out: Var, wrts: Sequence[Var], *, create_graph: bool = False) -> list:
    """Gradients of `out` with respect to each entry of `wrts`.

    With `create_graph=False` the sweep runs on raw arrays and returns
    ndarrays. With `create_graph=True` the adjoint computation is emitted
    onto the tape and Vars come back, ready for another `grad` call.
    The sweep starts from ones of the output's shape and computes only the
    adjoints of nodes on a path to a `wrts` entry; a `const` cuts the path,
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
    live = _live(nodes, out.idx, targets)
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
        vals = tuple(nodes[j].value for j in node.args)
        if create_graph:
            xs = tuple(Var(graph, j) for j in node.args)
            out_h = Var(graph, i)
        else:
            xs, out_h = vals, node.value
        contribs = vjp(ns, g, xs, vals, out_h, node.meta, want)
        for j, w, c in zip(node.args, want, contribs):
            if w:
                adj[j] = c if j not in adj else ns.add(adj[j], c)
    return [
        adj[w.idx] if w.idx in adj else ns.const(np.zeros_like(nodes[w.idx].value))
        for w in wrts
    ]
