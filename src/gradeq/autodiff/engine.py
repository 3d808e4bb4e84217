"""Reverse-mode automatic differentiation on an append-only op tape.

A Graph records every primitive application as a node holding the op name,
the argument node ids, any static payload (padding, axes, pooling masks),
and the eagerly computed float64 value. Node arguments always have smaller
ids than the node itself, so the tape is topologically sorted by
construction and a backward sweep is a single reverse pass.

There are two op namespaces with the same names. The `kernels` module
runs each op on raw arrays; a `Graph` emits each op onto its tape
(`graph.matmul(a, b)`), its emitters set from `_OPS`, the one list of op
names. Every vector-Jacobian rule and every model forward is written
against a namespace argument, so the raw and the recording routes cannot
drift apart.

`grad` runs the backward sweep either on raw arrays through `kernels`
(fast path) or, with `create_graph=True`, by emitting the adjoint
computation onto the same tape. In the second mode the returned gradients
are graph values, so differentiating through them again is just another
`grad` call.

ReLU backward multiplies by a constant activation mask, so its second
derivative is identically zero; use softplus where curvature matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import kernels


class GraphError(ValueError):
    """Malformed graph construction (cross-graph args, bad shapes)."""


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


# ---------------------------------------------------------------------------
# Primitive emitters, also set on Graph as its ops. Shape and argument
# validation happens here, once, so both the model forwards and the VJP
# rules can rely on it.


def matmul(a: Var, b: Var) -> Var:
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise GraphError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a.graph.apply("matmul", (a, b))


def conv2d(x: Var, k: Var, pad: int) -> Var:
    kh, kw = k.shape[2], k.shape[3]
    if kh != kw:
        raise GraphError(f"conv2d kernels must be square, got {kh}x{kw}")
    if not 0 <= pad <= kh - 1:
        raise GraphError(f"conv2d pad must lie in [0, {kh - 1}], got {pad}")
    return x.graph.apply("conv2d", (x, k), int(pad))


def permute(x: Var, axes: tuple[int, ...]) -> Var:
    if sorted(axes) != list(range(len(x.shape))):
        raise GraphError(f"permute axes {axes} invalid for rank {len(x.shape)}")
    return x.graph.apply("permute", (x,), tuple(axes))


def flip_hw(x: Var) -> Var:
    return x.graph.apply("flip_hw", (x,))


def reshape(x: Var, shape: tuple[int, ...]) -> Var:
    if int(np.prod(shape, dtype=np.int64)) != x.value.size:
        raise GraphError(f"reshape {x.shape} -> {shape} changes element count")
    return x.graph.apply("reshape", (x,), tuple(int(s) for s in shape))


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise GraphError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return a.graph.apply("add", (a, b))


def mul(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise GraphError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return a.graph.apply("mul", (a, b))


def scale(x: Var, c: float) -> Var:
    return x.graph.apply("scale", (x,), float(c))


def relu(x: Var) -> Var:
    return x.graph.apply("relu", (x,))


def softplus(x: Var) -> Var:
    return x.graph.apply("softplus", (x,))


def exp(x: Var) -> Var:
    return x.graph.apply("exp", (x,))


def log(x: Var) -> Var:
    return x.graph.apply("log", (x,))


def rsqrt(x: Var) -> Var:
    return x.graph.apply("rsqrt", (x,))


def reciprocal(x: Var) -> Var:
    return x.graph.apply("reciprocal", (x,))


def sum_axes(x: Var, axes: tuple[int, ...]) -> Var:
    axes = tuple(sorted(int(a) % len(x.shape) for a in axes))
    if len(set(axes)) != len(axes):
        raise GraphError(f"sum_axes got repeated axes {axes}")
    return x.graph.apply("sum_axes", (x,), axes)


def broadcast(x: Var, shape: tuple[int, ...]) -> Var:
    return x.graph.apply("broadcast", (x,), tuple(int(s) for s in shape))


def maxpool2(x: Var, mask: np.ndarray | None = None) -> Var:
    """2x2 max pool through `mask`, by default the argmax mask of x's value;
    either way the mask is frozen into the tape at build time."""
    if mask is None:
        mask = kernels.pool_mask(x.value)
    return x.graph.apply("maxpool2", (x,), mask)


def unpool2(x: Var, mask: np.ndarray) -> Var:
    return x.graph.apply("unpool2", (x,), mask)


# ---------------------------------------------------------------------------
# VJP rules. Each receives the namespace `ns` (the `kernels` module or the
# Graph), the upstream adjoint `g`, ns-domain handles of the inputs and
# output, the recorded input arrays `vals`, and the static payload. They
# return one contribution per input; None marks a blocked path.


def _vjp_matmul(ns, g, xs, vals, out, meta):
    a, b = xs
    return ns.matmul(g, ns.permute(b, (1, 0))), ns.matmul(ns.permute(a, (1, 0)), g)


def _vjp_conv2d(ns, g, xs, vals, out, meta):
    x, k = xs
    pad = meta
    kh = vals[1].shape[2]
    k_flip = ns.flip_hw(ns.permute(k, (1, 0, 2, 3)))
    gx = ns.conv2d(g, k_flip, kh - 1 - pad)
    gk = ns.permute(
        ns.conv2d(ns.permute(x, (1, 0, 2, 3)), ns.permute(g, (1, 0, 2, 3)), pad),
        (1, 0, 2, 3),
    )
    return gx, gk


def _vjp_permute(ns, g, xs, vals, out, meta):
    inv = [0] * len(meta)
    for i, a in enumerate(meta):
        inv[a] = i
    return (ns.permute(g, tuple(inv)),)


def _vjp_flip_hw(ns, g, xs, vals, out, meta):
    return (ns.flip_hw(g),)


def _vjp_reshape(ns, g, xs, vals, out, meta):
    return (ns.reshape(g, vals[0].shape),)


def _vjp_add(ns, g, xs, vals, out, meta):
    return g, g


def _vjp_mul(ns, g, xs, vals, out, meta):
    a, b = xs
    return ns.mul(g, b), ns.mul(g, a)


def _vjp_scale(ns, g, xs, vals, out, meta):
    return (ns.scale(g, meta),)


def _vjp_relu(ns, g, xs, vals, out, meta):
    mask = (vals[0] > 0.0).astype(np.float64)
    return (ns.mul(g, ns.const(mask)),)


def _vjp_softplus(ns, g, xs, vals, out, meta):
    (x,) = xs
    # sigmoid(x) = exp(-softplus(-x)), stable on both tails
    sig = ns.exp(ns.scale(ns.softplus(ns.scale(x, -1.0)), -1.0))
    return (ns.mul(g, sig),)


def _vjp_exp(ns, g, xs, vals, out, meta):
    return (ns.mul(g, out),)


def _vjp_log(ns, g, xs, vals, out, meta):
    return (ns.mul(g, ns.reciprocal(xs[0])),)


def _vjp_reciprocal(ns, g, xs, vals, out, meta):
    return (ns.scale(ns.mul(g, ns.mul(out, out)), -1.0),)


def _vjp_rsqrt(ns, g, xs, vals, out, meta):
    return (ns.scale(ns.mul(g, ns.mul(out, ns.mul(out, out))), -0.5),)


def _vjp_sum_axes(ns, g, xs, vals, out, meta):
    return (ns.broadcast(g, vals[0].shape),)


def _vjp_broadcast(ns, g, xs, vals, out, meta):
    axes = tuple(
        i for i, (a, b) in enumerate(zip(vals[0].shape, meta)) if a == 1 and b != 1
    )
    if not axes:
        return (g,)
    return (ns.sum_axes(g, axes),)


def _vjp_maxpool2(ns, g, xs, vals, out, meta):
    return (ns.unpool2(g, meta),)


def _vjp_unpool2(ns, g, xs, vals, out, meta):
    return (ns.maxpool2(g, meta),)


# the one list of op names: each maps to its VJP rule `_vjp_<op>`; the
# forward is `kernels.<op>` and the tape emitter `<op>` above
_OPS = {op: globals()[f"_vjp_{op}"] for op in (
    "matmul", "conv2d", "permute", "flip_hw", "reshape", "add", "mul", "scale",
    "relu", "softplus", "exp", "log", "rsqrt", "reciprocal", "sum_axes",
    "broadcast", "maxpool2", "unpool2")}

for _name in _OPS:
    setattr(Graph, _name, staticmethod(globals()[_name]))
del _name


def grad(out: Var, wrts: Sequence[Var], *, create_graph: bool = False) -> list:
    """Gradients of `out` with respect to each entry of `wrts`.

    With `create_graph=False` the sweep runs on raw arrays and returns
    ndarrays. With `create_graph=True` the adjoint computation is emitted
    onto the tape and Vars come back, ready for another `grad` call.
    The sweep starts from ones of the output's shape. Adjoints accumulate
    in strict reverse node order, so repeated calls on the same tape are
    bitwise reproducible.
    """
    graph = out.graph
    nodes = graph.nodes
    for w in wrts:
        if w.graph is not graph:
            raise GraphError("grad target lives on a different graph")
    ns = graph if create_graph else kernels
    adj: dict[int, Any] = {out.idx: ns.const(np.ones_like(nodes[out.idx].value))}
    for i in range(out.idx, -1, -1):
        if i not in adj:
            continue
        node = nodes[i]
        if node.op in ("var", "const"):
            continue
        g = adj[i]
        vjp = _OPS[node.op]
        vals = tuple(nodes[j].value for j in node.args)
        if create_graph:
            xs = tuple(Var(graph, j) for j in node.args)
            out_h = Var(graph, i)
        else:
            xs, out_h = vals, node.value
        contribs = vjp(ns, g, xs, vals, out_h, node.meta)
        for j, c in zip(node.args, contribs):
            if c is None or nodes[j].op == "const":
                continue
            adj[j] = c if j not in adj else ns.add(adj[j], c)
    return [
        adj[w.idx] if w.idx in adj else ns.const(np.zeros_like(nodes[w.idx].value))
        for w in wrts
    ]
