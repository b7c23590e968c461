"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Graph is a re-runnable Wengert list: builder methods append nodes in
topological order, forward() evaluates every node under fresh leaf bindings,
and backward() accumulates adjoints from a scalar root back to the leaves.
Everything is float64; gradient checks at 1e-4 tolerance are unreliable in
32-bit.

Each op kind is defined once, in RULES: a forward rule and one adjoint (vjp)
rule per input. backward() calls an input's rule only when that input lies on
a path to a parameter leaf, so inputs such as the data batch get no gradient.
"""

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Raised when a graph is built or evaluated with incompatible inputs."""


class Node:
    __slots__ = ("op", "inputs", "aux", "name", "is_param", "on_path", "value", "adjoint",
                 "saved")

    def __init__(self, op, inputs=(), aux=None, name=None, is_param=False):
        self.op = op
        self.inputs = tuple(inputs)
        self.aux = aux
        self.name = name
        self.is_param = is_param
        self.on_path = is_param  # gradient can flow from this node to a parameter leaf
        self.value = None
        self.adjoint = None
        self.saved = None  # per-forward data needed by the adjoint rule

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Node({self.op}{tag})"


def log_softmax(x):
    """Log-softmax over the last axis, stabilised by the row max."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


_ZERO = bytes(8)  # one float64 0.0: the buffer of every read-only zero adjoint


def _zero_view(shape):
    """A read-only all-zero float64 array of `shape` that allocates no data."""
    return np.ndarray(shape, np.float64, _ZERO, 0, (0,) * len(shape))


def _unbroadcast(adj, shape):
    """Sum an adjoint back down to `shape` after numpy broadcasting."""
    for _ in range(adj.ndim - len(shape)):
        adj = adj.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and adj.shape[axis] != 1:
            adj = adj.sum(axis=axis, keepdims=True)
    return adj


# ---- per-op forward rules: fn(node, *input_values) -> value ----------------

def _matmul(node, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    return a @ b


def _broadcasting(ufunc):
    def evaluate(node, a, b):
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise GraphError(
                f"{node.op}: shapes {a.shape} and {b.shape} do not broadcast") from None
        return ufunc(a, b)
    return evaluate


def _gather_rows(node, x):
    idx = node.aux
    if x.ndim != 2:
        raise GraphError(f"gather_rows: expected 2-d input, got shape {x.shape}")
    if idx.shape != (x.shape[0],):
        raise GraphError(f"gather_rows: index shape {idx.shape} does not match rows of {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise GraphError(f"gather_rows: index out of range for {x.shape[1]} columns")
    return x[np.arange(x.shape[0]), idx]


def _mean(node, x):
    if x.ndim == 0:
        raise GraphError("mean needs an input with a leading axis, got a scalar")
    if x.shape[0] == 0:
        raise GraphError("mean over an empty leading axis")
    return np.mean(x, axis=0)


def _huber(node, x):
    if x.shape != ():
        raise GraphError(f"huber expects a scalar, got shape {x.shape}")
    alpha = node.aux
    if abs(x) <= alpha:
        return np.asarray(0.5 * x * x)
    return np.asarray(alpha * (abs(x) - 0.5 * alpha))


def _row_max(node, x):
    if x.ndim != 2:
        raise GraphError(f"row_max: expected 2-d input, got shape {x.shape}")
    node.saved = np.argmax(x, axis=1)
    return x[np.arange(x.shape[0]), node.saved]


def _correct_indicator(node, x):
    targets = node.aux
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise GraphError(f"correct_indicator: logits shape {x.shape} vs targets {targets.shape}")
    return (np.argmax(x, axis=1) == targets).astype(np.float64)


def _focal_power(node, x):
    threshold, gamma_below, gamma_above = node.aux
    node.saved = np.where(1.0 - x < threshold, gamma_below, gamma_above)
    return x ** node.saved


# ---- per-input adjoint rules: fn(adj, node, *input_values) -> contribution --

def _scatter_rows(adj, x, columns):
    grad = np.zeros_like(x)
    np.add.at(grad, (np.arange(grad.shape[0]), columns), adj)
    return grad


def _huber_vjp(adj, node, x):
    x = float(x)
    alpha = node.aux
    return adj * (x if abs(x) <= alpha else alpha * np.sign(x))


# op kind -> (forward rule, one adjoint rule per input). An op without
# adjoint rules passes no gradient to its inputs.
RULES = {
    "leaf": (lambda node: node.value, ()),  # bound by forward() before the sweep
    "const": (lambda node: node.aux, ()),
    "matmul": (_matmul, (lambda adj, node, a, b: adj @ b.T,
                         lambda adj, node, a, b: a.T @ adj)),
    "add": (_broadcasting(np.add), (lambda adj, node, a, b: _unbroadcast(adj, a.shape),
                                    lambda adj, node, a, b: _unbroadcast(adj, b.shape))),
    "sub": (_broadcasting(np.subtract), (lambda adj, node, a, b: _unbroadcast(adj, a.shape),
                                         lambda adj, node, a, b: _unbroadcast(-adj, b.shape))),
    "mul": (_broadcasting(np.multiply),
            (lambda adj, node, a, b: _unbroadcast(adj * b, a.shape),
             lambda adj, node, a, b: _unbroadcast(adj * a, b.shape))),
    "relu": (lambda node, x: np.maximum(x, 0.0), (lambda adj, node, x: adj * (x > 0),)),
    "log_softmax": (lambda node, x: log_softmax(x),
                    (lambda adj, node, x:
                     adj - np.exp(node.value) * np.sum(adj, axis=-1, keepdims=True),)),
    "exp": (lambda node, x: np.exp(x), (lambda adj, node, x: adj * node.value,)),
    "pow_const": (lambda node, x: x ** node.aux,
                  (lambda adj, node, x: adj * node.aux * x ** (node.aux - 1.0),)),
    "abs": (lambda node, x: np.abs(x), (lambda adj, node, x: adj * np.sign(x),)),
    "gather_rows": (_gather_rows, (lambda adj, node, x: _scatter_rows(adj, x, node.aux),)),
    "mean": (_mean, (lambda adj, node, x: np.full(x.shape, adj / x.shape[0]),)),
    "sum": (lambda node, x: np.asarray(np.sum(x)), (lambda adj, node, x: np.full_like(x, adj),)),
    "scale": (lambda node, x: node.aux * x, (lambda adj, node, x: node.aux * adj,)),
    "stop_gradient": (lambda node, x: x, ()),
    "huber": (_huber, (_huber_vjp,)),
    "row_max": (_row_max, (lambda adj, node, x: _scatter_rows(adj, x, node.saved),)),
    "correct_indicator": (_correct_indicator, ()),
    "focal_power": (_focal_power,
                    (lambda adj, node, x: adj * node.saved * x ** (node.saved - 1.0),)),
}


class Graph:
    """Re-runnable computation graph; single-writer per instance.

    forward/backward mutate cached node values and must not run concurrently
    on one graph. Distinct graphs are independent.
    """

    def __init__(self):
        self.nodes = []
        self._leaf_names = {}

    def _append(self, node):
        if RULES[node.op][1]:
            for inp in node.inputs:
                if inp.on_path:
                    node.on_path = True
                    break
        self.nodes.append(node)
        return node

    # ---- leaves and constants -------------------------------------------

    def leaf(self, name, param=True):
        """Declare a named input; `param=True` marks it a trainable parameter."""
        if name in self._leaf_names:
            raise GraphError(f"duplicate leaf name {name!r}")
        node = self._append(Node("leaf", name=name, is_param=param))
        self._leaf_names[name] = node
        return node

    def const(self, value):
        return self._append(Node("const", aux=np.asarray(value, dtype=np.float64)))

    # ---- op builders -----------------------------------------------------

    def matmul(self, a, b):
        return self._append(Node("matmul", (a, b)))

    def add(self, a, b):
        """Elementwise add; broadcasts over leading batch axes (e.g. bias)."""
        return self._append(Node("add", (a, b)))

    def sub(self, a, b):
        return self._append(Node("sub", (a, b)))

    def mul(self, a, b):
        return self._append(Node("mul", (a, b)))

    def relu(self, a):
        return self._append(Node("relu", (a,)))

    def log_softmax(self, a):
        """Log-softmax over the last axis, stabilised by the row max."""
        return self._append(Node("log_softmax", (a,)))

    def exp(self, a):
        return self._append(Node("exp", (a,)))

    def pow_const(self, a, exponent):
        """a**exponent with a constant scalar exponent."""
        node = self._append(Node("pow_const", (a,), aux=float(exponent)))
        if node.aux == 0.0:
            node.on_path = False  # a**0 is constant; e * a**(e-1) would be NaN at a = 0
        return node

    def absolute(self, a):
        return self._append(Node("abs", (a,)))

    def gather_rows(self, a, indices):
        """Pick one entry per row of a 2-d array: out[i] = a[i, indices[i]]."""
        return self._append(Node("gather_rows", (a,), aux=np.asarray(indices, dtype=np.int64)))

    def mean(self, a):
        """Mean over the leading (batch) axis."""
        return self._append(Node("mean", (a,)))

    def sum(self, a):
        """Sum of all entries, yielding a scalar."""
        return self._append(Node("sum", (a,)))

    def scale(self, a, factor):
        return self._append(Node("scale", (a,), aux=float(factor)))

    def stop_gradient(self, a):
        """Identity forward; the adjoint is cut to zero."""
        return self._append(Node("stop_gradient", (a,)))

    def huber(self, a, alpha):
        """Huber function of a scalar: x^2/2 inside |x|<=alpha, linear outside."""
        if alpha <= 0:
            raise GraphError(f"huber alpha must be > 0, got {alpha}")
        return self._append(Node("huber", (a,), aux=float(alpha)))

    def row_max(self, a):
        """Max over the last axis of a 2-d array; ties route to the lowest index."""
        return self._append(Node("row_max", (a,)))

    def correct_indicator(self, a, targets):
        """Per-row 0/1 indicator that argmax(a) equals the target label.

        The indicator is piecewise constant, so it has no adjoint rule.
        """
        return self._append(Node("correct_indicator", (a,),
                                 aux=np.asarray(targets, dtype=np.int64)))

    def focal_power(self, a, gamma_below=5.0, gamma_above=3.0, threshold=0.2):
        """a**gamma with gamma chosen per element from the current forward value.

        Input a = 1 - p for a probability p; gamma = gamma_below where
        p < threshold, else gamma_above. The exponent is recomputed on every
        forward pass and carries no gradient of its own.
        """
        return self._append(Node("focal_power", (a,),
                                 aux=(float(threshold), float(gamma_below), float(gamma_above))))

    # ---- evaluation -------------------------------------------------------

    def forward(self, bindings, root=None):
        """Evaluate all nodes up to `root` (default: last built) and return its value."""
        unknown = set(bindings) - set(self._leaf_names)
        if unknown:
            raise GraphError(f"unknown leaf name(s) in bindings: {sorted(unknown)}")
        missing = set(self._leaf_names) - set(bindings)
        if missing:
            raise GraphError(f"missing binding(s) for leaf(s): {sorted(missing)}")
        for name, node in self._leaf_names.items():
            node.value = np.asarray(bindings[name], dtype=np.float64)
        root = root if root is not None else self.nodes[-1]
        stop = self.nodes.index(root)
        for node in self.nodes[: stop + 1]:
            node.value = RULES[node.op][0](node, *[inp.value for inp in node.inputs])
        return root.value

    def backward(self, root=None):
        """Accumulate adjoints from a scalar root; returns parameter-leaf gradients.

        A node's adjoint is its first vjp contribution; later ones are added out
        of place, because a contribution may alias another node's adjoint. Every
        node up to `root` ends with an adjoint of its value's shape: a node that
        got no contribution holds a read-only zero view, or fresh zeros if it
        is a parameter leaf. The returned gradients are the leaves' adjoints.
        """
        root = root if root is not None else self.nodes[-1]
        if root.value is None:
            raise GraphError("backward() before forward()")
        if root.value.shape != ():
            raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
        stop = self.nodes.index(root)
        active = self.nodes[: stop + 1]
        for node in active:
            node.adjoint = None
        root.adjoint = np.ones_like(root.value)
        for node in reversed(active):
            adj = node.adjoint
            if adj is None:
                node.adjoint = (np.zeros_like(node.value) if node.is_param
                                else _zero_view(node.value.shape))
            elif node.on_path and node.inputs:
                values = [inp.value for inp in node.inputs]
                for inp, vjp in zip(node.inputs, RULES[node.op][1]):
                    if inp.on_path:
                        grad = vjp(adj, node, *values)
                        inp.adjoint = grad if inp.adjoint is None else inp.adjoint + grad
        return {n.name: n.adjoint for n in active if n.is_param}


@dataclass
class LeafCheck:
    leaf: str
    max_rel_error: float
    passed: bool


def grad_check(graph, bindings, step=1e-5, tol=1e-4, root=None):
    """Compare analytic gradients against central finite differences.

    Returns one LeafCheck per parameter leaf; never raises on failure. The
    relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|)
    per coordinate; a leaf passes iff its max relative error is <= tol. A NaN
    error (a NaN or infinite gradient) is kept as the maximum, so it fails.
    """
    if step <= 0:
        raise GraphError(f"grad_check step must be > 0, got {step}")
    graph.forward(bindings, root=root)
    analytic = graph.backward(root=root)
    results = []
    for name in analytic:
        base = np.array(bindings[name], dtype=np.float64)
        grads = analytic[name]
        worst = 0.0
        for i in range(base.size):
            perturbed = dict(bindings)
            bumped = base.copy().reshape(-1)
            bumped[i] += step
            perturbed[name] = bumped.reshape(base.shape)
            f_plus = float(graph.forward(perturbed, root=root))
            bumped[i] -= 2 * step
            perturbed[name] = bumped.reshape(base.shape)
            f_minus = float(graph.forward(perturbed, root=root))
            numeric = (f_plus - f_minus) / (2 * step)
            a = grads.reshape(-1)[i]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = rel if np.isnan(rel) else max(worst, rel)
        results.append(LeafCheck(name, worst, worst <= tol))
    # leave the graph's cached values consistent with the unperturbed point
    graph.forward(bindings, root=root)
    return results
