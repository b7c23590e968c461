"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Graph is a re-runnable Wengert list: builder methods append nodes in
topological order, forward() evaluates every node under fresh leaf bindings,
and backward() accumulates adjoints from a scalar root back to the leaves.
Values are float64, apart from integer input leaves such as class labels;
gradient checks at 1e-4 tolerance are unreliable in 32-bit.

Each op kind is defined once, in RULES: a forward rule and one adjoint (vjp)
rule per input. backward() calls an input's rule only when that input lies on
a path to a parameter leaf, so inputs such as the data batch get no gradient.

A graph is built once and evaluated many times. The first forward() or
backward() for a root compiles a plan: the forward (node, rule, inputs) list
and the backward (node, inputs, vjp calls) list, with every RULES lookup and
on-path test already done. Appending a node discards the plans.
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


def _fold_max(columns):
    """np.maximum folded over the rows of `columns`: the row max of the (n, k)
    array whose columns they are, with np.maximum.reduce's values except
    perhaps the sign of a zero max."""
    out = columns[0].copy()
    for column in columns[1:]:
        np.maximum(out, column, out=out)
    return out


def log_softmax(x):
    """Log-softmax over the last axis, stabilised by the row max.

    The row max is folded over the K columns (_fold_max): numpy reduces a
    short row slowly, and max is exact. Where the fold differs from
    np.maximum.reduce, only in the sign of a zero max, a second zero in the
    row makes its lse nonzero, so the log-probabilities keep their bits.
    """
    rows = x.reshape(-1, x.shape[-1])
    shifted = rows - _fold_max(rows.T)[:, None]
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return log_probs.reshape(x.shape)


_ZERO = bytes(8)  # one float64 0.0: the buffer of every read-only zero adjoint
_ONE = np.ones(())  # the root's adjoint; read-only, since vjps never write into adj
_ONE.flags.writeable = False


def _zero_view(shape):
    """A read-only all-zero float64 array of `shape` that allocates no data."""
    return np.ndarray(shape, np.float64, _ZERO, 0, (0,) * len(shape))


def _int_value(name, value):
    """The binding of int leaf `name` as int64; a float must be a whole number
    in the int64 range. An int64 array passes as it is."""
    if type(value) is np.ndarray and value.dtype == np.int64:
        return value
    value = np.asarray(value)
    if value.dtype.kind == "f":
        whole = (np.trunc(value) == value) & (np.abs(value) < 2.0 ** 63)
        if not whole.all():
            raise GraphError(f"int leaf {name!r} got {value[~whole][0]}, "
                             "which is not a whole number in the int64 range")
    return value.astype(np.int64, copy=False)


def _unbroadcast(adj, shape):
    """Sum an adjoint back down to `shape` after numpy broadcasting."""
    if adj.shape == shape:
        return adj
    for _ in range(adj.ndim - len(shape)):
        adj = np.add.reduce(adj, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and adj.shape[axis] != 1:
            adj = np.add.reduce(adj, axis=axis, keepdims=True)
    return adj


def dense_layer(h, w, b, relu):
    """One MLP layer: relu(h @ w + b), or h @ w + b without relu; the bias is
    a vector with one entry per output column.

    Only the product is allocated; the bias and relu are applied in place, so
    neither `h` nor the parameters are written.
    """
    if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0]:
        raise GraphError(f"dense: shapes {h.shape} and {w.shape} are incompatible")
    z = h @ w
    if b.shape != z.shape[1:]:
        raise GraphError(f"dense: bias shape {b.shape} does not match the "
                         f"{z.shape[1]} output columns")
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


# ---- per-op forward rules: fn(node, *input_values) -> value ----------------

def _broadcasting(ufunc):
    def evaluate(node, a, b):
        try:
            return ufunc(a, b)
        except ValueError:
            raise GraphError(
                f"{node.op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    return evaluate


def _gather_rows(node, x, idx):
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
    return np.add.reduce(x, axis=0) / x.shape[0]


def _huber(node, x):
    if x.shape != ():
        raise GraphError(f"huber expects a scalar, got shape {x.shape}")
    x, alpha = float(x), node.aux
    if abs(x) <= alpha:
        return np.asarray(0.5 * x * x)
    return np.asarray(alpha * (abs(x) - 0.5 * alpha))


def _row_max(node, x):
    if x.ndim != 2:
        raise GraphError(f"row_max: expected 2-d input, got shape {x.shape}")
    node.saved = np.argmax(x, axis=1)
    return x[np.arange(x.shape[0]), node.saved]


def _correct_indicator(node, x, targets):
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise GraphError(f"correct_indicator: logits shape {x.shape} vs targets {targets.shape}")
    return (np.argmax(x, axis=1) == targets).astype(np.float64)


def _one_hot(node, targets):
    n_classes, on, off = node.aux
    if targets.ndim != 1:
        raise GraphError(f"one_hot: expected 1-d targets, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise GraphError(f"target labels out of range for {n_classes} classes")
    out = np.full((targets.shape[0], n_classes), off)
    out[np.arange(targets.shape[0]), targets] = on
    return out


def _focal_power(node, p):
    threshold, gamma_below, gamma_above = node.aux
    gamma, q = np.where(p < threshold, gamma_below, gamma_above), 1.0 - p
    node.saved = gamma, q
    return q ** gamma


# ---- per-input adjoint rules: fn(adj, node, *input_values) -> contribution --

def _scatter_rows(adj, x, columns):
    """Zeros shaped like 2-d `x` plus `adj[i]` at `[i, columns[i]]`; one column
    per row, so a flat-index `+=` equals `np.add.at` bit for bit."""
    rows, width = x.shape
    grad = np.zeros(x.shape)
    grad.reshape(-1)[np.arange(rows) * width + columns] += adj
    return grad


def _dense_delta(adj, node):
    """The adjoint of a dense layer's pre-activation: adj, or with relu
    adj * (z > 0), z being the output, positive exactly where the
    pre-activation is (a float64 mask: the bits of a bool one, multiplied faster).

    Built once per adjoint and shared by the layer's three rules; holding adj
    in node.saved keeps its identity from passing to a later adjoint.
    """
    if not node.aux:
        return adj
    saved = node.saved
    if saved is None or saved[0] is not adj:
        saved = node.saved = adj, adj * (node.value > 0).astype(np.float64)
    return saved[1]


def _huber_vjp(adj, node, x):
    x = float(x)
    alpha = node.aux
    return adj * (x if abs(x) <= alpha else alpha * np.sign(x))


def _focal_power_vjp(adj, node, p):
    gamma, q = node.saved
    return -(adj * gamma * q ** (gamma - 1.0))


# op kind -> (forward rule, adjoint rules for its leading inputs). An input
# without a rule (such as the targets of gather_rows) gets no gradient.
RULES = {
    "leaf": (lambda node: node.value, ()),  # bound by forward() before the sweep
    "const": (lambda node: node.aux, ()),
    "dense": (lambda node, h, w, b: dense_layer(h, w, b, node.aux),
              (lambda adj, node, h, w, b: _dense_delta(adj, node) @ w.T,
               lambda adj, node, h, w, b: h.T @ _dense_delta(adj, node),
               lambda adj, node, h, w, b: np.add.reduce(_dense_delta(adj, node), axis=0))),
    "add": (_broadcasting(np.add), (lambda adj, node, a, b: _unbroadcast(adj, a.shape),
                                    lambda adj, node, a, b: _unbroadcast(adj, b.shape))),
    "sub": (_broadcasting(np.subtract), (lambda adj, node, a, b: _unbroadcast(adj, a.shape),
                                         lambda adj, node, a, b: _unbroadcast(-adj, b.shape))),
    "mul": (_broadcasting(np.multiply),
            (lambda adj, node, a, b: _unbroadcast(adj * b, a.shape),
             lambda adj, node, a, b: _unbroadcast(adj * a, b.shape))),
    "log_softmax": (lambda node, x: log_softmax(x),
                    (lambda adj, node, x: adj - np.exp(node.value)
                     * np.add.reduce(adj, axis=-1, keepdims=True),)),
    "exp": (lambda node, x: np.exp(x), (lambda adj, node, x: adj * node.value,)),
    "pow_const": (lambda node, x: x ** node.aux,
                  (lambda adj, node, x: adj * node.aux * x ** (node.aux - 1.0),)),
    "abs": (lambda node, x: np.abs(x), (lambda adj, node, x: adj * np.sign(x),)),
    "gather_rows": (_gather_rows, (lambda adj, node, x, idx: _scatter_rows(adj, x, idx),)),
    "mean": (_mean, (lambda adj, node, x: np.full(x.shape, adj / x.shape[0]),)),
    "sum": (lambda node, x: np.asarray(np.sum(x)), (lambda adj, node, x: np.full_like(x, adj),)),
    "scale": (lambda node, x: node.aux * x, (lambda adj, node, x: node.aux * adj,)),
    "huber": (_huber, (_huber_vjp,)),
    "row_max": (_row_max, (lambda adj, node, x: _scatter_rows(adj, x, node.saved),)),
    "correct_indicator": (_correct_indicator, ()),
    "one_hot": (_one_hot, ()),
    "focal_power": (_focal_power, (_focal_power_vjp,)),
}


def _single(node):
    return node.inputs[0] if len(node.inputs) == 1 else None


class _Plan:
    """One root's evaluation order, compiled once from the node list.

    forward: (node, rule, inputs, single) for every non-leaf node up to the
    root; `single` is the input of a one-input node, else None, and spares the
    sweep a list of input values.
    backward: (node, inputs, single, ((input, vjp, first), ...)) in reverse order, for
    every node that receives an adjoint and passes it on; `first` marks the
    contribution that becomes the input's adjoint, later ones are added to it.
    zeros: the nodes up to the root that receive no contribution.
    params: the parameter leaves up to the root.
    """
    __slots__ = ("forward", "backward", "zeros", "params")

    def __init__(self, nodes, root):
        try:
            stop = nodes.index(root)
        except ValueError:
            raise GraphError(f"{root!r} is not a node of this graph") from None
        active = nodes[: stop + 1]
        self.forward = tuple((node, RULES[node.op][0], node.inputs, _single(node))
                             for node in active if node.op != "leaf")
        reached, backward = {root}, []
        for node in reversed(active):
            if node not in reached or not node.on_path:
                continue
            calls = []
            for inp, vjp in zip(node.inputs, RULES[node.op][1]):
                if inp.on_path:
                    calls.append((inp, vjp, inp not in reached))
                    reached.add(inp)
            if calls:
                backward.append((node, node.inputs, _single(node), tuple(calls)))
        self.backward = tuple(backward)
        self.zeros = tuple(node for node in active if node not in reached)
        self.params = tuple(node for node in active if node.is_param)


class Graph:
    """Re-runnable computation graph; single-writer per instance.

    forward/backward mutate cached node values and must not run concurrently
    on one graph. Distinct graphs are independent.
    """

    def __init__(self):
        self.nodes = []
        self._leaf_names = {}
        self._plans = {}  # root node -> _Plan

    def _append(self, node):
        for inp in node.inputs:
            if not isinstance(inp, Node):
                raise GraphError(f"{node.op}: inputs must be graph nodes, got "
                                 f"{type(inp).__name__}")
        for inp, _ in zip(node.inputs, RULES[node.op][1]):
            if inp.on_path:
                node.on_path = True
                break
        self.nodes.append(node)
        self._plans.clear()
        return node

    def _plan(self, root):
        plan = self._plans.get(root)
        if plan is None:
            plan = self._plans[root] = _Plan(self.nodes, root)
        return plan

    # ---- leaves and constants -------------------------------------------

    def leaf(self, name, param=True):
        """Declare a named float64 input; `param=True` marks it a trainable parameter."""
        return self._leaf(name, param, np.float64)

    def int_leaf(self, name):
        """Declare a named int64 input, such as class labels; never a parameter."""
        return self._leaf(name, False, np.int64)

    def _leaf(self, name, param, dtype):
        if name in self._leaf_names:
            raise GraphError(f"duplicate leaf name {name!r}")
        node = self._append(Node("leaf", aux=dtype, name=name, is_param=param))
        self._leaf_names[name] = node
        return node

    def const(self, value):
        return self._append(Node("const", aux=np.asarray(value, dtype=np.float64)))

    # ---- op builders -----------------------------------------------------

    def dense(self, h, w, b, relu):
        """One MLP layer, dense_layer(h, w, b, relu): relu(h @ w + b), or the
        affine map alone when `relu` is false."""
        return self._append(Node("dense", (h, w, b), aux=bool(relu)))

    def add(self, a, b):
        """Elementwise add; broadcasts over leading batch axes."""
        return self._append(Node("add", (a, b)))

    def sub(self, a, b):
        return self._append(Node("sub", (a, b)))

    def mul(self, a, b):
        return self._append(Node("mul", (a, b)))

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
        """Pick one entry per row of a 2-d array: out[i] = a[i, indices[i]].

        `indices` is a node holding one integer per row, e.g. an int_leaf.
        """
        return self._append(Node("gather_rows", (a, indices)))

    def mean(self, a):
        """Mean over the leading (batch) axis."""
        return self._append(Node("mean", (a,)))

    def sum(self, a):
        """Sum of all entries, yielding a scalar."""
        return self._append(Node("sum", (a,)))

    def scale(self, a, factor):
        return self._append(Node("scale", (a,), aux=float(factor)))

    def huber(self, a, alpha):
        """Huber function of a scalar: x^2/2 inside |x|<=alpha, linear outside."""
        if not alpha > 0:
            raise GraphError(f"huber alpha must be > 0, got {alpha}")
        return self._append(Node("huber", (a,), aux=float(alpha)))

    def row_max(self, a):
        """Max over the last axis of a 2-d array; ties route to the lowest index."""
        return self._append(Node("row_max", (a,)))

    def correct_indicator(self, a, targets):
        """Per-row 0/1 indicator that argmax(a) equals the target label.

        `targets` is a node holding one integer label per row. The indicator
        is piecewise constant, so it has no adjoint rule.
        """
        return self._append(Node("correct_indicator", (a, targets)))

    def one_hot(self, targets, n_classes, on=1.0, off=0.0):
        """(n, n_classes) rows holding `on` at each target label and `off` elsewhere.

        A function of the labels alone, so it has no adjoint rule.
        """
        return self._append(Node("one_hot", (targets,),
                                 aux=(int(n_classes), float(on), float(off))))

    def focal_power(self, p, gamma_below, gamma_above, threshold):
        """(1 - p)**gamma of a probability p, with gamma = gamma_below where
        p < threshold and gamma_above elsewhere (so at the threshold too).

        The exponent is chosen per element on every forward pass and carries
        no gradient of its own.
        """
        return self._append(Node("focal_power", (p,),
                                 aux=(float(threshold), float(gamma_below), float(gamma_above))))

    # ---- evaluation -------------------------------------------------------

    def forward(self, bindings, root=None):
        """Evaluate all nodes up to `root` (default: last built) and return its value.

        Every leaf is bound, as an array of its declared dtype; an int leaf
        takes floats only when they are whole numbers in the int64 range.
        """
        leaves = self._leaf_names
        if bindings.keys() != leaves.keys():
            unknown = set(bindings) - set(leaves)
            if unknown:
                raise GraphError(f"unknown leaf name(s) in bindings: {sorted(unknown)}")
            missing = set(leaves) - set(bindings)
            raise GraphError(f"missing binding(s) for leaf(s): {sorted(missing)}")
        for name, node in leaves.items():
            value = bindings[name]
            if node.aux is np.int64:
                node.value = _int_value(name, value)
            else:
                node.value = np.asarray(value, dtype=np.float64)
        root = root if root is not None else self.nodes[-1]
        for node, rule, inputs, single in self._plan(root).forward:
            node.value = (rule(node, single.value) if single is not None
                          else rule(node, *[inp.value for inp in inputs]))
        return root.value

    def backward(self, root=None):
        """Accumulate adjoints from a scalar root; returns parameter-leaf gradients.

        A node's adjoint is its first vjp contribution; later ones are added out
        of place, because a contribution may alias another node's adjoint. Every
        node up to `root` ends with an adjoint of its value's shape: a node that
        got no contribution holds a read-only zero view, or fresh zeros if it
        is a parameter leaf. The root's adjoint is a shared read-only 1.0. The
        returned gradients are the leaves' adjoints.
        """
        root = root if root is not None else self.nodes[-1]
        if root.value is None:
            raise GraphError("backward() before forward()")
        if root.value.shape != ():
            raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
        plan = self._plan(root)
        root.adjoint = _ONE
        for node, inputs, single, calls in plan.backward:
            adj = node.adjoint
            values = (single.value,) if single is not None else [inp.value for inp in inputs]
            for inp, vjp, first in calls:
                grad = vjp(adj, node, *values)
                inp.adjoint = grad if first else inp.adjoint + grad
        for node in plan.zeros:
            if node.is_param:
                node.adjoint = np.zeros_like(node.value)
            elif (node.adjoint is None or node.adjoint.base is not _ZERO
                  or node.adjoint.shape != node.value.shape):
                node.adjoint = _zero_view(node.value.shape)  # else the last one still fits
        return {node.name: node.adjoint for node in plan.params}


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
