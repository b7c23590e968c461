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

FLSD_THRESHOLD = 0.2  # the target probability at which focal's exponent switches


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


def _fold(ufunc, columns):
    """`ufunc` folded left to right over the rows of `columns`: a row
    reduction of the (n, k) array whose columns they are, in one order
    whatever the memory layout. The np.maximum fold has np.maximum.reduce's
    values except perhaps the sign of a zero max."""
    out = columns[0].copy()
    for column in columns[1:]:
        ufunc(out, column, out=out)
    return out


@np.errstate(over="ignore")  # a shift past the float range is -inf, whose exp is 0
def _log_softmax_columns(columns):
    """Log-softmax, in place, of the n rows whose K columns are the rows of the
    C-contiguous float64 (K, n) `columns`; returns `columns`. The row max and
    the sum of exps are folded over the K columns (_fold). Where
    the max fold differs from np.maximum.reduce, only in the sign of a zero
    max, a second zero in the row makes its lse nonzero, so no bit changes."""
    columns -= _fold(np.maximum, columns)
    columns -= np.log(_fold(np.add, np.exp(columns)))
    return columns


def log_softmax(x):
    """Log-softmax over the (nonempty) last axis, stabilised by the row max; a new
    C-ordered array (_log_softmax_columns on a copy of the columns)."""
    if not x.shape or not x.shape[-1]:
        raise GraphError(f"log_softmax needs a nonempty last axis, got shape {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    return _log_softmax_columns(np.array(rows.T, order="C")).T.copy().reshape(x.shape)


_ZERO = bytes(8)  # one float64 0.0: the buffer of every read-only zero adjoint
_ONE = np.ones(())  # the root's adjoint; read-only, since vjps never write into adj
_ONE.flags.writeable = False


def _zero_view(shape):
    """A read-only all-zero float64 array of `shape` that allocates no data."""
    return np.ndarray(shape, np.float64, _ZERO, 0, (0,) * len(shape))


def _bind(leaf, value):
    """`value` as an array of `leaf`'s dtype: integers or floats, where an int
    leaf takes only integer dtypes that np.can_cast to int64 (as Dataset
    does) and floats that are whole numbers in the int64 range. An array
    already of that dtype binds as it is."""
    value = np.asarray(value)
    if value.dtype.kind not in "iuf":
        raise GraphError(f"leaf {leaf.name!r} got dtype {value.dtype}, not integers or floats")
    if leaf.aux is np.int64 and value.dtype.kind == "f":
        whole = (np.trunc(value) == value) & (np.abs(value) < 2.0 ** 63)
        if not whole.all():
            raise GraphError(f"int leaf {leaf.name!r} got {value[~whole][0]}, "
                             "which is not a whole number in the int64 range")
    elif leaf.aux is np.int64 and not np.can_cast(value.dtype, np.int64):
        raise GraphError(f"int leaf {leaf.name!r} got dtype {value.dtype}, "
                         "which does not cast safely to int64")
    return value.astype(leaf.aux, copy=False)


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

def _elementwise(ufunc):
    def evaluate(node, a, b):
        if a.shape != b.shape:
            raise GraphError(f"{node.op}: shapes {a.shape} and {b.shape} differ")
        return ufunc(a, b)
    return evaluate


def _check_targets(node, targets, shape):
    """Raise unless `shape` is (n, K) with n >= 1 and `targets` one label in [0, K) per row."""
    if len(shape) != 2 or not shape[0] or targets.shape != shape[:1]:
        raise GraphError(f"{node.op}: expected shape (n, K) with n >= 1 and one target "
                         f"per row, got shapes {shape} and {targets.shape}")
    if targets.min() < 0 or targets.max() >= shape[1]:
        raise GraphError(f"{node.op}: target out of range for {shape[1]} classes")


def _focal(node, x, targets):
    _check_targets(node, targets, x.shape)
    gamma_below, gamma_above = node.aux
    picked = x[np.arange(len(x)), targets]
    p = np.exp(picked)
    gamma, q = np.where(p < FLSD_THRESHOLD, gamma_below, gamma_above), 1.0 - p
    weight = q ** gamma
    node.saved = gamma, q, weight, picked, p
    return -1.0 * (np.add.reduce(weight * picked, axis=0) / len(x))


def _confidence_gap(node, x, targets):
    _check_targets(node, targets, x.shape)
    n = len(x)
    columns = np.argmax(x, axis=1)
    confidence = np.exp(x[np.arange(n), columns])
    node.saved = columns, confidence
    correct = (columns == targets).astype(np.float64)
    return np.add.reduce(confidence, axis=0) / n - np.add.reduce(correct, axis=0) / n


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


def _one_hot(node, targets):
    n_classes, on, off = node.aux
    _check_targets(node, targets, targets.shape[:1] + (n_classes,))
    out = np.full((targets.shape[0], n_classes), off)
    out[np.arange(targets.shape[0]), targets] = on
    return out


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


def _focal_vjp(adj, node, x, targets):
    gamma, q, weight, picked, p = node.saved
    adj_term = np.full(len(x), (-1.0 * adj) / len(x))
    adj_picked = adj_term * weight
    if node.aux != (0.0, 0.0):  # else (1 - p)^0 is constant; its slope is 0 * inf at p = 1
        adj_picked = adj_picked + (-(adj_term * picked * gamma * q ** (gamma - 1.0))) * p
    return _scatter_rows(adj_picked, x, targets)


def _confidence_gap_vjp(adj, node, x, targets):
    columns, confidence = node.saved
    return _scatter_rows(np.full(len(x), adj / len(x)) * confidence, x, columns)


# op kind -> (forward rule, adjoint rules for its leading inputs). An input
# without a rule (such as the targets of focal) gets no gradient. dense's input
# gradient multiplies by a C-contiguous copy of w.T: OpenBLAS runs the NT
# product with the view w.T on two threads at training batch sizes, and the
# woken worker then busy-waits for ~0.1 s (README "Determinism").
RULES = {
    "leaf": (lambda node: node.value, ()),  # bound by forward() before the sweep
    "dense": (lambda node, h, w, b: dense_layer(h, w, b, node.aux),
              (lambda adj, node, h, w, b: _dense_delta(adj, node) @ np.ascontiguousarray(w.T),
               lambda adj, node, h, w, b: h.T @ _dense_delta(adj, node),
               lambda adj, node, h, w, b: np.add.reduce(_dense_delta(adj, node), axis=0))),
    "add": (_elementwise(np.add), (lambda adj, node, a, b: adj,
                                   lambda adj, node, a, b: adj)),
    "sub": (_elementwise(np.subtract), (lambda adj, node, a, b: adj,
                                        lambda adj, node, a, b: -adj)),
    "mul": (_elementwise(np.multiply), (lambda adj, node, a, b: adj * b,
                                        lambda adj, node, a, b: adj * a)),
    "log_softmax": (lambda node, x: log_softmax(x),
                    (lambda adj, node, x: adj - np.exp(node.value)
                     * np.add.reduce(adj, axis=-1, keepdims=True),)),
    "exp": (lambda node, x: np.exp(x), (lambda adj, node, x: adj * node.value,)),
    "abs": (lambda node, x: np.abs(x), (lambda adj, node, x: adj * np.sign(x),)),
    "mean": (_mean, (lambda adj, node, x: np.full(x.shape, adj / x.shape[0]),)),
    "sum": (lambda node, x: np.asarray(np.sum(x)), (lambda adj, node, x: np.full_like(x, adj),)),
    "scale": (lambda node, x: node.aux * x, (lambda adj, node, x: node.aux * adj,)),
    "huber": (_huber, (_huber_vjp,)),
    "one_hot": (_one_hot, ()),
    "focal": (_focal, (_focal_vjp,)),
    "confidence_gap": (_confidence_gap, (_confidence_gap_vjp,)),
}


class _Plan:
    """One root's evaluation order, compiled once from the node list.

    forward: (node, rule, inputs) for every non-leaf node up to the root.
    backward: (node, inputs, ((input, vjp, first), ...)) in reverse order, for
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
        self.forward = tuple((node, RULES[node.op][0], node.inputs)
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
                backward.append((node, node.inputs, tuple(calls)))
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

    # ---- leaves -----------------------------------------------------------

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

    # ---- op builders -----------------------------------------------------

    def dense(self, h, w, b, relu):
        """One MLP layer, dense_layer(h, w, b, relu): relu(h @ w + b), or the
        affine map alone when `relu` is false."""
        return self._append(Node("dense", (h, w, b), aux=bool(relu)))

    def add(self, a, b):
        """Elementwise add of two values of one shape, as are sub and mul."""
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

    def absolute(self, a):
        return self._append(Node("abs", (a,)))

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

    def one_hot(self, targets, n_classes, on=1.0, off=0.0):
        """(n, n_classes) rows holding `on` at each target label and `off` elsewhere.

        A function of the labels alone, so it has no adjoint rule.
        """
        return self._append(Node("one_hot", (targets,),
                                 aux=(int(n_classes), float(on), float(off))))

    def focal(self, log_probs, targets, gamma_below, gamma_above):
        """-mean((1 - p)**gamma * log p) over the rows' target log-probabilities
        log p = log_probs[i, targets[i]], gamma being gamma_below where p <
        FLSD_THRESHOLD and gamma_above elsewhere, per row on every forward
        pass; both 0 give the NLL. Neither gamma nor the targets carry gradient."""
        return self._append(Node("focal", (log_probs, targets),
                                 aux=(float(gamma_below), float(gamma_above))))

    def confidence_gap(self, log_probs, targets):
        """mean(exp(row max of log_probs)) - mean(argmax == target): batch mean
        confidence minus batch accuracy, ties routed to the lowest index. Only
        the confidences carry gradient; the accuracy is piecewise constant."""
        return self._append(Node("confidence_gap", (log_probs, targets)))

    # ---- evaluation -------------------------------------------------------

    def forward(self, bindings, root=None):
        """Evaluate all nodes up to `root` (default: last built) and return its value.

        Every leaf is bound by _bind, to an integer or float array of its
        declared dtype; any other dtype raises GraphError naming the leaf.
        """
        leaves = self._leaf_names
        if bindings.keys() != leaves.keys():
            unknown = set(bindings) - set(leaves)
            if unknown:
                raise GraphError(f"unknown leaf name(s) in bindings: {sorted(unknown)}")
            missing = set(leaves) - set(bindings)
            raise GraphError(f"missing binding(s) for leaf(s): {sorted(missing)}")
        for name, node in leaves.items():
            node.value = _bind(node, bindings[name])
        root = root if root is not None else self.nodes[-1]
        for node, rule, inputs in self._plan(root).forward:
            node.value = rule(node, *[inp.value for inp in inputs])
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
        for node, inputs, calls in plan.backward:
            adj = node.adjoint
            values = [inp.value for inp in inputs]
            for inp, vjp, first in calls:
                grad = vjp(adj, node, *values)
                inp.adjoint = grad if first else inp.adjoint + grad
        for node in plan.zeros:
            node.adjoint = (np.zeros_like(node.value) if node.is_param
                            else _zero_view(node.value.shape))
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
