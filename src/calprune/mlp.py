"""Multi-layer perceptron classifier over float64 numpy arrays.

Parameters are Glorot-uniform initialised from a seeded PCG64 generator;
the forward pass is an affine+relu stack with a final affine layer producing
logits. Checkpoints are versioned JSON.
"""

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, log_softmax

CHECKPOINT_MAGIC = "calprune-mlp"
CHECKPOINT_VERSION = 1


@dataclass
class MlpParams:
    widths: list
    weights: list
    biases: list

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def n_classes(self):
        return self.widths[-1]


def init_mlp(widths, seed):
    """Glorot-uniform weights, zero biases, drawn layer by layer from PCG64(seed)."""
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise ValueError(f"widths must hold >= 2 positive layer sizes, got {widths}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(widths, weights, biases)


def forward_logits(params, batch):
    """Plain numpy forward pass; batch is (n, input_dim), result is (n, K).

    Each layer allocates only its product; bias and relu are applied in place.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.widths[0]:
        raise ValueError(
            f"batch shape {batch.shape} does not match input width {params.widths[0]}")
    h = batch
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w  # a new array, so the bias and relu below never touch `batch`
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def predict(logits):
    """Per-row argmax labels (ties -> lowest index) and max-prob confidences, as arrays."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"logits must be (n, K) with K >= 2, got shape {logits.shape}")
    log_probs = log_softmax(logits)
    labels = np.argmax(log_probs, axis=1)
    confidences = np.exp(log_probs[np.arange(len(labels)), labels])
    return labels, confidences


def logits_graph(graph: Graph, x_node, n_layers):
    """Build the MLP forward pass as graph nodes over leaves w0,b0,...,w{L-1},b{L-1}."""
    h = x_node
    for i in range(n_layers):
        w = graph.leaf(f"w{i}")
        b = graph.leaf(f"b{i}")
        h = graph.add(graph.matmul(h, w), b)
        if i < n_layers - 1:
            h = graph.relu(h)
    return h


def param_bindings(params):
    """Leaf-name -> array bindings matching logits_graph's naming."""
    out = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"w{i}"] = w
        out[f"b{i}"] = b
    return out


def params_from_bindings(widths, bindings):
    n_layers = len(widths) - 1
    weights = [bindings[f"w{i}"] for i in range(n_layers)]
    biases = [bindings[f"b{i}"] for i in range(n_layers)]
    return MlpParams(list(widths), weights, biases)


def checkpoint_text(params):
    """Versioned JSON checkpoint text (row-major weight dumps, exact float64)."""
    doc = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "widths": list(params.widths),
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_checkpoint(params, path):
    with open(path, "w") as fh:
        fh.write(checkpoint_text(params))


def load_checkpoint(path):
    """Read a checkpoint; any malformed document raises ValueError naming `path`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    magic = doc.get("magic") if isinstance(doc, dict) else None
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (magic {magic!r})")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        widths = [int(w) for w in doc["widths"]]
        layers = doc["layers"]
        if not isinstance(layers, list):
            raise TypeError(f"'layers' is a {type(layers).__name__}, not a list")
        weights = [np.asarray(layer["weight"], dtype=np.float64) for layer in layers]
        biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in layers]
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    if len(layers) != len(widths) - 1:
        raise ValueError(f"{path}: {len(layers)} layers, but widths {widths} "
                         f"need {len(widths) - 1}")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
            raise ValueError(f"{path}: layer {i} shapes inconsistent with widths {widths}")
    return MlpParams(widths, weights, biases)
