"""Multi-layer perceptron classifier over float64 numpy arrays.

Parameters are Glorot-uniform initialised from a seeded PCG64 generator;
the forward pass is an affine+relu stack with a final affine layer producing
logits, each layer autodiff.dense_layer, which the training graph's dense
nodes run too. Checkpoints are versioned JSON; version 2, the only one read,
stores each array as base64 of its little-endian float64 bytes.
"""

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, _log_softmax_columns, dense_layer
from .data import read_json
from .ranges import COUNT, NON_NEGATIVE_INT, _json, kind_of, require, require_kind

CHECKPOINT_MAGIC = "calprune-mlp"
CHECKPOINT_VERSION = 2


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
    for i, width in enumerate(widths):
        require(COUNT, width, f"widths[{i}]")
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise ValueError(f"widths must hold >= 2 positive layer sizes, got {widths}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(widths, weights, biases)


# the smallest row block forward_logits runs; see its docstring
FORWARD_BLOCK_ROWS = 8192


def row_blocks(n):
    """The row slices forward_logits runs, in order, covering range(n).

    Each holds FORWARD_BLOCK_ROWS rows, the remainder joining the last, so
    every block has 8192 to 16383 rows; n under 16384 (0 included) is one block.
    """
    n_blocks = max(n // FORWARD_BLOCK_ROWS, 1)
    for k in range(n_blocks):
        start = k * FORWARD_BLOCK_ROWS
        yield slice(start, n if k == n_blocks - 1 else start + FORWARD_BLOCK_ROWS)


def forward_logits(params, batch):
    """Plain numpy forward pass; batch is (n, input_dim), result is (n, K).

    The rows run in the blocks of row_blocks(n), so a batch under 16384 rows
    is one block. At most two blocks' hidden activations are alive at once,
    whatever n is; the logits go into one preallocated (n, K) array.
    Blocks are never smaller than 8192 rows because below ~1e6 multiply-adds
    per product OpenBLAS switches to a small-matrix kernel that rounds
    differently; at this floor the logits match the whole-batch product
    bitwise for the shapes tested (`[2, 64, 64, 4]`, `[784, 256, 256, 10]`).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.widths[0]:
        raise ValueError(
            f"batch shape {batch.shape} does not match input width {params.widths[0]}")
    logits = np.empty((batch.shape[0], params.n_classes))
    last = params.n_layers - 1
    for rows in row_blocks(batch.shape[0]):
        h = batch[rows]
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = dense_layer(h, w, b, relu=i < last)
        logits[rows] = h
    return logits


def predict(logits):
    """Per-row argmax labels (ties -> lowest index) and max-prob confidences, as arrays.

    The bits of argmax and exp of log_softmax(logits) at the label: its kernel
    normalises a contiguous copy of the K columns, and a scan keeps the first
    column reaching each row's largest log-probability. A row with any NaN
    log-probability has only NaN ones, so the strict `>` keeps its label at 0,
    as argmax does."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"logits must be (n, K) with K >= 2, got shape {logits.shape}")
    log_probs = _log_softmax_columns(np.array(logits.T, order="C"))
    labels = np.zeros(log_probs.shape[1], dtype=np.intp)
    best = log_probs[0]
    for j in range(1, len(log_probs)):
        np.putmask(labels, log_probs[j] > best, j)
        np.maximum(best, log_probs[j], out=best)
    return labels, np.exp(best)


def logits_graph(graph: Graph, x_node, n_layers):
    """Build the MLP forward pass as graph nodes over leaves w0,b0,...,w{L-1},b{L-1}:
    one dense node per layer, the last without relu, as in forward_logits."""
    h = x_node
    for i in range(n_layers):
        w = graph.leaf(f"w{i}")
        b = graph.leaf(f"b{i}")
        h = graph.dense(h, w, b, relu=i < n_layers - 1)
    return h


def param_bindings(params):
    """Leaf-name -> array bindings matching logits_graph's naming."""
    out = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"w{i}"] = w
        out[f"b{i}"] = b
    return out


def _encode_array(a):
    """`{"shape", "data"}`: the C-order little-endian float64 bytes, base64."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(entry, want):
    """Inverse of _encode_array, as an owned, writable, native float64 array of
    shape `want`; any other stored shape is refused before numpy builds it."""
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(map(NON_NEGATIVE_INT.test, shape)):
        raise ValueError(f"shape {_json(shape)} is not a list of non-negative integers")
    require_kind("string", entry["data"], "data")
    raw = base64.b64decode(entry["data"], validate=True)
    n_bytes = 8 * math.prod(shape)
    if len(raw) != n_bytes:
        raise ValueError(f"{len(raw)} data bytes, but shape {shape} needs {n_bytes}")
    if tuple(shape) != want:
        raise ValueError(f"shape {shape}, but the widths give {list(want)}")
    return np.frombuffer(raw, dtype="<f8").reshape(want).astype(np.float64)


def _decode_layers(layers, widths):
    """The weights and biases of a checkpoint's `layers`, each array read by
    _decode_array in the shape `widths` give it. An error names the path of
    the layer or array it is about, e.g. `layers[1].bias`."""
    arrays = {"weight": [], "bias": []}
    for i, layer in enumerate(layers):
        require_kind("object", layer, f"layers[{i}]")
        shapes = {"weight": (widths[i], widths[i + 1]), "bias": (widths[i + 1],)}
        for name, decoded in arrays.items():
            where = f"layers[{i}].{name}"
            if name not in layer:
                raise ValueError(f"layers[{i}] lacks key {_json(name)}")
            require_kind("object", layer[name], where)
            try:
                decoded.append(_decode_array(layer[name], shapes[name]))
            except KeyError as exc:
                raise ValueError(f"{where} lacks key {_json(exc.args[0])}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from None
    return arrays["weight"], arrays["bias"]


def checkpoint_text(params):
    """Versioned JSON checkpoint text; each array is stored by _encode_array."""
    doc = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "widths": list(params.widths),
        "layers": [
            {"weight": _encode_array(w), "bias": _encode_array(b)}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_checkpoint(path):
    """Read a checkpoint of version CHECKPOINT_VERSION, the one checkpoint_text writes.

    Any malformed document raises ValueError naming `path`.
    """
    doc = read_json(path)
    magic = doc.get("magic") if isinstance(doc, dict) else None
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (magic {_json(magic)})")
    version = doc.get("version")
    if kind_of(version) != "integer" or version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {_json(version)}")
    try:
        widths = doc["widths"]
        if not (isinstance(widths, list) and len(widths) >= 2
                and all(map(COUNT.test, widths))):
            raise ValueError(f"widths {_json(widths)} is not a list of >= 2 positive integers")
        layers = doc["layers"]
        require_kind("array", layers, '"layers"')
        if len(layers) != len(widths) - 1:
            raise ValueError(f'"layers" holds {len(layers)} layers, but widths {widths} '
                             f"need {len(widths) - 1}")
        weights, biases = _decode_layers(layers, widths)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks key {_json(exc.args[0])}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    for i, (w, b) in enumerate(zip(weights, biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {i} holds a non-finite weight or bias")
    return MlpParams(widths, weights, biases)
