"""MLP init/forward/predict contracts and the checkpoint format."""

import base64
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from calprune.autodiff import Graph, log_softmax
from calprune.mlp import (FORWARD_BLOCK_ROWS, MlpParams, checkpoint_text, forward_logits,
                          init_mlp, load_checkpoint, logits_graph, param_bindings, predict,
                          row_blocks)


def test_init_shapes_and_zero_biases():
    params = init_mlp([2, 4, 3], seed=7)
    assert [w.shape for w in params.weights] == [(2, 4), (4, 3)]
    assert [b.shape for b in params.biases] == [(4,), (3,)]
    assert all(np.all(b == 0.0) for b in params.biases)
    limits = [np.sqrt(6 / 6), np.sqrt(6 / 7)]
    for w, lim in zip(params.weights, limits):
        assert np.all(np.abs(w) <= lim)


def test_init_deterministic():
    a = init_mlp([2, 4, 3], seed=7)
    b = init_mlp([2, 4, 3], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    c = init_mlp([2, 4, 3], seed=8)
    assert any(wa.tobytes() != wc.tobytes() for wa, wc in zip(a.weights, c.weights))


def test_init_rejects_bad_widths():
    with pytest.raises(ValueError):
        init_mlp([2], seed=0)
    with pytest.raises(ValueError):
        init_mlp([2, 0, 3], seed=0)


@pytest.mark.parametrize("width", [2.7, True, 0, -1])
def test_init_rejects_non_count_widths_before_casting(width):
    with pytest.raises(ValueError, match=rf"widths\[1\] must be an integer >= 1, got {json.dumps(width)}$"):
        init_mlp([2, width, 3], seed=0)


def test_zero_params_give_zero_logits():
    params = init_mlp([3, 2], seed=0)
    params.weights[0][:] = 0.0
    out = forward_logits(params, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_identity_layer_passes_logits_through():
    params = init_mlp([2, 2], seed=0)
    params.weights[0][:] = np.eye(2)
    out = forward_logits(params, np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_empty_batch_gives_empty_logits():
    params = init_mlp([2, 4, 3], seed=1)
    out = forward_logits(params, np.zeros((0, 2)))
    assert out.shape == (0, 3)


def test_dimension_mismatch_rejected():
    params = init_mlp([2, 3], seed=1)
    with pytest.raises(ValueError, match="input width"):
        forward_logits(params, np.zeros((4, 5)))


def test_predict_uniform_ties_to_class_zero():
    [label], [confidence] = predict(np.array([[0.0, 0.0, 0.0]]))
    assert label == 0
    assert confidence == pytest.approx(1 / 3, abs=1e-12)


def test_predict_analytic_confidences():
    labels, confidences = predict(np.array([[10.0, 0.0], [0.0, np.log(3.0)]]))
    assert labels.tolist() == [0, 1]
    assert confidences[0] == pytest.approx(1 / (1 + np.exp(-10.0)), abs=1e-12)
    assert confidences[1] == pytest.approx(0.75, abs=1e-12)


def test_predict_rows_sum_to_one():
    logits = np.random.default_rng(3).normal(size=(20, 5)) * 4
    np.testing.assert_allclose(np.exp(log_softmax(logits)).sum(axis=1), 1.0,
                               rtol=0, atol=1e-9)
    labels, confidences = predict(logits)
    assert np.all(confidences >= 1 / 5)
    assert confidences == pytest.approx(np.exp(log_softmax(logits)).max(axis=1),
                                        abs=1e-15)


def test_predict_shift_invariance():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(10, 4)) * 3
    shifted = logits + rng.normal(size=(10, 1)) * 5
    (labels, confidences), (labels_b, confidences_b) = predict(logits), predict(shifted)
    np.testing.assert_array_equal(labels, labels_b)
    np.testing.assert_allclose(confidences, confidences_b, rtol=0, atol=1e-9)


def reference_predict(logits):
    """predict's log_softmax form: argmax of the log-probabilities, exp at the label."""
    log_probs = log_softmax(np.asarray(logits, dtype=np.float64))
    labels = np.argmax(log_probs, axis=1)
    return labels, np.exp(log_probs[np.arange(len(labels)), labels])


def assert_predict_matches_reference(logits):
    labels, confidences = predict(logits)
    ref_labels, ref_confidences = reference_predict(logits)
    assert labels.dtype == ref_labels.dtype and confidences.dtype == ref_confidences.dtype
    assert labels.tobytes() == ref_labels.tobytes()
    assert confidences.tobytes() == ref_confidences.tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 9, 10, 16, 129, 300])
def test_predict_matches_log_softmax_form_bitwise(k):
    """Column-wise max and exp(-lse) give the bits of log_softmax, argmax and
    a gathered exp, at every scale and with exact ties of the row max."""
    rng = np.random.default_rng(k)
    n = 3000
    logits = rng.normal(size=(n, k)) * np.exp(rng.uniform(-30, 6, size=(n, 1)))
    rows = np.arange(0, n, 5)
    other = rng.integers(0, k, size=len(rows))
    logits[rows, other] = logits[rows].max(axis=1)  # the max tied in another column
    logits[1::5] = np.round(logits[1::5])            # integer logits tie often
    logits[2::5] = logits[2::5, :1]                  # every column tied
    logits[3::5] += 1e300 * rng.choice([-1.0, 1.0], size=(len(logits[3::5]), 1))
    assert_predict_matches_reference(logits)


def test_predict_near_tie_that_collapses_after_lse_keeps_first_label():
    """0 - lse and -1e-17 - lse round to the same log-probability, so the tie
    goes to the first column, as it does in the log_softmax form."""
    [label], [confidence] = predict(np.array([[0.0, 1e-17]]))
    assert label == 0
    assert confidence == 0.5
    assert_predict_matches_reference(np.array([[0.0, 1e-17], [1e-17, 0.0]]))


def test_predict_signed_zeros_and_empty_batch_bitwise():
    assert_predict_matches_reference(np.array([
        [0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, -0.0], [-1.0, -0.0, 0.0],
        [0.0, -800.0, -800.0], [-0.0, -800.0, -800.0]]))
    labels, confidences = predict(np.zeros((0, 3)))
    assert labels.shape == confidences.shape == (0,)
    assert_predict_matches_reference(np.zeros((0, 3)))


def test_predict_non_finite_rows_are_nan_where_the_reference_is():
    """Rows with inf or NaN give the same labels, and NaN confidences exactly
    where the log_softmax form has them (NaN sign bits may differ); finite
    confidences keep their bits."""
    inf, nan = np.inf, np.nan
    logits = np.array([[inf, 0.0, 1.0], [-inf, 0.0, 1.0], [-inf, -inf, -inf],
                       [inf, inf, 0.0], [inf, -inf, 0.0], [nan, 0.0, 1.0],
                       [0.0, nan, inf], [1.0, 2.0, 3.0]])
    with np.errstate(invalid="ignore"):
        labels, confidences = predict(logits)
        ref_labels, ref_confidences = reference_predict(logits)
    assert labels.tolist() == ref_labels.tolist()
    nan_rows = np.isnan(ref_confidences)
    assert np.isnan(confidences).tolist() == nan_rows.tolist()
    assert nan_rows.any() and not nan_rows.all()
    assert confidences[~nan_rows].tobytes() == ref_confidences[~nan_rows].tobytes()


def test_logits_spread_past_the_float_range_normalise_without_warning():
    """Shifting -1e308 by the row max 1e308 overflows to -inf, whose exp is
    the correct 0: log_softmax and predict give exact values and no warning."""
    logits = np.array([[1e308, -1e308], [-1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_probs = log_softmax(logits)
        labels, confidences = predict(logits)
    assert log_probs.tolist() == [[0.0, -np.inf], [-np.inf, 0.0]]
    assert labels.tolist() == [0, 1] and confidences.tolist() == [1.0, 1.0]


def test_graph_forward_matches_plain_forward_bitwise():
    params = init_mlp([3, 8, 4], seed=5)
    batch = np.random.default_rng(6).normal(size=(7, 3))
    g = Graph()
    x = g.leaf("x", param=False)
    logits_node = logits_graph(g, x, params.n_layers)
    bindings = param_bindings(params)
    bindings["x"] = batch
    graph_logits = g.forward(bindings, root=logits_node)
    assert graph_logits.tobytes() == forward_logits(params, batch).tobytes()


def test_forward_logits_matches_the_dense_graph_on_a_full_block():
    """forward_logits and a graph of dense nodes run the same layer function:
    on a block of over 8192 rows their logits agree bit for bit."""
    params = init_mlp([2, 64, 64, 4], seed=5)
    rng = np.random.default_rng(6)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    batch = rng.normal(size=(FORWARD_BLOCK_ROWS + 808, 2))
    g = Graph()
    logits_node = logits_graph(g, g.leaf("x", param=False), params.n_layers)
    assert [node.op for node in g.nodes].count("dense") == 3
    bindings = param_bindings(params)
    bindings["x"] = batch
    graph_logits = g.forward(bindings, root=logits_node)
    assert graph_logits.tobytes() == forward_logits(params, batch).tobytes()


@pytest.mark.parametrize("widths", [[5, 3], [5, 64, 3], [5, 64, 32, 3]],
                         ids=["1_layer", "2_layers", "3_layers"])
def test_forward_matches_out_of_place_reference_bitwise(widths):
    """The in-place forward gives the bits of relu(h @ w + b) layer by layer and
    leaves the caller's batch alone."""
    params = init_mlp(widths, seed=2)
    rng = np.random.default_rng(3)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    batch = rng.normal(size=(10_000, widths[0]))
    kept = batch.copy()
    h = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < params.n_layers - 1:
            h = np.maximum(h, 0.0)
    assert forward_logits(params, batch).tobytes() == h.tobytes()
    assert batch.tobytes() == kept.tobytes()


def _whole_batch_reference(params, batch):
    h = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < params.n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def _params_with_biases(widths, seed):
    params = init_mlp(widths, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    return params


@pytest.mark.parametrize("widths, n", [
    *[pytest.param([2, 64, 64, 4], n, id=f"quickstart_{n}")
      for n in (0, 1, 16383, 16384, 16385, 100_000)],
    pytest.param([784, 256, 256, 10], 20_000, id="mnist_shaped_20000"),
])
def test_blocked_forward_matches_whole_batch_bitwise(widths, n):
    """Row blocks give the bits of the whole-batch product, on either side of
    the one-block limit 2 * FORWARD_BLOCK_ROWS, and leave the batch alone."""
    params = _params_with_biases(widths, seed=4)
    batch = np.random.default_rng(n).normal(size=(n, widths[0]))
    kept = batch.copy()
    logits = forward_logits(params, batch)
    assert logits.shape == (n, widths[-1])
    assert logits.tobytes() == _whole_batch_reference(params, batch).tobytes()
    assert batch.tobytes() == kept.tobytes()


@pytest.mark.parametrize("n", [0, 1, 8191, 16383, 16384, 24575, 24576, 100_000])
def test_row_blocks_partition_rows(n):
    """Consecutive slices covering range(n), each 8192-16383 rows (one block
    below 16384 rows), the remainder joining the last."""
    blocks = list(row_blocks(n))
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert len(blocks) == max(n // FORWARD_BLOCK_ROWS, 1)
    if n >= FORWARD_BLOCK_ROWS:
        assert all(FORWARD_BLOCK_ROWS <= size < 2 * FORWARD_BLOCK_ROWS for size in sizes)
        assert sizes[:-1] == [FORWARD_BLOCK_ROWS] * (len(sizes) - 1)


def test_blocked_forward_memory_is_bounded():
    """A 100k-row forward keeps at most two blocks' activations alive, not two
    whole-set ones (2 x 51 MB at this width)."""
    params = _params_with_biases([2, 64, 64, 4], seed=4)
    batch = np.random.default_rng(0).normal(size=(100_000, 2))
    assert len(batch) > 2 * FORWARD_BLOCK_ROWS  # several blocks
    tracemalloc.start()
    try:
        forward_logits(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def _v1_doc(params):
    """A version 1 document, as the list-of-floats writer produced it."""
    return {"magic": "calprune-mlp", "version": 1, "widths": list(params.widths),
            "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                       for w, b in zip(params.weights, params.biases)]}


def _assert_loads_exactly(loaded, params):
    assert loaded.widths == params.widths
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert b.dtype == np.float64 and b.dtype.isnative
        assert b.flags.owndata and b.flags.writeable and b.flags.c_contiguous
        assert b.tobytes() == np.ascontiguousarray(a, dtype=np.float64).tobytes()


def test_checkpoint_roundtrip_exact(tmp_path):
    params = init_mlp([3, 8, 4], seed=5)
    params.biases[0] += np.random.default_rng(1).normal(size=8)
    path = tmp_path / "model.json"
    path.write_text(checkpoint_text(params))
    text = path.read_text()
    assert json.loads(text)["version"] == 2 and text.endswith("}\n")
    _assert_loads_exactly(load_checkpoint(path), params)


def test_checkpoint_v1_loads_bit_equal_to_v2(tmp_path):
    params = init_mlp([3, 8, 4], seed=5)
    params.biases[1] += np.random.default_rng(1).normal(size=4)
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.write_text(json.dumps(_v1_doc(params)))
    v2.write_text(checkpoint_text(params))
    _assert_loads_exactly(load_checkpoint(v1), params)
    _assert_loads_exactly(load_checkpoint(v2), params)


def test_checkpoint_v2_roundtrips_strided_and_big_endian_arrays(tmp_path):
    base = init_mlp([3, 8, 4], seed=5)
    params = MlpParams(base.widths,
                       [np.asfortranarray(base.weights[0]), base.weights[1].astype(">f8")],
                       [np.linspace(-1.0, 1.0, 16)[::2], base.biases[1].astype(">f8") + 0.5])
    assert not params.weights[0].flags.c_contiguous and not params.biases[0].flags.contiguous
    path = tmp_path / "model.json"
    path.write_text(checkpoint_text(params))
    _assert_loads_exactly(load_checkpoint(path), params)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"magic": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def _drop(key, layer=None):
    def mutate(doc):
        del (doc if layer is None else doc["layers"][layer])[key]
    return mutate


def _set_widths(widths):
    return lambda doc: doc.update(widths=widths)


def _put_nan(name, layer):
    """Overwrite one element of a stored array with NaN, in either layout."""
    def mutate(doc):
        entry = doc["layers"][layer][name]
        if doc["version"] == 1:
            (entry[0] if name == "weight" else entry)[0] = float("nan")
            return
        values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        values[0] = np.nan
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return mutate


# each case applies to both layouts: version 2 as written, version 1 as built by _v1_doc
MALFORMED = pytest.mark.parametrize("mutate, problem", [
    (lambda doc: doc["layers"].append(doc["layers"][-1]), "3 layers, but widths"),
    (_drop("magic"), "magic null"),
    (lambda doc: doc.update(magic="xé"), r'magic "x\\u00e9"\)'),
    (_drop("widths"), 'lacks key "widths"'),
    (_drop("layers"), 'lacks key "layers"'),
    (_drop("weight", layer=0), r'layers\[0\] lacks key "weight"'),
    (_drop("bias", layer=1), r'layers\[1\] lacks key "bias"'),
    (lambda doc: doc["layers"].__setitem__(0, [1]),
     r"layers\[0\] must be of type object, got array$"),
    (lambda doc: doc["layers"][1].update(weight="x"),
     r'layers\[1\]\.weight must be of type (object|array), got string "x"$'),
    (lambda doc: doc.update(layers={"weight": []}), '"layers" must be of type array, got object'),
    (lambda doc: doc.update(version=True), "unsupported checkpoint version true"),
    (_set_widths([2.7, 4, 2]), r"widths \[2.7, 4, 2\] is not a list of >= 2 positive"),
    (_set_widths([True, 4, 2]), r"widths \[true, 4, 2\] is not"),
    (_set_widths([3, 0, 2]), r"widths \[3, 0, 2\] is not"),
    (_set_widths([3]), r"widths \[3\] is not"),
    (_set_widths({"0": 3}), 'widths {"0": 3} is not'),
    (_set_widths([3, 5, 2]), "layer 0 shapes inconsistent with widths"),
    (_put_nan("weight", 0), "layer 0 holds a non-finite weight or bias"),
    (_put_nan("bias", 1), "layer 1 holds a non-finite weight or bias"),
], ids=["extra_layer", "no_magic", "non_ascii_magic", "no_widths", "no_layers",
        "no_weight", "no_bias", "layer_not_object", "weight_string", "layers_not_list",
        "version_bool", "fractional_width",
        "boolean_width", "zero_width", "one_width", "widths_not_list", "widths_disagree",
        "nan_weight", "nan_bias"])


def _assert_rejected(tmp_path, doc, mutate, problem):
    path = tmp_path / "model.json"
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model.json: .*({problem})"):
        load_checkpoint(path)


@MALFORMED
def test_checkpoint_malformed_documents_rejected(tmp_path, mutate, problem):
    path = tmp_path / "model.json"
    path.write_text(checkpoint_text(init_mlp([3, 4, 2], seed=0)))
    _assert_rejected(tmp_path, json.loads(path.read_text()), mutate, problem)


@MALFORMED
def test_checkpoint_v1_malformed_documents_rejected(tmp_path, mutate, problem):
    _assert_rejected(tmp_path, _v1_doc(init_mlp([3, 4, 2], seed=0)), mutate, problem)


def _set_entry(name, **fields):
    return lambda doc: doc["layers"][0][name].update(fields)


@pytest.mark.parametrize("mutate, problem", [
    # a lenient decoder would skip the stray character and load the right bytes
    (lambda doc: doc["layers"][0]["weight"].update(
        data="*" + doc["layers"][0]["weight"]["data"]),
     r"layers\[0\]\.weight: Only base64 data is allowed"),
    (_set_entry("weight", data="AAA"), r"layers\[0\]\.weight: Incorrect padding"),
    (_set_entry("weight", data="é"), r"layers\[0\]\.weight: .*ASCII"),
    (_set_entry("weight", data=5),
     r"malformed checkpoint: layers\[0\]\.weight: data must be of type string, got integer 5$"),
    (_set_entry("bias", data=base64.b64encode(bytes(8 * 3)).decode()),
     r"layers\[0\]\.bias: 24 data bytes, but shape \[4\] needs 32"),
    (_set_entry("weight", shape=[4, 3]), "layer 0 shapes inconsistent with widths"),
    (_set_entry("weight", shape=[12]), "layer 0 shapes inconsistent with widths"),
    (_set_entry("weight", shape=[3, -4]), r"shape \[3, -4\] is not a list of non-negative"),
    (_set_entry("weight", shape=[3, 4.0]), r"shape \[3, 4.0\] is not"),
    (_set_entry("weight", shape=[3, True]), r"shape \[3, true\] is not"),
    (_set_entry("weight", shape="3x4"), 'shape "3x4" is not'),
    (lambda doc: doc["layers"][0].update(weight=[[0.0] * 4] * 3),
     r"malformed checkpoint: layers\[0\]\.weight must be of type object, got array$"),
    (lambda doc: doc["layers"][0].update(weight=3),
     r"layers\[0\]\.weight must be of type object, got integer 3$"),
    (lambda doc: doc["layers"][0]["weight"].pop("shape"), r'layers\[0\]\.weight lacks key "shape"'),
    (lambda doc: doc["layers"][0]["bias"].pop("data"), r'layers\[0\]\.bias lacks key "data"'),
], ids=["bad_base64", "bad_padding", "non_ascii", "data_not_string", "short_payload",
        "transposed_shape", "flat_shape", "negative_shape", "float_shape", "boolean_shape",
        "shape_not_list", "v1_array_in_v2", "weight_integer", "no_shape", "no_data"])
def test_checkpoint_v2_corruptions_rejected(tmp_path, mutate, problem):
    doc = json.loads(checkpoint_text(init_mlp([3, 4, 2], seed=0)))
    _assert_rejected(tmp_path, doc, mutate, problem)
