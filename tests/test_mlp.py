"""MLP init/forward/predict contracts and the checkpoint format."""

import json

import numpy as np
import pytest

from calprune.autodiff import Graph, log_softmax
from calprune.mlp import (forward_logits, init_mlp, load_checkpoint,
                          logits_graph, param_bindings, predict, save_checkpoint)


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


def test_checkpoint_roundtrip_exact(tmp_path):
    params = init_mlp([3, 8, 4], seed=5)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.widths == params.widths
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"magic": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def _drop(key, layer=None):
    def mutate(doc):
        del (doc if layer is None else doc["layers"][layer])[key]
    return mutate


@pytest.mark.parametrize("mutate, problem", [
    (lambda doc: doc["layers"].append(doc["layers"][-1]), "3 layers, but widths"),
    (_drop("magic"), "magic None"),
    (_drop("widths"), "lacks key 'widths'"),
    (_drop("layers"), "lacks key 'layers'"),
    (_drop("weight", layer=0), "lacks key 'weight'"),
    (_drop("bias", layer=1), "lacks key 'bias'"),
    (lambda doc: doc.update(layers={"weight": []}), "'layers' is a dict, not a list"),
], ids=["extra_layer", "no_magic", "no_widths", "no_layers", "no_weight", "no_bias",
        "layers_not_list"])
def test_checkpoint_malformed_documents_rejected(tmp_path, mutate, problem):
    path = tmp_path / "model.json"
    save_checkpoint(init_mlp([3, 4, 2], seed=0), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model.json: .*{problem}"):
        load_checkpoint(path)
