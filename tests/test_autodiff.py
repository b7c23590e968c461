"""Graph op semantics, adjoint rules, and finite-difference checks."""

import re

import numpy as np
import pytest

from calprune.autodiff import (FLSD_THRESHOLD, RULES, Graph, GraphError, Node, _dense_delta,
                               _scatter_rows, grad_check, log_softmax)
from calprune.losses import (AUX_LOSSES, CLASSIFICATION_LOSSES, FLSD_HIGH_CONFIDENCE_GAMMA,
                             FLSD_LOW_CONFIDENCE_GAMMA, AuxSpec, LossSpec, total_loss)
from calprune.mlp import init_mlp, logits_graph, param_bindings


def assert_all_pass(graph, bindings, tol=1e-4, step=1e-5):
    results = grad_check(graph, bindings, step=step, tol=tol)
    assert results, "graph has no parameter leaves to check"
    for r in results:
        assert r.passed, f"leaf {r.leaf}: max rel error {r.max_rel_error:.3e}"


def test_log_softmax_symmetry():
    g = Graph()
    g.log_softmax(g.leaf("z"))
    out = g.forward({"z": np.array([0.0, 0.0])})
    np.testing.assert_allclose(out, [-np.log(2), -np.log(2)], atol=1e-12)


def test_backward_sum_is_ones():
    g = Graph()
    g.sum(g.leaf("x"))
    g.forward({"x": np.array([5.0, -3.0])})
    grads = g.backward()
    np.testing.assert_array_equal(grads["x"], [1.0, 1.0])


def test_backward_mean_divides_by_n():
    g = Graph()
    g.mean(g.leaf("x"))
    g.forward({"x": np.array([5.0, -3.0])})
    grads = g.backward()
    np.testing.assert_array_equal(grads["x"], [0.5, 0.5])


def test_softmax_cross_entropy_gradient_at_symmetry():
    # d/dz of -log_softmax(z)[0] (the NLL of class 0) at z = [0, 0] is [p-1, p] = [-0.5, 0.5]
    g = Graph()
    z = g.leaf("z")
    lp = g.log_softmax(z)
    g.focal(lp, g.int_leaf("t"), 0.0, 0.0)
    g.forward({"z": np.array([[0.0, 0.0]]), "t": [0]})
    grads = g.backward()
    np.testing.assert_allclose(grads["z"], [[-0.5, 0.5]], atol=1e-12)


def test_grad_check_square():
    g = Graph()
    x = g.leaf("x")
    g.sum(g.mul(x, x))
    results = grad_check(g, {"x": np.array(3.0).reshape(())}, step=1e-5, tol=1e-6)
    assert results[0].passed
    g.forward({"x": np.array(3.0).reshape(())})
    assert float(g.backward()["x"]) == pytest.approx(6.0, abs=1e-9)


def test_dense_shape_errors_name_the_op():
    g = Graph()
    g.dense(g.leaf("h"), g.leaf("w"), g.leaf("b"), relu=True)
    with pytest.raises(GraphError, match=r"dense: shapes \(2, 3\) and \(4, 5\)"):
        g.forward({"h": np.zeros((2, 3)), "w": np.zeros((4, 5)), "b": np.zeros(5)})
    for bias in (np.zeros(4), np.zeros((1, 5)), np.zeros(())):
        with pytest.raises(GraphError, match=re.escape(f"dense: bias shape {bias.shape}")):
            g.forward({"h": np.zeros((2, 3)), "w": np.zeros((3, 5)), "b": bias})


def test_dense_forward_and_gradients_match_the_op_chain_bitwise():
    """A dense node gives the bits of the matmul, add and relu chain written in
    numpy, forward and backward, with and without relu, under a fixed root
    adjoint A that its three rules share."""
    rng = np.random.default_rng(3)
    h, w, b = rng.normal(size=(16, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
    h[::3] = 0.0  # whole rows where the pre-activation is the bias alone
    z = h @ w + b
    assert (z < 0).any() and (z > 0).any()
    adjoint = rng.normal(size=z.shape)
    for relu in (True, False):
        g = Graph()
        out = g.dense(g.leaf("h"), g.leaf("w"), g.leaf("b"), relu=relu)
        g.sum(g.mul(out, g.leaf("A", param=False)))  # out's adjoint is 1.0 * A, the bits of A
        g.forward({"h": h, "w": w, "b": b, "A": adjoint})
        assert out.value.tobytes() == (np.maximum(z, 0) if relu else z).tobytes()
        got = g.backward()
        delta = adjoint * (z > 0) if relu else adjoint
        expected = {"h": delta @ w.T, "w": h.T @ delta, "b": np.add.reduce(delta, axis=0)}
        for name in expected:
            assert got[name].tobytes() == expected[name].tobytes(), (relu, name)


def _scatter_reference(lp, columns, row_adj):
    grad = np.zeros_like(lp)
    np.add.at(grad, (np.arange(len(lp)), columns), row_adj)
    return grad


def _focal_chain(lp, t, gamma_below, gamma_above, adj):
    """The loss and its log-probability gradient through the op chain `focal`
    replaces: gather, exp, focal power, mul, mean and scale by -1, or at gamma 0
    (NLL) gather, mean and scale; the backward runs the vjps in reverse order."""
    n = len(t)
    picked = lp[np.arange(n), t]
    adj_mean = np.full(n, (-1.0 * adj) / n)
    if gamma_below == gamma_above == 0.0:
        return -1.0 * (np.add.reduce(picked, axis=0) / n), _scatter_reference(lp, t, adj_mean)
    p = np.exp(picked)
    gamma, q = np.where(p < FLSD_THRESHOLD, gamma_below, gamma_above), 1.0 - p
    weight = q ** gamma
    value = -1.0 * (np.add.reduce(weight * picked, axis=0) / n)
    adj_weight, adj_picked = adj_mean * picked, adj_mean * weight
    adj_p = -(adj_weight * gamma * q ** (gamma - 1.0))
    return value, _scatter_reference(lp, t, adj_picked + adj_p * p)


def _confidence_gap_chain(lp, t, adj):
    """The gap and its log-probability gradient through the op chain
    `confidence_gap` replaces: row max, exp and mean, minus the mean of the
    correctness indicator; only the confidences carry gradient."""
    n = len(t)
    columns = np.argmax(lp, axis=1)
    confidence = np.exp(lp[np.arange(n), columns])
    correct = (np.argmax(lp, axis=1) == t).astype(np.float64)
    value = np.subtract(np.add.reduce(confidence, axis=0) / n, np.add.reduce(correct, axis=0) / n)
    return value, _scatter_reference(lp, columns, np.full(n, adj / n) * confidence)


def test_focal_and_confidence_gap_match_the_op_chains_bitwise():
    """focal (FLSD with target probabilities below, above and at 0.2; focal at
    gamma 2; NLL with a target log-prob of exactly 0) and confidence_gap (rows
    with tied maxima) give the value and log-probability gradient bits of the
    op chains they replace, as the root and under a scale node's adjoint; the
    targets get no gradient."""
    rng = np.random.default_rng(5)
    lp = np.log(rng.dirichlet(np.ones(4), size=30))
    t = rng.integers(0, 4, 30)
    lp[np.arange(8), t[:8]] = np.log([0.05, 0.1, 0.19, 0.2, 0.21, 0.5, 0.9, 1.0])
    lp[8, t[8]] = np.nextafter(np.log(0.2), -np.inf)  # p one step below 0.2
    assert np.exp(lp[3, t[3]]) == 0.2 and np.exp(lp[8, t[8]]) == np.nextafter(0.2, 0.0)
    assert lp[7, t[7]] == 0.0
    ties = lp.copy()
    ties[::3, 1] = ties[::3, 2] = ties[::3].max(axis=1)  # the lower column wins
    cases = {
        "flsd": (lambda g, x, y: g.focal(x, y, FLSD_LOW_CONFIDENCE_GAMMA,
                                        FLSD_HIGH_CONFIDENCE_GAMMA),
                 lp, lambda adj: _focal_chain(lp, t, FLSD_LOW_CONFIDENCE_GAMMA,
                                              FLSD_HIGH_CONFIDENCE_GAMMA, adj)),
        "focal_2": (lambda g, x, y: g.focal(x, y, 2.0, 2.0),
                    lp, lambda adj: _focal_chain(lp, t, 2.0, 2.0, adj)),
        "nll": (lambda g, x, y: g.focal(x, y, 0.0, 0.0),
                lp, lambda adj: _focal_chain(lp, t, 0.0, 0.0, adj)),
        "confidence_gap": (lambda g, x, y: g.confidence_gap(x, y),
                           ties, lambda adj: _confidence_gap_chain(ties, t, adj)),
    }
    for name, (build, x_val, chain) in cases.items():
        for weight in (None, 0.37, 0.123):
            g = Graph()
            y = g.int_leaf("y")
            op = build(g, g.leaf("x"), y)
            root = op if weight is None else g.scale(op, weight)
            g.forward({"x": x_val, "y": t}, root=root)
            grad = g.backward(root=root)["x"]
            value, expected = chain(np.ones(()) if weight is None else weight * np.ones(()))
            assert np.asarray(op.value).tobytes() == np.asarray(value).tobytes(), (name, weight)
            assert np.isfinite(grad).all() and grad.tobytes() == expected.tobytes(), (name, weight)
            assert not y.adjoint.any()


@pytest.mark.parametrize("op", ["focal", "confidence_gap"])
def test_focal_and_confidence_gap_reject_bad_rows_naming_the_op(op):
    g = Graph()
    args = (0.0, 0.0) if op == "focal" else ()
    getattr(g, op)(g.leaf("x"), g.int_leaf("t"), *args)
    shapes = f"{op}: expected shape (n, K) with n >= 1 and one target per row"
    for x, t, message in ((np.zeros(3), [0, 1, 2], f"{shapes}, got shapes (3,) and (3,)"),
                          (np.zeros((3, 2)), [0, 1], f"{shapes}, got shapes (3, 2) and (2,)"),
                          (np.zeros((0, 2)), np.zeros(0), f"{shapes}, got shapes (0, 2) and (0,)"),
                          (np.zeros((2, 2)), [0, 2], f"{op}: target out of range for 2 classes"),
                          (np.zeros((2, 2)), [-1, 0], f"{op}: target out of range for 2 classes")):
        with pytest.raises(GraphError, match=re.escape(message)):
            g.forward({"x": x, "t": t})


def test_one_hot_rejects_bad_targets_naming_the_op():
    """one_hot reads its labels by the rule of focal and confidence_gap: one
    target in [0, K) per row of an (n, K) result, n >= 1."""
    g = Graph()
    g.one_hot(g.int_leaf("t"), 2)
    shapes = "one_hot: expected shape (n, K) with n >= 1 and one target per row"
    for t, message in ((np.zeros((3, 2)), f"{shapes}, got shapes (3, 2) and (3, 2)"),
                       (np.asarray(1), f"{shapes}, got shapes (2,) and ()"),
                       (np.zeros(0), f"{shapes}, got shapes (0, 2) and (0,)"),
                       ([0, 2], "one_hot: target out of range for 2 classes"),
                       ([-1, 0], "one_hot: target out of range for 2 classes")):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            g.forward({"t": t})
    assert g.forward({"t": [1, 0, 1]}).tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("kind", ["leaf", "int_leaf"])
def test_leaves_bind_only_integer_and_float_arrays(kind):
    """Both leaf kinds refuse booleans, strings, objects and complex numbers
    naming the leaf, and bind integers and whole floats to the same values."""
    g = Graph()
    v = getattr(g, kind)("v")
    for bad in (np.array([True, False]), ["1", "0"], np.array([1, 0], dtype=object),
                np.array([1 + 0j, 0j])):
        dtype = np.asarray(bad).dtype
        with pytest.raises(GraphError, match=f"^leaf 'v' got dtype {re.escape(str(dtype))}, "):
            g.forward({"v": bad})
    dtype = np.float64 if kind == "leaf" else np.int64
    for good in ([1, 0], np.array([1, 0], dtype=np.uint8), np.array([1.0, 0.0], dtype=np.float32),
                 np.array([1.0, 0.0])):
        bound = g.forward({"v": good})
        assert bound.dtype == dtype and bound.tolist() == [1, 0]
    same = np.array([1, 0], dtype=dtype)
    assert g.forward({"v": same}) is same  # an array of the leaf's dtype binds as it is


def test_int_leaf_refuses_an_integer_dtype_that_does_not_fit_int64():
    """uint64 would wrap past the int64 range (2**64 - 1 reading -1), so an int
    leaf refuses the dtype, as Dataset does; smaller unsigned dtypes bind."""
    g = Graph()
    g.int_leaf("t")
    with pytest.raises(GraphError, match="^int leaf 't' got dtype uint64, which does not cast "
                                         "safely to int64$"):
        g.forward({"t": np.array([2**64 - 1, 2**63], dtype=np.uint64)})
    assert g.forward({"t": np.array([2**32 - 1], dtype=np.uint32)}).tolist() == [2**32 - 1]


def _one_leaf_graph(op, *args):
    g = Graph()
    getattr(g, op)(g.leaf("x"), *args)
    return g


GRAPH_MISUSES = {
    "mean_of_a_scalar": (lambda: _one_leaf_graph("mean").forward({"x": 5.0}),
                         "mean needs an input with a leading axis, got a scalar"),
    "mean_of_an_empty_axis": (lambda: _one_leaf_graph("mean").forward({"x": np.zeros((0, 3))}),
                              "mean over an empty leading axis"),
    "huber_of_a_vector": (lambda: _one_leaf_graph("huber", 1.0).forward({"x": np.ones(2)}),
                          "huber expects a scalar, got shape (2,)"),
    "foreign_root": (lambda: _one_leaf_graph("exp").forward({"x": np.ones(2)},
                                                            root=Graph().leaf("z")),
                     "Node(leaf 'z') is not a node of this graph"),
    "duplicate_leaf": (lambda: _one_leaf_graph("exp").leaf("x"), "duplicate leaf name 'x'"),
    "backward_before_forward": (lambda: _one_leaf_graph("sum").backward(),
                                "backward() before forward()"),
    "grad_check_step_0": (lambda: grad_check(_one_leaf_graph("sum"), {"x": np.ones(2)}, step=0),
                          "grad_check step must be > 0, got 0"),
}


@pytest.mark.parametrize("misuse", GRAPH_MISUSES)
def test_graph_misuse_raises_a_graph_error_naming_it(misuse):
    call, message = GRAPH_MISUSES[misuse]
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()


def test_int_leaf_rejects_fractional_and_non_finite_labels():
    g = Graph()
    x, t = g.leaf("x"), g.int_leaf("labels")
    g.focal(x, t, 0.0, 0.0)  # -mean(x[i, labels[i]])
    x_val = -np.arange(6.0).reshape(3, 2)
    for bad in ([0.0, 1.7, 1.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [0.0, 1e30, 1.0]):
        with pytest.raises(GraphError, match="int leaf 'labels'.*not a whole number"):
            g.forward({"x": x_val, "labels": np.array(bad)})
    whole = g.forward({"x": x_val, "labels": np.array([0.0, 1.0, 1.0])})
    assert whole == g.forward({"x": x_val, "labels": [0, 1, 1]}) == (0.0 + 3.0 + 5.0) / 3
    labels = np.array([1, 0, 1], dtype=np.int64)
    g.forward({"x": x_val, "labels": labels})
    assert t.value is labels  # an int64 array is bound as it is


def test_unknown_and_missing_leaves_rejected():
    g = Graph()
    g.sum(g.leaf("x"))
    with pytest.raises(GraphError, match="unknown leaf"):
        g.forward({"x": np.ones(2), "bogus": np.ones(2)})
    with pytest.raises(GraphError, match="missing binding"):
        g.forward({})


def test_nonscalar_root_rejected():
    g = Graph()
    g.exp(g.leaf("x"))
    g.forward({"x": np.ones(3)})
    with pytest.raises(GraphError, match="scalar"):
        g.backward()


def _away_from(x, point, margin):
    x = x.copy()
    close = np.abs(x - point) < margin
    x[close] = point + margin * np.where(x[close] >= point, 1.0, -1.0) * 2
    return x


def _op_cases(rng):
    """One scalar-rooted graph per op kind, inputs kept away from kinks."""
    cases = {}

    # every rule of a layer: the input, the weight and the bias, relu kept off its kink
    for tag, relu in (("dense_relu", True), ("dense_affine", False)):
        h, w, b = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, 2)
        assert np.abs(h @ w + b).min() > 1e-2
        g = Graph()
        g.sum(g.dense(g.leaf("h"), g.leaf("w"), g.leaf("b"), relu=relu))
        cases[tag] = (g, {"h": h, "w": w, "b": b})

    g = Graph()
    g.sum(g.add(g.leaf("x"), g.leaf("y")))
    cases["add"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "y": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.sub(g.leaf("x"), g.leaf("y")))
    cases["sub"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "y": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.mul(g.leaf("x"), g.leaf("y")))
    cases["mul"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "y": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.log_softmax(g.leaf("z")))
    cases["log_softmax"] = (g, {"z": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.exp(g.leaf("x")))
    cases["exp"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.absolute(g.leaf("x")))
    cases["abs"] = (g, {"x": _away_from(rng.uniform(-2, 2, (3, 4)), 0.0, 1e-3)})

    g = Graph()
    g.mean(g.leaf("x"))
    cases["mean"] = (g, {"x": rng.uniform(-2, 2, 5)})

    g = Graph()
    g.sum(g.leaf("x"))
    cases["sum"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.scale(g.sum(g.leaf("x")), 2.5)
    cases["scale"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    for tag, center in (("huber_quad", 0.002), ("huber_linear", 0.4)):
        g = Graph()
        g.huber(g.mean(g.leaf("x")), 0.005)
        cases[tag] = (g, {"x": np.full(1, center)})

    # the focal loss of a log-probability leaf: FLSD's exponents, with every
    # target probability kept away from the 0.2 where the exponent switches, and NLL
    lp = np.log(rng.uniform(0.01, 0.95, (8, 3)))
    t = rng.integers(0, 3, 8)
    lp[np.arange(8), t] = np.log(np.concatenate([rng.uniform(0.3, 0.95, 4),
                                                 rng.uniform(0.01, 0.15, 4)]))
    for tag, gammas in (("focal_flsd", (FLSD_LOW_CONFIDENCE_GAMMA, FLSD_HIGH_CONFIDENCE_GAMMA)),
                        ("focal_nll", (0.0, 0.0))):
        g = Graph()
        g.focal(g.leaf("lp"), g.int_leaf("t"), *gammas)
        cases[tag] = (g, {"lp": lp, "t": t})

    g = Graph()
    g.confidence_gap(g.leaf("z"), g.int_leaf("t"))
    z = rng.uniform(-2, 2, (4, 3))
    z[:, 0] += 3.0  # keep the argmax unambiguous under the FD step
    cases["confidence_gap"] = (g, {"z": z, "t": [0, 1, 2, 0]})

    # one-hot rows are a function of the labels alone
    g = Graph()
    g.sum(g.mean(g.mul(g.one_hot(g.int_leaf("t"), 3, on=0.8, off=0.1), g.leaf("x"))))
    cases["one_hot"] = (g, {"x": rng.uniform(-2, 2, (4, 3)), "t": [2, 0, 1, 2]})

    # scalar operands, as the loss adds its terms; the op itself is the root
    for op in ("add", "sub", "mul"):
        g = Graph()
        getattr(g, op)(g.leaf("x"), g.leaf("y"))
        cases[f"{op}_scalar"] = (g, {"x": rng.uniform(-2, 2, ()), "y": rng.uniform(-2, 2, ())})

    return cases


def test_every_op_kind_passes_grad_check():
    rng = np.random.default_rng(42)
    cases = _op_cases(rng)
    covered = {node.op for g, _ in cases.values() for node in g.nodes}
    assert set(RULES) - {"leaf"} <= covered, "op kind(s) without a grad-check case"
    for name, (g, bindings) in cases.items():
        results = grad_check(g, bindings, step=1e-5, tol=1e-4)
        for r in results:
            assert r.passed, f"op {name}, leaf {r.leaf}: rel error {r.max_rel_error:.3e}"


def test_rules_hold_exactly_the_op_kinds_calprune_builds():
    """Every RULES entry is built by the trainer's graph under some loss: the
    MLP, its log-softmax and each classification loss, alone and with each
    aux term. An op that nothing builds does not belong in the table."""
    built = set()
    for kind in CLASSIFICATION_LOSSES:
        for aux in (None, *AUX_LOSSES):
            g = Graph()
            log_probs = g.log_softmax(logits_graph(g, g.leaf("x", param=False), 2))
            spec = LossSpec(kind=kind, aux=aux and AuxSpec(kind=aux))
            total_loss(g, log_probs, g.int_leaf("y"), spec, 3)
            built |= {node.op for node in g.nodes}
    assert set(RULES) == built


def test_grad_check_fails_a_nan_gradient():
    # d/dp sqrt(1 - p) is infinite at p = 1, i.e. at a target log-prob of 0, so
    # the relative error there is NaN
    g = Graph()
    g.focal(g.leaf("lp"), g.int_leaf("t"), 0.5, 0.5)
    lp = np.log([[1.0, 1e-300], [0.5, 0.5]])
    with np.errstate(divide="ignore", invalid="ignore"):
        (result,) = grad_check(g, {"lp": lp, "t": [0, 0]})
    assert np.isnan(result.max_rel_error) and not result.passed


def test_focal_power_switches_exponent():
    """The exponents and weights the focal node saved: 3 at p = 0.5, 5 at p = 0.1."""
    g = Graph()
    out = g.focal(g.leaf("lp"), g.int_leaf("t"), FLSD_LOW_CONFIDENCE_GAMMA,
                  FLSD_HIGH_CONFIDENCE_GAMMA)
    g.forward({"lp": np.log([[0.5, 0.5], [0.1, 0.9]]), "t": [0, 0]}, root=out)
    gamma, _, weight, _, _ = out.saved
    assert gamma.tolist() == [3.0, 5.0]
    np.testing.assert_allclose(weight, [0.5 ** 3, 0.9 ** 5], rtol=1e-15)


def test_adjoint_linearity_of_sums():
    rng = np.random.default_rng(7)
    x_val = rng.uniform(-2, 2, (3, 4))

    def part_one(g, x):
        return g.sum(g.mul(x, x))

    def part_two(g, x):
        return g.mean(g.exp(g.mean(x)))

    combined = Graph()
    x = combined.leaf("x")
    combined.add(part_one(combined, x), part_two(combined, x))
    combined.forward({"x": x_val})
    joint = combined.backward()["x"]

    separate = np.zeros_like(x_val)
    for build in (part_one, part_two):
        g = Graph()
        build(g, g.leaf("x"))
        g.forward({"x": x_val})
        separate += g.backward()["x"]
    np.testing.assert_allclose(joint, separate, atol=1e-12)


def test_root_one_after_backward():
    g = Graph()
    root = g.mean(g.leaf("x"))
    g.forward({"x": np.ones(4)})
    g.backward()
    assert float(root.adjoint) == 1.0
    for node in g.nodes:
        assert node.adjoint.shape == node.value.shape


def test_gradient_skips_the_input_batch():
    params = init_mlp([3, 5, 4], seed=0)
    g = Graph()
    x = g.leaf("x", param=False)
    g.sum(g.log_softmax(logits_graph(g, x, params.n_layers)))
    bindings = param_bindings(params)
    bindings["x"] = np.random.default_rng(1).normal(size=(6, 3))
    g.forward(bindings)
    grads = g.backward()
    assert x.adjoint.shape == (6, 3) and not x.adjoint.any()
    assert sorted(grads) == ["b0", "b1", "w0", "w1"]
    for name, grad in grads.items():
        assert grad.any(), f"{name} got an all-zero gradient"


def test_shared_first_contribution_is_never_added_into():
    """add() hands its own adjoint array to both inputs; q's later contribution
    from exp(q) must not leak into p's gradient through that shared array."""
    g = Graph()
    p, q = g.leaf("p"), g.leaf("q")
    e = g.exp(q)
    g.sum(g.add(g.add(p, q), e))
    q_val = np.array([0.5, -1.0, 2.0])
    g.forward({"p": np.zeros(3), "q": q_val})
    grads = g.backward()
    np.testing.assert_array_equal(grads["p"], np.ones(3))
    np.testing.assert_array_equal(grads["q"], 1.0 + np.exp(q_val))


def _reference_backward(graph, root):
    """Zero-fill every adjoint, then add each vjp contribution in place."""
    active = graph.nodes[: graph.nodes.index(root) + 1]
    adjoints = {id(node): np.zeros_like(node.value) for node in active}
    adjoints[id(root)] = np.ones_like(root.value)
    for node in reversed(active):
        if node.on_path and node.inputs:
            values = [inp.value for inp in node.inputs]
            for inp, vjp in zip(node.inputs, RULES[node.op][1]):
                if inp.on_path:
                    adjoints[id(inp)] += vjp(adjoints[id(node)], node, *values)
    return {node.name: adjoints[id(node)] for node in active if node.is_param}


@pytest.mark.parametrize("widths, spec, batch", [
    ([2, 64, 64, 4], LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=10.0)),
     128),
    ([784, 256, 256, 10], LossSpec(kind="nll"), 64),
], ids=["quickstart_flsd_huber", "mnist_shaped_nll"])
def test_backward_matches_zero_fill_reference(widths, spec, batch):
    """First-contribution adjoints give the same gradients as zero-fill plus +=."""
    params = init_mlp(widths, seed=1)
    rng = np.random.default_rng(0)
    g = Graph()
    x = g.leaf("x", param=False)
    log_probs = g.log_softmax(logits_graph(g, x, params.n_layers))
    root = total_loss(g, log_probs, g.int_leaf("y"), spec, widths[-1])
    bindings = param_bindings(params)
    bindings["y"] = rng.integers(0, widths[-1], batch)
    bindings["x"] = rng.normal(size=(batch, widths[0]))
    g.forward(bindings, root=root)
    grads = g.backward(root=root)
    reference = _reference_backward(g, root)
    assert sorted(grads) == sorted(reference)
    for name in reference:
        assert np.array_equal(grads[name], reference[name]), name
    for node in g.nodes:
        assert node.adjoint.shape == node.value.shape
    assert not x.adjoint.any() and not x.adjoint.flags.writeable


def test_zero_adjoint_under_one_root_after_a_real_one_under_another():
    """backward() gives a node that gets no contribution a read-only zero
    adjoint of its value's shape; a real adjoint from another root is replaced."""
    g = Graph()
    p, q = g.leaf("p"), g.leaf("q", param=False)
    e = g.exp(g.mul(p, q))
    through_e = g.sum(e)
    past_e = g.sum(g.mul(p, p))
    bindings = {"p": np.array([0.5, -1.0]), "q": np.array([2.0, 3.0])}
    g.forward(bindings, root=through_e)
    g.backward(root=through_e)
    assert e.adjoint.all()
    g.forward(bindings, root=past_e)
    g.backward(root=past_e)
    assert e.adjoint.shape == (2,) and not e.adjoint.any() and not e.adjoint.flags.writeable
    g.backward(root=past_e)
    assert q.adjoint.shape == e.adjoint.shape == (2,)
    assert not q.adjoint.any() and not e.adjoint.any() and not q.adjoint.flags.writeable
    g.forward({"p": np.ones(3), "q": np.ones(3)}, root=past_e)
    g.backward(root=past_e)
    assert q.adjoint.shape == e.adjoint.shape == (3,)
    assert not q.adjoint.any() and not e.adjoint.any()
    g.forward(bindings, root=through_e)
    g.backward(root=through_e)
    np.testing.assert_array_equal(e.adjoint, [1.0, 1.0])


def test_appending_after_forward_discards_the_cached_plan():
    g = Graph()
    x = g.leaf("x")
    first = g.sum(x)
    x_val = np.array([1.0, 2.0])
    assert g.forward({"x": x_val}) == 3.0
    g.backward()
    square = g.mul(x, x)
    second = g.sum(square)
    assert g.forward({"x": x_val}) == 5.0  # the default root is now `second`
    np.testing.assert_array_equal(g.backward()["x"], [2.0, 4.0])
    np.testing.assert_array_equal(square.adjoint, [1.0, 1.0])
    assert float(second.adjoint) == 1.0
    assert g.forward({"x": x_val}, root=first) == 3.0
    np.testing.assert_array_equal(g.backward(root=first)["x"], [1.0, 1.0])


def test_grad_check_on_a_reused_graph_matches_a_fresh_one():
    """Each case graph first runs at other bindings, so its plans are cached
    and its node values stale when grad_check starts."""
    reused = _op_cases(np.random.default_rng(42))
    fresh = _op_cases(np.random.default_rng(42))
    other = _op_cases(np.random.default_rng(43))
    for name, (g, bindings) in reused.items():
        g.forward(other[name][1])
        g.backward()
        results = grad_check(g, bindings, step=1e-5, tol=1e-4)
        for r in results:
            assert r.passed, f"op {name}, leaf {r.leaf}: rel error {r.max_rel_error:.3e}"
        assert results == grad_check(*fresh[name], step=1e-5, tol=1e-4), name


def test_int_leaf_keeps_its_dtype_and_inputs_must_be_nodes():
    g = Graph()
    x, t = g.leaf("x"), g.int_leaf("t")
    g.focal(x, t, 0.0, 0.0)
    g.forward({"x": np.zeros((2, 3), dtype=np.float32), "t": [2, 0]})
    assert x.value.dtype == np.float64 and t.value.dtype == np.int64
    assert not t.is_param
    g.backward()
    assert t.adjoint.shape == (2,) and not t.adjoint.any()
    with pytest.raises(GraphError, match="focal: target out of range"):
        g.forward({"x": np.zeros((2, 3)), "t": [3, 0]})
    with pytest.raises(GraphError, match="graph nodes, got list"):
        g.focal(x, [0, 1], 0.0, 0.0)


def _fast_path_inputs():
    """(x, adj) pairs: a full batch, a short last batch and a single row.

    x holds rows with tied maxima, all-equal rows and signed zeros; adj holds
    -0.0 and +0.0 entries next to ordinary values."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(128, 4)) * 3.0
    x[::7, 2] = x[::7, 0] = x[::7].max(axis=1)  # two columns tie for the max
    x[3::11] = 0.0
    x[5::13, 1] = -0.0
    adj = rng.normal(size=x.shape)
    adj[::3] = -0.0
    adj[1::5, 2] = 0.0
    return [(x, adj), (x[:19], adj[:19]), (x[:1], adj[:1])]


@pytest.mark.parametrize("case", range(3), ids=["batch", "short_batch", "one_row"])
def test_log_softmax_fast_paths_match_wrapper_forms_bitwise(case):
    x, adj = _fast_path_inputs()[case]
    shifted = x - np.max(x, axis=-1, keepdims=True)
    wrapper = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    assert log_softmax(x).tobytes() == wrapper.tobytes()
    node = Node("log_softmax")
    node.value = wrapper
    [vjp] = RULES["log_softmax"][1]
    expected = adj - np.exp(wrapper) * np.sum(adj, axis=-1, keepdims=True)
    assert vjp(adj, node, x).tobytes() == expected.tobytes()


def test_log_softmax_sums_its_exps_left_to_right():
    """log_softmax's bits are those of the row max, then the exps added left
    to right along each row, at every K; under 8 terms numpy's row reduction
    is that same fold, so there the bits are also np.add.reduce's, and above
    they stay within 1e-14 of it. This holds where the row max is a zero of
    either sign tied across columns, and for 1-d, 3-d and empty inputs."""
    rng = np.random.default_rng(11)
    for k in (1, 2, 4, 7, 8, 9, 10, 130):
        x = rng.normal(size=(300, k)) * 5.0
        x[::5] = 0.0
        x[1::5, : (k + 1) // 2] = -0.0
        x[1::5, (k + 1) // 2:] = np.where(rng.random((60, k - (k + 1) // 2)) < 0.5, 0.0, -3.0)
        x[2::5, :] = -0.0
        x[3::5, 0] = x[3::5].max(axis=1)
        for rows in (x, x[:1], x[:0], x[1], x.reshape(2, 150, k)):
            shifted = rows - np.maximum.reduce(rows, axis=-1, keepdims=True)
            exps = np.exp(shifted)
            total = exps[..., 0].copy()
            for j in range(1, k):
                total = total + exps[..., j]
            left_fold = shifted - np.log(total)[..., None]
            row_form = shifted - np.log(np.add.reduce(exps, axis=-1, keepdims=True))
            got = log_softmax(rows)
            assert got.flags.c_contiguous and got.tobytes() == left_fold.tobytes(), k
            if k < 8:
                assert got.tobytes() == row_form.tobytes(), k
            else:
                np.testing.assert_allclose(got, row_form, rtol=0, atol=1e-14)


@pytest.mark.parametrize("case", range(3), ids=["batch", "short_batch", "one_row"])
def test_scatter_rows_matches_add_at_bitwise(case):
    x, adj = _fast_path_inputs()[case]
    columns = np.argmax(x, axis=1)  # ties route to the lowest index
    for row_adj in (adj[:, 0], adj[:, 1], np.float64(-0.0)):
        expected = np.zeros_like(x)
        np.add.at(expected, (np.arange(x.shape[0]), columns), row_adj)
        assert _scatter_rows(row_adj, x, columns).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", range(3), ids=["batch", "short_batch", "one_row"])
def test_relu_and_bias_fast_paths_match_bitwise(case):
    x, adj = _fast_path_inputs()[case]
    node = Node("dense", aux=True)
    node.value = np.maximum(x, 0.0)
    assert _dense_delta(adj, node).tobytes() == (adj * (x > 0)).tobytes()
    bias_vjp = RULES["dense"][1][2]
    affine = Node("dense", aux=False)
    assert bias_vjp(adj, affine, x, None, None).tobytes() == adj.sum(axis=0).tobytes()


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_elementwise_ops_reject_operands_of_different_shapes(op):
    """add, sub and mul take two values of one shape; a shape that would
    broadcast is an error naming the op."""
    for a, b in ((np.zeros((3, 4)), np.zeros(4)), (np.zeros((3, 4)), np.zeros((1, 4))),
                 (np.zeros(()), np.zeros(1))):
        g = Graph()
        getattr(g, op)(g.leaf("a"), g.leaf("b"))
        with pytest.raises(GraphError, match=rf"^{op}: shapes {re.escape(str(a.shape))} "
                                             rf"and {re.escape(str(b.shape))} differ$"):
            g.forward({"a": a, "b": b})
