"""Graph op semantics, adjoint rules, and finite-difference checks."""

import numpy as np
import pytest

from calprune.autodiff import RULES, Graph, GraphError, grad_check
from calprune.losses import AuxSpec, LossSpec, total_loss
from calprune.mlp import init_mlp, logits_graph, param_bindings


def assert_all_pass(graph, bindings, tol=1e-4, step=1e-5):
    results = grad_check(graph, bindings, step=step, tol=tol)
    assert results, "graph has no parameter leaves to check"
    for r in results:
        assert r.passed, f"leaf {r.leaf}: max rel error {r.max_rel_error:.3e}"


def test_relu_forward():
    g = Graph()
    x = g.leaf("x")
    g.relu(x)
    out = g.forward({"x": np.array([-1.0, 0.0, 2.0])})
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_log_softmax_symmetry():
    g = Graph()
    g.log_softmax(g.leaf("z"))
    out = g.forward({"z": np.array([0.0, 0.0])})
    np.testing.assert_allclose(out, [-np.log(2), -np.log(2)], atol=1e-12)


def test_matmul_forward():
    g = Graph()
    g.matmul(g.leaf("a"), g.leaf("b"))
    out = g.forward({"a": np.array([[1.0, 2.0]]), "b": np.array([[3.0], [4.0]])})
    np.testing.assert_array_equal(out, [[11.0]])


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
    # d/dz of log_softmax(z)[0] at z = [0, 0] is [p-1, p] = [-0.5, 0.5] up to sign
    g = Graph()
    z = g.leaf("z")
    lp = g.log_softmax(z)
    g.sum(g.gather_rows(lp, [0]))
    g.forward({"z": np.array([[0.0, 0.0]])})
    grads = g.backward()
    np.testing.assert_allclose(grads["z"], [[0.5, -0.5]], atol=1e-12)


def test_grad_check_square():
    g = Graph()
    x = g.leaf("x")
    g.sum(g.pow_const(x, 2.0))
    results = grad_check(g, {"x": np.array(3.0).reshape(())}, step=1e-5, tol=1e-6)
    assert results[0].passed
    g.forward({"x": np.array(3.0).reshape(())})
    assert float(g.backward()["x"]) == pytest.approx(6.0, abs=1e-9)


def test_stop_gradient_blocks_one_factor():
    # f = stop_gradient(x) * x at x=2: only the live factor contributes
    g = Graph()
    x = g.leaf("x")
    g.sum(g.mul(g.stop_gradient(x), x))
    g.forward({"x": np.array(2.0).reshape(())})
    assert float(g.backward()["x"]) == pytest.approx(2.0)


def test_stop_gradient_forward_bit_for_bit():
    g = Graph()
    x = g.leaf("x")
    sg = g.stop_gradient(x)
    value = np.array([0.1, -2.7, 3.3e-9])
    g.forward({"x": value}, root=sg)
    assert sg.value.tobytes() == x.value.tobytes()


def test_shape_mismatch_diagnostic_names_both_shapes():
    g = Graph()
    g.matmul(g.leaf("a"), g.leaf("b"))
    with pytest.raises(GraphError, match=r"\(2, 3\).*\(4, 5\)"):
        g.forward({"a": np.zeros((2, 3)), "b": np.zeros((4, 5))})


def test_unknown_and_missing_leaves_rejected():
    g = Graph()
    g.sum(g.leaf("x"))
    with pytest.raises(GraphError, match="unknown leaf"):
        g.forward({"x": np.ones(2), "bogus": np.ones(2)})
    with pytest.raises(GraphError, match="missing binding"):
        g.forward({})


def test_nonscalar_root_rejected():
    g = Graph()
    g.relu(g.leaf("x"))
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

    g = Graph()
    g.sum(g.matmul(g.leaf("a"), g.leaf("b")))
    cases["matmul"] = (g, {"a": rng.uniform(-2, 2, (3, 4)), "b": rng.uniform(-2, 2, (4, 2))})

    g = Graph()
    g.sum(g.add(g.leaf("x"), g.leaf("bias")))
    cases["add"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "bias": rng.uniform(-2, 2, 4)})

    g = Graph()
    g.sum(g.sub(g.leaf("x"), g.leaf("y")))
    cases["sub"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "y": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.mul(g.leaf("x"), g.leaf("y")))
    cases["mul"] = (g, {"x": rng.uniform(-2, 2, (3, 4)), "y": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.relu(g.leaf("x")))
    cases["relu"] = (g, {"x": _away_from(rng.uniform(-2, 2, (3, 4)), 0.0, 1e-3)})

    g = Graph()
    g.sum(g.log_softmax(g.leaf("z")))
    cases["log_softmax"] = (g, {"z": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.exp(g.leaf("x")))
    cases["exp"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.sum(g.pow_const(g.leaf("x"), 2.5))
    cases["pow_const"] = (g, {"x": rng.uniform(0.1, 2, (3, 4))})

    g = Graph()
    g.sum(g.absolute(g.leaf("x")))
    cases["abs"] = (g, {"x": _away_from(rng.uniform(-2, 2, (3, 4)), 0.0, 1e-3)})

    g = Graph()
    g.mean(g.gather_rows(g.leaf("x"), [0, 2, 1, 0]))
    cases["gather_rows"] = (g, {"x": rng.uniform(-2, 2, (4, 3))})

    g = Graph()
    g.mean(g.leaf("x"))
    cases["mean"] = (g, {"x": rng.uniform(-2, 2, 5)})

    g = Graph()
    g.sum(g.leaf("x"))
    cases["sum"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    g = Graph()
    g.scale(g.sum(g.leaf("x")), 2.5)
    cases["scale"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    # the frozen branch must not depend on the checked leaf, or the finite
    # difference would see through the stop
    g = Graph()
    g.sum(g.mul(g.stop_gradient(g.const(rng.uniform(-2, 2, (3, 4)))), g.leaf("x")))
    cases["stop_gradient"] = (g, {"x": rng.uniform(-2, 2, (3, 4))})

    for tag, center in (("huber_quad", 0.002), ("huber_linear", 0.4)):
        g = Graph()
        g.huber(g.mean(g.leaf("x")), 0.005)
        cases[tag] = (g, {"x": np.full(1, center)})

    g = Graph()
    g.mean(g.exp(g.row_max(g.leaf("z"))))
    z = rng.uniform(-2, 2, (4, 3))
    z[:, 0] += 3.0  # keep the argmax unambiguous under the FD step
    cases["row_max"] = (g, {"z": z})

    g = Graph()
    g.mean(g.correct_indicator(g.leaf("z"), [0, 1, 2, 0]))
    cases["correct_indicator"] = (g, {"z": z})

    g = Graph()
    g.sum(g.focal_power(g.leaf("x")))
    low = rng.uniform(0.05, 0.7, 4)    # p >= 0.3: exponent 3
    high = rng.uniform(0.85, 0.99, 4)  # p < 0.15: exponent 5
    cases["focal_power"] = (g, {"x": np.concatenate([low, high])})

    # the second operand broadcasts, so its adjoint is summed down to (1, 4)
    for op in ("sub", "mul"):
        g = Graph()
        g.sum(getattr(g, op)(g.leaf("x"), g.leaf("y")))
        cases[f"{op}_broadcast"] = (g, {"x": rng.uniform(-2, 2, (3, 4)),
                                        "y": rng.uniform(-2, 2, (1, 4))})

    # x**0 is constant: its gradient must be exactly zero, also at x = 0
    g = Graph()
    g.sum(g.pow_const(g.leaf("x"), 0))
    cases["pow_const_zero"] = (g, {"x": np.array([0.0, -1.5, 2.0])})

    return cases


def test_every_op_kind_passes_grad_check():
    rng = np.random.default_rng(42)
    cases = _op_cases(rng)
    covered = {node.op for g, _ in cases.values() for node in g.nodes}
    assert set(RULES) - {"leaf", "const"} <= covered, "op kind(s) without a grad-check case"
    for name, (g, bindings) in cases.items():
        results = grad_check(g, bindings, step=1e-5, tol=1e-4)
        for r in results:
            assert r.passed, f"op {name}, leaf {r.leaf}: rel error {r.max_rel_error:.3e}"
    g, bindings = cases["pow_const_zero"]
    g.forward(bindings)
    assert np.all(g.backward()["x"] == 0.0)


def test_grad_check_fails_a_nan_gradient():
    # d/dx sqrt(x) is infinite at 0, so the relative error there is NaN
    g = Graph()
    g.sum(g.pow_const(g.leaf("x"), 0.5))
    with np.errstate(divide="ignore", invalid="ignore"):
        (result,) = grad_check(g, {"x": np.array([0.0, 1.0])})
    assert np.isnan(result.max_rel_error) and not result.passed


def test_focal_power_switches_exponent():
    g = Graph()
    out = g.focal_power(g.leaf("x"))
    value = g.forward({"x": np.array([0.5, 0.9])}, root=out)
    np.testing.assert_allclose(value, [0.5 ** 3, 0.9 ** 5], rtol=1e-15)


def test_adjoint_linearity_of_sums():
    rng = np.random.default_rng(7)
    x_val = rng.uniform(-2, 2, (3, 4))

    def part_one(g, x):
        return g.sum(g.pow_const(x, 2.0))

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
    root = total_loss(g, log_probs, rng.integers(0, widths[-1], batch), spec, widths[-1])
    bindings = param_bindings(params)
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
