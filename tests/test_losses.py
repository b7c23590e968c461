"""Loss values against hand-derived oracles, reductions, and gradient checks."""

import numpy as np
import pytest

from calprune.autodiff import Graph, grad_check
from calprune.losses import (AuxSpec, LossSpec, aux_huber_loss, brier_loss, dca_aux_loss,
                             flsd_loss, focal_loss, label_smoothing_loss, mdca_aux_loss,
                             nll_loss, total_loss)
from calprune.mlp import init_mlp, logits_graph, param_bindings
from calprune.trainer import TrainConfig


def eval_loss(build, log_probs, targets, **kwargs):
    g = Graph()
    lp = g.leaf("lp")
    node = build(g, lp, g.int_leaf("y"), **kwargs)
    return float(g.forward({"lp": np.asarray(log_probs, dtype=np.float64), "y": targets},
                           root=node))


def rows_from_probs(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


def test_nll_uniform_two_classes():
    lp = rows_from_probs([[0.5, 0.5]])
    assert eval_loss(nll_loss, lp, [0]) == pytest.approx(np.log(2), abs=1e-12)


def test_nll_one_hot_is_zero():
    lp = np.array([[0.0, -50.0]])
    assert eval_loss(nll_loss, lp, [0]) == 0.0


def test_nll_two_row_mean():
    lp = rows_from_probs([[0.5, 0.5], [0.25, 0.75]])
    expected = (np.log(2) + np.log(4)) / 2
    assert eval_loss(nll_loss, lp, [0, 0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.0397, abs=1e-4)


def test_nll_rejects_out_of_range_target():
    lp = rows_from_probs([[0.5, 0.5]])
    with pytest.raises(Exception, match="out of range"):
        eval_loss(nll_loss, lp, [2])


def test_focal_gamma_zero_matches_nll_bitwise():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    targets = rng.integers(0, 4, size=6)
    assert eval_loss(focal_loss, lp, targets, gamma=0.0) == eval_loss(nll_loss, lp, targets)


def test_focal_gamma_zero_gradient_is_nll_bitwise_at_full_confidence():
    """(1 - p)^0 is constant, so focal at gamma 0 passes NLL's gradient bits,
    and no NaN from 0 * 0^-1, through a row whose target probability is 1."""
    logits = np.array([[0.0, -1000.0], [0.3, -0.2], [-1.0, 2.0]])
    grads = []
    for build in (lambda g, lp, y: focal_loss(g, lp, y, 0.0), nll_loss):
        g = Graph()
        lp = g.log_softmax(g.leaf("z"))
        build(g, lp, g.int_leaf("y"))
        g.forward({"z": logits, "y": [0, 1, 1]})
        assert np.exp(lp.value[0, 0]) == 1.0
        grads.append(g.backward()["z"])
    assert np.isfinite(grads[0]).all()
    assert grads[0].tobytes() == grads[1].tobytes()


def test_focal_analytic_value():
    lp = rows_from_probs([[0.5, 0.5]])
    expected = 0.25 * np.log(2)
    assert eval_loss(focal_loss, lp, [0], gamma=2.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.1733, abs=1e-4)


def test_focal_zero_at_full_confidence():
    lp = np.array([[0.0, -50.0]])
    for gamma in (0.5, 1.0, 3.0):
        assert eval_loss(focal_loss, lp, [0], gamma=gamma) == 0.0


def test_focal_monotone_nonincreasing_in_target_probability():
    ps = np.linspace(0.02, 0.98, 49)
    for gamma in (0.0, 1.0, 3.0):
        values = [eval_loss(focal_loss, rows_from_probs([[p, 1 - p]]), [0], gamma=gamma)
                  for p in ps]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


def test_flsd_gamma_schedule():
    """The exponents the focal node of flsd_loss saves in its forward: 5 below
    p = 0.2, and 3 from 0.2 up, the threshold itself included."""
    target_p = [0.1, 0.3, 0.2, np.nextafter(0.2, 0.0)]
    g = Graph()
    node = flsd_loss(g, g.leaf("lp"), g.int_leaf("y"))
    g.forward({"lp": np.log(np.column_stack([target_p, np.full(4, 0.5)])), "y": [0] * 4},
              root=node)
    gamma, _, _, _, p = node.saved
    assert p[2:].tolist() == target_p[2:]  # exp(log p) is p at the threshold and one step below
    assert gamma.tolist() == [5.0, 3.0, 3.0, 5.0]


def test_flsd_value_at_the_threshold():
    assert np.exp(np.log(0.2)) == 0.2  # the graph reads p = 0.2 exactly
    expected = 0.8 ** 3 * np.log(5.0)
    assert eval_loss(flsd_loss, rows_from_probs([[0.2, 0.8]]), [0]) == pytest.approx(
        expected, abs=1e-12)
    assert expected == pytest.approx(0.8240, abs=1e-4)


def test_flsd_collapses_to_fixed_gamma():
    lp_mid = rows_from_probs([[0.5, 0.5]] * 3)
    targets = [0, 1, 0]
    assert eval_loss(flsd_loss, lp_mid, targets) == pytest.approx(
        eval_loss(focal_loss, lp_mid, targets, gamma=3.0), abs=1e-15)
    lp_low = rows_from_probs([[0.1, 0.9]] * 3)
    assert eval_loss(flsd_loss, lp_low, [0, 0, 0]) == pytest.approx(
        eval_loss(focal_loss, lp_low, [0, 0, 0], gamma=5.0), abs=1e-15)


def test_flsd_mixed_batch_hand_value():
    # per-sample closed forms: 0.9^5*ln(10) and 0.5^3*ln(2), then the mean
    lp = rows_from_probs([[0.1, 0.9], [0.5, 0.5]])
    expected = (0.9 ** 5 * np.log(10.0) + 0.5 ** 3 * np.log(2.0)) / 2
    assert eval_loss(flsd_loss, lp, [0, 0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.7232, abs=1e-4)


def huber_at(x, alpha):
    """Graph.huber of one scalar leaf bound to `x`."""
    g = Graph()
    node = g.huber(g.leaf("x"), alpha)
    return float(g.forward({"x": x}, root=node))


def test_huber_values():
    assert huber_at(0.0, 1.0) == 0.0
    assert huber_at(0.0, 0.005) == 0.0
    assert huber_at(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)
    assert huber_at(0.1, 0.005) == pytest.approx(4.875e-4, abs=1e-12)


def test_huber_even():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1, 1, 50):
        assert huber_at(x, 0.005) == pytest.approx(huber_at(-x, 0.005), abs=1e-15)


def test_huber_c1_at_transition():
    # one-sided difference quotients agree at |x| = alpha
    alpha, h = 0.005, 1e-7
    for x0 in (alpha, -alpha):
        left = (huber_at(x0, alpha) - huber_at(x0 - h, alpha)) / h
        right = (huber_at(x0 + h, alpha) - huber_at(x0, alpha)) / h
        assert abs(left - right) < 1e-6


def test_huber_rejects_nan_alpha():
    g = Graph()
    with pytest.raises(ValueError, match="alpha"):
        aux_huber_loss(g, g.leaf("lp"), g.int_leaf("y"), float("nan"))
    with pytest.raises(ValueError, match="alpha"):
        g.huber(g.leaf("x"), float("nan"))


def _two_class_rows(confidences, predicted_correct):
    """log-prob rows whose max prob is `confidence` on class 0; labels per flag."""
    rows = [[c, 1.0 - c] for c in confidences]
    targets = [0 if ok else 1 for ok in predicted_correct]
    return rows_from_probs(rows), np.array(targets)


def test_aux_huber_zero_when_confident_and_correct():
    lp, targets = _two_class_rows([1.0 - 1e-12] * 4, [True] * 4)
    assert eval_loss(aux_huber_loss, lp, targets, alpha=0.005) == pytest.approx(0.0, abs=1e-11)


def test_aux_huber_linear_branch_value():
    lp, targets = _two_class_rows([0.9, 0.9], [True, False])
    value = eval_loss(aux_huber_loss, lp, targets, alpha=0.005)
    assert value == pytest.approx(0.005 * (0.4 - 0.0025), abs=1e-12)
    assert value == pytest.approx(1.98750e-3, abs=1e-8)


def test_aux_huber_zero_gap():
    lp, targets = _two_class_rows([0.6, 0.6, 0.6, 0.6, 0.6],
                                  [True, True, True, False, False])
    assert eval_loss(aux_huber_loss, lp, targets, alpha=0.1) == pytest.approx(0.0, abs=1e-12)


def test_dca_values_and_dominance():
    lp, targets = _two_class_rows([0.9, 0.9], [True, False])
    dca = eval_loss(dca_aux_loss, lp, targets)
    assert dca == pytest.approx(0.4, abs=1e-12)
    hub = eval_loss(aux_huber_loss, lp, targets, alpha=0.005)
    assert hub < dca
    lp0, t0 = _two_class_rows([0.7, 0.7], [True, False])  # gap 0.2 > alpha
    assert eval_loss(aux_huber_loss, lp0, t0, alpha=0.005) <= eval_loss(dca_aux_loss, lp0, t0)


def test_dca_zero_gap():
    lp, targets = _two_class_rows([0.5 + 1e-9] * 2, [True, False])
    assert eval_loss(dca_aux_loss, lp, targets) == pytest.approx(0.5 + 1e-9 - 0.5, abs=1e-9)


def test_mdca_perfect_match_is_zero():
    lp = np.array([[0.0, -60.0], [-60.0, 0.0]])
    value = eval_loss(mdca_aux_loss, lp, [0, 1], n_classes=2)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_mdca_hand_value():
    lp = rows_from_probs([[0.7, 0.3], [0.7, 0.3]])
    assert eval_loss(mdca_aux_loss, lp, [0, 1], n_classes=2) == pytest.approx(0.2, abs=1e-12)


def test_mdca_uniform_balanced_is_zero():
    lp = rows_from_probs([[0.5, 0.5]] * 4)
    assert eval_loss(mdca_aux_loss, lp, [0, 0, 1, 1], n_classes=2) == pytest.approx(0.0, abs=1e-15)


def test_brier_values():
    perfect = np.array([[0.0, -60.0]])
    assert eval_loss(brier_loss, perfect, [0], n_classes=2) == pytest.approx(0.0, abs=1e-12)
    lp = rows_from_probs([[0.5, 0.5]])
    assert eval_loss(brier_loss, lp, [0], n_classes=2) == pytest.approx(0.5, abs=1e-12)


def test_label_smoothing_zero_equals_nll():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 3)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    targets = rng.integers(0, 3, size=5)
    a = eval_loss(label_smoothing_loss, lp, targets, smoothing=0.0, n_classes=3)
    b = eval_loss(nll_loss, lp, targets)
    assert a == pytest.approx(b, abs=1e-12)


def test_total_loss_lambda_zero_is_bitwise_classification_loss():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(8, 3)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    targets = rng.integers(0, 3, size=8)
    spec = LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=0.0))
    total = eval_loss(total_loss, lp, targets, spec=spec, n_classes=3)
    alone = eval_loss(flsd_loss, lp, targets)
    assert total == alone


def test_total_loss_is_weighted_sum_of_parts():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(8, 3)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    targets = rng.integers(0, 3, size=8)
    spec = LossSpec(kind="focal", gamma=3.0, aux=AuxSpec(kind="dca", weight=10.0))
    total = eval_loss(total_loss, lp, targets, spec=spec, n_classes=3)
    parts = (eval_loss(focal_loss, lp, targets, gamma=3.0)
             + 10.0 * eval_loss(dca_aux_loss, lp, targets))
    assert total == pytest.approx(parts, abs=1e-12)


def test_recommended_default_spec_is_valid():
    spec = LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=10.0))
    assert spec.aux.alpha == 0.005
    assert spec.aux.weight == 10.0
    assert spec.gamma == 3.0


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="nonsense")
    with pytest.raises(ValueError):
        LossSpec(kind="focal", gamma=-1.0)
    with pytest.raises(ValueError):
        LossSpec(kind="label_smoothing", smoothing=1.0)
    with pytest.raises(ValueError):
        AuxSpec(kind="huber", alpha=0.0)
    with pytest.raises(ValueError):
        AuxSpec(kind="dca", weight=-2.0)
    for build, problem in (
            (lambda: LossSpec(kind=["nll"]), "kind must be of type string, got array"),
            (lambda: AuxSpec(alpha=None), "alpha must be of type number, got null"),
            (lambda: TrainConfig(10, 32, "0.1"),
             'learning_rate must be of type number, got string "0.1"'),
            (lambda: TrainConfig(10, 32, 0.1, weight_decay=True),
             "weight_decay must be of type number, got boolean true")):
        with pytest.raises(ValueError, match=f"^{problem}"):
            build()
    assert TrainConfig(10, 32, 0.1, lr_milestones=(4, 8)).lr_milestones == (4, 8)


def mlp_loss_graph(spec, seed, n=6, widths=(2, 5, 3)):
    params = init_mlp(list(widths), seed)
    rng = np.random.default_rng(seed + 1000)
    g = Graph()
    x = g.leaf("x", param=False)
    logits = logits_graph(g, x, params.n_layers)
    lp = g.log_softmax(logits)
    targets = rng.integers(0, widths[-1], size=n)
    total_loss(g, lp, g.int_leaf("y"), spec, widths[-1])
    bindings = param_bindings(params)
    bindings["x"] = rng.uniform(-2, 2, size=(n, widths[0]))
    bindings["y"] = targets
    return g, bindings


@pytest.mark.parametrize("spec", [
    LossSpec(kind="nll"),
    LossSpec(kind="focal", gamma=3.0),
    LossSpec(kind="flsd"),
    LossSpec(kind="brier"),
    LossSpec(kind="label_smoothing", smoothing=0.1),
    LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=10.0)),
    LossSpec(kind="focal", gamma=1.0, aux=AuxSpec(kind="dca", weight=5.0)),
    LossSpec(kind="nll", aux=AuxSpec(kind="mdca", weight=2.0)),
], ids=lambda s: f"{s.kind}+{s.aux.kind if s.aux else 'none'}")
def test_mlp_loss_grad_check(spec):
    # the development oracle: central finite differences over all parameters
    g, bindings = mlp_loss_graph(spec, seed=17)
    for r in grad_check(g, bindings, step=1e-5, tol=1e-4):
        assert r.passed, f"{r.leaf}: rel error {r.max_rel_error:.3e}"
