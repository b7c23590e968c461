"""Train two small classifiers on the noisy mixture and compare calibration.

One model trains on plain cross-entropy, the other on the sample-dependent
focal loss plus the Huber confidence-accuracy regulariser. Afterwards a
softmax temperature is fitted on the validation split.
"""

from calprune.data import generate_gaussian_mixture, stratified_split
from calprune.losses import AuxSpec, LossSpec
from calprune.mlp import forward_logits, init_mlp, predict
from calprune.trainer import (TrainConfig, evaluate_model, fit_temperature, mean_nll,
                              train_with_pruning)

pool = generate_gaussian_mixture(4, 500, noise=0.15, seed=42)
train, val = stratified_split(pool, 0.9, seed=42)
test = generate_gaussian_mixture(4, 250, noise=0.15, seed=43)
print(f"train {len(train)}, val {len(val)}, test {len(test)}")

results = {}
for name, loss in [("nll", LossSpec(kind="nll")),
                   ("flsd+huber", LossSpec(kind="flsd",
                                           aux=AuxSpec(kind="huber", alpha=0.005,
                                                       weight=10.0)))]:
    cfg = TrainConfig(max_epochs=40, batch_size=128, learning_rate=0.1,
                      lr_milestones=[20, 30], momentum=0.9, weight_decay=5e-4,
                      seed=1, loss=loss)
    result = train_with_pruning(train, init_mlp([2, 32, 32, 4], 1), cfg)
    results[name] = result
    rep = evaluate_model(result.params, test, n_bins=10, deltas=[0.95])
    mean_conf = sum(b.count * b.confidence for b in rep.bins if b.count) / rep.n
    print(f"{name:11s} ece={rep.ece:.4f} test_error={rep.test_error_pct:.1f}% "
          f"auroc={rep.auroc:.3f} mean_confidence={mean_conf:.3f}")

# post-hoc temperature scaling on the cross-entropy model
nll_model = results["nll"].params
temperature = fit_temperature(nll_model, val)
val_logits = forward_logits(nll_model, val.x)
print(f"\nfitted temperature: {temperature:.4f}")
print(f"val NLL before {mean_nll(val_logits, val.y):.4f} "
      f"after {mean_nll(val_logits, val.y, temperature):.4f}")

# scaling never moves the argmax, only the confidence
test_logits = forward_logits(nll_model, test.x)
labels, confidences = predict(test_logits)
scaled_labels, scaled_confidences = predict(test_logits / temperature)
print("predicted labels unchanged by scaling:", bool((labels == scaled_labels).all()))
print(f"mean test confidence before {confidences.mean():.3f} "
      f"after {scaled_confidences.mean():.3f}")
