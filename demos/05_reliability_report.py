"""Produce the full report bundle for a quick run: CSVs, SVGs, manifest.

Writes demos/output/reliability_demo/ with the same five-file bundle the
train command emits, then prints where everything landed.
"""

from pathlib import Path

from calprune.data import generate_gaussian_mixture, stratified_split
from calprune.losses import LossSpec
from calprune.mlp import init_mlp
from calprune.reporting import bundle_texts, export_reliability_rows, write_bundle
from calprune.trainer import TrainConfig, evaluate_model, train_with_pruning

pool = generate_gaussian_mixture(3, 300, noise=0.1, seed=21)
train, _ = stratified_split(pool, 0.9, seed=21)
test = generate_gaussian_mixture(3, 200, noise=0.1, seed=22)

cfg = TrainConfig(max_epochs=25, batch_size=64, learning_rate=0.1,
                  lr_milestones=[15], momentum=0.9, weight_decay=5e-4, seed=9,
                  loss=LossSpec(kind="nll"))
result = train_with_pruning(train, init_mlp([2, 24, 3], 9), cfg)
report = evaluate_model(result.params, test, n_bins=10, deltas=[0.95, 0.99])

print("reliability table (lower, upper, count, confidence, accuracy, gap):")
for row in export_reliability_rows(report.bins):
    cells = ["" if v is None else (f"{v:.3f}" if isinstance(v, float) else str(v))
             for v in row]
    print("  " + "  ".join(f"{c:>7s}" for c in cells))

out = Path(__file__).parent / "output" / "reliability_demo"
if out.exists():
    import shutil
    shutil.rmtree(out)
write_bundle(out, bundle_texts(report))
print(f"\nbundle written to {out}:")
for path in sorted(out.iterdir()):
    print(f"  {path.name} ({path.stat().st_size} bytes)")
