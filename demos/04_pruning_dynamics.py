"""Watch the EMA scores evolve and the classwise prune shrink the train set.

Every instance's confidence is folded into its EMA score each epoch; at
scheduled epochs the lowest-scored slice of each class is dropped for good.
The savings are exact bookkeeping: fewer survivors means fewer updates.
"""

from calprune.data import generate_gaussian_mixture, stratified_split
from calprune.losses import AuxSpec, LossSpec
from calprune.mlp import init_mlp
from calprune.pruning import PruneSchedule, prune_count
from calprune.trainer import TrainConfig, train_with_pruning

pool = generate_gaussian_mixture(4, 500, noise=0.15, seed=7)
train, _ = stratified_split(pool, 0.9, seed=7)

schedule = PruneSchedule(percent=10.0, ema_factor=0.3, epochs=range(20, 61, 5))
cfg = TrainConfig(max_epochs=60, batch_size=128, learning_rate=0.1,
                  lr_milestones=[30, 45], momentum=0.9, weight_decay=5e-4, seed=3,
                  loss=LossSpec(kind="flsd", aux=AuxSpec()), prune=schedule)
result = train_with_pruning(train, init_mlp([2, 32, 32, 4], 3), cfg)

print("prune events (epoch, removed per class, surviving):")
for event in result.prune_events:
    print(f"  epoch {event.epoch:2d}: -{event.removed_per_class} "
          f"-> {event.surviving_total}")

full = cfg.max_epochs * len(train)
print(f"\nsample updates: {result.total_sample_updates} vs {full} without pruning "
      f"({100 * (1 - result.total_sample_updates / full):.1f}% saved)")

# the shrink follows floor(percent/100 * n) per class, exactly
sizes = train.class_sizes().tolist()
print("\nclosed-form class-size chain for class 0:", end=" ")
n = sizes[0]
chain = [n]
for _ in result.prune_events:
    n -= prune_count(schedule.percent, n)
    chain.append(n)
print(" -> ".join(str(c) for c in chain))

# survivors keep the highest EMA scores; the pruned tail is gone
kept = result.ema[result.survivors]  # survivors: positions in `train`
print(f"\nfinal survivors: {len(result.survivors)} "
      f"(ema range {kept.min():.3f}..{kept.max():.3f})")
