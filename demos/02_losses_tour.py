"""Every loss on one toy batch, so the knobs are easy to see side by side.

The batch is two-class with hand-picked target probabilities; each loss is
built as a graph over a log-probability leaf and an integer label leaf, and
evaluated once.
"""

import numpy as np

from calprune.autodiff import Graph
from calprune.losses import (AuxSpec, LossSpec, aux_huber_loss, dca_aux_loss,
                             flsd_loss, focal_loss, mdca_aux_loss, nll_loss,
                             total_loss)

# rows are [p_target, 1 - p_target]; the first sample is badly underconfident
probs = np.array([[0.10, 0.90], [0.55, 0.45], [0.95, 0.05], [0.70, 0.30]])
log_probs = np.log(probs)
targets = np.array([0, 0, 0, 0])


def evaluated(build, **kw):
    g = Graph()
    node = build(g, g.leaf("lp"), g.int_leaf("y"), **kw)
    g.forward({"lp": log_probs, "y": targets}, root=node)
    return g, node


def value(build, **kw):
    return float(evaluated(build, **kw)[1].value)


print("nll:                ", value(nll_loss))
for gamma in (0.0, 1.0, 3.0):
    print(f"focal gamma={gamma}:     ", value(focal_loss, gamma=gamma))

# the sample-dependent schedule bumps gamma to 5 when the target prob is below
# 0.2; flsd_loss is one focal node, which saves the exponents it chose first
_, flsd = evaluated(flsd_loss)
gammas = flsd.saved[0]
print("flsd per-sample gammas:", gammas.tolist())
print("flsd:               ", float(flsd.value))

# auxiliary calibration terms penalise the batch confidence-accuracy gap
print("aux huber (a=0.005):", value(aux_huber_loss, alpha=0.005))
print("aux dca:            ", value(dca_aux_loss))
print("aux mdca:           ", value(mdca_aux_loss, n_classes=2))

spec = LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=10.0))
print("total flsd + 10*huber:", value(total_loss, spec=spec, n_classes=2))
