"""A tour of the reverse-mode graph: build, run forward, pull gradients back.

The graph is a re-runnable recipe: leaves are named slots, ops append nodes,
and forward() evaluates the whole thing under whatever bindings you hand it.
Exits non-zero if a gradient check fails.
"""

import sys

import numpy as np

from calprune.autodiff import Graph, grad_check

# f(w, b) = sum(relu(x @ w + b)) for a fixed batch x: one dense layer, the
# node every MLP layer of the trainer's graph is built from
g = Graph()
x = g.leaf("x", param=False)
w = g.leaf("w")
b = g.leaf("b")
f = g.sum(g.dense(x, w, b, relu=True))

bindings = {"x": np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 1.0]]),
            "w": np.array([[0.7], [-0.2]]), "b": np.array([0.1])}

value = g.forward(bindings)
print("forward value:", float(value))

grads = g.backward()
print("dL/dw:\n", grads["w"])
print("dL/db:", grads["b"])

# the finite-difference check is the same oracle the test suite leans on
failed = []
for result in grad_check(g, bindings, step=1e-5, tol=1e-4):
    print(f"grad check {result.leaf}: max rel error {result.max_rel_error:.2e} "
          f"-> {'ok' if result.passed else 'BAD'}")
    if not result.passed:
        failed.append(result.leaf)

if failed:
    sys.exit(f"gradient check failed for {', '.join(failed)}")
