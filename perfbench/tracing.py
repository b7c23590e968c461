"""Spans around calls into calprune's modules, for the traced benchmark run.

`Tracer.install` replaces module attributes with timing wrappers at the
places the program looks them up (`trainer` and `cli` import names directly,
so those modules' copies are wrapped, not only the defining module's) and
returns a function that puts the originals back. Nothing here is imported by the
program; the wrappers exist only while a traced session runs.

A span is (name, start, end, parent index). A layer's self time is its
span's duration minus the durations of its direct children; summed over a
command's span tree, self times add up to the command's wall time exactly.
"""

import importlib
import time
from collections import Counter

# (module[:class], attribute, span name). Wrapping a module attribute catches every
# call that resolves the name through that module.
WRAPPED = [
    ("calprune.cli", "load_config", "config.load_config"),
    ("calprune.cli", "build_datasets", "config.build_datasets"),
    ("calprune.cli", "train_with_pruning", "trainer.train_with_pruning"),
    ("calprune.cli", "checkpoint_text", "mlp.checkpoint_text"),
    ("calprune.cli", "load_checkpoint", "mlp.load_checkpoint"),
    ("calprune.cli", "bundle_texts", "reporting.bundle_texts"),
    ("calprune.cli", "write_bundle", "reporting.write_bundle"),
    ("calprune.cli", "evaluate_model", "trainer.evaluate_model"),
    ("calprune.cli", "fit_temperature", "trainer.fit_temperature"),
    ("calprune.cli", "records_for", "trainer.records_for"),
    ("calprune.cli", "binned_ece", "metrics.binned_ece"),
    ("calprune.trainer", "minibatches", "data.minibatches"),
    ("calprune.trainer", "logits_graph", "mlp.logits_graph"),
    ("calprune.trainer", "total_loss", "losses.total_loss"),
    ("calprune.trainer", "sgd_update", "trainer.sgd_update"),
    ("calprune.trainer", "update_ema", "pruning.update_ema"),
    ("calprune.trainer", "prune_using_ema", "pruning.prune_using_ema"),
    ("calprune.trainer", "evaluate_model", "trainer.evaluate_model"),
    ("calprune.trainer", "records_for", "trainer.records_for"),
    ("calprune.trainer", "forward_logits", "mlp.forward_logits"),
    ("calprune.trainer", "predict", "mlp.predict"),
    ("calprune.trainer", "build_report", "metrics.build_report"),
    ("calprune.metrics", "binned_ece", "metrics.binned_ece"),
    ("calprune.metrics", "refinement_auroc", "metrics.refinement_auroc"),
    ("calprune.autodiff:Graph", "forward", "autodiff.forward"),
    ("calprune.autodiff:Graph", "backward", "autodiff.backward"),
]

# Self time of these spans is reported under another name.
SELF_TIME_NAMES = {"trainer.train_with_pruning": "trainer.loop_self_s"}
COMMAND_PREFIX = "cli."          # command spans: cli.train, cli.evaluate, ...
COMMAND_SELF_TIME = "cli.other_self_s"

# Op kinds the benchmark's loss graphs build (FLSD+Huber and NLL).
OP_KINDS = ["leaf", "const", "matmul", "add", "sub", "mul", "relu", "log_softmax",
            "exp", "gather_rows", "mean", "scale", "stop_gradient", "huber",
            "row_max", "correct_indicator", "focal_power"]
# Ops whose adjoint rule passes nothing to their inputs.
_NO_GRADIENT_OPS = {"leaf", "const", "stop_gradient", "correct_indicator"}


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def graph_stats(graph, root):
    """Per-step counts from a graph after backward(): nodes, FLOPs, adjoint bytes.

    A node is useful when gradient can flow from it to a parameter leaf;
    the adjoint of any other node is allocated and filled for nothing, and so
    are the matmul FLOPs that compute it.
    """
    nodes = graph.nodes[: graph.nodes.index(root) + 1]
    useful = set()
    ops = Counter()
    flops = wasted_flops = adjoint_bytes = 0
    for node in nodes:
        ops[node.op] += 1
        adjoint_bytes += node.adjoint.nbytes
        if node.is_param or (node.op not in _NO_GRADIENT_OPS
                             and any(id(i) in useful for i in node.inputs)):
            useful.add(id(node))
        if node.op == "matmul":
            a, b = node.inputs
            (m, k), n = a.value.shape, b.value.shape[1]
            flops += 6 * m * k * n  # forward a@b, backward adj@b.T and a.T@adj
            wasted_flops += 2 * m * k * n * ((id(a) not in useful) + (id(b) not in useful))
    return {"nodes": len(nodes), "ops": ops, "matmul_flops": flops,
            "wasted_matmul_flops": wasted_flops, "adjoint_bytes": adjoint_bytes,
            "useful_adjoint_frac": len(useful) / len(nodes)}


class Tracer:
    """Spans and per-step graph statistics, kept in memory until the run ends.

    The clock excludes the tracer's own graph inspection, so spans and the
    traced session wall time carry only the cost of the wrappers themselves.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None]
        self.steps = []      # graph_stats() per backward call
        self._stack = []
        self._excluded = 0.0

    def now(self):
        return time.perf_counter() - self._excluded

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, self.now(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def close(self, index):
        self._stack.pop()
        self.spans[index][2] = self.now()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def wrap_backward(self, fn):
        traced = self.wrap("autodiff.backward", fn)

        def backward(graph, root=None):
            grads = traced(graph, root=root)
            started = time.perf_counter()
            self.steps.append(graph_stats(graph, root if root is not None else graph.nodes[-1]))
            self._excluded += time.perf_counter() - started
            return grads
        return backward

    def install(self):
        """Wrap every entry of WRAPPED; return a function that restores them."""
        originals = []
        for owner_name, attr, span in WRAPPED:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            if span == "autodiff.backward":
                setattr(owner, attr, self.wrap_backward(fn))
            else:
                setattr(owner, attr, self.wrap(span, fn))

        def restore():
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
        return restore


def _self_time_name(span):
    if span.startswith(COMMAND_PREFIX):
        return COMMAND_SELF_TIME
    return SELF_TIME_NAMES.get(span, span + "_s")


def self_time_names():
    """Every metric name self_times() can report."""
    return {_self_time_name(span) for _, _, span in WRAPPED} | {COMMAND_SELF_TIME}


def self_times(spans):
    """Self time per reported metric name, over a list of closed spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        totals[_self_time_name(name)] += (end - start) - children
    return totals


def step_times(spans):
    """Step durations: from each logits_graph start to the next sgd_update end."""
    steps, start = [], None
    for name, span_start, span_end, _ in spans:
        if name == "mlp.logits_graph":
            start = span_start
        elif name == "trainer.sgd_update" and start is not None:
            steps.append(span_end - start)
            start = None
    return steps
