"""Per-layer spans recorded from outside the program.

While a traced round lasts, every module attribute named in ``LAYERS`` is
replaced by a wrapper that records one span per call: name, layer, start,
end, parent and a few counts. Spans stay in memory; the runner writes them
out when the run ends. A layer's self time is the duration of its spans
minus the time their child spans cover, so a layer that calls another layer
is not charged for it.

If any attribute of a layer is missing (a later change renamed or removed
it), the layer is not wrapped at all and its metrics read ``None``; its
time then stays with the caller's layer (for the sampler, ``engine``).
"""

from __future__ import annotations

import fnmatch
import functools
import os
import sys
import time
from contextlib import contextmanager

# layer -> (module, attribute) pairs; an attribute may be a glob pattern.
# ``joint`` imports ``train_graph_embedding`` and ``_best_threshold`` by name,
# so the alias there is wrapped as well as the original.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "hierarchy": [
        ("hierarchy", "transitive_closure"),
        ("hierarchy", "split_edges"),
        ("hierarchy", "augment_eval_negatives"),
    ],
    "sampler": [
        ("training", "_sample_negatives_for"),
        ("training", "_sample_negatives_rebalanced"),
    ],
    "engine": [
        ("training", "train_graph_embedding"),
        ("joint", "train_graph_embedding"),
    ],
    "kernel": [
        ("geometry", "energies_and_gradients"),
        ("geometry", "energies"),
    ],
    "optim": [
        ("training", "optimizer_step"),
        ("training", "adam_step"),
    ],
    "hook": [
        ("training", "evaluate_edge_prediction"),
        ("joint", "classify_levels"),
    ],
    "sweep": [
        ("training", "_best_threshold"),
        ("joint", "_best_threshold"),
        ("heads", "select_thresholds"),
    ],
    "recon": [("joint", "reconstruct_labels")],
    "classify": [
        ("joint", "classify_levels"),
        ("joint", "rank_levels"),
        ("joint", "level_energies"),
    ],
    "heads.loss": [
        ("heads", "head_loss"),
        ("heads", "_weighted_head_loss"),
    ],
    "heads.predict": [
        ("heads", "predict_levels"),
        ("heads", "predict_sets"),
    ],
    "storage": [
        ("storage", "save_*"),
        ("storage", "load_*"),
    ],
}

# CLI commands whose evaluation calls count as the per-epoch hook.
TRAIN_COMMANDS = frozenset({"train-labels", "train-joint"})

# metric name -> unit, in report order. ``cli`` spans come from the runner.
METRICS: dict[str, str] = {
    "hierarchy.closure_s": "s",
    "hierarchy.split_s": "s",
    "hierarchy.eval_neg_s": "s",
    "sampler.calls": "count",
    "sampler.negs": "count",
    "sampler.self_s": "s",
    "sampler.fill_ratio": "ratio",
    "engine.self_s": "s",
    "kernel.calls": "count",
    "kernel.rows": "count",
    "kernel.self_s": "s",
    "kernel.rows_per_s": "rows/s",
    "optim.steps": "count",
    "optim.self_s": "s",
    "hook.calls": "count",
    "hook.self_s": "s",
    "sweep.calls": "count",
    "sweep.pooled": "count",
    "sweep.self_s": "s",
    "recon.self_s": "s",
    "classify.rows": "count",
    "classify.self_s": "s",
    "heads.loss.calls": "count",
    "heads.loss.self_s": "s",
    "heads.predict.self_s": "s",
    "storage.bytes": "bytes",
    "storage.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _count_sampler(args, kwargs, result) -> dict:
    graph = _arg(args, kwargs, 0, "graph")
    config = _arg(args, kwargs, 4, "config")
    return {"negs": len(result), "asked": 2 * len(graph.levels) * config.neg_passes}


def _count_storage(args, kwargs, result) -> dict:
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path) if os.path.isfile(path) else 0}


# attribute -> counts recorded on its spans
COUNTERS = {
    "_sample_negatives_for": _count_sampler,
    "_sample_negatives_rebalanced": _count_sampler,
    "energies_and_gradients": lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "X"))},
    "energies": lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "X"))},
    "_best_threshold": lambda a, k, r: {
        "pooled": len(_arg(a, k, 0, "pos_e")) + len(_arg(a, k, 1, "neg_e"))
    },
    "select_thresholds": lambda a, k, r: {"pooled": int(_arg(a, k, 0, "scores").size)},
    "level_energies": lambda a, k, r: {"rows": _rows(_arg(a, k, 2, "points"))},
}


class Tracer:
    """Wraps the layer attributes of the given modules while installed.

    ``modules`` maps the short names used in ``LAYERS`` to module objects.
    ``spans`` holds ``[name, layer, start, end, parent, counts]`` lists;
    ``parent`` is an index into ``spans`` or -1.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.disabled: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._train_depth = 0
        self._installed: list[tuple[object, str, object]] = []
        self._targets = self._resolve()

    def _resolve(self) -> dict[tuple[str, str], list[str]]:
        """(module, attribute) -> layers listing it, for layers fully present."""
        targets: dict[tuple[str, str], list[str]] = {}
        for layer, entries in LAYERS.items():
            found, missing = [], []
            for mod_name, pattern in entries:
                mod = self.modules.get(mod_name)
                names = [] if mod is None else sorted(
                    n for n in vars(mod) if fnmatch.fnmatchcase(n, pattern)
                    and callable(getattr(mod, n))
                )
                if names:
                    found.extend((mod_name, n) for n in names)
                else:
                    missing.append(f"{mod_name}.{pattern}")
            if missing:
                self.disabled[layer] = missing
                sys.stderr.write(
                    f"warning: layer {layer!r} not traced, missing {', '.join(missing)}\n"
                )
                continue
            for key in found:
                targets.setdefault(key, []).append(layer)
        return targets

    def install(self) -> None:
        for (mod_name, attr), layers in self._targets.items():
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(original, attr, tuple(layers)))
            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _layer(self, layers: tuple[str, ...]) -> str | None:
        """Evaluation inside a train command is the hook; None: record nothing."""
        if self._train_depth and "hook" not in self.disabled:
            if "hook" in layers or "classify" in layers:
                return "hook"
        return next((l for l in layers if l != "hook"), None)

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layers: tuple[str, ...]):
        counter = _count_storage if "storage" in layers else COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self._layer(layers)
            if layer is None:
                return fn(*args, **kwargs)
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, kwargs, result)
            return result

        return wrapper

    def span_cost(self) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op (best of three)."""

        def noop():
            return None

        wrapped = self._wrap(noop, "noop", ("calibration",))
        saved, self.spans = self.spans, []
        best = float("inf")
        calls = 20000
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(calls):
                    noop()
                t1 = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                t2 = time.perf_counter()
                self.spans.clear()
                best = min(best, (t2 - t1) - (t1 - t0))
        finally:
            self.spans = saved
        return max(best, 0.0) / calls

    @contextmanager
    def command(self, command: str):
        """Span of one CLI command, opened by the runner around ``main``."""
        train = command in TRAIN_COMMANDS
        idx = self._open(command, "cli")
        self._train_depth += train
        try:
            yield
        finally:
            self._train_depth -= train
            self._close(idx)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_metrics(spans: list[list], disabled=()) -> dict:
    """Per-layer metrics of one traced round (``trace.overhead_s`` is the runner's)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    by_name: dict[str, float] = {}
    entries: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    for s, st in zip(spans, selfs):
        name, layer, parent, cnt = s[0], s[1], s[4], s[5]
        self_s[layer] = self_s.get(layer, 0.0) + st
        by_name[name] = by_name.get(name, 0.0) + st
        if parent < 0 or spans[parent][1] != layer:
            entries[layer] = entries.get(layer, 0) + 1
        for key, v in (cnt or {}).items():
            counts[layer, key] = counts.get((layer, key), 0) + v

    def c(layer, key):
        return counts.get((layer, key), 0)

    kernel_s = self_s.get("kernel", 0.0)
    asked = c("sampler", "asked")
    m = {
        "hierarchy.closure_s": by_name.get("transitive_closure", 0.0),
        "hierarchy.split_s": by_name.get("split_edges", 0.0),
        "hierarchy.eval_neg_s": by_name.get("augment_eval_negatives", 0.0),
        "sampler.calls": entries.get("sampler", 0),
        "sampler.negs": c("sampler", "negs"),
        "sampler.self_s": self_s.get("sampler", 0.0),
        "sampler.fill_ratio": c("sampler", "negs") / asked if asked else 0.0,
        "engine.self_s": self_s.get("engine", 0.0),
        "kernel.calls": entries.get("kernel", 0),
        "kernel.rows": c("kernel", "rows"),
        "kernel.self_s": kernel_s,
        "kernel.rows_per_s": c("kernel", "rows") / kernel_s if kernel_s > 0 else 0.0,
        "optim.steps": entries.get("optim", 0),
        "optim.self_s": self_s.get("optim", 0.0),
        "hook.calls": entries.get("hook", 0),
        "hook.self_s": self_s.get("hook", 0.0),
        "sweep.calls": entries.get("sweep", 0),
        "sweep.pooled": c("sweep", "pooled"),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "recon.self_s": self_s.get("recon", 0.0),
        "classify.rows": c("classify", "rows"),
        "classify.self_s": self_s.get("classify", 0.0),
        "heads.loss.calls": entries.get("heads.loss", 0),
        "heads.loss.self_s": self_s.get("heads.loss", 0.0),
        "heads.predict.self_s": self_s.get("heads.predict", 0.0),
        "storage.bytes": c("storage", "bytes"),
        "storage.self_s": self_s.get("storage", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
    for layer in disabled:
        for key in m:
            if key.startswith(layer + "."):
                m[key] = None
    return m
