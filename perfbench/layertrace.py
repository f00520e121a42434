"""Per-layer trace of one gebd CLI command, recorded from outside the package.

Usage: python3 perfbench/layertrace.py TRACE.json <gebd arguments...>

Wraps every public function of the gebd modules (and `GebdModel.forward` /
`GebdModel.build`) in a span, runs `gebd.cli.main`, and writes an aggregate
of the spans to TRACE.json. `summarize` turns the aggregates of a
pipeline's commands into the per-layer metrics.

Spans nest on a stack per thread; self time is a span's duration minus the
spans it encloses on the same thread, so it stays correct under the
per-video thread pool of `gebd infer`. Each tensor a traced op returns gets
its `_backward` wrapped, which times the op's backward as `<op>.bwd`. Bytes
and FLOPs are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
import types
from collections import OrderedDict, defaultdict

LAYERS = ("autodiff", "nn", "tps", "model", "train", "postprocess", "evaluate", "data", "cli")


def _conv1d_flop(args, result) -> float:
    x, kernel = args[0], args[1]
    out_ch, in_ch, width = kernel.weights.data.shape
    return 2.0 * x.data.shape[0] * in_ch * out_ch * width


def _neighbor_diff_bytes(args, result) -> float:
    r, radius = args[0], args[1]
    t, d = r.data.shape
    return float(t * 2 * radius * d * 8)


def _file_bytes(args, result) -> float:
    return float(os.path.getsize(args[0]))


def _match_edges(args, result) -> float:
    import numpy as np  # here, so the benchmark process that imports `summarize` stays small

    dets, gts, tau, video_len = args[:4]
    return float(np.count_nonzero(np.abs(np.subtract.outer(dets, gts)) / video_len <= tau))


# Per-layer metrics computed from array shapes rather than measured.
COMPUTED = ("tps.neighbor_distances.diff_mb", "nn.conv1d.gflop")

# Work amounts computed from a traced call's arguments, outside its span.
AMOUNTS = {
    "nn.conv1d": _conv1d_flop,
    "tps.neighbor_distances": _neighbor_diff_bytes,
    "data.load_features": _file_bytes,
    "postprocess.save_scores": _file_bytes,
    "evaluate.match_detections": _match_edges,
}


class Tracer:
    def __init__(self):
        self.records = []  # (name, start, end, self seconds, amount, creates a node)
        self.smoothing_keys = []  # (num_frames, fps, bytes) per smoothing_matrix call
        self._local = threading.local()
        self._tensor_type = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        amount_of = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            node = self._claim(name, result)
            amount = amount_of(args, result) if amount_of else 0.0
            if name == "postprocess.smoothing_matrix":
                self.smoothing_keys.append((args[0], args[1], result.nbytes))
            self.records.append((name, start, end, end - start - children[0], amount, node))
            return result

        return traced

    def _claim(self, name: str, result) -> bool:
        """The innermost traced op that returns a tensor owns its backward."""
        if not isinstance(result, self._tensor_type) or result._backward is None:
            return False
        if getattr(result._backward, "traced", False):
            return False
        backward = self.span(name + ".bwd", result._backward)
        backward.traced = True
        result._backward = backward
        return True

    def install(self) -> dict:
        """Patch every lookup site; returns the gebd modules by layer name."""
        import gebd
        import gebd.cli  # noqa: F401  (not imported by the package itself)

        self._tensor_type = gebd.Tensor
        modules = {layer: sys.modules[f"gebd.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                if public and isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    wrapped[id(obj)] = (obj, self.span(f"{layer}.{name}", obj))
        # `from .nn import conv1d` copies a name into tps, model and cli, and the
        # package attribute `gebd.train` is the function, not the module.
        for ns in (gebd, *modules.values()):
            for name, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])
        model_cls = modules["model"].GebdModel
        model_cls.forward = self.span("model.forward", model_cls.forward)
        model_cls.build = classmethod(self.span("model.build", model_cls.build.__func__))
        return modules

    def aggregate(self, smoothing_cache) -> dict:
        spans = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "amount": 0.0, "nodes": 0})
        forward_ms, step_ends = [], []
        for name, start, end, self_s, amount, node in self.records:
            agg = spans[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["total_s"] += end - start
            agg["amount"] += amount
            agg["nodes"] += node
            if name == "model.forward":
                forward_ms.append((end - start) * 1e3)
            elif name == "train.adam_step":
                step_ends.append(end)
        step_ends.sort()
        info = smoothing_cache.cache_info()
        lru = OrderedDict()
        for num_frames, fps, nbytes in self.smoothing_keys:
            lru[(num_frames, fps)] = nbytes
            lru.move_to_end((num_frames, fps))
        cached = list(lru.values())[len(lru) - info.currsize:] if info.currsize else []
        return {
            "spans": dict(spans),
            "forward_ms": forward_ms,
            "step_ms": [(b - a) * 1e3 for a, b in zip(step_ends, step_ends[1:])],
            "smoothing": {"hits": info.hits, "misses": info.misses, "cached_bytes": sum(cached)},
        }


def main(argv: list[str]) -> int:
    out_path, gebd_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = tracer.install()
    smoothing_cache = modules["postprocess"].smoothing_matrix.__wrapped__
    try:
        return modules["cli"].main(gebd_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(tracer.aggregate(smoothing_cache), f)


# ---------------------------------------------------------------------------
# Per-layer metrics from the aggregates of one traced pipeline.

def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(aggregates: list[dict]) -> dict:
    """Merge the aggregates of a pipeline's commands into {metric: (value, unit)}.

    `*.fwd_s` / `*.bwd_s` are self times; every other `*.s` is the inclusive
    time summed over calls (and over threads).
    """
    spans = defaultdict(lambda: defaultdict(float))
    forward_ms, step_ms = [], []
    hits = misses = cached_bytes = 0
    for agg in aggregates:
        for name, fields in agg["spans"].items():
            for key, value in fields.items():
                spans[name][key] += value
        forward_ms += agg["forward_ms"]
        step_ms += agg["step_ms"]
        hits += agg["smoothing"]["hits"]
        misses += agg["smoothing"]["misses"]
        cached_bytes += agg["smoothing"]["cached_bytes"]

    def get(name, key="total_s"):
        return spans[name][key] if name in spans else 0.0

    m = {}

    def fwd_bwd(name):
        m[f"{name}.fwd_s"] = (get(name, "self_s"), "s")
        m[f"{name}.bwd_s"] = (get(f"{name}.bwd", "self_s"), "s")

    fwd_bwd("tps.neighbor_distances")
    m["tps.neighbor_distances.calls"] = (get("tps.neighbor_distances", "calls"), "count")
    m["tps.neighbor_distances.diff_mb"] = (get("tps.neighbor_distances", "amount") / 1e6, "MB")
    fwd_bwd("nn.conv1d")
    m["nn.conv1d.calls"] = (get("nn.conv1d", "calls"), "count")
    m["nn.conv1d.gflop"] = (get("nn.conv1d", "amount") / 1e9, "GFLOP")
    for op in ("nn.depthwise_conv1d", "nn.layer_norm", "nn.gelu", "autodiff.l2_normalize_rows",
               "autodiff.concat_channels", "autodiff.add", "autodiff.time_matmul"):
        fwd_bwd(op)
    m["autodiff.backward.s"] = (get("autodiff.backward"), "s")
    videos = get("model.forward", "calls")
    nodes = sum(fields["nodes"] for fields in spans.values())
    m["autodiff.nodes"] = (nodes / videos if videos else 0.0, "count")
    m["model.forward.calls"] = (videos, "count")
    m["model.forward.p50_ms"] = (_pct(forward_ms, 50), "ms")
    m["model.forward.p90_ms"] = (_pct(forward_ms, 90), "ms")
    m["model.load_checkpoint.s"] = (get("model.load_checkpoint"), "s")
    m["model.build.s"] = (get("model.build"), "s")
    m["train.step_ms.p50"] = (_pct(step_ms, 50), "ms")
    m["train.step_ms.p90"] = (_pct(step_ms, 90), "ms")
    m["train.adam_step.s"] = (get("train.adam_step"), "s")
    fwd_bwd("train.bce_loss")
    m["postprocess.smoothing_matrix.s"] = (get("postprocess.smoothing_matrix"), "s")
    m["postprocess.smoothing_matrix.hits"] = (float(hits), "count")
    m["postprocess.smoothing_matrix.misses"] = (float(misses), "count")
    m["postprocess.smoothing_matrix.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["postprocess.smoothing_matrix.cached_mb"] = (cached_bytes / 1e6, "MB")
    for name in ("postprocess.gaussian_smooth", "postprocess.pick_peaks", "postprocess.save_scores"):
        m[f"{name}.s"] = (get(name), "s")
    m["postprocess.save_scores.mb"] = (get("postprocess.save_scores", "amount") / 1e6, "MB")
    m["evaluate.f1_sweep.s"] = (get("evaluate.f1_sweep"), "s")
    m["evaluate.match_detections.s"] = (get("evaluate.match_detections"), "s")
    m["evaluate.match_detections.calls"] = (get("evaluate.match_detections", "calls"), "count")
    m["evaluate.match_detections.edges"] = (get("evaluate.match_detections", "amount"), "count")
    m["data.load_features.s"] = (get("data.load_features"), "s")
    m["data.load_features.mb"] = (get("data.load_features", "amount") / 1e6, "MB")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
