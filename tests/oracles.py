"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately naive (plain loops, no autodiff, no sharing
with the package internals) so the tests check the real code against an
independent derivation. `traced_peak` measures the memory tests' peaks, and
`open_descriptors` counts the process's open file descriptors.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from gebd.nn import LAYER_NORM_EPS


def naive_conv1d(x, weights, bias, dilation):
    """Direct summation over taps and input channels; zero outside [0, T)."""
    t_len, in_ch = x.shape
    out_ch, in_ch2, width = weights.shape
    assert in_ch == in_ch2
    m = width // 2
    out = np.zeros((t_len, out_ch))
    for t in range(t_len):
        for o in range(out_ch):
            acc = bias[o]
            for j in range(-m, m + 1):
                u = t + dilation * j
                if 0 <= u < t_len:
                    for c in range(in_ch):
                        acc += weights[o, c, j + m] * x[u, c]
            out[t, o] = acc
    return out


def naive_depthwise_conv1d(x, weights, bias, dilation):
    """Per-channel direct summation; channel c reads only channel c."""
    t_len, ch = x.shape
    ch2, width = weights.shape
    assert ch == ch2
    m = width // 2
    out = np.zeros((t_len, ch))
    for t in range(t_len):
        for c in range(ch):
            acc = bias[c]
            for j in range(-m, m + 1):
                u = t + dilation * j
                if 0 <= u < t_len:
                    acc += weights[c, j + m] * x[u, c]
            out[t, c] = acc
    return out


def naive_layer_norm(x, gamma, beta, eps):
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        row = x[t]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[t] = (row - mu) / math.sqrt(var + eps) * gamma + beta
    return out


def naive_gelu(x):
    return np.array([[v * 0.5 * (1.0 + math.erf(v / math.sqrt(2))) for v in row] for row in x])


def naive_normalize_rows(x, eps=1e-12):
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        out[t] = x[t] / math.sqrt((x[t] ** 2).sum() + eps * eps)
    return out


def naive_neighbor_distances(r, radius):
    t_len = r.shape[0]
    offsets = list(range(-radius, 0)) + list(range(1, radius + 1))
    out = np.zeros((t_len, len(offsets)))
    for t in range(t_len):
        for slot, q in enumerate(offsets):
            u = min(max(t + q, 0), t_len - 1)
            out[t, slot] = ((r[t] - r[u]) ** 2).sum()
    return out


def naive_neighbor_distances_backward(r, radius, g):
    """Adjoint of naive_neighbor_distances for the output adjoint g, one term at a time."""
    t_len = r.shape[0]
    offsets = list(range(-radius, 0)) + list(range(1, radius + 1))
    dr = np.zeros_like(r)
    for t in range(t_len):
        for slot, q in enumerate(offsets):
            u = min(max(t + q, 0), t_len - 1)
            w = 2.0 * (r[t] - r[u]) * g[t, slot]
            dr[t] += w
            dr[u] -= w
    return dr


def loop_pick_peaks(x, fps, threshold=0.1, neighbor_seconds=0.5):
    """Frame-by-frame peak picking: timestamps of frames above threshold that
    reach their window maximum, keeping only the earliest of equal neighbors."""
    t = len(x)
    w = int(math.floor(neighbor_seconds * fps + 1e-9))
    candidate = np.zeros(t, dtype=bool)
    for f in range(t):
        lo = max(0, f - w)
        hi = min(t, f + w + 1)
        if x[f] > threshold and x[f] >= x[lo:hi].max():
            candidate[f] = True
    stamps = []
    for f in np.flatnonzero(candidate):
        if f > 0 and candidate[f - 1] and x[f - 1] == x[f]:
            continue
        stamps.append(float((f + 0.5) / fps))
    return stamps


def naive_stage_forward(x, stage, radius, use_residual=True):
    """Straight-line reimplementation of one similarity stage (numpy only)."""
    branch_outputs = []
    for br in stage.branches:
        h = x
        if br.depthwise is not None:
            h = naive_depthwise_conv1d(h, br.depthwise.weights.data, br.depthwise.bias.data,
                                       br.depthwise.dilation)
        h = naive_conv1d(h, br.conv.weights.data, br.conv.bias.data, br.conv.dilation)
        h = naive_layer_norm(h, br.norm.gamma.data, br.norm.beta.data, LAYER_NORM_EPS)
        branch_outputs.append(naive_gelu(h))
    views = []
    for f in branch_outputs:
        views.append(naive_normalize_rows(f + x if use_residual else f))
    stacked = np.concatenate(branch_outputs, axis=1)
    compressed = naive_conv1d(stacked, stage.compress.weights.data, stage.compress.bias.data,
                              stage.compress.dilation)
    views.append(naive_normalize_rows(compressed))
    feats = [naive_neighbor_distances(v, radius) for v in views]
    return naive_conv1d(np.concatenate(feats, axis=1), stage.fuse.weights.data,
                        stage.fuse.bias.data, stage.fuse.dilation)


def brute_force_max_matching(dets, gts, tau, video_len):
    """Max-cardinality matching size by exhaustive recursion over injections."""
    allowed = [
        [abs(d - g) / video_len <= tau for g in gts]
        for d in dets
    ]

    def best(i, used):
        if i == len(dets):
            return 0
        top = best(i + 1, used)
        for j in range(len(gts)):
            if allowed[i][j] and not used & (1 << j):
                top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


def numpy_match_detections(dets, gts, tau, video_len):
    """The matching as numpy orders it: each side by `np.argsort(kind="stable")`
    (NaN last, ties in index order), then the same two-pointer greedy."""
    d = np.asarray(dets, dtype=np.float64)
    g = np.asarray(gts, dtype=np.float64)
    d_order = np.argsort(d, kind="stable")
    g_order = np.argsort(g, kind="stable")
    truths = g[g_order].tolist()
    pairs = []
    j = 0
    for i, det in zip(d_order.tolist(), d[d_order].tolist()):
        while j < len(truths) and truths[j] < det and abs(det - truths[j]) / video_len > tau:
            j += 1
        if j < len(truths) and abs(det - truths[j]) / video_len <= tau:
            pairs.append((i, int(g_order[j])))
            j += 1
    return sorted(pairs)


def accumulate_clip_scores(clip_ranges, clip_scores, parent_len):
    """Plain-loop summation of clip scores onto the parent timeline."""
    total = np.zeros(parent_len)
    for (start, end), scores in zip(clip_ranges, clip_scores):
        for i, f in enumerate(range(start, end)):
            total[f] += scores[i]
    return total


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def open_descriptors() -> int:
    """The number of this process's open file descriptors; skips the test
    where /proc/self/fd does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open file descriptors")
    return len(os.listdir("/proc/self/fd"))
