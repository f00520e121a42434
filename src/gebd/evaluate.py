"""F1 at relative distance: one-to-one matching of detections to ground truth
and the 10-threshold sweep.

A detection is correct at threshold tau when |detected - truth| / video_length
<= tau; per threshold, true positives are counted by a maximum-cardinality
one-to-one matching so the score does not depend on detection order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .util import atomic_write_text

DEFAULT_TAUS = tuple(round(i * 0.05, 2) for i in range(1, 11))


def rel_dis_error(detected: float, ground_truth: float, video_len: float) -> float:
    """Detection error relative to the video length."""
    if video_len <= 0:
        raise ValueError(f"video length must be positive, got {video_len}")
    return abs(detected - ground_truth) / video_len


def match_detections(
    dets: Sequence[float], gts: Sequence[float], tau: float, video_len: float
) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching of detections to ground truth.

    Edge (d, g) exists iff the relative error is <= tau; returns matched
    index pairs, so TP is the number of pairs.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if video_len <= 0:
        raise ValueError(f"video length must be positive, got {video_len}")
    if not len(dets) or not len(gts):
        return []
    d = np.asarray(dets, dtype=np.float64)[:, None]
    g = np.asarray(gts, dtype=np.float64)[None, :]
    ok = np.abs(d - g) / video_len <= tau
    rows, cols = np.nonzero(ok)
    if rows.size == 0:
        return []
    graph = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(len(dets), len(gts))
    )
    col_of_row = maximum_bipartite_matching(graph, perm_type="column")
    return [(i, int(j)) for i, j in enumerate(col_of_row) if j >= 0]


def f1_at(
    dets: Sequence[float], gts: Sequence[float], tau: float, video_len: float
) -> tuple[float, float, float]:
    """(precision, recall, f1) for one video at one threshold.

    Both sides empty scores a perfect (1, 1, 1); an empty side against a
    non-empty one scores zero.
    """
    if not len(dets) and not len(gts):
        return 1.0, 1.0, 1.0
    tp = len(match_detections(dets, gts, tau, video_len)) if len(dets) and len(gts) else 0
    p = tp / len(dets) if len(dets) else 0.0
    r = tp / len(gts) if len(gts) else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


@dataclass
class TauMetrics:
    tau: float
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    per_tau: list[TauMetrics]

    @property
    def avg_precision(self) -> float:
        return float(np.mean([m.precision for m in self.per_tau]))

    @property
    def avg_recall(self) -> float:
        return float(np.mean([m.recall for m in self.per_tau]))

    @property
    def avg_f1(self) -> float:
        return float(np.mean([m.f1 for m in self.per_tau]))

    def to_csv(self) -> str:
        lines = ["tau,precision,recall,f1"]
        for m in self.per_tau:
            lines.append(f"{m.tau:.2f},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f}")
        lines.append(f"avg,{self.avg_precision:.6f},{self.avg_recall:.6f},{self.avg_f1:.6f}")
        return "\n".join(lines) + "\n"


def f1_sweep(
    corpus: Sequence[tuple[Sequence[float], Sequence[float], float]],
    taus: Sequence[float] = DEFAULT_TAUS,
    average: str = "micro",
) -> EvalReport:
    """Sweep the threshold grid over a corpus of (detections, truths, video_len).

    micro: pool TP/detection/truth counts over the corpus, then one P/R/F1
    per threshold. macro: mean of per-video P/R/F1.
    """
    if not len(corpus):
        raise ValueError("f1_sweep: empty corpus")
    if average not in ("micro", "macro"):
        raise ValueError(f"average must be 'micro' or 'macro', got {average!r}")
    if not len(taus):
        raise ValueError("f1_sweep: empty threshold list")
    for tau in taus:
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"f1_sweep: thresholds must be finite and positive, got {tau}")
    rows = []
    for tau in taus:
        if average == "micro":
            tp = nd = ng = 0
            for dets, gts, video_len in corpus:
                if len(dets) and len(gts):
                    tp += len(match_detections(dets, gts, tau, video_len))
                nd += len(dets)
                ng += len(gts)
            if nd == 0 and ng == 0:
                p = r = f1 = 1.0
            else:
                p = tp / nd if nd else 0.0
                r = tp / ng if ng else 0.0
                f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        else:
            per_video = [f1_at(dets, gts, tau, video_len) for dets, gts, video_len in corpus]
            p, r, f1 = (float(np.mean([v[i] for v in per_video])) for i in range(3))
        rows.append(TauMetrics(float(tau), p, r, f1))
    return EvalReport(rows)


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    atomic_write_text(path, report.to_csv())
