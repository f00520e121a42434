"""F1 at relative distance: one-to-one matching of detections to ground truth
and the 10-threshold sweep, which pools the match counts of every video
(micro averaging) before it computes each threshold's P/R/F1.

A detection is correct at threshold tau when |detected - truth| / video_length
<= tau; per threshold, true positives are counted by a maximum-cardinality
one-to-one matching so the score does not depend on detection order.

The matching is a two-pointer greedy over sorted times, and it is maximum:
each detection's window is a contiguous run of sorted truths whose ends move
right as the detection does, so giving each detection, in ascending order,
the earliest free truth in its window never loses a match.

The module is pure Python, so `gebd eval` loads no numpy. Times sort as
`np.argsort(kind="stable")` sorts them, NaN last, and every mean divides a
correctly rounded sum (`math.fsum`), so it does not depend on input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .util import atomic_write_text

DEFAULT_TAUS = tuple(round(i * 0.05, 2) for i in range(1, 11))


def rel_dis_error(detected: float, ground_truth: float, video_len: float) -> float:
    """Detection error relative to the video length."""
    if video_len <= 0:
        raise ValueError(f"video length must be positive, got {video_len}")
    return abs(detected - ground_truth) / video_len


def _sorted_video(dets: Sequence[float], gts: Sequence[float], video_len: float) -> tuple:
    """A video's detections and truths, each as (the indices that sort its
    times as floats, those times in that order), and its checked length."""
    if video_len <= 0:
        raise ValueError(f"video length must be positive, got {video_len}")
    sides = []
    for times in (dets, gts):
        x = [float(t) for t in times]
        order = sorted(range(len(x)), key=lambda i: (math.isnan(x[i]), x[i]))  # NaN last, ties in order
        sides.append((order, [x[k] for k in order]))
    return (*sides, video_len)


def _walk(dets, gts, video_len: float, tau: float) -> list[tuple[int, int]]:
    """The two-pointer greedy over a `_sorted_video`: matched (det_index,
    gt_index) pairs in sorted detection order."""
    (d_order, d_sorted), (g_order, truths) = dets, gts
    pairs, j = [], 0
    for i, det in zip(d_order, d_sorted):
        # a truth below this detection's window is below every later one's
        while j < len(truths) and truths[j] < det and rel_dis_error(det, truths[j], video_len) > tau:
            j += 1
        if j < len(truths) and rel_dis_error(det, truths[j], video_len) <= tau:
            pairs.append((i, g_order[j]))
            j += 1
    return pairs


def match_detections(
    dets: Sequence[float], gts: Sequence[float], tau: float, video_len: float
) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching of detections to ground truth.

    Edge (d, g) exists iff rel_dis_error(d, g, video_len) <= tau; returns
    matched (det_index, gt_index) pairs in detection-index order, so TP is
    the number of pairs. Inputs need not be sorted.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return sorted(_walk(*_sorted_video(dets, gts, video_len), tau))


def _mean(values) -> float:
    """The mean of a non-empty sequence of numbers, from their correctly rounded sum."""
    return math.fsum(values) / len(values)


def _prf(tp: int, nd: int, ng: int) -> tuple[float, float, float]:
    """(precision, recall, f1) from match counts; both sides empty is perfect."""
    if nd == 0 and ng == 0:
        return 1.0, 1.0, 1.0
    p = tp / nd if nd else 0.0
    r = tp / ng if ng else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def f1_at(
    dets: Sequence[float], gts: Sequence[float], tau: float, video_len: float
) -> tuple[float, float, float]:
    """(precision, recall, f1) for one video at one threshold.

    Both sides empty scores a perfect (1, 1, 1); an empty side against a
    non-empty one scores zero.
    """
    return _prf(len(match_detections(dets, gts, tau, video_len)), len(dets), len(gts))


def _tau_label(tau: float) -> str:
    """A threshold in two decimals, as the default grid prints, unless they
    do not state it in full (0.001, 1e-300): then its shortest repr."""
    two = f"{tau:.2f}"
    return two if float(two) == tau else repr(tau)


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
        return _mean([m.precision for m in self.per_tau])

    @property
    def avg_recall(self) -> float:
        return _mean([m.recall for m in self.per_tau])

    @property
    def avg_f1(self) -> float:
        return _mean([m.f1 for m in self.per_tau])

    def to_csv(self) -> str:
        lines = ["tau,precision,recall,f1"]
        for m in self.per_tau:
            lines.append(f"{_tau_label(m.tau)},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f}")
        lines.append(f"avg,{self.avg_precision:.6f},{self.avg_recall:.6f},{self.avg_f1:.6f}")
        return "\n".join(lines) + "\n"


def check_sweep_settings(taus: Sequence[float]) -> None:
    """The non-empty, finite, positive, distinct thresholds `f1_sweep` takes:
    a repeated one would be a repeated row of the report, counted twice in
    its average."""
    if not len(taus):
        raise ValueError("f1_sweep: empty threshold list")
    seen = set()
    for tau in taus:
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"f1_sweep: thresholds must be finite and positive, got {tau}")
        if tau in seen:
            raise ValueError(f"f1_sweep: threshold {tau} is given more than once")
        seen.add(tau)


def f1_sweep(
    corpus: Sequence[tuple[Sequence[float], Sequence[float], float]],
    taus: Sequence[float] = DEFAULT_TAUS,
) -> EvalReport:
    """Sweep the threshold grid over a corpus of (detections, truths,
    video_len): pool TP/detection/truth counts over the corpus, then one
    P/R/F1 per threshold."""
    if not len(corpus):
        raise ValueError("f1_sweep: empty corpus")
    check_sweep_settings(taus)
    videos = [_sorted_video(*video) for video in corpus]  # sorted once, walked at every threshold
    rows = []
    for tau in taus:
        counts = [(len(_walk(*video, tau)), len(dets), len(gts))  # (tp, nd, ng) of each video
                  for video, (dets, gts, _) in zip(videos, corpus)]
        p, r, f1 = _prf(*map(sum, zip(*counts)))
        rows.append(TauMetrics(float(tau), p, r, f1))
    return EvalReport(rows)


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    atomic_write_text(path, report.to_csv())
