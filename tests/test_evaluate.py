"""Relative-distance error, one-to-one matching, F1, and the threshold sweep."""

import numpy as np
import pytest

from gebd import evaluate
from gebd.evaluate import (
    DEFAULT_TAUS,
    EvalReport,
    TauMetrics,
    f1_at,
    f1_sweep,
    match_detections,
    rel_dis_error,
    write_report_csv,
)
from oracles import brute_force_max_matching


class TestRelDisError:
    def test_exact_detection(self):
        assert rel_dis_error(2.0, 2.0, 10.0) == 0.0

    def test_formula(self):
        assert rel_dis_error(2.5, 2.0, 10.0) == pytest.approx(0.05)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, length = rng.uniform(0, 10, size=3)
            length += 0.1
            assert rel_dis_error(a, b, length) == rel_dis_error(b, a, length)

    def test_non_positive_length(self):
        with pytest.raises(ValueError, match="positive"):
            rel_dis_error(1.0, 2.0, 0.0)


class TestMatchDetections:
    def test_perfect_match(self):
        gts = [1.0, 3.0, 7.0]
        pairs = match_detections(gts, gts, 0.05, 10.0)
        assert len(pairs) == 3
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_no_edges(self):
        assert match_detections([0.0], [9.0], 0.05, 10.0) == []

    def test_empty_sides(self):
        assert match_detections([], [1.0], 0.1, 10.0) == []
        assert match_detections([1.0], [], 0.1, 10.0) == []

    def test_one_to_one(self):
        # two detections near one truth: only one can match
        pairs = match_detections([1.0, 1.1], [1.05], 0.05, 10.0)
        assert len(pairs) == 1

    def test_cardinality_equals_brute_force_4x4(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dets = sorted(rng.uniform(0, 10, size=4))
            gts = sorted(rng.uniform(0, 10, size=4))
            tau = float(rng.uniform(0.02, 0.3))
            got = len(match_detections(dets, gts, tau, 10.0))
            want = brute_force_max_matching(dets, gts, tau, 10.0)
            assert got == want

    def test_crafted_tie_needs_maximum_matching(self):
        # greedy-by-time would match d0-g0 and strand d1; the optimum is 2
        dets = [1.0, 1.9]
        gts = [1.8, 2.6]
        pairs = match_detections(dets, gts, 0.08, 10.0)
        assert len(pairs) == 2

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dets = sorted(rng.uniform(0, 10, size=5))
            gts = sorted(rng.uniform(0, 10, size=5))
            sizes = [len(match_detections(dets, gts, tau, 10.0)) for tau in DEFAULT_TAUS]
            assert sizes == sorted(sizes)

    def test_tau_validated(self):
        with pytest.raises(ValueError, match="tau"):
            match_detections([1.0], [1.0], 0.0, 10.0)


class TestF1At:
    def test_perfect(self):
        assert f1_at([1.0, 2.0], [1.0, 2.0], 0.05, 10.0) == (1.0, 1.0, 1.0)

    def test_empty_dets_nonempty_gts(self):
        assert f1_at([], [1.0], 0.05, 10.0) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert f1_at([], [], 0.05, 10.0) == (1.0, 1.0, 1.0)

    def test_two_of_three_against_four(self):
        # TP=2, |dets|=3, |gts|=4 -> P=2/3, R=1/2, F1=4/7
        dets = [1.0, 3.0, 9.0]
        gts = [1.1, 3.1, 5.0, 7.0]
        p, r, f1 = f1_at(dets, gts, 0.05, 10.0)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(4 / 7)


class TestF1Sweep:
    def test_single_video_equals_f1_at(self):
        dets = [1.0, 4.0, 6.5]
        gts = [1.2, 4.4, 8.0]
        report = f1_sweep([(dets, gts, 10.0)])
        for m in report.per_tau:
            p, r, f1 = f1_at(dets, gts, m.tau, 10.0)
            assert (m.precision, m.recall, m.f1) == pytest.approx((p, r, f1))

    def test_f1_non_decreasing_in_tau(self):
        rng = np.random.default_rng(3)
        corpus = [
            (sorted(rng.uniform(0, 10, size=4)), sorted(rng.uniform(0, 10, size=5)), 10.0)
            for _ in range(5)
        ]
        report = f1_sweep(corpus)
        f1s = [m.f1 for m in report.per_tau]
        assert f1s == sorted(f1s)

    def test_two_video_micro_pooling_vs_hand_counts(self):
        # video A: 2 dets / 1 gt with 1 TP at tau=0.1; video B: 1 det / 2 gts with 1 TP
        corpus = [
            ([1.0, 5.0], [1.3], 10.0),
            ([2.0], [2.4, 8.0], 10.0),
        ]
        report = f1_sweep(corpus, taus=(0.1,))
        m = report.per_tau[0]
        assert m.precision == pytest.approx(2 / 3)  # 2 TP / 3 dets
        assert m.recall == pytest.approx(2 / 3)     # 2 TP / 3 gts
        assert m.f1 == pytest.approx(2 / 3)

    def test_macro_averages_per_video(self):
        corpus = [
            ([1.0], [1.0], 10.0),   # perfect -> f1 1
            ([5.0], [9.0], 10.0),   # miss -> f1 0
        ]
        report = f1_sweep(corpus, taus=(0.05,), average="macro")
        assert report.per_tau[0].f1 == pytest.approx(0.5)

    def test_report_values_in_unit_interval_and_avg_exact(self):
        rng = np.random.default_rng(4)
        corpus = [
            (sorted(rng.uniform(0, 10, size=rng.integers(0, 6))),
             sorted(rng.uniform(0, 10, size=rng.integers(0, 6))), 10.0)
            for _ in range(10)
        ]
        report = f1_sweep(corpus)
        for m in report.per_tau:
            assert 0 <= m.precision <= 1 and 0 <= m.recall <= 1 and 0 <= m.f1 <= 1
        assert abs(report.avg_f1 - np.mean([m.f1 for m in report.per_tau])) < 1e-12

    def test_default_grid(self):
        assert DEFAULT_TAUS == (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            f1_sweep([])

    def test_bad_average_rejected(self):
        with pytest.raises(ValueError, match="average"):
            f1_sweep([([1.0], [1.0], 10.0)], average="weird")

    def test_empty_threshold_list_rejected(self):
        with pytest.raises(ValueError, match="empty threshold list"):
            f1_sweep([([1.0], [1.0], 10.0)], taus=())

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -0.05])
    def test_non_finite_or_non_positive_threshold_rejected_before_matching(self, tau, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("matched before the thresholds were checked")

        monkeypatch.setattr(evaluate, "match_detections", fail)
        for average in ("micro", "macro"):
            with pytest.raises(ValueError, match="finite and positive"):
                f1_sweep([([1.0], [1.0], 10.0)], taus=(0.05, tau), average=average)


class TestReportCsv:
    def test_layout(self, tmp_path):
        report = f1_sweep([([1.0, 2.0], [1.0, 2.0], 10.0)])
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,precision,recall,f1"
        assert len(lines) == 12  # header + 10 taus + avg
        assert lines[1].startswith("0.05,")
        assert lines[-1].startswith("avg,")

    def test_avg_row_value(self, tmp_path):
        report = EvalReport([TauMetrics(0.05, 1.0, 0.5, 2 / 3), TauMetrics(0.1, 1.0, 1.0, 1.0)])
        path = tmp_path / "r.csv"
        write_report_csv(path, report)
        avg_line = path.read_text().strip().splitlines()[-1]
        assert avg_line == f"avg,1.000000,0.750000,{(2 / 3 + 1) / 2:.6f}"
