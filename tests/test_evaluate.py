"""Relative-distance error, one-to-one matching, F1, and the threshold sweep."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gebd import cli, evaluate
from gebd.boundaries import Annotation, DetectionList, save_annotations, save_detections
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
from oracles import brute_force_max_matching, numpy_match_detections, traced_peak


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
        # sorted, unsorted, duplicate times, and times on a 0.1 grid where
        # |d - g| / L == tau ties occur at the grid taus
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(200):
            cases.append((sorted(rng.uniform(0, 10, size=4)), sorted(rng.uniform(0, 10, size=4)),
                          float(rng.uniform(0.02, 0.3))))
            cases.append((list(rng.uniform(0, 10, size=4)), list(rng.uniform(0, 10, size=4)),
                          float(rng.uniform(0.02, 0.3))))
            cases.append((list(rng.integers(0, 4, size=4) * 1.5), list(rng.integers(0, 4, size=4) * 1.5),
                          float(rng.choice(DEFAULT_TAUS))))
            cases.append((list(np.round(rng.uniform(0, 3, size=4), 1)),
                          list(np.round(rng.uniform(0, 3, size=4), 1)), float(rng.choice(DEFAULT_TAUS))))
        for dets, gts, tau in cases:
            pairs = match_detections(dets, gts, tau, 10.0)
            assert len(pairs) == brute_force_max_matching(dets, gts, tau, 10.0)
            assert all(rel_dis_error(dets[i], gts[j], 10.0) <= tau for i, j in pairs)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)

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

    def test_memory_linear_in_inputs(self):
        # a dense 5000 x 5000 edge matrix alone would be 200 MB at float64
        rng = np.random.default_rng(5)
        dets = list(rng.uniform(0, 100, size=5000))
        gts = list(rng.uniform(0, 100, size=5000))
        pairs, peak = traced_peak(match_detections, dets, gts, 0.05, 100.0)
        assert len(pairs) > 4000
        assert peak < 16_000_000, peak

    def test_import_leaves_scipy_sparse_unloaded(self):
        src = str(Path(evaluate.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, gebd; print('scipy.sparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


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

    def test_empty_threshold_list_rejected(self):
        with pytest.raises(ValueError, match="empty threshold list"):
            f1_sweep([([1.0], [1.0], 10.0)], taus=())

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -0.05])
    def test_non_finite_or_non_positive_threshold_rejected_before_matching(self, tau, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("matched before the thresholds were checked")

        monkeypatch.setattr(evaluate, "match_detections", fail)
        with pytest.raises(ValueError, match="finite and positive"):
            f1_sweep([([1.0], [1.0], 10.0)], taus=(0.05, tau))


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


class TestThresholds:
    def test_repeated_threshold_rejected(self):
        with pytest.raises(ValueError, match="0.05 is given more than once"):
            f1_sweep([([1.0], [1.0], 10.0)], taus=(0.05, 0.1, 0.05))

    def test_repeated_threshold_is_one_cli_error_line(self, tmp_path, capsys):
        write_eval_corpus(tmp_path)
        code = cli.main(["eval", "--detections", str(tmp_path / "detections"),
                         "--annotations", str(tmp_path / "annotations.json"),
                         "--out", str(tmp_path / "report.csv"), "--taus", "0.05,0.05"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX) and "more than once" in err[0], err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("taus, labels", [
        ((0.001, 0.004), ["0.001", "0.004"]),
        ((1e-300,), ["1e-300"]),
        ((0.1 + 0.2, 0.3), ["0.30000000000000004", "0.30"]),
        (DEFAULT_TAUS, ["0.05", "0.10", "0.15", "0.20", "0.25", "0.30", "0.35", "0.40", "0.45", "0.50"]),
    ])
    def test_tau_column_states_each_threshold(self, taus, labels):
        rows = f1_sweep([([1.0], [1.0], 10.0)], taus=taus).to_csv().splitlines()[1:-1]
        assert [row.split(",")[0] for row in rows] == labels


class TestNumpyOrders:
    """evaluate is pure Python, so `gebd eval` runs without numpy; these pin
    its matching to numpy's sort, and its mean to exact arithmetic."""

    def test_mean_is_the_correctly_rounded_sum_over_n_in_any_order(self):
        # two roundings, the sum's and the division's: up to 1.5 ulp from the
        # exact mean (1.2 ulp on one of these lists), never order-dependent
        rng = np.random.default_rng(8)
        lists = [(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)).tolist() for n in range(1, 301)]
        lists.append(rng.uniform(0, 1, size=20_000).tolist())  # longer than numpy's 8192-element buffer
        lists += [[-0.0], [-0.0] * 9, [0.1] * 129]
        for values in lists:
            got = evaluate._mean(values)
            assert got.hex() == (float(sum(map(Fraction, values))) / len(values)).hex(), len(values)
            for order in (values[::-1], *(rng.permutation(values).tolist() for _ in range(3))):
                assert evaluate._mean(order).hex() == got.hex(), len(values)

    def test_matching_is_numpys_on_ties_signed_zeros_inf_and_nan(self):
        rng = np.random.default_rng(9)
        pool = [0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 9.5, np.inf, -np.inf, np.nan]
        for _ in range(3000):
            dets = rng.choice(pool, size=rng.integers(0, 8)).tolist()
            gts = rng.choice(pool, size=rng.integers(0, 8)).tolist()
            tau = float(rng.choice([0.05, 0.1, 0.25, np.inf]))
            video_len = float(rng.choice([1.0, 10.0]))
            assert match_detections(dets, gts, tau, video_len) == numpy_match_detections(dets, gts, tau, video_len)


def write_eval_corpus(root):
    """A fixed corpus of 300 videos at three frame rates, with annotation and
    detection files under `root`: timestamps on frame centres, so errors of
    exactly tau occur, and videos with no truths or no detections."""
    rng = random.Random(19)
    annotations = []
    (root / "detections").mkdir()
    for i in range(300):
        fps = rng.choice([5.0, 10.0, 29.97])
        frames = rng.randint(10, 400)
        truth_frames = sorted(rng.sample(range(frames), rng.randint(0, min(frames, 8))))
        det_frames = {min(frames - 1, max(0, f + rng.randint(-12, 12))) for f in truth_frames if rng.random() < 0.8}
        det_frames |= {rng.randrange(frames) for _ in range(rng.randint(0, 4))}
        vid = f"v{i:03d}"
        annotations.append(Annotation(vid, frames / fps, tuple((f + 0.5) / fps for f in truth_frames), fps))
        save_detections(root / "detections" / f"{vid}.json",
                        DetectionList(vid, [(f + 0.5) / fps for f in sorted(det_frames)]))
    save_annotations(root / "annotations.json", annotations)


# report.csv of `write_eval_corpus` as numpy's sort and mean computed it
REPORT_SHA256 = "d5886acc31efd3d576659b94dae261e510c4aa90eeff6dc5f0266c631577ada5"


def test_report_bytes_are_pinned(tmp_path):
    write_eval_corpus(tmp_path)
    report = tmp_path / "report.csv"
    assert cli.main(["eval", "--detections", str(tmp_path / "detections"),
                     "--annotations", str(tmp_path / "annotations.json"),
                     "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256
