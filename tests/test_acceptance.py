"""Acceptance gate: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The synthetic end-to-end runs (criteria 6-8) train real models and take a few
minutes combined.
"""

import time

import numpy as np
import pytest

from gebd.autodiff import Tensor, l2_normalize_rows, scale, seq_tensor
from gebd.data import frame_labels, random_boundary_times, split_clips, synth_video, VideoFeatures
from gebd.evaluate import f1_sweep, match_detections, rel_dis_error
from gebd.model import (
    GebdModel,
    ModelConfig,
    head_forward,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    sd_forward,
)
from gebd.nn import conv1d, conv_block, depthwise_conv1d, gelu, init_layer_norm, random_params, sigmoid
from gebd.postprocess import BoundaryScores, gaussian_smooth, merge_clip_scores, pick_peaks
from gebd.tps import similarity_vector, stage_forward, tps_forward
from gebd.train import TrainConfig, bce_loss, time_smooth, train
from gradcheck import (check_op_gradients, concat_channels, directional_check, layer_norm, mul,
                       spot_check_model_gradients, sum_all)
from oracles import accumulate_clip_scores, brute_force_max_matching, naive_conv1d, naive_depthwise_conv1d

from test_nn_ops import make_conv, make_depthwise


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


def make_benchmark_corpus(count, seed_base, snr=4.0, t=50, fps=5.0,
                          dims=(32, 32, 32, 32), min_b=3, max_b=6, min_gap=1.0):
    corpus = []
    for i in range(count):
        seed = seed_base + i
        rng = np.random.default_rng((seed, 1))
        n_b = int(rng.integers(min_b, max_b + 1))
        times = random_boundary_times(rng, t / fps, n_b, min_gap=min_gap)
        video, ann = synth_video(seed, t, fps, dims, times, snr=snr)
        corpus.append((video, ann))
    return corpus


def heldout_f1(model, corpus, taus):
    eval_corpus = []
    for video, ann in corpus:
        scores = gaussian_smooth(model_forward(video, model))
        det = pick_peaks(scores)
        eval_corpus.append((det.timestamps, list(ann.boundaries), ann.duration))
    return f1_sweep(eval_corpus, taus=taus)


BENCH_CONFIG = ModelConfig(stage_dims=(32, 32, 32, 32), d_out=64, d_head=32,
                           neighbor_radius=5)
BENCH_TRAIN = TrainConfig(epochs=10, batch_size=8, warmup_epochs=2, seed=0)


@pytest.fixture(scope="module")
def benchmark_run():
    """Criterion 6 training run, shared with the clip-mode check (criterion 8)."""
    start = time.perf_counter()
    train_corpus = make_benchmark_corpus(200, 10_000)
    heldout_corpus = make_benchmark_corpus(50, 90_000)
    dataset = [(v, frame_labels(a, v.num_frames, v.fps, 1)) for v, a in train_corpus]
    model = GebdModel.build(BENCH_CONFIG, seed=0)
    model, curve = train(dataset, model, BENCH_TRAIN)
    report_obj = heldout_f1(model, heldout_corpus, taus=(0.05, 0.25))
    elapsed = time.perf_counter() - start
    return model, report_obj, elapsed


def test_criterion_1_convolution_oracle():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for case in range(200):
        t = int(rng.integers(1, 21))
        cin = int(rng.integers(1, 9))
        cout = int(rng.integers(1, 9))
        r = int(rng.choice([1, 2, 4, 8]))
        x = rng.uniform(-2, 2, size=(t, cin))
        k = make_conv(rng, cin, cout, 3, r)
        got = conv1d(seq_tensor(x), k).data
        want = naive_conv1d(x, k.weights.data, k.bias.data, r)
        worst = max(worst, np.abs(got - want).max())
        dk = make_depthwise(rng, cin, 3, r)
        got_dw = depthwise_conv1d(seq_tensor(x), dk).data
        want_dw = naive_depthwise_conv1d(x, dk.weights.data, dk.bias.data, r)
        worst = max(worst, np.abs(got_dw - want_dw).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, "convolution oracle", ok,
           f" (max abs err {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    tol = 1e-3

    worst = 0.0
    # every differentiable op, full coordinate-wise finite differences
    x = Tensor(rng.uniform(-2, 2, size=(7, 3)), requires_grad=True)
    y = Tensor(rng.uniform(-2, 2, size=(7, 3)), requires_grad=True)
    w_cat = Tensor(rng.uniform(-1, 1, size=(7, 6)))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(concat_channels([mul(x, y), scale(x, 0.5)]), w_cat)), [x, y], tol))
    xn = Tensor(rng.uniform(-2, 2, size=(6, 4)), requires_grad=True)
    wn = Tensor(rng.uniform(-1, 1, size=(6, 4)))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(l2_normalize_rows(xn), wn)), [xn], tol))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(time_smooth(xn, 5.0), wn)), [xn], tol))
    k = make_conv(rng, 3, 2, 3, 2)
    wc = Tensor(rng.uniform(-1, 1, size=(7, 2)))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(conv1d(x, k), wc)), [x, k.weights, k.bias], tol))
    dk = make_depthwise(rng, 3, 3, 2)
    wd = Tensor(rng.uniform(-1, 1, size=(7, 3)))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(depthwise_conv1d(x, dk), wd)), [x, dk.weights, dk.bias], tol))
    a = init_layer_norm(random_params(rng), 3)
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(layer_norm(x, a), wd)), [x, a.gamma, a.beta], tol))
    we = Tensor(rng.uniform(-1, 1, size=(7, 3)))
    worst = max(worst, check_op_gradients(lambda: sum_all(mul(gelu(x), we)), [x], tol))
    worst = max(worst, check_op_gradients(lambda: sum_all(mul(sigmoid(x), we)), [x], tol))
    wq = Tensor(rng.uniform(-1, 1, size=(7, 4)))
    worst = max(worst, check_op_gradients(
        lambda: sum_all(mul(similarity_vector([x], 2), wq)), [x], tol))
    p = Tensor(rng.uniform(0.05, 0.95, size=(9, 1)), requires_grad=True)
    targets = rng.integers(0, 2, size=9).astype(float)
    worst = max(worst, check_op_gradients(lambda: bce_loss(p, targets), [p], tol))

    # tiny end-to-end model: T=12, stage dims 8, d_out=8, d_head=8
    tiny = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=2)
    model = GebdModel.build(tiny, seed=1)
    video, ann = synth_video(42, 12, 2.0, (8, 8, 8, 8), [3.1], snr=4.0)
    labels = frame_labels(ann, 12, 2.0, 1)
    params = [p for _, p in model.parameters()]

    def build_loss():
        return bce_loss(model.forward(video.stages), labels)

    for _ in range(3):
        worst = max(worst, directional_check(build_loss, params, rng, tol=tol))
    worst = max(worst, spot_check_model_gradients(build_loss, params, rng,
                                                  coords_per_param=2, tol=tol))
    elapsed = time.perf_counter() - start
    ok = worst < tol and elapsed < 120.0
    report(2, "gradient suite", ok, f" (worst rel err {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_3_architecture_conformance():
    t_len, fps = 50, 5.0
    config = ModelConfig()  # stage dims 2^{k+7}: 256/512/1024/2048, l = 5
    model = GebdModel.build(config, seed=0)
    rng = np.random.default_rng(300)
    checks = []

    checks.append(config.stage_dims == (256, 512, 1024, 2048))
    checks.append(config.neighbor_radius == round(fps))

    inputs = [seq_tensor(rng.standard_normal((t_len, d))) for d in config.stage_dims]
    for k, (stage, x) in enumerate(zip(model.tps.stages, inputs)):
        d_k = config.stage_dims[k]
        dilations = [br.dilation for br in stage.branches]
        checks.append(dilations == [1, 2, 4, 8])
        for br in stage.branches:
            checks.append((br.depthwise is not None) == (br.dilation > 1))
            out = conv_block(x, br)
            checks.append(out.data.shape == (t_len, d_k))  # Output size T x d_k
        view = l2_normalize_rows(conv_block(x, stage.branches[0]))
        dist = similarity_vector([view], config.neighbor_radius)
        checks.append(dist.data.shape == (t_len, 2 * config.neighbor_radius))
        stage_out = stage_forward(x, stage, config)
        checks.append(stage_out.data.shape == (t_len, config.d_out))

    fused = tps_forward(inputs, model.tps, config)
    checks.append(fused.data.shape == (t_len, config.d_out))

    sd_dilations = [b.conv.dilation for b in model.decoder.blocks]
    checks.append(sd_dilations == [2, 4, 8])
    checks.append(all(b.conv.width == 3 for b in model.decoder.blocks))
    decoded = sd_forward(fused, model.decoder)
    checks.append(decoded.data.shape == (t_len, config.d_out))
    scores = head_forward(decoded, model.head)
    checks.append(scores.data.shape == (t_len, 1))

    report(3, "architecture conformance", all(checks),
           f" ({sum(checks)}/{len(checks)} checks)")


def test_criterion_4_evaluator_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(400)
    mismatches = 0
    for _ in range(1000):
        nd = int(rng.integers(0, 7))
        ng = int(rng.integers(0, 7))
        dets = sorted(rng.uniform(0, 10, size=nd))
        gts = sorted(rng.uniform(0, 10, size=ng))
        tau = float(rng.uniform(0.02, 0.4))
        got = len(match_detections(dets, gts, tau, 10.0)) if nd and ng else 0
        want = brute_force_max_matching(dets, gts, tau, 10.0)
        mismatches += got != want
    exact = (
        rel_dis_error(2.5, 2.0, 10.0) == 0.05
        and rel_dis_error(2.0, 2.0, 10.0) == 0.0
        and rel_dis_error(0.0, 10.0, 10.0) == 1.0
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and exact and elapsed < 30.0
    report(4, "evaluator oracle", ok,
           f" ({mismatches} mismatches in 1000 instances, {elapsed:.1f} s)")


def test_criterion_5_postprocessing():
    impulse = np.zeros(25)
    impulse[12] = 1.0
    smoothed = gaussian_smooth(BoundaryScores("v", 5.0, impulse)).scores
    taps_ok = (
        abs(smoothed[12] - 0.40262) <= 1e-4
        and abs(smoothed[11] - 0.24420) <= 1e-4
        and abs(smoothed[13] - 0.24420) <= 1e-4
        and abs(smoothed[10] - 0.05449) <= 1e-4
        and abs(smoothed[14] - 0.05449) <= 1e-4
    )
    rng = np.random.default_rng(500)
    predicate_ok = True
    for _ in range(100):
        x = rng.uniform(0, 1, size=int(rng.integers(5, 120)))
        fps = float(rng.choice([2.0, 5.0, 10.0]))
        dets = pick_peaks(BoundaryScores("v", fps, x))
        w = int(np.floor(0.5 * fps))
        for ts in dets.timestamps:
            f = int(round(ts * fps - 0.5))
            lo, hi = max(0, f - w), min(len(x), f + w + 1)
            if not (x[f] > 0.1 and x[f] >= x[lo:hi].max()):
                predicate_ok = False
    report(5, "post-processing", taps_ok and predicate_ok,
           f" (taps {'ok' if taps_ok else 'BAD'}, window-max predicate "
           f"{'ok' if predicate_ok else 'BAD'})")


def test_criterion_6_synthetic_end_to_end(benchmark_run):
    _, rep, elapsed = benchmark_run
    f1_005 = rep.per_tau[0].f1
    f1_025 = rep.per_tau[1].f1
    ok = f1_005 >= 0.80 and f1_025 >= 0.90 and elapsed < 900.0
    report(6, "synthetic end-to-end", ok,
           f" (F1@0.05 {f1_005:.3f} >= 0.80, F1@0.25 {f1_025:.3f} >= 0.90, {elapsed:.0f} s)")


def test_float32_inference_matches_trained_float64(benchmark_run, tmp_path):
    # The trained model, saved and loaded, scores the held-out corpus in
    # float32 without a tape: scores within 1e-4, detections identical.
    model, _, _ = benchmark_run
    path = tmp_path / "model.gebw"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    worst = 0.0
    same = True
    for video, _ in make_benchmark_corpus(50, 90_000):
        ref = gaussian_smooth(model_forward(video, model))
        got = gaussian_smooth(model_forward(video, loaded))
        worst = max(worst, float(np.abs(got.scores - ref.scores).max()))
        same = same and pick_peaks(got).timestamps == pick_peaks(ref).timestamps
    assert worst < 1e-4, worst
    assert same


def test_criterion_7_ablation_directions():
    # The snr=4 benchmark saturates every variant at F1 1.0, so the ablation
    # comparison runs the same generator and recipe at a noisier operating
    # point where temporal context is load-bearing.
    def run(seed, **overrides):
        train_corpus = make_benchmark_corpus(120, 10_000, snr=0.75)
        heldout_corpus = make_benchmark_corpus(40, 90_000, snr=0.75)
        dataset = [(v, frame_labels(a, v.num_frames, v.fps, 1)) for v, a in train_corpus]
        cfg = ModelConfig(stage_dims=(32, 32, 32, 32), d_out=64, d_head=32,
                          neighbor_radius=5, **overrides)
        model = GebdModel.build(cfg, seed=seed)
        tc = TrainConfig(epochs=8, batch_size=8, warmup_epochs=2, seed=seed)
        model, _ = train(dataset, model, tc)
        return heldout_f1(model, heldout_corpus, taus=(0.05,)).per_tau[0].f1

    seeds = (0, 1, 2)
    full = np.mean([run(s) for s in seeds])
    no_sd = np.mean([run(s, decoder_blocks=0) for s in seeds])
    no_residual = np.mean([run(s, use_residual=False) for s in seeds])
    sd_margin = full - no_sd
    res_margin = full - no_residual
    ok = sd_margin > 0 and res_margin > 0
    report(7, "ablation directions", ok,
           f" (full {full:.3f}; -SD {no_sd:.3f}, margin {sd_margin:+.3f}; "
           f"-residual {no_residual:.3f}, margin {res_margin:+.3f}; 3 seeds)")


def test_criterion_8_clip_path(benchmark_run):
    model, _, _ = benchmark_run
    rng = np.random.default_rng(800)

    # split arithmetic: T=100 at 5 fps with 10 s / 5 s windows
    probe = VideoFeatures("probe", 5.0, [rng.standard_normal((100, 4))])
    starts = [s for s, _ in split_clips(probe, 10.0, 5.0)]
    starts_ok = starts == [0, 25, 50]

    # merge equals the accumulation oracle exactly
    ranges = [(0, 50), (25, 75), (50, 100)]
    values = [rng.uniform(0, 1, size=50) for _ in ranges]
    scored = [(s, BoundaryScores("m", 5.0, v)) for (s, _), v in zip(ranges, values)]
    merged = merge_clip_scores(scored)
    merge_ok = np.array_equal(merged.scores, accumulate_clip_scores(ranges, values, 100))

    # end-to-end clip-mode inference on a 60-second synthetic video
    bound_rng = np.random.default_rng((777, 1))
    times = random_boundary_times(bound_rng, 60.0, 14, min_gap=1.2)
    video, ann = synth_video(777, 300, 5.0, (32, 32, 32, 32), times, snr=4.0)
    scored_clips = []
    for s, e in split_clips(video, 10.0, 5.0):
        pred = model.forward([stage[s:e] for stage in video.stages])
        sc = BoundaryScores(video.video_id, video.fps, pred.data[:, 0].copy())
        scored_clips.append((s, gaussian_smooth(sc)))
    detections = pick_peaks(merge_clip_scores(scored_clips))
    hits = sum(
        1 for b in ann.boundaries
        if detections.timestamps and min(abs(d - b) for d in detections.timestamps) <= 0.4
    )
    recall = hits / len(ann.boundaries)
    recall_ok = recall >= 0.80

    ok = starts_ok and merge_ok and recall_ok
    report(8, "clip splitting and merging", ok,
           f" (starts {starts}, merge oracle {'ok' if merge_ok else 'BAD'}, "
           f"{hits}/{len(ann.boundaries)} boundaries within 0.4 s)")
