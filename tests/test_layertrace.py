"""The benchmark's op-level trace, `perfbench/layertrace.py`, runs the CLI as
it is. It wraps every public function of the package and reads what they
take: `nn.conv1d`'s first argument as a tensor (`.data`),
`postprocess.smoothing_matrix.__wrapped__`, `gebd.Tensor`, and
`GebdModel.forward` and `GebdModel.build`. A model that broke one of these
would end the traced commands in a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gebd import cli
from gebd.model import GebdModel, ModelConfig, save_checkpoint

REPO = Path(__file__).resolve().parents[1]


def _traced(tmp_path, command, *args):
    """The trace aggregate of one `gebd` command run under layertrace.py in a
    fresh interpreter that imports gebd from this checkout."""
    trace = tmp_path / f"trace-{command}.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "layertrace.py"), str(trace), command, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(trace.read_text())["spans"]


def test_layertrace_runs_train_infer_and_eval(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--num-videos", "3", "--frames", "20", "--fps", "5",
                     "--stage-dims", "6,6", "--min-boundaries", "1", "--max-boundaries", "2"]) == 0
    run = tmp_path / "run"
    train = _traced(tmp_path, "train", "--features", data, "--annotations", data / "annotations.json",
                    "--out", run, "--epochs", 1, "--batch-size", 2, "--warmup-epochs", 0,
                    "--d-out", 4, "--d-head", 3)
    infer = _traced(tmp_path, "infer", "--checkpoint", run / "model.gebw", "--features", data,
                    "--out", tmp_path / "scored", "--fps", 5)
    _traced(tmp_path, "eval", "--detections", tmp_path / "scored" / "detections",
            "--annotations", data / "annotations.json", "--out", tmp_path / "report.csv")
    assert train["nn.conv1d"]["calls"] > 0 and train["nn.conv1d.bwd"]["calls"] > 0
    assert infer["nn.conv1d"]["calls"] > 0
    assert len(list((tmp_path / "scored" / "detections").glob("*.json"))) == 3


def test_layertrace_runs_infer_on_a_video_of_several_windows(tmp_path):
    # 4500 frames are three 2048-frame windows: three traced model forwards
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--num-videos", "1", "--frames", "4500", "--fps", "5",
                     "--stage-dims", "6,6"]) == 0
    ckpt = tmp_path / "model.gebw"
    save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6), d_out=4, d_head=3, neighbor_radius=5)))
    infer = _traced(tmp_path, "infer", "--checkpoint", ckpt, "--features", data,
                    "--out", tmp_path / "scored", "--fps", 5)
    assert infer["model.forward"]["calls"] == 3
    assert cli.main(["infer", "--checkpoint", str(ckpt), "--features", str(data),
                     "--out", str(tmp_path / "untraced"), "--fps", "5"]) == 0
    detections = [(tmp_path / run / "detections" / "video00000.json").read_bytes() for run in ("scored", "untraced")]
    assert json.loads(detections[0])["video_id"] == "video00000"
    assert detections[0] == detections[1]
