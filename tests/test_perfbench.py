"""What the benchmark harness reads of the package. `perfbench/corpus.py`
builds its corpora from public `gebd` functions, and `perfbench/run.py`
drives the CLI with its own flags, checks each video's outputs and probes
fresh interpreters. Both files are loaded by path; neither's `main` runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from gebd import cli

REPO = Path(__file__).resolve().parents[1]


def load_by_path(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = load_by_path("corpus")
bench = load_by_path("run")


def test_harness_corpus_runs_through_the_cli_and_passes_its_checks(tmp_path):
    data, run_dir, scored = tmp_path / "corpus", tmp_path / "run", tmp_path / "scored"
    assert corpus.write_corpus(data, 1, corpus.TRAIN, [corpus.CHUNK_FRAMES] * 2, (4, 4, 4, 4)) == 100
    assert cli.main(["train", *map(str, bench.train_args(data, run_dir))]) == 0
    assert cli.main(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                     "--out", str(scored), "--fps", "5"]) == 0
    annotations = json.loads((data / "annotations.json").read_text())
    assert [bench.check_video(scored, ann) for ann in annotations] == [None, None]

    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for probe in ([bench.ENV_PROBE], [bench.SETUP_PROBE, str(run_dir / "model.gebw")]):
        out = subprocess.run([sys.executable, "-c", *probe], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
