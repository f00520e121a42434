"""Which modules each entry point loads. `gebd eval` and the setting checks
of every command run on the standard library alone, and the package API
loads on first use; each test runs a fresh interpreter, since this one has
loaded everything."""

import os
import subprocess
import sys
from pathlib import Path

import gebd
from gebd import cli

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from layertrace import LAYERS  # noqa: E402


def fresh_python(code: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_eval_loads_no_numpy_and_no_model_code(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--num-videos", "2", "--frames", "50",
                     "--fps", "5", "--stage-dims", "4"]) == 0
    dets = tmp_path / "dets"
    dets.mkdir()
    for vid in gebd.load_annotations(data / "annotations.json"):
        (dets / f"{vid}.json").write_text(f'{{"video_id": "{vid}", "timestamps": [1.5]}}')
    code = (
        "import sys\n"
        "from gebd import cli\n"
        f"code = cli.main(['eval', '--detections', {str(dets)!r}, "
        f"'--annotations', {str(data / 'annotations.json')!r}, '--out', {str(tmp_path / 'r.csv')!r}])\n"
        "print(code, [m for m in ('numpy', 'gebd.nn', 'gebd.model', 'gebd.train') if m in sys.modules])\n"
    )
    assert fresh_python(code)[-1] == "0 []"
    assert (tmp_path / "r.csv").read_text().startswith("tau,precision,recall,f1\n")


def test_import_gebd_imports_no_submodule():
    assert fresh_python("import sys, gebd\nprint(sorted(m for m in sys.modules if m.startswith('gebd')))") == [
        "['gebd']"]


def test_any_api_name_loads_every_traced_module():
    # as perfbench/layertrace.py installs itself: gebd and gebd.cli, then one API name
    code = (
        "import sys\n"
        f"for name in {gebd.__all__!r}:\n"
        "    for m in [m for m in sys.modules if m == 'gebd' or m.startswith('gebd.')]:\n"
        "        del sys.modules[m]\n"
        "    import gebd, gebd.cli\n"
        "    value = getattr(gebd, name)\n"
        f"    missing = [layer for layer in {LAYERS!r} if 'gebd.' + layer not in sys.modules]\n"
        "    print(name, missing, value is gebd.__dict__[name])\n"
    )
    assert fresh_python(code) == [f"{name} [] True" for name in gebd.__all__]


def test_from_gebd_import_train_is_the_function():
    assert fresh_python("from gebd import train\nprint(type(train).__name__, train.__module__)") == [
        "function gebd.train"]
    assert gebd.train is sys.modules["gebd.train"].train
    assert set(gebd.__all__) <= set(dir(gebd))


def test_autodiff_loads_no_other_gebd_module_and_postprocess_no_data():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('gebd.')))"
    assert fresh_python(f"import sys, gebd.autodiff\n{loaded}") == ["['gebd.autodiff']"]
    assert fresh_python("import sys, gebd.postprocess\nprint('gebd.data' in sys.modules)") == ["False"]
