"""Which modules each entry point loads, and which names the package keeps.
`gebd eval` and the setting checks of every command run on the standard
library alone, and the package API loads on first use; each import test
runs a fresh interpreter, since this one has loaded everything. Every public
function and class of `src/gebd/` has a user there or is exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("first", ["", "gebd.Tensor\n"], ids=["before_api", "after_api"])
@pytest.mark.parametrize("get", ["import gebd.train as m", "from gebd import train as m"], ids=["import", "from"])
def test_gebd_train_is_the_module_in_every_import_order(first, get):
    # before and after an API name is read, both spellings give the submodule
    code = f"import gebd\n{first}{get}\nprint(type(m).__name__, m.__name__, gebd.train is m)"
    assert fresh_python(code) == ["module gebd.train True"]
    assert gebd.train is sys.modules["gebd.train"]
    assert set(gebd.__all__) <= set(dir(gebd))


# Public names that nothing in src/ calls, each kept for a reader outside it.
UNREFERENCED = {
    "postprocess.smoothing_matrix": "perfbench/layertrace.py reads its cache statistics",
    "postprocess.load_scores": "the reader of the score files `gebd infer` writes",
}


def test_every_public_function_and_class_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (REPO / "src" / "gebd").glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {
        f"{module}.{node.name}": node.name
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = {qual for qual, name in defined.items() if name not in used and name not in gebd.__all__}
    assert unused == set(UNREFERENCED), sorted(unused ^ set(UNREFERENCED))


# Names a module of src/gebd/ imports without using them, each kept for a reader outside src/.
REEXPORTED = {
    "data.save_annotations": "perfbench/corpus.py imports it from gebd.data until ROADMAP item 1",
}


def test_every_imported_name_is_used_where_it_is_imported():
    # one home per name: a module imports a name to use it, not to offer it a second time
    unused = set()
    for path in (REPO / "src" / "gebd").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    assert unused == set(REEXPORTED), sorted(unused ^ set(REEXPORTED))


def test_autodiff_loads_no_other_gebd_module_and_postprocess_no_data():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('gebd.')))"
    assert fresh_python(f"import sys, gebd.autodiff\n{loaded}") == ["['gebd.autodiff']"]
    assert fresh_python("import sys, gebd.postprocess\nprint('gebd.data' in sys.modules)") == ["False"]


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def test_no_module_reads_the_environment():
    # settings come from flags and config files, which the run echoes; an
    # environment variable would change a run without showing in its echo
    readers = []
    for path in sorted((REPO / "src" / "gebd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                readers.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                            for alias in node.names if alias.name in ENVIRONMENT_READERS]
    assert readers == []
