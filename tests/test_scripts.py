import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_smoke(tmp_path):
    run_benchmark = load_script("run_benchmark")
    assert run_benchmark.main(["--out", str(tmp_path), "--sizes", "8x5", "--seeds", "1"]) == 0
    assert (tmp_path / "bench.csv").exists()
    assert (tmp_path / "ada_summary.csv").exists()
