import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_scripts_run():
    # both scripts call the library directly, outside every CLI path
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    proc = run_script("cross_validate.py", "--sample", "300", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "mismatches: 0" in proc.stdout.splitlines()
    # radius 4: inputs up to length 4, whose truncated orders have more
    # branches that die when e enters them
    proc = run_script("cross_validate.py", "--radius", "4", "--sample", "300", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    assert "mismatches: 0" in proc.stdout.splitlines()


def test_traced_benchmark_installs_every_span(tmp_path):
    # run.py imports the program from the src/ beside perfbench/ and writes
    # its span file under perfbench/out/, so it runs on a copy of both
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0
    spec = importlib.util.spec_from_file_location(
        "spans", tmp_path / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [n + "_ms" for n in spans.TIME_METRICS] + list(spans.COUNT_METRICS)
    assert set(names) <= set(doc["metrics"])
