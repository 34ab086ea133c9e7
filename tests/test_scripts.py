import os
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
