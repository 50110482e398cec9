"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT_RUNS = [
    (["gen_corpus.py", "--count", "5"], "sig: constants c0 c1; relations S/1 R/2;"),
    (["soundness_sweep.py", "--count", "20", "--max-worlds", "3", "--max-domain", "2"],
     "0 soundness violations"),
    (["saturation_demo.py", "--count", "2"], "0 violations"),
]


@pytest.mark.parametrize("argv, expected", SCRIPT_RUNS, ids=[argv[0] for argv, _ in SCRIPT_RUNS])
def test_script_runs(argv, expected):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
