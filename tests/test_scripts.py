"""Smoke runs of the example scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("coupling_check.py", ["--r-max", "3", "--reps", "50"]),
        ("verify_doubling.py", ["--n", "50", "--reps", "200", "--outdir", "{tmp}"]),
        ("blocksize_asymptotics.py", []),
    ],
)
def test_script_runs_clean(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout and "VIOLATED" not in res.stdout
