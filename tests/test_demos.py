"""Every demo script, and the command each demo config documents, runs to
completion against the source tree."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


@pytest.mark.parametrize("config", sorted((ROOT / "demos" / "configs").glob("*.ini")), ids=lambda p: p.name)
def test_demo_config_command_runs(config, tmp_path):
    # the header comment documents the command as "#   beurling <command> --config <this file>"
    [command] = [shlex.split(line.lstrip("# ")) for line in config.read_text().splitlines()
                 if line.startswith("#") and line.lstrip("# ").startswith("beurling ")]
    assert command[0] == "beurling" and command[command.index("--config") + 1] == str(config.relative_to(ROOT))
    res = subprocess.run([sys.executable, "-m", "beurling.cli", *command[1:], "--out", str(tmp_path / "out")],
                         cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
    assert any((tmp_path / "out").iterdir())
