"""The helper script: runs end to end at a small size."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_revival_explorer_runs(capsys):
    run = runpy.run_path(str(SCRIPTS / "revival_explorer.py"))["run"]
    assert run(["--L", "8", "--cycles", "256"]) == 0
    out = capsys.readouterr().out
    assert "FTA peaks" in out and "overlap-table predictions" in out
