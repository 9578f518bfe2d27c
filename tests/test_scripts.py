"""The helper scripts: each runs end to end at a small size."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_revival_explorer_runs(capsys):
    run = runpy.run_path(str(SCRIPTS / "revival_explorer.py"))["run"]
    assert run(["--L", "8", "--cycles", "256"]) == 0
    out = capsys.readouterr().out
    assert "FTA peaks" in out and "overlap-table predictions" in out


def test_golden_run_records_commands_and_digests(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "golden_run.py"))["run"]
    commands = [("basis", "--L", "4", "--out", "basis.csv"),
                ("basis", "--L", "5"),
                ("no-such-command",)]
    assert run(str(tmp_path), commands) == 0
    first = (tmp_path / "cmd_00.txt").read_text()
    assert first.startswith("argv: basis --L 4 --out basis.csv\nexit 0\n")
    assert '"dimension": 6' in first
    assert "\nexit 2\n" in (tmp_path / "cmd_01.txt").read_text()
    assert "\nraised SystemExit\n" in (tmp_path / "cmd_02.txt").read_text()
    sums = (tmp_path / "SHA256SUMS").read_text().splitlines()
    paths = [line.split("  ", 1)[1] for line in sums]
    assert paths == sorted(["basis.csv", "basis.csv.manifest.json",
                            "cmd_00.txt", "cmd_01.txt", "cmd_02.txt"])
    written = "".join(p.read_text() for p in tmp_path.iterdir())
    assert str(tmp_path) not in written
