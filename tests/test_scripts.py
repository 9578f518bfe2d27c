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


def test_golden_run_compare_reports_each_moved_file(tmp_path, capsys):
    compare = runpy.run_path(str(SCRIPTS / "golden_run.py"))["compare"]
    files = {
        "same.csv": ("k,F\n0,1.0\n", "k,F\n0,1.0\n"),
        "sub/moved.csv": ("k,F\n0,0.5\n1,0.25\n", "k,F\n0,0.5000000000001\n"
                          "1,0.249999999998\n"),
        "peaks.json": ('{"L12": {"F": [0.5, 1.25]}, "n": 3}',
                       '{"L12": {"F": [0.5, 1.2500000000003]}, "n": 3}'),
        "nan.csv": ("x\nnan\n1\n", "x\nnan\nnan\n"),
        "shape.csv": ("x\n1\n", "x\n1\n2\n"),
        "label.csv": ("x\na\n", "x\nb\n"),
        "cmd_00.txt": ("exit 0\n", "exit 2\n"),
        "SHA256SUMS": ("a\n", "b\n"),
        "only_a.csv": ("x\n", None),
    }
    for side, at in (("A", 0), ("B", 1)):
        for name, texts in files.items():
            if texts[at] is not None:
                path = tmp_path / side / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(texts[at])
    a, b = str(tmp_path / "A"), str(tmp_path / "B")
    assert compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["cmd_00.txt  differs",
                     "label.csv  differs",
                     "nan.csv  max |delta| inf",
                     f"only_a.csv  only in {a}",
                     "peaks.json  max |delta| 3e-13",
                     "shape.csv  differs",
                     "sub/moved.csv  max |delta| 2e-12"]
    assert compare(a, a) == 0
    assert capsys.readouterr().out == ""
