"""Command-line behaviour: precedence, formats, exit codes, manifests."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracles
from scarkit import cli
from scarkit.fock_basis import SectorBasis


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_summary(capsys):
    code, out, _ = run(capsys, "basis", "--L", "8")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 70
    assert data["kernel_bound"] == 6
    assert (data["n_plus"], data["n_minus"]) == (38, 32)


def test_spectrum_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--L", "8", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--out", str(out_csv))
    assert code == 0
    data = json.loads(out)
    assert data["zero_mode_count"] == 6
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "alpha,quasienergy,is_zero_mode,chiral_weight_plus"
    assert len(lines) == 71
    flags = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(flags) == 6


def test_csv_precision_is_15_significant_digits(tmp_path, capsys):
    out_csv = tmp_path / "spec.csv"
    run(capsys, "spectrum", "--L", "6", "--family", "0,0,+",
        "--g", "50", "--u", "0.5", "--out", str(out_csv))
    rows = out_csv.read_text().splitlines()[1:]
    values = [r.split(",")[1] for r in rows]
    longest = max(values, key=len)
    mantissa = longest.lstrip("-0.").replace(".", "").split("e")[0]
    assert len(mantissa) == 15


def test_manifest_roundtrip_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "spectrum", "--L", "8", "--family", "0,0,+",
        "--g", "50", "--u", "0.5", "--out", str(a))
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["config"]["L"] == 8
    code, _, _ = run(capsys, "spectrum", "--config",
                     str(tmp_path / "a.csv.manifest.json"), "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "dynamics", "--L", "6", "--family", "0,0,+", "--g", "50",
            "--u", "0.5", "--initial", "random:3:5", "--cycles", "80",
            "--observables", "F", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_missing_required_key_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--L", "8", "--family", "0,0,+")
    assert code == 2
    assert "config error" in err and "g" in err


def test_stray_config_key_exits_2_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("L = 8\nfammily = 0,0,+\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "fammily" in err


def test_bad_value_type_exits_2(capsys):
    code, _, err = run(capsys, "basis", "--config", "/nonexistent/x.cfg")
    assert code == 2


def test_unknown_observable_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--observables", "F,QQ",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "QQ" in err
    for model in ("effective", "full"):   # a list that names nothing
        code, out, err = run(capsys, "dynamics", "--L", "6", "--family",
                             "0,0,+", "--g", "50", "--u", "0.5", "--model",
                             model, "--observables", ",",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == "" and "observables" in err
        assert not (tmp_path / "x.csv").exists()


def test_capability_limit_exits_3(capsys):
    code, _, err = run(capsys, "spectrum", "--L", "8", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--dense-threshold", "10")
    assert code == 3
    assert "capability error" in err


def test_env_var_fills_missing_flag(capsys, monkeypatch):
    monkeypatch.setenv("SCARKIT_L", "6")
    code, out, _ = run(capsys, "basis")
    assert code == 0
    assert json.loads(out)["dimension"] == 20


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SCARKIT_L", "6")
    code, out, _ = run(capsys, "basis", "--L", "4")
    assert json.loads(out)["dimension"] == 6


def test_config_file_with_comments(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sector\nL = 8\nfamily = 0,0,+\ng = 50  # tilt\nu = 0.5\n")
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["dimension"] == 70


def test_env_beats_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 8\n")
    monkeypatch.setenv("SCARKIT_L", "6")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert json.loads(out)["dimension"] == 20


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--L", "4", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph ") and out.rstrip().endswith("}")
    assert out.count(" -- ") == 6


def test_graph_component_filter(capsys):
    code, out, _ = run(capsys, "graph", "--L", "6", "--components", "g,g-U")
    data = json.loads(out)
    assert data["component_count"] > 1
    assert 1 in data["component_sizes"]  # the pinnacle is cut loose


def test_graph_rejects_unknown_class(capsys):
    code, _, err = run(capsys, "graph", "--L", "6", "--components", "g,zz")
    assert code == 2 and "zz" in err


def test_resonance_family_json(capsys):
    code, out, _ = run(capsys, "resonance", "--family", "0,1,-")
    data = json.loads(out)
    assert data["U_over_g"] == pytest.approx(2 / 3)
    assert data["g_over_omega"] == 3
    assert data["U_over_g_exact"] == "2/3"


def test_resonance_grid_csv(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "resonance", "--omega", "20", "--u", "0.5",
                     "--grid", "1:80:5,1:80:4", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "U,g,r1,r2,r3,div1,div2,div3"
    assert len(lines) == 21


def test_dynamics_csv_columns_and_fft(tmp_path, capsys):
    out_csv = tmp_path / "dyn.csv"
    code, _, _ = run(capsys, "dynamics", "--L", "8", "--family", "0,0,+",
                     "--g", "50", "--u", "0.5", "--initial", "te_h:2",
                     "--cycles", "128", "--observables", "F,Pt",
                     "--out", str(out_csv), "--fft")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,F,P_t"
    assert len(lines) == 130
    fft_lines = (tmp_path / "dyn_fft.csv").read_text().splitlines()
    assert fft_lines[0] == "freq_rad_per_cycle,amplitude"
    assert len(fft_lines) == 65


def test_dynamics_ensemble_adds_sd_columns(tmp_path, capsys):
    out_csv = tmp_path / "ens.csv"
    run(capsys, "dynamics", "--L", "6", "--family", "0,0,+", "--g", "50",
        "--u", "0.5", "--initial", "random:3:2", "--cycles", "64",
        "--observables", "F,EE", "--out", str(out_csv))
    header = out_csv.read_text().splitlines()[0]
    assert header == "k,F,S_EE,F_sd,S_EE_sd"


def test_dynamics_rejects_bad_initial(tmp_path, capsys):
    code, _, err = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--initial", "te_p:9",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "9" in err
    for model in ("effective", "full"):   # an ensemble needs a member
        for initial in ("random:0:7", "random:-1:7"):
            code, out, err = run(capsys, "dynamics", "--L", "6", "--family",
                                 "0,0,+", "--g", "50", "--u", "0.5", "--model",
                                 model, "--initial", initial,
                                 "--out", str(tmp_path / "x.csv"))
            assert code == 2 and out == "" and "at least 1" in err
            assert not (tmp_path / "x.csv").exists()


def test_compare_outputs(tmp_path, capsys):
    out_csv = tmp_path / "cmp.csv"
    code, out, _ = run(capsys, "compare", "--L", "6", "--family", "0,0,+",
                       "--g", "20", "--u", "0.5", "--cycles", "60",
                       "--out", str(out_csv))
    assert code == 0
    data = json.loads(out)
    assert 0 < data["max_abs_diff"] < 0.2
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,F_full,F_eff,abs_diff"
    assert len(lines) == 62


def test_scar_json_odd_filling_has_null_scar(capsys):
    code, out, _ = run(capsys, "scar", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["zero_mode_count"] == 0
    assert data["P0_tp"] == pytest.approx(0.0, abs=1e-12)
    assert data["overlap_tp_s0"] is None
    assert data["S_EE_s0"] is None


def test_scar_json_even_filling(tmp_path, capsys):
    per_state = tmp_path / "per.csv"
    code, out, _ = run(capsys, "scar", "--L", "8", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--per-state",
                       str(per_state))
    data = json.loads(out)
    assert data["P0_tp"] == pytest.approx(0.864697902101752, abs=1e-12)
    assert data["overlap_tp_s0"] == pytest.approx(data["P0_tp"], abs=1e-12)
    assert data["page_value"] == pytest.approx(4 * math.log(2) - 0.5)
    lines = per_state.read_text().splitlines()
    assert lines[0] == "alpha,quasienergy,S_EE,S_IE,overlap_tp,is_zero_mode"
    assert len(lines) == 71


@pytest.mark.parametrize("family", [(0, 0, "+"), (0, 1, "-")])
def test_scar_per_state_ie_matches_per_column_entropy(tmp_path, capsys,
                                                      monkeypatch, family):
    # small blocks, so that S_IE comes from several column batches
    from scarkit.hamiltonian import build_effective_resonant
    from scarkit.observables import StateVector, shannon_entropy
    from scarkit.resonance import resonant_family
    from scarkit.spectral import diagonalize
    monkeypatch.setattr(cli, "_IE_BATCH", 16)
    per_state = tmp_path / "per.csv"
    code, _, _ = run(capsys, "scar", "--L", "8",
                     "--family", ",".join(map(str, family)),
                     "--g", "50", "--u", "0.5", "--per-state", str(per_state))
    assert code == 0
    table = np.genfromtxt(per_state, delimiter=",", names=True)
    basis = SectorBasis(8, 4)
    spec = diagonalize(build_effective_resonant(
        basis, resonant_family(*family).params(g=50.0, u=0.5), *family))
    expected = [shannon_entropy(StateVector(spec.vectors.column(a), basis))
                for a in range(spec.size)]
    np.testing.assert_allclose(table["S_IE"], expected, rtol=1e-14, atol=0)


def test_reproduce_rejects_unknown_bundle(capsys):
    code, _, err = run(capsys, "reproduce", "--bundle", "nope")
    assert code == 2 and "nope" in err


def test_reproduce_ratio_landscape(tmp_path, capsys):
    outdir = tmp_path / "rl"
    code, out, _ = run(capsys, "reproduce", "--bundle", "ratio-landscape",
                       "--outdir", str(outdir))
    assert code == 0
    data = json.loads(out)
    assert data["steps"] == 160
    table = np.genfromtxt(outdir / "ratio_r2.csv", delimiter=",", names=True)
    assert len(table) == 160 * 160


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "scarkit.cli", "basis",
                           "--L", "4"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 6


def test_threads_flag_accepted(capsys):
    code, out, _ = run(capsys, "basis", "--L", "4", "--threads", "1")
    assert code == 0


def _seed_fmt(x) -> str:
    """The original cell formatter, numpy types checked first."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x) + 0.0, ".15g")
    return str(x)


def _seed_csv_body(table) -> str:
    return "".join(",".join(_seed_fmt(c) for c in (*row[:5], *row[5:].astype(int)))
                   + "\n" for row in table)


def test_csv_writer_matches_numpy_row_formatting(tmp_path, capsys):
    from scarkit.resonance import scan_ratio_grid
    axis = np.linspace(1, 80, 6)
    table = scan_ratio_grid(axis, axis, 20.0, 0.5)
    assert table[:, 5:].any() and np.isinf(table[:, 2:5]).any()
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "resonance", "--omega", "20", "--u", "0.5",
                     "--grid", "1:80:6,1:80:6", "--out", str(path))
    assert code == 0
    assert path.read_text().split("\n", 1)[1] == _seed_csv_body(table)

    table[0, 2:5] = (-0.0, np.inf, -np.inf)
    table[1, 0] = -0.0
    cli._write_csv(str(path), ["h"], [*table[:, :5].T,
                                      *table[:, 5:].T.astype(int)])
    body = path.read_text().split("\n", 1)[1]
    assert body == _seed_csv_body(table)
    assert body.startswith("1,1,0,inf,-inf,") and "\n0," in body


special_floats = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                   5e-324, -2.2250738585072014e-308, 1e-300,
                                   1.7976931348623157e308, -1e300, 1e15,
                                   123456789012345.67, 0.1, 1 / 3])
any_floats = st.floats() | special_floats
float32s = st.floats(width=32) | st.sampled_from([-0.0, math.inf, math.nan])


@st.composite
def csv_columns(draw):
    """Equal-length columns of every kind the writer takes, with repeats."""
    n = draw(st.integers(1, 30))

    def with_repeats(values):
        pool = draw(st.lists(values, min_size=1, max_size=6))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    columns = []
    for kind in draw(st.lists(st.sampled_from(["f8", "f4", "i8", "i4", "i1",
                                                "u8", "bool", "str"]),
                              min_size=1, max_size=5)):
        if kind == "str":
            columns.append(with_repeats(st.text("01abc-_.", max_size=8)))
        elif kind == "bool":
            columns.append(np.array(with_repeats(st.booleans())))
        elif kind[0] == "f":
            values = any_floats if kind == "f8" else float32s
            columns.append(np.array(with_repeats(values), dtype=kind))
        else:
            info = np.iinfo(kind)
            ints = st.integers(int(info.min), int(info.max))
            columns.append(np.array(with_repeats(ints), dtype=kind))
    return columns


@given(csv_columns(), st.sampled_from([7, 65536]))
@settings(max_examples=300, deadline=None)
def test_column_writer_matches_row_oracle(tmp_path_factory, columns, block):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CSV_BLOCK_ROWS", block)
        cli._write_csv(str(path), header, columns)
    text = path.read_text()
    assert text == csv_oracles.csv_text(header, zip(*columns))
    plain = [c if isinstance(c, list) else c.tolist() for c in columns]
    assert text == csv_oracles.csv_text(header, zip(*plain))


@pytest.mark.parametrize("L,N", [(1, 0), (1, 1), (6, 0), (7, 3), (8, 4),
                                 (10, 10), (12, 6)])
def test_basis_words_match_fock_state_strings(tmp_path, capsys, L, N):
    path = tmp_path / "basis.csv"
    code, _, _ = run(capsys, "basis", "--L", str(L), "--N", str(N),
                     "--out", str(path))
    assert code == 0
    basis = SectorBasis(L, N)
    words = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
    assert words == [basis.state(i).to_string() for i in range(basis.size)]


FAMILY_L6 = ("--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5")


# sha256 of CSVs whose cells need no LAPACK call, frozen from the row writer
@pytest.mark.parametrize("argv,digest", [
    (("basis", "--L", "8"),
     "1fa57dd49dc2c1c4c23414726d941047cc254470c097bbd19b9d83377937eb80"),
    (("hamiltonian", *FAMILY_L6, "--kind", "onsite"),
     "b12e4eb2b8159bd7369545bd0dcca20ffda2b23f3f929f4fc249dc6a8443b478"),
    (("hamiltonian", *FAMILY_L6, "--kind", "hop"),
     "3c0e7ee35725970b03dce43d1a93e268e0e66c4b9a07bcbfd0f95f53ddc960fd"),
    (("hamiltonian", *FAMILY_L6, "--kind", "half1"),
     "b5ebbe63068fd74fa2f9b7a9bff8384a0fe4a61a7abbf5830cae6bd0477d6aaa"),
    (("hamiltonian", *FAMILY_L6, "--kind", "half2"),
     "7e51821e3b3ec7a55febec50fc3d4110b87d5a8cc2fdd4d937e7711838823d17"),
    (("hamiltonian", *FAMILY_L6, "--kind", "effective"),
     "5375ee835aaaf091a9b5af0b49b19ef2e8d497065d130a23be1bad626cdfa8ab"),
    (("hamiltonian", *FAMILY_L6, "--kind", "resonant"),
     "640734daba552fd9a22a1b1de59e7c1550d13b06687f85f577a67a4dea3d5194"),
    (("resonance", "--omega", "20", "--u", "0.5", "--grid", "1:80:40,1:80:50"),
     "6ae223e4d2eb108d9293e0f6711fbc2d33e97930cfdc9352d07975e3c634086f"),
], ids=["basis", "onsite", "hop", "half1", "half2", "effective", "resonant",
        "resonance-grid"])
def test_csv_bytes_match_frozen_digests(tmp_path, capsys, argv, digest):
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("dynamics", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5"),
    ("compare", "--L", "6", "--family", "0,0,+", "--g", "20", "--u", "0.5"),
    ("reproduce", "--bundle", "quench-series"),
])
def test_cycles_zero_exits_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--cycles", "0",
                       *(("--outdir",) if argv[0] == "reproduce" else ("--out",)),
                       str(tmp_path / "x"))
    assert code == 2 and "cycles" in err
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())


@pytest.mark.parametrize("argv", [
    ("spectrum", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5"),
    ("reproduce", "--bundle", "revival-spectra", "--cycles", "64"),
])
def test_dense_threshold_zero_exits_2(tmp_path, capsys, argv):
    extra = ("--outdir", str(tmp_path / "x")) if argv[0] == "reproduce" else ()
    code, _, err = run(capsys, *argv, *extra, "--dense-threshold", "0")
    assert code == 2 and "dense_threshold" in err


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("via_env", [False, True])
def test_threads_request_overrides_inherited_env(capsys, monkeypatch, via_env):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "4")
    if via_env:
        monkeypatch.setenv("SCARKIT_THREADS", "1")
        code, _, _ = run(capsys, "basis", "--L", "4")
    else:
        monkeypatch.delenv("SCARKIT_THREADS", raising=False)
        code, _, _ = run(capsys, "basis", "--L", "4", "--threads", "1")
    assert code == 0
    assert all(os.environ[var] == "1" for var in _THREAD_VARS)


def test_no_threads_request_keeps_inherited_env(capsys, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "4")
    monkeypatch.delenv("SCARKIT_THREADS", raising=False)
    assert run(capsys, "basis", "--L", "4")[0] == 0
    assert all(os.environ[var] == "4" for var in _THREAD_VARS)


def test_non_hermitian_build_exits_3(capsys, monkeypatch):
    from scarkit import hamiltonian
    monkeypatch.setattr(hamiltonian, "resonant_amplitudes",
                        lambda *args: (1 + 1j, 1 + 1j, 1 + 1j))
    code, out, err = run(capsys, "hamiltonian", "--L", "6", "--family", "0,0,+",
                         "--g", "50", "--u", "0.5")
    assert code == 3 and out == ""
    assert err == "numerical error: constructed matrix is not exactly Hermitian\n"


def test_dynamics_accepts_bare_occupation_word(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, initial in ((a, "110100"), (b, "bits:110100")):
        code, out, _ = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                           "--g", "50", "--u", "0.5", "--initial", initial,
                           "--cycles", "16", "--observables", "F", "--out", str(path))
        assert code == 0 and json.loads(out)["initial"] == "110100"
    assert a.read_bytes() == b.read_bytes()
    code, _, err = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--initial", "11010",
                       "--out", str(tmp_path / "c.csv"))
    assert code == 2 and "11010" in err


@pytest.mark.parametrize("command", ["dynamics", "compare"])
def test_initial_of_another_chain_length_exits_2(tmp_path, capsys, command):
    args = ["--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5",
            "--cycles", "8"]
    for initial in ("bits:0111", "bits:000000111"):
        out_csv = tmp_path / f"{command}.csv"
        code, out, err = run(capsys, command, *args, "--initial", initial,
                             "--out", str(out_csv))
        sites = len(initial) - len("bits:")
        assert code == 2 and out == ""
        assert err == f"config error: state has {sites} sites, sector has 6\n"
        assert not out_csv.exists()
    for initial in ("110100", "bits:110100", "tp", "te_p:2", "te_h:3"):
        code, out, _ = run(capsys, command, *args, "--initial", initial,
                           "--out", str(tmp_path / f"{command}_ok.csv"))
        assert code == 0 and json.loads(out)["initial"] == \
            initial.removeprefix("bits:")


def _full_columns(L, initial, cycles):
    """F, S_EE and P_t computed directly from `evolve_full` states."""
    from scarkit import (SectorBasis, StateVector, entanglement_entropy,
                         evolve_full, resonant_family, tower_states)
    basis = SectorBasis(L, L // 2)
    params = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    states = evolve_full(basis, params, initial, cycles)
    f = np.abs(states[:, 0].conj() @ states) ** 2
    ee = [entanglement_entropy(StateVector(states[:, k], basis))
          for k in range(states.shape[1])]
    pt = (np.abs(states[tower_states(L).indices(basis)]) ** 2).sum(axis=0)
    return np.column_stack([f, ee, pt])


def test_dynamics_full_model_columns(tmp_path, capsys):
    out_csv = tmp_path / "full.csv"
    code, out, _ = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--model", "full",
                       "--initial", "110010", "--cycles", "40",
                       "--out", str(out_csv))
    assert code == 0 and json.loads(out)["model"] == "full"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,F,S_EE,P_t"
    table = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    np.testing.assert_array_equal(table[:, 0], np.arange(41))
    np.testing.assert_allclose(table[:, 1:], _full_columns(6, "110010", 40),
                               rtol=0, atol=1e-12)

    ens_csv = tmp_path / "ens.csv"
    code, _, _ = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                     "--g", "50", "--u", "0.5", "--model", "full",
                     "--initial", "random:3:2", "--cycles", "40",
                     "--out", str(ens_csv))
    assert code == 0
    assert ens_csv.read_text().splitlines()[0] == \
        "k,F,S_EE,P_t,F_sd,S_EE_sd,P_t_sd"


@pytest.mark.parametrize("L", [4, 6, 8, 12])
def test_excursion_initials_are_the_tower_eaves(L):
    from scarkit.fock_basis import FockState
    from scarkit.graph import tower_states
    N = L // 2
    eaves = tower_states(L).eaves
    for q in range(1, N + 1):
        te_p = cli._parse_initial(f"te_p:{q}", L)["state"]
        te_h = cli._parse_initial(f"te_h:{q}", L)["state"]
        assert te_p == FockState.from_string(
            "1" * (N - 1) + "0" * q + "1" + "0" * (N - q))
        assert te_h == FockState.from_string(
            "1" * (N - q) + "0" + "1" * q + "0" * (N - 1))
        assert te_p == eaves[N - 2 + q] and te_h == eaves[N - q]


def test_excursion_initial_words_at_L6():
    assert cli._parse_initial("te_p:2", 6)["state"].to_string() == "110010"
    assert cli._parse_initial("te_h:3", 6)["state"].to_string() == "011100"


def test_excursion_initial_needs_a_tower(tmp_path, capsys):
    code, _, err = run(capsys, "dynamics", "--L", "2", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--initial", "te_p:1",
                       "--observables", "F", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "tower needs L = 2N with N >= 2" in err


@pytest.mark.parametrize("source", ["config", "manifest"])
def test_threads_from_config_file_or_manifest(tmp_path, capsys, monkeypatch,
                                              source):
    monkeypatch.delenv("SCARKIT_THREADS", raising=False)
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "4")
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "basis",
                                   "config": {"L": 4, "threads": 1}}))
    assert run(capsys, "basis", "--config", str(cfg), "--L", "4")[0] == 0
    assert all(os.environ[var] == "1" for var in _THREAD_VARS)


def test_manifest_with_svg_key_exits_2(tmp_path, capsys):
    manifest = tmp_path / "bundle.manifest.json"
    manifest.write_text(json.dumps({"command": "reproduce", "config": {
        "bundle": "ratio-landscape", "outdir": str(tmp_path / "rl"),
        "svg": False}}))
    code, _, err = run(capsys, "reproduce", "--config", str(manifest))
    assert code == 2 and "'svg'" in err


def test_full_model_ensemble_steps_every_member_through_one_propagator(
        tmp_path, capsys, monkeypatch):
    from scarkit import dynamics
    built = []

    class Counting(dynamics.FullPropagator):
        def __init__(self, *args, **kw):
            built.append(1)
            super().__init__(*args, **kw)

    monkeypatch.setattr(dynamics, "FullPropagator", Counting)
    out_csv = tmp_path / "ens.csv"
    code, _, _ = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                     "--g", "50", "--u", "0.5", "--model", "full",
                     "--initial", "random:3:2", "--cycles", "40",
                     "--out", str(out_csv))
    assert code == 0 and len(built) == 1
    # the same numbers as evolving each member through its own propagator
    from scarkit.fock_basis import SectorBasis
    members = np.stack([_full_columns(6, s, 40) for s in
                        dynamics.random_nontower_states(SectorBasis(6, 3),
                                                        count=3, seed=2)])
    expected = np.column_stack([np.arange(41), members.mean(axis=0),
                                members.std(axis=0)])
    table = np.array([[float(c) for c in l.split(",")]
                      for l in out_csv.read_text().splitlines()[1:]])
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


def test_model_comparison_discrepancy_is_compare_max(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    code, out, _ = run(capsys, "reproduce", "--bundle", "model-comparison",
                       "--outdir", str(outdir), "--cycles", "30")
    assert code == 0
    # one JSON document: the bundle's, none from the compare runs inside it
    assert json.loads(out)["bundle"] == "model-comparison"
    summary = json.loads((outdir / "discrepancy.json").read_text())
    for g in ("15", "30"):
        code, out, _ = run(capsys, "compare", "--L", "12", "--family", "0,0,+",
                           "--g", g, "--u", "0.5", "--cycles", "30",
                           "--manifest", os.devnull)
        assert code == 0
        assert summary[f"g{g}"] == json.loads(out)["max_abs_diff"]
        lines = (outdir / f"compare_L12_g{g}.csv").read_text().splitlines()[1:]
        column = max(float(l.split(",")[3]) for l in lines)
        # JSON and CSV both round to 15 digits, and rounding commutes with max
        assert summary[f"g{g}"] == column


@pytest.mark.parametrize("bundle,extra,L,threshold", [
    ("spectral-map", (), 18, 20000),
    ("quench-series", (), 18, 20000),
    ("revival-spectra", (), 18, 20000),
    ("model-comparison", ("--dense-threshold", "12869"), 16, 12869),
])
def test_paper_scale_refuses_before_any_work(tmp_path, capsys, monkeypatch,
                                             bundle, extra, L, threshold):
    from scarkit import spectral

    def no_solve(*args, **kw):
        raise AssertionError("diagonalize called before the size check")

    monkeypatch.setattr(spectral, "diagonalize", no_solve)
    outdir = tmp_path / "paper"
    code, out, err = run(capsys, "reproduce", "--bundle", bundle,
                         "--scale", "paper", "--outdir", str(outdir), *extra)
    assert code == 3 and out == ""
    assert f"L = {L}" in err and f"dense threshold {threshold}" in err
    assert not outdir.exists()


def test_reproduce_manifest_goes_where_asked(tmp_path, capsys):
    outdir, manifest = tmp_path / "rl", tmp_path / "m.json"
    code, _, _ = run(capsys, "reproduce", "--bundle", "ratio-landscape",
                     "--outdir", str(outdir), "--manifest", str(manifest))
    assert code == 0
    assert json.loads(manifest.read_text())["command"] == "reproduce"
    assert not (outdir / "bundle.manifest.json").exists()
    code, _, _ = run(capsys, "reproduce", "--config", str(manifest),
                     "--outdir", str(tmp_path / "rl2"))
    assert code == 0
    default = tmp_path / "rl2" / "bundle.manifest.json"
    assert json.loads(default.read_text())["config"]["bundle"] == \
        "ratio-landscape"
