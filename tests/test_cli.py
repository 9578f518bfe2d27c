"""Command-line behaviour: precedence, formats, exit codes, manifests."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

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


def test_config_keys_are_checked_against_the_running_command(tmp_path,
                                                             capsys):
    # `bundle` and `outdir` are reproduce's options, not scar's
    cfg, per_state = tmp_path / "c.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"bundle": "spectral-map", "outdir": "o"}))
    code, out, err = run(capsys, "scar", "--config", str(cfg), "--L", "4",
                         "--per-state", str(per_state))
    assert (code, out) == (2, "")
    assert err == "config error: config: unknown key 'bundle'\n"
    assert not per_state.exists()


def test_spectral_map_manifest_replays_as_a_scar_run(tmp_path, capsys,
                                                     monkeypatch):
    # the bundle at L = 8; its manifest holds only scar's options
    monkeypatch.setitem(cli._BUNDLES, "spectral-map",
                        (cli._bundle_spectral_map, {"desk": (8,)},
                         ("dense_threshold",)))
    outdir = tmp_path / "b"
    code, _, _ = run(capsys, "reproduce", "--bundle", "spectral-map",
                     "--dense-threshold", "100", "--outdir", str(outdir))
    assert code == 0
    manifest = outdir / "manifest.json"
    config = json.loads(manifest.read_text())["config"]
    assert set(config) == {"L", "family", "g", "u", "per_state",
                           "dense_threshold"}
    replay = tmp_path / "replay.csv"
    code, _, _ = run(capsys, "scar", "--config", str(manifest),
                     "--per-state", str(replay), "--manifest", os.devnull)
    assert code == 0
    assert replay.read_bytes() == (outdir / "states_L8.csv").read_bytes()


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


def test_oversized_sector_exits_3(capsys):
    code, out, err = run(capsys, "basis", "--L", "40")
    assert (code, out) == (3, "")
    assert "capability error" in err and "above the bound" in err


@pytest.mark.parametrize("argv,message", [
    (("basis", "--L", "6", "--N", "9"), "N: particle number 9 outside 0..6"),
    (("basis", "--L", "0"), "L: must be at least 1, got 0"),
    (("hamiltonian", "--L", "6", "--g", "-1", "--u", "0.5", "--omega", "20",
      "--u-over-g", "0.7"), "g must be positive, got -1.0"),
    (("hamiltonian", "--L", "6", "--g", "1", "--u", "0.5", "--omega", "20",
      "--u-over-g", "-0.7"), "u_over_g: must be positive, got -0.7"),
    (("hamiltonian", "--L", "6", "--family", "0,0,+", "--g", "0", "--u", "0.5"),
     "g must be positive, got 0.0"),
])
def test_sector_and_parameter_refusals_name_their_key(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("grid", ["1:inf:3,1:2:3", "1:2:3,nan:2:3",
                                  "0:80:5,1:80:5", "1:80:5,1:-80:5"])
def test_grid_bound_out_of_range_is_refused_by_name(tmp_path, capsys, grid):
    # linspace warned on inf and the scan then blamed U, and a bound of 0
    # was refused as "U must be positive"; the grid is refused first now
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "resonance", "--grid", grid,
                             "--omega", "20", "--u", "0.5",
                             "--out", str(tmp_path / "g.csv"))
    assert (code, out) == (2, "")
    assert err == ("config error: grid: bounds must be finite and positive, "
                   f"got {grid!r}\n")
    assert not (tmp_path / "g.csv").exists()


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


def test_scarkit_config_names_the_config_file(tmp_path, capsys, monkeypatch):
    # the file was resolved into the options but never loaded
    (tmp_path / "six.cfg").write_text("L = 6\n")
    (tmp_path / "eight.cfg").write_text("L = 8\n")
    monkeypatch.setenv("SCARKIT_CONFIG", str(tmp_path / "six.cfg"))
    code, out, _ = run(capsys, "basis")
    assert code == 0 and json.loads(out)["dimension"] == 20
    code, out, _ = run(capsys, "basis", "--config", str(tmp_path / "eight.cfg"))
    assert code == 0 and json.loads(out)["dimension"] == 70


def test_config_file_naming_a_config_file_exits_2(tmp_path, capsys):
    # a config file's own `config` key would never be read
    (tmp_path / "six.cfg").write_text("L = 6\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"config = {tmp_path / 'six.cfg'}\n")
    code, out, err = run(capsys, "basis", "--L", "4", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "config error: config: unknown key 'config'\n"


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
    for emit in ((), ("--emit", "dot")):    # dot draws every edge, but checks
        code, out, err = run(capsys, "graph", "--L", "6", *emit,
                             "--components", "g,zz")
        assert (code, out) == (2, "") and "components" in err and "zz" in err


def test_graph_refuses_an_unknown_emit_before_building(monkeypatch, capsys):
    def no_build(basis):
        raise AssertionError("graph built before --emit was checked")
    monkeypatch.setattr("scarkit.graph.build_graph", no_build)
    code, out, err = run(capsys, "graph", "--L", "18", "--emit", "bogus")
    assert (code, out) == (2, "") and "emit:" in err and "bogus" in err
    # a bad --components is still named first
    code, _, err = run(capsys, "graph", "--L", "6", "--emit", "bogus",
                       "--components", "zz")
    assert code == 2 and "components" in err and "emit" not in err


def test_resonance_family_json(capsys):
    code, out, _ = run(capsys, "resonance", "--family", "0,1,-")
    data = json.loads(out)
    assert data["U_over_g"] == pytest.approx(2 / 3)
    assert data["g_over_omega"] == 3
    assert data["U_over_g_exact"] == "2/3"


@pytest.mark.parametrize("stray", [
    ("--grid", "1:2:3,1:2:3", "--omega", "20", "--u", "0.5", "--out", "r.csv"),
    ("--out", "r.csv", "--u", "0.5"),
    ("--omega", "20",),
], ids=["grid-first", "u-before-out", "omega"])
def test_resonance_family_refuses_the_scan_options(tmp_path, capsys,
                                                   monkeypatch, stray):
    # a family run prints its point; the scan's options were silently ignored
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "resonance", "--family", "0,0,+", *stray)
    first = next(k for k in ("grid", "omega", "u", "out")
                 if f"--{k}" in stray)
    assert (code, out) == (2, "")
    assert err == (f"config error: {first}: not read with family, which "
                   "prints its point and writes no table\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("grid", ["1:2:0,1:2:3", "1:2:3,1:2:0",
                                  "1:80:-2,1:80:2"])
def test_grid_axis_without_samples_is_refused_by_name(tmp_path, capsys, grid):
    # a 0-sample axis wrote a header-only CSV and reported "rows": 0
    code, out, err = run(capsys, "resonance", "--grid", grid, "--omega", "20",
                         "--u", "0.5", "--out", str(tmp_path / "g.csv"))
    assert (code, out) == (2, "")
    assert err == ("config error: grid: each axis needs n >= 1 samples, "
                   f"got {grid!r}\n")
    assert not (tmp_path / "g.csv").exists()
    assert not (tmp_path / "g.csv.manifest.json").exists()


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


_RES = ("--family", "0,0,+", "--g", "50", "--u", "0.5")


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if anything is diagonalized or driven."""
    from scarkit import dynamics, spectral

    def refuse(*args, **kw):
        raise AssertionError("a refused run reached a solve")
    monkeypatch.setattr(spectral, "diagonalize", refuse)
    monkeypatch.setattr(dynamics, "exact_drive", refuse)
    monkeypatch.setattr(dynamics, "SteppedDrive", refuse)


@pytest.mark.parametrize("model", ["effective", "full"])
def test_dynamics_refuses_negative_random_seed(tmp_path, capsys, no_solve,
                                               model):
    code, out, err = run(capsys, "dynamics", "--L", "6", *_RES, "--model",
                         model, "--initial", "random:3:-1",
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == "config error: initial: random seed must be >= 0, got -1\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("model", ["effective", "full"])
def test_dynamics_refuses_a_short_fft_before_any_solve(tmp_path, capsys,
                                                       no_solve, model):
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "dynamics", "--L", "6", *_RES, "--model",
                         model, "--cycles", "10", "--fft", "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err == "config error: fft: series of length 11 too short for a spectrum\n"
    assert not out_csv.exists() and not (tmp_path / "x_fft.csv").exists()


@pytest.mark.parametrize("model", ["effective", "full"])
def test_dynamics_refuses_fft_out_without_fft(tmp_path, capsys, no_solve,
                                              model):
    # the spectrum path was accepted, and no spectrum was written
    out_csv, fft_csv = tmp_path / "d.csv", tmp_path / "f.csv"
    code, out, err = run(capsys, "dynamics", "--L", "6", *_RES, "--model",
                         model, "--cycles", "100", "--out", str(out_csv),
                         "--fft-out", str(fft_csv))
    assert (code, out) == (2, "")
    assert err == "config error: fft_out: needs --fft\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bundle, extra, key", [
    ("ratio-landscape", ("--seed", "3", "--cycles", "5"), "cycles"),
    ("ratio-landscape", ("--seed", "3"), "seed"),
    ("spectral-map", ("--cycles", "64"), "cycles"),
    ("revival-spectra", ("--seed", "3"), "seed"),
    ("model-comparison", ("--seed", "0"), "seed"),
    ("ratio-landscape", ("--dense-threshold", "5"), "dense_threshold"),
])
def test_reproduce_refuses_options_the_bundle_does_not_read(
        tmp_path, capsys, no_solve, bundle, extra, key):
    outdir = tmp_path / "b"
    code, out, err = run(capsys, "reproduce", "--bundle", bundle, *extra,
                         "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == f"config error: {key}: bundle {bundle!r} does not read it\n"
    assert os.listdir(tmp_path) == []


def test_bundle_manifest_with_an_unread_key_exits_2(tmp_path, capsys):
    manifest = tmp_path / "bundle.manifest.json"
    manifest.write_text(json.dumps({"command": "reproduce", "config": {
        "bundle": "ratio-landscape", "outdir": str(tmp_path / "rl"),
        "seed": 3}}))
    code, _, err = run(capsys, "reproduce", "--config", str(manifest))
    assert code == 2
    assert err == "config error: seed: bundle 'ratio-landscape' does not read it\n"
    assert not (tmp_path / "rl").exists()


@pytest.mark.parametrize("bundle, reads", [("ratio-landscape", False),
                                           ("spectral-map", True)])
def test_reproduce_drops_an_environment_value_the_bundle_does_not_read(
        tmp_path, capsys, monkeypatch, bundle, reads):
    # an environment value is set for other runs too: a bundle that does not
    # read it runs, and its manifest, which replays, does not record it
    monkeypatch.setitem(cli._BUNDLES, "spectral-map",
                        (cli._bundle_spectral_map, {"desk": (8,)},
                         ("dense_threshold",)))
    monkeypatch.setenv("SCARKIT_DENSE_THRESHOLD", "50000")
    outdir = tmp_path / "b"
    code, _, err = run(capsys, "reproduce", "--bundle", bundle,
                       "--outdir", str(outdir))
    assert (code, err) == (0, "")
    manifest = outdir / "bundle.manifest.json"
    config = json.loads(manifest.read_text())["config"]
    assert ("dense_threshold" in config) == reads
    monkeypatch.delenv("SCARKIT_DENSE_THRESHOLD")
    code, _, err = run(capsys, "reproduce", "--config", str(manifest))
    assert (code, err) == (0, "")


_UNREAD = [
    (("resonance", "--family", "0,1,-", "--manifest", "r.json"), "r.json",
     "u = 0.5",
     "u: not read with family, which prints its point and writes no table"),
    (("spectrum", "--L", "6", *_RES, "--out", "s.csv"), "s.csv.manifest.json",
     "omega = 20", "omega: not read with family"),
    (("hamiltonian", "--L", "6", *_RES, "--out", "h.csv"),
     "h.csv.manifest.json", "u_over_g = 0.7", "u_over_g: not read with family"),
    (("dynamics", "--L", "6", *_RES, "--cycles", "16", "--out", "d.csv"),
     "d.csv.manifest.json", "fft_out = x.csv", "fft_out: needs --fft"),
]


@pytest.mark.parametrize("argv, manifest, line, _", _UNREAD,
                         ids=["resonance", "omega", "u_over_g", "fft_out"])
def test_an_unread_environment_value_is_dropped(tmp_path, capsys, monkeypatch,
                                               argv, manifest, line, _):
    # set for other runs too: the run goes on without it, and its manifest
    # leaves it out and replays with the variable still set
    key, value = (word.strip() for word in line.split("="))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.ENV_PREFIX + key.upper(), value)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert key not in json.loads((tmp_path / manifest).read_text())["config"]
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(capsys, argv[0], "--config", manifest) == (0, out, "")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv, _, line, message", _UNREAD,
                         ids=["resonance", "omega", "u_over_g", "fft_out"])
def test_an_unread_flag_or_config_value_is_refused(tmp_path, capsys,
                                                  monkeypatch, no_solve, argv,
                                                  _, line, message, via):
    key, value = (word.strip() for word in line.split("="))
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        extra = (f"--{key.replace('_', '-')}", value)
    else:
        (tmp_path / "c.cfg").write_text(line + "\n")
        extra = ("--config", "c.cfg")
    assert run(capsys, *argv, *extra) == (2, "", f"config error: {message}\n")
    assert os.listdir(tmp_path) == (["c.cfg"] if via == "config" else [])


@pytest.mark.parametrize("var, value, message", [
    ("SCARKIT_SEED", "-1", "seed: must be >= 0, got -1"),
    ("SCARKIT_DENSE_THRESHOLD", "0",
     "dense_threshold: must be at least 1, got 0"),
], ids=["seed", "dense_threshold"])
def test_an_unread_environment_value_is_still_checked(tmp_path, capsys,
                                                      monkeypatch, var, value,
                                                      message):
    # ratio-landscape reads neither, but it parses and checks every value
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "reproduce", "--bundle", "ratio-landscape",
                         "--outdir", str(tmp_path / "rl"))
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_reproduce_refuses_short_spectra_before_the_outdir(tmp_path, capsys,
                                                         no_solve):
    outdir = tmp_path / "rs"
    code, out, err = run(capsys, "reproduce", "--bundle", "revival-spectra",
                         "--cycles", "10", "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == ("config error: cycles: series of length 11 too short for "
                   "a spectrum\n")
    assert not outdir.exists()


def test_reproduce_refuses_negative_seed(tmp_path, capsys, no_solve):
    outdir = tmp_path / "qs"
    code, out, err = run(capsys, "reproduce", "--bundle", "quench-series",
                         "--seed", "-1", "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == "config error: seed: must be >= 0, got -1\n"
    assert not outdir.exists()


@pytest.mark.parametrize("argv, message", [
    (("dynamics", "--L", "6", "--N", "2"),
     "initial: state has 3 particles, sector holds 2"),
    (("compare", "--L", "6", "--N", "2"),
     "initial: state has 3 particles, sector holds 2"),
    (("dynamics", "--L", "7", "--N", "3"), "L: need even L >= 4, got 7"),
    (("scar", "--L", "2"), "L: need even L >= 4, got 2"),
    (("dynamics", "--L", "2", "--initial", "te_p:1"),
     "initial: tower needs L = 2N with N >= 2, got L=2"),
    (("dynamics", "--L", "6", "--initial", "random:0:5"),
     "initial: ensemble size must be at least 1, got 0"),
    (("dynamics", "--L", "6", "--initial", "random:25:5"),
     "initial: asked for 25 states, only 14 outside the tower"),
    (("dynamics", "--L", "6", "--fft", "--cycles", "10"),
     "fft: series of length 11 too short for a spectrum"),
])
def test_domain_refusals_name_their_key(tmp_path, capsys, argv, message):
    out_csv = tmp_path / "x.csv"
    extra = () if argv[0] == "scar" else ("--out", str(out_csv))
    code, out, err = run(capsys, *argv, *_RES, *extra)
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert not out_csv.exists()


_HUGE_CYCLES = ("--cycles", "1000000000000")


def _refused_for_series_budget(code, out, err, n_series, cycles):
    need = n_series * (cycles + 1) * 8
    assert (code, out) == (3, "")
    assert err == (f"capability error: {n_series} series over {cycles} cycles "
                   f"need {need} bytes, over the series budget of 2000000000\n")


@pytest.mark.parametrize("model", ["effective", "full"])
def test_dynamics_refuses_cycles_over_the_series_budget(tmp_path, capsys,
                                                        no_solve, model):
    out_csv = tmp_path / "x.csv"
    for initial, n_series in (("tp", 3), ("random:4:7", 12)):
        result = run(capsys, "dynamics", "--L", "6", *_RES, "--model", model,
                     "--initial", initial, *_HUGE_CYCLES, "--out", str(out_csv))
        _refused_for_series_budget(*result, n_series, 10 ** 12)
    assert not out_csv.exists()


def test_compare_refuses_cycles_over_the_series_budget(tmp_path, capsys,
                                                       no_solve):
    out_csv = tmp_path / "x.csv"
    result = run(capsys, "compare", "--L", "6", *_RES, *_HUGE_CYCLES,
                 "--out", str(out_csv))
    _refused_for_series_budget(*result, 3, 10 ** 12)
    # the default is 50 g cycles
    result = run(capsys, "compare", "--L", "6", "--family", "0,0,+",
                 "--g", "1e12", "--u", "0.5", "--out", str(out_csv))
    _refused_for_series_budget(*result, 3, 5 * 10 ** 13)
    assert not out_csv.exists()


@pytest.mark.parametrize("bundle", ["quench-series", "revival-spectra",
                                    "model-comparison"])
def test_reproduce_refuses_cycles_over_the_series_budget(tmp_path, capsys,
                                                         no_solve, bundle):
    outdir = tmp_path / "b"
    result = run(capsys, "reproduce", "--bundle", bundle, *_HUGE_CYCLES,
                 "--outdir", str(outdir))
    _refused_for_series_budget(*result, 30, 10 ** 12)
    assert not outdir.exists()


def test_compare_refuses_a_default_cycle_count_that_overflows(tmp_path, capsys,
                                                              no_solve):
    # 50 g is inf: refused by the series budget, not rounded to an int
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "compare", "--L", "6", "--family", "0,0,+",
                         "--g", "1e308", "--u", "0.5", "--out", str(out_csv))
    assert (code, out) == (3, "")
    assert err == ("capability error: 3 series over inf cycles need inf "
                   "bytes, over the series budget of 2000000000\n")
    assert not out_csv.exists()


def test_revival_spectra_refuses_cycles_over_the_closed_form_budget(
        tmp_path, capsys, no_solve):
    # 30 series fit, but the closed forms' phase arrays at L = 14 do not
    outdir = tmp_path / "b"
    result = run(capsys, "reproduce", "--bundle", "revival-spectra",
                 "--cycles", "8000000", "--outdir", str(outdir))
    _refused_for_series_budget(*result, math.comb(14, 7), 8000000)
    assert not outdir.exists()
    # the largest count the L = 14 closed forms admit
    admitted = 2_000_000_000 // (8 * math.comb(14, 7)) - 1
    from scarkit.dynamics import check_cycles
    check_cycles(admitted, math.comb(14, 7))
    result = run(capsys, "reproduce", "--bundle", "revival-spectra",
                 "--cycles", str(admitted + 1), "--outdir", str(outdir))
    _refused_for_series_budget(*result, math.comb(14, 7), admitted + 1)


@pytest.mark.parametrize("name, argv", [
    ("g", ("spectrum", "--L", "6", "--family", "0,0,+", "--g", "inf",
           "--u", "0.5", "--out", "{tmp}/x.csv")),
    ("u", ("dynamics", "--L", "6", "--family", "0,0,+", "--g", "50",
           "--u", "nan", "--out", "{tmp}/x.csv")),
    ("omega", ("dynamics", "--L", "6", "--g", "50", "--u", "0.5",
               "--u-over-g", "0.7", "--model", "full", "--omega=-inf",
               "--out", "{tmp}/x.csv")),
    ("omega", ("scar", "--L", "6", "--g", "50", "--u", "0.5", "--omega",
               "nan", "--u-over-g", "0.7", "--per-state", "{tmp}/x.csv")),
    ("g", ("compare", "--L", "6", "--family", "0,0,+", "--g=-inf", "--u",
           "0.5", "--out", "{tmp}/x.csv")),
    ("omega", ("resonance", "--grid", "1:80:5,1:80:5", "--omega", "inf",
               "--u", "0.5", "--out", "{tmp}/x.csv")),
], ids=["spectrum-g-inf", "dynamics-u-nan", "full-omega-minus-inf",
        "scar-omega-nan", "compare-g-minus-inf", "resonance-omega-inf"])
def test_non_finite_drive_parameters_are_refused_by_name(tmp_path, capsys,
                                                         no_solve, name, argv):
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {name}: must be finite, got ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, key", [
    (("basis", "--L", "6", "--out", "{missing}/x.csv"), "out"),
    (("scar", "--L", "6", *_RES, "--per-state", "{missing}/s.csv"),
     "per_state"),
    (("dynamics", "--L", "6", *_RES, "--out", "{tmp}/d.csv", "--fft",
      "--fft-out", "{missing}/f.csv"), "fft_out"),
    (("compare", "--L", "6", *_RES, "--cycles", "8",
      "--manifest", "{missing}/m.json"), "manifest"),
    (("reproduce", "--bundle", "ratio-landscape",
      "--outdir", "{missing}/deeper"), "outdir"),
], ids=["basis-out", "scar-per-state", "dynamics-fft-out", "manifest",
        "reproduce-outdir"])
def test_missing_output_directory_is_refused(tmp_path, capsys, no_solve,
                                             argv, key):
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {key}: directory '{missing}' of ")
    assert err.endswith(" does not exist\n")
    assert os.listdir(tmp_path) == []


def test_output_path_that_is_a_directory_is_refused(tmp_path, capsys):
    code, out, err = run(capsys, "basis", "--L", "6", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"config error: out: '{tmp_path}' is a directory\n"


# Former tracebacks that the CLI fuzz test (tests/test_cli_fuzz.py) found.

def test_empty_required_output_path_is_refused(tmp_path, capsys, no_solve):
    for argv in (("dynamics", "--L", "6", *_RES, "--cycles", "8", "--out="),
                 ("resonance", "--grid", "1:80:5,1:80:5", "--omega", "20",
                  "--u", "0.5", "--out=")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "config error: out: empty path\n"


@pytest.mark.parametrize("argv, key", [
    (("spectrum", "--L", "6", *_RES, "--out="), "out"),
    (("scar", "--L", "6", *_RES, "--per-state="), "per_state"),
    (("dynamics", "--L", "6", *_RES, "--cycles", "8", "--fft",
      "--out", "{tmp}/d.csv", "--fft-out="), "fft_out"),
    (("basis", "--L", "6", "--out", "{tmp}/b.csv", "--manifest="), "manifest"),
    (("graph", "--L", "6", "--out="), "out"),
    (("reproduce", "--bundle", "ratio-landscape", "--outdir="), "outdir"),
])
def test_empty_path_is_refused_for_every_output(tmp_path, capsys, monkeypatch,
                                                argv, key):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"config error: {key}: empty path\n"
    assert os.listdir(tmp_path) == []


_GRID = ("--grid", "1:80:5,1:80:5", "--omega", "20", "--u", "0.5")


@pytest.mark.parametrize("argv, first, later", [
    (("basis", "--L", "6"), "out", "manifest"),
    (("hamiltonian", "--L", "6", *_RES), "out", "manifest"),
    (("resonance", *_GRID), "out", "manifest"),
    (("spectrum", "--L", "6", *_RES), "out", "manifest"),
    (("graph", "--L", "6"), "out", "manifest"),
    (("scar", "--L", "6", *_RES), "per_state", "manifest"),
    (("dynamics", "--L", "6", *_RES, "--cycles", "64", "--fft"),
     "out", "fft_out"),
    (("dynamics", "--L", "6", *_RES, "--cycles", "64"), "out", "manifest"),
    (("dynamics", "--L", "6", *_RES, "--cycles", "64", "--fft",
      "--out", "d.csv"), "fft_out", "manifest"),
    (("compare", "--L", "6", *_RES, "--cycles", "4"), "out", "manifest"),
], ids=["basis", "hamiltonian", "resonance", "spectrum", "graph", "scar",
        "dynamics-fft", "dynamics", "dynamics-fft-manifest", "compare"])
def test_two_outputs_at_one_path_are_refused(tmp_path, capsys, monkeypatch,
                                             no_solve, argv, first, later):
    # the later file was written over the earlier one, and the run exited 0
    monkeypatch.chdir(tmp_path)
    flag = {k: "--" + k.replace("_", "-") for k in (first, later)}
    code, out, err = run(capsys, *argv, flag[first], "x.csv",
                         flag[later], str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == (f"config error: {later}: '{tmp_path / 'x.csv'}' is the "
                   f"{first} path too\n")
    assert os.listdir(tmp_path) == []


def test_compare_default_cycles_below_one_exits_2(tmp_path, capsys):
    # 50 g rounds to 0 cycles for g <= 0.01, the rule of an explicit --cycles 0
    code, out, err = run(capsys, "compare", "--L", "6", "--family", "0,0,+",
                         "--g", "0.001", "--u", "0.5",
                         "--out", str(tmp_path / "c.csv"))
    assert (code, out) == (2, "")
    assert err == "config error: cycles: must be at least 1, got 0\n"
    assert os.listdir(tmp_path) == []


def test_malformed_json_config_is_refused(tmp_path, capsys):
    config = tmp_path / "truncated.json"
    config.write_text("{")
    code, out, err = run(capsys, "basis", "--L", "6", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: config: {config} is not valid JSON")


@pytest.mark.parametrize("config, key", [
    ({"L": [6]}, "L"), ({"L": 6.5}, "L"), ({"L": True}, "L"),
    ({"L": 6, "fft": "maybe"}, "fft"),
])
def test_json_config_values_go_through_the_option_coercion(tmp_path, capsys,
                                                           no_solve, config,
                                                           key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"config": config}))
    code, out, err = run(capsys, "dynamics", "--config", str(path), *_RES,
                         "--cycles", "8", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {key}: ")


def test_start_with_the_wrong_particle_count_is_refused(tmp_path, capsys):
    # the default start tp holds L/2 = 3 particles, the sector N = 1
    code, out, err = run(capsys, "dynamics", "--L", "6", "--N", "1",
                         "--g", "1", "--u", "0.5", "--omega", "20",
                         "--u-over-g", "0.7", "--cycles", "8",
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == "config error: initial: state has 3 particles, sector holds 1\n"


def test_overflowing_hop_phase_is_refused(tmp_path, capsys):
    # delta * T = 1e12 * 2 pi / 1e-300 overflows
    code, out, err = run(capsys, "spectrum", "--L", "6", "--g", "1",
                         "--u", "0.5", "--omega", "1e-300",
                         "--u-over-g", "1e12")
    assert (code, out) == (2, "")
    assert err.startswith("config error: hop phase ")
    assert err.endswith(" per period is not finite\n")


@pytest.mark.parametrize("argv, message", [
    # 2 u overflows: the g-U amplitude is inf, and eigh met a NaN matrix
    (("spectrum", "--L", "6", "--g", "1", "--u", "1e308", "--omega", "1e-300",
      "--u-over-g", "0.7"), "drive amplitude u = 1e+308 at hop phase "),
    (("resonance", "--grid", "1:80:5,1:80:5", "--omega", "20",
      "--u", "1e308"), "drive amplitude u = 1e+308 at hop phase "),
    # a subnormal phase: -1j / phase overflows, and the amplitude is NaN
    (("spectrum", "--L", "6", "--g", "1", "--u", "0.5", "--omega", "1e300",
      "--u-over-g", "0.9999999999999999"), "drive amplitude u = 0.5 at "),
    # delta * T underflows to 0: a division by zero
    (("spectrum", "--L", "6", "--g", "1e-300", "--u", "0.5",
      "--omega", "1e308", "--u-over-g", "0.7"), "hop phase "),
])
def test_non_finite_general_amplitude_is_refused(tmp_path, capsys, argv,
                                                 message):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("config error: " + message)
    assert os.listdir(tmp_path) == []


def test_exact_drive_with_overflowing_levels_is_refused(tmp_path, capsys):
    # u = 1e308 puts the half-period levels at +-inf
    code, out, err = run(capsys, "dynamics", "--L", "6", "--g", "1",
                         "--u", "1e308", "--omega", "20", "--u-over-g", "0.7",
                         "--model", "full", "--cycles", "8",
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (3, "")
    assert err.startswith("numerical error: half-period phases tau * e "
                          "overflow")
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
    from scarkit import observables
    from scarkit.hamiltonian import build_effective_resonant
    from scarkit.observables import StateVector, shannon_entropy
    from scarkit.resonance import resonant_family
    from scarkit.spectral import diagonalize
    monkeypatch.setattr(observables, "PROFILE_BATCH", 16)
    per_state = tmp_path / "per.csv"
    code, _, _ = run(capsys, "scar", "--L", "8",
                     "--family", ",".join(map(str, family)),
                     "--g", "50", "--u", "0.5", "--per-state", str(per_state))
    assert code == 0
    table = np.genfromtxt(per_state, delimiter=",", names=True)
    basis = SectorBasis(8, 4)
    spec = diagonalize(build_effective_resonant(
        basis, resonant_family(*family).params(g=50.0, u=0.5), *family))
    expected = [shannon_entropy(StateVector(spec.vectors.columns([a])[:, 0],
                                            basis))
                for a in range(spec.size)]
    np.testing.assert_allclose(table["S_IE"], expected, rtol=1e-14, atol=0)


def test_scar_per_state_materializes_only_kernel_columns(tmp_path, capsys,
                                                         monkeypatch):
    # S_EE and S_IE come from one pass over real pair columns; the complex
    # columns are read once, for the scar state's kernel projection
    from scarkit.spectral import ChiralPairVectors
    asked, columns = [], ChiralPairVectors.columns

    def recording(self, indices):
        asked.append(sorted(np.asarray(indices).tolist()))
        return columns(self, indices)

    monkeypatch.setattr(ChiralPairVectors, "columns", recording)
    per_state = tmp_path / "per.csv"
    code, _, _ = run(capsys, "scar", "--L", "8", *_RES,
                     "--per-state", str(per_state))
    assert code == 0
    table = np.genfromtxt(per_state, delimiter=",", names=True)
    kernel = np.flatnonzero(table["is_zero_mode"]).tolist()
    assert len(kernel) == 6
    assert asked == [kernel]


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


def _parse_exit(capsys, parse, argv):
    """The exit code and the stdout and stderr of an argparse exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in cli._COMMANDS),
    *([name, "--bogus"] for name in cli._COMMANDS),
    *([name, "--threads"] for name in cli._COMMANDS),
    *([name, "--threads", "x"] for name in cli._COMMANDS),
    ["bogus"], [], ["--help"], ["--L", "8", "basis"], ["-h", "basis"]],
    ids=" ".join)
def test_command_scoped_parser_matches_the_full_parser(capsys, argv):
    # main parses with its subcommand's options alone; every message
    # argparse prints is the full parser's
    full = _parse_exit(capsys, cli.build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert _parse_exit(capsys, cli.main, argv) == full


def test_main_builds_only_its_subcommands_options(capsys, monkeypatch):
    built = []

    def spy(command=None):
        parser = build_parser(command)
        (subs,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        built.append({name: len(sub._actions)
                      for name, sub in subs.choices.items()})
        return parser
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "basis", "--L", "4")[0] == 0
    (actions,) = built
    assert list(actions) == list(cli._COMMANDS)
    assert actions["basis"] > 1
    assert {n for name, n in actions.items() if name != "basis"} == {1}  # -h


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
    """Equal-length columns of every kind the writer takes, with repeats;
    n = 0 rows is a header-only table."""
    n = draw(st.integers(0, 30))

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


def test_empty_operator_writes_a_header_only_table(tmp_path, capsys):
    path = tmp_path / "h.csv"
    code, out, _ = run(capsys, "hamiltonian", "--L", "4", "--N", "0", *_RES,
                       "--out", str(path))
    assert (code, json.loads(out)["nnz"]) == (0, 0)
    assert path.read_text() == "row,col,real,imag\n"


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
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5"),
    ("reproduce", "--bundle", "revival-spectra", "--cycles", "64"),
    ("dynamics", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5",
     "--model", "full", "--cycles", "4"),
    ("reproduce", "--bundle", "ratio-landscape"),
    ("compare", "--L", "6", "--family", "0,0,+", "--g", "1", "--u", "0.5",
     "--cycles", "4"),
])
def test_dense_threshold_zero_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "x"
    flag = "--outdir" if argv[0] == "reproduce" else "--out"
    code, _, err = run(capsys, *argv, flag, str(target), "--dense-threshold", "0")
    assert code == 2 and "dense_threshold" in err
    assert not target.exists()


def test_hamiltonian_takes_no_dense_threshold(tmp_path, capsys, monkeypatch):
    # it diagonalizes nothing: the flag is a usage error, the config key is
    # unknown and the environment value is ignored, as for `basis`
    argv = ("hamiltonian", "--L", "6", "--family", "0,0,+", "--g", "50",
            "--u", "0.5")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--dense-threshold", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dense-threshold 5" \
        in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dense_threshold = 5\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "config error: config: unknown key 'dense_threshold'\n"
    monkeypatch.setenv("SCARKIT_DENSE_THRESHOLD", "0")
    out_csv = tmp_path / "h.csv"
    code, _, err = run(capsys, *argv, "--out", str(out_csv))
    assert (code, err) == (0, "")
    manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    assert "dense_threshold" not in manifest["config"]


@pytest.mark.parametrize("argv, env, key", [
    (("reproduce", "--bundle", "ratio-landscape", "--outdir", "{tmp}/x"),
     {"SCARKIT_CYCLES": "x", "SCARKIT_DENSE_THRESHOLD": "y"}, "cycles"),
    (("resonance", "--grid", "1:2:3,1:2:3", "--out", "{tmp}/x.csv"),
     {"SCARKIT_U": "x", "SCARKIT_OMEGA": "y"}, "omega"),
], ids=["reproduce", "resonance"])
def test_two_bad_values_name_the_first_in_help_order(tmp_path, capsys,
                                                     monkeypatch, argv, env,
                                                     key):
    # options resolve in the order of the subcommand's own --help
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {key}: ")
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_refused(tmp_path, capsys, monkeypatch, threads):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "4")
    out_csv = tmp_path / "b.csv"
    code, out, err = run(capsys, "basis", "--L", "4", "--threads", threads,
                         "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err == f"config error: threads: must be at least 1, got {threads}\n"
    assert all(os.environ[var] == "4" for var in _THREAD_VARS)
    assert not out_csv.exists()


def test_no_threads_request_keeps_inherited_env(capsys, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "4")
    monkeypatch.delenv("SCARKIT_THREADS", raising=False)
    assert run(capsys, "basis", "--L", "4")[0] == 0
    assert all(os.environ[var] == "4" for var in _THREAD_VARS)


# runs argv through cli.main in a fresh interpreter and reports, last on
# stderr, OPENBLAS_NUM_THREADS as it stood when numpy was first imported
_FIRST_NUMPY_IMPORT = """
import os, sys
seen = []
class FirstImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
assert "numpy" not in sys.modules
sys.meta_path.insert(0, FirstImport())
from scarkit import cli
code = cli.main(sys.argv[1:])
print(f"exit {code}, numpy first imported with {seen}", file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ("spectrum", "--L", "6", *_RES),
    ("reproduce", "--bundle", "ratio-landscape", "--outdir", "{tmp}/rl"),
], ids=["spectrum", "reproduce"])
def test_numpy_first_loads_after_threads_sets_the_pools(tmp_path, argv):
    env = {**os.environ, **dict.fromkeys(_THREAD_VARS, "4")}
    env.pop("SCARKIT_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_NUMPY_IMPORT,
         *(a.format(tmp=tmp_path) for a in argv), "--threads", "1"],
        capture_output=True, text=True, env=env)
    assert proc.stderr.splitlines()[-1] == \
        "exit 0, numpy first imported with ['1']", proc.stderr


def test_non_hermitian_build_exits_3(capsys, monkeypatch):
    from scarkit import hamiltonian
    monkeypatch.setattr(hamiltonian, "resonant_amplitudes",
                        lambda *args: (1 + 1j, 1 + 1j, 1 + 1j))
    code, out, err = run(capsys, "hamiltonian", "--L", "6", "--family", "0,0,+",
                         "--g", "50", "--u", "0.5")
    assert code == 3 and out == ""
    assert err == "numerical error: constructed matrix is not exactly Hermitian\n"


@pytest.mark.parametrize("sector", [(), ("--N", "0")])
def test_overflowing_drive_amplitude_exits_2(capsys, sector):
    # 2 u overflows: refused by name before the amplitudes reach a table,
    # also in a sector with no hops at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "hamiltonian", "--L", "6", *sector,
                             "--family", "0,0,+", "--g", "50", "--u", "1e308")
    assert code == 2 and out == ""
    assert err.startswith("config error: drive amplitude u = 1e+308 ")


@pytest.mark.parametrize("kind", ["onsite", "half1", "half2", "effective"])
def test_overflowing_static_energies_exit_2(tmp_path, capsys, kind):
    # U = 2 g overflows to inf at g = 1e308, which wrote NaN diagonal
    # entries (onsite) or failed the Hermitian check (half1); at g = 1e307
    # g and U are finite, but g * D overflows at L = 12
    out = tmp_path / "h.csv"
    for L, g, message in (("6", "1e308", "U must be finite, got inf\n"),
                          ("12", "1e307", "g = 1e+307 and U = 2e+307 make "
                           "the static energies overflow at L = 12\n")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "hamiltonian", "--L", L,
                                    "--family", "0,0,+", "--g", g, "--u", "0.5",
                                    "--kind", kind, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "config error: " + message
        assert not out.exists()


@pytest.mark.parametrize("command", [("spectrum",),
                                     ("dynamics", "--cycles", "8")])
def test_levels_overflowing_when_folded_exit_3(tmp_path, capsys, command):
    # omega = g = 1e-300 with levels near 1e12: level / omega overflows, which
    # wrote -inf quasienergies (spectrum) or raised LinAlgError (dynamics)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, "--L", "6", "--family", "0,0,+",
                             "--g", "1e-300", "--u", "1e12",
                             "--out", str(tmp_path / "x.csv"))
    assert code == 3 and out == "" and not (tmp_path / "x.csv").exists()
    assert err == ("numerical error: levels / omega overflow when folded; "
                   "the drive parameters are out of range\n")


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
        assert err == (f"config error: initial: state has {sites} sites, "
                       "sector has 6\n")
        assert not out_csv.exists()
    for initial in ("110100", "bits:110100", "tp", "te_p:2", "te_h:3"):
        code, out, _ = run(capsys, command, *args, "--initial", initial,
                           "--out", str(tmp_path / f"{command}_ok.csv"))
        assert code == 0 and json.loads(out)["initial"] == \
            initial.removeprefix("bits:")


def _full_columns(L, initial, cycles):
    """F, S_EE and P_t computed directly from the exact drive's states."""
    from scarkit import (SectorBasis, StateVector, entanglement_entropy,
                         fock_vector, resonant_family, tower_states)
    from scarkit.dynamics import exact_drive
    basis = SectorBasis(L, L // 2)
    params = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    states = exact_drive(basis, params).propagate(
        fock_vector(basis, initial).amplitudes, np.arange(cycles + 1))
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
    eaves, basis = tower_states(L).eaves, SectorBasis(L, N)
    for q in range(1, N + 1):
        te_p = cli._parse_initial(f"te_p:{q}", basis)["starts"][0]
        te_h = cli._parse_initial(f"te_h:{q}", basis)["starts"][0]
        assert te_p == FockState.from_string(
            "1" * (N - 1) + "0" * q + "1" + "0" * (N - q))
        assert te_h == FockState.from_string(
            "1" * (N - q) + "0" + "1" * q + "0" * (N - 1))
        assert te_p == eaves[N - 2 + q] and te_h == eaves[N - q]


def test_excursion_initial_words_at_L6():
    for text, word in (("te_p:2", "110010"), ("te_h:3", "011100")):
        (state,) = cli._parse_initial(text, SectorBasis(6, 3))["starts"]
        assert state.to_string() == word


def test_excursion_initial_needs_a_tower(tmp_path, capsys):
    code, _, err = run(capsys, "dynamics", "--L", "2", "--family", "0,0,+",
                       "--g", "50", "--u", "0.5", "--initial", "te_p:1",
                       "--observables", "F", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "tower needs L = 2N with N >= 2" in err


def _csv_table(path) -> dict:
    lines = path.read_text().splitlines()
    rows = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


@pytest.mark.parametrize("N, word", [(0, "0000"), (4, "1111")])
def test_one_state_sector_keeps_unit_fidelity(tmp_path, capsys, N, word):
    # an empty parity block: the lone state is the whole, static kernel
    sector = ("--L", "4", "--N", str(N), *_RES, "--initial", word)
    dyn, cmp_ = tmp_path / "d.csv", tmp_path / "c.csv"
    code, _, err = run(capsys, "dynamics", *sector, "--observables", "F",
                       "--out", str(dyn))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "compare", *sector, "--cycles", "3",
                         "--out", str(cmp_))
    assert (code, err) == (0, "")
    assert json.loads(out)["max_abs_diff"] < 1e-12
    f_dyn, compared = _csv_table(dyn)["F"], _csv_table(cmp_)
    assert len(f_dyn) == 4097       # the default cycles
    for column in (f_dyn, compared["F_full"], compared["F_eff"]):
        np.testing.assert_allclose(column, 1.0, rtol=0, atol=1e-12)


def test_zero_u_resonant_family_is_all_kernel(capsys):
    # every stored entry is 0 at u = 0; the stored positions stay chiral
    code, out, _ = run(capsys, "spectrum", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0")
    assert code == 0 and json.loads(out)["zero_mode_count"] == 20
    code, out, _ = run(capsys, "scar", "--L", "6", "--family", "0,0,+",
                       "--g", "50", "--u", "0")
    assert code == 0 and json.loads(out)["S_EE_s0"] == 0.0
    assert "-0.0" not in out


def test_json_folds_negative_zero_as_csv_does():
    assert math.copysign(1.0, cli._json_ready(-0.0)) == 1.0
    assert cli._json_ready({"x": [np.float64(-0.0), -1e-300]}) == \
        {"x": [0.0, -1e-300]}


_HALF = "needs the half-filled tower (L = 2N >= 4)"


@pytest.mark.parametrize("model", ["effective", "full"])
@pytest.mark.parametrize("argv, err", [
    (("--L", "6", "--N", "2", "--initial", "110000"),
     f"observables: P_t {_HALF}, got L=6, N=2"),
    (("--L", "3", "--N", "1", "--initial", "100", "--observables", "EE,Pt"),
     f"observables: P_t {_HALF}, got L=3, N=1"),
    (("--L", "6", "--N", "2", "--initial", "random:2:7", "--observables", "F"),
     "initial: random starts need the half-filled tower (L = 2N >= 4), "
     "got L=6, N=2"),
    (("--L", "2", "--initial", "random:1:7", "--observables", "F"),
     "initial: random starts need the half-filled tower (L = 2N >= 4), "
     "got L=2, N=1"),
    *[(("--L", "1", "--N", N, "--initial", N, "--observables", "F,EE"),
       "observables: S_EE needs a half-chain cut (L >= 2), got L=1")
      for N in ("0", "1")],
], ids=["Pt-N2", "Pt-L3", "random-N2", "random-L2", "EE-L1-N0", "EE-L1-N1"])
def test_tower_reads_off_half_filling_refused_before_any_solve(
        tmp_path, capsys, no_solve, model, argv, err):
    out_csv = tmp_path / "x.csv"
    code, out, got = run(capsys, "dynamics", *argv, *_RES, "--model", model,
                         "--out", str(out_csv))
    assert (code, out, got) == (2, "", f"config error: {err}\n")
    assert not out_csv.exists()


def test_spectrum_kernel_bound_only_on_the_chiral_route(capsys):
    # |n+ - n-| bounds the kernel of a chiral H; the general effective H
    # (the raw route) is not chiral, and its kernel is empty here
    _, out, _ = run(capsys, "spectrum", "--L", "8", *_RES)
    assert json.loads(out)["kernel_bound"] == 6
    _, out, _ = run(capsys, "spectrum", "--L", "8", "--g", "50", "--u", "0.5",
                    "--omega", "20", "--u-over-g", "0.7")
    data = json.loads(out)
    assert (data["zero_mode_count"], data["kernel_bound"]) == (0, None)


def test_all_zero_raw_spectrum_keeps_its_kernel(tmp_path, capsys):
    # N = 0: H = [[0]] on the raw route, whose kernel tolerance is then 0
    out_csv = tmp_path / "s.csv"
    code, out, _ = run(capsys, "spectrum", "--L", "4", "--N", "0", "--g", "50",
                       "--u", "0.5", "--omega", "20", "--u-over-g", "0.7",
                       "--out", str(out_csv))
    assert code == 0 and json.loads(out)["zero_mode_count"] == 1
    header, row = out_csv.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["is_zero_mode"] == "1"


def test_off_half_filling_runs_f_and_ee(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code, _, _ = run(capsys, "dynamics", "--L", "6", "--N", "2", *_RES,
                     "--initial", "110000", "--observables", "F,EE",
                     "--cycles", "8", "--out", str(out_csv))
    assert code == 0
    assert _csv_table(out_csv)["F"][0] == pytest.approx(1.0, abs=1e-12)


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

    picker = dynamics.exact_drive

    def counting(*args, **kw):
        built.append(1)
        return picker(*args, **kw)

    monkeypatch.setattr(dynamics, "exact_drive", counting)
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


def test_quench_series_diagonalizes_once_per_chain_length(tmp_path, capsys,
                                                         monkeypatch):
    from scarkit import spectral
    solved = []

    def counting(ham, *args, **kw):
        solved.append(ham.basis.L)
        return real_diagonalize(ham, *args, **kw)

    real_diagonalize = spectral.diagonalize
    monkeypatch.setattr(spectral, "diagonalize", counting)
    runner, _, _ = cli._BUNDLES["quench-series"]
    result = runner({"cycles": 64}, str(tmp_path), (6, 8))
    assert solved == [6, 8]
    # each start's CSV is the one a separate `dynamics` run writes
    assert len(result["files"]) == 6
    for path in result["files"][:3]:
        stem = os.path.basename(path)[len("quench_L6_"):-len(".csv")]
        initial = stem.replace("-", ":")
        alone = tmp_path / "alone.csv"
        code, _, _ = run(capsys, "dynamics", "--L", "6", "--family", "0,0,+",
                         "--g", "50", "--u", "0.5", "--cycles", "64",
                         "--initial", initial, "--out", str(alone),
                         "--manifest", os.devnull)
        assert code == 0
        assert alone.read_bytes() == open(path, "rb").read()


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
