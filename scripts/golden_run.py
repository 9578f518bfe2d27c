#!/usr/bin/env python3
"""Golden run: desk-scale CLI outputs and their digests, for byte-identity checks.

Runs a fixed list of argv through `scarkit.cli.main` in this process, with the
working directory set to OUTDIR and relative output paths, so no digest
embeds the directory.  Command i leaves `cmd_<i>.txt` holding its argv, exit
code, stdout and stderr; a command that raises is recorded as
`raised <Type>` and the run goes on.  Last, OUTDIR/SHA256SUMS lists the
sha256 of every file under OUTDIR, sorted by path.

Compare two source trees:

    PYTHONPATH=<old>/src python scripts/golden_run.py A
    PYTHONPATH=<new>/src python scripts/golden_run.py B
    diff -r A B

The five desk bundles dominate the run time; spectral-map alone spends about
2 min in its L = 16 SVD.
"""

import contextlib
import hashlib
import io
import os
import sys

_RES = ("--family", "0,0,+", "--g", "50", "--u", "0.5")
_RAW = ("--g", "50", "--u", "0.5", "--omega", "20", "--u-over-g", "0.7")

COMMANDS = [
    # basis and operators
    ("basis", "--L", "8", "--out", "basis_L8.csv"),
    ("basis", "--L", "7", "--N", "3"),
    *[("hamiltonian", "--L", "8", *_RES, "--kind", kind,
       "--out", f"h_{kind}.csv")
      for kind in ("resonant", "onsite", "hop", "half1", "half2", "effective")],
    ("hamiltonian", "--L", "8", *_RAW, "--kind", "effective",
     "--out", "h_raw.csv"),
    ("resonance", "--family", "0,1,-"),
    ("resonance", "--grid", "1:80:25,1:80:30", "--omega", "20", "--u", "0.5",
     "--out", "ratio_grid.csv"),
    # spectra, graph and scar reports
    ("spectrum", "--L", "10", *_RES, "--out", "spectrum_L10.csv"),
    ("spectrum", "--L", "8", "--family", "0,1,-", "--g", "21", "--u", "0.5",
     "--out", "spectrum_L8_01m.csv"),
    ("spectrum", "--L", "8", *_RAW, "--out", "spectrum_L8_raw.csv"),
    ("graph", "--L", "10"),
    ("graph", "--L", "10", "--components", "g,g-U", "--out", "graph_L10.json"),
    ("graph", "--L", "6", "--emit", "dot"),
    ("graph", "--L", "6", "--emit", "dot", "--out", "graph_L6.dot"),
    ("scar", "--L", "12", *_RES, "--per-state", "scar_L12.csv"),
    ("scar", "--L", "10", "--family", "0,1,-", "--g", "21", "--u", "0.5"),
    ("scar", "--L", "8", *_RAW, "--manifest", "scar_raw.manifest.json"),
    # dynamics, both models
    ("dynamics", "--L", "10", *_RES, "--cycles", "512", "--out", "dyn_tp.csv",
     "--fft"),
    ("dynamics", "--L", "10", *_RES, "--cycles", "256", "--initial", "te_p:2",
     "--out", "dyn_tep2.csv"),
    ("dynamics", "--L", "10", *_RES, "--cycles", "256", "--initial", "te_h:3",
     "--observables", "Pt,F", "--out", "dyn_teh3.csv", "--fft",
     "--fft-out", "dyn_teh3_spectrum.csv"),
    ("dynamics", "--L", "10", *_RES, "--cycles", "256",
     "--initial", "random:4:7", "--out", "dyn_random.csv"),
    ("dynamics", "--L", "8", *_RAW, "--cycles", "128", "--initial", "11001100",
     "--out", "dyn_raw.csv"),
    ("dynamics", "--L", "8", *_RES, "--model", "full", "--cycles", "200",
     "--out", "dyn_full_tp.csv"),
    ("dynamics", "--L", "8", *_RES, "--model", "full", "--cycles", "100",
     "--initial", "random:3:7", "--observables", "F,EE", "--out",
     "dyn_full_random.csv"),
    ("compare", "--L", "8", "--family", "0,0,+", "--g", "20", "--u", "0.5",
     "--cycles", "150", "--out", "compare_L8.csv"),
    ("compare", "--L", "8", "--family", "0,0,+", "--g", "20", "--u", "0.5",
     "--cycles", "80", "--manifest", "compare_only.manifest.json"),
    # the desk bundles
    ("reproduce", "--bundle", "spectral-map", "--outdir", "b_spectral_map"),
    ("reproduce", "--bundle", "quench-series", "--cycles", "512",
     "--outdir", "b_quench"),
    ("reproduce", "--bundle", "revival-spectra", "--cycles", "1024",
     "--outdir", "b_revival"),
    ("reproduce", "--bundle", "model-comparison", "--cycles", "60",
     "--outdir", "b_model_comparison"),
    ("reproduce", "--bundle", "ratio-landscape", "--outdir", "b_ratio"),
    ("reproduce", "--bundle", "ratio-landscape", "--outdir", "b_ratio_m",
     "--manifest", "b_ratio_m.manifest.json"),
    # refusals: exit 2 and exit 3
    ("basis",),
    ("scar", "--L", "10", "--N", "4", *_RES),
    ("spectrum", "--L", "8", *_RES, "--dense-threshold", "10"),
    ("dynamics", "--L", "6", *_RES, "--cycles", "0", "--out", "never.csv"),
    ("dynamics", "--L", "6", *_RES, "--initial", "te_p:9", "--out", "never.csv"),
    ("reproduce", "--bundle", "nope"),
    ("reproduce", "--bundle", "spectral-map", "--scale", "paper",
     "--outdir", "b_spectral_map_paper"),
    ("reproduce", "--bundle", "model-comparison", "--scale", "paper",
     "--dense-threshold", "12869", "--outdir", "b_model_comparison_paper"),
    # former tracebacks, both models
    *[("dynamics", "--L", "6", *_RES, "--model", model, "--cycles", "16",
       *extra, "--out", "never.csv")
      for model in ("effective", "full")
      for extra in (("--initial", "random:0:7"), ("--initial", "random:-1:7"),
                    ("--observables", ","))],
]


def _run_one(argv) -> str:
    from scarkit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = f"exit {cli.main(list(argv))}"
        except (Exception, SystemExit) as exc:   # recorded, not fatal
            result = f"raised {type(exc).__name__}"
    return (f"argv: {' '.join(argv)}\n{result}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def run(outdir: str, commands=COMMANDS) -> int:
    """Run `commands` with cwd = outdir; write their records and SHA256SUMS."""
    outdir = os.path.abspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for i, argv in enumerate(commands):
            with open(f"cmd_{i:02d}.txt", "w") as fh:
                fh.write(_run_one(argv))
        sums = {}
        for root, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(root, name))
                with open(path, "rb") as fh:
                    sums[path] = hashlib.sha256(fh.read()).hexdigest()
        sums.pop("SHA256SUMS", None)
        with open("SHA256SUMS", "w") as fh:
            fh.writelines(f"{sums[p]}  {p}\n" for p in sorted(sums))
    finally:
        os.chdir(here)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(run(sys.argv[1]))
