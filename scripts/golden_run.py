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
    python scripts/golden_run.py --compare A B

The compare mode prints one line per file that is not byte-identical in A
and B: its path and, for a CSV or JSON file of the same shape, the largest
|delta| over its numeric cells (JSON: its leaves).  It exits 1 when any
file differs or exists on one side only, else 0.

The five desk bundles dominate the run time; spectral-map alone spends over
a minute on its L = 16 chiral factors.
"""

import contextlib
import hashlib
import io
import json
import math
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
    # omega/2 = 0.5 < s_max: the levels wrap when folded
    ("spectrum", "--L", "10", "--family", "0,0,+", "--g", "1", "--u", "0.5",
     "--out", "spectrum_L10_g1.csv"),
    ("spectrum", "--L", "8", "--family", "0,1,-", "--g", "21", "--u", "0.5",
     "--out", "spectrum_L8_01m.csv"),
    ("spectrum", "--L", "8", *_RAW, "--out", "spectrum_L8_raw.csv"),
    ("graph", "--L", "10"),
    ("graph", "--L", "10", "--components", "g,g-U", "--out", "graph_L10.json"),
    # several hook rounds: the {g-U, g} blocks of L = 14
    ("graph", "--L", "14", "--components", "g-U,g", "--out", "graph_L14.json"),
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
    # L = 7, N = 3: S_EE across the uneven cut 3 | 4, blocks C(3,m) x C(4,3-m)
    ("dynamics", "--L", "7", "--N", "3", *_RES, "--initial", "1110000",
     "--observables", "F,EE", "--cycles", "64", "--out", "dyn_L7_N3.csv"),
    ("dynamics", "--L", "8", *_RAW, "--cycles", "128", "--initial", "11001100",
     "--out", "dyn_raw.csv"),
    ("dynamics", "--L", "8", *_RES, "--model", "full", "--cycles", "200",
     "--out", "dyn_full_tp.csv"),
    ("dynamics", "--L", "8", *_RES, "--model", "full", "--cycles", "100",
     "--initial", "random:3:7", "--observables", "F,EE", "--out",
     "dyn_full_random.csv"),
    # 12,870 states, above FULL_DENSE_MAX: the exact drive's stepping route
    ("dynamics", "--L", "16", *_RES, "--model", "full", "--cycles", "2",
     "--observables", "F", "--out", "dyn_full_stepped.csv"),
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
    # cycle counts whose series exceed the budget: exit 3, nothing built
    *[("dynamics", "--L", "6", *_RES, "--model", model,
       "--cycles", "1000000000000", "--out", "never.csv")
      for model in ("effective", "full")],
    ("compare", "--L", "6", *_RES, "--cycles", "1000000000000",
     "--out", "never.csv"),
    ("compare", "--L", "6", "--family", "0,0,+", "--g", "1e12", "--u", "0.5",
     "--out", "never.csv"),
    ("reproduce", "--bundle", "quench-series", "--cycles", "1000000000000",
     "--outdir", "b_quench_huge"),
    # 50 g overflows to inf; the closed forms' phase arrays exceed the budget
    ("compare", "--L", "6", "--family", "0,0,+", "--g", "1e308", "--u", "0.5",
     "--out", "never.csv"),
    ("reproduce", "--bundle", "revival-spectra", "--cycles", "8000000",
     "--outdir", "b_revival_huge"),
    # 50 g rounds to 0 cycles, and empty output paths: exit 2, nothing written
    ("compare", "--L", "6", "--family", "0,0,+", "--g", "0.001", "--u", "0.5",
     "--out", "never.csv"),
    ("spectrum", "--L", "6", *_RES, "--out="),
    ("dynamics", "--L", "6", *_RES, "--out="),
    ("reproduce", "--bundle", "ratio-landscape", "--outdir="),
    # 2 u overflows, so the resonant amplitudes are not finite: exit 2
    ("hamiltonian", "--L", "6", "--family", "0,0,+", "--g", "50",
     "--u", "1e308"),
    # U = 2 g overflows, and at L = 12 g * D does: exit 2, nothing written
    ("hamiltonian", "--L", "6", "--family", "0,0,+", "--g", "1e308",
     "--u", "0.5", "--kind", "onsite", "--out", "never.csv"),
    ("hamiltonian", "--L", "12", "--family", "0,0,+", "--g", "1e307",
     "--u", "0.5", "--kind", "half1", "--out", "never.csv"),
    # refusals that name their key: exit 2
    ("basis", "--L", "6", "--N", "9"),
    ("basis", "--L", "0"),
    ("hamiltonian", "--L", "6", "--g", "-1", "--u", "0.5", "--omega", "20",
     "--u-over-g", "0.7"),
    ("resonance", "--grid", "1:inf:3,1:2:3", "--omega", "20", "--u", "0.5",
     "--out", "never.csv"),
    # one-state sectors (N = 0 and N = L): F stays 1
    ("dynamics", "--L", "4", "--N", "0", *_RES, "--initial", "0000",
     "--observables", "F", "--cycles", "16", "--out", "dyn_L4_N0.csv"),
    ("compare", "--L", "4", "--N", "4", *_RES, "--initial", "1111",
     "--cycles", "3", "--out", "compare_L4_N4.csv"),
    # ... whose odd-parity block is empty: every column lacks its v part
    ("spectrum", "--L", "4", "--N", "0", *_RES, "--out", "spectrum_L4_N0.csv"),
    ("dynamics", "--L", "3", "--N", "0", *_RES, "--initial", "000",
     "--observables", "F,EE", "--cycles", "16", "--out", "dyn_L3_N0.csv"),
    # L = 1 has no half-chain cut for S_EE: exit 2, nothing built
    ("dynamics", "--L", "1", "--N", "0", *_RES, "--initial", "0",
     "--observables", "F,EE", "--out", "never.csv"),
    # u = 0 on a resonant family: every stored entry is 0, the kernel is all
    ("spectrum", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0"),
    ("scar", "--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0"),
    # off half filling P_t and random starts have no tower: exit 2
    ("dynamics", "--L", "6", "--N", "2", *_RES, "--initial", "110000",
     "--out", "never.csv"),
    ("dynamics", "--L", "6", "--N", "2", *_RES, "--initial", "random:2:7",
     "--observables", "F", "--out", "never.csv"),
    # H = [[0]] on the raw route: its tolerance is 0, and the level is kernel
    ("spectrum", "--L", "4", "--N", "0", *_RAW, "--out",
     "spectrum_L4_N0_raw.csv"),
    # refused on every emit and model: exit 2, nothing written
    ("graph", "--L", "6", "--emit", "dot", "--components", "zz"),
    ("dynamics", "--L", "6", *_RES, "--model", "full", "--dense-threshold", "0",
     "--out", "never.csv"),
    # refused before any work: exit 2, no outdir and nothing written
    ("reproduce", "--bundle", "revival-spectra", "--cycles", "10",
     "--outdir", "b_revival_short"),
    ("dynamics", "--L", "6", *_RES, "--cycles", "10", "--fft",
     "--out", "never.csv"),
    ("basis", "--L", "4", "--threads", "0"),
    ("resonance", "--grid", "1:2:0,1:2:3", "--omega", "20", "--u", "0.5",
     "--out", "never.csv"),
    # options that the run would not read: exit 2, nothing written
    ("resonance", "--family", "0,0,+", "--grid", "1:2:3,1:2:3", "--omega",
     "20", "--u", "0.5", "--out", "never.csv"),
    ("dynamics", "--L", "6", *_RES, "--cycles", "100", "--out", "never.csv",
     "--fft-out", "never_fft.csv"),
    ("reproduce", "--bundle", "ratio-landscape", "--seed", "3", "--cycles",
     "5", "--outdir", "b_ratio_unread"),
    ("reproduce", "--bundle", "spectral-map", "--cycles", "64",
     "--outdir", "b_spectral_map_unread"),
    # argparse's help and usage errors: SystemExit, its text on stdout/stderr
    ("--help",),
    *[(name, "--help") for name in ("basis", "hamiltonian", "resonance",
                                    "spectrum", "graph", "scar", "dynamics",
                                    "compare", "reproduce")],
    ("bogus",),
    ("basis", "--bogus"),
    ("scar", "--threads", "x"),
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


def _files(root: str) -> set[str]:
    """Every file under root but SHA256SUMS, as a path relative to root."""
    found = {os.path.relpath(os.path.join(d, name), root)
             for d, _, names in os.walk(root) for name in names}
    return found - {"SHA256SUMS"}


def _leaves(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _cells(path: str):
    """A CSV file's cells or a JSON file's keys and leaves, in order; None
    for any other file."""
    with open(path) as fh:
        if path.endswith(".csv"):
            return [c for line in fh for c in line.rstrip("\n").split(",")]
        if path.endswith(".json"):
            return list(_leaves(json.load(fh)))
    return None


def _number(cell):
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def max_delta(a: str, b: str):
    """The largest |delta| over the numeric cells of two CSV or JSON files
    (inf where one cell is NaN and the other not), or None where they do
    not pair cell by cell: another kind of file, another number of cells,
    or a non-numeric cell that differs."""
    ca, cb = _cells(a), _cells(b)
    if ca is None or cb is None or len(ca) != len(cb):
        return None
    worst = 0.0
    for x, y in zip(ca, cb):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return None
        delta = abs(fx - fy)
        if math.isnan(delta):
            delta = 0.0 if math.isnan(fx) and math.isnan(fy) else math.inf
        worst = max(worst, delta)
    return worst


def compare(a: str, b: str) -> int:
    """Print each file that differs between the runs a and b (module
    docstring); 1 if any does, else 0."""
    fa, fb = _files(a), _files(b)
    differs = False
    for path in sorted(fa | fb):
        if path not in fb or path not in fa:
            print(f"{path}  only in {a if path in fa else b}")
            differs = True
            continue
        pa, pb = os.path.join(a, path), os.path.join(b, path)
        with open(pa, "rb") as fh, open(pb, "rb") as gh:
            if fh.read() == gh.read():
                continue
        differs = True
        delta = max_delta(pa, pb)
        print(f"{path}  differs" if delta is None
              else f"{path}  max |delta| {delta:.3g}")
    return int(differs)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR | --compare A B")
    sys.exit(run(sys.argv[1]))
