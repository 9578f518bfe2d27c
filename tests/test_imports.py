"""Import budget: importing scarkit loads numpy and no scipy module at all.

Every sector Hamiltonian is a `scarkit.hamiltonian.CSRMatrix`, a numpy
compressed-row store, so building, diagonalizing and evolving one needs no
`scipy.sparse`, whose import alone costs about a third of a second per
process.  Connected components are numpy code (no `scipy.sparse.csgraph`),
the peak finder and p ln p are numpy code (no `scipy.signal` or
`scipy.special`), and every LAPACK call goes through numpy (no
`scipy.linalg`, whose second OpenBLAS thread pool would contend with
numpy's).  `scipy.sparse` and `scipy.sparse.linalg` load only on the exact
drive's stepping route (`SteppedDrive`, picked above FULL_DENSE_MAX), where
`CSRMatrix.to_scipy` hands the half-period Hamiltonians to `expm_multiply`.

Layering: a library module imports the package at module level only, and
those imports form a DAG, so a rule two modules share lives in the lower.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from graphlib import TopologicalSorter

import scarkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(scarkit.__file__)))

PROBE = textwrap.dedent("""
    import contextlib, io, json, os, sys, tempfile
    import scarkit

    def scipy_loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    report = {"after_import": scipy_loaded()}
    for name in sorted(scarkit._SUBMODULES):
        getattr(scarkit, name)
    for name in scarkit.__all__:
        getattr(scarkit, name)
    report["after_exports"] = scipy_loaded()

    from scarkit import cli
    res = ["--L", "6", "--family", "0,0,+", "--g", "50", "--u", "0.5"]
    runs = {
        "hamiltonian": ["hamiltonian", *res, "--out", "{tmp}/h.csv"],
        "spectrum": ["spectrum", *res, "--out", "{tmp}/spec.csv"],
        "scar": ["scar", *res, "--per-state", "{tmp}/states.csv"],
        "dynamics": ["dynamics", *res, "--cycles", "128", "--observables",
                     "F,EE,Pt", "--fft", "--out", "{tmp}/dyn.csv"],
        "dynamics_full": ["dynamics", *res, "--model", "full", "--cycles",
                          "128", "--out", "{tmp}/full.csv"],
        "graph": ["graph", "--L", "8", "--components", "g,g-U"],
    }
    for name, argv in runs.items():
        with tempfile.TemporaryDirectory() as tmp, \\
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([a.format(tmp=tmp) for a in argv])
        report[name] = [code, scipy_loaded()]

    import numpy as np
    from scarkit import SectorBasis, fock_vector, resonant_family
    from scarkit.dynamics import SteppedDrive
    params = resonant_family(0, 0, "+").params(50.0, 0.5)
    basis = SectorBasis(6, 3)
    psi0 = fock_vector(basis, "111000").amplitudes
    (states,) = SteppedDrive(basis, params).blocks(psi0, np.arange(5), 5)
    report["krylov"] = [list(states.shape),
                        float(abs(states[:, -1]).max()),
                        scipy_loaded()]
    print(json.dumps(report))
""")


def test_no_scipy_until_the_krylov_branch():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report.pop("after_import") == []
    assert report.pop("after_exports") == []
    shape, peak, krylov_loaded = report.pop("krylov")
    for name, (code, loaded) in report.items():
        assert (name, code, loaded) == (name, 0, [])
    # the Krylov route runs, and it is what brings in scipy.sparse
    assert shape == [20, 5] and 0.0 < peak <= 1.0
    assert "scipy.sparse" in krylov_loaded
    assert "scipy.sparse.linalg" in krylov_loaded


def _package_imports(tree: ast.Module, package: str):
    """(node, submodules) for every import of the package in `tree`:
    `from .x`, `from . import x` and `import scarkit.x` or `from scarkit...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith(package):
                continue
            base = (node.module or "").removeprefix(package).lstrip(".")
            yield node, ([base.split(".")[0]] if base
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names
                     if alias.name.split(".")[0] == package]
            if names:
                yield node, [parts[1] if len(parts) > 1 else "__init__"
                             for parts in names]


def test_library_imports_go_down_at_module_level():
    """Every library module (all but `cli` and `__init__`) imports the
    package at module level only, never in a function, a class body or an
    `if TYPE_CHECKING` block, and those imports form a DAG."""
    here = os.path.dirname(scarkit.__file__)
    misplaced, graph = [], {}
    for name, ext in map(os.path.splitext, sorted(os.listdir(here))):
        if ext != ".py" or name in ("cli", "__init__"):
            continue
        path = os.path.join(here, name + ext)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        top = set(map(id, tree.body))
        graph[name] = set()
        for node, targets in _package_imports(tree, "scarkit"):
            if id(node) in top:
                graph[name].update(targets)
            else:
                misplaced.append(f"{name}.py:{node.lineno}")
    assert misplaced == []
    TopologicalSorter(graph).prepare()      # raises CycleError on a cycle
