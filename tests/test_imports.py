"""Import budget: scarkit loads numpy and scipy.sparse, nothing heavier.

`scipy.signal` and `scipy.special` pull in scipy.stats, interpolate, optimize
and ndimage, which costs about a second per process.  No module uses
`scipy.sparse.csgraph`: connected components are numpy code.  Only
`scipy.sparse.linalg` is imported lazily, on the Krylov branch of the exact
drive, and `scipy.linalg` loads only as its dependency.  So a dynamics run
loads no `scipy.linalg`: its LAPACK calls go through numpy, whose OpenBLAS
thread pool would contend with the second one scipy links.  Neither does an
exact-drive run below FULL_DENSE_MAX, nor a `graph --components` run.
"""

import json
import os
import subprocess
import sys
import textwrap

import scarkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(scarkit.__file__)))

PROBE = textwrap.dedent("""
    import contextlib, io, json, os, sys, tempfile
    import scarkit

    def loaded(*prefixes):
        return sorted(m for m in sys.modules
                      if any(m == p or m.startswith(p + ".") for p in prefixes))

    for name in sorted(scarkit._SUBMODULES):
        getattr(scarkit, name)
    after_import = loaded("scipy.sparse.csgraph", "scipy.sparse.linalg",
                          "scipy.signal", "scipy.special", "scipy.stats")
    from scarkit import cli
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main(["dynamics", "--L", "6", "--family", "0,0,+",
                         "--g", "50", "--u", "0.5", "--cycles", "128",
                         "--observables", "F,EE,Pt", "--fft",
                         "--out", os.path.join(tmp, "dyn.csv")])
    after_run = loaded("scipy.signal", "scipy.special", "scipy.stats",
                       "scipy.linalg")
    with tempfile.TemporaryDirectory() as tmp:
        full_code = cli.main(["dynamics", "--L", "6", "--family", "0,0,+",
                              "--g", "50", "--u", "0.5", "--model", "full",
                              "--cycles", "128",
                              "--out", os.path.join(tmp, "full.csv")])
    after_full = loaded("scipy.sparse.linalg", "scipy.linalg")
    with contextlib.redirect_stdout(io.StringIO()):
        graph_code = cli.main(["graph", "--L", "8", "--components", "g,g-U"])
    print(json.dumps({"code": code, "after_import": after_import,
                      "after_run": after_run, "full_code": full_code,
                      "after_full": after_full, "graph_code": graph_code,
                      "after_graph": loaded("scipy.sparse.csgraph",
                                            "scipy.linalg")}))
""")


def test_import_and_dynamics_run_stay_off_heavy_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["after_import"] == []
    assert report["after_run"] == []
    # below FULL_DENSE_MAX the exact drive never reaches the Krylov import
    assert report["full_code"] == 0
    assert report["after_full"] == []
    # connected components take no csgraph (and so no scipy.linalg) import
    assert report["graph_code"] == 0
    assert report["after_graph"] == []
