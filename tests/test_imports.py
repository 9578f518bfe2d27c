"""Import budget: scarkit loads numpy and scipy.sparse, nothing heavier.

`scipy.signal` and `scipy.special` pull in scipy.stats, interpolate, optimize
and ndimage, which costs about a second per process; csgraph and
sparse.linalg are imported inside the functions that need them.  A dynamics
run loads no `scipy.linalg` either: its LAPACK calls go through numpy, whose
OpenBLAS thread pool would contend with the second one scipy links.  An
exact-drive run below FULL_DENSE_MAX loads neither, since `scipy.sparse.linalg`
is imported only on the Krylov branch.
"""

import json
import os
import subprocess
import sys
import textwrap

import scarkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(scarkit.__file__)))

PROBE = textwrap.dedent("""
    import json, os, sys, tempfile
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
    print(json.dumps({"code": code, "after_import": after_import,
                      "after_run": after_run, "full_code": full_code,
                      "after_full": loaded("scipy.sparse.linalg",
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
