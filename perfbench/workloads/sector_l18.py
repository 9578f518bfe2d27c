"""sector-L18: the pure-Python builders at L = 18, nothing diagonalized.

The sector basis, the resonant builder, the hop graph, union-find components,
the amplitude-ratio scan and the ``ratio-landscape`` bundle run as Python
loops without BLAS.  At L = 18 the builder and the graph carry most of the
pass and the Python row lists they build set the peak RSS; L = 20 does the
same work four times over, too long to repeat several times within one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from scarkit import (SectorBasis, build_effective_resonant, build_graph, cli,
                     components, dim_difference_formula, resonant_family,
                     scan_ratio_grid, tower_states)
from scarkit.graph import bipartite_violations

FAMILY, G, U_DRIVE = (0, 0, "+"), 50.0, 0.5
GRID = np.linspace(1.0, 80.0, 160)        # the ratio-landscape desk grid
GRID_OMEGA, GRID_U = 20.0, 0.5
COMPONENT_CLASSES = {"g-U", "g"}

SIZES = {"full": {"L": 18}, "small": {"L": 8}}

# Frozen at the seed commit.
_SCAN = {"shape": (25600, 8), "divergent": (160, 160, 1), "infinite": 160,
         "finite_sum": 7922.516560379308}
_CSV = {"lines": 25601, "sha256": {
    "r1": "77903e6866d93bcfb8b9f7f953396b9f2a5db8605641889c2fa9934082282e25",
    "r2": "4b4c5b87bba8d8720d9e610a2b85494a50f48d1edbc03252037bb82c2ad5d839",
    "r3": "d52b0364e7ae5749dcd3ec865026c937ec6e6488f4f136c67b3d3da76e44c134"}}
REFERENCE = {
    "full": {"states": 48620, "split": (24310, 24310), "nnz": 437580,
             "classes": {"g-U": 57915, "g": 102960, "g+U": 57915},
             "components": 9, "scan": _SCAN, "csv": _CSV},
    "small": {"states": 70, "split": (38, 32), "nnz": 280,
              "classes": {"g-U": 40, "g": 60, "g+U": 40},
              "components": 4, "scan": _SCAN, "csv": _CSV},
}


class _Sector:
    """State shared by the jobs of one pass: the basis and the hop graph."""

    def __init__(self, t, scale, ref, workdir):
        self.t, self.ref, self.workdir = t, ref, workdir
        self.L = SIZES[scale]["L"]

    def sector(self, gates):
        t, ref = self.t, self.ref
        self.basis = t.call(SectorBasis, self.L, self.L // 2)
        with t.span("fock_basis", "parities"):
            self.basis.parities
        split = t.call(self.basis.chiral_split)
        t.count("fock_basis.states", self.basis.size)
        gates.equal("sector dimension", self.basis.size, ref["states"])
        gates.equal("parity split", (split.n_plus, split.n_minus), ref["split"])
        gates.equal("parity imbalance", split.difference,
                    t.call(dim_difference_formula, self.L // 2))

    def hamiltonian(self, gates):
        t = self.t
        params = t.call(resonant_family, *FAMILY).params(G, U_DRIVE)
        ham = t.call(build_effective_resonant, self.basis, params, *FAMILY)
        t.count("hamiltonian.nnz", ham.matrix.nnz)
        gates.equal("resonant nnz", ham.matrix.nnz, self.ref["nnz"])

    def graph(self, gates):
        t, ref = self.t, self.ref
        graph = t.call(build_graph, self.basis)
        t.count("graph.edges", graph.n_edges)
        gates.equal("edges", graph.n_edges, ref["nnz"] // 2)
        gates.equal("edges per hop class", graph.class_counts(), ref["classes"])
        gates.equal("bipartite violations", t.call(bipartite_violations, graph), 0)
        comps = t.call(components, graph, COMPONENT_CLASSES)
        gates.equal("{g-U, g} components", len(comps), ref["components"])
        gates.equal("component sizes", sum(len(c) for c in comps), self.basis.size)
        tower = t.call(tower_states, self.L)
        idx = t.call(tower.indices, self.basis)
        gates.equal("tower size", len(np.unique(idx)), self.L)
        gates.equal("pinnacle is the last state", int(idx[-1]), self.basis.size - 1)

    def ratio_scan(self, gates):
        ref = self.ref["scan"]
        table = self.t.call(scan_ratio_grid, GRID, GRID, GRID_OMEGA, GRID_U)
        self.t.count("resonance.grid_points", len(table))
        gates.equal("scan shape", table.shape, ref["shape"])
        ratios = table[:, 2:5]
        finite = np.isfinite(ratios)
        gates.equal("divergent flags per class",
                    tuple(int(n) for n in table[:, 5:8].sum(axis=0)), ref["divergent"])
        gates.equal("infinite ratios", int(np.count_nonzero(~finite)), ref["infinite"])
        gates.close("sum of finite ratios", ratios[finite].sum(), ref["finite_sum"],
                    1e-9 * ref["finite_sum"])

    def bundle(self, gates):
        ref = self.ref["csv"]
        with tempfile.TemporaryDirectory(dir=self.workdir) as outdir, \
                contextlib.redirect_stdout(io.StringIO()):
            code = self.t.call(cli.main, ["reproduce", "--bundle", "ratio-landscape",
                                          "--outdir", outdir])
            gates.equal("reproduce exit code", code, 0)
            for name, digest in ref["sha256"].items():
                with open(os.path.join(outdir, f"ratio_{name}.csv"), "rb") as fh:
                    data = fh.read()
                lines = data.count(b"\n")
                self.t.count("cli.rows_written", lines - 1)
                gates.equal(f"ratio_{name}.csv lines", lines, ref["lines"])
                gates.equal(f"ratio_{name}.csv sha256",
                            hashlib.sha256(data).hexdigest(), digest)


def jobs(t, seed: int, scale: str, ref: dict, workdir: str):
    """The pass as (name, fn(gates)) jobs.  Nothing here is random, so `seed`
    changes no input; the bundle writes under `workdir`."""
    del seed
    s = _Sector(t, scale, ref, workdir)
    return [("sector-basis", s.sector), ("sector-hamiltonian", s.hamiltonian),
            ("sector-graph", s.graph), ("ratio-scan", s.ratio_scan),
            ("ratio-bundle", s.bundle)]
