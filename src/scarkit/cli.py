"""Command-line front end.

Subcommands: basis, hamiltonian, resonance, spectrum, graph, scar, dynamics,
compare, reproduce.  Every option resolves as flag > SCARKIT_<NAME> env var >
config file > built-in default; config files are `key = value` lines (or a
previously written manifest, whose stored configuration is reused).  Each
file-writing run drops a manifest JSON beside its primary output so the run
can be repeated verbatim with `--config <manifest>`; `reproduce` drops it at
`<outdir>/bundle.manifest.json`.  `--manifest` names another path.  Handlers
return `(payload, primary_output)`: `main` alone writes the manifest and
prints the payload, so bundles call handlers as plain functions.

Exit codes: 0 success, 2 configuration problems, 3 capability limits or a
failed numerical invariant (non-Hermitian build, unitarity drift).

Option resolution imports no numpy: the handlers import the library, so
`--threads` can cap the BLAS pools before numpy first loads.  The library
modules load numpy and `scipy.sparse` only; `scipy.sparse.linalg` (and with
it `scipy.linalg`) loads only on the Krylov branch of the exact drive, and
no module imports `scipy.sparse.csgraph`, `scipy.signal`, `scipy.special` or
`scipy.stats`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapabilityError, ConfigError, DomainError, NumericalError

ENV_PREFIX = "SCARKIT_"
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off", ""}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------- plumbing

def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {value!r}")


_CSV_BLOCK_ROWS = 65536


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns as CSV, one column per header name.

    A column is a 1-D numpy array or a list of str.  Float cells take 15
    significant digits with -0.0 folded into 0, integer and bool cells are
    decimal integers, strings pass through.  Each block of _CSV_BLOCK_ROWS
    rows formats every distinct value of a numeric column once.
    """
    import numpy as np

    def cells(column) -> list[str]:
        if isinstance(column, list):
            return column
        if column.dtype.kind == "f":
            uniq, inv = np.unique(column + 0.0, return_inverse=True)
            words = [format(v, ".15g") for v in uniq.tolist()]
        else:   # integers and bools
            uniq, inv = np.unique(column, return_inverse=True)
            words = [str(int(v)) for v in uniq.tolist()]
        return np.array(words, dtype=object)[inv].tolist()

    n = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            block = [cells(c[lo:lo + _CSV_BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _json_ready(obj):
    """Round floats to the CSV precision so JSON and CSV artifacts agree."""
    import numpy as np
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if f != f or f in (float("inf"), float("-inf")) \
            else float(format(f, ".15g"))
    return obj


def _write_json(path: str, obj, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _normalize_key(key: str) -> str:
    return key.strip().lower().replace("-", "_")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        if isinstance(data.get("config"), dict):
            data = data["config"]
        return {_normalize_key(k): v for k, v in data.items()}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        out[_normalize_key(key)] = value.strip()
    return out


class _OptionRegistry:
    """Records each option's coercion and default so env/config can fill it."""

    def __init__(self):
        self.types: dict[str, object] = {}
        self.defaults: dict[str, object] = {}

    def add(self, parser, *flags, type=str, default=None, flag=False, **kw):
        if flag:
            action = parser.add_argument(*flags, action="store_const",
                                         const=True, default=None, **kw)
            self.types[action.dest] = _as_bool
            self.defaults[action.dest] = False
        else:
            action = parser.add_argument(*flags, type=type, default=None, **kw)
            self.types[action.dest] = type
            self.defaults[action.dest] = default


def _resolve_options(ns: argparse.Namespace, registry: _OptionRegistry) -> dict:
    config = _load_config(ns.config) if getattr(ns, "config", None) else {}
    known = {_normalize_key(d) for d in registry.types}
    stray = sorted(set(config) - known)
    if stray:
        raise ConfigError(f"config: unknown key {stray[0]!r}")
    resolved = {}
    for dest, typefn in registry.types.items():
        if not hasattr(ns, dest):
            continue
        value = getattr(ns, dest)
        if value is None:
            env_key = ENV_PREFIX + dest.upper()
            cfg_key = _normalize_key(dest)
            if env_key in os.environ:
                value = os.environ[env_key]
            elif cfg_key in config:
                value = config[cfg_key]
            else:
                value = registry.defaults[dest]
        if value is not None and isinstance(value, str):
            try:
                value = typefn(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{dest}: {exc}") from exc
        resolved[dest] = value
    return resolved


def _require(opts: dict, *keys):
    values = []
    for key in keys:
        if opts.get(key) is None:
            raise ConfigError(f"missing required key: {key}")
        values.append(opts[key])
    return values[0] if len(values) == 1 else values


def _write_manifest(command: str, opts: dict, path: str | None) -> None:
    if path is None:
        return
    from . import __version__
    config = {k: v for k, v in opts.items()
              if v is not None and k not in ("config", "manifest")}
    _write_json(path, {"command": command, "version": __version__,
                       "config": config}, sort_keys=True)


def _manifest_path(opts: dict, primary_output: str | None) -> str | None:
    if opts.get("manifest"):
        return opts["manifest"]
    if primary_output:
        return primary_output + ".manifest.json"
    return None


# ------------------------------------------------------- parameter helpers

def _parse_family(text: str):
    from .resonance import resonant_family
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError("family: expected k1,k2,branch (e.g. 0,0,+)")
    try:
        k1, k2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from exc
    return resonant_family(k1, k2, parts[2])


def _resolve_params(opts: dict):
    """(ModelParams, ResonantFamily | None) from the family or raw route."""
    family_text = opts.get("family")
    if family_text is not None:
        if opts.get("u_over_g") is not None or opts.get("omega") is not None:
            raise ConfigError("family: mutually exclusive with u_over_g/omega")
        family = _parse_family(family_text)
        g, u = _require(opts, "g", "u")
        return family.params(g, u), family
    from .hamiltonian import ModelParams
    g, u, omega, u_over_g = _require(opts, "g", "u", "omega", "u_over_g")
    return ModelParams(g=g, U=u_over_g * g, u=u, omega=omega), None


def _sector(opts: dict):
    from .fock_basis import SectorBasis
    L = _require(opts, "L")
    N = opts.get("N")
    if N is None:
        if L % 2:
            raise ConfigError("N: required when L is odd (no half filling)")
        N = L // 2
    return SectorBasis(L, N)


def _positive(opts: dict, key: str, default):
    """opts[key], or `default` when unset; an explicit value below 1 is refused."""
    value = opts.get(key)
    if value is None:
        return default
    if value < 1:
        raise ConfigError(f"{key}: must be at least 1, got {value}")
    return value


def _parse_initial(text: str, L: int):
    """tp | te_p:<q> | te_h:<q> | [bits:]<word> | random:<n>:<seed> -> spec dict.

    A bare word must be L characters of 0/1, so it cannot be mistaken for
    the other forms.
    """
    from .fock_basis import FockState, pinnacle_state
    text = str(text).strip()
    if text == "tp":
        return {"kind": "state", "state": pinnacle_state(L), "label": "tp"}
    if text.startswith("bits:") or (len(text) == L and set(text) <= {"0", "1"}):
        word = text.removeprefix("bits:")
        return {"kind": "state", "state": FockState.from_string(word),
                "label": word}
    if text.startswith(("te_p:", "te_h:")):
        from .graph import tower_states
        branch, q_text = text.split(":", 1)
        N = L // 2
        try:
            q = int(q_text)
        except ValueError as exc:
            raise ConfigError(f"initial: {exc}") from exc
        if not 1 <= q <= N:
            raise ConfigError(f"initial: excursion index {q} outside 1..{N}")
        eaves = tower_states(L).eaves   # hole N..2, shared, particle 2..N
        state = eaves[N - 2 + q] if branch == "te_p" else eaves[N - q]
        return {"kind": "state", "state": state, "label": text}
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("initial: random takes random:<count>:<seed>")
        try:
            return {"kind": "random", "count": int(parts[1]),
                    "seed": int(parts[2]), "label": text}
        except ValueError as exc:
            raise ConfigError(f"initial: {exc}") from exc
    raise ConfigError(f"initial: unrecognized form {text!r}")


def _parse_grid(text: str):
    import numpy as np
    try:
        u_part, g_part = str(text).split(",")
        out = []
        for part in (u_part, g_part):
            lo, hi, n = part.split(":")
            out.append(np.linspace(float(lo), float(hi), int(n)))
        return out
    except ValueError as exc:
        raise ConfigError(f"grid: expected U0:U1:n,g0:g1:m ({exc})") from exc


def _build_effective(basis, params, family):
    from .hamiltonian import build_effective_general, build_effective_resonant
    if family is not None:
        return build_effective_resonant(basis, params, family.k1, family.k2,
                                        family.branch)
    return build_effective_general(basis, params)


def _spectrum(opts: dict, basis=None):
    """(basis, params, Spectrum) of the effective H that `opts` names.

    A handler that checks its other options against the sector first passes
    that `basis` in, so nothing is diagonalized before a refusal.
    """
    from .spectral import DENSE_EIG_DEFAULT, diagonalize
    if basis is None:
        basis = _sector(opts)
    params, family = _resolve_params(opts)
    threshold = _positive(opts, "dense_threshold", DENSE_EIG_DEFAULT)
    ham = _build_effective(basis, params, family)
    return basis, params, diagonalize(ham, dense_threshold=threshold)


# ------------------------------------------------------------- subcommands

def _cmd_basis(opts: dict) -> tuple:
    import numpy as np
    from .fock_basis import dim_difference_formula
    basis = _sector(opts)
    split = basis.chiral_split()
    summary = {
        "L": basis.L, "N": basis.N, "dimension": basis.size,
        "n_plus": split.n_plus, "n_minus": split.n_minus,
        "larger_sector": split.larger_sector,
        "sector_difference": split.difference,
        "kernel_bound": (dim_difference_formula(basis.N)
                         if basis.L == 2 * basis.N else None),
    }
    out = opts.get("out")
    if out:
        words = [format(s, f"0{basis.L}b") for s in basis.states.tolist()]
        _write_csv(out, ["index", "word", "dipole", "parity"],
                   [np.arange(basis.size), words, basis.dipoles, basis.parities])
    return summary, out


def _cmd_hamiltonian(opts: dict) -> tuple:
    import numpy as np
    import scipy.sparse as sp
    from .hamiltonian import (build_half_period, build_hop, build_onsite)
    basis = _sector(opts)
    params, family = _resolve_params(opts)
    kind = opts.get("kind") or "resonant"
    if kind == "onsite":
        ham = build_onsite(basis, params)
    elif kind == "hop":
        ham = build_hop(basis, params)
    elif kind in ("half1", "half2"):
        ham = build_half_period(basis, params, int(kind[-1]))
    elif kind == "effective":
        from .hamiltonian import build_effective_general
        ham = build_effective_general(basis, params)
    elif kind == "resonant":
        if family is None:
            raise ConfigError("kind: 'resonant' requires --family")
        ham = _build_effective(basis, params, family)
    else:
        raise ConfigError(f"kind: unknown Hamiltonian kind {kind!r}")
    out = opts.get("out")
    if out:
        coo = sp.coo_matrix(ham.matrix)
        order = np.lexsort((coo.col, coo.row))
        data = coo.data[order]
        _write_csv(out, ["row", "col", "real", "imag"],
                   [coo.row[order], coo.col[order], data.real, data.imag])
    return {"kind": ham.kind, "dimension": ham.dimension,
            "nnz": int(ham.matrix.nnz)}, out


def _cmd_resonance(opts: dict) -> tuple:
    from .resonance import scan_ratio_grid
    family_text = opts.get("family")
    if family_text is not None:
        fam = _parse_family(family_text)
        return {"k1": fam.k1, "k2": fam.k2, "branch": fam.branch,
                "U_over_g": float(fam.U_over_g),
                "U_over_g_exact": str(fam.U_over_g),
                "g_over_omega": fam.g_over_omega, "k3": fam.k3}, None
    grid_text = _require(opts, "grid")
    omega, u = _require(opts, "omega", "u")
    U_values, g_values = _parse_grid(grid_text)
    table = scan_ratio_grid(U_values, g_values, omega, u)
    out = _require(opts, "out")
    _write_csv(out, ["U", "g", "r1", "r2", "r3", "div1", "div2", "div3"],
               [*table[:, :5].T, *table[:, 5:].T.astype(int)])
    return {"rows": len(table), "omega": omega, "u": u}, out


def _cmd_spectrum(opts: dict) -> tuple:
    import numpy as np
    from .fock_basis import dim_difference_formula
    from .spectral import gap_ratio_stats
    basis, _, spec = _spectrum(opts)
    out = opts.get("out")
    if out:
        is_zero = np.zeros(spec.size, dtype=bool)
        is_zero[spec.zero_indices] = True
        plus_weight = spec.vectors.sector_weight(basis.parities == 1)
        _write_csv(out, ["alpha", "quasienergy", "is_zero_mode",
                         "chiral_weight_plus"],
                   [np.arange(spec.size), spec.quasienergies, is_zero,
                    plus_weight])
    try:
        r_mean = gap_ratio_stats(spec).mean_r
    except DomainError:
        r_mean = None
    return {"dimension": spec.size,
            "zero_mode_count": len(spec.zero_indices),
            "kernel_bound": (dim_difference_formula(basis.N)
                             if basis.L == 2 * basis.N else None),
            "r_mean": r_mean}, out


def _cmd_graph(opts: dict) -> tuple:
    from .graph import (HOP_CLASSES, bipartite_violations, build_graph,
                        components, to_dot, tower_internal_edges, tower_states)
    basis = _sector(opts)
    graph = build_graph(basis)
    emit = opts.get("emit") or "json"
    out = opts.get("out")
    if emit == "dot":
        text = to_dot(graph, name=f"sector_L{basis.L}_N{basis.N}")
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return None, out
    if emit != "json":
        raise ConfigError(f"emit: expected dot or json, got {emit!r}")
    allowed = None
    if opts.get("components"):
        names = [c.strip() for c in str(opts["components"]).split(",")]
        bad = [n for n in names if n not in HOP_CLASSES]
        if bad:
            raise ConfigError(f"components: unknown hop class {bad[0]!r} "
                              f"(choose from {', '.join(HOP_CLASSES)})")
        allowed = set(names)
    comps = components(graph, allowed)
    summary = {
        "L": basis.L, "N": basis.N,
        "vertices": graph.n_vertices, "edges": graph.n_edges,
        "class_counts": graph.class_counts(),
        "bipartite_violations": bipartite_violations(graph),
        "component_classes": sorted(allowed) if allowed else "all",
        "component_count": len(comps),
        "component_sizes": sorted((len(c) for c in comps), reverse=True)[:50],
    }
    if basis.L == 2 * basis.N and basis.N >= 2:
        tower = tower_states(basis.L)
        summary["tower"] = {
            "pinnacle": tower.pinnacle.to_string(),
            "eaves": [s.to_string() for s in tower.eaves],
            "internal_edges": len(tower_internal_edges(graph, tower)),
        }
    if out:
        _write_json(out, summary)
    return summary, out


def _scar_report(spec, basis):
    """Scar JSON payload; observables that need a kernel go null without one."""
    import numpy as np
    from .fock_basis import pinnacle_state
    from .observables import (coe_ie_reference, entanglement_entropy,
                              page_entropy, scar_state, shannon_entropy,
                              zero_projection)
    tp = pinnacle_state(basis.L)
    p0 = zero_projection(tp, spec)
    payload = {
        "dimension": basis.size,
        "zero_mode_count": len(spec.zero_indices),
        "P0_tp": p0,
        "overlap_tp_s0": None, "S_EE_s0": None, "S_IE_s0": None,
        "page_value": page_entropy(basis.L),
        "coe_ie": coe_ie_reference(basis.size),
    }
    try:
        s0 = scar_state(spec, tp)
    except DomainError:
        return payload
    idx = basis.index_of(tp)
    payload["overlap_tp_s0"] = float(np.abs(s0.amplitudes[idx]) ** 2)
    payload["S_EE_s0"] = entanglement_entropy(s0)
    payload["S_IE_s0"] = shannon_entropy(s0)
    return payload


_IE_BATCH = 32    # eigenvector columns per S_IE block; small blocks stay in cache


def _cmd_scar(opts: dict) -> tuple:
    import numpy as np
    from .fock_basis import pinnacle_state
    from .observables import entropy_profile, shannon_entropies
    basis = _sector(opts)
    if basis.L != 2 * basis.N:
        raise ConfigError("N: the scar report is defined at half filling")
    _, _, spec = _spectrum(opts, basis)
    payload = _scar_report(spec, basis)
    per_state = opts.get("per_state")
    if per_state:
        ee = entropy_profile(spec)
        w_tp = spec.weight_row(basis.index_of(pinnacle_state(basis.L)))
        is_zero = np.zeros(spec.size, dtype=bool)
        is_zero[spec.zero_indices] = True
        alphas = np.arange(spec.size)
        ie = np.empty(spec.size)
        for lo in range(0, spec.size, _IE_BATCH):
            batch = alphas[lo:lo + _IE_BATCH]
            ie[batch] = shannon_entropies(spec.vectors.columns(batch))
        _write_csv(per_state, ["alpha", "quasienergy", "S_EE", "S_IE",
                               "overlap_tp", "is_zero_mode"],
                   [alphas, spec.quasienergies, ee, ie, w_tp,
                    is_zero])
    return payload, per_state


_OBSERVABLE_ORDER = ("F", "EE", "Pt")


def _parse_observables(text: str | None) -> list[str]:
    if not text:
        return list(_OBSERVABLE_ORDER)
    names = [n.strip() for n in str(text).split(",") if n.strip()]
    bad = [n for n in names if n not in _OBSERVABLE_ORDER]
    if bad or not names:
        what = f"unknown observable {bad[0]!r}" if bad else \
            f"none named in {text!r}"
        raise ConfigError(f"observables: {what} "
                          f"(choose from {', '.join(_OBSERVABLE_ORDER)})")
    return [n for n in _OBSERVABLE_ORDER if n in names]


def _cmd_dynamics(opts: dict) -> tuple:
    import numpy as np
    from .dynamics import (ee_series, ensemble_stats, fidelity_series, fta,
                           full_drive_ensemble, random_nontower_states,
                           tower_probability_series)
    basis = _sector(opts)
    model = opts.get("model") or "effective"
    if model not in ("effective", "full"):
        raise ConfigError(f"model: expected effective or full, got {model!r}")
    cycles = _positive(opts, "cycles", 4096)
    wanted = _parse_observables(opts.get("observables"))
    init = _parse_initial(opts.get("initial") or "tp", basis.L)
    out = _require(opts, "out")
    if init["kind"] == "state":
        starts = [init["state"]]
    else:
        starts = random_nontower_states(basis, count=init["count"],
                                        seed=init["seed"])
    if model == "effective":
        _, _, spec = _spectrum(opts, basis)
        series_of = {"F": fidelity_series, "EE": ee_series,
                     "Pt": tower_probability_series}
        runs = [{n: series_of[n](spec, s, cycles=cycles) for n in wanted}
                for s in starts]
    else:
        params, _ = _resolve_params(opts)
        runs = full_drive_ensemble(basis, params, starts, cycles, wanted)

    series = runs[0]
    if init["kind"] == "random":
        series = {n: ensemble_stats([r[n] for r in runs], series[n].label)
                  for n in wanted}
    picked = [series[n] for n in wanted]
    header = ["k"] + [s.label for s in picked]
    columns = [s.values for s in picked]
    if init["kind"] == "random":
        header += [s.label + "_sd" for s in picked]
        columns += [s.sd for s in picked]
    _write_csv(out, header, [np.arange(len(columns[0])), *columns])

    if opts.get("fft"):
        freqs, amps = fta(series[wanted[0]].values)
        fft_path = opts.get("fft_out") or (os.path.splitext(out)[0] + "_fft.csv")
        _write_csv(fft_path, ["freq_rad_per_cycle", "amplitude"], [freqs, amps])
    return {"dimension": basis.size, "model": model,
            "initial": init["label"], "cycles": int(cycles),
            "observables": wanted}, out


def _cmd_compare(opts: dict) -> tuple:
    import numpy as np
    from .dynamics import fidelity_series, full_fidelity_series
    basis = _sector(opts)
    cycles = _positive(opts, "cycles", None)
    init = _parse_initial(opts.get("initial") or "tp", basis.L)
    if init["kind"] != "state":
        raise ConfigError("initial: compare runs a single Fock state")
    _, params, spec = _spectrum(opts, basis)
    cycles = cycles or int(round(50 * params.g))
    f_eff = fidelity_series(spec, init["state"], cycles)
    f_full = full_fidelity_series(basis, params, init["state"], cycles)
    diff = np.abs(f_full.values - f_eff.values)
    out = opts.get("out")
    if out:
        _write_csv(out, ["k", "F_full", "F_eff", "abs_diff"],
                   [np.arange(len(diff)), f_full.values, f_eff.values, diff])
    return {"dimension": basis.size, "g": params.g, "cycles": int(cycles),
            "initial": init["label"], "max_abs_diff": float(diff.max())}, out


# ------------------------------------------------------------- reproduce

# The bundles' working point: family (0,0,+) at g = 50, u = 0.5, half filling.
_WORKING_POINT = {"N": None, "family": "0,0,+", "g": 50.0, "u": 0.5}


def _bundle_spectral_map(opts: dict, outdir: str, sizes) -> dict:
    (L,) = sizes
    run = {**opts, **_WORKING_POINT, "L": L,
           "per_state": os.path.join(outdir, f"states_L{L}.csv")}
    _cmd_scar(run)
    _write_manifest("scar", run, os.path.join(outdir, "manifest.json"))
    return {"files": [run["per_state"]]}


def _bundle_quench_series(opts: dict, outdir: str, sizes) -> dict:
    seed = 7 if opts.get("seed") is None else opts["seed"]
    files = []
    for L in sizes:
        for initial in ("tp", "te_p:2", f"random:10:{seed}"):
            stem = initial.replace(":", "-")
            out = os.path.join(outdir, f"quench_L{L}_{stem}.csv")
            _cmd_dynamics({**opts, **_WORKING_POINT, "L": L,
                           "model": "effective", "initial": initial,
                           "observables": "F,EE,Pt", "out": out,
                           "fft": False})
            files.append(out)
    return {"files": files}


def _bundle_revival_spectra(opts: dict, outdir: str, sizes) -> dict:
    from .dynamics import (analytic_fidelity, dominant_peaks, fta,
                           spta_fidelity, tower_probability_series)
    from .fock_basis import pinnacle_state
    cycles = _positive(opts, "cycles", 4096)
    files, peaks = [], {}
    for L in sizes:
        _, params, spec = _spectrum({**opts, **_WORKING_POINT, "L": L})
        tp = pinnacle_state(L)
        f_series = analytic_fidelity(spec, tp, cycles)
        pt_series = tower_probability_series(spec, tp, cycles=cycles)
        freqs, f_amp = fta(f_series.values)
        _, pt_amp = fta(pt_series.values)
        spta = spta_fidelity(params, L, cycles)
        _, spta_amp = fta(spta.values)
        out = os.path.join(outdir, f"fta_L{L}.csv")
        _write_csv(out, ["freq_rad_per_cycle", "F", "P_t", "F_spta"],
                   [freqs, f_amp, pt_amp, spta_amp])
        files.append(out)
        pk_f, _ = dominant_peaks(freqs, f_amp)
        pk_s, _ = dominant_peaks(freqs, spta_amp, count=1)
        peaks[f"L{L}"] = {"F": [float(x) for x in pk_f],
                          "F_spta": [float(x) for x in pk_s]}
    _write_json(os.path.join(outdir, "peaks.json"), peaks)
    return {"files": files, "peaks": peaks}


def _bundle_model_comparison(opts: dict, outdir: str, sizes) -> dict:
    (L,) = sizes
    files, summary = [], {}
    for g in (15.0, 30.0):
        out = os.path.join(outdir, f"compare_L{L}_g{g:g}.csv")
        payload, _ = _cmd_compare({**opts, **_WORKING_POINT, "L": L, "g": g,
                                   "initial": "tp", "out": out})
        summary[f"g{g:g}"] = payload["max_abs_diff"]
        files.append(out)
    _write_json(os.path.join(outdir, "discrepancy.json"), summary)
    return {"files": files, "max_abs_diff": summary}


def _bundle_ratio_landscape(opts: dict, outdir: str, sizes) -> dict:
    import numpy as np
    from .resonance import scan_ratio_grid
    (steps,) = sizes
    U_values = np.linspace(1.0, 80.0, steps)
    g_values = np.linspace(1.0, 80.0, steps)
    table = scan_ratio_grid(U_values, g_values, omega=20.0, u=0.5)
    files = []
    for i, name in enumerate(("r1", "r2", "r3")):
        out = os.path.join(outdir, f"ratio_{name}.csv")
        _write_csv(out, ["U", "g", name, "div"],
                   [table[:, 0], table[:, 1], table[:, 2 + i],
                    table[:, 5 + i].astype(int)])
        files.append(out)
    return {"files": files, "steps": steps}


# bundle -> (runner, sizes per scale).  The sizes are chain lengths at half
# filling, except ratio-landscape's, which are grid steps per axis.
_BUNDLES = {
    "spectral-map": (_bundle_spectral_map, {"desk": (16,), "paper": (18,)}),
    "quench-series": (_bundle_quench_series,
                      {"desk": (12, 14), "paper": (16, 18)}),
    "revival-spectra": (_bundle_revival_spectra,
                        {"desk": (12, 14), "paper": (16, 18)}),
    "model-comparison": (_bundle_model_comparison,
                         {"desk": (12,), "paper": (16,)}),
    "ratio-landscape": (_bundle_ratio_landscape,
                        {"desk": (160,), "paper": (320,)}),
}


def _cmd_reproduce(opts: dict) -> tuple:
    bundle = _require(opts, "bundle")
    if bundle not in _BUNDLES:
        raise ConfigError(f"bundle: unknown bundle {bundle!r} "
                          f"(choose from {', '.join(_BUNDLES)})")
    scale = opts.get("scale") or "desk"
    if scale not in ("desk", "paper"):
        raise ConfigError(f"scale: expected desk or paper, got {scale!r}")
    runner, scales = _BUNDLES[bundle]
    sizes = scales[scale]
    if bundle != "ratio-landscape":
        from math import comb
        from .spectral import DENSE_EIG_DEFAULT, check_dense
        threshold = _positive(opts, "dense_threshold", DENSE_EIG_DEFAULT)
        for L in sizes:
            check_dense(comb(L, L // 2), threshold,
                        f"{bundle} --scale {scale}: the L = {L} sector")
    outdir = opts.get("outdir") or f"{bundle}-{scale}"
    os.makedirs(outdir, exist_ok=True)
    result = runner(opts, outdir, sizes)
    # the default manifest path is <outdir>/bundle.manifest.json
    return ({"bundle": bundle, "scale": scale, "outdir": outdir, **result},
            os.path.join(outdir, "bundle"))


# ------------------------------------------------------------------ main

def _add_common(reg: _OptionRegistry, sub: argparse.ArgumentParser,
                sector=True, params=True) -> None:
    reg.add(sub, "--config", help="key = value file or a manifest JSON")
    reg.add(sub, "--manifest", help="manifest path (default: <out>.manifest.json)")
    reg.add(sub, "--threads", type=int, help="cap BLAS/worker thread pools")
    if sector:
        reg.add(sub, "--L", type=int, help="chain length")
        reg.add(sub, "--N", type=int, help="particle number (default L/2)")
    if params:
        reg.add(sub, "--family", help="resonant family as k1,k2,branch")
        reg.add(sub, "--g", type=float, help="tilt strength")
        reg.add(sub, "--u", type=float, help="drive amplitude")
        reg.add(sub, "--omega", type=float, help="drive frequency (raw route)")
        reg.add(sub, "--u-over-g", type=float,
                help="interaction over tilt (raw route)")
        reg.add(sub, "--dense-threshold", type=int,
                help="refuse dense eigensolves above this dimension")


def build_parser() -> tuple[argparse.ArgumentParser, _OptionRegistry]:
    reg = _OptionRegistry()
    parser = argparse.ArgumentParser(
        prog="scarkit",
        description="Driven tilted-chain toolkit: spectra, graphs, dynamics.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("basis", help="sector summary and state table")
    _add_common(reg, p, params=False)
    reg.add(p, "--out", help="per-state CSV path")

    p = subs.add_parser("hamiltonian", help="operator matrices as sparse CSV")
    _add_common(reg, p)
    reg.add(p, "--kind",
            help="onsite | hop | half1 | half2 | effective | resonant")
    reg.add(p, "--out", help="COO CSV path")

    p = subs.add_parser("resonance", help="families and amplitude-ratio maps")
    _add_common(reg, p, sector=False, params=False)
    reg.add(p, "--family", help="resonant family as k1,k2,branch")
    reg.add(p, "--omega", type=float, help="drive frequency")
    reg.add(p, "--u", type=float, help="drive amplitude")
    reg.add(p, "--grid", help="scan ranges U0:U1:n,g0:g1:m")
    reg.add(p, "--out", help="ratio table CSV path")

    p = subs.add_parser("spectrum", help="diagonalize one sector")
    _add_common(reg, p)
    reg.add(p, "--out", help="per-level CSV path")

    p = subs.add_parser("graph", help="hop graph, components, tower")
    _add_common(reg, p, params=False)
    reg.add(p, "--emit", help="dot | json (default json)")
    reg.add(p, "--components", help="hop classes to keep, e.g. g,g-U")
    reg.add(p, "--out", help="output path (default stdout)")

    p = subs.add_parser("scar", help="kernel projection report")
    _add_common(reg, p)
    reg.add(p, "--per-state", help="per-eigenstate CSV path")

    p = subs.add_parser("dynamics", help="stroboscopic time series")
    _add_common(reg, p)
    reg.add(p, "--model", help="effective | full")
    reg.add(p, "--initial",
            help="tp | te_p:<q> | te_h:<q> | [bits:]<word> | random:<n>:<seed>")
    reg.add(p, "--cycles", type=int, help="driving cycles (default 4096)")
    reg.add(p, "--observables", help="comma list from F,EE,Pt")
    reg.add(p, "--out", help="series CSV path")
    reg.add(p, "--fft", flag=True, help="also write the amplitude spectrum")
    reg.add(p, "--fft-out", help="amplitude spectrum CSV path")

    p = subs.add_parser("compare", help="exact drive vs effective model")
    _add_common(reg, p)
    reg.add(p, "--initial", help="initial state (default tp)")
    reg.add(p, "--cycles", type=int, help="cycles (default 50*g)")
    reg.add(p, "--out", help="per-cycle CSV path")

    p = subs.add_parser("reproduce", help="canned experiment bundles")
    _add_common(reg, p, sector=False, params=False)
    reg.add(p, "--bundle", help=" | ".join(_BUNDLES))
    reg.add(p, "--scale", help="desk | paper (default desk)")
    reg.add(p, "--outdir", help="bundle output directory")
    reg.add(p, "--cycles", type=int, help="override bundle cycle counts")
    reg.add(p, "--seed", type=int, help="ensemble seed (default 7)")
    reg.add(p, "--dense-threshold", type=int,
            help="refuse dense eigensolves above this dimension")

    return parser, reg


_HANDLERS = {
    "basis": _cmd_basis,
    "hamiltonian": _cmd_hamiltonian,
    "resonance": _cmd_resonance,
    "spectrum": _cmd_spectrum,
    "graph": _cmd_graph,
    "scar": _cmd_scar,
    "dynamics": _cmd_dynamics,
    "compare": _cmd_compare,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    ns = parser.parse_args(sys.argv[1:] if argv is None else argv)
    try:
        opts = _resolve_options(ns, registry)
        if opts.get("threads") is not None:
            # set before any handler imports numpy; overrides inherited sizes
            n = str(max(1, opts["threads"]))
            os.environ.update(dict.fromkeys(_THREAD_VARS, n))
        payload, primary_output = _HANDLERS[ns.command](opts)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    _write_manifest(ns.command, opts, _manifest_path(opts, primary_output))
    if payload is not None:
        print(json.dumps(_json_ready(payload), indent=2, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
