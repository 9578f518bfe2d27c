"""Command-line front end.

Subcommands: basis, hamiltonian, resonance, spectrum, graph, scar, dynamics,
compare, reproduce.  Every option resolves as flag > SCARKIT_<NAME> env var >
config file > built-in default; config files are `key = value` lines (or a
previously written manifest, whose stored configuration is reused).  Each
file-writing run drops a manifest JSON beside its primary output so the run
can be repeated verbatim with `--config <manifest>`.

Exit codes: 0 success, 2 configuration problems, 3 capability limits or a
failed numerical invariant (non-Hermitian build, unitarity drift).

Heavy imports happen inside handlers so `--threads` can cap the BLAS pools
before numpy first loads.
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

BUNDLES = ("spectral-map", "quench-series", "revival-spectra",
           "model-comparison", "ratio-landscape")


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


def _fmt(x) -> str:
    """CSV cell: 15 significant digits for floats, plain ints, raw strings.

    Plain Python floats and ints (as from `ndarray.tolist()`) take the first
    two branches; numpy scalars format the same way, only more slowly.
    """
    if type(x) is float:
        return format(x + 0.0, ".15g")  # folds -0.0 into 0
    if type(x) is int:
        return str(x)
    import numpy as np
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x) + 0.0, ".15g")
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


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


def _emit_json(obj) -> None:
    print(json.dumps(_json_ready(obj), indent=2, allow_nan=True))


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
    payload = {"command": command, "version": __version__, "config": config}
    with open(path, "w") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _diagonalize(opts: dict, ham):
    from .spectral import DENSE_EIG_DEFAULT, diagonalize
    threshold = _positive(opts, "dense_threshold", DENSE_EIG_DEFAULT)
    return diagonalize(ham, dense_threshold=threshold)


# ------------------------------------------------------------- subcommands

def _cmd_basis(opts: dict) -> int:
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
        rows = ((i, basis.state(i).to_string(), int(basis.dipoles[i]),
                 int(basis.parities[i])) for i in range(basis.size))
        _write_csv(out, ["index", "word", "dipole", "parity"], rows)
    _write_manifest("basis", opts, _manifest_path(opts, out))
    _emit_json(summary)
    return 0


def _cmd_hamiltonian(opts: dict) -> int:
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
        rows = ((int(coo.row[i]), int(coo.col[i]),
                 float(coo.data[i].real), float(coo.data[i].imag))
                for i in order)
        _write_csv(out, ["row", "col", "real", "imag"], rows)
    _write_manifest("hamiltonian", opts, _manifest_path(opts, out))
    _emit_json({"kind": ham.kind, "dimension": ham.dimension,
                "nnz": int(ham.matrix.nnz)})
    return 0


def _cmd_resonance(opts: dict) -> int:
    from .resonance import scan_ratio_grid
    family_text = opts.get("family")
    if family_text is not None:
        fam = _parse_family(family_text)
        _write_manifest("resonance", opts, _manifest_path(opts, None))
        _emit_json({"k1": fam.k1, "k2": fam.k2, "branch": fam.branch,
                    "U_over_g": float(fam.U_over_g),
                    "U_over_g_exact": str(fam.U_over_g),
                    "g_over_omega": fam.g_over_omega, "k3": fam.k3})
        return 0
    grid_text = _require(opts, "grid")
    omega, u = _require(opts, "omega", "u")
    U_values, g_values = _parse_grid(grid_text)
    table = scan_ratio_grid(U_values, g_values, omega, u)
    out = _require(opts, "out")
    _write_csv(out, ["U", "g", "r1", "r2", "r3", "div1", "div2", "div3"],
               (r + d for r, d in zip(table[:, :5].tolist(),
                                      table[:, 5:].astype(int).tolist())))
    _write_manifest("resonance", opts, _manifest_path(opts, out))
    _emit_json({"rows": len(table), "omega": omega, "u": u})
    return 0


def _cmd_spectrum(opts: dict) -> int:
    import numpy as np
    from .fock_basis import dim_difference_formula
    from .spectral import gap_ratio_stats
    basis = _sector(opts)
    params, family = _resolve_params(opts)
    spec = _diagonalize(opts, _build_effective(basis, params, family))
    out = opts.get("out")
    if out:
        is_zero = np.zeros(spec.size, dtype=bool)
        is_zero[spec.zero_indices] = True
        plus_weight = spec.vectors.sector_weight(basis.parities == 1)
        rows = ((a, float(spec.quasienergies[a]), int(is_zero[a]),
                 float(plus_weight[a])) for a in range(spec.size))
        _write_csv(out, ["alpha", "quasienergy", "is_zero_mode",
                         "chiral_weight_plus"], rows)
    try:
        r_mean = gap_ratio_stats(spec).mean_r
    except DomainError:
        r_mean = None
    _write_manifest("spectrum", opts, _manifest_path(opts, out))
    _emit_json({"dimension": spec.size,
                "zero_mode_count": len(spec.zero_indices),
                "kernel_bound": (dim_difference_formula(basis.N)
                                 if basis.L == 2 * basis.N else None),
                "r_mean": r_mean})
    return 0


def _cmd_graph(opts: dict) -> int:
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
        _write_manifest("graph", opts, _manifest_path(opts, out))
        return 0
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
        with open(out, "w") as fh:
            json.dump(_json_ready(summary), fh, indent=2)
            fh.write("\n")
    _write_manifest("graph", opts, _manifest_path(opts, out))
    _emit_json(summary)
    return 0


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


def _cmd_scar(opts: dict) -> int:
    import numpy as np
    from .fock_basis import pinnacle_state
    from .observables import entropy_profile, shannon_entropy, StateVector
    basis = _sector(opts)
    if basis.L != 2 * basis.N:
        raise ConfigError("N: the scar report is defined at half filling")
    params, family = _resolve_params(opts)
    spec = _diagonalize(opts, _build_effective(basis, params, family))
    payload = _scar_report(spec, basis)
    per_state = opts.get("per_state")
    if per_state:
        ee = entropy_profile(spec)
        w_tp = spec.weight_row(basis.index_of(pinnacle_state(basis.L)))
        is_zero = np.zeros(spec.size, dtype=bool)
        is_zero[spec.zero_indices] = True
        ie = np.empty(spec.size)
        for a in range(spec.size):
            ie[a] = shannon_entropy(StateVector(spec.vectors.column(a), basis))
        rows = ((a, float(spec.quasienergies[a]), float(ee[a]), float(ie[a]),
                 float(w_tp[a]), int(is_zero[a])) for a in range(spec.size))
        _write_csv(per_state, ["alpha", "quasienergy", "S_EE", "S_IE",
                               "overlap_tp", "is_zero_mode"], rows)
    _write_manifest("scar", opts, _manifest_path(opts, per_state))
    _emit_json(payload)
    return 0


_OBSERVABLE_ORDER = ("F", "EE", "Pt")
_OBSERVABLE_COLUMNS = {"F": "F", "EE": "S_EE", "Pt": "P_t"}


def _parse_observables(text: str | None) -> list[str]:
    if not text:
        return list(_OBSERVABLE_ORDER)
    names = [n.strip() for n in str(text).split(",") if n.strip()]
    bad = [n for n in names if n not in _OBSERVABLE_ORDER]
    if bad:
        raise ConfigError(f"observables: unknown observable {bad[0]!r} "
                          f"(choose from {', '.join(_OBSERVABLE_ORDER)})")
    return [n for n in _OBSERVABLE_ORDER if n in names]


def _effective_series(spec, state, cycles, wanted):
    from .dynamics import ee_series, fidelity_series, tower_probability_series
    out = {}
    if "F" in wanted:
        out["F"] = fidelity_series(spec, state, cycles)
    if "EE" in wanted:
        out["EE"] = ee_series(spec, state, cycles)
    if "Pt" in wanted:
        out["Pt"] = tower_probability_series(spec, state, cycles=cycles)
    return out


def _cmd_dynamics(opts: dict) -> int:
    import numpy as np
    from .dynamics import (ensemble_stats, fta, full_drive_series,
                           random_nontower_states)
    basis = _sector(opts)
    params, family = _resolve_params(opts)
    model = opts.get("model") or "effective"
    if model not in ("effective", "full"):
        raise ConfigError(f"model: expected effective or full, got {model!r}")
    cycles = _positive(opts, "cycles", 4096)
    wanted = _parse_observables(opts.get("observables"))
    init = _parse_initial(opts.get("initial") or "tp", basis.L)

    spec = None
    if model == "effective":
        spec = _diagonalize(opts, _build_effective(basis, params, family))

    def run_one(state):
        if model == "effective":
            return _effective_series(spec, state, cycles, wanted)
        return full_drive_series(basis, params, state, cycles, wanted)

    if init["kind"] == "state":
        series = run_one(init["state"])
        sds = {}
    else:
        samples = random_nontower_states(basis, count=init["count"],
                                         seed=init["seed"])
        runs = [run_one(s) for s in samples]
        series, sds = {}, {}
        for name in wanted:
            agg = ensemble_stats([r[name] for r in runs],
                                 _OBSERVABLE_COLUMNS[name])
            series[name], sds[name] = agg, agg

    out = _require(opts, "out")
    header = ["k"] + [_OBSERVABLE_COLUMNS[n] for n in wanted]
    columns = [series[n].values for n in wanted]
    if sds:
        header += [_OBSERVABLE_COLUMNS[n] + "_sd" for n in wanted]
        columns += [sds[n].sd for n in wanted]
    ks = np.arange(len(columns[0]))
    _write_csv(out, header, zip(ks, *columns))

    if opts.get("fft"):
        freqs, amps = fta(series[wanted[0]].values)
        fft_path = opts.get("fft_out") or (os.path.splitext(out)[0] + "_fft.csv")
        _write_csv(fft_path, ["freq_rad_per_cycle", "amplitude"],
                   zip(freqs, amps))
    _write_manifest("dynamics", opts, _manifest_path(opts, out))
    _emit_json({"dimension": basis.size, "model": model,
                "initial": init["label"], "cycles": int(cycles),
                "observables": wanted})
    return 0


def _cmd_compare(opts: dict) -> int:
    import numpy as np
    from .dynamics import fidelity_series, full_fidelity_series
    basis = _sector(opts)
    params, family = _resolve_params(opts)
    cycles = _positive(opts, "cycles", int(round(50 * params.g)))
    init = _parse_initial(opts.get("initial") or "tp", basis.L)
    if init["kind"] != "state":
        raise ConfigError("initial: compare runs a single Fock state")
    spec = _diagonalize(opts, _build_effective(basis, params, family))
    f_eff = fidelity_series(spec, init["state"], cycles)
    f_full = full_fidelity_series(basis, params, init["state"], cycles)
    diff = np.abs(f_full.values - f_eff.values)
    out = opts.get("out")
    if out:
        ks = np.arange(len(diff))
        _write_csv(out, ["k", "F_full", "F_eff", "abs_diff"],
                   zip(ks, f_full.values, f_eff.values, diff))
    _write_manifest("compare", opts, _manifest_path(opts, out))
    _emit_json({"dimension": basis.size, "g": params.g, "cycles": int(cycles),
                "initial": init["label"], "max_abs_diff": float(diff.max())})
    return 0


# ------------------------------------------------------------- reproduce

def _silently(handler, opts: dict) -> None:
    """Run a subcommand for a bundle, swallowing its stdout JSON."""
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()):
        handler(opts)


def _bundle_spectral_map(opts: dict, outdir: str, scale: str) -> dict:
    L = 16 if scale == "desk" else 18
    run = dict(opts, L=L, N=None, family="0,0,+", g=50.0, u=0.5,
               per_state=os.path.join(outdir, f"states_L{L}.csv"),
               out=None, manifest=os.path.join(outdir, "manifest.json"))
    _silently(_cmd_scar, run)
    return {"files": [run["per_state"]]}


def _bundle_quench_series(opts: dict, outdir: str, scale: str) -> dict:
    sizes = (12, 14) if scale == "desk" else (16, 18)
    cycles = _positive(opts, "cycles", 4096)
    seed = 7 if opts.get("seed") is None else opts["seed"]
    files = []
    for L in sizes:
        for initial in ("tp", "te_p:2", f"random:10:{seed}"):
            stem = initial.replace(":", "-")
            out = os.path.join(outdir, f"quench_L{L}_{stem}.csv")
            run = dict(opts, L=L, N=None, family="0,0,+", g=50.0, u=0.5,
                       model="effective", initial=initial, cycles=cycles,
                       observables="F,EE,Pt", out=out, fft=False,
                       manifest=os.devnull)
            _silently(_cmd_dynamics, run)
            files.append(out)
    return {"files": files}


def _bundle_revival_spectra(opts: dict, outdir: str, scale: str) -> dict:
    from .dynamics import (analytic_fidelity, dominant_peaks, fta,
                           spta_fidelity, tower_probability_series)
    from .fock_basis import SectorBasis, pinnacle_state
    from .resonance import resonant_family
    sizes = (12, 14) if scale == "desk" else (16, 18)
    cycles = _positive(opts, "cycles", 4096)
    family = resonant_family(0, 0, "+")
    params = family.params(50.0, 0.5)
    files, peaks = [], {}
    for L in sizes:
        basis = SectorBasis(L, L // 2)
        spec = _diagonalize(opts, _build_effective(basis, params, family))
        tp = pinnacle_state(L)
        f_series = analytic_fidelity(spec, tp, cycles)
        pt_series = tower_probability_series(spec, tp, cycles=cycles)
        freqs, f_amp = fta(f_series.values)
        _, pt_amp = fta(pt_series.values)
        spta = spta_fidelity(params, L, cycles)
        _, spta_amp = fta(spta.values)
        out = os.path.join(outdir, f"fta_L{L}.csv")
        _write_csv(out, ["freq_rad_per_cycle", "F", "P_t", "F_spta"],
                   zip(freqs, f_amp, pt_amp, spta_amp))
        files.append(out)
        pk_f, _ = dominant_peaks(freqs, f_amp)
        pk_s, _ = dominant_peaks(freqs, spta_amp, count=1)
        peaks[f"L{L}"] = {"F": [float(x) for x in pk_f],
                          "F_spta": [float(x) for x in pk_s]}
    with open(os.path.join(outdir, "peaks.json"), "w") as fh:
        json.dump(_json_ready(peaks), fh, indent=2)
        fh.write("\n")
    return {"files": files, "peaks": peaks}


def _bundle_model_comparison(opts: dict, outdir: str, scale: str) -> dict:
    import numpy as np
    L = 12 if scale == "desk" else 16
    g_values = (15.0, 30.0)
    files, summary = [], {}
    for g in g_values:
        cycles = _positive(opts, "cycles", int(round(50 * g)))
        out = os.path.join(outdir, f"compare_L{L}_g{g:g}.csv")
        run = dict(opts, L=L, N=None, family="0,0,+", g=g, u=0.5,
                   cycles=cycles, initial="tp", out=out,
                   manifest=os.devnull)
        _silently(_cmd_compare, run)
        files.append(out)
        data = np.genfromtxt(out, delimiter=",", names=True)
        summary[f"g{g:g}"] = float(np.max(data["abs_diff"]))
    with open(os.path.join(outdir, "discrepancy.json"), "w") as fh:
        json.dump(_json_ready(summary), fh, indent=2)
        fh.write("\n")
    return {"files": files, "max_abs_diff": summary}


def _bundle_ratio_landscape(opts: dict, outdir: str, scale: str) -> dict:
    import numpy as np
    from .resonance import scan_ratio_grid
    steps = 160 if scale == "desk" else 320
    U_values = np.linspace(1.0, 80.0, steps)
    g_values = np.linspace(1.0, 80.0, steps)
    table = scan_ratio_grid(U_values, g_values, omega=20.0, u=0.5)
    files = []
    for i, name in enumerate(("r1", "r2", "r3")):
        out = os.path.join(outdir, f"ratio_{name}.csv")
        values = table[:, [0, 1, 2 + i]].tolist()
        flags = table[:, 5 + i].astype(int).tolist()
        _write_csv(out, ["U", "g", name, "div"],
                   (r + [d] for r, d in zip(values, flags)))
        files.append(out)
    return {"files": files, "steps": steps}


_BUNDLE_HANDLERS = {
    "spectral-map": _bundle_spectral_map,
    "quench-series": _bundle_quench_series,
    "revival-spectra": _bundle_revival_spectra,
    "model-comparison": _bundle_model_comparison,
    "ratio-landscape": _bundle_ratio_landscape,
}


def _cmd_reproduce(opts: dict) -> int:
    bundle = _require(opts, "bundle")
    if bundle not in _BUNDLE_HANDLERS:
        raise ConfigError(f"bundle: unknown bundle {bundle!r} "
                          f"(choose from {', '.join(BUNDLES)})")
    scale = opts.get("scale") or "desk"
    if scale not in ("desk", "paper"):
        raise ConfigError(f"scale: expected desk or paper, got {scale!r}")
    outdir = opts.get("outdir") or f"{bundle}-{scale}"
    os.makedirs(outdir, exist_ok=True)
    result = _BUNDLE_HANDLERS[bundle](opts, outdir, scale)
    _write_manifest("reproduce", opts,
                    os.path.join(outdir, "bundle.manifest.json"))
    _emit_json({"bundle": bundle, "scale": scale, "outdir": outdir, **result})
    return 0


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
    reg.add(p, "--bundle", help=" | ".join(BUNDLES))
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
        return _HANDLERS[ns.command](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
