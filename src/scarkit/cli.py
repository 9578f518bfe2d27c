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
failed numerical invariant (non-Hermitian build, unitarity drift).  A
non-finite drive parameter, a negative seed, or an output path that is empty
or in a missing or unwritable directory exits 2 before anything is built.

Option resolution imports no numpy: the handlers import the library, so
`--threads` can cap the BLAS pools before numpy first loads.  Importing the
library loads numpy only, no scipy module: every Hamiltonian is scarkit's
own numpy `CSRMatrix`.  `scipy.sparse` and `scipy.sparse.linalg` (and with
it `scipy.linalg`) load only on the exact drive's stepping route
(`dynamics.SteppedDrive`), which `dynamics.exact_drive` picks above
FULL_DENSE_MAX states; below, it returns the drive's Floquet spectrum.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
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


_CSV_BLOCK_ROWS = 8192


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns as CSV, one column per header name.

    A column is a 1-D numpy array or a list of str.  Float cells take 15
    significant digits with -0.0 folded into 0, integer and bool cells are
    decimal integers, strings pass through.  Each block of _CSV_BLOCK_ROWS
    rows formats every distinct value of a numeric column once, followed by
    the separator of its column (`,`, or `\\n` in the last one); a str
    column keeps its words and takes a column of separators beside them.
    The block is written by one join over its cells.
    """
    import numpy as np

    def cells(column, end: str) -> tuple:
        """The object columns of `column`'s cells and separators."""
        if isinstance(column, list):
            return (np.array(column, dtype=object),
                    np.full(len(column), end, dtype=object))
        if column.dtype.kind == "f":
            uniq, inv = np.unique(column + 0.0, return_inverse=True)
            words = [f"{v:.15g}{end}" for v in uniq.tolist()]
        else:   # integers, and bools as 0/1
            uniq, inv = np.unique(column.astype(np.uint8, copy=False)
                                  if column.dtype.kind == "b" else column,
                                  return_inverse=True)
            words = [f"{v}{end}" for v in uniq.tolist()]
        return (np.array(words, dtype=object)[inv],)

    n = len(columns[0])
    ends = [","] * (len(columns) - 1) + ["\n"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            block = np.column_stack([
                part for c, end in zip(columns, ends)
                for part in cells(c[lo:lo + _CSV_BLOCK_ROWS], end)])
            fh.write("".join(block.ravel().tolist()))


def _json_ready(obj):
    """Round floats to the CSV precision, -0.0 folded into 0, so JSON and
    CSV artifacts agree."""
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
            else float(format(f + 0.0, ".15g"))
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
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") \
                from exc
        if isinstance(data.get("config"), dict):
            data = data["config"]
        # every value as text, as from a key = value line, for its coercion
        return {_normalize_key(k): v if v is None else str(v)
                for k, v in data.items()}
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


def _option_types(command: str) -> dict:
    """{dest: type} of `command`'s options, in its `--help` order."""
    return {flag[2:].replace("-", "_"): type_
            for flag, type_, _ in _COMMANDS[command][2]}


def _resolve_options(ns: argparse.Namespace) -> tuple[dict, dict]:
    """The running subcommand's options, and where each value came from:
    "flag", "env", "config" or "default"."""
    config = _load_config(ns.config) if ns.config else {}
    types = _option_types(ns.command)
    stray = sorted(set(config) - {_normalize_key(d) for d in types})
    if stray:
        raise ConfigError(f"config: unknown key {stray[0]!r}")
    resolved, sources = {}, {}
    for dest, type_ in types.items():
        value, source = getattr(ns, dest), "flag"
        if value is None:
            env_key = ENV_PREFIX + dest.upper()
            cfg_key = _normalize_key(dest)
            if env_key in os.environ:
                value, source = os.environ[env_key], "env"
            elif cfg_key in config:
                value, source = config[cfg_key], "config"
            else:
                value, source = (False if type_ is bool else None), "default"
        if isinstance(value, str):
            try:
                value = (_as_bool if type_ is bool else type_)(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{dest}: {exc}") from exc
        resolved[dest], sources[dest] = value, source
    return resolved, sources


_OUTPUT_FILES = ("out", "per_state", "fft_out", "manifest")


def _check_writable_dir(key: str, path: str, directory: str) -> None:
    if not os.path.isdir(directory):
        raise ConfigError(f"{key}: directory {directory!r} of {path!r} "
                          "does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"{key}: directory {directory!r} of {path!r} "
                          "is not writable")


def _check_options(opts: dict) -> None:
    """Refuse, before anything is built, values that no handler can use.

    A non-finite value of a float option (the drive parameters), a dense
    threshold or thread count below 1 (also where nothing uses it), a
    negative seed, an empty output path or `outdir`, and an output path
    whose directory is missing or unwritable (`outdir` itself may be
    missing, its parent not).
    """
    for key, value in opts.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    _positive(opts, "dense_threshold", None)
    _positive(opts, "threads", None)
    if opts.get("seed") is not None and opts["seed"] < 0:
        raise ConfigError(f"seed: must be >= 0, got {opts['seed']}")
    for key in (*_OUTPUT_FILES, "outdir"):
        if opts.get(key) == "":
            raise ConfigError(f"{key}: empty path")
    for key in _OUTPUT_FILES:
        path = opts.get(key)
        if path:
            if os.path.isdir(path):
                raise ConfigError(f"{key}: {path!r} is a directory")
            _check_writable_dir(key, path, os.path.dirname(path) or ".")
    outdir = opts.get("outdir")
    if outdir:
        if os.path.exists(outdir) and not os.path.isdir(outdir):
            raise ConfigError(f"outdir: {outdir!r} is not a directory")
        _check_writable_dir("outdir", outdir, outdir if os.path.isdir(outdir)
                            else os.path.dirname(outdir) or ".")


def _require(opts: dict, *keys):
    """opts[key] for each key; an unset or empty value is refused."""
    values = []
    for key in keys:
        if opts.get(key) in (None, ""):
            raise ConfigError(f"missing required key: {key}")
        values.append(opts[key])
    return values[0] if len(values) == 1 else values


@contextlib.contextmanager
def _keyed(key: str):
    """Re-raise a ValueError in the block as a ConfigError naming `key`;
    a ConfigError, which names its own key, passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
    from .hamiltonian import resonant_family
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError("family: expected k1,k2,branch (e.g. 0,0,+)")
    with _keyed("family"):
        return resonant_family(int(parts[0]), int(parts[1]), parts[2])


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
    if g > 0 and not u_over_g > 0:      # else ModelParams names g
        raise ConfigError(f"u_over_g: must be positive, got {u_over_g}")
    return ModelParams(g=g, U=u_over_g * g, u=u, omega=omega), None


def _sector(opts: dict):
    from .fock_basis import SectorBasis
    L = _positive(opts, "L", _require(opts, "L"))
    N = opts.get("N")
    if N is None:
        if L % 2:
            raise ConfigError("N: required when L is odd (no half filling)")
        N = L // 2
    with _keyed("N"):       # L >= 1 here, so only N can be out of range
        return SectorBasis(L, N)


def _positive(opts: dict, key: str, default):
    """opts[key], or `default` when unset; either is refused below 1."""
    value = default if opts.get(key) is None else opts[key]
    if value is not None and value < 1:
        raise ConfigError(f"{key}: must be at least 1, got {value}")
    return value


def _need_tower(basis, what: str) -> None:
    """Refuse a sector without the half-filled tower (L = 2N >= 4), by a
    ConfigError that opens with `what`: the key, the subject and its verb."""
    if basis.L < 4 or basis.L != 2 * basis.N:
        raise ConfigError(f"{what} the half-filled tower (L = 2N >= 4), "
                          f"got L={basis.L}, N={basis.N}")


def _parse_initial(text: str, basis):
    """tp | te_p:<q> | te_h:<q> | [bits:]<word> | random:<n>:<seed> -> spec dict.

    A bare word must be L characters of 0/1, so it cannot be mistaken for
    the other forms.  The dict's `starts` are Fock states of `basis`; a
    refusal names `initial`, or `L` where the pinnacle needs an even L >= 4.
    """
    from .fock_basis import FockState, pinnacle_state
    text = str(text).strip()
    with _keyed("initial"):
        if text.startswith("random:"):
            from .dynamics import random_nontower_states
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigError("initial: random takes random:<count>:<seed>")
            count, seed = int(parts[1]), int(parts[2])
            if seed < 0:
                raise ConfigError(f"initial: random seed must be >= 0, got {seed}")
            _need_tower(basis, "initial: random starts need")
            return {"kind": "random", "label": text,
                    "starts": random_nontower_states(basis, count, seed)}
        if text == "tp":
            with _keyed("L"):
                state = pinnacle_state(basis.L)
        elif text.startswith("bits:") or (len(text) == basis.L
                                          and set(text) <= {"0", "1"}):
            state = FockState.from_string(text.removeprefix("bits:"))
        elif text.startswith(("te_p:", "te_h:")):
            from .graph import tower_states
            q = int(text.split(":", 1)[1])
            state = tower_states(basis.L).excursion(q, hole=text.startswith("te_h"))
        else:
            raise ConfigError(f"initial: unrecognized form {text!r}")
        basis.index_of(state)
    return {"kind": "state", "label": text.removeprefix("bits:"),
            "starts": [state]}


def _parse_grid(text: str):
    import numpy as np
    try:
        u_part, g_part = str(text).split(",")
        axes = [part.split(":") for part in (u_part, g_part)]
        axes = [(float(lo), float(hi), int(n)) for lo, hi, n in axes]
    except ValueError as exc:
        raise ConfigError(f"grid: expected U0:U1:n,g0:g1:m ({exc})") from exc
    # refused before linspace, which warns on a non-finite bound; U and g
    # must be positive, and an axis with no sample scans nothing
    if not all(0 < b < math.inf for lo, hi, _ in axes for b in (lo, hi)):
        raise ConfigError("grid: bounds must be finite and positive, "
                          f"got {text!r}")
    if not all(n >= 1 for *_, n in axes):
        raise ConfigError(f"grid: each axis needs n >= 1 samples, got {text!r}")
    return [np.linspace(*axis) for axis in axes]


def _build_effective(basis, params, family):
    from .hamiltonian import build_effective_general, build_effective_resonant
    if family is not None:
        return build_effective_resonant(basis, params, family.k1, family.k2,
                                        family.branch)
    return build_effective_general(basis, params)


def _spectrum(opts: dict, basis=None):
    """The Spectrum of the effective H that `opts` names; it carries the H.

    A handler that checks its other options against the sector first passes
    that `basis` in, so nothing is diagonalized before a refusal.
    """
    from .spectral import DENSE_EIG_DEFAULT, diagonalize
    if basis is None:
        basis = _sector(opts)
    params, family = _resolve_params(opts)
    threshold = _positive(opts, "dense_threshold", DENSE_EIG_DEFAULT)
    ham = _build_effective(basis, params, family)
    return diagonalize(ham, dense_threshold=threshold)


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
        m = ham.matrix          # canonical: stored in (row, col) order
        values = m.values()
        _write_csv(out, ["row", "col", "real", "imag"],
                   [m.row_indices(), m.indices, values.real, values.imag])
    return {"kind": ham.kind, "dimension": ham.dimension,
            "nnz": int(ham.matrix.nnz)}, out


def _cmd_resonance(opts: dict) -> tuple:
    from .resonance import scan_ratio_grid
    family_text = opts.get("family")
    if family_text is not None:
        stray = [k for k in ("grid", "omega", "u", "out")
                 if opts.get(k) is not None]
        if stray:
            raise ConfigError(f"{stray[0]}: not read with family, which "
                              "prints its point and writes no table")
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
    from .spectral import ChiralPairVectors, gap_ratio_stats
    spec = _spectrum(opts)
    basis = spec.basis
    out = opts.get("out")
    if out:
        plus_weight = spec.vectors.sector_weight(basis.parities == 1)
        _write_csv(out, ["alpha", "quasienergy", "is_zero_mode",
                         "chiral_weight_plus"],
                   [np.arange(spec.size), spec.quasienergies, spec.is_zero,
                    plus_weight])
    try:
        r_mean = gap_ratio_stats(spec).mean_r
    except DomainError:
        r_mean = None
    return {"dimension": spec.size,
            "zero_mode_count": len(spec.zero_indices),
            # |n+ - n-| bounds the kernel of a chiral H: the chiral route's
            "kernel_bound": (dim_difference_formula(basis.N)
                             if basis.L == 2 * basis.N
                             and isinstance(spec.vectors, ChiralPairVectors)
                             else None),
            "r_mean": r_mean}, out


def _cmd_graph(opts: dict) -> tuple:
    from .graph import (HOP_CLASSES, bipartite_violations, build_graph,
                        components, to_dot, tower_internal_edges, tower_states)
    basis = _sector(opts)
    emit = opts.get("emit") or "json"
    out = opts.get("out")
    allowed = None
    if opts.get("components"):
        names = [c.strip() for c in str(opts["components"]).split(",")]
        bad = [n for n in names if n not in HOP_CLASSES]
        if bad:
            raise ConfigError(f"components: unknown hop class {bad[0]!r} "
                              f"(choose from {', '.join(HOP_CLASSES)})")
        allowed = set(names)
    graph = build_graph(basis)
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


def _scar_report(spec, tp):
    """Scar JSON payload at the pinnacle; kernel observables go null without one."""
    import numpy as np
    from .observables import (coe_ie_reference, entanglement_entropy,
                              page_entropy, scar_state, shannon_entropy,
                              zero_projection)
    payload = {
        "dimension": spec.size,
        "zero_mode_count": len(spec.zero_indices),
        "P0_tp": zero_projection(tp, spec),
        "overlap_tp_s0": None, "S_EE_s0": None, "S_IE_s0": None,
        "page_value": page_entropy(spec.basis.L),
        "coe_ie": coe_ie_reference(spec.size),
    }
    try:
        s0 = scar_state(spec, tp)
    except DomainError:
        return payload
    idx = spec.basis.index_of(tp)
    payload["overlap_tp_s0"] = float(np.abs(s0.amplitudes[idx]) ** 2)
    payload["S_EE_s0"] = entanglement_entropy(s0)
    payload["S_IE_s0"] = shannon_entropy(s0)
    return payload


def _cmd_scar(opts: dict) -> tuple:
    import numpy as np
    from .fock_basis import pinnacle_state
    from .observables import (eigenstate_measures, schmidt_entropies,
                              shannon_entropies)
    basis = _sector(opts)
    if basis.L != 2 * basis.N:
        raise ConfigError("N: the scar report is defined at half filling")
    with _keyed("L"):
        tp = pinnacle_state(basis.L)
    spec = _spectrum(opts, basis)
    payload = _scar_report(spec, tp)
    per_state = opts.get("per_state")
    if per_state:
        ee, ie = eigenstate_measures(spec, [
            lambda cols: schmidt_entropies(cols, basis), shannon_entropies])
        w_tp = spec.weight_row(basis.index_of(tp))
        _write_csv(per_state, ["alpha", "quasienergy", "S_EE", "S_IE",
                               "overlap_tp", "is_zero_mode"],
                   [np.arange(spec.size), spec.quasienergies, ee, ie, w_tp,
                    spec.is_zero])
    return payload, per_state


def _parse_observables(text: str | None) -> list[str]:
    from .dynamics import OBSERVABLES
    if not text:
        return list(OBSERVABLES)
    names = [n.strip() for n in str(text).split(",") if n.strip()]
    bad = [n for n in names if n not in OBSERVABLES]
    if bad or not names:
        what = f"unknown observable {bad[0]!r}" if bad else \
            f"none named in {text!r}"
        raise ConfigError(f"observables: {what} "
                          f"(choose from {', '.join(OBSERVABLES)})")
    return [n for n in OBSERVABLES if n in names]


def _cmd_dynamics(opts: dict, spec=None) -> tuple:
    """`spec`, if given, is the effective spectrum `opts` names (one solve)."""
    import numpy as np
    from . import dynamics
    basis = _sector(opts) if spec is None else spec.basis
    model = opts.get("model") or "effective"
    if model not in ("effective", "full"):
        raise ConfigError(f"model: expected effective or full, got {model!r}")
    cycles = _positive(opts, "cycles", dynamics.DEFAULT_CYCLES)
    wanted = _parse_observables(opts.get("observables"))
    init = _parse_initial(opts.get("initial") or "tp", basis)
    if "Pt" in wanted:
        _need_tower(basis, "observables: P_t needs")
    if "EE" in wanted and basis.L < 2:
        raise ConfigError(f"observables: S_EE needs a half-chain cut "
                          f"(L >= 2), got L={basis.L}")
    out = _require(opts, "out")
    if opts.get("fft_out") is not None and not opts.get("fft"):
        raise ConfigError("fft_out: needs --fft")
    if opts.get("fft"):
        with _keyed("fft"):     # cycles + 1 samples, refused before any solve
            dynamics.check_fta_length(cycles + 1)
    dynamics.check_cycles(cycles, len(init["starts"]) * len(wanted))
    if model == "full":
        source = dynamics.exact_drive(basis, _resolve_params(opts)[0])
    else:
        source = spec if spec is not None else _spectrum(opts, basis)
    runs = dynamics.series(source, init["starts"], cycles, wanted)

    series = runs[0]
    if init["kind"] == "random":
        series = {n: dynamics.ensemble_stats([r[n] for r in runs],
                                             series[n].label)
                  for n in wanted}
    picked = [series[n] for n in wanted]
    header = ["k"] + [s.label for s in picked]
    columns = [s.values for s in picked]
    if init["kind"] == "random":
        header += [s.label + "_sd" for s in picked]
        columns += [s.sd for s in picked]
    _write_csv(out, header, [np.arange(len(columns[0])), *columns])

    if opts.get("fft"):
        freqs, amps = dynamics.fta(series[wanted[0]].values)
        fft_path = opts.get("fft_out") or (os.path.splitext(out)[0] + "_fft.csv")
        _write_csv(fft_path, ["freq_rad_per_cycle", "amplitude"], [freqs, amps])
    return {"dimension": basis.size, "model": model,
            "initial": init["label"], "cycles": int(cycles),
            "observables": wanted}, out


def _cmd_compare(opts: dict) -> tuple:
    import numpy as np
    from .dynamics import check_cycles, fidelity_series, full_fidelity_series
    basis = _sector(opts)
    init = _parse_initial(opts.get("initial") or "tp", basis)
    if init["kind"] != "state":
        raise ConfigError("initial: compare runs a single Fock state")
    # the default cycles depend on g alone, so they are checked before the
    # parameters are built: 50 g is inf for a huge g (whose U may overflow
    # too), refused by the budget, not rounded; the parameters refuse g <= 0
    g = _require(opts, "g")
    default = 50 * g if g > 0 else 1
    cycles = _positive(opts, "cycles",
                       int(round(default)) if math.isfinite(default) else default)
    check_cycles(cycles, 3)     # F_full, F_eff and their difference
    params, _ = _resolve_params(opts)
    spec = _spectrum(opts, basis)
    f_eff = fidelity_series(spec, init["starts"][0], cycles)
    f_full = full_fidelity_series(basis, params, init["starts"][0], cycles)
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
_ENSEMBLE = 10      # quench-series' random starts, the most any bundle run holds


def _bundle_spectral_map(opts: dict, outdir: str, sizes) -> dict:
    (L,) = sizes
    run = {**opts, **_WORKING_POINT, "L": L,
           "per_state": os.path.join(outdir, f"states_L{L}.csv")}
    _cmd_scar(run)
    scar_keys = _option_types("scar")
    _write_manifest("scar", {k: v for k, v in run.items() if k in scar_keys},
                    os.path.join(outdir, "manifest.json"))
    return {"files": [run["per_state"]]}


def _bundle_quench_series(opts: dict, outdir: str, sizes) -> dict:
    from .dynamics import DEFAULT_CYCLES
    seed = 7 if opts.get("seed") is None else opts["seed"]
    cycles = _positive(opts, "cycles", DEFAULT_CYCLES)    # refused before any solve
    files = []
    for L in sizes:
        sector = {**opts, **_WORKING_POINT, "L": L, "cycles": cycles}
        spec = _spectrum(sector)
        for initial in ("tp", "te_p:2", f"random:{_ENSEMBLE}:{seed}"):
            stem = initial.replace(":", "-")
            out = os.path.join(outdir, f"quench_L{L}_{stem}.csv")
            _cmd_dynamics({**sector, "model": "effective", "initial": initial,
                           "observables": "F,EE,Pt", "out": out,
                           "fft": False}, spec)
            files.append(out)
    return {"files": files}


def _bundle_revival_spectra(opts: dict, outdir: str, sizes) -> dict:
    from .dynamics import (DEFAULT_CYCLES, analytic_fidelity, dominant_peaks,
                           fta, spta_fidelity, tower_probability_series)
    from .fock_basis import pinnacle_state
    cycles = _positive(opts, "cycles", DEFAULT_CYCLES)
    files, peaks = [], {}
    for L in sizes:
        spec = _spectrum({**opts, **_WORKING_POINT, "L": L})
        tp = pinnacle_state(L)
        f_series = analytic_fidelity(spec, tp, cycles)
        pt_series = tower_probability_series(spec, tp, cycles=cycles)
        freqs, f_amp = fta(f_series.values)
        _, pt_amp = fta(pt_series.values)
        spta = spta_fidelity(spec.ham, cycles)
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


# bundle -> (runner, sizes per scale, the options of _BUNDLE_OPTIONS it
# reads).  The sizes are chain lengths at half filling, except
# ratio-landscape's, which are grid steps per axis.
_BUNDLE_OPTIONS = ("cycles", "seed", "dense_threshold")
_BUNDLES = {
    "spectral-map": (_bundle_spectral_map, {"desk": (16,), "paper": (18,)},
                     ("dense_threshold",)),
    "quench-series": (_bundle_quench_series,
                      {"desk": (12, 14), "paper": (16, 18)},
                      ("cycles", "seed", "dense_threshold")),
    "revival-spectra": (_bundle_revival_spectra,
                        {"desk": (12, 14), "paper": (16, 18)},
                        ("cycles", "dense_threshold")),
    "model-comparison": (_bundle_model_comparison,
                         {"desk": (12,), "paper": (16,)},
                         ("cycles", "dense_threshold")),
    "ratio-landscape": (_bundle_ratio_landscape,
                        {"desk": (160,), "paper": (320,)}, ()),
}


def _drop_unread_env(opts: dict, sources: dict) -> None:
    """Drop from `opts` each environment value that its bundle does not
    read: it is set for other runs, and a manifest that kept it would be
    refused on replay.  A flag or config value it does not read is refused
    by `_cmd_reproduce`."""
    _, _, reads = _BUNDLES.get(opts["bundle"], (None, None, ()))
    for key in _BUNDLE_OPTIONS:
        if sources[key] == "env" and key not in reads:
            del opts[key]


def _cmd_reproduce(opts: dict) -> tuple:
    bundle = _require(opts, "bundle")
    if bundle not in _BUNDLES:
        raise ConfigError(f"bundle: unknown bundle {bundle!r} "
                          f"(choose from {', '.join(_BUNDLES)})")
    scale = opts.get("scale") or "desk"
    if scale not in ("desk", "paper"):
        raise ConfigError(f"scale: expected desk or paper, got {scale!r}")
    runner, scales, reads = _BUNDLES[bundle]
    for key in _BUNDLE_OPTIONS:
        if opts.get(key) is not None and key not in reads:
            raise ConfigError(f"{key}: bundle {bundle!r} does not read it")
    sizes = scales[scale]
    if "dense_threshold" in reads:
        from .spectral import DENSE_EIG_DEFAULT, check_dense
        threshold = _positive(opts, "dense_threshold", DENSE_EIG_DEFAULT)
        for L in sizes:
            check_dense(math.comb(L, L // 2), threshold,
                        f"{bundle} --scale {scale}: the L = {L} sector")
    cycles = _positive(opts, "cycles", None)    # refused before outdir is made
    if cycles is not None:
        from .dynamics import OBSERVABLES, check_cycles, check_fta_length
        check_cycles(cycles, _ENSEMBLE * len(OBSERVABLES))
        if bundle == "revival-spectra":   # its closed forms: C(L, L/2) x (K+1)
            check_cycles(cycles, math.comb(sizes[-1], sizes[-1] // 2))
            with _keyed("cycles"):        # the spectra of K + 1 samples
                check_fta_length(cycles + 1)
    outdir = opts.get("outdir") or f"{bundle}-{scale}"
    os.makedirs(outdir, exist_ok=True)
    result = runner(opts, outdir, sizes)
    # the default manifest path is <outdir>/bundle.manifest.json
    return ({"bundle": bundle, "scale": scale, "outdir": outdir, **result},
            os.path.join(outdir, "bundle"))


# ------------------------------------------------------------------ main

# Each subcommand's options as (flag, type, help) rows, in `--help` order;
# type bool is a flag that takes no value.
_COMMON = (("--config", str, "key = value file or a manifest JSON"),
           ("--manifest", str, "manifest path (default: <out>.manifest.json)"),
           ("--threads", int, "cap BLAS/worker thread pools"))
_SECTOR = (("--L", int, "chain length"),
           ("--N", int, "particle number (default L/2)"))
_FAMILY = ("--family", str, "resonant family as k1,k2,branch")
_MODEL = (_FAMILY,
          ("--g", float, "tilt strength"),
          ("--u", float, "drive amplitude"),
          ("--omega", float, "drive frequency (raw route)"),
          ("--u-over-g", float, "interaction over tilt (raw route)"))
_DENSE = ("--dense-threshold", int,
          "refuse dense eigensolves above this dimension")
_SOLVE = (*_COMMON, *_SECTOR, *_MODEL, _DENSE)     # the diagonalizing commands

# subcommand -> (handler, help line, option rows), in `--help` order
_COMMANDS = {
    "basis": (_cmd_basis, "sector summary and state table",
              (*_COMMON, *_SECTOR, ("--out", str, "per-state CSV path"))),
    "hamiltonian": (_cmd_hamiltonian, "operator matrices as sparse CSV", (
        *_COMMON, *_SECTOR, *_MODEL,
        ("--kind", str, "onsite | hop | half1 | half2 | effective | resonant"),
        ("--out", str, "COO CSV path"))),
    "resonance": (_cmd_resonance, "families and amplitude-ratio maps", (
        *_COMMON, _FAMILY,
        ("--omega", float, "drive frequency"),
        ("--u", float, "drive amplitude"),
        ("--grid", str, "scan ranges U0:U1:n,g0:g1:m"),
        ("--out", str, "ratio table CSV path"))),
    "spectrum": (_cmd_spectrum, "diagonalize one sector",
                 (*_SOLVE, ("--out", str, "per-level CSV path"))),
    "graph": (_cmd_graph, "hop graph, components, tower", (
        *_COMMON, *_SECTOR,
        ("--emit", str, "dot | json (default json)"),
        ("--components", str, "hop classes to keep, e.g. g,g-U"),
        ("--out", str, "output path (default stdout)"))),
    "scar": (_cmd_scar, "kernel projection report",
             (*_SOLVE, ("--per-state", str, "per-eigenstate CSV path"))),
    "dynamics": (_cmd_dynamics, "stroboscopic time series", (
        *_SOLVE,
        ("--model", str, "effective | full"),
        ("--initial", str,
         "tp | te_p:<q> | te_h:<q> | [bits:]<word> | random:<n>:<seed>"),
        ("--cycles", int, "driving cycles (default 4096)"),
        ("--observables", str, "comma list from F,EE,Pt"),
        ("--out", str, "series CSV path"),
        ("--fft", bool, "also write the amplitude spectrum"),
        ("--fft-out", str, "amplitude spectrum CSV path"))),
    "compare": (_cmd_compare, "exact drive vs effective model", (
        *_SOLVE,
        ("--initial", str, "initial state (default tp)"),
        ("--cycles", int, "cycles (default 50*g)"),
        ("--out", str, "per-cycle CSV path"))),
    "reproduce": (_cmd_reproduce, "canned experiment bundles", (
        *_COMMON,
        ("--bundle", str, " | ".join(_BUNDLES)),
        ("--scale", str, "desk | paper (default desk)"),
        ("--outdir", str, "bundle output directory"),
        ("--cycles", int, "override bundle cycle counts"),
        ("--seed", int, "ensemble seed (default 7)"),
        _DENSE)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in `_COMMANDS`.

    With a `command`, only that subcommand's parser gets its option
    arguments; every subcommand is still listed with its help line.
    """
    parser = argparse.ArgumentParser(
        prog="scarkit",
        description="Driven tilted-chain toolkit: spectra, graphs, dynamics.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if command not in (None, name):
            continue
        for flag, type_, help_text in options:
            kw = (dict(action="store_const", const=True) if type_ is bool
                  else dict(type=type_))
            sub.add_argument(flag, default=None, help=help_text, **kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first word that is not an option; an unknown or
    # missing one gets the full parser, which reports it
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = build_parser(command if command in _COMMANDS else None)
    ns = parser.parse_args(argv)
    try:
        opts, sources = _resolve_options(ns)
        _check_options(opts)
        if ns.command == "reproduce":
            _drop_unread_env(opts, sources)
        if opts.get("threads") is not None:
            # set before any handler imports numpy; overrides inherited sizes
            os.environ.update(dict.fromkeys(_THREAD_VARS, str(opts["threads"])))
        payload, primary_output = _COMMANDS[ns.command][0](opts)
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
