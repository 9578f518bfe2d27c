"""The CLI under drawn argv: every subcommand and option of `build_parser()`.

Each example draws a subcommand and a set of its registered options with
adversarial values (0, negative, nan, inf, huge, malformed words, missing
paths, malformed config files) and runs `cli.main` in this process.  The run
must end in exit 0, 2 or 3 and print no traceback.  The base run is half
filled or, one draw in four each, a one-state sector (N = 0 or N = L).
Work stays small: L is at most 8 and cycle counts at most 64, unless the
value is one that is refused before anything is allocated.  `reproduce` draws always carry one refused
option and run with the solvers disabled.
"""

import argparse
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scarkit import cli
from test_cli import no_solve  # noqa: F401  (fixture)

_WORDS = ["", "x", "nope", "-1", "nan"]
_INTS = ["0", "-1", "1", "2", "99999999999999999999", "1.5", "x", ""]
# finite values keep compare's default 50 g cycles at most 64, or refused
_FLOATS = ["0", "-1", "1e-300", "0.5", "1", "1.28", "nan", "inf", "-inf",
           "1e12", "1e308", "x", ""]
_POOLS = {
    "L": ["-1", "0", "1", "2", "3", "5", "6", "8", "64", "1000000000", "x",
          "4.0"],
    # 0 and 6 (= the base L) are one-state sectors
    "N": ["-1", "0", "1", "3", "4", "6", "9", "1000000000000", "x"],
    "threads": ["-1", "0", "1", "2"],
    "cycles": ["0", "-1", "1", "8", "64", "1000000000000",
               "99999999999999999999", "1.5", "x", ""],
    "dense_threshold": ["0", "-1", "1", "10", "70", "20000",
                        "1000000000000", "x"],
    "family": ["0,0,+", "0,1,-", "1,2,+", "-3,2,-", "0,0,x", "a,b,+", "0,0",
               "99999999999,0,+", *_WORDS],
    "kind": ["onsite", "hop", "half1", "half2", "effective", "resonant",
             *_WORDS],
    "emit": ["dot", "json", *_WORDS],
    "components": ["g,g-U", "g+U", "g-U,g,g+U", ",", *_WORDS],
    "grid": ["1:80:5,1:80:5", "1:80:0,1:80:3", "80:1:3,1:1:1",
             "1:80:-2,1:80:2", "nan:1:2,1:2:2", "inf:inf:2,0:0:2",
             "1:80,1:80:2", "a:b:c,d:e:f", "1:80:5", *_WORDS],
    "initial": ["tp", "te_p:1", "te_h:2", "te_p:0", "te_h:99", "te_p:x",
                "random:2:7", "random:0:7", "random:-1:7", "random:3:-1",
                "random:1000000:7", "random:2:99999999999999999999",
                "random:x", "random:1:2:3", "bits:110", "bits:", "bits:12",
                "11110000", "111000", "000000", "111111", "zzz", *_WORDS],
    "observables": ["F", "EE,Pt", "F,EE,Pt", ",", "X", "F,X", *_WORDS],
    "model": ["effective", "full", *_WORDS],
    "bundle": ["spectral-map", "quench-series", "revival-spectra",
               "model-comparison", "ratio-landscape", *_WORDS],
    "scale": ["desk", "paper", *_WORDS],
    "seed": ["-1", "0", "7", "99999999999999999999", "x"],
}
_PATHS = ("out", "per_state", "fft_out", "manifest", "outdir", "config")
_CONFIGS = {
    "good.cfg": "L = 6\nfamily = 0,0,+\ng = 1\nu = 0.5\ncycles = 8\n",
    "junk.cfg": "nonsense\n",
    "unknown.cfg": "bogus = 1\n",
    "truncated.json": "{",
    "typed.json": '{"config": {"L": [6], "g": "1", "u": 0.5}}',
    "nested.json": '{"config": {"family": {"k1": 0}, "cycles": 2.5}}',
}


def _subcommands():
    """{subcommand: [(flag, dest, type)]} from the parser's own registry."""
    parser, registry = cli.build_parser()
    (subs,) = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return {name: [(a.option_strings[-1], a.dest, registry.types[a.dest])
                   for a in sub._actions if a.dest in registry.types]
            for name, sub in subs.choices.items()}


_SUBCOMMANDS = _subcommands()


def _path_pool(workdir: str, dest: str) -> list[str]:
    if dest == "config":
        return [os.path.join(workdir, "missing.cfg"), workdir,
                *(os.path.join(os.path.dirname(workdir), name)
                  for name in _CONFIGS)]
    return [os.path.join(workdir, "x.csv"),
            os.path.join(workdir, "missing", "x.csv"),
            os.path.join(workdir, "file"), workdir, ""]


def _value_pool(workdir: str, dest: str, type_) -> list[str]:
    if dest in _PATHS:
        return _path_pool(workdir, dest)
    if dest in _POOLS:
        return _POOLS[dest]
    return _FLOATS if type_ is float else _INTS if type_ is int else _WORDS


# the base run's sector: half filling, or a one-state sector (N = 0 or L),
# whose lone state is the start and which has no tower to weigh
_SECTORS = {"half": {},
            "empty": {"N": "0", "initial": "000000", "observables": "F,EE"},
            "full": {"N": "6", "initial": "111111", "observables": "F,EE"}}


def _base(workdir: str, route: str, sector: str) -> dict:
    """Option values of a small run on either drive route, in `sector`;
    it succeeds but for `scar`, which refuses a one-state sector."""
    values = {"L": "6", "g": "1", "u": "0.5", "cycles": "8",
              "out": os.path.join(workdir, "x.csv"),
              "per_state": os.path.join(workdir, "s.csv"),
              "outdir": os.path.join(workdir, "b"), **_SECTORS[sector]}
    if route == "family":
        values["family"] = "0,0,+"
    else:
        values.update(omega="20", u_over_g="0.7", grid="1:80:5,1:80:5")
    return values


_DROP = object()    # leave the option out


@st.composite
def _argv(draw, workdir: str, command: str) -> list[str]:
    """A succeeding run of `command`, with up to three of its registered
    options set to drawn values or left out."""
    options = _SUBCOMMANDS[command]
    flags = {dest: flag for flag, dest, _ in options}
    route = draw(st.sampled_from(["family", "raw"]))
    sector = draw(st.sampled_from(["half", "half", "empty", "full"]))
    values = {dest: v for dest, v in _base(workdir, route, sector).items()
              if dest in flags}
    if command == "reproduce":
        values["bundle"] = draw(st.sampled_from(_POOLS["bundle"]))
    for _, dest, type_ in draw(st.lists(st.sampled_from(options),
                                        unique=True, max_size=3)):
        pool = [True] if type_ is cli._as_bool else \
            _value_pool(workdir, dest, type_)
        if not (command == "dynamics" and dest == "cycles"):
            pool = [_DROP, *pool]   # dynamics' default 4096 cycles is not small
        values[dest] = draw(st.sampled_from(pool))
    if command == "reproduce":
        values.update(draw(st.sampled_from(_refusals(workdir))))
    argv = [command]
    for dest in draw(st.permutations(sorted(values))):
        if values[dest] is True:
            argv.append(flags[dest])
        elif values[dest] is not _DROP:
            argv.append(f"{flags[dest]}={values[dest]}")
    return argv


def _refusals(workdir: str) -> list[dict]:
    """Options that each refuse any reproduce run before it solves."""
    return [{"cycles": "0"}, {"cycles": "-1"}, {"cycles": "1000000000000"},
            {"bundle": "revival-spectra", "cycles": "8000000"},
            {"seed": "-1"}, {"bundle": "nope"}, {"scale": "nope"},
            {"outdir": os.path.join(workdir, "missing", "deeper")},
            {"config": os.path.join(workdir, "missing.cfg")}]


@pytest.fixture
def fuzz_dir(tmp_path):
    for name, text in _CONFIGS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def _run_drawn(data, fuzz_dir, capsys, commands) -> int:
    workdir = tempfile.mkdtemp(dir=fuzz_dir)
    with open(os.path.join(workdir, "file"), "w") as fh:
        fh.write("existing\n")
    command = data.draw(st.sampled_from(commands), label="command")
    argv = data.draw(_argv(workdir, command), label="argv")
    saved = {k: os.environ.get(k) for k in cli._THREAD_VARS}
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's usage errors
            code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code


def _fuzz(examples: int):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz(800)
@given(data=st.data())
def test_cli_fuzz_every_subcommand_exits_cleanly(data, fuzz_dir, capsys):
    _run_drawn(data, fuzz_dir, capsys,
               [c for c in _SUBCOMMANDS if c != "reproduce"])


@_fuzz(200)
@given(data=st.data())
def test_cli_fuzz_reproduce_refusals_exit_before_any_solve(data, fuzz_dir,
                                                           capsys, no_solve):
    code = _run_drawn(data, fuzz_dir, capsys, ["reproduce"])
    assert code in (2, 3)


def test_cli_fuzz_covers_every_registered_option():
    _, registry = cli.build_parser()
    assert set(_SUBCOMMANDS) == set(cli._HANDLERS)
    assert {dest for opts in _SUBCOMMANDS.values() for _, dest, _ in opts} \
        == set(registry.types)
