"""Command-line front end over the sweeps and criteria of kfpq.acceptance.

``_COMMANDS`` declares each command once: help, option defaults, handler.
A compute command prints one sweep's table (CSV, or JSON with ``--format
json``); its rows end in t, analytic, bound, oracle, rel_discrepancy and
converged_flag, the verdict under the covering criterion's tolerance.  Output
for a fixed configuration is byte-identical across runs and BLAS thread
counts (``main`` runs each command on one thread); timings go to stderr
only.  Exit codes: 0 success, 1 acceptance failure (verify-all), 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import sys
import time

import numpy as np

from .acceptance import (CRITERIA, run_criteria, sweep_bargmann,
                         sweep_degenerate, sweep_delta0, sweep_norms,
                         sweep_optimality, sweep_positivity, sweep_resolvent,
                         sweep_subelliptic)

__all__ = ["main", "ConfigError"]

SCHEMA_VERSION = 1

# every numerical failure kfpq raises (NonRealDelta0, GridUnderResolved,
# IndefinitePencil, ...) derives from one of these
NUMERICAL_ERRORS = (np.linalg.LinAlgError, ArithmeticError)


class ConfigError(ValueError):
    """Bad command-line flag or config-file entry."""


# ---------------------------------------------------------------------------
# option parsing


def _parse_float_list(value, field: str):
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        out = tuple(float(x) for x in items)
    except (TypeError, ValueError):
        raise ConfigError("field '%s': expected comma-separated numbers, "
                          "got %r" % (field, value))
    if not out:
        raise ConfigError("field '%s': empty list" % field)
    if not all(np.isfinite(out)):
        raise ConfigError("field '%s': numbers must be finite, got %r"
                          % (field, value))
    return out


def _parse_t_grid(value):
    if isinstance(value, (list, tuple)):
        grid = _parse_float_list(value, "t")
        if min(grid) <= 0:
            raise ConfigError("field 't': times must be positive")
        return grid
    parts = str(value).split(":")
    if len(parts) != 4:
        raise ConfigError("field 't': expected 'min:max:count:log|lin', "
                          "got %r" % (value,))
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError("field 't': bad bounds or count in %r" % (value,))
    kind = parts[3]
    if kind not in ("log", "lin"):
        raise ConfigError("field 't': spacing must be 'log' or 'lin'")
    if count <= 0:
        raise ConfigError("field 't': empty grid (count=%d)" % count)
    if not 0 < lo <= hi < np.inf:
        raise ConfigError("field 't': need 0 < min <= max < inf")
    if count == 1:
        return (lo,)
    if kind == "log":
        return tuple(float(x) for x in np.geomspace(lo, hi, count))
    return tuple(float(x) for x in np.linspace(lo, hi, count))


def _parse_alpha(value):
    if value is None:
        return (0.0, np.pi / 2)
    text = str(value).strip()
    if text in ("0", "0.0"):
        return (0.0,)
    if text in ("pi2", "pi/2"):
        return (np.pi / 2,)
    raise ConfigError("field 'alpha': expected '0' or 'pi2', got %r" % (value,))


def _parse_dims(value):
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("field 'dims': expected an integer, got %r"
                          % (value,))
    if out < 8:
        raise ConfigError("field 'dims': must be >= 8")
    return out


def _parse_format(value):
    text = str(value)
    if text not in ("csv", "json"):
        raise ConfigError("field 'format': expected 'csv' or 'json', got %r"
                          % (value,))
    return text


def _parse_criteria(value):
    if value is None:
        return None
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        numbers = tuple(int(x) for x in items)
    except (TypeError, ValueError):
        raise ConfigError("field 'criteria': expected comma-separated "
                          "integers, got %r" % (value,))
    bad = [k for k in numbers if k not in CRITERIA]
    if bad:
        raise ConfigError("field 'criteria': unknown criterion %r" % (bad[0],))
    return numbers


_PARSERS = {
    "nu": lambda v: _parse_float_list(v, "nu"),
    "lambda1": lambda v: _parse_float_list(v, "lambda1"),
    "t": _parse_t_grid,
    "alpha": _parse_alpha,
    "dims": _parse_dims,
    "format": _parse_format,
    "criteria": _parse_criteria,
    "out": lambda v: None if v is None else str(v),
}

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config file is not valid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return raw


def _resolve_options(command: str, args: argparse.Namespace):
    """Merge defaults, config file, and explicit flags, then parse."""
    allowed = _COMMANDS[command][2]
    raw = dict(allowed)
    if args.config:
        for key, value in _load_config(args.config).items():
            if key not in allowed:
                raise ConfigError("field '%s': not an option of command '%s'"
                                  % (key, command))
            raw[key] = value
    for key in allowed:
        flag = getattr(args, key)
        if flag is not None:
            raw[key] = flag
    opts = {key: _PARSERS[key](value) for key, value in raw.items()}
    meta = {key: ("" if raw[key] is None else str(raw[key]))
            for key in sorted(allowed) if key not in ("out", "format")}
    return opts, meta


# ---------------------------------------------------------------------------
# deterministic writers


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _json_scalar(value) -> str:
    if value is None or (isinstance(value, (float, np.floating))
                         and not np.isfinite(value)):
        return "null"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return _cell(value)
    return json.dumps(str(value))


def _render_csv(command: str, meta: dict, columns, rows) -> str:
    header = " ".join("%s=%s" % (k, v) for k, v in sorted(meta.items()))
    lines = ["# kfpq schema %d command=%s %s" % (SCHEMA_VERSION, command,
                                                 header)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(command: str, meta: dict, columns, rows) -> str:
    lines = ["{"]
    lines.append('  "schema_version": %d,' % SCHEMA_VERSION)
    lines.append('  "command": %s,' % json.dumps(command))
    params = ", ".join("%s: %s" % (json.dumps(k), _json_scalar(v))
                       for k, v in sorted(meta.items()))
    lines.append('  "parameters": {%s},' % params)
    lines.append('  "columns": [%s],' % ", ".join(json.dumps(c)
                                                  for c in columns))
    lines.append('  "rows": [')
    for i, row in enumerate(rows):
        comma = "," if i + 1 < len(rows) else ""
        lines.append("    [%s]%s" % (", ".join(_json_scalar(v) for v in row),
                                     comma))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(text: str, out, what: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s to %s" % (what, out), file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each checks its options and calls the sweep of kfpq.acceptance


def _cmd_norms(opts):
    if any(nu <= 0 for nu in opts["nu"]):
        raise ConfigError("field 'nu': exact norms need nu > 0")
    return sweep_norms(opts["nu"], opts["t"])


def _cmd_delta0(opts):
    if any(nu <= 0 for nu in opts["nu"]):
        raise ConfigError("field 'nu': the threshold needs nu > 0")
    return sweep_delta0(opts["nu"], opts["alpha"], opts["t"])


def _cmd_positivity(opts):
    if any(nu <= 0 for nu in opts["nu"]):
        raise ConfigError("field 'nu': positivity reports need nu > 0")
    return sweep_positivity(opts["nu"], opts["alpha"], opts["t"])


def _cmd_bargmann(opts):
    if any(nu <= 0.25 for nu in opts["nu"]):
        raise ConfigError("field 'nu': the oscillatory regime needs nu > 1/4")
    return sweep_bargmann(opts["nu"], opts["t"])


def _cmd_resolvent(opts):
    if any(nu < 10.0 for nu in opts["nu"]):
        raise ConfigError("field 'nu': resolvent bound needs nu >= 10")
    return sweep_resolvent(opts["nu"])


def _cmd_optimality(opts):
    if any(nu <= float(np.exp(8.0)) for nu in opts["nu"]):
        raise ConfigError("field 'nu': witness regime needs log(nu) > 8")
    return sweep_optimality(opts["nu"])


def _cmd_degenerate(opts):
    if any(lam < 0 for lam in opts["lambda1"]):
        raise ConfigError("field 'lambda1': must be nonnegative")
    return sweep_degenerate(opts["lambda1"], opts["t"])


def _cmd_subelliptic(opts):
    if any(nu == 0 for nu in opts["nu"]):
        raise ConfigError("field 'nu': sign selects the potential; "
                          "nu must be nonzero")
    return sweep_subelliptic(opts["nu"], opts["dims"])


def _cmd_verify_all(opts) -> int:
    """Write the report; the exit code is 0 when every criterion passes."""
    results = run_criteria(opts["criteria"])
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append("criterion %02d %s %s: %s"
                     % (res.number, status, res.name, res.details))
        print("criterion %02d elapsed %.1fs (budget %.0fs)"
              % (res.number, res.elapsed, res.budget), file=sys.stderr)
    n_pass = sum(1 for res in results if res.passed)
    lines.append("passed %d of %d criteria" % (n_pass, len(results)))
    _write("\n".join(lines) + "\n", opts["out"], "report")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# the command table, argument parser and entry point

# the output options of every command that prints a table
_TABLE = {"out": None, "format": "csv"}

# name -> (help, handler, raw option defaults parsed through _PARSERS); the
# options are in the order of their flags in --help
_COMMANDS = {
    "norms": ("exact semigroup norms on the repelling side", _cmd_norms,
              {"nu": "1", "t": "0.1:5:40:log", **_TABLE}),
    "delta0": ("positivity threshold against a determinant root", _cmd_delta0,
               {"nu": "1,100", "alpha": None, "t": "0.05:3:24:log",
                **_TABLE}),
    "positivity": ("flow-form determinant and interior eigenvalues",
                   _cmd_positivity,
                   {"nu": "1,4", "alpha": None, "t": "0.1:3:12:log",
                    **_TABLE}),
    "bargmann": ("weighted quotient supremum against a 2x2 eigenproblem",
                 _cmd_bargmann, {"nu": "1,4", "t": "0.5:2:4:log", **_TABLE}),
    "resolvent": ("logarithmic resolvent integral bound", _cmd_resolvent,
                  {"nu": "100,10000,1000000", **_TABLE}),
    "optimality": ("witness Rayleigh quotient against a grid",
                   _cmd_optimality, {"nu": "8103.083927575384", **_TABLE}),
    "degenerate": ("linear-potential fiber suprema", _cmd_degenerate,
                   {"lambda1": "0,1", "t": "0.25:5:16:log", **_TABLE}),
    "subelliptic": ("generalized pencil constant", _cmd_subelliptic,
                    {"nu": "1,-1", "dims": "16", **_TABLE}),
    "verify-all": ("run the acceptance criteria", _cmd_verify_all,
                   {"criteria": None, "out": None}),
}

# option -> add_argument keywords of its flag
_FLAGS = {
    "config": {"metavar": "FILE",
               "help": "flat JSON file with option values; flags override"},
    "nu": {"help": "comma-separated curvature values"},
    "lambda1": {"help": "comma-separated linear slopes"},
    "t": {"help": "time grid 'min:max:count:log|lin'"},
    "alpha": {"choices": ("0", "pi2"),
              "help": "potential angle (default: both)"},
    "dims": {"help": "Hermite modes per factor (at least 8)"},
    "criteria": {"help": "comma-separated criterion numbers"},
    "out": {"metavar": "PATH",
            "help": "write output to PATH instead of stdout"},
    "format": {"choices": ("csv", "json"),
               "help": "output format (default csv)"},
}


# built once per process: no flag has a mutable default or an accumulating
# action, so one parser serves every call of ``main``
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfpq",
        description="Closed-form curves and cross checks for quadratic "
                    "kinetic Fokker-Planck models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for option in ("config", *options):
            cmd.add_argument("--" + option, **_FLAGS[option])
    return parser


# ---------------------------------------------------------------------------
# BLAS threads

_PROC_MAPS = "/proc/self/maps"

# (get, set) thread-count symbols of an OpenBLAS, in the order they are
# tried: numpy's copy, scipy's copy, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in this process.

    The libraries are the mapped files whose path names OpenBLAS.  Importing
    this module has loaded numpy's and scipy.linalg's, so one look suffices.
    Where the map cannot be read or holds no OpenBLAS (other systems, MKL,
    Accelerate) there are none.
    """
    try:
        with open(_PROC_MAPS, "r", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(f[5].strip() for f in fields
                          if len(f) == 6 and "openblas" in f[5].lower())
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS at one thread; restore the caller's counts after."""
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def main(argv=None) -> int:
    """Run one ``kfpq`` command; return its exit code.

    BLAS and LAPACK run on one thread while the command runs, and every
    OpenBLAS gets the caller's thread count back on each exit path.  So the
    reports do not depend on OPENBLAS_NUM_THREADS, and several commands run
    in one interpreter take less time than at two threads; one command
    alone measured the same at both counts.  Library calls outside ``main``
    are left alone.
    """
    with _one_blas_thread():
        return _run(argv)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][1]
    try:
        opts, meta = _resolve_options(args.command, args)
        if args.command == "verify-all":
            return handler(opts)
        started = time.perf_counter()
        columns, rows = handler(opts)
        print("%s: %d rows in %.1fs" % (args.command, len(rows),
                                        time.perf_counter() - started),
              file=sys.stderr)
        render = _render_json if opts["format"] == "json" else _render_csv
        _write(render(args.command, meta, columns, rows), opts["out"],
               "%d rows" % len(rows))
        return 0
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print("numerical failure: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
