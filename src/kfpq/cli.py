"""Command-line front end.

Every compute command emits a flat table (CSV by default, JSON with
``--format json``) whose rows carry the same trailing columns: t, analytic,
bound, oracle, rel_discrepancy, converged_flag.  Output for a fixed
configuration and seed is byte-identical across runs; timings go to stderr
only.  Exit codes: 0 success, 1 acceptance failure (verify-all), 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import scipy.optimize

from .acceptance import CRITERIA, run_criteria
from .bargmann import quotient, remainder_bound, sup_direct_optimization
from .degenerate import (decay_bound_degenerate, fiber_exponent, fiber_norm,
                         sup_weighted)
from .exactnorms import (GridUnderResolved, QuadratureNotConverged,
                         optimality_witness, resolvent_bound, semigroup_norm,
                         witness_rayleigh_numeric)
from .galerkin import (ExpNotConverged, IndefinitePencil,
                       PowerIterationStalled, TruncationNotConverged,
                       subelliptic_constant)
from .positivity import NonRealDelta0, delta0, positivity_report
from .symbols import ModelParams

__all__ = ["main", "ConfigError"]

SCHEMA_VERSION = 1

RESULT_COLUMNS = ("t", "analytic", "bound", "oracle", "rel_discrepancy",
                  "converged_flag")

NUMERICAL_ERRORS = (NonRealDelta0, QuadratureNotConverged, GridUnderResolved,
                    ExpNotConverged, PowerIterationStalled,
                    TruncationNotConverged, IndefinitePencil,
                    np.linalg.LinAlgError, ArithmeticError)


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
    return out


def _parse_t_grid(value):
    if isinstance(value, (list, tuple)):
        grid = tuple(float(x) for x in value)
        if not grid:
            raise ConfigError("field 't': empty grid")
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
    if lo <= 0 or hi < lo:
        raise ConfigError("field 't': need 0 < min <= max")
    if count == 1:
        return (lo,)
    if kind == "log":
        return tuple(float(x) for x in np.geomspace(lo, hi, count))
    return tuple(float(x) for x in np.linspace(lo, hi, count))


def _parse_alpha(value):
    if value is None:
        return None
    text = str(value).strip()
    if text in ("0", "0.0"):
        return (0.0,)
    if text in ("pi2", "pi/2"):
        return (np.pi / 2,)
    raise ConfigError("field 'alpha': expected '0' or 'pi2', got %r" % (value,))


def _parse_int(value, field: str, minimum: int):
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError("field '%s': expected an integer, got %r"
                          % (field, value))
    if out < minimum:
        raise ConfigError("field '%s': must be >= %d" % (field, minimum))
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
    "dims": lambda v: _parse_int(v, "dims", 4),
    "seed": lambda v: _parse_int(v, "seed", 0),
    "format": _parse_format,
    "criteria": _parse_criteria,
    "out": lambda v: None if v is None else str(v),
}

# per-command option names and raw defaults (parsed through _PARSERS)
_COMMAND_OPTIONS = {
    "norms": {"nu": "1", "t": "0.1:5:40:log", "format": "csv", "out": None},
    "delta0": {"nu": "1,100", "alpha": None, "t": "0.05:3:24:log",
               "format": "csv", "out": None},
    "positivity": {"nu": "1,4", "alpha": None, "t": "0.1:3:12:log",
                   "format": "csv", "out": None},
    "bargmann": {"nu": "1,4", "t": "0.5:2:4:log", "seed": "0",
                 "format": "csv", "out": None},
    "resolvent": {"nu": "100,10000,1000000", "format": "csv", "out": None},
    "optimality": {"nu": "8103.083927575384", "format": "csv", "out": None},
    "degenerate": {"lambda1": "0,1", "t": "0.25:5:16:log",
                   "format": "csv", "out": None},
    "subelliptic": {"nu": "1,-1", "dims": "16", "format": "csv", "out": None},
    "verify-all": {"criteria": None, "seed": "0", "out": None},
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
    allowed = _COMMAND_OPTIONS[command]
    raw = dict(allowed)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, value in _load_config(config_path).items():
            if key not in allowed:
                raise ConfigError("field '%s': not an option of command '%s'"
                                  % (key, command))
            raw[key] = value
    for key in allowed:
        flag = getattr(args, key.replace("-", "_"), None)
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
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return "null"
        return "%.17g" % value
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


def _emit(command: str, opts: dict, meta: dict, columns, rows) -> None:
    if opts.get("format", "csv") == "json":
        text = _render_json(command, meta, columns, rows)
    else:
        text = _render_csv(command, meta, columns, rows)
    out = opts.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %d rows to %s" % (len(rows), out), file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# compute commands


def _alphas(opts):
    return opts["alpha"] if opts["alpha"] is not None else (0.0, np.pi / 2)


def _cmd_norms(opts):
    rows = []
    for nu in opts["nu"]:
        if nu <= 0:
            raise ConfigError("field 'nu': exact norms need nu > 0")
        for t in opts["t"]:
            res = semigroup_norm(t, nu)
            oracle = float((res.mu1 / res.mu2) ** 0.25)
            rel = abs(oracle - res.norm) / res.norm
            rows.append([nu, t, res.norm, 1.0, oracle, rel, True])
    return ("nu",) + RESULT_COLUMNS, rows


def _delta0_root(t: float, params: ModelParams) -> float:
    """Root of the flow-form determinant, bracketed around the closed form."""
    def det_real(d):
        return positivity_report(t, float(d), params, 1).det_value.real

    d0 = delta0(t, params)
    lo, hi = 0.5 * d0, 1.5 * d0
    f_lo, f_hi = det_real(lo), det_real(hi)
    tries = 0
    while f_lo * f_hi > 0 and tries < 6:
        lo *= 0.5
        hi *= 1.8
        f_lo, f_hi = det_real(lo), det_real(hi)
        tries += 1
    if f_lo * f_hi > 0:
        raise NonRealDelta0("determinant does not change sign near the "
                            "closed-form threshold at t=%g" % t)
    return float(scipy.optimize.brentq(det_real, lo, hi, xtol=1e-15,
                                       rtol=8.9e-16))


def _cmd_delta0(opts):
    rows = []
    for nu in opts["nu"]:
        if nu <= 0:
            raise ConfigError("field 'nu': the threshold needs nu > 0")
        for alpha in _alphas(opts):
            params = ModelParams(nu=nu, alpha=alpha)
            for t in opts["t"]:
                analytic = delta0(t, params)
                oracle = _delta0_root(t, params)
                cubic = nu * t ** 3 / 12.0
                rel = abs(oracle - analytic) / analytic
                rows.append([nu, alpha, t, analytic, cubic, oracle, rel,
                             rel <= 1e-9])
    return ("nu", "alpha") + RESULT_COLUMNS, rows


def _cmd_positivity(opts):
    rows = []
    for nu in opts["nu"]:
        if nu <= 0:
            raise ConfigError("field 'nu': positivity reports need nu > 0")
        for alpha in _alphas(opts):
            params = ModelParams(nu=nu, alpha=alpha)
            for sign in (1, -1):
                for t in opts["t"]:
                    d0 = delta0(t, params)
                    det_res = positivity_report(t, d0, params,
                                                sign).det_residual
                    inner = positivity_report(t, 0.5 * d0, params, sign)
                    rows.append([nu, alpha, sign, t, det_res, 0.0,
                                 inner.min_eigenvalue, det_res,
                                 bool(inner.is_positive)])
    return ("nu", "alpha", "sign") + RESULT_COLUMNS, rows


def _cmd_bargmann(opts):
    rows = []
    for nu in opts["nu"]:
        if nu <= 0.25:
            raise ConfigError("field 'nu': the oscillatory regime needs "
                              "nu > 1/4")
        params = ModelParams(nu=nu, alpha=np.pi / 2)
        for t in opts["t"]:
            analytic = quotient(t, params).sup_value
            oracle = sup_direct_optimization(t, params, seed=opts["seed"])
            bound = remainder_bound(t, params) if nu > 1 else None
            rel = abs(oracle / analytic - 1.0)
            rows.append([nu, t, analytic, bound, oracle, rel, rel <= 1e-6])
    return ("nu",) + RESULT_COLUMNS, rows


def _cmd_resolvent(opts):
    rows = []
    for nu in opts["nu"]:
        if nu < 10.0:
            raise ConfigError("field 'nu': resolvent bound needs nu >= 10")
        res = resolvent_bound(nu)
        n1 = float(np.sqrt(1.0 + 4.0 * nu))
        analytic = float(np.log(nu) / np.sqrt(nu))
        bound = 2.0 * (np.log(nu) / n1 + 1.0 / nu)
        rows.append([nu, None, analytic, bound, res.integral,
                     res.c_ratio - 1.0, bool(res.integral <= bound)])
    return ("nu",) + RESULT_COLUMNS, rows


def _cmd_optimality(opts):
    rows = []
    for nu in opts["nu"]:
        if nu <= float(np.exp(8.0)):
            raise ConfigError("field 'nu': witness regime needs "
                              "log(nu) > 8")
        wit = optimality_witness(nu)
        numeric = witness_rayleigh_numeric(nu)
        rel = numeric.quotient / wit.rayleigh_bound - 1.0
        rows.append([nu, None, wit.rayleigh_bound, 1.2 * wit.rayleigh_bound,
                     numeric.quotient, rel,
                     bool(numeric.quotient <= 1.2 * wit.rayleigh_bound)])
    return ("nu",) + RESULT_COLUMNS, rows


def _degenerate_sup_numeric(t: float, lam: float) -> float:
    """Grid plus polish maximization of the weighted fiber norm in b."""
    u = fiber_exponent(t)
    width = float(np.sqrt(-1.0 / u))
    hi = max(2.0 * lam, lam + 4.0 * width) + 1.0
    grid = np.linspace(lam, hi, 1601)
    values = grid * grid * np.exp(u * grid * grid)
    k = int(np.argmax(values))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, len(grid) - 1)]
    if hi_b <= lo_b:
        return float(values[k])
    res = scipy.optimize.minimize_scalar(
        lambda b: -fiber_norm(t, float(b)), bounds=(float(lo_b), float(hi_b)),
        method="bounded", options={"xatol": 1e-12})
    return float(max(values[k], -res.fun))


def _cmd_degenerate(opts):
    rows = []
    for lam in opts["lambda1"]:
        if lam < 0:
            raise ConfigError("field 'lambda1': must be nonnegative")
        for t in opts["t"]:
            analytic = sup_weighted(t, lam)
            bound = decay_bound_degenerate(t, lam)
            oracle = _degenerate_sup_numeric(t, lam)
            rel = abs(oracle / analytic - 1.0)
            rows.append([lam, t, analytic, bound, oracle, rel, rel <= 1e-6])
    return ("lambda1",) + RESULT_COLUMNS, rows


def _cmd_subelliptic(opts):
    rows = []
    for nu in opts["nu"]:
        if nu == 0:
            raise ConfigError("field 'nu': sign selects the potential; "
                              "nu must be nonzero")
        if nu > 0:
            params = ModelParams(nu=nu, alpha=np.pi / 2)
        else:
            params = ModelParams(nu=-nu, alpha=0.0)
        value = subelliptic_constant(params, dims=opts["dims"])
        rows.append([nu, params.alpha, opts["dims"], None, None, None,
                     value, None, bool(value > 0)])
    return ("nu", "alpha", "dims") + RESULT_COLUMNS, rows


_COMPUTE_COMMANDS = {
    "norms": _cmd_norms,
    "delta0": _cmd_delta0,
    "positivity": _cmd_positivity,
    "bargmann": _cmd_bargmann,
    "resolvent": _cmd_resolvent,
    "optimality": _cmd_optimality,
    "degenerate": _cmd_degenerate,
    "subelliptic": _cmd_subelliptic,
}


def _cmd_verify_all(opts) -> int:
    numbers = opts["criteria"] if opts["criteria"] is not None \
        else tuple(sorted(CRITERIA))
    results = run_criteria(numbers, seed=opts["seed"])
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append("criterion %02d %s %s: %s"
                     % (res.number, status, res.name, res.details))
        print("criterion %02d elapsed %.1fs (budget %.0fs)"
              % (res.number, res.elapsed, res.budget), file=sys.stderr)
    n_pass = sum(1 for res in results if res.passed)
    lines.append("passed %d of %d criteria" % (n_pass, len(results)))
    text = "\n".join(lines) + "\n"
    out = opts.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote report to %s" % out, file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# argument parser and entry point


def _add_common(sub, *names):
    sub.add_argument("--config", metavar="FILE",
                     help="flat JSON file with option values; flags override")
    for name in names:
        if name == "nu":
            sub.add_argument("--nu", help="comma-separated curvature values")
        elif name == "lambda1":
            sub.add_argument("--lambda1",
                             help="comma-separated linear slopes")
        elif name == "t":
            sub.add_argument("--t", help="time grid 'min:max:count:log|lin'")
        elif name == "alpha":
            sub.add_argument("--alpha", choices=("0", "pi2"),
                             help="potential angle (default: both)")
        elif name == "dims":
            sub.add_argument("--dims", help="Hermite modes per factor")
        elif name == "seed":
            sub.add_argument("--seed", help="seed for randomized oracles")
        elif name == "criteria":
            sub.add_argument("--criteria",
                             help="comma-separated criterion numbers")
    sub.add_argument("--out", metavar="PATH",
                     help="write output to PATH instead of stdout")
    if "format" in _COMMAND_OPTIONS[sub.prog.split()[-1]]:
        sub.add_argument("--format", choices=("csv", "json"),
                         help="output format (default csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfpq",
        description="Closed-form curves and cross checks for quadratic "
                    "kinetic Fokker-Planck models.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("norms", "exact semigroup norms on the repelling side",
         ("nu", "t")),
        ("delta0", "positivity threshold against a determinant root",
         ("nu", "alpha", "t")),
        ("positivity", "flow-form determinant and interior eigenvalues",
         ("nu", "alpha", "t")),
        ("bargmann", "weighted quotient supremum against direct search",
         ("nu", "t", "seed")),
        ("resolvent", "logarithmic resolvent integral bound", ("nu",)),
        ("optimality", "witness Rayleigh quotient against a grid",
         ("nu",)),
        ("degenerate", "linear-potential fiber suprema", ("lambda1", "t")),
        ("subelliptic", "generalized pencil constant", ("nu", "dims")),
        ("verify-all", "run the acceptance criteria",
         ("criteria", "seed")),
    ]
    for name, help_text, names in specs:
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd, *names)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts, meta = _resolve_options(args.command, args)
        if args.command == "verify-all":
            return _cmd_verify_all(opts)
        started = time.perf_counter()
        columns, rows = _COMPUTE_COMMANDS[args.command](opts)
        print("%s: %d rows in %.1fs" % (args.command, len(rows),
                                        time.perf_counter() - started),
              file=sys.stderr)
        _emit(args.command, opts, meta, columns, rows)
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
