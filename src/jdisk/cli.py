"""Command line entry point.

Commands: validate, disk, distance, bound, brody, selftest.  A run is
described by a config: a JSON file given with --config, overlaid by any
inline flags.  ``_TABLE`` describes every config key and ``_COMMANDS``
the sections each command reads; a command's flags, key check,
conversions and defaults come from them, so it takes only keys it reads.
A run executes deterministically for a fixed seed and writes a JSON report
carrying the fully resolved config echo, library versions, the results or
an error, and a timestamp.  Exit codes: 0 success, 2 config error,
3 solver/check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import inspect
import json
import math
import sys
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .brody import derivative_ladder_family, dilation_family, extract_line, scaling_sup
from .cauchygreen import cg_apply, cg_build, cg_residual
from .diskgrid import (DiskMap, eval_interp, make_grid, mobius_swap,
                       poincare_distance, to_csv)
from .errors import (ConfigError, Diverged, InvalidGrid, InvalidParams, JDiskError,
                     Singular, UnknownName)
from .kobayashi import (KobayashiOptions, chain_cost, derivative_bound,
                        estimate_distance, pushforward_chain)
from .solver import SolverConfig, affine_target, derivative_disk, two_point_disk
from .structure import gallery, q_field, validate_structure

# Kinds: each converts a value from a JSON config or a flag string, or
# raises ConfigError.  ``dim`` is the real dimension 2n of the structure.


def _float(value, dim=None) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        f = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected a number, got {value!r}") from None
    if not math.isfinite(f):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return f


def _int(value, dim=None) -> int:
    """A non-negative integer; no config key takes a negative one."""
    f = value if isinstance(value, int) and not isinstance(value, bool) else _float(value)
    if f != int(f) or f < 0:
        raise ConfigError(f"expected a non-negative integer, got {value!r}")
    return int(f)


def _str(value, dim=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


def _floats(value, dim=None) -> list:
    """A list of numbers, or a comma separated string of them."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {value!r}")
    return [_float(x) for x in items]


def _point(value, dim) -> list:
    parts = _floats(value)
    if len(parts) != dim:
        raise ConfigError(f"expected {dim} coordinates, got {value!r}")
    return parts


def _family(value, dim) -> dict:
    """A brody disk family: its ``kind`` and the keys of that kind."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}")
    rest = dict(value)
    kind = _str(rest.pop("kind", "dilations"))
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown family kind {kind!r}; choose from {tuple(_FAMILIES)}")
    return {"kind": kind, **_section(_FAMILIES[kind], rest, f"{kind}.", dim)}


_REQUIRED = object()   # default of a key that the config must give


class _Key(NamedTuple):
    """One config key.  A default that is callable is computed from dim.
    ``flag`` "" derives the flag ``--key-name``, None gives the key none.
    ``most`` caps a number, so a size that cannot be allocated is a config
    error rather than a numpy ``MemoryError``."""

    kind: object
    default: object = None
    flag: str | None = ""
    most: int | None = None


def _e1(dim) -> list:
    return [1.0] + [0.0] * (dim - 1)


def _arg_default(fn, name):
    return inspect.signature(fn).parameters[name].default


_FAMILIES = {
    "dilations": {
        "base": _Key(_float, _arg_default(dilation_family, "base"), None),
        "factor": _Key(_float, _arg_default(dilation_family, "factor"), None),
    },
    "derivative-ladder": {
        "p": _Key(_point, lambda dim: [0.0] * dim),
        "nu": _Key(_point, _e1),
        "lambdas": _Key(_floats, _REQUIRED),
    },
}

_TABLE = {
    "structure": {
        "name": _Key(_str, "standard", "--structure"),
        "n": _Key(_int, _arg_default(gallery, "n"), most=8),
        "epsilon": _Key(_float, _arg_default(gallery, "epsilon")),
        "radius": _Key(_float),   # None: the unbounded chart
    },
    "grid": {"N": _Key(_int, KobayashiOptions.grid_n, most=1025),
             "r": _Key(_float, KobayashiOptions.grid_r)},
    # set with --cfg KEY=VALUE
    "solver": {f.name: _Key({int: _int, float: _float}[type(f.default)], f.default, None)
               for f in dataclasses.fields(SolverConfig)},
    "params": {
        "validate": {"samples": _Key(_int, 1000, most=100_000)},
        # t is read only with q, where _cmd_disk fills in 0.5
        "disk": {"p": _Key(_point, _REQUIRED), "q": _Key(_point), "w": _Key(_point),
                 "t": _Key(_float)},
        "distance": {
            "p": _Key(_point, _REQUIRED), "q": _Key(_point, _REQUIRED),
            "k_max": _Key(_int, KobayashiOptions.k_max),
            "t_grid": _Key(_floats, KobayashiOptions.t_grid),
        },
        "bound": {
            "p": _Key(_point, _REQUIRED), "nu": _Key(_point, _e1),
            "lambda_max": _Key(_float, 1e3),
            "bisect_tol": _Key(_float, _arg_default(derivative_bound, "bisect_tol")),
        },
        "brody": {
            "family": _Key(_family, {}, None),   # flags: see _parser
            "R": _Key(_float, 2.0),
            "tol": _Key(_float, _arg_default(extract_line, "tol")),
            "n_max": _Key(_int, 8),
        },
        "selftest": {},
    },
    "output": {"report": _Key(_str, None, "--out"), "csv": _Key(_str)},
    "seed": _Key(_int, 0),
}


def _value(spec: _Key, given: dict, key: str, path: str, dim):
    value = given.get(key, spec.default)
    if value is spec.default and callable(value):
        value = value(dim)
    try:
        if value is _REQUIRED:
            raise ConfigError("required key is missing")
        if value is None and spec.default is None:
            return None
        value = spec.kind(value, dim)
        if spec.most is not None and value > spec.most:
            raise ConfigError(f"expected at most {spec.most}, got {value!r}")
        return value
    except ConfigError as exc:
        raise ConfigError(f"{path}{key}: {exc}") from None


def _section(table: dict, given, path: str, dim=None) -> dict:
    """Check ``given`` against ``table``, a dict of keys and nested tables,
    convert each value by its kind and fill every default."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path.rstrip('.')!r} must be an object")
    unknown = set(given) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {path.rstrip('.') or 'config'!r}: "
                          f"{sorted(unknown, key=str)}")
    return {key: _section(spec, given.get(key, {}), f"{path}{key}.", dim)
            if isinstance(spec, dict) else _value(spec, given, key, path, dim)
            for key, spec in table.items()}


def _command_table(command: str) -> dict:
    """The keys of a ``command`` config in ``_TABLE``'s order: its params,
    output.report and the sections ``_COMMANDS`` names for it ("csv" is
    output.csv)."""
    reads = {"params", "output", "report", *_COMMANDS[command][1]}
    table = {key: {k: v for k, v in spec.items() if k in reads} if key == "output" else spec
             for key, spec in _TABLE.items() if key in reads}
    return {"command": _Key(_str, flag=None), **table, "params": _TABLE["params"][command]}


def _normalize(config) -> dict:
    """Check every key of a config against its command's table, convert each
    value by its kind and fill every default: the fully resolved config."""
    if not isinstance(config, dict):
        raise ConfigError(f"a config must be a JSON object, got {config!r}")
    command = config.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
    table, dim = _command_table(command), None
    if "structure" in table:
        dim = 2 * _section(table["structure"], config.get("structure", {}), "structure.")["n"]
    return _section(table, config, "", dim)


def _jsonify(obj):
    """JSON values of a report: a result record becomes an object of its fields
    in declared order, a tuple a list, and inf or nan a string ("inf", "nan")."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _create(path: str):
    """Open ``path`` for writing; a path that cannot be opened is a config error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _unit_density(grid) -> DiskMap:
    """The constant density 1 on ``grid``."""
    return DiskMap(grid, np.stack([np.ones_like(grid.X), np.zeros_like(grid.X)], axis=-1))


def _cmd_validate(config, J, grid, rng):
    dim = J.convention.dim
    count = config["params"]["samples"]
    if J.domain.is_torus:
        samples = rng.uniform(0.0, 1.0, size=(count, dim))
    else:
        b = 1.0 if not math.isfinite(J.domain.radius) else 0.9 * J.domain.radius
        samples = rng.uniform(-b, b, size=(count, dim))
    report = validate_structure(J, samples)
    return ({**_jsonify(report),
             "cg_residual_constant_density": cg_residual(cg_build(grid), _unit_density(grid))},
            0 if report.passed else 3)


def _csv_out(config):
    """The ``--csv`` file, or None without one.  It is opened before the
    solve, so an unwritable path fails before any work is done."""
    path = config["output"]["csv"]
    return _create(path) if path else contextlib.nullcontext()


def _cmd_disk(config, J, grid, cfg):
    params = config["params"]
    if (params["w"] is None) == (params["q"] is None):
        raise ConfigError("disk needs exactly one of params.q and params.w")
    if params["w"] is not None and params["t"] is not None:
        raise ConfigError("params.t is read only with params.q, not with params.w")
    if params["q"] is not None and params["t"] is None:
        params["t"] = 0.5   # the echoed config shows the node solved at
    with _csv_out(config) as csv:
        if params["w"] is not None:
            sol = derivative_disk(J, params["p"], params["w"], cfg, grid)
        else:
            sol = two_point_disk(J, params["p"], params["q"], params["t"], cfg, grid)
        endpoint = {"value_at_0": sol.v.value_at_center().tolist()}
        if params["w"] is None:
            endpoint["value_at_t"] = eval_interp(sol.v, complex(params["t"], 0.0)).tolist()
        results = {"residual": sol.residual, "iterations": sol.iterations,
                   "endpoints": endpoint}
        if csv:
            to_csv(sol.v, csv)
            results["csv"] = config["output"]["csv"]
    return results, 0


def _cmd_distance(config, J, grid, cfg):
    params = config["params"]
    opts = KobayashiOptions(k_max=params["k_max"], t_grid=tuple(params["t_grid"]),
                            cfg=cfg, grid_n=grid.N, grid_r=grid.r)
    est = estimate_distance(J, params["p"], params["q"], opts)
    return {
        "upper": est.upper,
        "links": [{"t": link.b.real, "cost": link.cost,
                   "residual": link.disk.residual} for link in est.best_chain.links],
        "search_log": est.search_log,
        "pruned": est.pruned,
    }, 0


def _cmd_bound(config, J, grid, cfg):
    params = config["params"]
    return derivative_bound(J, params["p"], params["nu"], params["lambda_max"],
                            cfg=cfg, grid=grid, bisect_tol=params["bisect_tol"]), 0


def _cmd_brody(config, J, grid, cfg):
    params = config["params"]
    fam = params["family"]
    with _csv_out(config) as csv:
        if fam["kind"] == "dilations":
            family = dilation_family(grid, n=J.convention.n, base=fam["base"],
                                     factor=fam["factor"])
        else:
            family = derivative_ladder_family(J, fam["p"], fam["nu"], fam["lambdas"],
                                              cfg, grid)
        report = extract_line(J, family, R=params["R"], tol=params["tol"],
                              n_max=params["n_max"])
        if csv and report.final is not None:
            to_csv(report.final.samples, csv)
    results = {"converged": report.converged, "message": report.message,
               "steps": report.steps}
    if report.final is not None:
        results["line"] = {
            "derivative_at_0": report.final.derivative_at_0,
            "cr_residual": report.final.cr_residual,
            "achieved_delta": report.steps[-1].delta,
        }
        if csv:
            results["csv"] = config["output"]["csv"]
    return results, 0 if report.final is not None else 3


def _selftest_checks(rng):
    """Yield one (name, passed, observed, threshold) row per self-test check
    in report order, which is also the order of the ``rng`` draws."""
    # structure algebra for n = 1 and 2
    resid = equiv = q_std = 0.0
    for n in (1, 2):
        Jc = gallery("conjugated", n=n, epsilon=0.1)
        pts = rng.uniform(-1, 1, size=(200, 2 * n))
        a = rng.normal(size=(200, 2 * n))
        resid = max(resid, validate_structure(Jc, pts).max_residual)
        iuy = Jc.convention.mul_i(np.einsum("mij,mj->mi", Jc.eval(pts), a))
        rhs = np.einsum("mij,mj->mi", q_field(Jc, pts), a - iuy)
        equiv = max(equiv, float(np.max(np.linalg.norm(a + iuy - rhs, axis=-1))))
        q_std = max(q_std, float(np.max(np.abs(q_field(gallery("standard", n=n), pts)))))
    yield "structure-algebra-residual", resid < 1e-12, resid, 1e-12
    yield "dilatation-zero-for-standard", q_std == 0.0, q_std, 0.0
    yield "cauchy-riemann-form-equivalence", equiv < 1e-10, equiv, 1e-10

    # transform inverts the conjugate derivative
    g = make_grid(1.0, 33)
    op, ones = cg_build(g), _unit_density(g)
    res = cg_residual(op, ones)
    yield "cauchy-transform-residual", res < 0.1, res, 0.1
    err = float(np.abs(cg_apply(op, ones).component_complex(0) - np.conj(g.Z))[g.interior].max())
    yield "cauchy-transform-of-constant", err < 0.1, err, 0.1

    # integrable reduction: standard structure leaves affine targets fixed
    Js = gallery("standard", n=1)
    worst = 0.0
    for _ in range(5):
        p, q = rng.uniform(-0.5, 0.5, size=2), rng.uniform(-0.5, 0.5, size=2)
        sol = two_point_disk(Js, p, q, 0.5, SolverConfig(), g)
        worst = max(worst, float(np.max(np.abs(sol.v.values - affine_target(p, q, 0.5, g).values))),
                    float(np.linalg.norm(sol.v.value_at_center() - p)))
    yield "integrable-reduction", worst < 1e-12, worst, 1e-12

    # non-integrable solve: contraction, endpoint matching, small residual
    sol = two_point_disk(gallery("conjugated", n=1, epsilon=0.1), np.zeros(2),
                         np.array([0.1, 0.0]), 0.5, SolverConfig(epsilon=0.05), g)
    end_err = float(np.linalg.norm(eval_interp(sol.v, 0.5 + 0j) - np.array([0.1, 0.0])))
    ok = (sol.iterations <= 50 and max(sol.contraction_ratios(), default=0.0) <= 0.9
          and end_err < 1e-6 and sol.residual < 1e-3)
    yield "non-integrable-solve", ok, sol.residual, 1e-3

    # hyperbolic distance sanity
    d = poincare_distance
    err = abs(d(0, 0.5) - float(np.arctanh(0.5)))
    trios = [[complex(*xy) for xy in trio if np.hypot(*xy) < 0.95]
             for trio in rng.uniform(-0.9, 0.9, size=(200, 3, 2))]
    tri_ok = all(d(a, c) <= d(a, b) + d(b, c) + 1e-12 for a, b, c in
                 (trio for trio in trios if len(trio) == 3))
    yield "hyperbolic-distance-axioms", err < 1e-14 and tri_ok, err, 1e-14

    L = mobius_swap(0.3 - 0.2j, 1.0)
    zs = rng.uniform(-0.6, 0.6, size=(100, 2))
    zc = zs[:, 0] + 1j * zs[:, 1]
    inv_err = float(np.max(np.abs(L(L(zc)) - zc)))
    yield "mobius-involution", inv_err < 1e-12, inv_err, 1e-12

    g65 = make_grid(1.0, 65)
    sq = DiskMap(g65, np.stack([(g65.Z ** 2).real, (g65.Z ** 2).imag], axis=-1))
    err = abs(scaling_sup(sq, 1.0) - 4.0 / (3.0 * math.sqrt(3.0)))
    yield "weighted-derivative-analytic", err < 1e-3, err, 1e-3

    est = estimate_distance(Js, np.array([0.0, 0.0]), np.array([0.3, 0.0]),
                            KobayashiOptions(k_max=1, t_grid=(0.05, 0.5), grid_n=33))
    bound = float(np.arctanh(0.05)) + 1e-9
    yield "flat-upper-bound", est.upper <= bound, est.upper, bound

    Jt = gallery("torus-flat", n=1)
    est = estimate_distance(Jt, np.zeros(2), np.array([0.5, 0.0]),
                            KobayashiOptions(k_max=1, t_grid=(0.25, 0.5), grid_n=33))
    pushed = pushforward_chain(est.best_chain, lambda v: v + np.array([0.3, -0.8]),
                               Jt, residual_tol=1e-3)
    gap = abs(chain_cost(pushed) - est.upper)
    yield "pushforward-cost-preserving", gap <= 1e-15, gap, 1e-15

    bnd = derivative_bound(gallery("standard", n=1, radius=1.0), np.zeros(2),
                           np.array([1.0, 0.0]), 4.0, cfg=SolverConfig(), grid=g)
    yield "derivative-scale-bound", abs(bnd.lambda_lower - 1.0) <= 0.05, bnd.lambda_lower, 0.05

    rep = extract_line(Jt, dilation_family(g, base=4.0, factor=2.0), R=2.0, tol=1e-10, n_max=6)
    line = rep.final
    ok = (rep.converged and line is not None and abs(line.derivative_at_0 - 1.0) < 1e-6
          and line.cr_residual < 1e-10)
    yield "line-extraction-flat-torus", ok, None if line is None else line.derivative_at_0, 1e-6


def _cmd_selftest(config, rng):
    checks = [{"name": name, "passed": bool(passed), "observed": observed, "threshold": threshold}
              for name, passed, observed, threshold in _selftest_checks(rng)]
    all_passed = all(c["passed"] for c in checks)
    rows = [(c["name"], c["passed"]) for c in checks] + [("overall", all_passed)]
    width = max(len(name) for name, _ in rows)
    print("self test results:", *(f"  {name:<{width}}  {'PASS' if ok else 'FAIL'}"
                                  for name, ok in rows), sep="\n", file=sys.stderr)
    return {"checks": checks, "all_passed": all_passed}, 0 if all_passed else 3


# each command's runner and the sections it reads besides params and output.report
_COMMANDS = {
    "validate": (_cmd_validate, ("structure", "grid", "seed")),
    "disk": (_cmd_disk, ("structure", "grid", "solver", "csv")),
    "distance": (_cmd_distance, ("structure", "grid", "solver")),
    "bound": (_cmd_bound, ("structure", "grid", "solver")),
    "brody": (_cmd_brody, ("structure", "grid", "solver", "csv")),
    "selftest": (_cmd_selftest, ("seed",)),
}


def run(config: dict):
    """Execute one run; returns (exit_code, report_dict).

    The report's ``config`` is the fully resolved config, so running it
    again reproduces the report apart from its timestamp.
    """
    config = _normalize(config)
    report = {"config": config, "versions": {
        "jdisk": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0]}}
    try:
        built = {}   # the objects of the sections the command reads
        if "structure" in config:   # its keys are gallery's parameters
            s = config["structure"]
            radius = math.inf if s["radius"] is None else s["radius"]
            built["J"] = gallery(**{**s, "radius": radius})
        if "grid" in config:
            built["grid"] = make_grid(config["grid"]["r"], config["grid"]["N"])
        if "solver" in config:
            built["cfg"] = SolverConfig(**config["solver"])
        if "seed" in config:
            built["rng"] = np.random.default_rng(config["seed"])
        results, code = _COMMANDS[config["command"]][0](config, **built)
        report["results"] = _jsonify(results)
    except (ConfigError, InvalidGrid, InvalidParams, UnknownName) as exc:
        raise ConfigError(str(exc)) from exc
    except JDiskError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Diverged):
            report["error"].update(_jsonify({"last_deltas": exc.deltas,
                                             "worst_ratio": exc.ratio}))
        if isinstance(exc, Singular):
            report["error"]["where"] = _jsonify(exc.where)
        code = 3
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return code, report


def _add_flags(parser, table: dict, prefix: str) -> None:
    for key, spec in table.items():
        if isinstance(spec, dict):
            _add_flags(parser, spec, f"{prefix}{key}.")
        elif spec.flag is not None:
            parser.add_argument(spec.flag or "--" + key.replace("_", "-"), dest=prefix + key,
                                default=argparse.SUPPRESS, metavar=spec.kind.__name__[1:].upper(),
                                help=f"sets {prefix}{key}"
                                + ("" if spec.most is None else f", at most {spec.most}"))


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jdisk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON config file; flags given with it overlay it")
        table = _command_table(command)
        if "solver" in table:
            sp.add_argument("--cfg", action="append", default=[], metavar="KEY=VALUE",
                            help="sets solver.KEY")
        _add_flags(sp, table, "")
        if command == "brody":
            sp.add_argument("--family", dest="params.family.kind", default=argparse.SUPPRESS,
                            help=f"sets params.family.kind, one of {', '.join(_FAMILIES)}")
            for table in _FAMILIES.values():
                _add_flags(sp, table, "params.family.")
    return ap


def _overlay(config: dict, dest: str, value) -> None:
    *sections, key = dest.split(".")
    node = config
    for name in sections:
        node = node.setdefault(name, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config section {name!r} must be an object")
    node[key] = value


def _config_from_args(args) -> dict:
    """The --config file (or an empty config) with the given flags laid over it."""
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config")
    for item in flags.pop("cfg", []):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--cfg expects KEY=VALUE, got {item!r}")
        flags["solver." + key] = value
    config = {"command": command}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        if config.setdefault("command", command) != command:
            raise ConfigError(f"{path} is a {config['command']!r} config, not {command!r}")
    for dest, value in flags.items():
        _overlay(config, dest, value)
    return config


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:       # argparse's --help (0) or a bad flag (2)
        return exc.code
    try:
        code, report = run(_config_from_args(args))
        text = json.dumps(report, indent=2)
        out_path = report["config"]["output"]["report"]
        if out_path:
            with _create(out_path) as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
