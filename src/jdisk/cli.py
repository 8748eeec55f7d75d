"""Command line entry point.

Commands: validate, disk, distance, bound, brody, selftest.  A run is
described by a config (JSON file via --config, or inline flags), executes
deterministically for a fixed seed, and writes a JSON report carrying the
fully resolved config echo, results, diagnostics and library versions.
Exit codes: 0 success, 2 config error, 3 solver/check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys

import numpy as np
import scipy

from . import __version__
from .brody import derivative_ladder_family, dilation_family, extract_line, scaling_sup
from .cauchygreen import cg_apply, cg_build, cg_residual
from .diskgrid import (DiskMap, eval_interp, make_grid, mobius_swap,
                       poincare_distance, to_csv)
from .errors import ConfigError, InvalidGrid, InvalidParams, JDiskError, UnknownName
from .kobayashi import (KobayashiOptions, chain_cost, derivative_bound,
                        estimate_distance, pushforward_chain)
from .solver import SolverConfig, affine_target, derivative_disk, two_point_disk
from .structure import ComplexConvention, gallery, q_field, validate_structure

_COMMANDS = ("validate", "disk", "distance", "bound", "brody", "selftest")

# solver key -> type of its default, which --cfg values are coerced to
_SOLVER_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}

_SCHEMA = {
    "command": None,
    "structure": {"name", "n", "epsilon", "perturbation", "radius"},
    "grid": {"N", "r"},
    "solver": set(_SOLVER_TYPES),
    "params": {"samples", "p", "q", "w", "t", "k_max", "t_grid", "nu",
               "lambda_max", "bisect_tol", "family", "R", "tol", "n_max",
               "residual_cap"},
    "output": {"report", "csv"},
    "seed": None,
}

_DEFAULTS = {
    "structure": {"name": "standard", "n": 1, "epsilon": 0.1,
                  "perturbation": "sin", "radius": None},
    "grid": {"N": 33, "r": 1.0},
    "solver": {},
    "params": {},
    "output": {},
    "seed": 0,
}


def _check_schema(config: dict) -> None:
    unknown = set(config) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, allowed in _SCHEMA.items():
        if allowed is None or key not in config:
            continue
        section = config[key]
        if not isinstance(section, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        extra = set(section) - allowed
        if extra:
            raise ConfigError(f"unknown keys in {key!r}: {sorted(extra)}")
    cmd = config.get("command")
    if cmd not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {cmd!r}")


def _normalize(config: dict) -> dict:
    _check_schema(config)
    out = {"command": config["command"]}
    for key in ("structure", "grid", "solver", "params", "output"):
        merged = dict(_DEFAULTS[key])
        merged.update(config.get(key, {}))
        out[key] = merged
    out["seed"] = int(config.get("seed", _DEFAULTS["seed"]))
    return out


def _build_structure(section: dict):
    kwargs = {"n": int(section["n"])}
    if section["name"] in ("conjugated", "torus-perturbed"):
        kwargs["epsilon"] = float(section["epsilon"])
        kwargs["perturbation"] = section["perturbation"]
    if section.get("radius") is not None and not section["name"].startswith("torus"):
        kwargs["radius"] = float(section["radius"])
    return gallery(section["name"], **kwargs)


def _build_cfg(section: dict) -> SolverConfig:
    return SolverConfig(**section)


def _point(value, dim: int) -> np.ndarray:
    items = value.split(",") if isinstance(value, str) else value
    try:
        parts = [float(x) for x in items]
    except (TypeError, ValueError):
        raise ConfigError(f"point {value!r} must be numbers") from None
    if len(parts) != dim:
        raise ConfigError(f"point {value!r} must have {dim} coordinates")
    if not all(math.isfinite(x) for x in parts):
        raise ConfigError(f"point {value!r} has non-finite coordinates")
    return np.asarray(parts)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
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
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _cmd_validate(config, rng):
    J = _build_structure(config["structure"])
    dim = J.convention.dim
    count = int(config["params"].get("samples", 1000))
    if J.domain.is_torus:
        samples = rng.uniform(0.0, 1.0, size=(count, dim))
    else:
        b = 1.0 if not math.isfinite(J.domain.radius) else 0.9 * J.domain.radius
        samples = rng.uniform(-b, b, size=(count, dim))
    report = validate_structure(J, samples)
    results = report.to_dict()
    cg_n = int(config["grid"]["N"])
    g = make_grid(float(config["grid"]["r"]), cg_n)
    op = cg_build(g)
    ones = DiskMap(g, np.stack([np.ones_like(g.X), np.zeros_like(g.X)], axis=-1),
                   ComplexConvention(1))
    results["cg_residual_constant_density"] = cg_residual(op, ones)
    return results, 0 if report.passed else 3


def _cmd_disk(config, rng):
    J = _build_structure(config["structure"])
    dim = J.convention.dim
    params = config["params"]
    grid = make_grid(float(config["grid"]["r"]), int(config["grid"]["N"]))
    cfg = _build_cfg(config["solver"])
    p = _point(params["p"], dim)
    if "w" in params and params["w"] is not None:
        sol = derivative_disk(J, p, _point(params["w"], dim), cfg, grid)
        endpoint = {"value_at_0": sol.v.value_at_center().tolist()}
    else:
        t = float(params.get("t", 0.5))
        q = _point(params["q"], dim)
        sol = two_point_disk(J, p, q, t, cfg, grid)
        endpoint = {
            "value_at_0": sol.v.value_at_center().tolist(),
            "value_at_t": eval_interp(sol.v, complex(t, 0.0)).tolist(),
        }
    results = {
        "residual": sol.residual,
        "iterations": sol.iterations,
        "newton_steps": sol.newton_steps,
        "endpoints": endpoint,
    }
    csv_path = config["output"].get("csv")
    if csv_path:
        to_csv(sol.v, csv_path)
        results["csv"] = csv_path
    return results, 0


def _cmd_distance(config, rng):
    J = _build_structure(config["structure"])
    dim = J.convention.dim
    params = config["params"]
    opts = KobayashiOptions(
        k_max=int(params.get("k_max", 3)),
        t_grid=tuple(params.get("t_grid", (0.05, 0.1, 0.25, 0.5))),
        cfg=_build_cfg(config["solver"]),
        grid_n=int(config["grid"]["N"]),
        grid_r=float(config["grid"]["r"]),
        residual_cap=float(params.get("residual_cap", 1e-2)),
    )
    est = estimate_distance(J, _point(params["p"], dim), _point(params["q"], dim), opts)
    results = {
        "upper": est.upper,
        "links": [{"t": link.b.real, "cost": link.cost,
                   "residual": link.disk.residual} for link in est.best_chain.links],
        "search_log": [[k, t, c] for k, t, c in est.search_log],
    }
    return results, 0


def _cmd_bound(config, rng):
    J = _build_structure(config["structure"])
    dim = J.convention.dim
    params = config["params"]
    nu = _point(params.get("nu", [1.0] + [0.0] * (dim - 1)), dim)
    grid = make_grid(float(config["grid"]["r"]), int(config["grid"]["N"]))
    report = derivative_bound(
        J, _point(params["p"], dim), nu,
        float(params.get("lambda_max", 1e3)),
        cfg=_build_cfg(config["solver"]), grid=grid,
        bisect_tol=float(params.get("bisect_tol", 0.01)))
    return {
        "lambda_lower": report.lambda_lower,
        "lambda_max": report.lambda_max,
        "unbounded_suspected": report.unbounded_suspected,
        "probes": [[lam, ok] for lam, ok in report.probes],
    }, 0


def _cmd_brody(config, rng):
    J = _build_structure(config["structure"])
    dim = J.convention.dim
    params = config["params"]
    grid = make_grid(float(config["grid"]["r"]), int(config["grid"]["N"]))
    fam_spec = dict(params.get("family", {"kind": "dilations"}))
    kind = fam_spec.pop("kind", "dilations")
    if kind == "dilations":
        family = dilation_family(grid, n=J.convention.n,
                                 base=float(fam_spec.pop("base", 4.0)),
                                 factor=float(fam_spec.pop("factor", 2.0)))
    elif kind == "derivative-ladder":
        p = _point(fam_spec.pop("p", [0.0] * dim), dim)
        nu = _point(fam_spec.pop("nu", [1.0] + [0.0] * (dim - 1)), dim)
        lambdas = [float(x) for x in fam_spec.pop("lambdas")]
        family = derivative_ladder_family(J, p, nu, lambdas,
                                          _build_cfg(config["solver"]), grid)
    else:
        raise ConfigError(f"unknown family kind {kind!r}")
    if fam_spec:
        raise ConfigError(f"unknown family keys: {sorted(fam_spec)}")

    report = extract_line(J, family, R=float(params.get("R", 2.0)),
                          tol=float(params.get("tol", 1e-8)),
                          n_max=int(params.get("n_max", 8)))
    results = {
        "converged": report.converged,
        "message": report.message,
        "steps": [{"n": s.n, "r_n": s.r_n, "sup_derivative": s.sup_derivative,
                   "recentered": s.recentered, "t0": s.t0, "delta": s.delta}
                  for s in report.steps],
    }
    if report.final is not None:
        results["line"] = {
            "derivative_at_0": report.final.derivative_at_0,
            "cr_residual": report.final.cr_residual,
            "achieved_delta": report.final.achieved_delta,
        }
        csv_path = config["output"].get("csv")
        if csv_path:
            to_csv(report.final.samples, csv_path)
            results["csv"] = csv_path
    code = 0 if report.final is not None else 3
    return results, code


def _selftest_checks(config, rng):
    checks = []

    def record(name, passed, observed, threshold):
        checks.append({"name": name, "passed": bool(passed),
                       "observed": observed, "threshold": threshold})

    # structure algebra for n = 1 and 2
    worst_resid, worst_equiv = 0.0, 0.0
    q_std_max = 0.0
    for n in (1, 2):
        Jc = gallery("conjugated", n=n, epsilon=0.1)
        pts = rng.uniform(-1, 1, size=(200, 2 * n))
        mats = Jc.eval(pts)
        worst_resid = max(worst_resid, float(np.max(np.abs(
            np.einsum("mij,mjk->mik", mats, mats) + np.eye(2 * n)))))
        conv = Jc.convention
        a = rng.normal(size=(200, 2 * n))
        qm = q_field(Jc, pts)
        uy = np.einsum("mij,mj->mi", mats, a)
        lhs = a + conv.mul_i(uy)
        rhs = np.einsum("mij,mj->mi", qm, a - conv.mul_i(uy))
        worst_equiv = max(worst_equiv, float(np.max(np.linalg.norm(lhs - rhs, axis=-1))))
        Js = gallery("standard", n=n)
        q_std_max = max(q_std_max, float(np.max(np.abs(q_field(Js, pts)))))
    record("structure-algebra-residual", worst_resid < 1e-12, worst_resid, 1e-12)
    record("dilatation-zero-for-standard", q_std_max == 0.0, q_std_max, 0.0)
    record("cauchy-riemann-form-equivalence", worst_equiv < 1e-10, worst_equiv, 1e-10)

    # transform inverts the conjugate derivative
    g = make_grid(1.0, 33)
    op = cg_build(g)
    conv1 = ComplexConvention(1)
    ones = DiskMap(g, np.stack([np.ones_like(g.X), np.zeros_like(g.X)], axis=-1), conv1)
    res_const = cg_residual(op, ones)
    record("cauchy-transform-residual", res_const < 0.1, res_const, 0.1)
    p1 = cg_apply(op, ones)
    err = np.abs(p1.component_complex(0) - np.conj(g.Z))[g.interior].max()
    record("cauchy-transform-of-constant", err < 0.1, float(err), 0.1)

    # integrable reduction: standard structure leaves affine targets fixed
    Js = gallery("standard", n=1)
    cfg = SolverConfig()
    worst = 0.0
    for _ in range(5):
        p = rng.uniform(-0.5, 0.5, size=2)
        q = rng.uniform(-0.5, 0.5, size=2)
        sol = two_point_disk(Js, p, q, 0.5, cfg, g)
        target = affine_target(p, q, 0.5, g)
        worst = max(worst, float(np.max(np.abs(sol.v.values - target.values))),
                    float(np.linalg.norm(sol.v.value_at_center() - p)))
    record("integrable-reduction", worst < 1e-12, worst, 1e-12)

    # non-integrable solve: contraction, endpoint matching, small residual
    Jc1 = gallery("conjugated", n=1, epsilon=0.1)
    scfg = SolverConfig(epsilon=0.05)
    sol = two_point_disk(Jc1, np.zeros(2), np.array([0.1, 0.0]), 0.5, scfg, g)
    end_err = float(np.linalg.norm(
        eval_interp(sol.v, 0.5 + 0j) - np.array([0.1, 0.0])))
    ratios = sol.contraction_ratios()
    ok = (sol.iterations <= 50 and (not ratios or max(ratios) <= 0.9)
          and end_err < 1e-6 and sol.residual < 1e-3)
    record("non-integrable-solve", ok, sol.residual, 1e-3)

    # hyperbolic distance sanity
    d_half = poincare_distance(0, 0.5)
    err = abs(d_half - float(np.arctanh(0.5)))
    tri_ok = True
    zs = rng.uniform(-0.9, 0.9, size=(200, 3, 2))
    for trio in zs:
        pts = [complex(*xy) for xy in trio if np.hypot(*xy) < 0.95]
        if len(pts) < 3:
            continue
        a, b, c = pts
        if poincare_distance(a, c) > poincare_distance(a, b) + poincare_distance(b, c) + 1e-12:
            tri_ok = False
    record("hyperbolic-distance-axioms", err < 1e-14 and tri_ok, err, 1e-14)

    L = mobius_swap(0.3 - 0.2j, 1.0)
    zs = rng.uniform(-0.6, 0.6, size=(100, 2))
    zc = zs[:, 0] + 1j * zs[:, 1]
    inv_err = float(np.max(np.abs(L(L(zc)) - zc)))
    record("mobius-involution", inv_err < 1e-12, inv_err, 1e-12)

    g65 = make_grid(1.0, 65)
    sq = DiskMap(g65, np.stack([(g65.Z ** 2).real, (g65.Z ** 2).imag], axis=-1), conv1)
    s_val = scaling_sup(sq, 1.0)
    err = abs(s_val - 4.0 / (3.0 * math.sqrt(3.0)))
    record("weighted-derivative-analytic", err < 1e-3, err, 1e-3)

    est = estimate_distance(Js, np.array([0.0, 0.0]), np.array([0.3, 0.0]),
                            KobayashiOptions(k_max=1, t_grid=(0.05, 0.5), grid_n=33))
    bound = float(np.arctanh(0.05)) + 1e-9
    record("flat-upper-bound", est.upper <= bound, est.upper, bound)

    Jt0 = gallery("torus-flat", n=1)
    est_t = estimate_distance(Jt0, np.zeros(2), np.array([0.5, 0.0]),
                              KobayashiOptions(k_max=1, t_grid=(0.25, 0.5), grid_n=33))
    pushed = pushforward_chain(est_t.best_chain, lambda v: v + np.array([0.3, -0.8]),
                               Jt0, residual_tol=1e-3)
    cost_gap = abs(chain_cost(pushed) - est_t.upper)
    record("pushforward-cost-preserving", cost_gap <= 1e-15, cost_gap, 1e-15)

    Jb = gallery("standard", n=1, radius=1.0)
    bnd = derivative_bound(Jb, np.zeros(2), np.array([1.0, 0.0]), 4.0,
                           cfg=SolverConfig(), grid=g)
    record("derivative-scale-bound", abs(bnd.lambda_lower - 1.0) <= 0.05,
           bnd.lambda_lower, 0.05)

    Jt = gallery("torus-flat", n=1)
    rep = extract_line(Jt, dilation_family(g, base=4.0, factor=2.0), R=2.0,
                       tol=1e-10, n_max=6)
    ok = (rep.converged and rep.final is not None
          and abs(rep.final.derivative_at_0 - 1.0) < 1e-6
          and rep.final.cr_residual < 1e-10)
    record("line-extraction-flat-torus", ok,
           None if rep.final is None else rep.final.derivative_at_0, 1e-6)
    return checks


def _cmd_selftest(config, rng):
    checks = _selftest_checks(config, rng)
    all_passed = all(c["passed"] for c in checks)
    width = max(len(c["name"]) for c in checks)
    lines = ["self test results:"]
    for c in checks:
        lines.append(f"  {c['name']:<{width}}  {'PASS' if c['passed'] else 'FAIL'}")
    lines.append(f"  {'overall':<{width}}  {'PASS' if all_passed else 'FAIL'}")
    print("\n".join(lines))
    return {"checks": checks, "all_passed": all_passed}, 0 if all_passed else 3


_DISPATCH = {
    "validate": _cmd_validate,
    "disk": _cmd_disk,
    "distance": _cmd_distance,
    "bound": _cmd_bound,
    "brody": _cmd_brody,
    "selftest": _cmd_selftest,
}


def run(config: dict):
    """Execute one normalized run; returns (exit_code, report_dict)."""
    config = _normalize(config)
    rng = np.random.default_rng(config["seed"])
    report = {
        "config": _jsonify(config),
        "versions": {
            "jdisk": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    try:
        results, code = _DISPATCH[config["command"]](config, rng)
        report["results"] = _jsonify(results)
    except (ConfigError, InvalidGrid, InvalidParams, UnknownName) as exc:
        raise ConfigError(str(exc)) from exc
    except JDiskError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return code, report


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jdisk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (overrides inline flags)")
    common.add_argument("--structure", default="standard")
    common.add_argument("--n", type=int, default=1)
    common.add_argument("--epsilon", type=float, default=0.1)
    common.add_argument("--perturbation", default="sin")
    common.add_argument("--radius", type=float, default=None)
    common.add_argument("--N", type=int, default=33)
    common.add_argument("--r", type=float, default=1.0)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--csv", help="dump grid values as CSV here")
    common.add_argument("--cfg", action="append", default=[],
                        metavar="KEY=VALUE", help="solver config override")

    sp = sub.add_parser("validate", parents=[common])
    sp.add_argument("--samples", type=int, default=1000)

    sp = sub.add_parser("disk", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--q")
    sp.add_argument("--w")
    sp.add_argument("--t", type=float, default=0.5)

    sp = sub.add_parser("distance", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--k-max", type=int, default=3)
    sp.add_argument("--t-grid", default="0.05,0.1,0.25,0.5")
    sp.add_argument("--tmin", type=float, default=None,
                    help="shorthand: prepend this t to the sweep")

    sp = sub.add_parser("bound", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--nu")
    sp.add_argument("--lambda-max", type=float, default=1e3)
    sp.add_argument("--bisect-tol", type=float, default=0.01)

    sp = sub.add_parser("brody", parents=[common])
    sp.add_argument("--family", default="dilations",
                    choices=("dilations", "derivative-ladder"))
    sp.add_argument("--p")
    sp.add_argument("--nu")
    sp.add_argument("--lambdas", help="comma separated derivative scales")
    sp.add_argument("--R", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--n-max", type=int, default=8)

    sub.add_parser("selftest", parents=[common])
    return ap


def _config_from_args(args) -> dict:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            return json.load(fh)
    solver = {}
    for item in args.cfg:
        if "=" not in item:
            raise ConfigError(f"--cfg expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        kind = _SOLVER_TYPES.get(key, str)   # an unknown key fails the schema check
        try:
            solver[key] = kind(val)
        except ValueError:
            raise ConfigError(f"--cfg {key} expects {kind.__name__}, got {val!r}") from None
    cfg = {
        "command": args.command,
        "structure": {"name": args.structure, "n": args.n, "epsilon": args.epsilon,
                      "perturbation": args.perturbation, "radius": args.radius},
        "grid": {"N": args.N, "r": args.r},
        "solver": solver,
        "params": {},
        "output": {},
        "seed": args.seed,
    }
    if args.out:
        cfg["output"]["report"] = args.out
    if args.csv:
        cfg["output"]["csv"] = args.csv
    p = cfg["params"]
    if args.command == "validate":
        p["samples"] = args.samples
    elif args.command == "disk":
        p["p"] = args.p
        if args.w:
            p["w"] = args.w
        else:
            if not args.q:
                raise ConfigError("disk needs --q or --w")
            p["q"] = args.q
            p["t"] = args.t
    elif args.command == "distance":
        p["p"], p["q"], p["k_max"] = args.p, args.q, args.k_max
        tg = [float(x) for x in args.t_grid.split(",")]
        if args.tmin is not None:
            tg = sorted(set(tg + [args.tmin]))
        p["t_grid"] = tg
    elif args.command == "bound":
        p["p"] = args.p
        if args.nu:
            p["nu"] = args.nu
        p["lambda_max"] = args.lambda_max
        p["bisect_tol"] = args.bisect_tol
    elif args.command == "brody":
        fam = {"kind": args.family}
        if args.family == "derivative-ladder":
            if not args.lambdas:
                raise ConfigError("derivative-ladder needs --lambdas")
            fam["lambdas"] = [float(x) for x in args.lambdas.split(",")]
            if args.p:
                fam["p"] = args.p
            if args.nu:
                fam["nu"] = args.nu
        p["family"] = fam
        p["R"], p["tol"], p["n_max"] = args.R, args.tol, args.n_max
    return cfg


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _config_from_args(args)
        code, report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    out_path = report["config"]["output"].get("report")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
