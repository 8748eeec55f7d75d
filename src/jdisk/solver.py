"""Disk solver for the nonlinear Cauchy-Riemann equation.

A disk v is holomorphic for the structure, dv/dzbar = q(v) dv/dz up to
discretization error, when it is a fixed point of

    v = h + P( q(v) * dv/dz ),

with h a holomorphic target and P the solid Cauchy transform, the right
inverse of d/dzbar on the disk.  ``picard_solve`` runs the plain fixed-point
iteration; ``two_point_disk`` and ``derivative_disk`` wrap it in one
quasi-Newton outer loop that adjusts the target until the disk matches
prescribed point or derivative data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cauchygreen import cg_apply, cg_build
from .diskgrid import DiskGrid, DiskMap, d_dz, d_dzbar, eval_interp
from .errors import Diverged, InvalidParams, NewtonFailed, Singular
from .structure import ComplexConvention, StructureField, q_field


@dataclass
class SolverConfig:
    """Settings of the disk solver.

    ``epsilon`` in (0, 1] is the factor ``picard_solve`` applies to the
    target it is given, v = epsilon * h + P(q(v) dv/dz).  The matched solves
    hand it their targets divided by epsilon, so there epsilon only sets the
    fixed-point stopping test: a sup change of v below
    ``epsilon * tol_fixpoint``.  ``tol_newton`` bounds the matched data
    error, ``fd_step`` is the forward-difference step of the one Jacobian
    rebuild, and the iteration is declared diverged when its sup norm grows
    by ``divergence_factor`` within ``divergence_window`` steps.
    """

    epsilon: float = 0.1
    tol_fixpoint: float = 1e-10
    max_iter: int = 80
    tol_newton: float = 1e-8
    max_newton: int = 25
    fd_step: float = 1e-6
    divergence_window: int = 5
    divergence_factor: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in (0, 1], got {self.epsilon}")
        for name in ("tol_fixpoint", "max_iter", "tol_newton", "max_newton", "fd_step"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be positive")


@dataclass
class DiskSolution:
    """Result of a disk solve.

    ``v`` is the disk and ``residual`` its ``cr_residual``.  ``step_deltas``
    holds the sup-norm fixed-point increments of v (contraction
    diagnostics); ``newton_steps`` counts outer matching steps when
    applicable.
    """

    v: DiskMap
    residual: float
    iterations: int
    step_deltas: list = field(default_factory=list)
    newton_steps: int = 0

    def contraction_ratios(self, floor: float = 1e-13) -> list:
        out = []
        for prev, cur in zip(self.step_deltas, self.step_deltas[1:]):
            if prev > floor:
                out.append(cur / prev)
        return out


def cr_residual(J: StructureField, v: DiskMap) -> float:
    """Sup over interior nodes of | dv/dzbar - q(v) dv/dz |.

    The universal holomorphy certificate for a sampled disk: zero for exact
    solutions, O(h^2 + quadrature) for solver output.
    """
    g = v.grid
    inner = g.interior
    if not inner.any():
        return 0.0
    dzb = d_dzbar(v).values[inner]
    dz = d_dz(v).values[inner]
    pts = v.values[inner]
    labels = np.stack([g.X[inner], g.Y[inner]], axis=-1)
    q = q_field(J, pts, labels=labels)
    resid = dzb - np.einsum("mij,mj->mi", q, dz)
    return float(np.max(np.linalg.norm(resid, axis=-1)))


def affine_target(p: np.ndarray, q: np.ndarray, t: float, grid: DiskGrid) -> DiskMap:
    """The affine disk h(z) = p + (z/t)(q - p); h(0) = p and h(t) = q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if not 0.0 < t < 1.0:
        raise InvalidParams(f"interpolation node t must lie in (0, 1), got {t}")
    conv = ComplexConvention(p.size // 2)
    vals = p + conv.cmul(grid.Z / t, q - p)
    return DiskMap(grid, vals, conv)


def _line_seed(p: np.ndarray, w: np.ndarray, grid: DiskGrid) -> DiskMap:
    p = np.asarray(p, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    conv = ComplexConvention(p.size // 2)
    vals = p + conv.cmul(grid.Z, w)
    return DiskMap(grid, vals, conv)


def picard_solve(J: StructureField, cfg: SolverConfig, h: DiskMap) -> DiskSolution:
    """Fixed-point iteration v <- eps h + P(q(v) dv/dz) from v = eps h.

    ``eps`` is ``cfg.epsilon``; the iteration stops once the sup change of v
    falls below ``eps * cfg.tol_fixpoint``.  Raises ``Diverged`` when the
    iteration budget is exhausted or the iterate norm grows by
    ``cfg.divergence_factor`` over a trailing window; ``Singular`` when the
    dilatation matrix fails along an iterate.
    """
    eps = cfg.epsilon
    grid = h.grid
    op = cg_build(grid)
    mask = grid.mask
    labels = np.stack([grid.X[mask], grid.Y[mask]], axis=-1)
    extend = grid.ring_extension()
    target = eps * h.values
    v = DiskMap(grid, target, h.convention)
    deltas: list = []
    norms: list = [v.sup_norm()]
    for k in range(1, cfg.max_iter + 1):
        q = q_field(J, v.values[mask], labels=labels)
        dz_vals = d_dz(v).values[mask]
        w_vals = np.zeros_like(v.values)
        w_vals[mask] = np.einsum("mij,mj->mi", q, dz_vals)
        # ring derivatives carry boundary noise; extend the density from
        # the interior instead (the final certificate is cr_residual)
        flat = w_vals.reshape(grid.N * grid.N, -1)
        w_vals = (extend @ flat).reshape(w_vals.shape)
        correction = cg_apply(op, DiskMap(grid, w_vals, v.convention))
        new_vals = target + correction.values
        delta = float(np.max(np.abs(new_vals[mask] - v.values[mask])))
        deltas.append(delta)
        v = DiskMap(grid, new_vals, v.convention)
        norms.append(v.sup_norm())
        if delta < eps * cfg.tol_fixpoint:
            return DiskSolution(v, cr_residual(J, v), k, deltas)
        if k >= cfg.divergence_window:
            # the floor is 1e-6 in units of h, like the stopping test
            ref = max(norms[k - cfg.divergence_window], eps * 1e-6)
            if norms[k] > cfg.divergence_factor * ref:
                raise Diverged(
                    f"iterate norm grew from {ref:.3e} to {norms[k]:.3e} "
                    f"within {cfg.divergence_window} steps")
    raise Diverged(f"no contraction after {cfg.max_iter} iterations "
                   f"(last delta {deltas[-1]:.3e})")


def _constant_solution(J: StructureField, p: np.ndarray, grid: DiskGrid) -> DiskSolution:
    p = np.asarray(p, dtype=np.float64)
    vals = np.broadcast_to(p, (grid.N, grid.N, p.size)).copy()
    v = DiskMap(grid, vals, ComplexConvention(p.size // 2))
    return DiskSolution(v, cr_residual(J, v), 0)


def _quasi_newton(residual_fn, x0: np.ndarray, cfg: SolverConfig):
    """Broyden iteration with identity seed Jacobian.

    ``residual_fn(x) -> (g, payload)``; stops when the sup norm of g drops
    below ``cfg.tol_newton``.  Rebuilds the Jacobian by forward differences
    (step ``cfg.fd_step``) once if progress stalls.
    """
    x = x0.copy()
    g, payload = residual_fn(x)
    steps = 0
    if np.max(np.abs(g)) <= cfg.tol_newton:
        return x, payload, steps
    B = np.eye(x.size)
    rebuilt = False
    stall = 0
    for steps in range(1, cfg.max_newton + 1):
        dx = np.linalg.solve(B, -g)
        x_new = x + dx
        g_new, payload = residual_fn(x_new)
        if np.max(np.abs(g_new)) <= cfg.tol_newton:
            return x_new, payload, steps
        if np.max(np.abs(g_new)) > 0.9 * np.max(np.abs(g)):
            stall += 1
        else:
            stall = 0
        if stall >= 3 and not rebuilt:
            B = np.empty((x.size, x.size))
            for i in range(x.size):
                xe = x_new.copy()
                xe[i] += cfg.fd_step
                ge, _ = residual_fn(xe)
                B[:, i] = (ge - g_new) / cfg.fd_step
            rebuilt = True
            stall = 0
        else:
            dg = g_new - g
            denom = float(dx @ dx)
            if denom > 0:
                B = B + np.outer((dg - B @ dx) / denom, dx)
        x, g = x_new, g_new
    raise NewtonFailed(
        f"endpoint matching did not reach {cfg.tol_newton:.1e} within "
        f"{cfg.max_newton} steps (best {np.max(np.abs(g)):.3e})")


def _matched_solve(J: StructureField, cfg: SolverConfig, seed, observe,
                   data: np.ndarray) -> DiskSolution:
    """Disk v with ``observe(v) = data`` to ``cfg.tol_newton``.

    The outer unknowns are the target parameters in disk units, started at
    ``data``; ``seed(y)`` builds the target that ``picard_solve`` scales by
    epsilon, so it receives them divided by epsilon.  A failed inner solve
    ends the match: ``NewtonFailed`` carries it as its cause.
    """
    eps = cfg.epsilon

    def residual(x):
        sol = picard_solve(J, cfg, seed(x / eps))
        return observe(sol.v) - data, sol

    try:
        _, sol, steps = _quasi_newton(residual, data, cfg)
    except (Diverged, Singular) as exc:
        raise NewtonFailed(f"disk solve failed: {exc}") from exc
    sol.newton_steps = max(steps, 1)
    return sol


def two_point_disk(J: StructureField, p0, q0, t: float, cfg: SolverConfig,
                   grid: DiskGrid) -> DiskSolution:
    """Holomorphic disk through p0 at z = 0 and q0 at z = t.

    The outer loop adjusts the affine target parameters so that the solved
    disk interpolates the requested points; both endpoint mismatches end up
    below ``cfg.tol_newton``.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    if not 0.0 < t < 1.0:
        raise InvalidParams(f"t must lie in (0, 1), got {t}")
    if t > grid.r - grid.h:
        raise InvalidParams(
            f"t={t} is beyond the interpolation limit {grid.r - grid.h:.4g} of the grid")
    if np.array_equal(p0, q0):
        return _constant_solution(J, p0, grid)

    dim = p0.size
    return _matched_solve(
        J, cfg, lambda y: affine_target(y[:dim], y[dim:], t, grid),
        lambda v: np.concatenate([v.value_at_center(), eval_interp(v, complex(t, 0.0))]),
        np.concatenate([p0, q0]))


def derivative_disk(J: StructureField, p, w, cfg: SolverConfig,
                    grid: DiskGrid) -> DiskSolution:
    """Holomorphic disk with v(0) = p and dv/dz(0) = w (complex derivative,
    real representation), both matched to ``cfg.tol_newton``."""
    p = np.asarray(p, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if not np.any(w):
        return _constant_solution(J, p, grid)

    dim = p.size
    center = grid.center_index
    return _matched_solve(
        J, cfg, lambda y: _line_seed(y[:dim], y[dim:], grid),
        lambda v: np.concatenate([v.value_at_center(), d_dz(v).values[center]]),
        np.concatenate([p, w]))
