"""Disk solver for the nonlinear Cauchy-Riemann equation.

A disk v is holomorphic for the structure, dv/dzbar = q(v) dv/dz up to
discretization error, when it is a fixed point of

    v = h + P( q(v) * dv/dz ),

with h a holomorphic target and P the solid Cauchy transform, the right
inverse of d/dzbar on the disk.  ``picard_solve`` runs the fixed-point
iteration.  For ``two_point_disk`` and ``derivative_disk`` it also picks
the affine target at every step so that the disk carries their point or
derivative data exactly (the fixed-point treatment of disks with prescribed
data, Nijenhuis and Woolf, Ann. of Math. 77 (1963)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cauchygreen import cg_apply, cg_build
from .diskgrid import DiskGrid, DiskMap, d_dz, d_dzbar, eval_interp
from .errors import Diverged, InvalidParams
from .structure import ComplexConvention, StructureField, q_field

# a fixed-point iteration has diverged once the sup norm of its iterate
# grows by _DIVERGENCE_FACTOR within _DIVERGENCE_WINDOW steps
_DIVERGENCE_WINDOW = 5
_DIVERGENCE_FACTOR = 2.0


@dataclass
class SolverConfig:
    """Settings of the disk solver.

    ``epsilon`` in (0, 1] is the factor ``picard_solve`` applies to a fixed
    target, v = epsilon * h + P(q(v) dv/dz).  The matched solves choose
    their target in disk units, so there epsilon only sets the stopping
    test: a sup change of v below ``epsilon * tol_fixpoint``.  At most
    ``max_iter`` steps are taken, and the iteration is declared diverged
    when its sup norm doubles within 5 steps.
    """

    epsilon: float = 0.1
    tol_fixpoint: float = 1e-10
    max_iter: int = 80

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in (0, 1], got {self.epsilon}")
        for name in ("tol_fixpoint", "max_iter"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be positive")


@dataclass
class DiskSolution:
    """Result of a disk solve.

    ``v`` is the disk and ``residual`` its ``cr_residual``.  ``step_deltas``
    holds the sup-norm increments of v (contraction diagnostics), one per
    fixed-point step, so ``iterations``, their count, counts every step of
    the solve.  ``newton_steps`` is a class constant 0, not a field: matching
    happens inside the fixed point, and it stays for readers of the old
    outer-loop counter.
    """

    v: DiskMap
    residual: float
    step_deltas: list = field(default_factory=list)
    newton_steps = 0

    @property
    def iterations(self) -> int:
        return len(self.step_deltas)

    def contraction_ratios(self) -> list:
        return _ratios(self.step_deltas)


def _ratios(deltas: list) -> list:
    """Step-delta ratios over steps whose previous delta exceeds 1e-13."""
    return [cur / prev for prev, cur in zip(deltas, deltas[1:]) if prev > 1e-13]


def _beltrami(J: StructureField, v: DiskMap, labels: np.ndarray) -> np.ndarray:
    """The Beltrami term q(v) dv/dz at the interior nodes of v's grid, as
    rows in row-major node order; ``labels`` are those nodes' coordinates,
    ``v.grid.nodes(v.grid.interior)``."""
    inner = v.grid.interior
    q = q_field(J, v.values[inner], labels=labels)
    return np.einsum("mij,mj->mi", q, d_dz(v).values[inner])


def cr_residual(J: StructureField, v: DiskMap) -> float:
    """Sup over interior nodes of | dv/dzbar - q(v) dv/dz |.

    The universal holomorphy certificate for a sampled disk: zero for exact
    solutions, O(h^2 + quadrature) for solver output.
    """
    g = v.grid
    resid = d_dzbar(v).values[g.interior] - _beltrami(J, v, g.nodes(g.interior))
    return float(np.max(np.linalg.norm(resid, axis=-1)))


def affine_target(p: np.ndarray, q: np.ndarray, t: float, grid: DiskGrid) -> DiskMap:
    """The affine disk h(z) = p + (z/t)(q - p), h(0) = p and h(t) = q, for a
    point 0 < t < r of the grid's disk (``check_node`` bounds matched solves)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if not 0.0 < t < grid.r:
        raise InvalidParams(f"interpolation node t must lie in (0, {grid.r:.4g}), got {t}")
    return DiskMap(grid, p + ComplexConvention.cmul(grid.Z / t, q - p))


def _diverged(message: str, deltas: list) -> Diverged:
    return Diverged(message, deltas=deltas[-5:], ratio=max(_ratios(deltas), default=None))


def picard_solve(J: StructureField, cfg: SolverConfig, h: DiskMap,
                 match=None) -> DiskSolution:
    """Fixed-point iteration v <- T + C with C = P(q(v) dv/dz).

    Without ``match`` the target T is ``eps * h`` and v starts at it, where
    ``eps`` is ``cfg.epsilon``.  With ``match = (seed, observe, data)`` the
    target is re-chosen at every step as T = seed(data - observe(C)).
    ``observe`` is linear and ``observe(seed(y)) = y`` exactly, so every
    iterate has ``observe(v) = data`` to round-off, and a fixed point is the
    disk with that data; v starts at ``h``, normally ``seed(data)``.

    The iteration stops once the sup change of v falls below
    ``eps * cfg.tol_fixpoint``.  Raises ``Diverged``, carrying the last step
    deltas and the worst contraction ratio, when the iteration budget is
    exhausted or the iterate norm doubles within 5 steps; ``Singular`` when
    the dilatation matrix fails along an iterate.
    """
    eps = cfg.epsilon
    grid = h.grid
    op = cg_build(grid)
    mask, inner = grid.mask, grid.interior
    labels = grid.nodes(inner)
    extend = grid.ring_extension()
    if match is None:
        fixed = eps * h.values
        v = DiskMap(grid, fixed)
    else:
        seed, observe, data = match
        v = h
    deltas: list = []
    norms: list = [v.sup_norm()]
    for k in range(1, cfg.max_iter + 1):
        # derivatives are zero on the boundary ring, so the density is
        # formed at interior nodes and extended to the ring from them (the
        # final certificate is cr_residual)
        w_vals = np.zeros_like(v.values)
        w_vals[inner] = _beltrami(J, v, labels)
        flat = w_vals.reshape(grid.N * grid.N, -1)
        w_vals = (extend @ flat).reshape(w_vals.shape)
        correction = cg_apply(op, DiskMap(grid, w_vals))
        target = fixed if match is None else seed(data - observe(correction)).values
        new_vals = target + correction.values
        delta = float(np.max(np.abs(new_vals[mask] - v.values[mask])))
        deltas.append(delta)
        v = DiskMap(grid, new_vals)
        norms.append(v.sup_norm())
        if delta < eps * cfg.tol_fixpoint:
            return DiskSolution(v, cr_residual(J, v), deltas)
        if k >= _DIVERGENCE_WINDOW:
            # the floor is 1e-6 in units of h, like the stopping test
            ref = max(norms[k - _DIVERGENCE_WINDOW], eps * 1e-6)
            if norms[k] > _DIVERGENCE_FACTOR * ref:
                raise _diverged(f"iterate norm grew from {ref:.3e} to {norms[k]:.3e} "
                                f"within {_DIVERGENCE_WINDOW} steps", deltas)
    raise _diverged(f"no contraction after {cfg.max_iter} iterations "
                    f"(last delta {deltas[-1]:.3e})", deltas)


def _constant_solution(J: StructureField, p: np.ndarray, grid: DiskGrid) -> DiskSolution:
    p = np.asarray(p, dtype=np.float64)
    vals = np.broadcast_to(p, (grid.N, grid.N, p.size)).copy()
    v = DiskMap(grid, vals)
    return DiskSolution(v, cr_residual(J, v))


def check_node(t: float, grid: DiskGrid) -> None:
    """Raise ``InvalidParams`` unless ``two_point_disk`` can match a point
    at z = t on ``grid``: 0 < t < r - h, r and h the grid's radius and step.
    The bound scales with the grid, so on r > 1 a node t >= 1 is valid."""
    if not t > 0.0:
        raise InvalidParams(f"t must be positive, got {t}")
    # the bilinear cell at t must lie in the disk; sampling snaps t to a node
    # within 1e-9 h, and the cell of the node r - h has a corner off the disk
    if t >= grid.r - grid.h * (1.0 + 1e-9):
        raise InvalidParams(
            f"t={t} is not below the interpolation limit {grid.r - grid.h:.4g} of the grid")


def two_point_disk(J: StructureField, p0, q0, t: float, cfg: SolverConfig,
                   grid: DiskGrid) -> DiskSolution:
    """Holomorphic disk through p0 at z = 0 and q0 at z = t.

    Both points are matched to round-off: v(0) exactly, v(t) through the
    bilinear interpolation of ``eval_interp``.  A failed solve raises the
    ``Diverged`` or ``Singular`` of ``picard_solve``.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    check_node(t, grid)
    if np.array_equal(p0, q0):
        return _constant_solution(J, p0, grid)

    dim, data = p0.size, np.concatenate([p0, q0])
    # affine_target's basis z / t, formed once; only p and q - p change
    basis = grid.Z / t

    def seed(y):
        p = y[:dim]
        return DiskMap(grid, p + ComplexConvention.cmul(basis, y[dim:] - p))

    def observe(v):
        return np.concatenate([v.value_at_center(), eval_interp(v, complex(t, 0.0))])

    return picard_solve(J, cfg, seed(data), match=(seed, observe, data))


def derivative_disk(J: StructureField, p, w, cfg: SolverConfig,
                    grid: DiskGrid) -> DiskSolution:
    """Holomorphic disk with v(0) = p and dv/dz(0) = w (complex derivative,
    real representation), both matched to round-off, dv/dz(0) through the
    centred differences of ``d_dz``.  Fails like ``two_point_disk``."""
    p = np.asarray(p, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if not np.any(w):
        return _constant_solution(J, p, grid)

    dim, data = p.size, np.concatenate([p, w])
    center = grid.center_index

    def seed(y):
        return DiskMap(grid, y[:dim] + ComplexConvention.cmul(grid.Z, y[dim:]))

    def observe(v):
        return np.concatenate([v.value_at_center(), d_dz(v).values[center]])

    return picard_solve(J, cfg, seed(data), match=(seed, observe, data))
