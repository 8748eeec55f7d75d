"""Disk solver for the nonlinear Cauchy-Riemann equation.

A disk v is holomorphic for the structure, dv/dzbar = q(v) dv/dz up to
discretization error, when it is a fixed point of

    v = h + P( q(v) * dv/dz ),

with h a holomorphic target and P the solid Cauchy transform, the right
inverse of d/dzbar on the disk.  ``picard_solve`` runs the fixed-point
iteration; each step forms q(v) dv/dz and v's residual at the interior
nodes alone (``_defect``).  For ``two_point_disk`` and ``derivative_disk``
it also picks the affine target at every step so that the disk carries
their point or derivative data exactly (the fixed-point treatment of disks
with prescribed data, Nijenhuis and Woolf, Ann. of Math. 77 (1963)).

The iteration has two stopping tests.  The absolute one ends it once a
step changes v by less than ``epsilon * tol_fixpoint``.  The relative one
ends it once the iterate is much closer to its fixed point than the fixed
point is to holomorphy: with step deltas d_k and the contraction ratio
estimated as rho = d_k / d_{k-1} < 1, the a posteriori bound
|v_k - v*| <= rho / (1 - rho) d_k of a contraction is at most ``_THETA``
times the ``cr_residual`` of the iterate the step differenced.  Steps past
that point refine the fixed point of the discretization far below its own
error (algebraic against discretization error, Arioli, Liesen, Miedlar and
Strakos, GAMM-Mitt. 36 (2013) 102).  The residual measures that error only
for a disk an acceptance gate could take, so it counts at most up to
``_RESIDUAL_CAP``: a disk above the cap still iterates until its
fixed-point error bound is at most ``_THETA * _RESIDUAL_CAP`` = 1e-5.

A solve given a residual cap, as the distance search's links and the
derivative bound's probes are, has a third test, the same estimate made
for the residual: it rejects a solve once its disk is sure to miss the
cap.  With R_k the residual rows of iterate v_k, res_k their largest norm,
dR_k the largest row norm of R_k - R_{k-1} and rho = dR_k / dR_{k-1} < 1,
every later iterate has res >= res_k - rho / (1 - rho) dR_k as long as the
row changes keep contracting at rho; once that bound is above the cap the
solve returns v_k.  The disk and Brody paths pass no cap.

A solve these tests do not stop fails by one test: it raises ``Diverged``
once its largest step delta over the last 5 steps is no smaller than over
the 5 before, or at ``max_iter`` steps.  Equal points or a zero derivative
need no special case: the seed is the constant disk, its correction is 0,
and the absolute test stops the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cauchygreen import cg_apply, cg_build
# d_dz, d_dzbar and eval_interp are not called here; perfbench/spans.py
# wraps them in this namespace
from .diskgrid import (DiskGrid, DiskMap, _bilinear_cells, _combine, d_dz,  # noqa: F401
                       d_dzbar, eval_interp, interior_wirtinger)
from .errors import Diverged, InvalidParams
from .structure import ComplexConvention, StructureField, q_field

# a fixed-point iteration has diverged once its largest step delta over
# the last _DIVERGENCE_WINDOW steps is no smaller than over the window before
_DIVERGENCE_WINDOW = 5
# a solve also stops once its iterate's a posteriori fixed-point error
# bound is at most _THETA times that iterate's cr_residual, capped at
# _RESIDUAL_CAP; _THETA = 0 leaves only the absolute test
_THETA = 1e-3
# largest cr_residual of an accepted disk, a chain link's or a
# derivative_bound probe's (kobayashi._attempt)
_RESIDUAL_CAP = 1e-2


@dataclass
class SolverConfig:
    """Settings of the disk solver.

    ``epsilon`` in (0, 1] is the factor ``picard_solve`` applies to a fixed
    target, v = epsilon * h + P(q(v) dv/dz).  The matched solves choose
    their target in disk units, so there epsilon only scales the absolute
    stopping test: a sup change of v below ``epsilon * tol_fixpoint``.  A
    solve also stops, whatever these settings, once the a posteriori bound
    of its fixed-point error is at most ``_THETA`` (a module constant,
    1e-3) times the residual of its iterate, capped at ``_RESIDUAL_CAP``
    (1e-2; see ``picard_solve``).  At most ``max_iter`` steps are taken,
    and the iteration is declared diverged once its largest step delta
    over the last 5 steps is no smaller than over the 5 before.
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
    happens inside the fixed point.  No solve reads it; it stays only
    because the benchmark's span tracer (``perfbench/spans.py``) counts it.
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


def _rows(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The rows ``values[sel]`` of ``(N, N, c)`` values at the nodes of a
    mask ``sel``, given as ``nodes = np.flatnonzero(sel)``: the same rows in
    the same order, taken several times faster than by the boolean mask."""
    return values.reshape(-1, values.shape[-1]).take(nodes, axis=0)


def _sup_norm(rows: np.ndarray) -> float:
    """The largest norm of ``rows``: the root of the largest row sum of
    squares (sqrt is monotone and correctly rounded, so it is the largest
    norm), ``inf`` once a sum of squares overflows."""
    with np.errstate(over="ignore"):
        square = sum(col * col for col in rows.T)
    return float(np.sqrt(np.max(square)))


def _defect(J: StructureField, values: np.ndarray, grid: DiskGrid, inner: np.ndarray,
            labels: np.ndarray) -> tuple:
    """``(beltrami, rows, res)`` for the ``(N, N, 2n)`` values of v: the
    Beltrami rows q(v) dv/dz at the interior nodes, with flat indices
    ``inner`` and coordinates ``labels``, the residual rows dv/dzbar -
    q(v) dv/dz, written over dv/dzbar, and their largest norm res, v's
    ``cr_residual``."""
    dz, dzbar = interior_wirtinger(values, grid)
    q = q_field(J, _rows(values, inner), labels=labels)
    beltrami = np.empty_like(dz)
    for i, row in enumerate(beltrami.T):
        np.multiply(q[:, i, 0], dz[:, 0], out=row)
        for j in range(1, dz.shape[1]):
            row += q[:, i, j] * dz[:, j]
    rows = np.subtract(dzbar, beltrami, out=dzbar)
    return beltrami, rows, _sup_norm(rows)


def cr_residual(J: StructureField, v: DiskMap) -> float:
    """Sup over interior nodes of | dv/dzbar - q(v) dv/dz |.

    The universal holomorphy certificate for a sampled disk: zero for exact
    solutions, O(h^2 + quadrature) for solver output.  Both derivatives
    come from one difference product at the interior nodes (``_defect``).
    """
    g = v.grid
    return _defect(J, v.values, g, np.flatnonzero(g.interior), g.nodes(g.interior))[2]


def affine_target(p: np.ndarray, q: np.ndarray, t: float, grid: DiskGrid) -> DiskMap:
    """The affine disk h(z) = p + (z/t)(q - p), h(0) = p and h(t) = q, for a
    point 0 < t < r of the grid's disk (``check_node`` bounds matched solves, at r = 1)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if not 0.0 < t < grid.r:
        raise InvalidParams(f"interpolation node t must lie in (0, {grid.r:.4g}), got {t}")
    return DiskMap(grid, _affine_values(grid, grid.Z / t)(p, q - p))


def _affine_values(grid: DiskGrid, basis: np.ndarray):
    """``(p, d) -> p + basis * d`` (complex product, real representation) on
    ``grid``'s mask and 0 off it, as ``(N, N, 2n)`` values: ``d Re(basis) +
    (i d) Im(basis) + p``, formed per component on ``(N, N)`` planes,
    several times faster than broadcasting over the short last axis, and
    written straight into the retained nodes of the result."""
    x, y = basis.real.copy(), basis.imag.copy()

    def affine(p, d):
        # a huge p or d reads inf or nan here, which DiskMap refuses
        with np.errstate(over="ignore", invalid="ignore"):
            planes = d[:, None, None] * x + ComplexConvention.mul_i(d)[:, None, None] * y
            planes += p[:, None, None]
        out = np.zeros(grid.mask.shape + p.shape)
        for c, plane in enumerate(planes):
            np.copyto(out[..., c], plane, where=grid.mask)
        return out

    return affine


def _diverged(message: str, deltas: list) -> Diverged:
    """``Diverged`` with the last two windows of step deltas, the ones the
    no-contraction test compares, and the worst ratio of the run."""
    return Diverged(message, deltas=deltas[-2 * _DIVERGENCE_WINDOW:],
                    ratio=max(_ratios(deltas), default=None))


def picard_solve(J: StructureField, cfg: SolverConfig, h: DiskMap,
                 match=None, cap: float | None = None) -> DiskSolution:
    """Fixed-point iteration v <- T + C with C = P(q(v) dv/dz).

    Without ``match`` the target T is ``eps * h`` and v starts at it, where
    ``eps`` is ``cfg.epsilon``.  With ``match = (seed, observe, data)`` the
    target is re-chosen at every step as T = seed(data - observe(C)).
    ``seed`` maps data to target values and ``observe`` reads data from
    values, both as ``(N, N, 2n)`` arrays on h's grid.  ``observe`` is
    linear and ``observe(seed(y)) = y`` exactly, so every iterate has
    ``observe(v) = data`` to round-off, and a fixed point is the disk with
    that data; v starts at ``h``, normally the map of ``seed(data)``.

    The iterate, the density and the correction stay ``(N, N, 2n)`` arrays
    over the lattice: only h is validated, and a solve builds one
    ``DiskMap``, the one it returns.  An iterate that turns non-finite at a
    retained node raises ``InvalidParams``.

    The Beltrami rows of each step's density also give its iterate v's
    ``cr_residual`` res.  The iteration stops once the sup change delta of
    v falls below ``eps * cfg.tol_fixpoint``, or once the contraction
    ratio rho = delta / prev, prev the previous step's delta, is below 1
    and the a posteriori bound rho / (1 - rho) * delta of the new
    iterate's distance to the fixed point is at most ``_THETA * res``,
    with res capped at ``_RESIDUAL_CAP``: a disk no acceptance gate takes
    still comes within ``_THETA * _RESIDUAL_CAP`` = 1e-5 of its fixed
    point.  The second test is that bound multiplied through by
    prev - delta, delta**2 <= _THETA * min(res, cap) * (prev - delta),
    which for delta > 0 holds only when delta < prev: it divides nothing,
    and neither a zero previous delta nor rho >= 1 stops the solve.
    Raises ``Diverged``, carrying the last 2W step deltas and the worst
    contraction ratio, W = ``_DIVERGENCE_WINDOW`` (5), when the iteration
    budget is exhausted or the iteration has stopped contracting: from
    step 2W on, once the largest delta of the last W steps is at least
    the largest of the W before, which ends an iterate that blows up and
    one that wanders, capped or not.  ``Singular`` when the dilatation
    matrix fails along an iterate.

    With a ``cap``, a third test rejects a solve sure to miss it.  Each
    step keeps the residual rows R of its iterate, whose largest norm is
    res, and forms the largest row norm dR of their change from the
    previous iterate's rows while res is finite and above the cap.  With
    rho = dR / dR_prev < 1 the residual of every later iterate, had the
    row changes kept contracting at rho, is at least
    res - rho / (1 - rho) * dR; once that is above the cap the solve
    returns the iterate, before its Cauchy apply, with res as its
    ``residual`` (its ``cr_residual`` exactly) and the deltas so far.  The
    test is that bound multiplied through by dR_prev - dR,
    dR**2 < (res - cap) * (dR_prev - dR), which holds only when
    dR < dR_prev.  No ratio involves the rows of the starting iterate, so
    the first test is at iterate 3.  Without a cap, the two tests above
    alone stop the solve.
    """
    eps = cfg.epsilon
    grid = h.grid
    op = cg_build(grid)
    keep, inner = np.flatnonzero(grid.mask), np.flatnonzero(grid.interior)
    labels = grid.nodes(grid.interior)
    extend = grid.interior_extension()
    if match is None:
        v = fixed = eps * h.values
    else:
        seed, observe, data = match
        v = h.values
    kept = _rows(v, keep)                # v at the retained nodes
    deltas: list = []
    prev, win = 0.0, _DIVERGENCE_WINDOW
    # the residual rows of the last iterate past the seed whose residual is
    # finite, and the largest norm of their change from the iterate before
    # (None unless it was formed)
    last_rows, last_change = None, None
    for k in range(1, cfg.max_iter + 1):
        # derivatives are zero on the boundary ring, so the density is
        # formed at interior nodes and extended to the ring from them; the
        # same rows give v's cr_residual
        # the derivatives of a map too large to difference read inf or nan,
        # silently, and the non-finite check below refuses the step
        with np.errstate(over="ignore", invalid="ignore"):
            beltrami, rows, res = _defect(J, v, grid, inner, labels)
        if cap is not None:
            change = None
            if last_rows is not None and cap < res < math.inf:
                change = _sup_norm(rows - last_rows)
                # res - rho / (1 - rho) * change > cap, rho = change / last_change < 1
                if (last_change is not None
                        and change * change < (res - cap) * (last_change - change)):
                    return DiskSolution(DiskMap(grid, v), res, deltas)
            last_rows = rows if k > 1 and res < math.inf else None
            last_change = change
        density = extend @ beltrami
        correction = cg_apply(op, density.reshape(v.shape))
        target = fixed if match is None else seed(data - observe(correction))
        new = target + correction
        new_kept = _rows(new, keep)
        delta = float(np.max(np.abs(new_kept - kept)))
        if not np.isfinite(delta):      # kept is finite, so new_kept is not
            raise InvalidParams("map has non-finite values at retained nodes")
        deltas.append(delta)
        v, kept = new, new_kept
        if (delta < eps * cfg.tol_fixpoint
                or delta * delta <= _THETA * min(res, _RESIDUAL_CAP) * (prev - delta)):
            sol = DiskMap(grid, v)
            return DiskSolution(sol, cr_residual(J, sol), deltas)
        prev = delta
        if k >= 2 * win and max(deltas[-win:]) >= max(deltas[-2 * win:-win]):
            raise _diverged(f"no contraction over {2 * win} steps", deltas)
    raise _diverged(f"no contraction after {cfg.max_iter} iterations "
                    f"(last delta {deltas[-1]:.3e})", deltas)


def _point(J: StructureField, name: str, x) -> np.ndarray:
    """``x`` as a float vector; ``InvalidParams`` unless it has the real
    dimension 2n of ``J``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (J.convention.dim,):
        raise InvalidParams(f"{name} must have {J.convention.dim} coordinates, "
                            f"got shape {x.shape}")
    return x


def check_node(t: float, grid: DiskGrid) -> None:
    """Raise ``InvalidParams`` unless ``two_point_disk`` can match a point
    at z = t on ``grid``: 2e-9 h <= t < r - h (1 + 2e-9), r and h the grid's
    radius and step.  Matched solves take the unit disk alone (``cg_build``),
    so there a node lies in 2e-9 h <= t < 1 - h."""
    # sampling snaps t onto a node from within 1e-9 h plus the round-off of
    # (t + r) / h, so t stays 2e-9 h clear of the origin, where v(t) would
    # read v(0), and of r - h, whose bilinear cell has a corner off the disk
    if not t >= 2e-9 * grid.h:
        raise InvalidParams(f"t must be at least 2e-9 h = {2e-9 * grid.h:.4g}, got {t}")
    if t >= grid.r - grid.h * (1.0 + 2e-9):
        raise InvalidParams(
            f"t={t} is not below the interpolation limit {grid.r - grid.h:.4g} of the grid")


def two_point_disk(J: StructureField, p0, q0, t: float, cfg: SolverConfig,
                   grid: DiskGrid, cap: float | None = None) -> DiskSolution:
    """Holomorphic disk through p0 at z = 0 and q0 at z = t.

    Both points are matched to round-off: v(0) exactly, v(t) through the
    bilinear interpolation of ``eval_interp``.  A failed solve raises the
    ``Diverged`` or ``Singular`` of ``picard_solve``.  Given a residual
    ``cap``, the solve returns early, with an iterate whose residual is
    above the cap, once ``picard_solve``'s third test shows its disk will
    miss it.
    """
    p0, q0 = _point(J, "p0", p0), _point(J, "q0", q0)
    check_node(t, grid)
    dim, data = p0.size, np.concatenate([p0, q0])
    # affine_target's basis z / t, formed once; only p and q - p change
    affine, center = _affine_values(grid, grid.Z / t), grid.center_index

    def seed(y):
        return affine(y[:dim], y[dim:] - y[:dim])

    # eval_interp's bilinear cell at t, located once; its four rows are
    # summed in the order of DiskMap.sample, so reads are the same to the bit
    corners, weights, _, _ = _bilinear_cells(grid, np.array([complex(t)]))
    (c0, c1, c2, c3), (w0, w1, w2, w3) = corners[:, 0], weights[:, 0]

    def observe(v):
        rows = v.reshape(-1, v.shape[-1])
        at_t = w0 * rows[c0] + w1 * rows[c1] + w2 * rows[c2] + w3 * rows[c3]
        return np.concatenate([v[center], at_t])

    return picard_solve(J, cfg, DiskMap(grid, seed(data)), match=(seed, observe, data),
                        cap=cap)


def derivative_disk(J: StructureField, p, w, cfg: SolverConfig,
                    grid: DiskGrid, cap: float | None = None) -> DiskSolution:
    """Holomorphic disk with v(0) = p and dv/dz(0) = w (complex derivative,
    real representation), both matched to round-off, dv/dz(0) through the
    centred differences of ``d_dz``, read at the origin alone.  Fails, and
    stops early at a residual ``cap``, like ``two_point_disk``."""
    p, w = _point(J, "p", p), _point(J, "w", w)
    dim, data = p.size, np.concatenate([p, w])
    affine, center = _affine_values(grid, grid.Z), grid.center_index

    def seed(y):
        return affine(y[:dim], y[dim:])

    def observe(v):
        # d_dz(v) at the origin: its two centred differences there alone
        dx, dy = grid.dx_at_center(v), grid.dx_at_center(v, axis=1)
        return np.concatenate([v[center], _combine(dx, dy, bar=False)])

    return picard_solve(J, cfg, DiskMap(grid, seed(data)), match=(seed, observe, data),
                        cap=cap)
