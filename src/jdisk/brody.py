"""Derivative-normalizing reparametrization and line extraction.

Given a disk map f with a large derivative at the origin, the pipeline
(i) rescales the domain so the origin derivative is 1, (ii) reparametrizes
so the hyperbolically weighted derivative sup is attained at the origin
with a prescribed value c, and (iii) restricts successive normalized maps
to a fixed comparison window, declaring convergence through a Cauchy
criterion on their sup distance.  A converged limit with unit derivative
and small holomorphy residual is the numerical witness of a nontrivial
entire line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .diskgrid import DiskGrid, DiskMap, make_grid, mobius_swap, node_max, resample
from .errors import (HypothesisViolated, InvalidParams,
                     OutsideInterpolationRange, ZeroDerivative)
from .solver import SolverConfig, cr_residual, derivative_disk
from .structure import StructureField

# A scaling root this close to 1 is round-off of the root t0 = 1.
_UNIT_ROOT_SNAP = 2e-6
_STREAK = 3   # extract_line converges after this many window deltas below tol in a row


def _safe_radius(r: float, h: float, t0: float, a: float) -> float:
    """Largest working radius rho <= r - 2h so that the rescaled and
    recentered evaluation points t0 * L(Delta_rho) have their full bilinear
    cell inside the disk (|.| <= r - 1.5h covers the cell diagonal); a is
    the modulus of the recentering point."""
    limit = r - 1.5 * h
    base = r - 2.0 * h
    if t0 * r <= limit and a == 0.0:
        return base
    b_hat = limit / (t0 * r)
    a_hat = a / r
    if b_hat >= 1.0:
        cap = r
    elif b_hat <= a_hat:
        raise OutsideInterpolationRange(
            f"recentering point |z0|={a:.4g} too close to the rim for t0={t0:.4g}")
    else:
        cap = r * (b_hat - a_hat) / (1.0 - a_hat * b_hat)
    rho = min(base, 0.999 * cap)
    if rho < 4.0 * h:
        raise OutsideInterpolationRange(
            f"working radius {rho:.4g} collapses below the stencil scale")
    return rho


def _derivative_norms(f: DiskMap) -> np.ndarray:
    """|df/dx| at the interior nodes, 0 elsewhere, as an (N, N) array: the
    x rows of the grid's difference matrix alone, since no y row is read."""
    g = f.grid
    D = g.difference_matrix()
    m = D.shape[0] // 2
    dx = sp.csr_matrix((D.data, D.indices, D.indptr[:m + 1]), shape=(m, D.shape[1]))
    rows = dx @ f.values.reshape(D.shape[1], -1)
    if g.r != 1.0:
        rows /= g.r
    norms = np.zeros((g.N, g.N))
    norms[g.interior] = np.sqrt((rows * rows).sum(axis=-1))
    return norms


def _derivative_at_origin(f: DiskMap) -> float:
    return float(np.linalg.norm(f.grid.dx_at_center(f.values)))


def scaling_sup(f: DiskMap, t: float) -> float:
    """Weighted derivative sup s(t) of the shrunken map z -> f(t z).

    Computed by the change of variables w = t z on the source nodes, so no
    resampling enters: s(t) = max over nodes |w| < t r of
    t |f'(w)| (r^2 - |w|^2 / t^2) / r^2.  By convention s(0) = 0.  This is
    the reference definition; ``brody_reparametrize`` does not call it but
    finds the root of s(t) = c in closed form.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParams(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    s, _ = _scaling_max(f.grid, _derivative_norms(f), t)
    return s


def _scaling_max(g: DiskGrid, norms: np.ndarray, t: float):
    """s(t) and its attaining source node w, from the derivative norms."""
    r = g.r
    sel = g.interior & (g.R2 < (t * r) ** 2)
    weight = (r * r - g.R2[sel] / (t * t)) / (r * r)
    return node_max(t * norms[sel] * weight, g, sel)


def sup_poincare_derivative(f: DiskMap):
    """Maximum over interior nodes of |df/dx(z)| (r^2 - |z|^2) / r^2, r the
    grid's radius, as ``(s, zstar)`` with the attaining node, ties broken as
    in ``node_max``.  This is s(1): interior nodes lie inside |z| < r, and
    at t = 1 the scaling terms reduce to these exactly."""
    return _scaling_max(f.grid, _derivative_norms(f), 1.0)


@dataclass
class ReparamResult:
    f_tilde: DiskMap
    t0: float
    z0: complex | None
    s_at_0: float
    s_sup: float
    c: float

    @property
    def within_tolerance(self) -> bool:
        """Both equalities hold to max(1e-3, h / 2r) of ``f_tilde.grid``."""
        g = self.f_tilde.grid
        tol = max(1e-3, 0.5 * g.h / g.r)
        return abs(self.s_sup - self.s_at_0) <= tol and abs(self.s_at_0 - self.c) <= tol


def brody_reparametrize(f: DiskMap, c: float) -> ReparamResult:
    """Produce f~ with weighted derivative sup attained at 0 with value c.

    Requires |f'(0)| >= c.  The scaling parameter t0 is the smallest root
    of s(t) = c, capped at 1; when t0 < 1 the sup location is swapped to
    the origin by a disk automorphism and the composition is resampled on a
    slightly smaller disk (boundary cells cannot be interpolated), whose
    radius ``f_tilde.grid.r`` records the shrink.

    The root is exact: node w_i with n_i = |f'(w_i)| contributes
    n_i (t - |w_i|^2 / (t r^2)) once |w_i| < t r, which rises from 0 in t,
    so s(t) is nondecreasing and its smallest root of s(t) = c is
    t0 = min_i (c + sqrt(c^2 + 4 n_i^2 |w_i|^2 / r^2)) / (2 n_i).
    """
    if c <= 0:
        raise InvalidParams("target derivative level c must be positive")
    g = f.grid
    norms = _derivative_norms(f)
    c0 = float(norms[g.center_index])
    if c0 < c - 1e-9:
        raise HypothesisViolated(f"|f'(0)|={c0:.6g} is below the requested level c={c}")

    live = g.interior & (norms > 0)
    n, rho2 = norms[live], g.R2[live] / (g.r * g.r)
    t0 = float(((c + np.sqrt(c * c + 4.0 * n * n * rho2)) / (2.0 * n)).min(initial=1.0))
    if t0 >= 1.0 - _UNIT_ROOT_SNAP:
        t0 = 1.0
    s_t0, wstar = _scaling_max(g, norms, t0)
    if t0 == 1.0 and wstar == 0j:
        # interior nodes lie inside |w| < r, so s(1) is the weighted sup
        return ReparamResult(f, 1.0, None, c0, s_t0, c)
    zstar = wstar / t0

    swap = None if abs(zstar) < 1e-12 else mobius_swap(zstar, g.r)
    rho = _safe_radius(g.r, g.h, t0, abs(zstar) if swap is not None else 0.0)
    fresh = make_grid(rho, g.N)
    if swap is None:
        # the scaled lattice has the same mask, so this is lattice to lattice
        f_tilde = resample(f, fresh.scaled(t0)).with_grid(fresh)
    else:
        f_tilde = resample(f, fresh, transform=lambda z: t0 * swap(z))
    s_at_0 = _derivative_at_origin(f_tilde)
    s_sup, _ = sup_poincare_derivative(f_tilde)
    z0 = None if swap is None else zstar
    return ReparamResult(f_tilde, t0, z0, s_at_0, s_sup, c)


def rescale_step(f: DiskMap):
    """Zoom the domain so the origin derivative becomes 1.

    Returns ``(g, r_n)`` where r_n = |f'(0)| and g(z) = f(z / r_n) on the
    scaled grid of radius r_n.  The scaled lattice maps node-to-node onto
    the source lattice, so g shares f's samples and |g'(0)| = 1 to machine
    precision.
    """
    r_n = _derivative_at_origin(f)
    if r_n <= 0.0:
        raise ZeroDerivative("map has zero derivative at the origin")
    return f.with_grid(f.grid.scaled(r_n)), r_n


@dataclass
class RescaleRecord:
    n: int
    r_n: float
    sup_derivative: float
    recentered: bool
    t0: float
    delta: float | None


@dataclass
class LineCandidate:
    samples: DiskMap
    derivative_at_0: float
    cr_residual: float
    converged: bool


@dataclass
class RescalingReport:
    steps: list
    final: LineCandidate | None
    message: str = ""

    @property
    def deltas(self) -> list:
        return [s.delta for s in self.steps]

    @property
    def converged(self) -> bool:
        return self.final is not None and self.final.converged


def extract_line(J: StructureField, disk_family, R: float, tol: float = 1e-8,
                 n_max: int = 12) -> RescalingReport:
    """Run the rescaling pipeline over a family of disks with growing
    origin derivative and compare the normalized maps on the window of
    radius R.

    Convergence is declared after ``_STREAK`` (3) successive sup distances
    below ``tol`` on the window (a Cauchy criterion standing in for
    compactness; the delta trace is reported either way).  Steps whose
    normalized map does not yet cover the window are recorded without a
    delta.  Exhausting the family yields a report with
    ``converged = False`` rather than an exception.  ``tol`` must be
    positive and finite, and ``n_max`` at least 1.
    """
    if R <= 0:
        raise InvalidParams("window radius must be positive")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidParams(f"tol must be positive and finite, got {tol}")
    if n_max < 1:
        raise InvalidParams(f"n_max must be at least 1, got {n_max}")
    steps: list = []
    window = None
    prev_restrict = None
    last_restrict = None
    streak = 0
    for n, f in enumerate(disk_family, start=1):
        g_map, r_n = rescale_step(f)
        rep = brody_reparametrize(g_map, 1.0)
        gt = rep.f_tilde
        if window is None:
            window = make_grid(R, gt.grid.N)
        delta = None
        cover = gt.grid.r - 3 * gt.grid.h
        if cover >= R:
            restricted = resample(gt, window)
            if prev_restrict is not None:
                # both maps are zero off the window's mask.  On a torus the
                # differences wrap by whole periods, d - rint(d); none moves
                # while all |d| <= 1/2, and rint is odd, so |d| wraps alike
                diff = restricted.values - prev_restrict.values
                delta = float(np.abs(diff, out=diff).max())
                if J.domain.is_torus and delta > 0.5:
                    diff -= np.rint(diff)
                    delta = float(np.abs(diff, out=diff).max())
                streak = streak + 1 if delta < tol else 0
            prev_restrict = restricted
            last_restrict = restricted
        else:
            prev_restrict = None
            streak = 0
        steps.append(RescaleRecord(n, r_n, rep.s_sup, rep.z0 is not None, rep.t0, delta))
        if streak >= _STREAK or n >= n_max:
            break

    if last_restrict is None:
        return RescalingReport(steps, None, f"window never covered after {len(steps)} steps")
    converged = streak >= _STREAK
    final = LineCandidate(
        samples=last_restrict,
        derivative_at_0=_derivative_at_origin(last_restrict),
        cr_residual=cr_residual(J, last_restrict),
        converged=converged,
    )
    msg = "" if converged else f"no convergence after {len(steps)} steps"
    return RescalingReport(steps, final, msg)


def dilation_family(grid: DiskGrid, n: int = 1, base: float = 4.0,
                    factor: float = 2.0, count: int = 12):
    """Disks z -> lambda z with geometrically growing lambda, first complex
    component only."""
    unit = np.zeros((grid.N, grid.N, 2 * n))
    unit[..., 0], unit[..., 1] = grid.X, grid.Y
    lam = base
    for _ in range(count):
        yield DiskMap(grid, lam * unit)
        lam *= factor


def derivative_ladder_family(J: StructureField, p, nu, lambdas,
                             cfg: SolverConfig, grid: DiskGrid):
    """Solved disks through p with derivative lambda * nu for each lambda."""
    p = np.asarray(p, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    for lam in lambdas:
        yield derivative_disk(J, p, lam * nu, cfg, grid).v
