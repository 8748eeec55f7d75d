"""Discrete maps from a disk of radius r into R^{2n}.

A ``DiskGrid`` is the Cartesian lattice over [-r, r]^2 with an odd node
count per axis (so the origin is a node), restricted to the closed disk
|z| <= r.  Derivatives are centred differences at the interior mask
|z| <= r - 2h, all read from one matrix of x and y rows there.  The
boundary ring between the two masks gets its values in one way only:
``interior_extension`` extrapolates them linearly from interior nodes.
Every sup-type diagnostic is taken over the interior mask.  Grids have at
least 9 nodes per axis, the fewest for which the origin is interior and
every ring node has an interior source.

The lattice operators depend on N alone up to a power of r (differences
scale like 1/r, the ring extension not at all), so one module cache keeps
the unit-radius operators of a few recent N for grids of every radius.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (InvalidGrid, InvalidParams, OutsideDisk,
                     OutsideInterpolationRange)

_MASK_SLACK = 1e-12
_UNIT_SETS_KEPT = 4      # node counts whose unit-radius operators stay cached
_unit_sets: OrderedDict = OrderedDict()


class DiskGrid:
    """Lattice discretization of the closed disk of radius r; the masks are
    the same for every r at one N.  It keeps no operators of its own."""

    def __init__(self, r: float, N: int):
        self.r = float(r)
        self.N = int(N)
        self.h = 2.0 * self.r / (self.N - 1)
        self.xs = np.linspace(-self.r, self.r, self.N)
        X, Y = np.meshgrid(self.xs, self.xs, indexing="ij")
        self.X, self.Y = X, Y
        self.Z = X + 1j * Y
        self.R2 = X * X + Y * Y
        rr = self.r * self.r
        self.mask = self.R2 <= rr * (1.0 + _MASK_SLACK)
        rin = self.r - 2.0 * self.h
        self.interior = self.mask & (self.R2 <= rin * rin * (1.0 + _MASK_SLACK))
        self._center = (self.N - 1) // 2

    @property
    def node_count(self) -> int:
        return int(self.mask.sum())

    @property
    def center_index(self) -> tuple:
        return (self._center, self._center)

    def nodes(self, sel: np.ndarray) -> np.ndarray:
        """Coordinates (m, 2) of the nodes that the mask ``sel`` (such as
        ``mask`` or ``interior``) selects, in row-major order."""
        return np.stack([self.X[sel], self.Y[sel]], axis=-1)

    def same_geometry(self, other) -> bool:
        """Same N and r as ``other``, a grid or a Cauchy operator."""
        return self.N == other.N and abs(self.r - other.r) <= 1e-12 * max(self.r, other.r)

    def scaled(self, factor: float) -> "DiskGrid":
        """Grid with all coordinates multiplied by ``factor``; the retention
        masks are equal, so node sets correspond one to one."""
        return make_grid(self.r * factor, self.N)

    def unit_operator(self, name: str, build):
        """The operator ``name`` of the unit-radius grid with this N, made by
        ``build(unit_grid)`` on first use and shared by every grid of that N;
        the cache holds no grid, and callers scale results to their r.  An N
        keeps one entry per operator: ``"diff"``, ``"ring_interior"``, ``"cg"``."""
        ops = _unit_sets.pop(self.N, None) or {}
        _unit_sets[self.N] = ops
        while len(_unit_sets) > _UNIT_SETS_KEPT:
            _unit_sets.popitem(last=False)
        if name not in ops:
            ops[name] = build(self if self.r == 1.0 else DiskGrid(1.0, self.N))
        return ops[name]

    def _difference_matrix(self) -> sp.csr_matrix:
        """Centred x differences at the m interior nodes in row-major order,
        then y differences, two entries a row, on ``(N*N, c)`` arrays."""
        N, h = self.N, self.h
        node = np.flatnonzero(self.interior)
        row = np.arange(2 * node.size)
        cols = np.concatenate([node + N, node + 1, node - N, node - 1])
        vals = np.repeat([0.5 / h, -0.5 / h], row.size)
        return sp.coo_matrix((vals, (np.tile(row, 2), cols)), shape=(row.size, N * N)).tocsr()

    def _ring_matrix(self) -> sp.csr_matrix:
        N, inner = self.N, self.interior
        c2 = N - 1   # twice the centre index
        jj, kk = np.nonzero(self.mask & ~inner)
        # axis and sign from the indices, so every radius picks alike
        along_j = np.abs(2 * jj - c2) >= np.abs(2 * kk - c2)
        dj = np.where(along_j, np.where(2 * jj > c2, -1, 1), 0)
        dk = np.where(along_j, 0, np.where(2 * kk > c2, -1, 1))
        # walk inward to the first interior node; for N >= 9 there is one
        dist = np.ones_like(jj)
        walking = ~inner[jj + dj, kk + dk]
        while walking.any():
            dist += walking
            walking &= ~inner[jj + dist * dj, kk + dist * dk]
        ja, ka = jj + dist * dj, kk + dist * dk
        # the linear extrapolation from two interior nodes, or the nearest
        # node's value when the next one inward is not interior
        two = inner[ja + dj, ka + dk]
        interior_rows = np.flatnonzero(inner)
        rows = np.concatenate([interior_rows, jj * N + kk, (jj * N + kk)[two]])
        cols = np.concatenate([interior_rows, ja * N + ka, ((ja + dj) * N + ka + dk)[two]])
        vals = np.concatenate([np.ones(interior_rows.size), np.where(two, 1.0 + dist, 1.0),
                               -dist[two].astype(float)])
        return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()

    def interior_extension(self) -> sp.csr_matrix:
        """Operator taking a field's rows at the interior nodes (row-major) to
        the lattice, where each ring node gets their linear extrapolation
        inward along the dominant lattice axis; solvers fill their densities
        on the ring through it.  It does not depend on r."""
        return self.unit_operator("ring_interior", lambda unit: unit._ring_matrix()[
            :, np.flatnonzero(unit.interior)])

    def difference_matrix(self) -> sp.csr_matrix:
        """``_difference_matrix`` of the unit-radius grid, shared by every
        grid of this N; a grid's differences are its products divided by r."""
        return self.unit_operator("diff", lambda unit: unit._difference_matrix())

    def differences(self, values: np.ndarray) -> np.ndarray:
        """The x and y differences of ``(N, N, c)`` values at the interior
        nodes, as ``(2, m, c)`` rows: one product with ``difference_matrix``."""
        rows = self.difference_matrix() @ values.reshape(self.N * self.N, -1)
        if self.r != 1.0:       # dividing by r = 1 is exact, so it is skipped
            rows /= self.r
        return rows.reshape(2, -1, rows.shape[-1])

    def dx_at_center(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """The x row of ``differences(values)`` (y for axis 1) at the origin
        alone: the centred difference there without building the operator,
        in the same arithmetic (unit-radius weights, then division by r)."""
        j, k = self.center_index
        dj, dk = (1, 0) if axis == 0 else (0, 1)
        w = 0.5 / (2.0 / (self.N - 1))
        out = (-w) * values[j - dj, k - dk] + w * values[j + dj, k + dk]
        return out if self.r == 1.0 else out / self.r

    def __repr__(self):
        return f"DiskGrid(r={self.r}, N={self.N}, nodes={self.node_count})"


def make_grid(r: float, N: int) -> DiskGrid:
    """Build the disk lattice; N must be odd and at least 9 (below that the
    origin or some ring node has no interior source), and r positive with
    r * r a finite normal float (the masks compare squared radii)."""
    if not (isinstance(N, (int, np.integer)) and N % 2 == 1 and N >= 9):
        raise InvalidGrid(f"node count per axis must be an odd integer >= 9, got {N!r}")
    if not (np.isfinite(r) and r > 0 and np.finfo(float).tiny <= r * r < np.inf):
        raise InvalidGrid(f"radius must be positive with a finite normal square, got {r!r}")
    return DiskGrid(float(r), int(N))


# Catmull-Rom weights; third-order accurate, used only by internal
# resampling (public interpolation stays bilinear).
def _cr_weights(s: np.ndarray) -> np.ndarray:
    s2 = s * s
    s3 = s2 * s
    return np.stack([
        -0.5 * s3 + s2 - 0.5 * s,
        1.5 * s3 - 2.5 * s2 + 1.0,
        -1.5 * s3 + 2.0 * s2 + 0.5 * s,
        0.5 * s3 - 0.5 * s2,
    ])


def _axis_cells(g: DiskGrid, x: np.ndarray):
    """Cell index j and offset s in [0, 1] of coordinates ``x`` along one
    lattice axis of ``g``, snapped to exact node coordinates so stored
    values are returned verbatim.  Coordinates beyond the lattice clamp to
    its end cells; every range check rejects such points."""
    f = np.clip((x + g.r) / g.h, 0.0, g.N - 1.0)
    rf = np.rint(f)
    f = np.where(np.abs(f - rf) < 1e-9, rf, f)
    j = np.clip(np.floor(f).astype(int), 0, g.N - 2)
    return j, f - j


def _bilinear_cells(g: DiskGrid, pts: np.ndarray):
    """The bilinear cell of each complex point of ``pts`` on ``g``, as
    ``(corners, weights, s, t)``: the flat node indices of its four corners
    and their weights, both (4, m) in the order that ``DiskMap.sample`` sums
    them, and the offsets s, t in [0, 1] along each axis.  Raises
    ``OutsideInterpolationRange`` for a point beyond |z| <= r - h or whose
    cell has a corner off the disk."""
    radius = np.abs(pts)
    limit = g.r - g.h
    if (radius > limit * (1.0 + 1e-12)).any():
        z = pts[np.argmax(radius)]
        raise OutsideInterpolationRange(
            f"point {z} at |z|={abs(z):.6g} beyond interpolation limit {limit:.6g}")
    j, s = _axis_cells(g, pts.real)
    k, t = _axis_cells(g, pts.imag)
    N = g.N
    corners = (j * N + k) + np.array([0, N, 1, N + 1])[:, None]
    inside = g.mask.ravel().take(corners).all(axis=0)
    if not inside.all():
        raise OutsideInterpolationRange(
            f"cell around point {pts[np.argmin(inside)]} extends beyond the disk")
    weights = np.stack([(1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t])
    return corners, weights, s, t


@dataclass
class DiskMap:
    """Grid samples of a map disk -> R^{2n}; values are zero off the disk."""

    grid: DiskGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape[:2] != (self.grid.N, self.grid.N) or vals.ndim != 3:
            raise InvalidParams(f"values must have shape (N, N, 2n), got {vals.shape}")
        if vals.shape[2] % 2 or vals.shape[2] < 2:
            raise InvalidParams("last axis must have even length 2n")
        self.values = np.where(self.grid.mask[..., None], vals, 0.0)
        if not np.isfinite(self.values).all():
            raise InvalidParams("map has non-finite values at retained nodes")

    def component_complex(self, m: int) -> np.ndarray:
        return self.values[..., 2 * m] + 1j * self.values[..., 2 * m + 1]

    def value_at_center(self) -> np.ndarray:
        c = self.grid.center_index
        return self.values[c[0], c[1], :].copy()

    def sample(self, points, method: str = "bilinear") -> np.ndarray:
        """Interpolate at complex points; returns (m, 2n).

        ``bilinear`` needs the full surrounding cell; ``cubic`` uses a 4x4
        Catmull-Rom stencil and silently falls back to bilinear where that
        stencil leaves the disk.
        """
        pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
        corners, weights, s, t = _bilinear_cells(self.grid, pts)
        N = self.grid.N
        # component-major values, so gathers and products run along the points
        comps = np.ascontiguousarray(self.values.reshape(N * N, -1).T)

        def bilinear(sel):
            w, c = weights[:, sel], corners[:, sel]
            out = w[0] * comps.take(c[0], axis=1)
            for i in (1, 2, 3):
                out += w[i] * comps.take(c[i], axis=1)
            return out

        if method == "bilinear":
            return bilinear(slice(None)).T
        if method != "cubic":
            raise InvalidParams(f"unknown interpolation method {method!r}")

        # a cell inside the disk is at least one node from the lattice edge,
        # and the disk is convex, so the stencil j-1..j+2, k-1..k+2 lies in
        # the disk when its four corner nodes do
        node = corners[0]
        ok = self.grid.mask.ravel().take(
            node + np.array([-N - 1, -N + 2, 2 * N - 1, 2 * N + 2])[:, None]).all(axis=0)
        out = np.empty((comps.shape[0], node.size))
        out[:, ~ok] = bilinear(~ok)
        if ok.any():
            nodes = node[ok]
            wx = _cr_weights(s[ok])
            wy = _cr_weights(t[ok])
            acc = np.zeros((comps.shape[0], nodes.size))
            for a in range(4):
                for b in range(4):
                    acc += (wx[a] * wy[b]) * comps.take(nodes + ((a - 1) * N + b - 1), axis=1)
            out[:, ok] = acc
        return out.T


def eval_interp(u: DiskMap, z) -> np.ndarray:
    """Bilinear interpolation at a single point of the disk; exact at nodes
    and for affine maps.  Requires |z| <= r - h with the surrounding cell
    fully inside the disk."""
    out = u.sample(np.atleast_1d(np.asarray(z, dtype=np.complex128)), method="bilinear")
    return out[0]


def resample(source: DiskMap, grid: DiskGrid, transform=None) -> DiskMap:
    """Cubic samples of ``source`` (optionally precomposed with
    ``transform``) at the retained nodes of ``grid``; off-disk lattice
    corners are never touched.

    Without ``transform`` (a window restriction, or a pure scaling onto
    ``grid.scaled(t)``) the map is lattice to lattice and separable:
    ``W V W^T`` per component, W holding the Catmull-Rom weights and node
    snap of ``DiskMap.sample``, equal to its per-point gather to round-off.
    Nodes whose 4x4 stencil leaves the source disk go through ``sample``
    itself (bilinear fallback or ``OutsideInterpolationRange``).  Only a
    ``transform`` (Mobius recentering) gathers every node.
    """
    if transform is not None:
        vals = np.zeros((grid.N, grid.N, source.values.shape[-1]))
        vals[grid.mask] = source.sample(transform(grid.Z[grid.mask]), method="cubic")
        return DiskMap(grid, vals)
    g, N = source.grid, source.grid.N
    j, s = _axis_cells(g, grid.xs)
    # padded columns -1..N of the source axis; rows whose stencil needs
    # them are fallback nodes, so they are cut off below
    W = np.zeros((grid.N, N + 2))
    W[np.arange(grid.N)[:, None], j[:, None] + np.arange(4)] = _cr_weights(s).T
    W = W[:, 1:-1]
    vals = (W @ source.values.transpose(2, 0, 1) @ W.T).transpose(1, 2, 0)
    # the source mask is a convex disk cut to lattice nodes, so a stencil
    # lies inside it when its four corner nodes do
    lo, hi = j - 1, j + 2
    axis_ok = (lo >= 0) & (hi < N)
    ok = grid.mask & axis_ok[:, None] & axis_ok[None, :]
    lo, hi = np.clip(lo, 0, N - 1), np.clip(hi, 0, N - 1)
    for a in (lo, hi):
        rows = g.mask.take(a, axis=0)
        for b in (lo, hi):
            ok &= rows.take(b, axis=1)
    rest = grid.mask & ~ok
    if rest.any():
        vals[rest] = source.sample(grid.Z[rest], method="cubic")
    return DiskMap(grid, vals)


def _combine(ux: np.ndarray, uy: np.ndarray, bar: bool, out=None) -> np.ndarray:
    """(ux + i uy) / 2 per complex component if ``bar``, else (ux - i uy) / 2,
    formed into one output, ``out`` if given (it may be ``ux``), without a
    product by i (a - (-b) is a + b)."""
    out = np.empty_like(ux) if out is None else out
    real, imag = (np.subtract, np.add) if bar else (np.add, np.subtract)
    real(ux[..., 0::2], uy[..., 1::2], out=out[..., 0::2])
    imag(ux[..., 1::2], uy[..., 0::2], out=out[..., 1::2])
    out *= 0.5
    return out


def _on_lattice(u: DiskMap, rows: np.ndarray) -> DiskMap:
    out = np.zeros_like(u.values)
    out[u.grid.interior] = rows
    return DiskMap(u.grid, out)


def d_dz(u: DiskMap) -> DiskMap:
    """Wirtinger derivative (d/dx - i d/dy)/2, per complex component: the
    ``interior_wirtinger`` rows at the interior nodes, 0 on the boundary
    ring and off the disk."""
    return _on_lattice(u, interior_wirtinger(u.values, u.grid)[0])


def d_dzbar(u: DiskMap) -> DiskMap:
    """Conjugate Wirtinger derivative (d/dx + i d/dy)/2; zero where
    ``d_dz`` is."""
    return _on_lattice(u, interior_wirtinger(u.values, u.grid)[1])


def interior_wirtinger(values: np.ndarray, grid: DiskGrid):
    """``(d_dz, d_dzbar)`` of the ``(N, N, 2n)`` values of a map on ``grid``
    as ``(m, 2n)`` rows at the interior nodes, their values there to the
    bit, both from one difference product."""
    ux, uy = grid.differences(values)
    dzbar = _combine(ux, uy, bar=True)
    return _combine(ux, uy, bar=False, out=ux), dzbar


def poincare_distance(a, b, r: float = 1.0) -> float:
    """Hyperbolic distance on the disk of radius r:
    arctanh(|r (a - b)| / |r^2 - conj(a) b|)."""
    a = complex(a)
    b = complex(b)
    if abs(a) >= r or abs(b) >= r:
        raise OutsideDisk(f"points must lie strictly inside the disk of radius {r}")
    num = r * abs(a - b)
    den = abs(r * r - np.conj(a) * b)
    return float(np.arctanh(num / den))


@dataclass
class MobiusAutomorphism:
    """Conformal self-map of the disk of radius r swapping 0 and z0."""

    z0: complex
    r: float

    def __post_init__(self):
        self.z0 = complex(self.z0)
        if abs(self.z0) >= self.r:
            raise OutsideDisk(f"|z0|={abs(self.z0):.6g} must be < r={self.r}")

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        rr = self.r * self.r
        return rr * (self.z0 - z) / (rr - np.conj(self.z0) * z)


def mobius_swap(z0, r: float = 1.0) -> MobiusAutomorphism:
    """The involutive disk automorphism with L(0) = z0 and L(z0) = 0."""
    return MobiusAutomorphism(complex(z0), float(r))


def node_max(vals: np.ndarray, grid: DiskGrid, sel: np.ndarray):
    """Largest of ``vals``, given at the nodes that the mask ``sel`` selects,
    and the node attaining it, as ``(s, zstar)``; ``(0.0, 0j)`` when ``sel``
    is empty.  Ties are broken by the smallest |z|, then lexicographic
    (x, y) order, so downstream recentering is deterministic."""
    if vals.size == 0:
        return 0.0, 0j
    tied = np.flatnonzero(vals == vals.max())
    nodes = np.flatnonzero(sel)[tied]
    X, Y = grid.X.ravel()[nodes], grid.Y.ravel()[nodes]
    k = np.lexsort((Y, X, grid.R2.ravel()[nodes]))[0]
    return float(vals[tied[k]]), complex(X[k], Y[k])


def to_csv(u: DiskMap, fh) -> None:
    """Write the retained nodes to the open text file ``fh`` as CSV rows:
    a header ``x,y,v0,...``, then each node's coordinates and values."""
    g = u.grid
    data = np.concatenate([g.nodes(g.mask), u.values[g.mask]], axis=-1)
    header = "x,y," + ",".join(f"v{i}" for i in range(u.values.shape[2]))
    np.savetxt(fh, data, delimiter=",", header=header, comments="")
