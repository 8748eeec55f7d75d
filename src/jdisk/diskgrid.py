"""Discrete maps from a disk of radius r into R^{2n}.

A ``DiskGrid`` is the Cartesian lattice over [-r, r]^2 with an odd node
count per axis (so the origin is a node), restricted to the closed disk
|z| <= r.  Derivatives are centred differences on the interior mask
|z| <= r - 2h and read zero elsewhere.  The boundary ring between the two
masks gets its values in one way only: ``ring_extension`` extrapolates them
linearly from interior nodes.  Every sup-type diagnostic is taken over the
interior mask.  Grids have at least 9 nodes per axis, the fewest for which
the origin is interior and every ring node has an interior source.

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
from .structure import ComplexConvention

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
        the cache holds no grid, and callers scale results to their r."""
        ops = _unit_sets.pop(self.N, None) or {}
        _unit_sets[self.N] = ops
        while len(_unit_sets) > _UNIT_SETS_KEPT:
            _unit_sets.popitem(last=False)
        if name not in ops:
            ops[name] = build(self if self.r == 1.0 else DiskGrid(1.0, self.N))
        return ops[name]

    # Difference operators act on flattened (N*N, c) arrays; they take
    # centred differences at interior nodes, and every other row is empty.
    def _diff_matrix(self, axis: int) -> sp.csr_matrix:
        N, h = self.N, self.h
        node = np.flatnonzero(self.interior)
        step = N if axis == 0 else 1
        rows = np.concatenate([node, node])
        cols = np.concatenate([node + step, node - step])
        vals = np.repeat([0.5 / h, -0.5 / h], node.size)
        return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()

    def _ring_matrix(self) -> sp.csr_matrix:
        N = self.N
        c2 = N - 1   # twice the centre index
        idx = np.arange(N * N).reshape(N, N)
        rows, cols, vals = [], [], []
        jj, kk = np.nonzero(self.mask & ~self.interior)
        interior_rows = np.nonzero(self.interior.ravel())[0]
        rows.extend(interior_rows)
        cols.extend(interior_rows)
        vals.extend(np.ones(interior_rows.size))
        for j, k in zip(jj, kk):
            # axis and sign from the indices, so every radius picks alike
            if abs(2 * j - c2) >= abs(2 * k - c2):
                dj, dk = (-1 if 2 * j > c2 else 1), 0
            else:
                dj, dk = 0, (-1 if 2 * k > c2 else 1)
            # walk inward to the first interior node; for N >= 9 there is one
            dist = 1
            while not self.interior[j + dist * dj, k + dist * dk]:
                dist += 1
            ja, ka = j + dist * dj, k + dist * dk
            if self.interior[ja + dj, ka + dk]:
                rows.extend([idx[j, k], idx[j, k]])
                cols.extend([idx[ja, ka], idx[ja + dj, ka + dk]])
                vals.extend([1.0 + dist, -float(dist)])
            else:
                rows.append(idx[j, k])
                cols.append(idx[ja, ka])
                vals.append(1.0)
        return sp.coo_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
            shape=(N * N, N * N)).tocsr()

    def ring_extension(self) -> sp.csr_matrix:
        """Operator replacing boundary-ring samples of a nodal field by the
        linear inward extrapolation of its interior values (along the
        dominant lattice axis); ring rows read interior nodes only.  Fields
        built from derivatives are zero on the ring, so solvers fill their
        densities there through this operator.  It does not depend on r."""
        return self.unit_operator("ring", lambda unit: unit._ring_matrix())

    def _difference(self, axis: int, values: np.ndarray) -> np.ndarray:
        # dividing by r = 1 is exact; skipping it only saves a no-op pass
        D = self.unit_operator(("dx", "dy")[axis], lambda unit: unit._diff_matrix(axis))
        out = (D @ values.reshape(self.N * self.N, -1)).reshape(values.shape)
        return out if self.r == 1.0 else out / self.r

    def dx_apply(self, values: np.ndarray) -> np.ndarray:
        return self._difference(0, values)

    def dx_at_center(self, values: np.ndarray) -> np.ndarray:
        """``dx_apply(values)`` at the origin node alone: the centred
        difference there without building the operator, in the same
        arithmetic (unit-radius weights, then division by r)."""
        j, k = self.center_index
        w = 0.5 / (2.0 / (self.N - 1))
        out = (-w) * values[j - 1, k] + w * values[j + 1, k]
        return out if self.r == 1.0 else out / self.r

    def dy_apply(self, values: np.ndarray) -> np.ndarray:
        return self._difference(1, values)

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

    @property
    def n(self) -> int:
        return self.values.shape[2] // 2

    def component_complex(self, m: int) -> np.ndarray:
        return self.values[..., 2 * m] + 1j * self.values[..., 2 * m + 1]

    def value_at_center(self) -> np.ndarray:
        c = self.grid.center_index
        return self.values[c[0], c[1], :].copy()

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values[self.grid.mask])))

    def sample(self, points, method: str = "bilinear") -> np.ndarray:
        """Interpolate at points (complex array or (m, 2)); returns (m, 2n).

        ``bilinear`` needs the full surrounding cell; ``cubic`` uses a 4x4
        Catmull-Rom stencil and silently falls back to bilinear where that
        stencil leaves the disk.
        """
        pts = np.asarray(points)
        if pts.dtype.kind != "c":
            pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
            pts = pts[..., 0] + 1j * pts[..., 1]
        pts = np.atleast_1d(pts)
        g = self.grid
        radius = np.abs(pts)
        limit = g.r - g.h
        bad = radius > limit * (1.0 + 1e-12)
        if bad.any():
            z = pts[np.argmax(radius)]
            raise OutsideInterpolationRange(
                f"point {z} at |z|={abs(z):.6g} beyond interpolation limit {limit:.6g}")

        fx = (pts.real + g.r) / g.h
        fy = (pts.imag + g.r) / g.h
        # Snap to exact node coordinates so stored values are returned verbatim.
        rx, ry = np.rint(fx), np.rint(fy)
        fx = np.where(np.abs(fx - rx) < 1e-9, rx, fx)
        fy = np.where(np.abs(fy - ry) < 1e-9, ry, fy)
        N = g.N
        j = np.clip(np.floor(fx).astype(int), 0, N - 2)
        k = np.clip(np.floor(fy).astype(int), 0, N - 2)
        s = fx - j
        t = fy - k

        node = j * N + k
        inside = g.mask.ravel()
        # component-major values, so gathers and products run along the points
        comps = np.ascontiguousarray(self.values.reshape(N * N, -1).T)

        def all_inside(nodes, offsets):
            return np.logical_and.reduce([inside.take(nodes + o) for o in offsets])

        def near(nodes, offset):
            return comps.take(nodes + offset, axis=1)

        corners_ok = all_inside(node, (0, N, 1, N + 1))
        if not corners_ok.all():
            i = int(np.argmin(corners_ok))
            raise OutsideInterpolationRange(
                f"cell around point {pts[i]} extends beyond the disk")

        out = ((1 - s) * (1 - t)) * near(node, 0) + (s * (1 - t)) * near(node, N) \
            + ((1 - s) * t) * near(node, 1) + (s * t) * near(node, N + 1)
        if method == "bilinear":
            return out.T
        if method != "cubic":
            raise InvalidParams(f"unknown interpolation method {method!r}")

        stencil = [(a - 1) * N + b - 1 for a in range(4) for b in range(4)]
        ok = (j >= 1) & (j + 2 < N) & (k >= 1) & (k + 2 < N)
        ok[ok] = all_inside(node[ok], stencil)
        if ok.any():
            nodes = node[ok]
            wx = _cr_weights(s[ok])
            wy = _cr_weights(t[ok])
            acc = np.zeros((comps.shape[0], nodes.size))
            for a in range(4):
                for b in range(4):
                    acc += (wx[a] * wy[b]) * near(nodes, stencil[4 * a + b])
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
    corners are never touched."""
    pts = grid.Z[grid.mask]
    if transform is not None:
        pts = transform(pts)
    vals = np.zeros((grid.N, grid.N, source.values.shape[-1]))
    vals[grid.mask] = source.sample(pts, method="cubic")
    return DiskMap(grid, vals)


def d_dz(u: DiskMap) -> DiskMap:
    """Wirtinger derivative (d/dx - i d/dy)/2, per complex component, at
    interior nodes; it reads 0 on the boundary ring and off the disk."""
    ux = u.grid.dx_apply(u.values)
    uy = u.grid.dy_apply(u.values)
    return DiskMap(u.grid, 0.5 * (ux - ComplexConvention.mul_i(uy)))


def d_dzbar(u: DiskMap) -> DiskMap:
    """Conjugate Wirtinger derivative (d/dx + i d/dy)/2; zero where
    ``d_dz`` is."""
    ux = u.grid.dx_apply(u.values)
    uy = u.grid.dy_apply(u.values)
    return DiskMap(u.grid, 0.5 * (ux + ComplexConvention.mul_i(uy)))


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
