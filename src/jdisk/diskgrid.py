"""Discrete maps from a disk of radius r into R^{2n}.

A ``DiskGrid`` is the Cartesian lattice over [-r, r]^2 with an odd node
count per axis (so the origin is a node), restricted to the closed disk
|z| <= r.  Derivatives are centred differences at the interior mask
|z| <= r - 2h, all read from one matrix of x and y rows there.  The
boundary ring between the two masks gets its values in one way only:
``interior_extension`` extrapolates them linearly from interior nodes.
Every sup-type diagnostic is taken over the interior mask.  Grids have at
least 9 nodes per axis, the fewest for which the origin is interior and
every ring node has an interior source.  Both masks are drawn in index
space, so they depend on N alone: every grid of one N shares one read-only
pair of them, and samples move between radii without a copy.

The lattice operators depend on N alone up to a power of r (differences
scale like 1/r, the ring extension not at all), so one module cache keeps
the unit-radius operators of a few recent N for grids of every radius;
its Cauchy transform serves unit-disk grids alone (``cauchygreen.cg_build``).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (InvalidGrid, InvalidParams, OutsideDisk,
                     OutsideInterpolationRange)

_UNIT_SETS_KEPT = 4      # node counts whose masks and unit-radius operators stay cached
_unit_sets: OrderedDict = OrderedDict()


@lru_cache(maxsize=_UNIT_SETS_KEPT)
def _lattice_masks(N: int) -> tuple:
    """The read-only ``(mask, interior)`` of every grid with N nodes per
    axis: with c = (N - 1) / 2, node (j, k) is in the disk when
    (j - c)^2 + (k - c)^2 <= c^2 and interior when it is <= (c - 2)^2, the
    squared radii r^2 and (r - 2h)^2 in units of h."""
    c = (N - 1) // 2
    d = np.arange(N) - c
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    masks = d2 <= c * c, d2 <= (c - 2) ** 2
    for m in masks:
        m.flags.writeable = False
    return masks


class DiskGrid:
    """Lattice discretization of the closed disk of radius r; its masks are
    ``_lattice_masks(N)``, shared read-only by the grids of one N whatever
    their r.  Its node coordinates ``X``, ``Y``, ``Z`` and ``R2`` are formed
    on first use.  It keeps no operators of its own."""

    def __init__(self, r: float, N: int):
        self.r = float(r)
        self.N = int(N)
        self.h = 2.0 * self.r / (self.N - 1)
        self.xs = np.linspace(-self.r, self.r, self.N)
        self.mask, self.interior = _lattice_masks(self.N)
        self._center = (self.N - 1) // 2

    @cached_property
    def X(self) -> np.ndarray:
        """x at every node."""
        return np.repeat(self.xs[:, None], self.N, axis=1)

    @cached_property
    def Y(self) -> np.ndarray:
        """y at every node."""
        return np.repeat(self.xs[None, :], self.N, axis=0)

    @cached_property
    def Z(self) -> np.ndarray:
        """x + iy at every node."""
        return self.X + 1j * self.Y

    @cached_property
    def R2(self) -> np.ndarray:
        """|z|^2 at every node, X * X + Y * Y to the bit."""
        x2 = self.xs * self.xs
        return x2[:, None] + x2[None, :]

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
        """Grid with all coordinates multiplied by ``factor``; it shares this
        grid's masks, so node sets correspond one to one."""
        return make_grid(self.r * factor, self.N)

    def unit_operator(self, name: str, build):
        """The operator ``name`` of the unit-radius grid with this N, made by
        ``build(unit_grid)`` on first use and shared by every grid of that N;
        the cache holds no grid.  An N keeps one entry per operator: ``"diff"``,
        whose products a grid divides by its r, ``"ring_interior"`` and ``"cg"``."""
        ops = _unit_sets.pop(self.N, None) or {}
        _unit_sets[self.N] = ops
        while len(_unit_sets) > _UNIT_SETS_KEPT:
            _unit_sets.popitem(last=False)
        if name not in ops:
            ops[name] = build(self if self.r == 1.0 else DiskGrid(1.0, self.N))
        return ops[name]

    def _difference_matrix(self) -> sp.csr_matrix:
        """Centred x differences at the m interior nodes in row-major order,
        then y differences, two entries a row, on ``(N*N, c)`` arrays.  Its
        CSR arrays are written in canonical form, each row's two entries in
        column order."""
        N, h = self.N, self.h
        node = np.flatnonzero(self.interior).astype(np.int32)
        lo, hi = np.concatenate([node - N, node - 1]), np.concatenate([node + N, node + 1])
        indices = np.stack([lo, hi], axis=1).ravel()
        indptr = np.arange(0, indices.size + 1, 2, dtype=np.int32)
        data = np.tile([-0.5 / h, 0.5 / h], lo.size)
        return sp.csr_matrix((data, indices, indptr), shape=(lo.size, N * N))

    def _ring_matrix(self) -> sp.csr_matrix:
        """The ring extension over the whole lattice: the identity on the
        interior nodes and each ring node's extrapolation, 0 off the disk,
        its CSR arrays written in canonical form."""
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
        # node's value when the next one inward is not interior; of the two
        # sources, the one nearer the lattice's start comes first
        two = inner[ja + dj, ka + dk]
        ring, near, step = jj * N + kk, ja * N + ka, dj * N + dk
        count = inner.ravel().astype(np.int32)
        count[ring] = 1 + two
        indptr = np.zeros(N * N + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        indices = np.arange(N * N, dtype=np.int32).repeat(count)
        data = np.ones(indptr[-1])
        back = two & (step < 0)
        first = indptr[ring]
        indices[first] = np.where(back, near + step, near)
        data[first] = np.where(two, np.where(back, -dist, 1.0 + dist), 1.0)
        first, near, step, dist, back = (a[two] for a in (first, near, step, dist, back))
        indices[first + 1] = np.where(back, near, near + step)
        data[first + 1] = np.where(back, 1.0 + dist, -dist)
        return sp.csr_matrix((data, indices, indptr), shape=(N * N, N * N))

    def interior_extension(self) -> sp.csr_matrix:
        """Operator taking a field's rows at the interior nodes (row-major) to
        the lattice, where each ring node gets their linear extrapolation
        inward along the dominant lattice axis; solvers fill their densities
        on the ring through it.  It does not depend on r.  It is
        ``_ring_matrix`` with each column renumbered by the interior nodes
        before it, which keeps every row's column order."""
        def build(unit):
            ring, inner = unit._ring_matrix(), unit.interior.ravel()
            rank = np.cumsum(inner, dtype=np.int32) - 1
            return sp.csr_matrix((ring.data, rank[ring.indices], ring.indptr),
                                 shape=(ring.shape[0], int(rank[-1]) + 1))
        return self.unit_operator("ring_interior", build)

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

    def with_grid(self, grid: DiskGrid) -> "DiskMap":
        """These samples on ``grid``, a grid of the same N at another radius:
        the masks are the same, so the validated values are shared, neither
        copied nor checked again."""
        if grid.N != self.grid.N:
            raise InvalidParams(f"samples on N={self.grid.N} cannot move to N={grid.N}")
        out = copy.copy(self)
        out.grid = grid
        return out

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
    The products run over the band of source rows and columns that the
    stencils reach, the only nonzero columns of W.  Nodes whose 4x4 stencil
    leaves the source disk go through ``sample`` itself (bilinear fallback
    or ``OutsideInterpolationRange``).  Only a ``transform`` (Mobius
    recentering) gathers every node.
    """
    if transform is not None:
        vals = np.zeros((grid.N, grid.N, source.values.shape[-1]))
        vals[grid.mask] = source.sample(transform(grid.Z[grid.mask]), method="cubic")
        return DiskMap(grid, vals)
    N, c = source.grid.N, source.grid._center
    j, s = _axis_cells(source.grid, grid.xs)
    # the stencils reach source rows b0..b1-1; W is built on the padded
    # columns b0-1..b1, and a stencil that needs column -1 or N is a
    # fallback node's, so those two are cut off
    b0, b1 = max(int(j.min()) - 1, 0), min(int(j.max()) + 3, N)
    W = np.zeros((grid.N, b1 - b0 + 2))
    W[np.arange(grid.N)[:, None], (j - b0)[:, None] + np.arange(4)] = _cr_weights(s).T
    W = W[:, 1:-1]
    band = source.values[b0:b1, b0:b1].transpose(2, 0, 1)
    vals = (W @ band @ W.T).transpose(1, 2, 0)
    # the source mask is (a - c)^2 + (b - c)^2 <= c^2, so a stencil lies in
    # it when its corner farthest from the centre does (one reaching row -1
    # or N is c + 1 rows out)
    far = np.maximum((j - 1 - c) ** 2, (j + 2 - c) ** 2)
    rest = grid.mask & (far[:, None] + far[None, :] > c * c)
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
    X, Y = grid.xs[nodes // grid.N], grid.xs[nodes % grid.N]
    k = np.lexsort((Y, X, grid.R2.ravel()[nodes]))[0]
    return float(vals[tied[k]]), complex(X[k], Y[k])


def to_csv(u: DiskMap, fh) -> None:
    """Write the retained nodes to the open text file ``fh`` as CSV rows:
    a header ``x,y,v0,...``, then each node's coordinates and values."""
    g = u.grid
    data = np.concatenate([g.nodes(g.mask), u.values[g.mask]], axis=-1)
    header = "x,y," + ",".join(f"v{i}" for i in range(u.values.shape[2]))
    np.savetxt(fh, data, delimiter=",", header=header, comments="")
