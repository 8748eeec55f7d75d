"""Discrete solid Cauchy transform on the disk.

The operator P maps a density phi on the disk to

    (P phi)(z) = (1/pi) * integral over the disk of phi(zeta) / (z - zeta) dA,

normalized so that d/dzbar (P phi) = phi on the interior; that identity is
the defining property and is what ``cg_residual`` measures.

Quadrature layout.  Every retained node owns the square cell of side h
centered on it, and the kernel is integrated exactly over each full cell
via the boundary form

    integral over cell of dA(eta) / (d - eta)
        = (1/2i) * contour integral of conj(eta) / (d - eta) d eta,

evaluated with per-edge Gauss quadrature (machine precision since the pole
sits off the cell); the singular self cell integrates to exactly zero by
symmetry.  These weights depend only on the index offset between target
and source, so the bulk of the operator is a 2-D convolution, evaluated
with cached FFTs; the result reproduces a dense node-by-node weight matrix
without storing one.

Boundary treatment.  Cells straddling the circle carry the exact fraction
of their area inside the disk (closed-form circle-rectangle overlap).  For
targets with |z| <= r - h and rim cells within an index radius growing
like N/5, the
convolved (fraction x full-cell) weight is replaced by the exact kernel
integral over the clipped region (contour pieces: clipped cell edges plus
circular arcs), and the disk slivers living in cells whose center is off
the mask are added with the density borrowed from the nearest retained
node.  The differencing of the transform is exquisitely sensitive to any
h-scale quadrature defect at h-scale distance (such a defect leaves an
h-independent residual plateau), which is why the rim handling is exact;
the finite correction radius leaves a floor around 1e-5, far below the
discretization error at the grid sizes this library targets.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft2, ifft2, next_fast_len

from .diskgrid import DiskGrid, DiskMap, d_dzbar
from .errors import GridMismatch

_EDGE_GAUSS = 24       # quadrature points per cell edge


def _correction_radius(N: int) -> int:
    """Chebyshev radius of the exact rim corrections.  The uncorrected
    remainder is a dipole field whose differenced residual scales like
    radius**-4; growing the radius with N keeps that floor shrinking at
    least as fast as the stencil truncation."""
    return max(4, N // 5)


def _sqrt_area_antideriv(x: float, r: float) -> float:
    """Antiderivative of sqrt(r^2 - t^2), clamped to the circle's extent."""
    x = min(max(x, -r), r)
    rest = max(r * r - x * x, 0.0)
    return 0.5 * (x * np.sqrt(rest) + r * r * np.arcsin(x / r))


def _circle_cell_overlap(x0: float, x1: float, y0: float, y1: float, r: float) -> float:
    """Exact area of [x0,x1] x [y0,y1] intersected with the disk |z| <= r.

    The vertical extent of the intersection at abscissa x is
    min(y1, g(x)) - max(y0, -g(x)) with g = sqrt(r^2 - x^2); the min/max
    selections only switch where g crosses |y0| or |y1|, so the integral
    splits into pieces with closed-form antiderivatives.
    """
    a, b = max(x0, -r), min(x1, r)
    if a >= b:
        return 0.0
    cuts = {a, b}
    for c in (y0, y1):
        rest = r * r - c * c
        if rest > 0:
            s = np.sqrt(rest)
            for x in (-s, s):
                if a < x < b:
                    cuts.add(float(x))
    xs = sorted(cuts)
    area = 0.0
    for lo, hi in zip(xs, xs[1:]):
        mid = 0.5 * (lo + hi)
        gm = np.sqrt(max(r * r - mid * mid, 0.0))
        upper = min(y1, gm)
        lower = max(y0, -gm)
        if upper <= lower:
            continue
        if gm < y1:   # upper boundary is the circle on this piece
            area += _sqrt_area_antideriv(hi, r) - _sqrt_area_antideriv(lo, r)
        else:
            area += y1 * (hi - lo)
        if -gm > y0:  # lower boundary is the circle
            area += _sqrt_area_antideriv(hi, r) - _sqrt_area_antideriv(lo, r)
        else:
            area -= y0 * (hi - lo)
    return area


def _cell_integral_grid(D: np.ndarray, h: float, gauss_nodes, gauss_weights) -> np.ndarray:
    """Exact integral of 1/(d - eta) over the square cell [-h/2, h/2]^2 for
    every displacement d in the array D (d off the cell), boundary form."""
    a = h / 2.0
    verts = [complex(-a, -a), complex(a, -a), complex(a, a), complex(-a, a)]
    total = np.zeros(D.shape, dtype=np.complex128)
    for i in range(4):
        start, end = verts[i], verts[(i + 1) % 4]
        mid = 0.5 * (start + end)
        half = 0.5 * (end - start)
        eta = mid + half * gauss_nodes
        coeff = gauss_weights * np.conj(eta) * half
        for c, e in zip(coeff, eta):
            total += c / (D - e)
    return total / 2j


def _clipped_cell_pieces(x0, x1, y0, y1, r):
    """Counterclockwise boundary of [x0,x1]x[y0,y1] intersected with the
    disk |z| <= r: straight pieces (clipped cell edges) and circular arcs.
    Both sets are convex, so each edge keeps at most one sub-segment."""
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pieces = []
    circle_hits = []
    for i in range(4):
        A, B = corners[i], corners[(i + 1) % 4]
        D = B - A
        a = (D * D.conjugate()).real
        b = 2.0 * (A.conjugate() * D).real
        c = (A * A.conjugate()).real - r * r
        disc = b * b - 4 * a * c
        roots = []
        if disc > 0:
            sq = np.sqrt(disc)
            roots = sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
        a_in = abs(A) <= r
        b_in = abs(B) <= r
        if a_in and b_in:
            s0, s1 = 0.0, 1.0
        elif a_in:
            s0, s1 = 0.0, roots[1] if roots else 1.0
        elif b_in:
            s0, s1 = (roots[0] if roots else 0.0), 1.0
        else:
            if not roots or roots[0] >= 1.0 or roots[1] <= 0.0:
                continue
            s0, s1 = max(roots[0], 0.0), min(roots[1], 1.0)
        if s1 - s0 < 1e-14:
            continue
        P0, P1 = A + s0 * D, A + s1 * D
        pieces.append(("seg", P0, P1))
        for s, P in ((s0, P0), (s1, P1)):
            if 0.0 < s < 1.0 or abs(abs(P) - r) < 1e-12 * r:
                if abs(abs(P) - r) < 1e-9 * r:
                    circle_hits.append(float(np.angle(P)))
    if circle_hits:
        angles = sorted(set(np.round(circle_hits, 13)))
        m = len(angles)
        for i in range(m):
            th0 = angles[i]
            th1 = angles[(i + 1) % m]
            if th1 <= th0:
                th1 += 2 * np.pi
            mid = r * np.exp(1j * 0.5 * (th0 + th1))
            eps = 1e-12 * max(1.0, r)
            if (x0 - eps <= mid.real <= x1 + eps) and (y0 - eps <= mid.imag <= y1 + eps):
                pieces.append(("arc", th0, th1))
    return pieces


def _clipped_region_integral_many(ds: np.ndarray, pieces, r,
                                  gauss_nodes, gauss_weights) -> np.ndarray:
    """Integral of 1/(d - eta) over the clipped region described by
    ``pieces``, simultaneously for every d in ``ds`` (all off the
    region's boundary)."""
    ds = np.asarray(ds, dtype=np.complex128)
    total = np.zeros(ds.shape, dtype=np.complex128)
    for piece in pieces:
        if piece[0] == "seg":
            _, P0, P1 = piece
            mid = 0.5 * (P0 + P1)
            half = 0.5 * (P1 - P0)
            eta = mid + half * gauss_nodes
            coeff = gauss_weights * np.conj(eta) * half
        else:
            _, th0, th1 = piece
            mid = 0.5 * (th0 + th1)
            half = 0.5 * (th1 - th0)
            eta = r * np.exp(1j * (mid + half * gauss_nodes))
            coeff = gauss_weights * (1j * eta * half) * np.conj(eta)
        total += np.sum(coeff[None, :] / (ds[:, None] - eta[None, :]), axis=-1)
    return total / 2j


def _region_area(pieces, r) -> float:
    """Area of the clipped region from the same contour, for self checks."""
    total = 0.0 + 0.0j
    for piece in pieces:
        if piece[0] == "seg":
            _, P0, P1 = piece
            D = P1 - P0
            total += P0.conjugate() * D + 0.5 * D.conjugate() * D
        else:
            _, th0, th1 = piece
            total += 1j * r * r * (th1 - th0)
    return float((total / 2j).real)


class CGOperator:
    """Precomputed quadrature for the solid Cauchy transform at one N.

    The transform scales linearly with the radius: ``cg_build`` builds it
    once per N at unit radius and gives a grid of radius r a view that
    shares every array and multiplies results by r, within 1e-14 to 1e-13
    relative of a fresh build at r.  It keeps ``N``, ``r`` and ``mask``,
    never a grid."""

    def __init__(self, grid: DiskGrid):
        self.N, self.r, self.mask = grid.N, grid.r, grid.mask
        self._scale = 1.0
        N, h = grid.N, grid.h
        self.frac = self._area_fractions(grid)

        nodes, weights = leggauss(_EDGE_GAUSS)
        offs = np.arange(-(N - 1), N)
        DJ, DK = np.meshgrid(offs, offs, indexing="ij")
        D = h * (DJ + 1j * DK).astype(np.complex128)
        D[N - 1, N - 1] = np.inf              # keep the self entry finite
        kernel = _cell_integral_grid(D, h, nodes, weights) / np.pi
        kernel[N - 1, N - 1] = 0.0            # singular self cell: exact integral is 0
        self.kernel = kernel

        self._pad = next_fast_len(2 * N - 1)
        self._kernel_fft = fft2(kernel, s=(self._pad, self._pad))
        self._rim_correction = self._build_rim_correction(grid, nodes, weights)

    def _build_rim_correction(self, grid: DiskGrid, gnodes, gweights):
        """Boundary-exactness machinery.

        Every rim source column (a straddling cell, possibly plus disk
        slivers donated from cells whose center is off the mask) carries
        its total inside-area as an effective fraction in the convolution,
        so the far field is monopole-exact.  For targets with |z| <= r - h
        within a fixed index radius of the column, the convolution's
        contribution is swapped for the exact kernel integrals over the
        clipped regions.  The leftover beyond the radius is a dipole-level
        quadrature error, far below the stencil truncation."""
        N, h, r = grid.N, grid.h, grid.r
        half = 0.5 * h
        cell_area = h * h
        trusted = grid.mask & (grid.R2 <= (r - h) ** 2 * (1.0 + 1e-12))

        def cell_pieces(j, k):
            x, y = grid.X[j, k], grid.Y[j, k]
            return _clipped_cell_pieces(x - half, x + half, y - half, y + half, r)

        # column -> list of exact regions it represents beyond its own
        # full-cell kernel entry; straddling columns replace their own cell
        regions: dict = {}
        own_replaced: dict = {}
        self.conv_frac = np.where(grid.mask, self.frac, 0.0).copy()

        jj, kk = np.nonzero(grid.mask & (self.frac < 1.0))
        for js, ks in zip(jj, kk):
            pieces = cell_pieces(js, ks)
            if pieces:
                regions.setdefault((js, ks), []).append(pieces)
                own_replaced[(js, ks)] = True

        near2 = (np.maximum(np.abs(grid.X) - half, 0.0) ** 2
                 + np.maximum(np.abs(grid.Y) - half, 0.0) ** 2)
        jj, kk = np.nonzero(~grid.mask & (near2 < r * r))
        for js, ks in zip(jj, kk):
            donor = None
            best = np.inf
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    ja, ka = js + dj, ks + dk
                    if 0 <= ja < N and 0 <= ka < N and grid.mask[ja, ka]:
                        dist = (grid.X[ja, ka] - grid.X[js, ks]) ** 2 \
                            + (grid.Y[ja, ka] - grid.Y[js, ks]) ** 2
                        if dist < best - 1e-15:
                            best = dist
                            donor = (ja, ka)
            if donor is None:
                continue
            pieces = cell_pieces(js, ks)
            if not pieces:
                continue
            regions.setdefault(donor, []).append(pieces)
            self.conv_frac[donor] += _region_area(pieces, r) / cell_area

        rows, cols, vals = [], [], []
        m = _correction_radius(N)
        for (js, ks), piece_lists in regions.items():
            jlo, jhi = max(js - m, 0), min(js + m, N - 1)
            klo, khi = max(ks - m, 0), min(ks + m, N - 1)
            jt, kt = np.nonzero(trusted[jlo:jhi + 1, klo:khi + 1])
            if jt.size == 0:
                continue
            jt = jt + jlo
            kt = kt + klo
            d = grid.X[jt, kt] + 1j * grid.Y[jt, kt]
            exact = np.zeros(d.shape, dtype=np.complex128)
            for pieces in piece_lists:
                exact += _clipped_region_integral_many(d, pieces, r,
                                                       gnodes, gweights) / np.pi
            kern = self.kernel[N - 1 + jt - js, N - 1 + kt - ks]
            conv_part = self.conv_frac[js, ks] * kern
            if not own_replaced.get((js, ks), False):
                # full donor cell: its own kernel entry stays, only the
                # donated sliver mass is being swapped for exact regions
                conv_part = conv_part - kern
            rows.append(jt * N + kt)
            cols.append(np.full(jt.size, js * N + ks))
            vals.append(exact - conv_part)

        if not rows:
            return None
        return sp.coo_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(N * N, N * N)).tocsr()

    @staticmethod
    def _area_fractions(grid: DiskGrid) -> np.ndarray:
        h, r = grid.h, grid.r
        half = 0.5 * h
        # farthest cell corner inside the disk -> whole cell counts
        far2 = (np.abs(grid.X) + half) ** 2 + (np.abs(grid.Y) + half) ** 2
        frac = np.where(grid.mask, 1.0, 0.0)
        jj, kk = np.nonzero(grid.mask & (far2 > r * r))
        cell_area = h * h
        for j, k in zip(jj, kk):
            x, y = grid.X[j, k], grid.Y[j, k]
            frac[j, k] = _circle_cell_overlap(x - half, x + half,
                                              y - half, y + half, r) / cell_area
        return frac

    def cell_weight(self, dj: int, dk: int) -> complex:
        """Weight applied to a unit-fraction source cell at index offset
        (target minus source)."""
        N = self.N
        return self._scale * complex(self.kernel[N - 1 + dj, N - 1 + dk])

    def apply_complex(self, phi: np.ndarray) -> np.ndarray:
        """Transform one complex component sampled on the full (N, N) lattice."""
        N = self.N
        raw = np.where(self.mask, phi, 0.0)
        psi = self.conv_frac * raw
        conv = ifft2(fft2(psi, s=(self._pad, self._pad)) * self._kernel_fft)
        out = conv[N - 1:2 * N - 1, N - 1:2 * N - 1]
        if self._rim_correction is not None:
            out = out + (self._rim_correction @ raw.ravel()).reshape(N, N)
        if self._scale != 1.0:
            out = out * self._scale
        return np.where(self.mask, out, 0.0)


def cg_build(grid: DiskGrid) -> CGOperator:
    """The transform operator for a grid: the unit-radius operator of its N,
    built on first use (``DiskGrid.unit_operator``), or a view of it scaled
    to the grid's radius, which runs no build."""
    unit = grid.unit_operator("cg", CGOperator)
    if grid.r == 1.0:
        return unit
    view = copy.copy(unit)
    view.r = view._scale = grid.r
    return view


def cg_apply(op: CGOperator, phi: DiskMap) -> DiskMap:
    """Apply the transform to each complex component of a map."""
    if not phi.grid.same_geometry(op):
        raise GridMismatch(f"operator geometry (r={op.r}, N={op.N}) does not match "
                           f"density grid {phi.grid!r}")
    out = np.zeros_like(phi.values)
    for m in range(phi.n):
        w = op.apply_complex(phi.component_complex(m))
        out[..., 2 * m] = w.real
        out[..., 2 * m + 1] = w.imag
    return DiskMap(phi.grid, out, phi.convention)


def cg_residual(op: CGOperator, phi: DiskMap) -> float:
    """Sup over interior nodes of | d/dzbar (P phi) - phi |, the headline
    quadrature-quality diagnostic."""
    transformed = cg_apply(op, phi)
    diff = d_dzbar(transformed).values - phi.values
    inner = phi.grid.interior
    return float(np.max(np.linalg.norm(diff[inner], axis=-1)))
