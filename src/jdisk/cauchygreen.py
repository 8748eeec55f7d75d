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

Boundary treatment.  Every cell the circle cuts is described by one list
of contour pieces (clipped cell edges plus circular arcs), which gives
both its inside area and its exact kernel integral; the four edges of an
uncut cell are the same integrator's input for the full-cell weights.  A
cut cell is carried by the nearest retained node, itself when retained,
with its inside area added to that node's fraction in the convolution.
For targets with |z| <= r - h and rim cells within an index radius growing
like N/5, the convolved (fraction x full-cell) weight is replaced by the
exact kernel integral over the clipped regions.  The differencing of the
transform is exquisitely sensitive to any h-scale quadrature defect at
h-scale distance (such a defect leaves an h-independent residual
plateau), which is why the rim handling is exact; the finite correction
radius leaves a floor around 1e-5, far below the discretization error at
the grid sizes this library targets.

Symmetry.  N is odd and the origin is a node, so every mask is invariant
under the 8 symmetries of the square (D4); the kernel is integrated on the
octant 0 <= dk <= dj and each cut cell at its representative.  For a map L,
I_{LA}(d) = conj(u) I_A(L^-1 d) when L z = u z and conj(u) conj(I_A(L^-1 d))
when L z = u conj(z), exactly in floating point; values on a mirror line
are made their own image, so the kernel and the fractions are D4-invariant.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, fft2, ifft, next_fast_len

from .diskgrid import DiskGrid, DiskMap, d_dzbar
from .errors import GridMismatch

_EDGE_GAUSS = 24       # quadrature points per cell edge
# lattice offsets by distance, scan order among ties: a cut cell's column is
# the first of them that is a retained node, the same at every radius
_NEAREST = sorted(((dj, dk) for dj in (-1, 0, 1) for dk in (-1, 0, 1)),
                  key=lambda o: o[0] ** 2 + o[1] ** 2)


def _correction_radius(N: int) -> int:
    """Chebyshev radius of the exact rim corrections.  The uncorrected
    remainder is a dipole field whose differenced residual scales like
    radius**-4; growing the radius with N keeps that floor shrinking at
    least as fast as the stencil truncation."""
    return max(4, N // 5)


def _rim_sets(grid: DiskGrid):
    """Masks of the trusted targets (|z| <= r - h), full cells and cut cells."""
    half, r = 0.5 * grid.h, grid.r
    trusted = grid.mask & (grid.R2 <= (r - grid.h) ** 2 * (1.0 + 1e-12))
    near2 = (np.maximum(np.abs(grid.X) - half, 0.0) ** 2
             + np.maximum(np.abs(grid.Y) - half, 0.0) ** 2)
    far2 = (np.abs(grid.X) + half) ** 2 + (np.abs(grid.Y) + half) ** 2
    full = grid.mask & (far2 <= r * r)
    return trusted, full, (near2 < r * r) & ~full


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
        hits = sorted(circle_hits)
        # a corner on the circle is hit from both of its edges
        angles = [th for th, prev in zip(hits, [-np.inf] + hits) if th - prev > 1e-12]
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
    """Integral of 1/(d - eta) over the region bounded by ``pieces`` (one or
    more closed contours), simultaneously for every d in the 1-D array
    ``ds`` (all off the contours)."""
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
        w = ds[None, :] - eta[:, None]
        total += np.divide(coeff[:, None], w, out=w).sum(axis=0)
    return total / 2j


def _region_area(pieces, r) -> float:
    """Area of the clipped region described by ``pieces``."""
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
        N, h, r = grid.N, grid.h, grid.r

        nodes, weights = leggauss(_EDGE_GAUSS)
        # the cell at the origin is uncut, so its pieces are its four edges
        edges = _clipped_cell_pieces(-h / 2, h / 2, -h / 2, h / 2, r)
        # the octant 0 <= dk <= dj by rows; the singular self cell is exactly 0
        octant = np.zeros((N, N), dtype=np.complex128)
        for dj in range(1, N):
            octant[dj, :dj + 1] = _clipped_region_integral_many(
                h * (dj + 1j * np.arange(dj + 1)), edges, r, nodes, weights) / np.pi
        octant[:, 0] = octant[:, 0].real                    # its own conj image
        diag = np.diagonal(octant)                          # its own -i conj image
        octant[np.diag_indices(N)] = 0.5 * (diag - 1j * np.conj(diag))
        # unfold by K(i conj d) = -i conj K(d), K(conj d) = conj K(d), K(-conj d) = -conj K(d)
        quadrant = np.where(np.tri(N, dtype=bool), octant, -1j * np.conj(octant.T))
        right = np.hstack([np.conj(quadrant[:, :0:-1]), quadrant])     # dj >= 0
        self.kernel = np.vstack([-np.conj(right[:0:-1]), right])

        self._pad = next_fast_len(2 * N - 1)
        self._kernel_fft = fft2(self.kernel, s=(self._pad, self._pad))
        self._rim_correction = self._build_rim_correction(grid, nodes, weights)

    def _build_rim_correction(self, grid: DiskGrid, gnodes, gweights):
        """The rim correction of the module docstring's boundary treatment.
        Each octant representative is integrated on a box one step wider than
        the correction radius; its untrusted nodes hold NaN, so sets that are
        not D4-symmetric fail the build instead of reading zeros."""
        N, h, r = grid.N, grid.h, grid.r
        half, c, m = 0.5 * h, (N - 1) // 2, _correction_radius(N)
        W = 2 * m + 3          # side of a representative's box
        trusted, full, cut = _rim_sets(grid)
        self.frac = full.astype(float)
        self.conv_frac = self.frac.copy()

        reps: dict = {}        # octant representative -> (area, flat values on its box)
        carried: dict = {}     # column -> cut cells it carries, with their representatives
        padded = np.pad(trusted, m + 1)
        for j, k in zip(*np.nonzero(cut)):
            # for N >= 9 every cut cell has a retained node among its neighbours
            column = next((j + dj, k + dk) for dj, dk in _NEAREST
                          if 0 <= j + dj < N and 0 <= k + dk < N and grid.mask[j + dj, k + dk])
            rep = (max(abs(j - c), abs(k - c)), min(abs(j - c), abs(k - c)))
            if rep not in reps:
                jr, kr = c + rep[0], c + rep[1]
                pieces = _clipped_cell_pieces(grid.X[jr, kr] - half, grid.X[jr, kr] + half,
                                              grid.Y[jr, kr] - half, grid.Y[jr, kr] + half, r)
                jb, kb = np.nonzero(padded[jr:jr + W, kr:kr + W])
                box = np.full((W, W), np.nan, dtype=np.complex128)
                box[jb, kb] = _clipped_region_integral_many(
                    grid.Z[jb + jr - m - 1, kb + kr - m - 1], pieces, r, gnodes, gweights) / np.pi
                if rep[1] == 0:                             # its own conj image
                    box = 0.5 * (box + np.conj(box[:, ::-1]))
                if rep[0] == rep[1]:                        # its own -i conj image
                    box = 0.5 * (box - 1j * np.conj(box.T))
                reps[rep] = (_region_area(pieces, r) / (h * h), box.ravel())
            if column == (j, k):
                self.frac[j, k] = reps[rep][0]
            self.conv_frac[column] += reps[rep][0]
            carried.setdefault(column, []).append((j, k, rep))

        rows, cols, vals = [], [], []
        for (js, ks), cells in carried.items():
            jt, kt = np.nonzero(padded[js + 1:js + 2 * m + 2, ks + 1:ks + 2 * m + 2])
            jt, kt = jt + js - m, kt + ks - m
            dj, dk = jt - c, kt - c
            exact = np.zeros(jt.size, dtype=np.complex128)
            for j, k, (ra, rb) in cells:
                # the cell is L(rep): L^-1 flips the signs of a, b < 0, then
                # swaps if |b| > |a|; (p, q) are the offsets of L^-1 t
                sa, sb, swap = (-1 if j < c else 1), (-1 if k < c else 1), abs(k - c) > abs(j - c)
                p, q = (sb * dk, sa * dj) if swap else (sa * dj, sb * dk)
                v = reps[ra, rb][1][(p - ra + m + 1) * W + q - rb + m + 1]
                # -i conj (swap), then -conj (a < 0), then conj (b < 0): conj(u) = -i sb or sa
                v = np.conj(v) if swap ^ (sa < 0) ^ (sb < 0) else v
                exact += (-1j * sb if swap else sa) * v
            if np.isnan(exact).any():
                raise RuntimeError(f"rim column {(js, ks)} reads a node the D4 maps do not keep")
            kern = self.kernel[N - 1 + jt - js, N - 1 + kt - ks]
            # a full column keeps its own kernel entry: only the slivers it
            # carries are swapped for their exact regions
            conv_part = (self.conv_frac[js, ks] - full[js, ks]) * kern
            rows.append((jt * N + kt).astype(np.int32))
            cols.append(np.full(jt.size, js * N + ks, dtype=np.int32))
            vals.append(exact - conv_part)
        del reps               # the boxes go before the sparse conversion's peak

        return sp.coo_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(N * N, N * N)).tocsr()

    def cell_weight(self, dj: int, dk: int) -> complex:
        """Weight applied to a unit-fraction source cell at index offset
        (target minus source)."""
        N = self.N
        return self._scale * complex(self.kernel[N - 1 + dj, N - 1 + dk])

    def apply_complex(self, phi: np.ndarray) -> np.ndarray:
        """Transform one complex component sampled on the full (N, N) lattice.

        The bulk is the zero-padded convolution on the M x M lattice,
        M = ``_pad``.  The density fills only its first N rows and columns,
        and only rows and columns N - 1 to 2N - 2 of the result are read, so
        no transform runs on a row that is all zeros or never read: the
        forward pass transforms the N filled columns along axis 0, then
        every row along axis 1 (equal to ``fft2(psi, s=(M, M))`` to the
        bit); the inverse pass transforms every column along axis 0, then
        the N read rows along axis 1.  Each 1-D transform is one that
        ``ifft2`` makes, so the result is the full padded convolution's to
        round-off."""
        N, M = self.N, self._pad
        raw = np.where(self.mask, phi, 0.0)
        spec = fft(self.conv_frac * raw, n=M, axis=0)
        spec = fft(spec, n=M, axis=1, overwrite_x=True)
        spec *= self._kernel_fft
        rows = ifft(spec, axis=0, overwrite_x=True)[N - 1:2 * N - 1]
        out = ifft(rows, axis=1, overwrite_x=True)[:, N - 1:2 * N - 1]
        out += (self._rim_correction @ raw.ravel()).reshape(N, N)
        if self._scale != 1.0:
            out *= self._scale
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


def cg_apply(op: CGOperator, phi):
    """Apply the transform to each complex component of a map.

    ``phi`` is a ``DiskMap`` on the operator's geometry, which gives a
    ``DiskMap``, or the ``(N, N, 2n)`` values of a map on it, which give
    values (the solver's loop)."""
    wrapped = isinstance(phi, DiskMap)
    if wrapped and not phi.grid.same_geometry(op):
        raise GridMismatch(f"operator geometry (r={op.r}, N={op.N}) does not match "
                           f"density grid {phi.grid!r}")
    values = phi.values if wrapped else phi
    if values.shape[:2] != (op.N, op.N):
        raise GridMismatch(f"operator N={op.N} does not match values of shape {values.shape}")
    # (x, y) interleaved per component is complex128's memory layout, so
    # each component is read, and its transform written, as a complex view
    comps = np.ascontiguousarray(values, dtype=np.float64).view(np.complex128)
    out = np.empty_like(comps)
    for m in range(comps.shape[2]):
        out[..., m] = op.apply_complex(comps[..., m])
    out = out.view(np.float64)
    return DiskMap(phi.grid, out) if wrapped else out


def cg_residual(op: CGOperator, phi: DiskMap) -> float:
    """Sup over interior nodes of | d/dzbar (P phi) - phi |, the headline
    quadrature-quality diagnostic."""
    transformed = cg_apply(op, phi)
    diff = d_dzbar(transformed).values - phi.values
    inner = phi.grid.interior
    return float(np.max(np.linalg.norm(diff[inner], axis=-1)))
