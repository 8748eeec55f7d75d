"""Discrete solid Cauchy transform on the disk.

The operator P maps a density phi on the disk to

    (P phi)(z) = (1/pi) * integral over the disk of phi(zeta) / (z - zeta) dA,

normalized so that d/dzbar (P phi) = phi on the interior; that identity is
the defining property and is what ``cg_residual`` measures.

Quadrature layout.  Every retained node owns the square cell of side h
centered on it, and the kernel is integrated exactly over each full cell.
Each cell is integrated about its node c, at targets d = c + h (dj + i dk).
A target within 3.5 h of c takes the boundary form

    integral over cell of dA(eta) / (d - eta)
        = (1/2i) * contour integral of conj(eta - c) / (d - eta) d eta,

evaluated with per-edge Gauss quadrature (machine precision since the pole
sits off the cell; the contour integral of 1/(d - eta) vanishes, so taking
conj(eta - c) for conj(eta) changes only the round-off, which it keeps at
the cell's scale instead of |c|'s).  A farther target takes the cell's
Laurent (multipole) series sum_k M_k / (d - c)^(k+1), whose moments M_k,
the integrals of (eta - c)^k over the cell, come from the same boundary
form on the same Gauss nodes; its terms fall like ((h / sqrt 2) / (3.5 h))^k,
and as every d - c is a lattice offset, all cells share the powers and the
far targets of every cell take one matrix product.  The singular self cell
integrates to exactly zero by symmetry.  These weights depend only on
the index offset between target and source, so the bulk of the operator is
a 2-D convolution, evaluated with cached FFTs; the result reproduces a
dense node-by-node weight matrix without storing one.

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

Memory.  The operator keeps the kernel, its FFT, the fractions and the rim
correction as CSR: 9.4 MiB at N = 129 and 69.0 MiB at N = 257, most of it
the rim.  The build's phases free their arrays before the next allocates:
the octant once the kernel is unfolded, the representatives' boxes and the
rim assembly's temporaries before the rim's CSR copy is made beside its CSC
parts, which is the build's peak, and those parts before the kernel's FFT.
With numpy 2.4 and scipy 1.17 the live peak (tracemalloc) is 17.2 MiB at
N = 129 and 124.7 MiB at N = 257; a process that only builds one operator
peaks 20 and 140 MiB above the resident size of its imports.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, fft2, ifft, next_fast_len

from .diskgrid import DiskGrid, DiskMap, interior_wirtinger
from .errors import GridMismatch

_EDGE_GAUSS = 24       # quadrature points per contour piece
# A target fewer than _NEAR_RADIUS lattice steps from a cell's centre c
# takes the contour rule, a farther one the cell's first _SERIES_TERMS
# Laurent terms.  The cell lies within h / sqrt(2) of c, so the k-th term
# is at most rho^k times the first, rho = (h / sqrt 2) / (3.5 h) ~= 0.20,
# and the dropped tail at most rho^24 / (1 - rho) ~= 3e-17 of it.
_NEAR_RADIUS = 3.5
_SERIES_TERMS = 24
_RIM_BLOCK = 1 << 15   # rim entries assembled at a time

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


def _contour_nodes(pieces, r, gauss_nodes, gauss_weights, centre=0j):
    """The Gauss nodes of every piece of ``pieces``, measured from
    ``centre``, and each node's weight times d eta, as two 1-D complex
    arrays."""
    etas, detas = [], []
    for piece in pieces:
        if piece[0] == "seg":
            _, P0, P1 = piece
            half = 0.5 * (P1 - P0)
            eta = 0.5 * (P0 + P1) + half * gauss_nodes
            deta = gauss_weights * half
        else:
            _, th0, th1 = piece
            half = 0.5 * (th1 - th0)
            eta = r * np.exp(1j * (0.5 * (th0 + th1) + half * gauss_nodes))
            deta = gauss_weights * (1j * eta * half)
        etas.append(eta)
        detas.append(deta)
    return np.concatenate(etas) - centre, np.concatenate(detas)


def _clipped_region_integral_many(ds: np.ndarray, contour) -> np.ndarray:
    """Integral of 1/(d - eta) over the region bounded by ``contour``, the
    ``_contour_nodes`` of one or more closed contours, simultaneously for
    every d in the 1-D array ``ds`` (all outside the region, and measured
    from the nodes' centre)."""
    eta, deta = contour
    w = np.asarray(ds, dtype=np.complex128)[None, :] - eta[:, None]
    coeff = deta * np.conj(eta)
    return np.divide(coeff[:, None], w, out=w).sum(axis=0) / 2j


def _moments(contours) -> np.ndarray:
    """The (_SERIES_TERMS, cells) moments M_k = (1/2i) * contour integral
    of eta^k conj(eta) d eta, the integral of eta^k over the cell, from
    each cell's ``_contour_nodes`` measured from its centre."""
    sizes = [eta.size for eta, _ in contours]
    eta = np.concatenate([eta for eta, _ in contours])
    term = np.concatenate([deta for _, deta in contours]) * np.conj(eta) / 2j
    starts = np.cumsum([0] + sizes[:-1])
    moments = np.empty((_SERIES_TERMS, len(contours)), dtype=np.complex128)
    for k in range(_SERIES_TERMS):
        moments[k] = np.add.reduceat(term, starts)
        term *= eta
    return moments


def _far_field(w: np.ndarray, moments: np.ndarray, out=None) -> np.ndarray:
    """Each cell's series sum_k M_k w^(k+1) at every w = 1 / (d - c) of
    ``w``, as (cells, targets), into ``out`` if given: one matrix product
    of the moments with the powers of w (a w of 0 reads 0)."""
    powers = np.empty((_SERIES_TERMS, w.size), dtype=np.complex128)
    powers[0] = w
    for k in range(1, _SERIES_TERMS):
        np.multiply(powers[k - 1], w, out=powers[k])
    return np.matmul(moments.T, powers, out=out)


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


class _CutCells(NamedTuple):
    """The cells the circle cuts, in scan order: their indices, the flat
    index of the column that carries each, and the index of each one's
    octant representative, whose offsets from the centre are
    ``(ra[i], rb[i])``, ra >= rb >= 0."""
    j: np.ndarray
    k: np.ndarray
    column: np.ndarray
    rep: np.ndarray
    ra: np.ndarray
    rb: np.ndarray


def _cut_cells(grid: DiskGrid, cut: np.ndarray) -> _CutCells:
    """The cells of ``cut``; a cell's column is the first of ``_NEAREST``
    that is a retained node."""
    N, c = grid.N, (grid.N - 1) // 2
    j, k = np.nonzero(cut)
    # for N >= 9 every cut cell has a retained node among its neighbours
    retained = np.pad(grid.mask, 1)
    hit = np.array([retained[j + 1 + dj, k + 1 + dk] for dj, dk in _NEAREST])
    step = np.array(_NEAREST)[hit.argmax(axis=0)]
    a, b = np.abs(j - c), np.abs(k - c)
    reps, rep = np.unique(np.maximum(a, b) * N + np.minimum(a, b), return_inverse=True)
    ra, rb = np.divmod(reps, N)
    return _CutCells(j, k, (j + step[:, 0]) * N + k + step[:, 1], rep, ra, rb)


def _integrals(grid: DiskGrid, trusted: np.ndarray, cuts: _CutCells):
    """1/pi times the integral of 1/(d - eta) over the full cell at the
    origin, at d = h (dj + i dk) on the octant 0 <= dk <= dj, and over each
    representative's clipped cell, at d = its centre + h (dj + i dk) on the
    trusted nodes of a box one step wider than the correction radius.
    Untrusted box nodes hold NaN, so sets that are not D4-symmetric fail
    the build instead of reading zeros.  Returns the octant, the boxes
    (``boxes[0]``, and i times them in ``boxes[1]``, which the rim columns
    read for cells with the coordinates swapped) and the representatives'
    inside areas in units of h^2."""
    N, h, r = grid.N, grid.h, grid.r
    half, c, m = 0.5 * h, (N - 1) // 2, _correction_radius(N)
    W = 2 * m + 3          # side of a representative's box
    jr, kr = c + cuts.ra, c + cuts.rb
    # the cell at the origin is uncut, so its pieces are its four edges
    pieces = [_clipped_cell_pieces(-half, half, -half, half, r)] + [
        _clipped_cell_pieces(grid.X[a, b] - half, grid.X[a, b] + half,
                             grid.Y[a, b] - half, grid.Y[a, b] + half, r)
        for a, b in zip(jr, kr)]
    gauss = leggauss(_EDGE_GAUSS)
    contours = [_contour_nodes(p, r, *gauss, z)
                for p, z in zip(pieces, np.concatenate([[0j], grid.Z[jr, kr]]))]
    moments = _moments(contours)

    # the octant by rows; the singular self cell is exactly 0
    dj, dk = (i[1:] for i in np.tril_indices(N))
    ds = h * (dj + 1j * dk)
    near = dj * dj + dk * dk < _NEAR_RADIUS ** 2
    octant = np.zeros((N, N), dtype=np.complex128)
    octant[dj[near], dk[near]] = _clipped_region_integral_many(ds[near], contours[0])
    octant[dj[~near], dk[~near]] = _far_field(1.0 / ds[~near], moments[:, :1])[0]
    octant /= np.pi

    # the boxes by flat place: every far place of every box in one product,
    # then the near trusted places box by box
    oj, ok = np.divmod(np.arange(W * W), W) - np.array(m + 1)
    ds = h * (oj + 1j * ok)
    near = oj * oj + ok * ok < _NEAR_RADIUS ** 2
    inbox = sliding_window_view(np.pad(trusted, m + 1), (W, W))[jr, kr].reshape(jr.size, -1)
    stack = np.empty((2, *inbox.shape), dtype=np.complex128)
    boxes = _far_field(np.divide(1.0, ds, out=np.zeros_like(ds), where=~near), moments[:, 1:],
                       out=stack[0])
    at = np.flatnonzero(near)
    for i, contour in enumerate(contours[1:]):
        sel = at[inbox[i, at]]
        if sel.size:
            boxes[i, sel] = _clipped_region_integral_many(ds[sel], contour)
    boxes[~inbox] = np.nan
    boxes /= np.pi
    boxes = boxes.reshape(-1, W, W)
    on = cuts.rb == 0                                   # its own conj image
    boxes[on] = 0.5 * (boxes[on] + np.conj(boxes[on][:, :, ::-1]))
    on = cuts.ra == cuts.rb                             # its own -i conj image
    boxes[on] = 0.5 * (boxes[on] - 1j * np.conj(boxes[on].transpose(0, 2, 1)))
    np.multiply(stack[0], 1j, out=stack[1])
    areas = np.array([_region_area(p, r) for p in pieces[1:]]) / (h * h)
    return octant, stack.reshape(2, -1, W, W), areas


def _unfold(octant: np.ndarray) -> np.ndarray:
    """The (2N - 1, 2N - 1) kernel from its (N, N) octant, which is made
    D4-invariant in place first: entry [N - 1 + dj, N - 1 + dk] is the
    weight at index offset (dj, dk)."""
    N = octant.shape[0]
    octant[:, 0] = octant[:, 0].real                    # its own conj image
    diag = np.diagonal(octant)                          # its own -i conj image
    octant[np.diag_indices(N)] = 0.5 * (diag - 1j * np.conj(diag))
    # unfold by K(i conj d) = -i conj K(d), K(conj d) = conj K(d), K(-conj d) = -conj K(d)
    quadrant = np.where(np.tri(N, dtype=bool), octant, -1j * np.conj(octant.T))
    right = np.hstack([np.conj(quadrant[:, :0:-1]), quadrant])     # dj >= 0
    return np.vstack([-np.conj(right[:0:-1]), right])


def _fractions(full: np.ndarray, cuts: _CutCells, areas: np.ndarray):
    """``frac`` and ``conv_frac``: each cut cell's area goes to its column's
    ``conv_frac``, added in scan order (``ufunc.at`` adds in index order,
    and the cells are in scan order), and to its own ``frac`` when it is
    its own column."""
    frac = full.astype(float)
    conv_frac = frac.copy()
    area = areas[cuts.rep]
    own = cuts.column == cuts.j * full.shape[1] + cuts.k
    frac.ravel()[cuts.column[own]] = area[own]
    np.add.at(conv_frac.ravel(), cuts.column, area)
    return frac, conv_frac


def _targets(trusted: np.ndarray, columns: np.ndarray, m: int):
    """Every column's targets t = s + (oj, ok), the trusted nodes within
    Chebyshev radius m of s, in one list, column by column and row-major
    within, as the place ``at`` of (oj, ok) in a B x B window, B = 2m + 1;
    and each column's count of them.  A window row meets the trusted disk
    in one run."""
    N, B = trusted.shape[0], 2 * m + 1
    window = sliding_window_view(np.pad(trusted, m), (B, B))[columns // N, columns % N]
    runs = np.count_nonzero(window, axis=2)
    size = runs.sum(axis=1)
    start = (np.arange(B) * B + window.argmax(axis=2))[runs > 0]
    runs = runs[runs > 0]
    at = np.ones(size.sum(), dtype=np.int32)
    at[0] = start[0]
    at[np.cumsum(runs[:-1])] = start[1:] - start[:-1] - runs[:-1] + 1
    return np.cumsum(at, out=at), size


def _rim_columns(grid: DiskGrid, kernel, conv_frac, full, trusted, cuts: _CutCells, boxes):
    """The rim correction of the module docstring's boundary treatment, as
    a CSC matrix.  Column s holds, at each trusted node t within the
    correction radius of s, the exact integrals over the cut cells it
    carries, added in scan order, less the convolution's (conv_frac - full)
    share of its kernel entry.  A carried cell L(rep) reads its
    representative's box at L^-1 t."""
    N, c, m = grid.N, (grid.N - 1) // 2, _correction_radius(grid.N)
    W, B = boxes.shape[2], 2 * m + 1
    # the carrying columns, sorted, with the cut cells grouped by column in
    # scan order: order[first[i] + n] is the n-th cell of column columns[i]
    order = np.argsort(cuts.column, kind="stable")
    columns, first, count = np.unique(cuts.column[order], return_index=True,
                                      return_counts=True)
    at, size = _targets(trusted, columns, m)
    oj, ok = np.divmod(np.arange(B * B, dtype=np.int32), B) - np.array(m, dtype=np.int32)

    # L^-1 flips the signs of a, b < 0, then swaps if |b| > |a|; a cell in
    # column s reads its box at base + sj * oj + sk * ok
    sa, sb = np.where(cuts.j < c, -1, 1), np.where(cuts.k < c, -1, 1)
    swap = np.abs(cuts.k - c) > np.abs(cuts.j - c)
    sj, sk = np.where(swap, sa, sa * W), np.where(swap, sb * W, sb)
    base = ((cuts.rep * W + m + 1 - cuts.ra[cuts.rep]) * W + m + 1 - cuts.rb[cuts.rep]
            + (cuts.column // N - c) * sj + (cuts.column % N - c) * sk)
    # its value is conj(u) times the value or its conj (flip): -i conj (swap),
    # then -conj (a < 0), then conj (b < 0) give conj(u) = -i sb or sa.  A
    # swapped cell reads i times the box, as -i sb v = -sb (i v) and
    # -i sb conj(v) = sb conj(i v), so only signs are left
    flip = swap ^ (sa < 0) ^ (sb < 0)
    negate = np.where(swap, sb * np.where(flip, 1, -1), sa) < 0
    base[swap] += boxes[0].size
    values = boxes.reshape(-1)
    # a full column keeps its own kernel entry: only the slivers it carries
    # are swapped for their exact regions
    kern = kernel[N - 1 - m:N + m, N - 1 - m:N + m].ravel()
    share = conv_frac.ravel()[columns] - full.ravel()[columns]
    place = (oj * N + ok).astype(np.int32)

    exact = np.zeros(at.size, dtype=np.complex128)
    rows = np.empty(at.size, dtype=np.int32)
    end = np.cumsum(size)
    # blocks of whole columns, about _RIM_BLOCK entries each, keep every
    # temporary small enough to stay in cache
    bounds = np.unique(np.concatenate([[0], np.searchsorted(end, np.arange(
        _RIM_BLOCK, end[-1], _RIM_BLOCK)), [columns.size]]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        e0, e1 = end[lo] - size[lo], end[hi - 1]
        t, part, sizes = at[e0:e1], exact[e0:e1], size[lo:hi]
        for n in range(count[lo:hi].max()):
            here = count[lo:hi] > n             # columns that carry an n-th cell
            cell, cells = order[first[lo:hi][here] + n], sizes[here]
            sel = slice(None) if n == 0 else np.flatnonzero(np.repeat(here, sizes))
            index = np.repeat(base[cell], cells)
            index += np.repeat(sj[cell], cells) * oj.take(t[sel])
            index += np.repeat(sk[cell], cells) * ok.take(t[sel])
            v = values.take(index)
            np.conjugate(v, out=v, where=np.repeat(flip[cell], cells))
            np.negative(v, out=v, where=np.repeat(negate[cell], cells))
            part[sel] += v
        part -= kern.take(t) * np.repeat(share[lo:hi], sizes)
        rows[e0:e1] = np.repeat(columns[lo:hi], sizes) + place.take(t)
    if np.isnan(exact).any():
        s = np.repeat(columns, size)[np.isnan(exact).argmax()]
        raise RuntimeError(f"rim column {divmod(int(s), N)} reads a node the D4 maps do not keep")
    indptr = np.zeros(N * N + 1, dtype=np.int32)
    indptr[columns + 1] = size
    return sp.csc_matrix((exact, rows, np.cumsum(indptr, dtype=np.int32)),
                         shape=(N * N, N * N))


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
        N = grid.N
        trusted, full, cut = _rim_sets(grid)
        cuts = _cut_cells(grid, cut)
        octant, boxes, areas = _integrals(grid, trusted, cuts)
        self.kernel = _unfold(octant)
        del octant
        self.frac, self.conv_frac = _fractions(full, cuts, areas)
        # the rim's CSR copy sets the build's memory peak: the boxes and the
        # assembly's temporaries are freed before it is made, and its CSC
        # parts before the kernel's FFT, which runs last for that reason
        rim = _rim_columns(grid, self.kernel, self.conv_frac, full, trusted, cuts, boxes)
        del boxes
        self._rim_correction = rim.tocsr()
        del rim
        self._pad = next_fast_len(2 * N - 1)
        self._kernel_fft = fft2(self.kernel, s=(self._pad, self._pad))

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
    g = phi.grid
    diff = interior_wirtinger(cg_apply(op, phi).values, g)[1] - phi.values[g.interior]
    return float(np.max(np.linalg.norm(diff, axis=-1)))
