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
of contour pieces from one counterclockwise walk round the cell: first
each edge clipped to its chord of the disk, then a circular arc wherever
one kept piece ends off the next one's start.  The list gives both the
cell's inside area and its exact kernel integral; the four edges of an
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
correction in the CSC form it is assembled in: 9.4 MiB at N = 129 and
69.0 MiB at N = 257, most of it the rim.  The build's phases free their
arrays before the next allocates: the octant once the kernel is unfolded,
the representatives' boxes once the rim is assembled, before the kernel's
FFT.  The peak lies inside the rim assembly, where the rim's entries, their
rows and window places sit beside the boxes.  With numpy 2.4 and scipy 1.17
the live peak (tracemalloc) is 17.2 MiB at N = 129 and 124.1 MiB at
N = 257; a process that only builds one operator peaks 20 and 139 MiB above
the resident size of its imports.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, fft2, ifft, next_fast_len

from .diskgrid import DiskGrid, DiskMap, interior_wirtinger
from .errors import GridMismatch, InvalidGrid

_EDGE_GAUSS = 24       # quadrature points per contour piece
# A target fewer than _NEAR_RADIUS lattice steps from a cell's centre c
# takes the contour rule, a farther one the cell's first _SERIES_TERMS
# Laurent terms.  The cell lies within h / sqrt(2) of c, so the k-th term
# is at most rho^k times the first, rho = (h / sqrt 2) / (3.5 h) ~= 0.20,
# and the dropped tail at most rho^24 / (1 - rho) ~= 3e-17 of it.
_NEAR_RADIUS = 3.5
_SERIES_TERMS = 24
_RIM_BLOCK = 1 << 15   # rim entries assembled at a time
_GAUSS = leggauss(_EDGE_GAUSS)

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


def _complex(x, y) -> np.ndarray:
    """The complex array x + iy, formed exactly."""
    z = np.empty(np.shape(x), dtype=np.complex128)
    z.real, z.imag = x, y
    return z


class _Contours(NamedTuple):
    """The clipped boundaries of a batch of cells, node-major: column i
    holds cell i's Gauss nodes eta, measured from its centre, and their
    boundary-form coefficients, each node's weight times conj(eta) d eta,
    in its first ``size[i]`` rows, then zeros; and each cell's inside
    area."""
    eta: np.ndarray
    coeff: np.ndarray
    size: np.ndarray
    area: np.ndarray


def _cell_contours(x0, x1, y0, y1, r, centre=0j) -> _Contours:
    """The counterclockwise boundaries of the cells [x0,x1]x[y0,y1], given
    as arrays of one shape (or scalars, one cell), intersected with the
    disk |z| <= r, each from one walk round its cell: first each edge
    clipped to its chord of the disk (both sets are convex, so an edge keeps
    at most one piece), then a circular arc from each kept chord's end to
    the next one's start wherever the two differ.  Each piece carries
    ``_EDGE_GAUSS`` nodes.  Corners and chords are taken in real arithmetic
    in the order a complex scalar takes it, with no fused multiply-add."""
    x0, x1, y0, y1 = (np.ravel(v).astype(float) for v in np.broadcast_arrays(x0, x1, y0, y1))
    cells, slots = np.arange(x0.size)[:, None], np.arange(4)
    # edge e runs from corner e to corner e + 1
    ax, ay = np.stack([x0, x1, x1, x0], axis=1), np.stack([y0, y0, y1, y1], axis=1)
    bx, by = np.roll(ax, -1, axis=1), np.roll(ay, -1, axis=1)
    dx, dy = bx - ax, by - ay
    a = dx * dx + dy * dy
    b = 2.0 * (ax * dx + ay * dy)
    c = (ax * ax + ay * ay) - r * r
    disc = b * b - 4 * a * c
    hit = disc > 0          # else the line misses the circle or only touches it
    sq = np.sqrt(np.where(hit, disc, 0.0))
    s0 = np.where(np.hypot(ax, ay) <= r, 0.0, np.maximum((-b - sq) / (2 * a), 0.0))
    s1 = np.where(np.hypot(bx, by) <= r, 1.0, np.minimum((-b + sq) / (2 * a), 1.0))
    kept = hit & (s1 - s0 >= 1e-14)
    # the kept chords first, in walk order
    order = np.argsort(~kept, axis=1, kind="stable")
    count = np.count_nonzero(kept, axis=1)[:, None]
    px, py, qx, qy = (np.take_along_axis(v, order, axis=1)
                      for v in (ax + s0 * dx, ay + s0 * dy, ax + s1 * dx, ay + s1 * dy))
    # the arc after chord i runs from its end q to the next chord's start p
    chord, after = slots < count, (slots + 1) % np.maximum(count, 1)
    nx, ny = px[cells, after], py[cells, after]
    arc = chord & (np.hypot(nx - qx, ny - qy) > 1e-12 * r)
    th0, th1 = np.arctan2(qy, qx), np.arctan2(ny, nx)
    th1 = np.where(th1 > th0, th1, th1 + 2 * np.pi)
    th0, th1 = np.where(arc, th0, 0.0), np.where(arc, th1, 0.0)
    # pieces in walk order: the chords, then the arcs; area = imag(sum of
    # conj(p) (q - p) over chords + i r^2 (th1 - th0) over arcs) / 2
    area = np.concatenate([np.where(chord, px * (qy - py) - py * (qx - px), 0.0),
                           np.where(arc, (r * r) * (th1 - th0), 0.0)], axis=1)
    area = np.cumsum(area, axis=1)[:, -1] / 2

    nodes, weights = _GAUSS
    half = _complex(0.5 * (qx - px), 0.5 * (qy - py))[..., None]
    eta = [_complex(0.5 * (px + qx), 0.5 * (py + qy))[..., None] + half * nodes]
    deta = [weights * half]
    half = (0.5 * (th1 - th0))[..., None]
    eta.append(r * np.exp(1j * ((0.5 * (th0 + th1))[..., None] + half * nodes)))
    deta.append(weights * (1j * eta[1] * half))
    eta = np.concatenate(eta, axis=1) - np.reshape(centre, (-1, 1, 1))
    deta = np.concatenate(deta, axis=1)
    # each cell's pieces to the front, as (L, cells) columns padded by zeros
    valid = np.concatenate([chord, arc], axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")[:, :valid.sum(axis=1).max(), None]
    size = np.count_nonzero(valid, axis=1) * nodes.size
    used = np.arange(order.shape[1] * nodes.size)[:, None] < size
    eta, deta = (np.where(used, np.take_along_axis(v, order, axis=1).reshape(x0.size, -1).T, 0)
                 for v in (eta, deta))
    # a named product: ``deta * np.conj(eta)`` on large arrays computes
    # conj(eta) * deta in place of the temporary, which rounds differently
    return _Contours(eta, np.multiply(deta, np.conj(eta)), size, area)


def _clipped_region_integral_many(ds: np.ndarray, contour) -> np.ndarray:
    """Integral of 1/(d - eta) over the region bounded by ``contour`` for
    every d of the 1-D array ``ds`` (all outside the region, and measured
    from the nodes' centre).  ``contour`` is a pair (eta, coeff) of 1-D
    arrays, one closed contour's nodes and boundary-form coefficients (see
    ``_Contours``), or of (nodes, len(ds)) arrays, column t the contour of
    target t; its nodes are summed in order."""
    eta, coeff = (np.reshape(v, (len(v), -1)) for v in contour)
    w = np.asarray(ds, dtype=np.complex128)[None, :] - eta
    return np.divide(coeff, w, out=w).sum(axis=0) / 2j


def _moments(contours: _Contours) -> np.ndarray:
    """The (_SERIES_TERMS, cells) moments M_k = (1/2i) * contour integral
    of eta^k conj(eta) d eta, the integral of eta^k over the cell, from
    each cell's nodes measured from its centre."""
    used = (np.arange(len(contours.eta))[:, None] < contours.size).T
    eta = contours.eta.T[used]
    term = contours.coeff.T[used] / 2j
    moments = np.empty((_SERIES_TERMS, contours.size.size), dtype=np.complex128)
    for k in range(_SERIES_TERMS):
        moments[k] = np.add.reduceat(term, np.cumsum(contours.size) - contours.size)
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
    # cell 0 is the uncut cell at the origin, then the representatives
    x, y = (np.concatenate([[0.0], v[jr, kr]]) for v in (grid.X, grid.Y))
    cells = _cell_contours(x - half, x + half, y - half, y + half, r,
                           np.concatenate([[0j], grid.Z[jr, kr]]))
    moments = _moments(cells)

    # the octant by rows; the singular self cell is exactly 0
    dj, dk = (i[1:] for i in np.tril_indices(N))
    ds = h * (dj + 1j * dk)
    near = dj * dj + dk * dk < _NEAR_RADIUS ** 2
    octant = np.zeros((N, N), dtype=np.complex128)
    octant[dj[~near], dk[~near]] = _far_field(1.0 / ds[~near], moments[:, :1])[0]
    # the boxes by flat place: every far place of every box in one product
    oj, ok = np.divmod(np.arange(W * W), W) - np.array(m + 1)
    box_ds = h * (oj + 1j * ok)
    box_near = oj * oj + ok * ok < _NEAR_RADIUS ** 2
    inbox = sliding_window_view(np.pad(trusted, m + 1), (W, W))[jr, kr].reshape(jr.size, -1)
    stack = np.empty((2, *inbox.shape), dtype=np.complex128)
    boxes = _far_field(np.divide(1.0, box_ds, out=np.zeros_like(box_ds), where=~box_near),
                       moments[:, 1:], out=stack[0])

    # every near target of every cell, the octant's and then the boxes'
    # trusted ones by cell, in one contour rule
    rep, at = np.nonzero(inbox[:, box_near])
    at = np.flatnonzero(box_near)[at]
    n = np.count_nonzero(near)
    cell = np.concatenate([np.zeros(n, dtype=np.intp), rep + 1])
    exact = _clipped_region_integral_many(np.concatenate([ds[near], box_ds[at]]),
                                          (cells.eta.take(cell, axis=1),
                                           cells.coeff.take(cell, axis=1)))
    octant[dj[near], dk[near]] = exact[:n]
    octant /= np.pi
    boxes[rep, at] = exact[n:]
    boxes[~inbox] = np.nan
    boxes /= np.pi
    boxes = boxes.reshape(-1, W, W)
    on = cuts.rb == 0                                   # its own conj image
    boxes[on] = 0.5 * (boxes[on] + np.conj(boxes[on][:, :, ::-1]))
    on = cuts.ra == cuts.rb                             # its own -i conj image
    boxes[on] = 0.5 * (boxes[on] - 1j * np.conj(boxes[on].transpose(0, 2, 1)))
    np.multiply(stack[0], 1j, out=stack[1])
    return octant, stack.reshape(2, -1, W, W), cells.area[1:] / (h * h)


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
    within: as the place ``at`` of (oj, ok) in a B x B window, B = 2m + 1,
    and as the flat lattice index ``rows`` of t; and each column's count of
    them.  A lattice row meets the trusted disk in one run, which each
    window row clips, so both lists step by 1 within a run."""
    N, B = trusted.shape[0], 2 * m + 1
    hit = trusted.any(axis=1)
    first = np.where(hit, trusted.argmax(axis=1), N)    # each lattice row's run
    last = np.where(hit, N - 1 - trusted[:, ::-1].argmax(axis=1), -1)
    js, ks = np.divmod(columns, N)
    j = js[:, None] + np.arange(-m, m + 1)              # each window row's lattice row
    k0 = ks[:, None] - m                                # and first column
    row = np.clip(j, 0, N - 1)
    lo = np.maximum(first[row], k0)
    runs = np.maximum(np.minimum(last[row], k0 + B - 1) - lo + 1, 0) * ((j >= 0) & (j < N))
    size = runs.sum(axis=1)
    kept = runs > 0
    runs = runs[kept]
    # an entry is its run's start plus its place in the list past the run's
    # first entry, and its row is its place shifted by the run's
    start = (np.arange(B) * B + lo - k0)[kept]
    at = np.repeat((start - (np.cumsum(runs) - runs)).astype(np.int32), runs)
    at += np.arange(at.size, dtype=np.int32)
    rows = np.repeat(((row * N + lo)[kept] - start).astype(np.int32), runs)
    rows += at
    return at, rows, size


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
    at, rows, size = _targets(trusted, columns, m)
    oj, ok = np.divmod(np.arange(B * B, dtype=np.int32), B) - np.array(m, dtype=np.int32)

    # L^-1 flips the signs of a, b < 0, then swaps if |b| > |a|; a cell in
    # column s reads its box at base + sj * oj + sk * ok, the offset table
    # row ``lead`` of its (sj, sk) gives the last two terms
    sa, sb = np.where(cuts.j < c, -1, 1), np.where(cuts.k < c, -1, 1)
    swap = np.abs(cuts.k - c) > np.abs(cuts.j - c)
    sj, sk = np.where(swap, sa, sa * W), np.where(swap, sb * W, sb)
    base = ((cuts.rep * W + m + 1 - cuts.ra[cuts.rep]) * W + m + 1 - cuts.rb[cuts.rep]
            + (cuts.column // N - c) * sj + (cuts.column % N - c) * sk)
    _, pick, lead = np.unique(sj * 4 * W + sk, return_index=True, return_inverse=True)
    offset = (sj[pick, None] * oj + sk[pick, None] * ok).ravel()
    lead *= B * B
    # its value is conj(u) times the value or its conj (flip): -i conj (swap),
    # then -conj (a < 0), then conj (b < 0) give conj(u) = -i sb or sa.  A
    # swapped cell reads i times the box, as -i sb v = -sb (i v) and
    # -i sb conj(v) = sb conj(i v), so only signs are left, which ``sign``
    # gives the real and imaginary parts
    flip = swap ^ (sa < 0) ^ (sb < 0)
    negate = np.where(swap, sb * np.where(flip, 1, -1), sa) < 0
    sign = np.ones((flip.size, 2))
    sign[flip, 1] = -1.0
    sign[negate] *= -1.0
    base[swap] += boxes[0].size
    values = boxes.reshape(-1)
    # a full column keeps its own kernel entry: only the slivers it carries
    # are swapped for their exact regions
    kern = kernel[N - 1 - m:N + m, N - 1 - m:N + m].ravel()
    share = conv_frac.ravel()[columns] - full.ravel()[columns]

    exact = np.zeros(at.size, dtype=np.complex128)
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
            index += offset.take(np.repeat(lead[cell], cells) + t[sel])
            v = values.take(index)
            parts = v.view(np.float64).reshape(-1, 2)
            parts *= np.repeat(sign[cell], cells, axis=0)
            part[sel] += v
        part -= kern.take(t) * np.repeat(share[lo:hi], sizes)
    if np.isnan(exact).any():
        s = np.repeat(columns, size)[np.isnan(exact).argmax()]
        raise RuntimeError(f"rim column {divmod(int(s), N)} reads a node the D4 maps do not keep")
    indptr = np.zeros(N * N + 1, dtype=np.int32)
    indptr[columns + 1] = size
    return sp.csc_matrix((exact, rows, np.cumsum(indptr, dtype=np.int32)),
                         shape=(N * N, N * N))


class CGOperator:
    """Precomputed quadrature for the solid Cauchy transform on one grid.

    A build at radius r is r times the unit one, within 1e-14 to 1e-13
    relative, so solves use the unit operator alone (``cg_build``).  It
    keeps ``N``, ``r`` and ``mask``, never a grid."""

    def __init__(self, grid: DiskGrid):
        self.N, self.r, self.mask = grid.N, grid.r, grid.mask
        N = grid.N
        trusted, full, cut = _rim_sets(grid)
        cuts = _cut_cells(grid, cut)
        octant, boxes, areas = _integrals(grid, trusted, cuts)
        self.kernel = _unfold(octant)
        del octant
        self.frac, self.conv_frac = _fractions(full, cuts, areas)
        # kept as assembled: csc_matvec adds each row's terms in ascending
        # column order, as csr_matvec does over the sorted CSR form
        self._rim_correction = _rim_columns(grid, self.kernel, self.conv_frac, full,
                                            trusted, cuts, boxes)
        del boxes
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
        return np.where(self.mask, out, 0.0)


def cg_build(grid: DiskGrid) -> CGOperator:
    """The transform operator of a unit-disk grid, built once per N
    (``DiskGrid.unit_operator``).  Another radius raises ``InvalidGrid``: a
    solve at radius r and node t is the unit solve at node t / r, but for a
    residual per unit of parameter that scales as 1 / r."""
    if grid.r != 1.0:
        raise InvalidGrid(f"disks are solved on the unit disk, got a grid of radius {grid.r!r}")
    return grid.unit_operator("cg", CGOperator)


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
