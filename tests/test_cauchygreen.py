import gc
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft2, ifft2
from scipy.integrate import quad

from jdisk import cauchygreen, diskgrid
from jdisk.cauchygreen import (_NEAREST, CGOperator, _clipped_cell_pieces,
                               _clipped_region_integral_many, _contour_nodes, _region_area,
                               _rim_sets, cg_apply, cg_build, cg_residual)
from jdisk.diskgrid import DiskGrid, DiskMap, d_dzbar, make_grid
from jdisk.errors import GridMismatch
from jdisk.kobayashi import KobayashiOptions, estimate_distance
from jdisk.structure import gallery

from conftest import cell_weight, complex_map


def cell_integral_2d_oracle(d, h, m=32):
    """Tensor Gauss integration of 1/(d - eta) over the square cell of side h."""
    nodes, weights = leggauss(m)
    x = 0.5 * h * nodes
    wx = 0.5 * h * weights
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wx, wx)
    return np.sum(W / (d - (X + 1j * Y)))


def overlap_area_oracle(x0, x1, y0, y1, r):
    """Area of [x0, x1] x [y0, y1] inside |z| <= r: adaptive quadrature of
    the height of the overlap over x, split where that height has kinks."""
    def height(x):
        g = np.sqrt(max(r * r - x * x, 0.0))
        return max(0.0, min(y1, g) - max(y0, -g))

    a, b = max(x0, -r), min(x1, r)
    kinks = [s * np.sqrt(r * r - c * c) for c in (y0, y1) if abs(c) < r for s in (-1, 1)]
    kinks = [x for x in kinks if a < x < b]
    value, _ = quad(height, a, b, points=kinks or None, epsabs=1e-14 * (x1 - x0) ** 2,
                    epsrel=1e-13, limit=200)
    return value


@pytest.fixture(scope="module")
def g33():
    return make_grid(1.0, 33)


@pytest.fixture(scope="module")
def op33(g33):
    return cg_build(g33)


def test_self_cell_weight_is_zero(op33):
    assert cell_weight(op33, 0, 0) == 0


def test_cell_weights_match_area_quadrature_oracle(op33, g33):
    h = g33.h
    for dj, dk in [(1, 0), (1, 1), (0, 2), (-2, 1), (2, 2), (-1, -1),
                   (7, 3), (0, 12), (-20, 5)]:
        oracle = cell_integral_2d_oracle(h * complex(dj, dk), h) / np.pi
        got = cell_weight(op33, dj, dk)
        assert abs(got - oracle) < 1e-13 * max(1.0, abs(oracle))


def test_far_cell_midpoint_weight_second_order():
    # the midpoint weight area/(pi (z - center)) is within O(h^2) of the
    # exact cell integral at fixed physical distance; the implementation
    # stores the exact integral, which the oracle confirms
    d = complex(0.35, 0.2)
    rel = []
    for N in (33, 65):
        h = 2.0 / (N - 1)
        exact = cell_integral_2d_oracle(d, h) / np.pi
        mid = h * h / (np.pi * d)
        rel.append(abs(mid - exact) / abs(exact))
        assert rel[-1] < h * h  # comfortably within the O(h^2) bound
    # the kernel is harmonic off the pole, so the h^2 term cancels and the
    # gap actually shrinks at fourth order
    assert 12.0 < rel[0] / rel[1] < 20.0


def test_boundary_cells_weighted_by_inside_fraction(op33, g33):
    g = g33
    frac = op33.frac
    assert np.all(frac[g.interior] == 1.0)
    rim = g.mask & ~g.interior
    assert frac[rim].min() > 0.0
    assert frac[rim].min() < 1.0
    # the disk area unaccounted for by retained cells is donated back, so
    # the effective source mass matches the disk area to rounding
    covered = op33.conv_frac.sum() * g.h * g.h
    assert covered == pytest.approx(np.pi * g.r ** 2, rel=1e-12)


@pytest.mark.parametrize("N", [9, 33, 129, 257])
@pytest.mark.parametrize("r", [0.37, 1.0, 2.5])
def test_contour_area_of_every_cut_cell_matches_quadrature(N, r):
    g = make_grid(r, N)
    half, cell = 0.5 * g.h, g.h * g.h
    cells = list(zip(*np.nonzero(_rim_sets(g)[2])))
    assert len(cells) >= 4 * (N - 1)
    for j, k in cells:
        x0, x1 = g.X[j, k] - half, g.X[j, k] + half
        y0, y1 = g.Y[j, k] - half, g.Y[j, k] + half
        got = _region_area(_clipped_cell_pieces(x0, x1, y0, y1, r), r)
        assert abs(got - overlap_area_oracle(x0, x1, y0, y1, r)) <= 1e-10 * cell, (j, k)


@pytest.mark.parametrize("box", [(-3.0, 3.0, -4.0, 4.0), (-3.0, 3.0, -4.0, 10.0)])
def test_a_corner_on_the_circle_is_one_circle_hit(box):
    # the circle of radius 5 passes exactly through the corners (+-3, +-4),
    # and each such corner is hit from both of its edges; counted twice, it
    # closes a whole circle whose midpoint, the opposite corner, is in the box
    r = 5.0
    got = _region_area(_clipped_cell_pieces(*box, r), r)
    assert abs(got - overlap_area_oracle(*box, r)) <= 1e-12 * r * r


def test_a_sliver_goes_to_the_nearest_retained_node():
    # N = 9, r = 1: the cut cell (0, 6) at (-1, 0.5) lies off the disk, and
    # of its neighbours only (1, 6), one axis step away, and (1, 5), a
    # diagonal step that comes first in scan order, are retained.  The cut
    # cell (1, 7) at (-0.75, 0.75), also off the disk, has two retained axis
    # neighbours, (1, 6) and (2, 7), and the tie goes to the first in scan
    # order.  (1, 6) is cut itself, so it keeps its own inside area and
    # carries both slivers.
    g = make_grid(1.0, 9)
    op = CGOperator(g)
    half = 0.5 * g.h

    def area(j, k):
        x, y = g.X[j, k], g.Y[j, k]
        return overlap_area_oracle(x - half, x + half, y - half, y + half, 1.0) / g.h ** 2

    assert g.mask[1, 6] and g.mask[1, 5] and not (g.mask[0, 6] or g.mask[1, 7])
    assert abs(op.frac[1, 6] - area(1, 6)) <= 1e-10
    assert abs(op.conv_frac[1, 6] - (area(1, 6) + area(0, 6) + area(1, 7))) <= 1e-10
    assert op.frac[1, 5] == 1.0


def test_rim_columns_and_fractions_do_not_depend_on_the_radius():
    # cut cells are assigned to columns in lattice steps, so even at
    # r = 1e-7, where squared node distances are about 4e-17, the columns
    # are those of r = 1
    N = 33
    unit = CGOperator(make_grid(1.0, N))
    columns = np.unique(unit._rim_correction.indices)
    for r in (1e-7, 0.37, 2.5, 40.0):
        op = CGOperator(make_grid(r, N))
        assert np.array_equal(np.unique(op._rim_correction.indices), columns), r
        assert np.max(np.abs(op.conv_frac - unit.conv_frac)) <= 1e-11, r
        assert np.max(np.abs(op.frac - unit.frac)) <= 1e-11, r


# The generators of the square's symmetry group D4 as (name, map of lattice
# index pairs of an odd N, image of a value at the mapped point): a value
# at L d is conj(u) v when L z = u z and conj(u) conj(v) when L z = u conj(z).
def d4_generators(N):
    n = N - 1
    return [("i conj", lambda j, k: (k, j), lambda v: -1j * np.conj(v)),
            ("conj", lambda j, k: (j, n - k), np.conj),
            ("-conj", lambda j, k: (n - j, k), lambda v: -np.conj(v))]


def carried_cells(g):
    """Column -> set of cut cells it carries, by the build's nearest-node rule."""
    _, _, cut = _rim_sets(g)
    out = {}
    for j, k in zip(*np.nonzero(cut)):
        column = next((j + dj, k + dk) for dj, dk in _NEAREST
                      if 0 <= j + dj < g.N and 0 <= k + dk < g.N and g.mask[j + dj, k + dk])
        out.setdefault((int(column[0]), int(column[1])), set()).add((int(j), int(k)))
    return out


@pytest.mark.parametrize("N", list(range(9, 258, 2)) + [513, 1025])
def test_cell_sets_are_d4_symmetric(N):
    # the premise of the octant build: every set it reads is mapped onto
    # itself by the square's symmetries
    for r in (0.37, 1.0, 2.5):
        g = make_grid(r, N)
        for sel in (g.mask, *_rim_sets(g)):
            assert np.array_equal(sel, sel.T), (N, r)
            assert np.array_equal(sel, sel[::-1]), (N, r)
            assert np.array_equal(sel, sel[:, ::-1]), (N, r)


@pytest.mark.parametrize("N", [9, 33, 129])
def test_kernel_and_fractions_are_exactly_d4_invariant(N):
    op = CGOperator(make_grid(1.0, N))
    for name, L, image in d4_generators(2 * N - 1):
        assert np.array_equal(op.kernel[L(*np.indices(op.kernel.shape))], image(op.kernel)), name
    for name, L, _ in d4_generators(N):
        assert np.array_equal(op.frac[L(*np.indices((N, N)))], op.frac), name


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_rim_correction_is_d4_invariant_where_the_columns_are(r):
    # the scan-order tie-break of _NEAREST is not symmetric, so a column's
    # image need not carry the images of its cells; where it does, the
    # column's image is the image of the column.  A column of one cell is
    # one exact value transform; sums of several cells are added in scan
    # order, which mirrors can reverse, so those agree to round-off
    N = 33
    g = make_grid(r, N)
    op = CGOperator(g)
    dense = op._rim_correction.toarray().reshape(N, N, N, N)
    top = np.abs(dense).max()
    carried = carried_cells(g)
    tj, tk = np.indices((N, N))
    compared = 0
    for name, L, image in d4_generators(N):
        for column, cells in carried.items():
            mirrored = L(*column)
            if {L(*cell) for cell in cells} != carried.get(mirrored):
                continue
            got = dense[(*L(tj, tk), *mirrored)]      # at (L t, L column)
            want = image(dense[..., column[0], column[1]])
            if len(cells) == 1:
                assert np.array_equal(got, want), (name, column)
                assert op.conv_frac[mirrored] == op.conv_frac[column]
            assert np.max(np.abs(got - want)) <= 1e-15 * top, (name, column)
            assert abs(op.conv_frac[mirrored] - op.conv_frac[column]) <= 1e-15
            compared += 1
    assert compared > 1.5 * len(carried)    # most of the 3 * len(carried) pairs


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_rim_columns_match_their_cells_own_integrals(r):
    # every column against the integrals over its cells' own contour pieces,
    # which guards each sign of the value transforms (a wrong one is off by
    # the size of the entry); the cancelling contour terms and the cells'
    # own, not mirrored, coordinates leave about 1e-13 of the largest entry
    N = 33
    g = make_grid(r, N)
    op = CGOperator(g)
    trusted, full, _ = _rim_sets(g)
    rim = op._rim_correction.tocsc()
    top = np.abs(rim.data).max()
    nodes, weights = leggauss(cauchygreen._EDGE_GAUSS)
    half, m = 0.5 * g.h, cauchygreen._correction_radius(N)
    for (js, ks), cells in carried_cells(g).items():
        box = np.zeros((N, N), dtype=bool)
        box[max(js - m, 0):js + m + 1, max(ks - m, 0):ks + m + 1] = True
        jt, kt = np.nonzero(trusted & box)
        pieces = [piece for j, k in cells
                  for piece in _clipped_cell_pieces(g.X[j, k] - half, g.X[j, k] + half,
                                                    g.Y[j, k] - half, g.Y[j, k] + half, r)]
        exact = _clipped_region_integral_many(
            g.Z[jt, kt], _contour_nodes(pieces, r, nodes, weights)) / np.pi
        kern = op.kernel[N - 1 + jt - js, N - 1 + kt - ks]
        want = exact - (op.conv_frac[js, ks] - full[js, ks]) * kern
        column = rim[:, js * N + ks]
        assert np.array_equal(np.sort(column.indices), np.sort(jt * N + kt))
        got = column.toarray().ravel()[jt * N + kt]
        assert np.max(np.abs(got - want)) <= 1e-12 * top, (js, ks)


def test_build_integrates_one_octant(monkeypatch):
    # a deterministic work count: the contour rule runs once for the kernel's
    # cell and once per octant representative of the cut cells, on their
    # targets within the near radius only (85,937 targets before the far
    # series took the rest)
    calls, targets = [], []

    def counting(ds, *args):
        calls.append(1)
        targets.append(len(ds))
        return _clipped_region_integral_many(ds, *args)

    monkeypatch.setattr(cauchygreen, "_clipped_region_integral_many", counting)
    N = 129
    g = make_grid(1.0, N)
    trusted, _, cut = _rim_sets(g)
    c, m = (N - 1) // 2, cauchygreen._correction_radius(N)
    octant_cut = int(np.count_nonzero(np.tril(cut[c:, c:])))
    # the kernel's near targets (dj, dk), 0 <= dk <= dj, dj^2 + dk^2 < 3.5^2
    near = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
    padded, radius2 = np.pad(trusted, 3), cauchygreen._NEAR_RADIUS ** 2
    for j, k in zip(*np.nonzero(np.tril(cut[c:, c:]))):
        near += [(j, k, dj, dk) for dj in range(-3, 4) for dk in range(-3, 4)
                 if dj * dj + dk * dk < radius2 and padded[c + 3 + j + dj, c + 3 + k + dk]]
    assert cauchygreen._NEAR_RADIUS < m + 1           # the near places lie in the box
    CGOperator(g)
    assert octant_cut == 65
    assert len(calls) == 1 + octant_cut
    assert sum(targets) == len(near) == 722


@pytest.mark.parametrize("N, most", [(129, 20), (257, 140)])
def test_build_frees_each_phase_before_the_next(N, most):
    # the build's live peak in MiB, as numpy reports its buffers to
    # tracemalloc; glibc's resident figure follows it only in part.  It
    # keeps 9.4 MiB at N = 129 and 69.0 MiB at N = 257, and peaks at 17.8
    # and 127.3 MiB where the rim's CSR copy sits beside its CSC parts.
    # A build that holds the representatives' boxes and the assembly's
    # temporaries through that copy peaks at 26.4 and 199.1 MiB
    tracemalloc.start()
    try:
        CGOperator(make_grid(1.0, N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most * 2 ** 20


def _cells_and_integrals(N, r):
    """The build's kernel octant and boxes, with each cell's contour nodes
    about its own node, built here from its pieces."""
    g = make_grid(r, N)
    trusted, _, cut = _rim_sets(g)
    cuts = cauchygreen._cut_cells(g, cut)
    octant, boxes, _ = cauchygreen._integrals(g, trusted, cuts)
    assert np.array_equal(boxes[1], 1j * boxes[0], equal_nan=True)
    half, c = 0.5 * g.h, (N - 1) // 2
    gauss = leggauss(cauchygreen._EDGE_GAUSS)
    cells = [(c, c)] + list(zip(c + cuts.ra, c + cuts.rb))
    contours = [_contour_nodes(_clipped_cell_pieces(g.X[j, k] - half, g.X[j, k] + half,
                                                    g.Y[j, k] - half, g.Y[j, k] + half, r),
                               r, *gauss, g.Z[j, k]) for j, k in cells]
    return g, octant, boxes[0], contours


@pytest.mark.parametrize("N", [33, 65, 129])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_far_series_is_the_contour_rule(N, r):
    # every octant entry and every trusted box node against the contour rule
    # at the same lattice offset.  The scale is the largest full-cell
    # integral: the rule's round-off is set by a cell's side, not its inside
    # area, so a sliver's box reads its own largest value only to about
    # 3e-15 (measured up to N = 129)
    g, octant, boxes, contours = _cells_and_integrals(N, r)
    h, m = g.h, cauchygreen._correction_radius(N)
    dj, dk = (i[1:] for i in np.tril_indices(N))
    want = _clipped_region_integral_many(h * (dj + 1j * dk), contours[0]) / np.pi
    top = np.abs(want).max()
    assert np.max(np.abs(octant[dj, dk] - want)) <= 1e-15 * top
    for box, contour in zip(boxes, contours[1:]):
        oj, ok = np.nonzero(np.isfinite(box))
        want = _clipped_region_integral_many(h * (oj - m - 1 + 1j * (ok - m - 1)), contour) / np.pi
        assert np.max(np.abs(box[oj, ok] - want)) <= 1e-15 * top


@pytest.mark.parametrize("N", [33, 129])
def test_both_rules_agree_across_the_near_radius(N):
    # lattice offsets from 3 to 4 steps straddle the switch at 3.5 h: the
    # series already matches the contour rule inside it, so the switch is
    # seamless (test_build_integrates_one_octant counts the targets below it)
    g, _, _, contours = _cells_and_integrals(N, 1.0)
    moments = cauchygreen._moments(contours)
    steps = np.array([3, 3 + 1j, 3 + 2j, 2 + 3j, 4, 4 + 1j, 1 + 4j, -3 - 2j, 2 - 3j, -4 + 1j])
    assert np.array_equal(np.abs(steps) < cauchygreen._NEAR_RADIUS, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    ds = g.h * steps
    series = cauchygreen._far_field(1.0 / ds, moments)
    top = np.abs(_clipped_region_integral_many(np.array([g.h]), contours[0]))[0]
    for i, contour in enumerate(contours):
        assert np.max(np.abs(series[i] - _clipped_region_integral_many(ds, contour))) <= 1e-15 * top


def test_series_terms_and_cell_moments():
    # every one of the _SERIES_TERMS terms counts: with M_k = 1 the series is
    # a geometric sum, which a dropped term misses by w^24 of it
    K = cauchygreen._SERIES_TERMS
    w = np.array([0.9, -0.5j, 0.3 + 0.4j])
    got = cauchygreen._far_field(w, np.ones((K, 1)))[0]
    assert np.allclose(got, w * (1 - w ** K) / (1 - w), rtol=1e-14, atol=0)
    # a cell's moments are the integrals of (eta - c)^k over it, which a
    # tensor Gauss rule gives exactly; about the centre of a square they are
    # 0 unless 4 divides k, about its corner none is
    h = 0.25
    x, wx = leggauss(16)
    for x0, centre in ((-h / 2, 0j), (0.0, 0j), (-h / 2, complex(-h / 2, -h / 2))):
        pieces = _clipped_cell_pieces(x0, x0 + h, x0, x0 + h, 1.0)
        contour = _contour_nodes(pieces, 1.0, *leggauss(cauchygreen._EDGE_GAUSS), centre)
        moments = cauchygreen._moments([contour])[:, 0]
        eta = complex(x0, x0) - centre + 0.5 * h * ((1 + x[:, None]) + 1j * (1 + x[None, :]))
        want = [np.sum(np.outer(wx, wx) * eta ** k) * h * h / 4 for k in range(K)]
        scale = np.abs(eta).max() ** np.arange(K) * h * h
        assert np.all(np.abs(moments - want) <= 1e-14 * scale), (x0, centre)
        if x0 == -h / 2 and centre == 0:
            assert np.all(np.abs(moments[np.arange(K) % 4 != 0]) <= 1e-15 * scale[np.arange(K) % 4 != 0])


def rim_reference(g, op, boxes):
    """The rim correction assembled column by column from the build's boxes,
    as the build did before its arrays: each column's trusted targets,
    each carried cell's box value at L^-1 t with its exact value transform,
    summed in scan order, less the convolution's share of the kernel."""
    N, c, m = g.N, (g.N - 1) // 2, cauchygreen._correction_radius(g.N)
    W = boxes.shape[2]
    trusted, full, cut = _rim_sets(g)
    cuts = cauchygreen._cut_cells(g, cut)
    rep_of = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(cuts.ra, cuts.rb))}
    padded = np.pad(trusted, m + 1)
    rows, cols, vals = [], [], []
    for (js, ks), cells in carried_cells(g).items():
        jt, kt = np.nonzero(padded[js + 1:js + 2 * m + 2, ks + 1:ks + 2 * m + 2])
        jt, kt = jt + js - m, kt + ks - m
        dj, dk = jt - c, kt - c
        exact = np.zeros(jt.size, dtype=np.complex128)
        for j, k in sorted(cells):                  # scan order
            ra, rb = max(abs(j - c), abs(k - c)), min(abs(j - c), abs(k - c))
            sa, sb, swap = (-1 if j < c else 1), (-1 if k < c else 1), abs(k - c) > abs(j - c)
            p, q = (sb * dk, sa * dj) if swap else (sa * dj, sb * dk)
            v = boxes[0, rep_of[ra, rb]].ravel()[(p - ra + m + 1) * W + q - rb + m + 1]
            v = np.conj(v) if swap ^ (sa < 0) ^ (sb < 0) else v
            exact += (-1j * sb if swap else sa) * v
        kern = op.kernel[N - 1 + jt - js, N - 1 + kt - ks]
        rows.append((jt * N + kt).astype(np.int32))
        cols.append(np.full(jt.size, js * N + ks, dtype=np.int32))
        vals.append(exact - (op.conv_frac[js, ks] - full[js, ks]) * kern)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N * N, N * N)).tocsr()


@pytest.mark.parametrize("N, r", [(9, 1.0), (33, 1.0), (33, 2.5), (65, 2.5), (129, 1.0)])
def test_rim_assembly_is_the_column_loop_to_the_bit(N, r):
    g = make_grid(r, N)
    trusted, full, cut = _rim_sets(g)
    cuts = cauchygreen._cut_cells(g, cut)
    _, boxes, _ = cauchygreen._integrals(g, trusted, cuts)
    op = CGOperator(g)
    want = rim_reference(g, op, boxes)
    got = cauchygreen._rim_columns(g, op.kernel, op.conv_frac, full, trusted, cuts, boxes).tocsr()
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert getattr(op._rim_correction, name).tobytes() == getattr(want, name).tobytes(), name


def test_an_asymmetric_trusted_set_fails_the_build():
    # drop one trusted node of the first octant: its mirror images stay
    # trusted and read it through their representatives' boxes
    g = make_grid(1.0, 33)
    g.R2[16 + 10, 16 + 3] = 4.0
    with pytest.raises(RuntimeError, match="D4"):
        CGOperator(g)


def test_transform_of_zero_is_zero(op33, g33):
    g = g33
    zero = DiskMap(g, np.zeros((g.N, g.N, 2)))
    out = cg_apply(op33, zero)
    assert np.all(out.values == 0.0)
    assert cg_residual(op33, zero) == 0.0


def test_transform_matches_dense_row_summation():
    # the FFT convolution plus sparse rim correction must agree with an
    # explicitly assembled dense weight matrix applied row by row
    g = make_grid(1.0, 17)
    op = cg_build(g)
    jj, kk = np.nonzero(g.mask)
    m = jj.size
    dense = np.empty((m, m), dtype=np.complex128)
    for a in range(m):
        for b in range(m):
            dense[a, b] = cell_weight(op, jj[a] - jj[b], kk[a] - kk[b]) \
                * op.conv_frac[jj[b], kk[b]]
    flat_a = jj * g.N + kk
    dense += op._rim_correction.toarray()[np.ix_(flat_a, flat_a)]
    rng = np.random.default_rng(7)
    phi_c = rng.normal(size=m) + 1j * rng.normal(size=m)
    vals = np.zeros((g.N, g.N, 2))
    vals[g.mask, 0] = phi_c.real
    vals[g.mask, 1] = phi_c.imag
    phi = DiskMap(g, vals)
    got = cg_apply(op, phi).component_complex(0)[g.mask]
    want = dense @ phi_c
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("N", [9, 33, 129])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_pruned_apply_is_the_full_padded_convolution(N, r):
    # apply_complex transforms only the rows the density fills and the rows
    # it reads; the unpruned padded convolution gives the same to round-off
    op = cg_build(make_grid(r, N))
    rng = np.random.default_rng(N)
    phi = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    phi[~op.mask] = np.nan                     # off the disk it is never read
    raw = np.where(op.mask, phi, 0.0)
    M = op._pad
    conv = ifft2(fft2(op.conv_frac * raw, s=(M, M)) * op._kernel_fft)
    bulk = conv[N - 1:2 * N - 1, N - 1:2 * N - 1]
    rim = (op._rim_correction @ raw.ravel()).reshape(N, N)
    want = np.where(op.mask, (bulk + rim) * r, 0.0)
    got = op.apply_complex(phi)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(got[~op.mask] == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_apply_reads_every_memory_layout_to_the_bit(n):
    g = make_grid(2.5, 33)
    op = cg_build(g)
    vals = np.random.default_rng(n).standard_normal((33, 33, 2 * n))
    want = cg_apply(op, vals)
    wide = np.zeros((33, 33, 4 * n))
    wide[..., ::2] = vals
    swapped = vals.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    for layout in (np.asfortranarray(vals), wide[..., ::2], swapped):
        assert cg_apply(op, layout).tobytes() == want.tobytes()
    # each component (x, y) is the complex value x + iy, transformed alone
    for m in range(n):
        w = op.apply_complex(vals[..., 2 * m] + 1j * vals[..., 2 * m + 1])
        assert np.array_equal(want[..., 2 * m], w.real)
        assert np.array_equal(want[..., 2 * m + 1], w.imag)


def test_apply_never_writes_into_its_input(op33, g33):
    vals = np.random.default_rng(3).standard_normal((33, 33, 4))
    for layout in (vals, np.asfortranarray(vals), vals[..., ::-1]):
        before = layout.copy()
        layout.setflags(write=False)           # a write would raise
        cg_apply(op33, layout)
        cg_apply(op33, DiskMap(g33, layout))
        assert np.array_equal(layout, before, equal_nan=True)
        layout.setflags(write=True)


def test_transform_analytic_identities_for_polynomial_densities():
    # closed forms on the unit disk: P(1) = zbar, P(z) = |z|^2 - 1,
    # P(zbar) = zbar^2 / 2
    g = make_grid(1.0, 65)
    op = cg_build(g)
    inner = g.interior
    p1 = cg_apply(op, complex_map(g, lambda z: np.ones_like(z))).component_complex(0)
    assert np.abs(p1 - np.conj(g.Z))[inner].max() < 5e-4
    pz = cg_apply(op, complex_map(g, lambda z: z)).component_complex(0)
    assert np.abs(pz - (g.R2 - 1.0))[inner].max() < 5e-3
    pzb = cg_apply(op, complex_map(g, np.conj)).component_complex(0)
    assert np.abs(pzb - 0.5 * np.conj(g.Z) ** 2)[inner].max() < 5e-3


def test_transform_of_constant_density_is_zbar():
    g = make_grid(1.0, 129)
    op = cg_build(g)
    one = complex_map(g, lambda z: np.ones_like(z))
    out = cg_apply(op, one).component_complex(0)
    err = np.abs(out - np.conj(g.Z))[g.interior]
    assert np.max(err) < 5e-2


def test_inversion_residual_small_and_first_order():
    densities = {
        "one": lambda z: np.ones_like(z),
        "re": lambda z: (z.real).astype(complex),
        "z": lambda z: z,
    }
    resid = {name: [] for name in densities}
    for N in (33, 65, 129):
        g = make_grid(1.0, N)
        op = cg_build(g)
        for name, fn in densities.items():
            resid[name].append(cg_residual(op, complex_map(g, fn)))
    for name, (r33, r65, r129) in resid.items():
        assert r65 < 5e-2, name
        assert r33 > r65 > r129, name
        assert np.log2(r33 / r65) >= 1.0, name
        assert np.log2(r65 / r129) >= 1.0, name


def test_quadratic_density_residual_improves_with_resolution():
    vals = []
    for N in (33, 65, 129):
        g = make_grid(1.0, N)
        vals.append(cg_residual(cg_build(g), complex_map(g, lambda z: z ** 2)))
    assert vals[0] > vals[1] > vals[2]
    assert np.log2(vals[0] / vals[1]) >= 1.0
    assert np.log2(vals[1] / vals[2]) >= 1.0


def test_dzbar_of_transform_reproduces_linear_density(grid65):
    op = cg_build(grid65)
    phi = complex_map(grid65, lambda z: z)
    rec = d_dzbar(cg_apply(op, phi)).component_complex(0)
    err = np.abs(rec - grid65.Z)[grid65.interior]
    assert np.max(err) < 5e-2


def test_linearity(grid65, rng):
    op = cg_build(grid65)
    phi = complex_map(grid65, lambda z: np.sin(z.real) + 1j * z.imag)
    psi = complex_map(grid65, lambda z: z ** 2)
    a, b = 0.7, -1.3
    combo = DiskMap(grid65, a * phi.values + b * psi.values)
    lhs = cg_apply(op, combo).values
    rhs = a * cg_apply(op, phi).values + b * cg_apply(op, psi).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_output_bounded_by_input(grid65):
    op = cg_build(grid65)
    ratios = []
    for fn in (lambda z: np.ones_like(z), lambda z: z, lambda z: z ** 2,
               lambda z: np.exp(z.real) + 0j):
        phi = complex_map(grid65, fn)
        out = cg_apply(op, phi)
        ratios.append(np.max(np.abs(out.values[grid65.mask]))
                      / np.max(np.abs(phi.values[grid65.mask])))
    bound = max(ratios)
    print(f"measured transform bound sup|P phi| / sup|phi| = {bound:.4f}")
    assert bound < 4.0


def test_grid_mismatch_rejected(op33, grid65):
    phi = complex_map(grid65, lambda z: z)
    with pytest.raises(GridMismatch):
        cg_apply(op33, phi)


def test_built_grid_is_freed_without_a_cycle_collection():
    # the grid caches its operator, so an operator pointing back at the
    # grid would leave both as cyclic garbage until a full collection
    g = make_grid(1.0, 9)
    cg_build(g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("N", [9, 33, 65])
def test_shared_operator_at_unit_radius_is_a_fresh_build(N, monkeypatch):
    # the shared operator is first asked for by a grid of another radius,
    # so it is built on a temporary unit grid; a fresh build on a caller's
    # unit grid must match it bit for bit
    monkeypatch.setattr(diskgrid, "_unit_sets", OrderedDict())
    cg_build(make_grid(2.5, N))
    g = make_grid(1.0, N)
    shared, fresh = cg_build(g), CGOperator(g)
    assert shared is cg_build(make_grid(1.0, N))
    for name in ("kernel", "frac", "conv_frac", "mask"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert (shared._rim_correction != fresh._rim_correction).nnz == 0
    phi = complex_map(g, lambda z: np.exp(z) + 1j * z.conj())
    assert np.array_equal(cg_apply(shared, phi).values, cg_apply(fresh, phi).values)


@pytest.mark.parametrize("N", [33, 65])
@pytest.mark.parametrize("r", [0.37, 2.5, 40.0])
def test_scaled_operator_matches_a_fresh_build(N, r):
    g = make_grid(r, N)
    op = cg_build(g)
    assert op.r == r and op.kernel is cg_build(make_grid(1.0, N)).kernel
    fresh = CGOperator(g)
    phi = complex_map(g, lambda z: np.exp(z / r) + 1j * (z / r).conj() ** 2)
    got, want = cg_apply(op, phi).values, cg_apply(fresh, phi).values
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    assert cell_weight(op, 3, -1) == pytest.approx(cell_weight(fresh, 3, -1), rel=1e-13)


def test_scaled_operator_rejects_another_radius():
    op = cg_build(make_grid(2.5, 33))
    with pytest.raises(GridMismatch):
        cg_apply(op, complex_map(make_grid(1.0, 33), lambda z: z))
    with pytest.raises(GridMismatch):
        cg_apply(cg_build(make_grid(1.0, 33)), complex_map(make_grid(2.5, 33), lambda z: z))


def test_second_distance_estimate_builds_no_operator(monkeypatch):
    built = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(CGOperator, "__init__", counting("cg", CGOperator.__init__))
    monkeypatch.setattr(DiskGrid, "_difference_matrix",
                        counting("diff", DiskGrid._difference_matrix))
    monkeypatch.setattr(diskgrid, "_unit_sets", OrderedDict())
    J = gallery("conjugated", epsilon=0.2)
    p, q = np.zeros(2), np.array([0.3, 0.0])
    opts = KobayashiOptions(t_grid=(0.5,), k_max=1)
    first = estimate_distance(J, p, q, opts)
    assert sorted(built) == ["cg", "diff"]
    built.clear()
    second = estimate_distance(J, p, q, opts)
    assert built == []
    assert second.upper == first.upper
