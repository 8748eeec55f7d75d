import io
import warnings
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from jdisk import diskgrid
from jdisk.brody import _derivative_norms, brody_reparametrize, sup_poincare_derivative
from jdisk.cauchygreen import cg_apply, cg_build, cg_residual
from jdisk.diskgrid import (DiskGrid, DiskMap, d_dz, d_dzbar, eval_interp,
                            interior_wirtinger, make_grid, mobius_swap,
                            node_max, poincare_distance, resample, to_csv)
from jdisk.errors import (InvalidGrid, OutsideDisk, OutsideInterpolationRange)
from jdisk.solver import SolverConfig, two_point_disk
from jdisk.structure import gallery

from conftest import (cmul, complex_map, lattice_difference_matrix, lattice_differences,
                      to_complex)


def test_small_grid_nodes_enumerated_by_hand():
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 3)
    # N = 9, h = 1/4: nodes (a h, b h); row |a| of the disk holds |b| <= 4, 3,
    # 3, 2, 0 and row |a| of the interior (|z| <= 1/2) holds |b| <= 2, 1, 0
    g = make_grid(1.0, 9)

    def rows(widths):
        return {(a / 4, b / 4) for a in range(-4, 5) if abs(a) < len(widths)
                for b in range(-widths[abs(a)], widths[abs(a)] + 1)}

    disk, inner = rows((4, 3, 3, 2, 0)), rows((2, 1, 0))
    assert (len(disk), len(inner)) == (49, 13)
    assert {tuple(p) for p in g.nodes(g.mask)} == disk
    assert {(x, y) for x, y in zip(g.X[g.interior], g.Y[g.interior])} == inner


@pytest.mark.parametrize("N", list(range(9, 258, 2)) + [513, 1025])
def test_ring_rows_read_interior_nodes_and_differences_stay_interior(N):
    # built on a fresh grid, so the shared operator cache is left alone
    g = DiskGrid(1.0, N)
    inner = g.interior.ravel()
    ring = np.flatnonzero(g.mask.ravel() & ~inner)
    assert g.interior[g.center_index]
    ext = g._ring_matrix()[ring]
    assert np.all(ext.getnnz(axis=1) > 0) and inner[ext.indices].all()
    # one x and one y row per interior node, each reading two retained nodes
    D = g._difference_matrix()
    assert D.shape == (2 * int(inner.sum()), N * N)
    assert np.all(D.getnnz(axis=1) == 2) and g.mask.ravel()[D.indices].all()


def ring_matrix_by_walk(g):
    """The ring extension built node by node: each ring node walks inward
    along its dominant lattice axis to the first interior node."""
    N, c2 = g.N, g.N - 1
    idx = np.arange(N * N).reshape(N, N)
    inner = np.flatnonzero(g.interior)
    rows, cols, vals = list(inner), list(inner), [1.0] * inner.size
    for j, k in zip(*np.nonzero(g.mask & ~g.interior)):
        if abs(2 * j - c2) >= abs(2 * k - c2):
            dj, dk = (-1 if 2 * j > c2 else 1), 0
        else:
            dj, dk = 0, (-1 if 2 * k > c2 else 1)
        dist = 1
        while not g.interior[j + dist * dj, k + dist * dk]:
            dist += 1
        ja, ka = j + dist * dj, k + dist * dk
        if g.interior[ja + dj, ka + dk]:
            rows += [idx[j, k], idx[j, k]]
            cols += [idx[ja, ka], idx[ja + dj, ka + dk]]
            vals += [1.0 + dist, -float(dist)]
        else:
            rows.append(idx[j, k])
            cols.append(idx[ja, ka])
            vals.append(1.0)
    return sp.coo_matrix((np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
                         shape=(N * N, N * N)).tocsr()


def test_ring_matrix_is_the_per_node_walk_to_the_byte():
    for N in range(9, 130, 2):
        got, want = DiskGrid(1.0, N)._ring_matrix(), ring_matrix_by_walk(DiskGrid(1.0, N))
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (N, name)


@pytest.mark.parametrize("N", [9, 33, 129])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_lattice_operators_are_their_coo_builds_to_the_byte(N, r, monkeypatch):
    # the difference and ring-extension matrices write their canonical CSR
    # arrays directly; built from COO triplets and sorted by scipy, with the
    # extension's columns sliced to the interior nodes, they read the same
    monkeypatch.setattr(diskgrid, "_unit_sets", OrderedDict())
    g = DiskGrid(r, N)
    node = np.flatnonzero(g.interior)
    rows = np.arange(2 * node.size)
    cols = np.concatenate([node + N, node + 1, node - N, node - 1])
    vals = np.repeat([0.5 / g.h, -0.5 / g.h], rows.size)
    diff = sp.coo_matrix((vals, (np.tile(rows, 2), cols)), shape=(rows.size, N * N)).tocsr()
    ring = ring_matrix_by_walk(DiskGrid(1.0, N))[:, node]
    for got, want in ((g._difference_matrix(), diff), (g.interior_extension(), ring)):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1.0, 0.37])
def test_one_difference_pair_gives_both_derivatives_to_the_bit(r, n):
    # interior_wirtinger's rows are d_dz and d_dzbar at the interior nodes
    g = make_grid(r, 33)
    v = np.random.default_rng(n).standard_normal((33, 33, 2 * n))
    dz, dzbar = interior_wirtinger(v, g)
    assert dz.tobytes() == d_dz(DiskMap(g, v)).values[g.interior].tobytes()
    assert dzbar.tobytes() == d_dzbar(DiskMap(g, v)).values[g.interior].tobytes()
    # (ux -+ i uy) / 2 per component, from the x and y difference rows
    ux, uy = (to_complex(d) for d in g.differences(v))
    for got, want in ((dz, 0.5 * (ux - 1j * uy)), (dzbar, 0.5 * (ux + 1j * uy))):
        assert np.allclose(to_complex(got), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [9, 33, 129])
@pytest.mark.parametrize("r", [1.0, 0.37, 40.0])
def test_scattered_differences_are_the_lattice_products_to_the_byte(N, r):
    # every derivative reads the interior rows of one difference matrix:
    # those rows, d_dz and d_dzbar (written into a zero lattice), the Brody
    # derivative norms (the x rows alone) and cg_residual equal what the
    # whole-lattice matrices, whose rows off the interior are empty, give
    g = make_grid(r, N)
    inner = g.interior
    rng = np.random.default_rng(N)
    for c in (2, 4):
        v = rng.standard_normal((N, N, c))
        ux, uy = lattice_differences(g, v)
        assert g.differences(v).tobytes() == np.stack([ux[inner], uy[inner]]).tobytes()
        for d, bar in ((d_dz, False), (d_dzbar, True)):
            want = diskgrid._combine(ux.copy(), uy, bar)
            assert d(DiskMap(g, v)).values.tobytes() == DiskMap(g, want).values.tobytes()
        assert _derivative_norms(DiskMap(g, v)).tobytes() == np.linalg.norm(ux, axis=-1).tobytes()
    phi = DiskMap(g, rng.standard_normal((N, N, 2)))
    op = cg_build(g)
    ux, uy = lattice_differences(g, cg_apply(op, phi).values)
    diff = diskgrid._combine(ux, uy, bar=True) - phi.values
    assert cg_residual(op, phi) == float(np.max(np.linalg.norm(diff[inner], axis=-1)))


def test_interior_extension_is_the_ring_extension_of_interior_rows():
    g = make_grid(2.5, 33)
    inner = np.flatnonzero(g.interior)
    rows = np.random.default_rng(5).standard_normal((inner.size, 2))
    full = np.zeros((33 * 33, 2))
    full[inner] = rows
    assert (g.interior_extension() @ rows).tobytes() == (g._ring_matrix() @ full).tobytes()
    assert g.interior_extension() is make_grid(0.5, 33).interior_extension()


@pytest.mark.parametrize("r", [1.0, 0.37])
def test_wirtinger_derivatives_are_zero_on_the_ring(r):
    g = make_grid(r, 33)
    u = DiskMap(g, np.random.default_rng(7).standard_normal((33, 33, 4)))
    ring = g.mask & ~g.interior
    for d in (d_dz, d_dzbar):
        vals = d(u).values
        assert np.all(vals[ring] == 0.0) and np.any(vals[g.interior] != 0.0)


def test_grid_spacing_and_membership():
    g = make_grid(1.0, 9)
    assert g.h == pytest.approx(0.25)
    g2 = make_grid(2.0, 9)
    assert np.all(np.hypot(*g2.nodes(g2.mask).T) <= 2.0 + 1e-12)
    assert g2.interior.sum() < g2.mask.sum()


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 8)
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 1)
    for N in (5, 7):   # below 9 (3 is in the by-hand test)
        with pytest.raises(InvalidGrid):
            make_grid(1.0, N)
    with pytest.raises(InvalidGrid):
        make_grid(-1.0, 9)
    # radii whose square is not a finite normal float
    for r in (1e-170, 1e-320, 1e160, np.inf, np.nan, 0.0):
        with pytest.raises(InvalidGrid):
            make_grid(r, 9)


def test_origin_is_a_node():
    g = make_grid(0.7, 33)
    c = g.center_index
    assert g.X[c] == 0.0 and g.Y[c] == 0.0
    assert g.mask[c]


def test_wirtinger_derivatives_exact_for_z_and_zbar(grid65):
    u = complex_map(grid65, lambda z: z)
    dz = d_dz(u).component_complex(0)
    dzb = d_dzbar(u).component_complex(0)
    inner = grid65.interior
    assert np.max(np.abs(dz[inner] - 1.0)) < 1e-13
    assert np.max(np.abs(dzb[inner])) < 1e-13

    u = complex_map(grid65, np.conj)
    dz = d_dz(u).component_complex(0)
    dzb = d_dzbar(u).component_complex(0)
    assert np.max(np.abs(dz[inner])) < 1e-13
    assert np.max(np.abs(dzb[inner] - 1.0)) < 1e-13


def test_centered_differences_exact_for_quadratics(grid65):
    u = complex_map(grid65, lambda z: z ** 2)
    err = np.abs(d_dz(u).component_complex(0) - 2 * grid65.Z)[grid65.interior]
    assert np.max(err) < 1e-12


def test_derivative_error_second_order_for_cubics():
    # truncation error of the centered stencils shows in d/dzbar of z^3 and
    # d/dz of conj(z)^3; both halve by ~4 when the spacing halves
    errs_zbar, errs_z = [], []
    for N in (65, 129):
        g = make_grid(1.0, N)
        u = complex_map(g, lambda z: z ** 3)
        errs_zbar.append(np.max(np.abs(d_dzbar(u).component_complex(0))[g.interior]))
        w = complex_map(g, lambda z: np.conj(z) ** 3)
        errs_z.append(np.max(np.abs(d_dz(w).component_complex(0))[g.interior]))
    assert 3.2 < errs_zbar[0] / errs_zbar[1] < 4.8
    assert 3.2 < errs_z[0] / errs_z[1] < 4.8


def test_dzbar_vanishes_for_holomorphic_polynomials(grid65):
    for fn in (lambda z: z ** 2, lambda z: z ** 3 - 2 * z):
        u = complex_map(grid65, fn)
        resid = np.abs(d_dzbar(u).component_complex(0))[grid65.interior]
        assert np.max(resid) < 5e-3  # O(h^2) for cubics, exact for quadratics


def test_interpolation_exact_at_nodes(grid33):
    u = complex_map(grid33, lambda z: np.sin(z.real) + 1j * z.imag ** 2)
    j, k = 20, 14
    assert grid33.mask[j, k]
    z = complex(grid33.xs[j], grid33.xs[k])
    got = eval_interp(u, z)
    assert np.array_equal(got, u.values[j, k])


def test_interpolation_reproduces_affine_two_point_form(grid33):
    # h(z) = p + 2 z (q - p) satisfies h(1/2) = q exactly
    p = np.array([0.3, -0.2])
    q = np.array([-0.1, 0.5])
    vals = p + cmul(2 * grid33.Z, q - p)
    u = DiskMap(grid33, vals)
    assert np.allclose(eval_interp(u, 0.5 + 0j), q, atol=1e-14)
    assert np.allclose(eval_interp(u, 0j), p, atol=1e-15)


def test_interpolation_second_order_for_quadratic_map():
    errs = []
    z0 = 0.3 + 0.1j
    for N in (65, 129):
        g = make_grid(1.0, N)
        u = complex_map(g, lambda z: z ** 2)
        got = u.sample(np.array([z0]))[0]
        errs.append(np.hypot(got[0] - (z0 ** 2).real, got[1] - (z0 ** 2).imag))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-4


def test_interpolation_range_errors(grid33):
    u = complex_map(grid33, lambda z: z)
    with pytest.raises(OutsideInterpolationRange):
        eval_interp(u, 0.999 + 0j)


def test_cubic_sampling_beats_bilinear_for_smooth_maps(grid65):
    u = complex_map(grid65, lambda z: z ** 3)
    pts = np.array([0.21 + 0.13j, -0.4 + 0.37j, 0.05 - 0.55j])
    exact = np.stack([(pts ** 3).real, (pts ** 3).imag], axis=-1)
    bil = u.sample(pts, method="bilinear")
    cub = u.sample(pts, method="cubic")
    assert np.max(np.abs(cub - exact)) < 0.2 * np.max(np.abs(bil - exact))


def lattice_cell(grid, z):
    """Indices (j, k) of the lattice cell around the point z."""
    return (int(np.floor((z.real + grid.r) / grid.h + 1e-9)),
            int(np.floor((z.imag + grid.r) / grid.h + 1e-9)))


def stencil_leaves_disk(grid, pts):
    """Whether the 4x4 Catmull-Rom stencil around each point has a node
    off the lattice or off the disk, checked node by node."""
    out = []
    for z in pts:
        j, k = lattice_cell(grid, z)
        rows = [j + a for a in range(-1, 3)]
        cols = [k + b for b in range(-1, 3)]
        on = all(0 <= i < grid.N for i in rows + cols)
        out.append(not (on and grid.mask[np.ix_(rows, cols)].all()))
    return np.array(out)


@pytest.mark.parametrize("r, N", [(1.0, 33), (2.5, 33), (1.0, 9), (1.0, 65)])
def test_cubic_sample_is_bilinear_exactly_where_the_stencil_leaves_the_disk(r, N):
    # Catmull-Rom reproduces quadratics, so off the rim the cubic value is
    # z^2 to round-off; where the stencil leaves the disk it is bilinear
    g = make_grid(r, N)
    u = complex_map(g, lambda z: z ** 2)
    rng = np.random.default_rng(7)
    rad = (g.r - g.h) * np.sqrt(rng.uniform(0.0, 1.0, 1000))
    pts = rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 1000))
    # only points whose bilinear cell lies in the disk can be sampled
    cells = [lattice_cell(g, z) for z in pts]
    pts = pts[[g.mask[j:j + 2, k:k + 2].all() for j, k in cells]]
    leaves = stencil_leaves_disk(g, pts)
    assert 20 < leaves.sum() < pts.size - 20
    cub = u.sample(pts, method="cubic")
    bil = u.sample(pts, method="bilinear")
    assert np.array_equal(cub[leaves], bil[leaves])
    exact = np.stack([(pts ** 2).real, (pts ** 2).imag], axis=-1)
    assert np.max(np.abs(cub[~leaves] - exact[~leaves])) < 1e-14
    assert np.max(np.abs(bil[~leaves] - exact[~leaves])) > 1e-4


def nonlinear_map(grid):
    vals = np.stack([np.sin(3 * grid.X) * np.cos(2 * grid.Y),
                     grid.X ** 2 * grid.Y + np.exp(grid.Y)], axis=-1)
    return DiskMap(grid, vals)


@pytest.mark.parametrize("N", [33, 65, 129])
def test_lattice_resample_matches_the_per_point_gather(N):
    r = 1.3
    m = nonlinear_map(make_grid(r, N))
    h = m.grid.h
    scale = np.max(np.abs(m.values))
    fallback = 0
    for R in (0.25 * r, 0.6 * r, r - 3 * h, r - 2 * h, r - 1.5 * h, r - 1.01 * h):
        w = make_grid(R, N)
        pts = w.Z[w.mask]
        got = resample(m, w).values[w.mask]
        oracle = m.sample(pts, method="cubic")
        assert np.max(np.abs(got - oracle)) <= 1e-14 * scale
        fallback += stencil_leaves_disk(m.grid, pts).sum()
    assert fallback > 0


def dense_lattice_resample(source, grid):
    """The lattice-to-lattice resample as the full ``W V W^T``, W holding a
    column for every source node, with the nodes whose stencil leaves the
    source disk gathered by ``sample``; also their count."""
    g, N = source.grid, source.grid.N
    j, s = diskgrid._axis_cells(g, grid.xs)
    W = np.zeros((grid.N, N + 2))
    W[np.arange(grid.N)[:, None], j[:, None] + np.arange(4)] = diskgrid._cr_weights(s).T
    W = W[:, 1:-1]
    vals = (W @ source.values.transpose(2, 0, 1) @ W.T).transpose(1, 2, 0)
    lo, hi = j - 1, j + 2
    axis_ok = (lo >= 0) & (hi < N)
    ok = grid.mask & axis_ok[:, None] & axis_ok[None, :]
    lo, hi = np.clip(lo, 0, N - 1), np.clip(hi, 0, N - 1)
    for a in (lo, hi):
        for b in (lo, hi):
            ok &= g.mask[np.ix_(a, b)]
    rest = grid.mask & ~ok
    if rest.any():
        vals[rest] = source.sample(grid.Z[rest], method="cubic")
    return np.where(grid.mask[..., None], vals, 0.0), int(rest.sum())


@pytest.mark.parametrize("N", [9, 33, 129])
def test_banded_resample_at_the_edges_of_its_band(N):
    r = 1.3
    m = nonlinear_map(make_grid(r, N))
    g, h = m.grid, m.grid.h
    scale = np.max(np.abs(m.values))
    # scalings close to 1 clip the band at source rows 0 and N - 1; tiny
    # windows reach 4, 5 and 6 rows; windows near the rim have fallback nodes
    targets = [g.scaled(1.0 - f * h / r) for f in (1.01, 1.5, 1.99)]
    targets += [make_grid(R, N) for R in (1e-12 * h, 0.5 * h, h, r - 2 * h, r - 1.5 * h)]
    bands, fallback = [], []
    for w in targets:
        j, _ = diskgrid._axis_cells(g, w.xs)
        bands.append((max(j.min() - 1, 0), min(j.max() + 3, N)))
        got = resample(m, w).values
        oracle = m.sample(w.Z[w.mask], method="cubic")
        assert np.max(np.abs(got[w.mask] - oracle)) <= 1e-14 * scale
        dense, rest = dense_lattice_resample(m, w)
        assert np.max(np.abs(got - dense)) <= 1e-15 * scale
        fallback.append(rest)
    assert bands[:3] == [(0, N)] * 3
    assert [b1 - b0 for b0, b1 in bands[3:6]] == [4, 5, 6]
    assert all(fallback[:3]) and all(fallback[6:]) and not any(fallback[3:6])


@pytest.mark.parametrize("N", [33, 65, 129])
def test_lattice_resample_and_gather_both_reject_a_target_of_the_source_radius(N):
    m = nonlinear_map(make_grid(1.3, N))
    # a target far beyond the lattice raises as well, and warns of nothing
    for R in (1.3, 1.3e20):
        w = make_grid(R, N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideInterpolationRange):
                resample(m, w)
            with pytest.raises(OutsideInterpolationRange):
                m.sample(w.Z[w.mask], method="cubic")


def test_poincare_distance_basics():
    assert poincare_distance(0, 0) == 0.0
    with pytest.raises(OutsideDisk):
        poincare_distance(0, 1.0)
    with pytest.raises(OutsideDisk):
        poincare_distance(1.5, 0, r=1.0)


def test_poincare_distance_against_metric_integral_oracle():
    # length of the radial geodesic: integral of dt / (1 - t^2) from 0 to 1/2
    oracle, err = quad(lambda t: 1.0 / (1.0 - t * t), 0.0, 0.5)
    assert err < 1e-12
    got = poincare_distance(0, 0.5)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.5493061443340549, abs=1e-15)


def test_poincare_distance_symmetry_and_scaling(rng):
    pts = 0.9 * (rng.uniform(-1, 1, size=(100, 2)) @ np.diag([1, 1]))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.95]
    zs = pts[:, 0] + 1j * pts[:, 1]
    for a, b in zip(zs[::2], zs[1::2]):
        assert poincare_distance(a, b) == pytest.approx(poincare_distance(b, a), abs=1e-15)
        # distance on the r-disk equals the unit-disk distance of scaled points
        assert poincare_distance(2 * a, 2 * b, r=2.0) == pytest.approx(
            poincare_distance(a, b), abs=1e-12)


def test_poincare_triangle_inequality(rng):
    zs = rng.uniform(-0.9, 0.9, size=(1000, 3, 2))
    zs = zs[np.all(np.hypot(zs[..., 0], zs[..., 1]) < 0.95, axis=1)]
    for trio in zs:
        a, b, c = (complex(*p) for p in trio)
        assert poincare_distance(a, c) <= (
            poincare_distance(a, b) + poincare_distance(b, c) + 1e-12)


def test_mobius_swap_exchanges_points_and_is_involutive(rng):
    for r in (1.0, 2.0):
        z0 = complex(0.3 * r, -0.45 * r)
        L = mobius_swap(z0, r)
        assert L(0) == pytest.approx(z0, abs=1e-15)
        assert abs(L(z0)) < 1e-15
        zs = rng.uniform(-0.7, 0.7, size=(100, 2)) * r
        zc = zs[:, 0] + 1j * zs[:, 1]
        zc = zc[np.abs(zc) < 0.95 * r]
        assert np.max(np.abs(L(L(zc)) - zc)) < 1e-12
        # maps the boundary circle to itself
        ring = r * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
        assert np.max(np.abs(np.abs(L(ring)) - r)) < 1e-12


def test_mobius_swap_rejects_outside_points():
    with pytest.raises(OutsideDisk):
        mobius_swap(1.0 + 0j, 1.0)


def test_weighted_derivative_sup_identity_and_constant(grid65):
    ident = complex_map(grid65, lambda z: z)
    s, zstar = sup_poincare_derivative(ident)
    assert s == pytest.approx(1.0, abs=1e-12)
    assert zstar == 0j
    const = complex_map(grid65, lambda z: np.full_like(z, 0.3 + 0.1j))
    s, zstar = sup_poincare_derivative(const)
    assert s == 0.0
    assert zstar == 0j


@pytest.mark.parametrize("N", [9, 33, 129])
def test_dx_at_center_is_the_origin_row_of_differences(N):
    rng = np.random.default_rng(N)
    for r in (1.0, 0.37, 40.0):
        g = make_grid(r, N)
        j, k = g.center_index
        row = np.searchsorted(np.flatnonzero(g.interior), j * N + k)
        for scale in (1e-4, 1.0, 1e4):
            v = rng.standard_normal((N, N, 4)) * scale
            ux, uy = g.differences(v)
            assert np.array_equal(g.dx_at_center(v), ux[row])
            assert np.array_equal(g.dx_at_center(v, axis=1), uy[row])


@pytest.mark.parametrize("levels", [1, 2, 5, 1000])
def test_node_max_breaks_ties_like_a_full_lexsort(levels):
    # reference: sort every node by (-value, |z|^2, x, y) and take the first
    g = make_grid(1.0, 33)
    rng = np.random.default_rng(levels)
    sel = g.interior & (rng.random(g.R2.shape) < 0.7)
    vals = rng.integers(0, levels, int(sel.sum())) * 0.25
    xs, ys = g.X[sel], g.Y[sel]
    best = np.lexsort((ys, xs, g.R2[sel], -vals))[0]
    s, zstar = node_max(vals, g, sel)
    assert s == vals[best] and zstar == complex(xs[best], ys[best])
    assert node_max(vals[:0], g, np.zeros_like(sel)) == (0.0, 0j)


def test_weighted_derivative_sup_of_squaring_map():
    # dense scan oracle for max of 2 rho (1 - rho^2)
    rho = np.linspace(0, 1, 400001)
    vals = 2 * rho * (1 - rho ** 2)
    oracle = vals.max()
    assert oracle == pytest.approx(4 / (3 * np.sqrt(3)), abs=1e-9)
    g = make_grid(1.0, 129)
    s, zstar = sup_poincare_derivative(complex_map(g, lambda z: z ** 2))
    assert s == pytest.approx(oracle, abs=1e-3)
    assert abs(zstar) == pytest.approx(1 / np.sqrt(3), abs=0.02)


def test_weighted_derivative_sup_invariant_under_mobius_recentering():
    # the weighted sup is unchanged by precomposition with a disk
    # automorphism; measured with the original-radius weight on a slightly
    # shrunken sampling domain that still contains the attaining region
    diffs = []
    hs = []
    for N in (65, 129):
        g = make_grid(1.0, N)
        f = complex_map(g, lambda z: z ** 2)
        s1, _ = sup_poincare_derivative(f)
        L = mobius_swap(0.3 + 0.2j, 1.0)
        shrunk = make_grid(0.88, N)
        fi = resample(f, shrunk, transform=L)
        norms = np.linalg.norm(lattice_differences(shrunk, fi.values)[0], axis=-1)
        inner = shrunk.interior
        s2, _ = node_max(norms[inner] * (1.0 - shrunk.R2[inner]), shrunk, inner)
        diffs.append(abs(s1 - s2))
        hs.append(g.h)
    assert diffs[0] < 4 * hs[0]
    assert diffs[1] <= diffs[0] + 1e-12


def test_scaled_grid_shares_masks():
    g = make_grid(1.0, 33)
    g5 = g.scaled(5.0)
    assert g5.r == 5.0
    assert g5.mask is g.mask and g5.interior is g.interior
    assert np.allclose(g5.nodes(g5.mask), 5.0 * g.nodes(g.mask))


def float_masks(r, N):
    """The masks drawn from node coordinates: |z|^2 against r^2 and
    (r - 2h)^2, each with a relative slack of 1e-12."""
    xs = np.linspace(-r, r, N)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    R2 = X * X + Y * Y
    rin = r - 2.0 * (2.0 * r / (N - 1))
    mask = R2 <= r * r * (1.0 + 1e-12)
    return mask, mask & (R2 <= rin * rin * (1.0 + 1e-12))


@pytest.mark.parametrize("r", [1e-7, 0.37, 1.0, 2.0, 4.5, 36.0, 1e5])
def test_index_space_masks_are_the_float_masks(r):
    for N in [*range(9, 260, 2), 513, 1025]:
        g = make_grid(r, N)
        mask, interior = float_masks(r, N)
        assert np.array_equal(g.mask, mask), N
        assert np.array_equal(g.interior, interior), N


@pytest.mark.parametrize("r, N", [(1.0, 9), (0.37, 33), (40.0, 129)])
def test_node_coordinates_are_the_meshgrid_coordinates_to_the_bit(r, N):
    g = make_grid(r, N)
    X, Y = np.meshgrid(np.linspace(-r, r, N), np.linspace(-r, r, N), indexing="ij")
    for got, want in ((g.X, X), (g.Y, Y), (g.Z, X + 1j * Y), (g.R2, X * X + Y * Y)):
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_grids_of_one_node_count_share_read_only_masks():
    g = make_grid(1.0, 33)
    for other in (make_grid(0.37, 33), make_grid(40.0, 33), g.scaled(1e-3), DiskGrid(2.0, 33)):
        assert other.mask is g.mask and other.interior is g.interior
    for m in (g.mask, g.interior):
        with pytest.raises(ValueError):
            m[16, 16] = False
    assert g.mask[16, 16] and g.interior[16, 16]


def test_csv_round_trip(grid33):
    u = complex_map(grid33, lambda z: z ** 2 - z)
    buf = io.StringIO()
    to_csv(u, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,y,v0,v1"
    assert len(lines) == 1 + grid33.node_count
    # each row reads back as its node's coordinates and values, bit for bit
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, :2], grid33.nodes(grid33.mask))
    assert np.array_equal(data[:, 2:], u.values[grid33.mask])


@pytest.mark.parametrize("N", [9, 33, 65])
def test_shared_lattice_operators_at_unit_radius_are_fresh_builds(N, monkeypatch):
    # first asked for by a grid of another radius, so built on a temporary
    # unit grid; differences on a caller's unit grid must match a fresh build
    monkeypatch.setattr(diskgrid, "_unit_sets", OrderedDict())
    rng = np.random.default_rng(N)
    v = rng.standard_normal((N, N, 2))
    make_grid(0.37, N).differences(v)
    make_grid(0.37, N).interior_extension()
    g = make_grid(1.0, N)
    inner = g.interior
    ux, uy = lattice_differences(g, v)
    assert np.array_equal(g.differences(v), np.stack([ux[inner], uy[inner]]))
    D = g.unit_operator("diff", None)
    assert D is g.difference_matrix() and (D != g._difference_matrix()).nnz == 0
    fresh = g._ring_matrix()[:, np.flatnonzero(inner)]
    assert (g.interior_extension() != fresh).nnz == 0
    assert g.interior_extension() is make_grid(40.0, N).interior_extension()


def test_cache_holds_one_entry_per_operator(monkeypatch):
    # a two-point solve, a Cauchy residual and a Brody step at one N leave
    # the difference matrix, the interior extension and the Cauchy operator
    monkeypatch.setattr(diskgrid, "_unit_sets", OrderedDict())
    g = make_grid(1.0, 33)
    two_point_disk(gallery("conjugated", epsilon=0.1), np.zeros(2), np.array([0.1, 0.05]),
                   0.5, SolverConfig(epsilon=0.05), g)
    phi = complex_map(g, lambda z: z * np.conj(z))
    cg_residual(cg_build(g), phi)
    brody_reparametrize(complex_map(g, lambda z: 4 * z + 3 * z ** 2), 1.0)
    assert list(diskgrid._unit_sets) == [33]
    assert set(diskgrid._unit_sets[33]) == {"diff", "ring_interior", "cg"}


@pytest.mark.parametrize("N", [13, 33, 35])
def test_masks_and_ring_extension_do_not_depend_on_the_radius(N):
    unit = make_grid(1.0, N)
    ring = unit._ring_matrix()
    for r in (0.37, 2.5, 40.0, 1e-150):
        g = make_grid(r, N)
        assert np.array_equal(g.mask, unit.mask)
        assert np.array_equal(g.interior, unit.interior)
        assert (g._ring_matrix() != ring).nnz == 0


@pytest.mark.parametrize("N", [11, 13, 33, 35])
def test_ring_extension_commutes_with_the_lattice_reflections(N):
    g = make_grid(1.0, N)
    ext = g.interior_extension()
    v = np.random.default_rng(N).standard_normal((N, N))

    def extend(a):
        return (ext @ a[g.interior]).reshape(N, N)

    for flip in (lambda a: a[::-1, :], lambda a: a[:, ::-1]):
        assert np.array_equal(extend(flip(v)), flip(extend(v)))


@pytest.mark.parametrize("N", [9, 33])
@pytest.mark.parametrize("r", [0.37, 40.0])
def test_scaled_differences_match_a_fresh_build(N, r):
    g = make_grid(r, N)
    v = np.random.default_rng(N).standard_normal((N, N, 2))
    rows = np.flatnonzero(g.interior)
    for axis, got in enumerate(g.differences(v)):
        want = (lattice_difference_matrix(g, axis) @ v.reshape(N * N, -1))[rows]
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("factor", [1e-320, 1e-170, np.inf, np.nan, 0.0, -2.0])
def test_scaled_rejects_radii_the_lattice_cannot_represent(factor):
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 9).scaled(factor)
