import io
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad

from jdisk import diskgrid
from jdisk.brody import sup_poincare_derivative
from jdisk.diskgrid import (DiskGrid, DiskMap, d_dz, d_dzbar, eval_interp,
                            make_grid, mobius_swap, node_max,
                            poincare_distance, resample, to_csv)
from jdisk.errors import (InvalidGrid, OutsideDisk, OutsideInterpolationRange)
from jdisk.structure import ComplexConvention

from conftest import complex_map


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
    for axis in (0, 1):
        D = g._diff_matrix(axis)
        assert np.array_equal(np.flatnonzero(D.getnnz(axis=1)), np.flatnonzero(inner))


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
    conv = ComplexConvention(1)
    p = np.array([0.3, -0.2])
    q = np.array([-0.1, 0.5])
    vals = p + conv.cmul(2 * grid33.Z, q - p)
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
def test_dx_at_center_is_the_origin_row_of_dx_apply(N):
    rng = np.random.default_rng(N)
    for r in (1.0, 0.37, 40.0):
        g = make_grid(r, N)
        for scale in (1e-4, 1.0, 1e4):
            v = rng.standard_normal((N, N, 4)) * scale
            j, k = g.center_index
            assert np.array_equal(g.dx_at_center(v), g.dx_apply(v)[j, k])


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
        norms = np.linalg.norm(shrunk.dx_apply(fi.values), axis=-1)
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
    assert np.array_equal(g5.mask, g.mask)
    assert np.array_equal(g5.interior, g.interior)
    assert np.allclose(g5.nodes(g5.mask), 5.0 * g.nodes(g.mask))


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
    make_grid(0.37, N).dx_apply(v)
    make_grid(0.37, N).dy_apply(v)
    make_grid(0.37, N).ring_extension()
    g = make_grid(1.0, N)
    flat = v.reshape(N * N, -1)
    assert np.array_equal(g.dx_apply(v), (g._diff_matrix(0) @ flat).reshape(v.shape))
    assert np.array_equal(g.dy_apply(v), (g._diff_matrix(1) @ flat).reshape(v.shape))
    assert (g.ring_extension() != g._ring_matrix()).nnz == 0
    assert g.ring_extension() is make_grid(40.0, N).ring_extension()


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
    ext = make_grid(1.0, N).ring_extension()
    v = np.random.default_rng(N).standard_normal((N, N))

    def extend(a):
        return (ext @ a.ravel()).reshape(N, N)

    for flip in (lambda a: a[::-1, :], lambda a: a[:, ::-1]):
        assert np.array_equal(extend(flip(v)), flip(extend(v)))


@pytest.mark.parametrize("N", [9, 33])
@pytest.mark.parametrize("r", [0.37, 40.0])
def test_scaled_differences_match_a_fresh_build(N, r):
    g = make_grid(r, N)
    v = np.random.default_rng(N).standard_normal((N, N, 2))
    want = (g._diff_matrix(0) @ v.reshape(N * N, -1)).reshape(v.shape)
    assert np.allclose(g.dx_apply(v), want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("factor", [1e-320, 1e-170, np.inf, np.nan, 0.0, -2.0])
def test_scaled_rejects_radii_the_lattice_cannot_represent(factor):
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 9).scaled(factor)
