import numpy as np
import pytest

from jdisk.brody import (_derivative_norms, _scaling_max, brody_reparametrize,
                         derivative_ladder_family, dilation_family, extract_line,
                         rescale_step, scaling_sup, sup_poincare_derivative)
from jdisk.diskgrid import make_grid, node_max
from jdisk.errors import HypothesisViolated, InvalidParams, ZeroDerivative
from jdisk.solver import SolverConfig
from jdisk.structure import gallery

from conftest import complex_map


@pytest.fixture(scope="module")
def g129():
    return make_grid(1.0, 129)


def dense_scan_oracle(fprime, t, m=4000):
    """Dense polar scan of sup t |f'(t z)| (1 - |z|^2) for analytic f'."""
    rho = np.linspace(0.0, 1.0, m)[None, :]
    th = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)[:, None]
    z = rho * np.exp(1j * th)
    vals = t * np.abs(fprime(t * z)) * (1.0 - rho ** 2)
    return float(vals.max())


def test_scaling_sup_basics(g129):
    ident = complex_map(g129, lambda z: z)
    assert scaling_sup(ident, 0.0) == 0.0
    assert scaling_sup(ident, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParams):
        scaling_sup(ident, 1.5)


def test_scaling_sup_of_squaring_map(g129):
    sq = complex_map(g129, lambda z: z ** 2)
    target = 4.0 / (3.0 * np.sqrt(3.0))
    assert scaling_sup(sq, 1.0) == pytest.approx(target, abs=1e-3)
    assert scaling_sup(sq, 0.5) == pytest.approx(0.25 * target, abs=1e-3)
    # dense scan oracle agrees at an off-grid t
    oracle = dense_scan_oracle(lambda w: 2 * w, 0.73)
    assert scaling_sup(sq, 0.73) == pytest.approx(oracle, abs=1e-3)


def test_reparametrize_identity_unchanged(g129):
    ident = complex_map(g129, lambda z: z)
    rep = brody_reparametrize(ident, 1.0)
    assert rep.t0 == 1.0
    assert rep.z0 is None
    assert rep.f_tilde is ident
    assert rep.s_at_0 == pytest.approx(1.0, abs=1e-12)


def test_reparametrize_pure_dilation(g129):
    two = complex_map(g129, lambda z: 2 * z)
    rep = brody_reparametrize(two, 1.0)
    assert rep.t0 == pytest.approx(0.5, abs=1e-5)
    assert rep.z0 is None
    assert rep.s_at_0 == pytest.approx(1.0, abs=1e-6)
    assert rep.s_sup == pytest.approx(1.0, abs=1e-6)


def test_reparametrize_recenters_quadratic_map(g129):
    f = complex_map(g129, lambda z: z + z ** 2)
    rep = brody_reparametrize(f, 0.5)
    assert rep.z0 is not None and abs(rep.z0) > 0.1
    assert abs(rep.s_sup - rep.s_at_0) < 1e-3
    assert abs(rep.s_at_0 - 0.5) < 1e-3
    assert rep.within_tolerance
    # scaling root cross-checked against a dense scan of the analytic field
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if dense_scan_oracle(lambda w: 1 + 2 * w, mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    assert rep.t0 == pytest.approx(hi, abs=5e-3)


def scan_and_bisect(f, c):
    """The root finder the closed form replaced: s(t) at 65 scan points,
    then bisection to 1e-6 over the public scaling_sup.  Returns the upper
    end of the final bracket and the source node attaining s there."""
    ts = np.linspace(0.0, 1.0, 65)
    hit = next(i for i in range(1, len(ts)) if scaling_sup(f, ts[i]) >= c)
    lo, hi = ts[hit - 1], ts[hit]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if scaling_sup(f, mid) >= c:
            hi = mid
        else:
            lo = mid
    g = f.grid
    norms = np.linalg.norm(g.dx_apply(f.values), axis=-1)
    sel = g.interior & (g.R2 < (hi * g.r) ** 2)
    vals = hi * norms[sel] * (g.r ** 2 - g.R2[sel] / hi ** 2) / g.r ** 2
    best = np.lexsort((g.Y[sel], g.X[sel], g.R2[sel], -vals))[0]
    return hi, complex(g.X[sel][best], g.Y[sel][best])


@pytest.mark.parametrize("N", [33, 129])
@pytest.mark.parametrize("fn, c", [
    (lambda z: z + z ** 2, 0.5),
    (lambda z: z + 0.8 * z ** 2, 0.5),
    (lambda z: np.exp(2 * z) - 1, 1.0),
    (lambda z: z / (1.3 - 0.9 * z), 0.5),
    (lambda z: np.sin(3 * z) + 0.3 * z ** 2, 1.5),
], ids=["quadratic", "quadratic-0.8", "exp", "mobius", "sine"])
def test_closed_form_root_matches_scan_and_bisect(fn, c, N):
    f = complex_map(make_grid(1.0, N), fn)
    t_old, node_old = scan_and_bisect(f, c)
    rep = brody_reparametrize(f, c)
    assert rep.t0 < 1.0
    assert 0.0 <= t_old - rep.t0 <= 1e-6
    node = 0j if rep.z0 is None else rep.z0 * rep.t0
    assert abs(node - node_old) < 1e-12
    assert scaling_sup(f, rep.t0) == pytest.approx(c, rel=1e-12, abs=0)
    assert scaling_sup(f, rep.t0 - 1e-7) < c


def test_reparametrize_hypothesis_checked(g129):
    small = complex_map(g129, lambda z: 0.25 * z)
    with pytest.raises(HypothesisViolated):
        brody_reparametrize(small, 1.0)


def test_rescale_step_exact_on_lattice(g129):
    five = complex_map(g129, lambda z: 5 * z)
    g, r_n = rescale_step(five)
    assert r_n == pytest.approx(5.0, abs=1e-12)
    assert g.grid.r == pytest.approx(5.0, abs=1e-12)
    # g(w) = w on the scaled lattice, value for value
    assert np.allclose(g.values[..., 0][g.grid.mask], g.grid.X[g.grid.mask], atol=1e-12)
    unit = complex_map(g129, lambda z: z)
    g2, r2 = rescale_step(unit)
    assert r2 == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(g2.values, unit.values)


def test_rescale_step_rejects_constant(g129):
    const = complex_map(g129, lambda z: np.full_like(z, 0.2 + 0.1j))
    with pytest.raises(ZeroDerivative):
        rescale_step(const)


def test_rescale_normalizes_derivative_for_solved_disks():
    J = gallery("torus-perturbed", n=1, epsilon=0.05)
    g = make_grid(1.0, 33)
    cfg = SolverConfig(epsilon=0.1)
    for lam in (2.0, 3.0):
        fam = list(derivative_ladder_family(J, np.array([0.25, 0.0]),
                                            np.array([1.0, 0.0]), [lam], cfg, g))
        gg, r_n = rescale_step(fam[0])
        from jdisk.brody import _derivative_at_origin
        assert _derivative_at_origin(gg) == pytest.approx(1.0, abs=1e-6)


def test_extract_line_flat_torus_dilations():
    J = gallery("torus-flat", n=1)
    g = make_grid(1.0, 33)
    rep = extract_line(J, dilation_family(g, base=4.0, factor=2.0), R=2.0,
                       tol=1e-10, n_max=8)
    assert rep.converged
    finite = [d for d in rep.deltas if d is not None]
    assert finite and finite[0] < 1e-10
    assert rep.final.derivative_at_0 == pytest.approx(1.0, abs=1e-6)
    assert rep.final.cr_residual < 1e-10
    # the limit is the affine embedding
    w = rep.final.samples
    assert np.allclose(w.values[..., 0][w.grid.mask], w.grid.X[w.grid.mask], atol=1e-10)


def test_extract_line_flat_chart_dilations():
    J = gallery("standard", n=1)
    g = make_grid(1.0, 33)
    rep = extract_line(J, dilation_family(g, base=4.0, factor=2.0), R=2.0,
                       tol=1e-10, n_max=8)
    assert rep.converged
    assert rep.final.derivative_at_0 == pytest.approx(1.0, abs=1e-8)
    assert rep.final.cr_residual < 1e-10


def test_extract_line_reports_nonconvergence_without_crash():
    J = gallery("torus-flat", n=1)
    g = make_grid(1.0, 33)
    # family too short to ever cover the window
    rep = extract_line(J, dilation_family(g, base=0.5, factor=1.01, count=3),
                       R=2.0, tol=1e-10, n_max=3)
    assert not rep.converged
    assert rep.final is None
    assert "window" in rep.message


@pytest.mark.parametrize("bad", [
    {"consecutive": 0}, {"consecutive": -1}, {"n_max": 0},
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")}, {"tol": float("inf")},
])
def test_extract_line_rejects_parameters_that_decide_nothing(bad):
    J = gallery("torus-flat", n=1)
    family = dilation_family(make_grid(1.0, 33))
    with pytest.raises(InvalidParams):
        extract_line(J, family, **{"R": 2.0, "tol": 1e-10, "n_max": 8, **bad})


def test_extract_line_single_comparison_converges_on_a_delta():
    J = gallery("torus-flat", n=1)
    rep = extract_line(J, dilation_family(make_grid(1.0, 33)), R=2.0,
                       tol=1e-10, n_max=8, consecutive=1)
    assert rep.converged
    assert rep.steps[-1].delta is not None and rep.steps[-1].delta < 1e-10


def test_extract_line_perturbed_torus_ladder():
    J = gallery("torus-perturbed", n=1, epsilon=0.05)
    g = make_grid(1.0, 65)
    cfg = SolverConfig(epsilon=0.1)
    lams = [3.0 - 1.5 * 0.5 ** k for k in range(6)]
    fam = derivative_ladder_family(J, np.array([0.25, 0.0]),
                                   np.array([1.0, 0.0]), lams, cfg, g)
    rep = extract_line(J, fam, R=1.5, tol=1e-8, n_max=8)
    assert rep.final is not None
    assert rep.final.derivative_at_0 == pytest.approx(1.0, abs=1e-2)
    assert rep.final.cr_residual < 1e-2
    ds = [d for d in rep.deltas if d is not None]
    assert len(ds) >= 3
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert rep.final.derivative_at_0 > 0  # nontrivial by construction


@pytest.mark.parametrize("r, N", [(1.0, 65), (1.0, 129), (2.5, 65)])
def test_weighted_derivative_sup_is_the_scaling_sup_at_one(r, N):
    # one formula: s(1), its node, and the weight (r^2 - |z|^2) / r^2 taken
    # directly over the interior agree bit for bit
    g = make_grid(r, N)
    f = complex_map(g, lambda z: 4.0 * (z + 0.5 * z * z))
    s, zstar = sup_poincare_derivative(f)
    assert s == scaling_sup(f, 1.0)
    assert (s, zstar) == _scaling_max(g, _derivative_norms(f), 1.0)
    inner = g.interior
    weight = (r * r - g.R2) / (r * r)
    direct = node_max(_derivative_norms(f)[inner] * weight[inner], g, inner)
    assert (s, zstar) == direct and s > 0.0
