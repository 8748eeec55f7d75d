import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jdisk import solver
from jdisk.brody import derivative_ladder_family
from jdisk.diskgrid import DiskMap, _bilinear_cells, _combine, d_dz, eval_interp, make_grid
from jdisk.errors import Diverged, InvalidGrid, InvalidParams
from jdisk.kobayashi import derivative_bound
from jdisk.solver import (SolverConfig, affine_target, check_node, cr_residual,
                          derivative_disk, picard_solve, two_point_disk)
from jdisk.structure import gallery, q_field

from conftest import cmul, complex_map, lattice_differences


@pytest.fixture(scope="module")
def J_std():
    return gallery("standard", n=1)


@pytest.fixture(scope="module")
def J_conj():
    return gallery("conjugated", n=1, epsilon=0.1)


@pytest.fixture(scope="module")
def g65():
    return make_grid(1.0, 65)


def test_config_validation():
    with pytest.raises(InvalidParams):
        SolverConfig(epsilon=-0.1)
    with pytest.raises(InvalidParams):
        SolverConfig(epsilon=0.0)
    with pytest.raises(InvalidParams):
        SolverConfig(tol_fixpoint=0.0)
    # the outer matching loop and its settings are gone
    for key in ("tol_newton", "max_newton", "fd_step"):
        with pytest.raises(TypeError):
            SolverConfig(**{key: 1e-8})


def test_affine_target_hits_both_points(g65):
    p = np.array([0.2, -0.1])
    q = np.array([-0.3, 0.4])
    for t in (0.5, 0.25, 0.1):
        h = affine_target(p, q, t, g65)
        assert np.allclose(eval_interp(h, 0j), p, atol=1e-14)
        assert np.allclose(eval_interp(h, complex(t, 0)), q, atol=1e-13)
    for t in (0.0, 1.0, float("nan")):
        with pytest.raises(InvalidParams):
            affine_target(p, q, t, g65)
    const = affine_target(p, p, 0.5, g65)
    assert np.allclose(const.values[g65.mask], p, atol=0)


def test_picard_identity_for_standard_structure(J_std, g65):
    h = affine_target(np.array([0.5, -0.2]), np.array([-0.4, 0.3]), 0.5, g65)
    for eps in (0.1, 0.5):
        sol = picard_solve(J_std, SolverConfig(epsilon=eps), h)
        assert np.max(np.abs(sol.v.values - eps * h.values)) < 1e-12


def test_picard_converges_and_contracts(J_conj, g65):
    cfg = SolverConfig(epsilon=0.05)
    h = affine_target(np.array([0.3, -0.4]), np.array([-0.5, 0.2]), 0.5, g65)
    sol = picard_solve(J_conj, cfg, h)
    assert sol.iterations <= 50
    assert sol.residual < 1e-3
    ratios = sol.contraction_ratios()
    assert ratios and max(ratios) <= 0.9


def test_picard_residual_refines_with_order_one(J_conj):
    cfg = SolverConfig(epsilon=0.05)
    p = np.array([0.3, -0.4])
    q = np.array([-0.5, 0.2])
    resid = []
    for N in (33, 65, 129):
        g = make_grid(1.0, N)
        resid.append(picard_solve(J_conj, cfg, affine_target(p, q, 0.5, g)).residual)
    assert resid[0] > resid[1] > resid[2]
    assert np.log2(resid[0] / resid[1]) >= 1.0
    assert np.log2(resid[1] / resid[2]) >= 1.0


def test_picard_divergence_reported(J_conj, g65):
    cfg = SolverConfig(epsilon=0.05, max_iter=2, tol_fixpoint=1e-15)
    h = affine_target(np.array([0.3, 0.1]), np.array([-0.2, 0.4]), 0.5, g65)
    with pytest.raises(Diverged):
        picard_solve(J_conj, cfg, h)


def test_cr_residual_analytic_cases(J_std, g65):
    ident = complex_map(g65, lambda z: z)
    assert cr_residual(J_std, ident) < 1e-13
    conj = complex_map(g65, np.conj)
    # d/dzbar = 1 while the dilatation vanishes, so the defect is exactly 1
    assert cr_residual(J_std, conj) == pytest.approx(1.0, abs=1e-12)


def test_two_point_disk_standard_exact(J_std, g65, rng):
    cfg = SolverConfig()
    for _ in range(20):
        p = rng.uniform(-1, 1, size=2)
        q = rng.uniform(-1, 1, size=2)
        t = rng.choice([0.5, 0.25])
        sol = two_point_disk(J_std, p, q, t, cfg, g65)
        target = affine_target(p, q, t, g65)
        assert np.max(np.abs(sol.v.values - target.values)) < 1e-12
        assert np.linalg.norm(sol.v.value_at_center() - p) < 1e-12
        assert np.linalg.norm(eval_interp(sol.v, complex(t, 0)) - q) < 1e-12
        # q = 0, so the first correction vanishes and one step is the solve
        assert (sol.iterations, sol.newton_steps) == (1, 0)


def test_two_point_disk_degenerate_pair(J_conj, g65):
    # equal points, or a zero derivative, seed the constant disk: its
    # correction is exactly 0, so the absolute test stops the first step
    p = np.array([0.25, -0.3])
    for sol in (two_point_disk(J_conj, p, p, 0.5, SolverConfig(), g65),
                derivative_disk(J_conj, p, np.zeros(2), SolverConfig(), g65)):
        assert np.array_equal(sol.v.values[g65.mask], np.broadcast_to(p, (g65.mask.sum(), 2)))
        assert sol.residual == 0.0
        assert sol.step_deltas == [0.0]


def test_two_point_disk_conjugated(J_conj, g65):
    cfg = SolverConfig(epsilon=0.05)
    p0 = np.array([0.0, 0.0])
    q0 = np.array([0.1, 0.0])
    sol = two_point_disk(J_conj, p0, q0, 0.5, cfg, g65)
    assert np.linalg.norm(sol.v.value_at_center() - p0) < 1e-6
    assert np.linalg.norm(eval_interp(sol.v, 0.5 + 0j) - q0) < 1e-6
    assert sol.residual < 1e-3


def test_two_point_disk_counters_are_pinned(J_conj):
    # exact counts: a change to the dilatation or the iteration that moves
    # them shows here without timing noise
    sol = two_point_disk(J_conj, np.zeros(2), np.array([0.3, -0.2]), 0.5,
                         SolverConfig(epsilon=0.5), make_grid(1.0, 33))
    assert (sol.iterations, len(sol.step_deltas), sol.newton_steps) == (4, 4, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_two_point_seed_is_the_affine_target(n, monkeypatch, rng):
    # the seed forms z / t once per solve; its targets, (N, N, 2n) arrays,
    # must be affine_target's values to the bit, at the start and for every
    # later right-hand side
    captured = []

    def capture(J, cfg, h, match=None, cap=None):
        captured.append((h, match))

    monkeypatch.setattr(solver, "picard_solve", capture)
    grid, t = make_grid(1.0, 33), 0.25
    p, q = rng.normal(size=2 * n), rng.normal(size=2 * n)
    two_point_disk(gallery("standard", n=n), p, q, t, SolverConfig(), grid)
    ((h, (seed, _, data)),) = captured
    assert np.array_equal(h.values, affine_target(p, q, t, grid).values)
    for y in (data, rng.normal(size=4 * n)):
        expect = affine_target(y[:2 * n], y[2 * n:], t, grid).values
        assert np.array_equal(seed(y), expect)


def _captured_match(monkeypatch, solve):
    """The ``(seed, observe, data)`` that ``solve()`` hands to picard_solve."""
    captured = []
    monkeypatch.setattr(solver, "picard_solve",
                        lambda J, cfg, h, match=None, cap=None: captured.append(match))
    solve()
    (match,) = captured
    return match


@pytest.mark.parametrize("r, N, t, n", [
    (1.0, 33, 0.25, 1),      # t is a node
    (1.0, 33, 0.3, 1),       # t lies between nodes
    (1.0, 33, 0.3, 2),
    (2.5, 33, 1.5, 1),
    (2.5, 33, 1.25, 2),      # a node of the wide grid
    (1.0, 9, 0.6, 1),
    (1.0, 9, 0.5, 2),
])
def test_two_point_observe_is_eval_interp_to_the_bit(r, N, t, n, monkeypatch, rng):
    # the loop reads v(t) from four precomputed weights, not through
    # eval_interp; on any map the two must agree exactly
    grid = make_grid(r, N)
    p, q = rng.normal(size=2 * n), rng.normal(size=2 * n)
    _, observe, _ = _captured_match(monkeypatch, lambda: two_point_disk(
        gallery("standard", n=n), p, q, t, SolverConfig(), grid))
    for _ in range(5):
        u = DiskMap(grid, rng.normal(size=(N, N, 2 * n)))
        expect = np.concatenate([u.value_at_center(), eval_interp(u, complex(t, 0.0))])
        assert np.array_equal(observe(u.values), expect)


@settings(max_examples=300, deadline=None)
@given(half=st.integers(4, 128), r=st.floats(0.1, 10.0), u=st.floats(0.0, 1.0),
       slack=st.sampled_from([0.0, 1e-9, 2e-9]) | st.floats(0.0, 1e-8),
       ulps=st.integers(0, 3), near_limit=st.booleans())
def test_every_node_check_node_accepts_has_its_bilinear_cell_in_the_disk(
        half, r, u, slack, ulps, near_limit):
    # check_node is the only check on t before two_point_disk locates its
    # cell: for t < r - h the far corner (x_{j+1}, h) has |.|^2 <=
    # (r - h)^2 + h^2 < r^2, and t must stay clear of the node snap onto
    # r - h, hence the t drawn a few floats below r - h (1 + slack)
    grid = make_grid(r, 2 * half + 1)
    t = grid.r - grid.h * (1.0 + slack) if near_limit else u * grid.r
    for _ in range(ulps):
        t = np.nextafter(t, 0.0)
    try:
        check_node(t, grid)
    except InvalidParams:
        assume(False)
    _bilinear_cells(grid, np.array([complex(t)]))


@pytest.mark.parametrize("r", [1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2])
def test_derivative_observe_is_d_dz_at_the_origin_to_the_bit(r, n, monkeypatch, rng):
    # the loop reads dv/dz(0) from the two centred differences at the origin
    # alone; on any map it must equal the full-grid d_dz there exactly
    grid = make_grid(r, 33)
    p, w = rng.normal(size=2 * n), rng.normal(size=2 * n)
    _, observe, _ = _captured_match(monkeypatch, lambda: derivative_disk(
        gallery("standard", n=n), p, w, SolverConfig(), grid))
    c = grid.center_index
    for scale in (1e-3, 1.0, 1e3):
        u = DiskMap(grid, scale * rng.normal(size=(33, 33, 2 * n)))
        expect = np.concatenate([u.value_at_center(), d_dz(u).values[c]])
        assert np.array_equal(observe(u.values), expect)


def test_a_solve_builds_diskmaps_independent_of_its_length(J_std, monkeypatch):
    # the iterate stays an array: a solve wraps its seed and its result, so
    # a 42-step solve builds as many DiskMaps as a 1-step one
    built = []
    post_init = DiskMap.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(DiskMap, "__post_init__", counted)
    g = make_grid(1.0, 33)
    counts, steps = [], []
    for J, q in ((J_std, np.array([0.3, -0.2])),
                 (gallery("conjugated", n=1, epsilon=0.9), np.array([1.5, 0.4]))):
        built.clear()
        sol = two_point_disk(J, np.zeros(2), q, 0.5, SolverConfig(), g)
        counts.append(len(built))
        steps.append(sol.iterations)
    assert steps == [1, 42]
    assert counts == [2, 2]


def test_an_iterate_that_turns_non_finite_raises(J_conj, g65, monkeypatch):
    apply = solver.cg_apply
    p, q = np.zeros(2), np.array([0.1, 0.0])
    clean = two_point_disk(J_conj, p, q, 0.5, SolverConfig(), g65)
    for bad, node in ((np.nan, g65.center_index), (np.inf, (20, 40)), (np.nan, (0, 0))):
        calls = []

        def spoiled(op, phi):
            out = apply(op, phi)
            calls.append(1)
            if len(calls) == 3:
                out[node] = bad
            return out

        monkeypatch.setattr(solver, "cg_apply", spoiled)
        if g65.mask[node]:
            with pytest.raises(InvalidParams, match="map has non-finite values at retained nodes"):
                two_point_disk(J_conj, p, q, 0.5, SolverConfig(), g65)
            assert len(calls) == 3
        else:
            # values off the disk are never read, and the result drops them
            sol = two_point_disk(J_conj, p, q, 0.5, SolverConfig(), g65)
            assert np.array_equal(sol.v.values, clean.v.values)


def test_two_point_disk_rejects_bad_t(J_std, g65):
    p = np.array([0.1, 0.0])
    q = np.array([0.3, 0.0])
    with pytest.raises(InvalidParams):
        two_point_disk(J_std, p, q, 1.5, SolverConfig(), g65)
    with pytest.raises(InvalidParams):
        two_point_disk(J_std, p, q, 0.999, SolverConfig(), g65)
    # at t = r - h (or within the node snap of it) the bilinear cell at t
    # has a corner off the disk; just below it the solve goes through
    g9 = make_grid(1.0, 9)
    for t, grid in ((0.75, g9), (0.75 - 1e-12, g9), (1.0 - 1.0 / 32, g65)):
        with pytest.raises(InvalidParams):
            two_point_disk(J_std, p, q, t, SolverConfig(), grid)
    sol = two_point_disk(J_std, p, q, 0.74, SolverConfig(), g9)
    assert np.allclose(eval_interp(sol.v, 0.74 + 0j), q, atol=1e-14)
    # t within 1e-9 h of the origin would be snapped onto it, and v(t) read
    # as v(0): on N = 33 (h = 1/16) 6e-11 snaps, and the bound 2e-9 h keeps
    # the same margin as the one below r - h
    for t, grid in ((1e-12, make_grid(1.0, 33)), (6e-11, make_grid(1.0, 33)), (6e-11, g65)):
        with pytest.raises(InvalidParams):
            two_point_disk(J_std, p, q, t, SolverConfig(), grid)


@pytest.mark.parametrize("solve", [
    lambda J, p, cfg: two_point_disk(J, p, [0.3, 0.1], 1.5, cfg, make_grid(2.5, 33)),
    lambda J, p, cfg: derivative_disk(J, p, [0.3, 0.1], cfg, make_grid(2.5, 33)),
    lambda J, p, cfg: derivative_bound(J, p, [1.0, 0.0], 4.0, cfg, make_grid(0.5, 33)),
    lambda J, p, cfg: next(derivative_ladder_family(J, p, [1.0, 0.0], [1.0], cfg,
                                                    make_grid(2.0, 9))),
], ids=["two_point_disk", "derivative_disk", "derivative_bound", "derivative_ladder_family"])
def test_every_solve_refuses_a_grid_off_the_unit_disk(solve, monkeypatch):
    # a solve at radius r and node t is the unit solve at t / r, whose
    # residual differs by the factor r alone, so only the unit disk is
    # solved on: cg_build refuses any other before the first Picard step
    def stepped(*args):
        raise AssertionError("a Picard step ran")

    monkeypatch.setattr(solver, "_defect", stepped)
    with pytest.raises(InvalidGrid, match="unit disk"):
        solve(gallery("conjugated", n=1), np.zeros(2), SolverConfig())


def wirtinger_pair(values, grid):
    """``(d_dz, d_dzbar)`` over the lattice from the two whole-lattice
    difference matrices, as the solver took them before its interior-row
    defect."""
    ux, uy = lattice_differences(grid, values)
    dzbar = _combine(ux, uy, bar=True)
    return _combine(ux, uy, bar=False, out=ux), dzbar


def reference_defect(J, values, grid):
    """The Beltrami rows q(v) dv/dz at the interior nodes and the
    cr_residual, as formed before the fused defect: lattice derivatives
    taken at the interior nodes, an einsum, and the largest row norm."""
    inner = grid.interior
    dz, dzbar = wirtinger_pair(values, grid)
    q = q_field(J, values[inner], labels=grid.nodes(inner))
    rows = np.einsum("mij,mj->mi", q, dz[inner])
    return rows, float(np.max(np.linalg.norm(dzbar[inner] - rows, axis=-1)))


def _defect(J, values, grid):
    beltrami, _, res = solver._defect(J, values, grid, np.flatnonzero(grid.interior),
                                      grid.nodes(grid.interior))
    return beltrami, res


def _b_field(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * np.stack([np.stack([np.sin(x), np.cos(y)], -1),
                           np.stack([x * y, np.cos(x + y)], -1)], -2)


@pytest.mark.parametrize("r", [1.0, 0.37])
@pytest.mark.parametrize("perturbation", ["sin", _b_field])
def test_fused_defect_is_the_einsum_defect_to_the_bit(r, perturbation):
    J = gallery("conjugated", n=1, epsilon=0.3, perturbation=perturbation)
    g = make_grid(r, 33)
    v = np.random.default_rng(7).uniform(-0.5, 0.5, (33, 33, 2))
    v[:, :12] = 0.25                  # dz and the rows vanish on a band
    rows, res = _defect(J, v, g)
    want_rows, want_res = reference_defect(J, v, g)
    # the einsum starts each sum at +0, so where both products are -0 its
    # zero is +0; adding +0 changes no other value, and the density the
    # rows extend to has +0 there either way
    assert (rows + 0.0).tobytes() == want_rows.tobytes()
    ext = g.interior_extension()
    assert (ext @ rows).tobytes() == (ext @ want_rows).tobytes()
    assert res == want_res and cr_residual(J, DiskMap(g, v)) == want_res


def test_fused_defect_agrees_with_the_einsum_for_n2():
    J = gallery("conjugated", n=2, epsilon=0.2)
    g = make_grid(0.37, 33)
    v = np.random.default_rng(2).uniform(-0.5, 0.5, (33, 33, 4))
    rows, res = _defect(J, v, g)
    want_rows, want_res = reference_defect(J, v, g)
    assert np.max(np.abs(rows - want_rows)) <= 1e-15 * np.max(np.abs(want_rows))
    assert abs(res - want_res) <= 1e-15 * want_res


def test_solver_and_certificate_share_one_beltrami_term(J_conj, g65, monkeypatch):
    # every Picard step and the final cr_residual form q(v) dv/dz through
    # _defect, on v's values; the solve forms its node labels once
    labels = []
    defect = solver._defect

    def counted(J, values, grid, inner, node_labels):
        labels.append(node_labels)
        return defect(J, values, grid, inner, node_labels)

    monkeypatch.setattr(solver, "_defect", counted)
    sol = two_point_disk(J_conj, np.zeros(2), np.array([0.1, 0.0]), 0.5, SolverConfig(), g65)
    assert len(labels) == sol.iterations + 1
    assert all(x is labels[0] for x in labels[:-1])
    assert np.array_equal(labels[-1], g65.nodes(g65.interior))
    assert sol.residual == reference_defect(J_conj, sol.v.values, g65)[1]


def test_failed_match_raises_after_one_picard_call(J_conj, g65, monkeypatch):
    cfg = SolverConfig(epsilon=0.05, max_iter=2, tol_fixpoint=1e-15)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return picard_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "picard_solve", counted)
    p, q = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    for solve in (lambda: two_point_disk(J_conj, p, q, 0.5, cfg, g65),
                  lambda: derivative_disk(J_conj, p, q, cfg, g65)):
        calls.clear()
        with pytest.raises(Diverged) as info:
            solve()
        exc = info.value
        assert len(calls) == 1
        assert len(exc.deltas) == 2 and all(d > 0 for d in exc.deltas)
        assert exc.ratio == exc.deltas[1] / exc.deltas[0]


def test_dilatation_is_evaluated_at_interior_nodes_only(J_conj, g65, monkeypatch):
    # the density's ring rows come from interior_extension, so no Picard step
    # evaluates q on the ring; the final cr_residual reads interior nodes too
    sizes = []

    def counted(J, points, labels=None):
        sizes.append(len(points))
        return q_field(J, points, labels=labels)

    monkeypatch.setattr(solver, "q_field", counted)
    sol = two_point_disk(J_conj, np.zeros(2), np.array([0.1, 0.0]), 0.5, SolverConfig(), g65)
    assert sizes == [int(g65.interior.sum())] * (sol.iterations + 1)


def test_slow_contraction_converges_above_the_residual_cap():
    # J eps 0.9 with a long gap contracts slowly (worst ratio about 0.93):
    # it converges within the default budget of 80 steps, but the disk is
    # too coarse for the chain search's residual cap of 1e-2
    J = gallery("conjugated", n=1, epsilon=0.9)
    sol = two_point_disk(J, np.zeros(2), np.array([1.5, 0.4]), 0.5,
                         SolverConfig(), make_grid(1.0, 33))
    assert sol.iterations == 42
    assert 0.9 < max(sol.contraction_ratios()) < 1.0
    assert 1e-2 < sol.residual < 1.2e-2


def test_derivative_disk_standard_exact(J_std, g65):
    p = np.array([0.2, -0.1])
    w = np.array([0.3, 0.4])
    sol = derivative_disk(J_std, p, w, SolverConfig(), g65)
    target = DiskMap(g65, p + cmul(g65.Z, w))
    assert np.max(np.abs(sol.v.values - target.values)) < 1e-12


def test_derivative_disk_zero_vector_gives_constant(J_conj, g65):
    p = np.array([0.3, 0.3])
    sol = derivative_disk(J_conj, p, np.zeros(2), SolverConfig(), g65)
    assert np.allclose(sol.v.values[g65.mask], p, atol=0)
    assert sol.residual == 0.0


def test_derivative_disk_conjugated_matches_derivative(J_conj, g65):
    cfg = SolverConfig(epsilon=0.05)
    p = np.array([0.0, 0.0])
    w = np.array([0.2, 0.0])
    sol = derivative_disk(J_conj, p, w, cfg, g65)
    c = g65.center_index
    dz0 = d_dz(sol.v).values[c[0], c[1], :]
    assert np.linalg.norm(dz0 - w) < 1e-6
    assert np.linalg.norm(sol.v.value_at_center() - p) < 1e-6


def test_limits_of_low_residual_maps_have_low_residual(J_conj, g65):
    # closedness, numerically: perturb a solution by shrinking bumps; the
    # uniform limit's defect does not exceed the family's bound
    cfg = SolverConfig(epsilon=0.05)
    base = two_point_disk(J_conj, np.array([0.0, 0.0]), np.array([0.1, 0.0]),
                          0.5, cfg, g65).v
    bump = complex_map(g65, lambda z: np.sin(np.pi * z.real) * np.sin(np.pi * z.imag) + 0j)
    resids = []
    for k in range(1, 7):
        vk = DiskMap(g65, base.values + 2.0 ** -k * 0.01 * bump.values)
        resids.append(cr_residual(J_conj, vk))
    delta = max(resids)
    assert cr_residual(J_conj, base) <= delta + 0.01


def test_two_point_disk_in_two_complex_dimensions():
    J = gallery("conjugated", n=2, epsilon=0.1)
    g = make_grid(1.0, 33)
    cfg = SolverConfig(epsilon=0.05)
    p0 = np.array([0.0, 0.0, 0.0, 0.0])
    q0 = np.array([0.1, 0.0, -0.05, 0.1])
    sol = two_point_disk(J, p0, q0, 0.5, cfg, g)
    assert np.linalg.norm(sol.v.value_at_center() - p0) < 1e-6
    assert np.linalg.norm(eval_interp(sol.v, 0.5 + 0j) - q0) < 1e-6
    assert sol.residual < 1e-3
    assert sol.v.values.shape[2] == 4


def test_solution_records_scaling_identity(J_conj, g65):
    cfg = SolverConfig(epsilon=0.05)
    sol = two_point_disk(J_conj, np.array([0.0, 0.0]), np.array([0.1, 0.0]),
                         0.5, cfg, g65)
    assert sol.residual == cr_residual(J_conj, sol.v)


def _nested_reference(J, cfg, seed, observe, data):
    """The matched disk the slow way: a root finder over the target
    parameters in disk units, one full fixed-target ``picard_solve`` per
    residual.  Its targets are divided by epsilon, which picard_solve
    multiplies back."""
    tight = SolverConfig(epsilon=cfg.epsilon, tol_fixpoint=1e-13)

    def solve(x):
        return picard_solve(J, tight, seed(x / cfg.epsilon))

    root = scipy.optimize.root(lambda x: observe(solve(x).v) - data, data,
                               method="hybr", options={"xtol": 1e-13})
    assert root.success
    return solve(root.x).v


@pytest.mark.parametrize("eps, t", [(0.1, 0.5), (0.5, 0.25), (0.5, 0.1)])
def test_matched_loop_agrees_with_a_nested_solve(eps, t, monkeypatch):
    # both sides iterate to the absolute test alone, so they differ by the
    # matching, not by where the relative test stops each fixed point
    monkeypatch.setattr(solver, "_THETA", 0.0)
    J = gallery("conjugated", n=1, epsilon=eps)
    g = make_grid(1.0, 33)
    cfg = SolverConfig()
    p, q = np.array([0.05, -0.1]), np.array([0.3, 0.1])
    sol = two_point_disk(J, p, q, t, cfg, g)
    ref = _nested_reference(
        J, cfg, lambda y: affine_target(y[:2], y[2:], t, g),
        lambda v: np.concatenate([v.value_at_center(), eval_interp(v, complex(t, 0.0))]),
        np.concatenate([p, q]))
    assert np.max(np.abs(sol.v.values - ref.values)) < 1e-8
    assert np.max(np.abs(sol.v.value_at_center() - p)) < 1e-14
    assert np.max(np.abs(eval_interp(sol.v, complex(t, 0.0)) - q)) < 1e-14
    assert sol.iterations == len(sol.step_deltas) > 1


@pytest.mark.parametrize("eps, lam", [(0.3, 0.2), (0.3, 1.0)])
def test_matched_derivative_loop_agrees_with_a_nested_solve(eps, lam, monkeypatch):
    monkeypatch.setattr(solver, "_THETA", 0.0)
    J = gallery("conjugated", n=1, epsilon=eps)
    g = make_grid(1.0, 33)
    cfg = SolverConfig()
    c = g.center_index
    p, w = np.array([0.1, 0.0]), lam * np.array([1.0, 0.3])
    sol = derivative_disk(J, p, w, cfg, g)
    ref = _nested_reference(
        J, cfg, lambda y: DiskMap(g, y[:2] + cmul(g.Z, y[2:])),
        lambda v: np.concatenate([v.value_at_center(), d_dz(v).values[c]]),
        np.concatenate([p, w]))
    assert np.max(np.abs(sol.v.values - ref.values)) < 1e-8
    assert np.max(np.abs(sol.v.value_at_center() - p)) < 1e-14
    assert np.max(np.abs(d_dz(sol.v).values[c] - w)) < 1e-14
    assert sol.iterations == len(sol.step_deltas) > 1


@pytest.mark.parametrize("N", [33, 65])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_the_relative_stop_is_within_theta_of_the_residual(eps, N, monkeypatch):
    # the solve stops once its a posteriori fixed-point error bound is at
    # most theta times its residual; the iterate the absolute test alone
    # reaches stands in for the fixed point
    J = gallery("conjugated", n=1, epsilon=eps)
    g = make_grid(1.0, N)
    p, q, t = np.array([0.05, -0.1]), np.array([0.3, 0.1]), 0.5
    theta = solver._THETA
    sol = two_point_disk(J, p, q, t, SolverConfig(), g)
    monkeypatch.setattr(solver, "_THETA", 0.0)
    ref = two_point_disk(J, p, q, t, SolverConfig(), g)
    assert sol.iterations < ref.iterations
    gap = np.max(np.abs(sol.v.values[g.mask] - ref.v.values[g.mask]))
    assert gap <= 2 * theta * sol.residual
    # the matched data hold at every iterate, wherever the solve stops
    assert np.max(np.abs(sol.v.value_at_center() - p)) <= 1e-14
    assert np.max(np.abs(eval_interp(sol.v, complex(t, 0.0)) - q)) <= 1e-14


def test_a_disk_above_the_residual_cap_stops_near_its_fixed_point(monkeypatch):
    # the relative test counts a residual at most up to the acceptance cap:
    # at lambda 40 the derivative disk's residual is about 4.9, and the
    # solve stops within theta * cap of the fixed point that the absolute
    # test alone reaches only past the default budget of 80 steps
    nu = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    J = gallery("conjugated", n=1, epsilon=0.2)
    g = make_grid(1.0, 33)
    sol = derivative_disk(J, np.zeros(2), 40.0 * nu, SolverConfig(), g)
    assert sol.iterations == 48 and 4.8 < sol.residual < 4.9
    monkeypatch.setattr(solver, "_THETA", 0.0)
    with pytest.raises(Diverged):
        derivative_disk(J, np.zeros(2), 40.0 * nu, SolverConfig(), g)
    ref = derivative_disk(J, np.zeros(2), 40.0 * nu, SolverConfig(max_iter=200), g)
    assert ref.iterations > 80
    gap = np.max(np.abs(sol.v.values[g.mask] - ref.v.values[g.mask]))
    assert gap <= 2e-3 * solver._RESIDUAL_CAP


@pytest.mark.parametrize("J, q", [
    (gallery("standard", n=1), np.array([0.3, 0.1])),                  # delta reaches 0
    (gallery("conjugated", n=1, epsilon=0.9), np.array([3.0, 1.0])),   # ratios >= 1
])
def test_the_relative_stop_divides_nothing(J, q):
    # a zero previous delta and a ratio of 1 or more must not reach a
    # division: with RuntimeWarnings as errors the solve ends as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = two_point_disk(J, np.zeros(2), q, 0.5, SolverConfig(), make_grid(1.0, 33))
        except Diverged as exc:
            assert exc.ratio >= 1.0
        else:
            assert sol.step_deltas == [0.0]


@pytest.mark.parametrize("scale", [100.0, 1e6])
@pytest.mark.parametrize("cap", [None, solver._RESIDUAL_CAP])
def test_a_solve_that_stops_contracting_diverges_within_two_windows(scale, cap, monkeypatch):
    # far above the derivative bound's edge (about 4.3) the iterate wanders:
    # its step deltas neither shrink nor blow up, and step 10 or soon after
    # shows that the last 5 steps moved it no less than the 5 before
    nu = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    J = gallery("conjugated", n=1, epsilon=0.2)
    apply, applies = solver.cg_apply, []

    def counted(op, values):
        applies.append(1)
        return apply(op, values)

    monkeypatch.setattr(solver, "cg_apply", counted)
    with pytest.raises(Diverged, match="no contraction over 10 steps") as exc:
        derivative_disk(J, np.zeros(2), scale * nu, SolverConfig(), make_grid(1.0, 33), cap=cap)
    assert 10 <= len(applies) <= 20
    deltas = exc.value.deltas
    assert len(deltas) == 10 and max(deltas[5:]) >= max(deltas[:5])


def test_a_huge_derivative_overflows_to_a_diverged_solve():
    # the residual's sum of squares overflows to inf without a warning, so
    # neither stopping test nor the early reject fires, and the iterate's
    # step deltas stop contracting
    J = gallery("conjugated", n=1, epsilon=0.2)
    w = 1e300 * np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    for cap in (None, solver._RESIDUAL_CAP):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Diverged):
                derivative_disk(J, np.zeros(2), w, SolverConfig(), make_grid(1.0, 9), cap=cap)
