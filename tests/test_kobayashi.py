import math

import numpy as np
import pytest

from jdisk import kobayashi, solver
from jdisk.diskgrid import eval_interp, make_grid
from jdisk.errors import (Diverged, InvalidChain, InvalidParams, NoChainFound,
                          NotHolomorphicMap, Singular)
from jdisk.kobayashi import (Chain, ChainLink, KobayashiOptions, chain_cost,
                             derivative_bound, estimate_distance, pushforward_chain,
                             validate_chain)
from jdisk.solver import SolverConfig, derivative_disk, picard_solve, two_point_disk
from jdisk.structure import gallery


@pytest.fixture(scope="module")
def J_std():
    return gallery("standard", n=1)


@pytest.fixture(scope="module")
def J_torus():
    return gallery("torus-flat", n=1)


def quick_opts(**kw):
    base = dict(k_max=2, t_grid=(0.05, 0.1, 0.25, 0.5), grid_n=33)
    base.update(kw)
    return KobayashiOptions(**base)


def test_identical_points_give_zero(J_std):
    est = estimate_distance(J_std, np.array([0.2, 0.1]), np.array([0.2, 0.1]),
                            quick_opts())
    assert est.upper == 0.0
    assert est.best_chain.links == []


def test_chain_cost_single_and_double_link(J_std):
    p, q = np.zeros(2), np.array([0.3, 0.0])
    est = estimate_distance(J_std, p, q, quick_opts(t_grid=(0.5,), k_max=1))
    assert est.upper == pytest.approx(np.arctanh(0.5), abs=1e-15)
    est2 = estimate_distance(J_std, p, q, quick_opts(t_grid=(0.5,), k_max=2))
    # with only t = 0.5 available the one-link chain is already cheapest
    assert est2.upper == est.upper
    # out-and-back concatenation: two links of equal cost add exactly
    back = estimate_distance(J_std, q, p, quick_opts(t_grid=(0.5,), k_max=1))
    loop = Chain(est.best_chain.links + back.best_chain.links, J_std.domain)
    assert chain_cost(loop) == 2 * est.upper


def test_flat_chart_bound_shrinks_with_t(J_std):
    est = estimate_distance(J_std, np.zeros(2), np.array([0.3, 0.0]), quick_opts())
    assert est.upper <= np.arctanh(0.05) + 1e-9
    assert len(est.best_chain.links) == 1
    validate_chain(est.best_chain)


@pytest.mark.parametrize("grid_r, t_grid", [(0.5, (0.05, 0.1, 0.15, 0.2, 0.25, 0.4)),
                                             (2.0, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))])
def test_link_cost_is_measured_in_the_radius_of_its_disk(grid_r, t_grid):
    # in the unit ball the pseudo-distance from 0 to 0.3 is arctanh(0.3); the
    # affine disk of radius r through both points stays in the ball from
    # t = 0.3 r on, where its cost arctanh(t / r) attains that distance
    J = gallery("standard", radius=1.0)
    est = estimate_distance(J, np.zeros(2), np.array([0.3, 0.0]),
                            KobayashiOptions(k_max=1, grid_r=grid_r, t_grid=t_grid))
    assert abs(est.upper - np.arctanh(0.3)) <= 1e-15
    (link,) = est.best_chain.links
    assert link.b == pytest.approx(0.3 * grid_r)
    assert link.cost == est.upper == chain_cost(est.best_chain)


def test_monotone_in_search_breadth(J_std):
    p, q = np.zeros(2), np.array([0.4, 0.2])
    coarse = estimate_distance(J_std, p, q, quick_opts(t_grid=(0.5, 0.25), k_max=1))
    finer_t = estimate_distance(J_std, p, q, quick_opts(t_grid=(0.5, 0.25, 0.1), k_max=1))
    more_k = estimate_distance(J_std, p, q, quick_opts(t_grid=(0.5, 0.25), k_max=3))
    assert finer_t.upper <= coarse.upper
    assert more_k.upper <= coarse.upper


def test_symmetry_of_estimates(J_std):
    p, q = np.array([0.1, -0.2]), np.array([-0.3, 0.25])
    a = estimate_distance(J_std, p, q, quick_opts())
    b = estimate_distance(J_std, q, p, quick_opts())
    assert a.upper == b.upper


def test_search_log_records_attempts(J_std):
    est = estimate_distance(J_std, np.zeros(2), np.array([0.3, 0.0]),
                            quick_opts(k_max=1))
    assert est.search_log
    ks, ts, costs = zip(*est.search_log)
    assert all(k == 1 for k in ks)
    assert min(costs) == est.upper


def _exhaustive_search(J, p, q, opts):
    """The chain search without pruning: every (k, link, t) attempt is solved."""
    dom, grid = J.domain, make_grid(opts.grid_r, opts.grid_n)
    delta = dom.shortest_delta(p, q)
    best, best_key, log = None, None, []
    for k in range(1, opts.k_max + 1):
        waypoints = [p + (i / k) * delta for i in range(k + 1)]
        links = []
        for i in range(k):
            for t in sorted(opts.t_grid):
                try:
                    sol = two_point_disk(J, waypoints[i], waypoints[i + 1], t, opts.cfg, grid)
                except (Diverged, Singular):
                    log.append((k, t, math.inf))
                    continue
                link = ChainLink(sol, complex(t, 0.0), waypoints[i], waypoints[i + 1])
                ok = (sol.residual <= opts.residual_cap
                      and dom.contains(sol.v.values[grid.mask])
                      and dom.point_gap(eval_interp(sol.v, link.b), link.dst) <= 1e-8)
                log.append((k, t, link.cost if ok else math.inf))
                if ok:
                    links.append(link)
                    break
            else:
                break
        else:
            chain = Chain(links, dom)
            key = (chain.total_cost, k, max(link.b.real for link in links))
            if best is None or key < best_key:
                best, best_key = chain, key
    return best, log


def _conjugated_inputs(epsilon, seed, count=3):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.uniform(-0.3, 0.3, size=2)
        gap, angle = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2.0 * np.pi)
        yield (gallery("conjugated", epsilon=epsilon), p,
               p + gap * np.array([np.cos(angle), np.sin(angle)]), KobayashiOptions())


_SEARCH_INPUTS = [
    *_conjugated_inputs(0.2, seed=1),
    *_conjugated_inputs(0.5, seed=2),
    (gallery("standard"), np.array([0.1, -0.2]), np.array([-0.3, 0.25]), quick_opts()),
    # no single link fits in the unit ball, so the best chain has two
    (gallery("standard", radius=1.0), np.zeros(2), np.array([0.6, 0.0]), quick_opts()),
    (gallery("torus-flat"), np.zeros(2), np.array([0.9, 0.3]), quick_opts(k_max=3)),
]


@pytest.mark.parametrize("J, p, q, opts", _SEARCH_INPUTS,
                         ids=[f"{J.name}-{i}" for i, (J, *_) in enumerate(_SEARCH_INPUTS)])
def test_pruned_search_returns_the_exhaustive_best_chain(J, p, q, opts):
    ref, ref_log = _exhaustive_search(J, p, q, opts)
    est = estimate_distance(J, p, q, opts)
    assert est.upper == ref.total_cost
    assert len(est.best_chain.links) == len(ref.links)
    for link, ref_link in zip(est.best_chain.links, ref.links):
        assert link.b == ref_link.b
        assert np.array_equal(link.disk.v.values, ref_link.disk.v.values)
    # pruning only drops attempts; the ones it makes come in the same order
    remaining = iter(ref_log)
    assert all(entry in remaining for entry in est.search_log)
    assert len(est.search_log) + len(est.pruned) <= len(ref_log)
    for k, i, t, lower in est.pruned:
        assert lower >= est.upper


def test_search_skips_the_links_that_cannot_beat_the_best(monkeypatch):
    # the benchmark's warm-up op: k = 1 is rejected at t = 0.05 and accepted
    # at 0.1, k = 2 costs 2 f at 0.05, and three links cost at least 3 f
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return two_point_disk(*args, **kwargs)

    monkeypatch.setattr(kobayashi, "two_point_disk", counted)
    J = gallery("conjugated", epsilon=0.2)
    p = np.zeros(2)
    q = p + 0.3 * np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    est = estimate_distance(J, p, q, KobayashiOptions())
    assert calls == [0.05, 0.1, 0.05, 0.05]
    assert len(est.search_log) == 4
    ((k, i, t, lower),) = est.pruned
    assert (k, i, t) == (3, 0, 0.05)
    assert lower >= est.upper


def test_torus_distance_vanishes_with_t(J_torus):
    est = estimate_distance(J_torus, np.zeros(2), np.array([0.5, 0.0]),
                            quick_opts(t_grid=(0.05, 0.25)))
    assert est.upper == pytest.approx(np.arctanh(0.05), abs=1e-12)
    finer = estimate_distance(J_torus, np.zeros(2), np.array([0.5, 0.0]),
                              quick_opts(t_grid=(0.01, 0.05, 0.25)))
    assert finer.upper < est.upper


def test_torus_waypoints_use_shortest_representative(J_torus):
    # q ~ (0.9, 0) is one lattice shift away from (-0.1, 0)
    est = estimate_distance(J_torus, np.zeros(2), np.array([0.9, 0.0]),
                            quick_opts(t_grid=(0.05,), k_max=1))
    assert est.upper == pytest.approx(np.arctanh(0.05), abs=1e-12)
    link = est.best_chain.links[0]
    assert np.linalg.norm(link.dst - np.array([-0.1, 0.0])) < 1e-12


def test_no_chain_in_tiny_ball():
    J = gallery("standard", n=1, radius=0.2)
    with pytest.raises(NoChainFound):
        estimate_distance(J, np.zeros(2), np.array([0.15, 0.0]),
                          quick_opts(t_grid=(0.5,), k_max=1))


def test_options_reject_an_empty_search():
    with pytest.raises(InvalidParams):
        KobayashiOptions(k_max=0)
    with pytest.raises(InvalidParams):
        KobayashiOptions(t_grid=())


def test_residual_cap_is_a_constant_not_an_option():
    # the search and derivative_bound take the one cap solver._RESIDUAL_CAP
    with pytest.raises(TypeError):
        KobayashiOptions(residual_cap=0.5)
    assert KobayashiOptions().residual_cap == solver._RESIDUAL_CAP


def test_search_tries_a_repeated_node_once():
    # the link at t = 0.05 is rejected for k = 1, and a repeat of the node
    # neither solves it again nor logs it twice
    J, p, q = gallery("conjugated", n=1, epsilon=0.1), [0.0, 0.0], [0.3, 0.0]
    est = estimate_distance(J, p, q, KobayashiOptions(t_grid=(0.05, 0.05, 0.5)))
    ref = estimate_distance(J, p, q, KobayashiOptions(t_grid=(0.05, 0.5)))
    assert est.search_log[0] == (1, 0.05, math.inf)
    assert est.search_log.count((1, 0.05, math.inf)) == 1
    assert (est.upper, est.search_log, est.pruned) == (ref.upper, ref.search_log, ref.pruned)
    assert len(est.best_chain.links) == len(ref.best_chain.links)
    for link, want in zip(est.best_chain.links, ref.best_chain.links):
        assert (link.b, link.src.tolist(), link.dst.tolist()) == (
            want.b, want.src.tolist(), want.dst.tolist())
        assert link.disk.v.values.tobytes() == want.disk.v.values.tobytes()


@pytest.mark.parametrize("call", [
    lambda J: two_point_disk(J, [0.0, 0.0], [0.1, 0.0, 0.0, 0.0], 0.5, SolverConfig(),
                             make_grid(1.0, 9)),
    lambda J: two_point_disk(J, [0.0, 0.0], [0.1], 0.5, SolverConfig(), make_grid(1.0, 9)),
    lambda J: two_point_disk(J, [0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0], 0.5,
                             SolverConfig(), make_grid(1.0, 9)),
    lambda J: derivative_disk(J, [0.0, 0.0], [0.1, 0.0, 0.0, 0.0], SolverConfig(),
                              make_grid(1.0, 9)),
    lambda J: derivative_disk(J, [0.0, 0.0], [0.1], SolverConfig(), make_grid(1.0, 9)),
    lambda J: derivative_bound(J, [0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 4.0),
    lambda J: estimate_distance(J, [0.0, 0.0], [0.3, 0.0, 0.0, 0.0]),
], ids=["two_point_disk-q4", "two_point_disk-q1", "two_point_disk-p4q4", "derivative_disk-w4",
        "derivative_disk-w1", "derivative_bound-nu4", "estimate_distance-q4"])
def test_a_vector_of_the_wrong_length_is_invalid(call, J_std):
    # each vector is checked against the real dimension 2n = 2 before any solve
    with pytest.raises(InvalidParams, match="must have 2 coordinates"):
        call(J_std)


def test_search_uses_nodes_beyond_one_on_a_wide_grid(J_std):
    # on r = 2.5 a node at t = 1.5 is valid and a link there costs arctanh(t / r)
    est = estimate_distance(J_std, [0.0, 0.0], [0.3, 0.0],
                            KobayashiOptions(grid_r=2.5, t_grid=(1.5,), k_max=1))
    assert est.upper == pytest.approx(math.atanh(0.6), abs=1e-15)
    validate_chain(est.best_chain, 1e-12)


@pytest.mark.parametrize("t", [0.75, 0.999])
def test_search_rejects_a_node_the_grid_cannot_read(J_std, t):
    # N = 9 reads v(t) only for t below r - h = 0.75
    with pytest.raises(InvalidParams):
        estimate_distance(J_std, np.zeros(2), np.array([0.1, 0.0]),
                          KobayashiOptions(grid_n=9, t_grid=(t,)))


@pytest.mark.parametrize("t_grid", [(0.5, 0.75), (0.75, 0.5), (0.5, 0.0)])
def test_search_checks_every_node_before_solving(J_std, t_grid, monkeypatch):
    # t = 0.5 is accepted at N = 9, so a sweep that checked each node only
    # when it reached it would stop there and return a chain
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return picard_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "picard_solve", counted)
    with pytest.raises(InvalidParams):
        estimate_distance(J_std, np.zeros(2), np.array([0.1, 0.0]),
                          KobayashiOptions(grid_n=9, t_grid=t_grid, k_max=1))
    assert calls == []


def test_triangle_via_concatenation(J_std):
    p = np.zeros(2)
    q = np.array([0.2, 0.0])
    r = np.array([0.2, 0.2])
    pq = estimate_distance(J_std, p, q, quick_opts())
    qr = estimate_distance(J_std, q, r, quick_opts())
    joined = Chain(pq.best_chain.links + qr.best_chain.links, J_std.domain)
    validate_chain(joined)
    assert chain_cost(joined) == pq.upper + qr.upper


def test_chain_cost_rejects_disjoint_links(J_std):
    a = estimate_distance(J_std, np.zeros(2), np.array([0.2, 0.0]), quick_opts())
    b = estimate_distance(J_std, np.array([0.5, 0.5]), np.array([0.7, 0.5]), quick_opts())
    joined = Chain(a.best_chain.links + b.best_chain.links, J_std.domain)
    with pytest.raises(InvalidChain):
        chain_cost(joined)
    with pytest.raises(InvalidChain):
        validate_chain(joined)


def test_pushforward_preserves_cost_exactly(J_std, J_torus):
    est = estimate_distance(J_torus, np.zeros(2), np.array([0.5, 0.0]), quick_opts())
    shift = np.array([0.3, 0.7])
    pushed = pushforward_chain(est.best_chain, lambda v: v + shift, J_torus)
    assert chain_cost(pushed) == est.upper
    assert all(link.disk.residual < 1e-10 for link in pushed.links)

    est2 = estimate_distance(J_std, np.zeros(2), np.array([0.3, 0.0]), quick_opts())
    def double(v):  # complex-linear map z -> 2z in the real representation
        return 2.0 * v

    pushed2 = pushforward_chain(est2.best_chain, double, J_std)
    assert chain_cost(pushed2) == est2.upper
    assert all(link.disk.residual < 1e-10 for link in pushed2.links)
    # target estimate never exceeds the pushed-forward source estimate
    tgt = estimate_distance(J_std, 2 * np.zeros(2), np.array([0.6, 0.0]), quick_opts())
    assert tgt.upper <= chain_cost(pushed2) + 1e-15


def test_pushed_links_keep_their_step_deltas(J_torus):
    est = estimate_distance(J_torus, np.zeros(2), np.array([0.5, 0.0]), quick_opts())
    pushed = pushforward_chain(est.best_chain, lambda v: v + np.array([0.3, 0.7]), J_torus)
    for src, link in zip(est.best_chain.links, pushed.links, strict=True):
        assert link.disk.step_deltas == src.disk.step_deltas
        assert link.disk.iterations == len(link.disk.step_deltas) == src.disk.iterations


def test_pushforward_rejects_conjugation(J_std):
    est = estimate_distance(J_std, np.zeros(2), np.array([0.3, 0.0]), quick_opts())

    def conjugate(v):
        out = v.copy()
        out[..., 1] = -out[..., 1]
        return out

    with pytest.raises(NotHolomorphicMap):
        pushforward_chain(est.best_chain, conjugate, J_std)


def test_derivative_bound_unit_ball():
    J = gallery("standard", n=1, radius=1.0)
    rep = derivative_bound(J, np.zeros(2), np.array([1.0, 0.0]), 4.0,
                           cfg=SolverConfig(), grid=make_grid(1.0, 33))
    assert abs(rep.lambda_lower - 1.0) <= 0.05
    assert not rep.unbounded_suspected
    assert rep.probes[0].lam == 4.0 and rep.probes[0].feasible is False
    assert rep.probes[0].gate == "containment"


def test_derivative_bound_torus_flags_unbounded(J_torus):
    rep = derivative_bound(J_torus, np.array([0.2, 0.7]), np.array([1.0, 0.0]),
                           1e3, cfg=SolverConfig(), grid=make_grid(1.0, 33))
    assert rep.lambda_lower == 1e3
    assert rep.unbounded_suspected


def test_derivative_bound_zero_scale_always_feasible(J_torus):
    rep = derivative_bound(J_torus, np.zeros(2), np.array([0.0, 1.0]), 1e3,
                           cfg=SolverConfig(), grid=make_grid(1.0, 17))
    assert rep.lambda_lower > 0.0


@pytest.mark.parametrize("lambda_max, bisect_tol", [
    (-1.0, 0.01), (0.0, 0.01), (np.inf, 0.01), (np.nan, 0.01),
    (4.0, 0.0), (4.0, -0.01), (4.0, np.nan),
])
def test_derivative_bound_rejects_an_empty_or_endless_search(J_std, lambda_max, bisect_tol):
    with pytest.raises(InvalidParams):
        derivative_bound(J_std, np.zeros(2), np.array([1.0, 0.0]), lambda_max,
                         bisect_tol=bisect_tol)


def test_derivative_bound_stops_at_float_resolution():
    # a tolerance below the spacing of floats near the bound used to loop forever
    J = gallery("standard", n=1, radius=1.0)
    rep = derivative_bound(J, np.zeros(2), np.array([1.0, 0.0]), 4.0,
                           grid=make_grid(1.0, 9), bisect_tol=1e-300)
    lams = [probe.lam for probe in rep.probes]
    assert len(lams) == len(set(lams)) < 100
    assert abs(rep.lambda_lower - 1.0) <= 0.05


def test_derivative_bound_gates_each_probe_on_its_residual(monkeypatch):
    # conjugated eps 0.2 contains every disk, so only the solves and the
    # residual cap bound lambda; an ungated scan accepts the lambda_max
    # disk, whose residual is of order 5
    J = gallery("conjugated", n=1, epsilon=0.2)
    p, nu, g = np.zeros(2), np.array([1.0, 0.3]), make_grid(1.0, 33)
    with monkeypatch.context() as m:
        m.setattr(kobayashi, "_RESIDUAL_CAP", math.inf)
        ungated = derivative_bound(J, p, nu, 40.0, grid=g)
    assert ungated.unbounded_suspected and ungated.probes[0].residual > 1.0
    for theta in (solver._THETA, 0.0):
        monkeypatch.setattr(solver, "_THETA", theta)
        rep = derivative_bound(J, p, nu, 40.0, grid=g)
        assert (rep.lambda_lower, rep.unbounded_suspected, len(rep.probes)) == (
            4.296875, False, 13)
        for probe in rep.probes:
            if probe.residual is None:
                assert (probe.feasible, probe.gate) == (False, "Diverged")
            else:
                assert probe.feasible == (probe.residual <= solver._RESIDUAL_CAP)
                assert probe.gate == (None if probe.feasible else "residual")
    assert KobayashiOptions().residual_cap == kobayashi._RESIDUAL_CAP == solver._RESIDUAL_CAP


def test_derivative_bound_records_a_failed_solve():
    J = gallery("conjugated", n=1, epsilon=0.2)
    rep = derivative_bound(J, np.zeros(2), np.array([1.0, 0.3]), 40.0,
                           cfg=SolverConfig(max_iter=3), grid=make_grid(1.0, 33))
    first = rep.probes[0]
    assert (first.lam, first.feasible, first.residual, first.gate) == (
        40.0, False, None, "Diverged")
