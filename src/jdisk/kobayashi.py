"""Chain-based estimation of the holomorphic pseudo-distance.

A chain joins two points through waypoints, each consecutive pair realized
by a solved disk evaluated at source parameter 0 and target parameter
b = t.  A link's cost is the hyperbolic distance between the parameters in
the disk it was solved on, arctanh(t / r) for radius r, so the total cost
of any certified chain is an upper bound on the pseudo-distance by
definition (Kobayashi, Hyperbolic Complex Spaces, 1998).  The search
explores waypoints equally spaced along the chart segment (shortest
lattice representative on a torus) and sweeps the interpolation node t per
link, keeping the cheapest chain found.  Every link costs at least
arctanh(t_min / r), so a k-link chain costs at least k arctanh(t_min / r);
the search skips the link solves that this bound shows cannot beat the best
chain so far, and returns the chain the full search would.  The returned
bound is monotone: enlarging ``k_max`` or refining ``t_grid`` can only grow
the candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diskgrid import DiskGrid, DiskMap, eval_interp, make_grid, poincare_distance
from .errors import (Diverged, InvalidChain, InvalidParams, NoChainFound,
                     NotHolomorphicMap, Singular)
from .solver import (_RESIDUAL_CAP, DiskSolution, SolverConfig, _point, check_node,
                     cr_residual, derivative_disk, two_point_disk)
from .structure import DomainDescriptor, StructureField

_ENDPOINT_TOL = 1e-8     # largest accepted gap between a link's end and its target


@dataclass
class ChainLink:
    """A disk joining ``src`` at parameter 0 to ``dst`` at parameter ``b``."""

    disk: DiskSolution
    b: complex
    src: np.ndarray
    dst: np.ndarray

    @property
    def cost(self) -> float:
        """Hyperbolic distance from 0 to ``b`` = t in the disk of the link's
        own radius r, arctanh(t / r)."""
        return poincare_distance(0, self.b, r=self.disk.v.grid.r)


@dataclass
class Chain:
    links: list
    domain: DomainDescriptor

    @property
    def total_cost(self) -> float:
        return float(sum(link.cost for link in self.links))


@dataclass
class DistanceEstimate:
    best_chain: Chain
    search_log: list
    pruned: list = field(default_factory=list)

    @property
    def upper(self) -> float:
        """The cost of ``best_chain``."""
        return self.best_chain.total_cost


@dataclass
class BoundProbe:
    """One ``derivative_bound`` solve at scale ``lam``: whether it was
    ``feasible``, its disk's ``residual`` (None when the solve raised) and,
    for an infeasible probe, the ``gate`` that decided it: "Diverged" or
    "Singular" for a solve that raised, "residual" for a disk above the
    residual cap, "containment" for one that leaves the domain."""

    lam: float
    feasible: bool
    residual: float | None
    gate: str | None


@dataclass
class BoundReport:
    lambda_lower: float
    lambda_max: float
    unbounded_suspected: bool
    probes: list


@dataclass
class KobayashiOptions:
    """``estimate_distance``'s search: at most ``k_max`` links, each tried at
    the distinct ``t_grid`` nodes and solved with ``cfg`` on ``make_grid(grid_r,
    grid_n)``.  ``residual_cap``, the constant ``solver._RESIDUAL_CAP``, stays
    only for the benchmark's distance check (``perfbench/workloads.py``)."""

    k_max: int = 3
    t_grid: tuple = (0.05, 0.1, 0.25, 0.5)
    cfg: SolverConfig = field(default_factory=SolverConfig)
    grid_n: int = 33
    grid_r: float = 1.0
    residual_cap = _RESIDUAL_CAP

    def __post_init__(self):
        if not self.k_max >= 1:
            raise InvalidParams(f"k_max must be at least 1, got {self.k_max}")
        if len(self.t_grid) == 0:
            raise InvalidParams("t_grid must hold at least one node")


def chain_cost(chain: Chain, tol: float = 1e-8) -> float:
    """Total cost after checking that consecutive links share endpoints."""
    dom = chain.domain
    prev_dst = None
    for i, link in enumerate(chain.links):
        if prev_dst is not None and dom.point_gap(prev_dst, link.src) > tol:
            raise InvalidChain(f"links {i - 1} and {i} do not share an endpoint")
        prev_dst = link.dst
    return chain.total_cost


def validate_chain(chain: Chain, tol_endpoint: float = 1e-6) -> None:
    """Certify every link: declared endpoints are hit by the stored disk."""
    dom = chain.domain
    for i, link in enumerate(chain.links):
        va = link.disk.v.value_at_center()
        vb = eval_interp(link.disk.v, link.b)
        if dom.point_gap(va, link.src) > tol_endpoint:
            raise InvalidChain(f"link {i} misses its source point")
        if dom.point_gap(vb, link.dst) > tol_endpoint:
            raise InvalidChain(f"link {i} misses its target point")
    chain_cost(chain, tol=tol_endpoint)


def _gate(sol: DiskSolution, dom: DomainDescriptor) -> str | None:
    """The gate a solved disk fails, or None: "residual" above
    ``solver._RESIDUAL_CAP`` (an uncertified disk's image says nothing, so
    this decides first), else "containment" for a node outside ``dom``."""
    if not sol.residual <= _RESIDUAL_CAP:
        return "residual"
    if not dom.contains(sol.v.values[sol.v.grid.mask]):
        return "containment"
    return None


def estimate_distance(J: StructureField, p, q, opts: KobayashiOptions | None = None) -> DistanceEstimate:
    """Cheapest certified chain joining p and q.

    ``upper`` is the cost of the returned chain, whatever the search
    pruned; a link accepted at node t costs arctanh(t / r), its hyperbolic
    length in the disk of the search grid's radius r = ``grid_r``.  What is
    certified is the chain of *discretized* disks: every accepted link has
    its target endpoint, read off the grid by bilinear interpolation at t,
    within the endpoint tolerance; its ``cr_residual``, a sup over grid
    nodes only, at most ``solver._RESIDUAL_CAP`` (1e-2); and its image at
    the grid nodes inside the domain (``_gate``).  A link's disk is the
    Picard iterate at which its solve stopped, not the fixed point itself:
    its distance to the fixed point is at most about ``solver._THETA``
    (1e-3) times its residual (see ``picard_solve``).  Nothing is checked
    between nodes, and a t below the grid step falls inside the first cell,
    so ``upper`` bounds the pseudo-distance only up to the discretization
    error.  The search log records one (k, t, cost) triple per attempted
    link solve, with infinite cost for rejected attempts; a node repeated
    in ``t_grid`` is tried once.

    The search is an exact branch and bound.  Before solving link i of a
    k-link chain at node t it sums the accepted links' costs, t's cost and
    k - i - 1 copies of f = arctanh(t_min / r), the least cost of a link; no
    chain completed from there costs less.  If that sum reaches the best
    cost so far, the rest of k is skipped (larger nodes cost more, and a tie
    goes to the best chain's smaller k) and ``pruned`` records
    (k, i, t, lower).  An entry (k, 0, t_min, lower) means k f is already
    out of reach, so it also ends the search over every larger k.  The
    result is the chain the unpruned search returns.  A ``t_grid`` node that
    ``check_node`` rejects on the search grid raises ``InvalidParams``
    before any solve.
    """
    opts = opts or KobayashiOptions()
    p, q = _point(J, "p", p), _point(J, "q", q)
    dom = J.domain
    if dom.point_gap(p, q) == 0.0:
        return DistanceEstimate(Chain([], dom), [])

    grid = make_grid(opts.grid_r, opts.grid_n)
    for t in opts.t_grid:
        check_node(t, grid)
    t_values = sorted(set(opts.t_grid))
    delta = dom.shortest_delta(p, q)

    # a link accepted at node t costs cost_t, the same float ChainLink.cost
    # gives, and no link costs less than f, the cost of the smallest node
    costs = [poincare_distance(0, complex(t, 0.0), r=grid.r) for t in t_values]
    f = costs[0]

    best: Chain | None = None
    log: list = []
    pruned: list = []
    for k in range(1, opts.k_max + 1):
        waypoints = [p + (i / k) * delta for i in range(k + 1)]
        links = []
        prefix = 0
        for i in range(k):
            link = None
            for t, cost_t in zip(t_values, costs):
                if best is not None:
                    # summed in the order of Chain.total_cost, so no chain
                    # completed from here costs less than lower; a tie
                    # loses too, since best has fewer links
                    lower = prefix + cost_t
                    for _ in range(k - i - 1):
                        lower += f
                    if lower >= best.total_cost:
                        pruned.append((k, i, t, lower))
                        break
                try:
                    sol = two_point_disk(J, waypoints[i], waypoints[i + 1], t, opts.cfg, grid)
                except (Diverged, Singular):
                    log.append((k, t, math.inf))
                    continue
                cand = ChainLink(sol, complex(t, 0.0), waypoints[i], waypoints[i + 1])
                ok = (_gate(sol, dom) is None
                      and dom.point_gap(eval_interp(sol.v, cand.b), cand.dst)
                      <= _ENDPOINT_TOL)
                log.append((k, t, cand.cost if ok else math.inf))
                if ok:
                    link = cand
                    break
            if link is None:
                break
            links.append(link)
            prefix += link.cost
        else:
            # beats best: its last link passed lower < best.total_cost, lower is its cost
            best = Chain(links, dom)
        if pruned and pruned[-1][:3] == (k, 0, t_values[0]):
            # k f is out of reach, and so is every larger multiple
            break
    if best is None:
        raise NoChainFound(
            f"no (k <= {opts.k_max}, t in {tuple(t_values)}) chain joins the points")
    return DistanceEstimate(best, log, pruned)


def pushforward_chain(chain: Chain, f, J_target: StructureField,
                      residual_tol: float = 1e-3) -> Chain:
    """Compose every link disk with a map between domains.

    Source and target parameters are untouched, so the cost is preserved
    exactly.  Each composed disk is re-certified against the target
    structure; failure raises ``NotHolomorphicMap``.
    """
    new_links = []
    for i, link in enumerate(chain.links):
        vals = np.asarray(f(link.disk.v.values.reshape(-1, link.disk.v.values.shape[-1])))
        vals = vals.reshape(link.disk.v.values.shape[:2] + (vals.shape[-1],))
        v_new = DiskMap(link.disk.v.grid, vals)
        resid = cr_residual(J_target, v_new)
        if resid > residual_tol:
            raise NotHolomorphicMap(
                f"composed link {i} has residual {resid:.3e} > {residual_tol:.1e}")
        sol = DiskSolution(v_new, resid, link.disk.step_deltas)
        src = np.asarray(f(link.src[None, :]))[0]
        dst = np.asarray(f(link.dst[None, :]))[0]
        new_links.append(ChainLink(sol, link.b, src, dst))
    return Chain(new_links, J_target.domain)


def derivative_bound(J: StructureField, p, nu, lambda_max: float,
                     cfg: SolverConfig | None = None, grid: DiskGrid | None = None,
                     bisect_tol: float = 0.01) -> BoundReport:
    """Largest derivative scale at which a certified disk through p with
    prescribed derivative exists and stays inside the domain.

    Bisection on the scale; the result is a lower bound for the derivative
    supremum over all disks.  A scale is feasible when its solve converges
    to a disk whose ``cr_residual`` is at most ``solver._RESIDUAL_CAP``
    (1e-2, the distance search's cap too) and whose grid nodes lie in the
    domain (``_gate``); each probe is recorded as a ``BoundProbe``
    with its residual and the gate that rejected it.  Feasibility at
    ``lambda_max`` itself is flagged as ``unbounded_suspected`` (the scan
    cannot certify an actual supremum).  ``lambda_max`` and ``bisect_tol``
    must be positive and finite; the bisection also stops once it reaches
    adjacent floats.
    """
    for name, value in (("lambda_max", lambda_max), ("bisect_tol", bisect_tol)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be positive and finite, got {value}")
    cfg = cfg or SolverConfig()
    grid = grid or make_grid(1.0, 33)
    p, nu = _point(J, "p", p), _point(J, "nu", nu)
    nrm = np.linalg.norm(nu)
    if nrm == 0:
        raise InvalidParams("direction must be nonzero")
    nu = nu / nrm
    dom = J.domain
    probes: list = []

    def feasible(lam: float) -> bool:
        try:
            sol = derivative_disk(J, p, lam * nu, cfg, grid)
        except (Diverged, Singular) as exc:
            probes.append(BoundProbe(lam, False, None, type(exc).__name__))
            return False
        gate = _gate(sol, dom)
        probes.append(BoundProbe(lam, gate is None, sol.residual, gate))
        return gate is None

    if feasible(lambda_max):
        return BoundReport(lambda_max, lambda_max, True, probes)
    lo, hi = 0.0, lambda_max
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return BoundReport(lo, lambda_max, False, probes)
