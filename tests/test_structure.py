import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdisk.errors import InvalidParams, Singular, UnknownName
from jdisk.structure import (ComplexConvention, DomainDescriptor,
                             StructureField, _cond_numbers, _dilatation,
                             _validation_lattice, gallery, q_field, q_matrix,
                             validate_structure)

from conftest import cmul, to_complex


def test_jst_squares_to_minus_identity_exactly():
    for n in (1, 2, 3):
        jst = ComplexConvention(n).jst_f
        assert np.array_equal(jst, np.round(jst))
        assert np.array_equal(jst @ jst, -np.eye(2 * n))


def test_jst_action_matches_multiplication_by_i(rng):
    for n in (1, 2):
        conv = ComplexConvention(n)
        v = rng.normal(size=(50, 2 * n))
        lhs = to_complex(conv.mul_i(v))
        rhs = 1j * to_complex(v)
        assert np.array_equal(lhs, rhs)
        # matrix action agrees with the vectorized form
        assert np.allclose(v @ conv.jst_f.T, conv.mul_i(v), atol=0)


def test_cmul_is_complex_scalar_multiplication(rng):
    # the reference product the tests build affine disks with, and the
    # library's form of it, Re(z) v + Im(z) (i v), as the solver forms it
    z = 0.3 - 1.7j
    v = rng.normal(size=(10, 4))
    assert np.allclose(to_complex(cmul(z, v)), z * to_complex(v), atol=1e-15)
    assert np.allclose(cmul(z, v), z.real * v + z.imag * ComplexConvention.mul_i(v),
                       rtol=0, atol=1e-15)


def test_validate_standard_structure_exact():
    J = gallery("standard", n=1)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(100, 2))
    report = validate_structure(J, pts, tol=1e-10)
    assert report.passed
    assert report.max_residual == 0.0


def test_validate_identity_field_fails():
    conv = ComplexConvention(1)
    dom = DomainDescriptor("chart-ball")
    J = StructureField(conv, dom, lambda pts: np.broadcast_to(
        np.eye(2), (pts.shape[0], 2, 2)).copy(), name="identity")
    report = validate_structure(J, np.zeros((5, 2)), tol=1e-10)
    assert not report.passed
    assert report.max_residual == pytest.approx(2.0)


@pytest.mark.parametrize("samples", [np.zeros((0, 2)), []])
def test_validate_rejects_an_empty_sample_set(samples):
    # no sample can fail, so an empty set neither passes nor fails
    with pytest.raises(InvalidParams, match="at least one sample"):
        validate_structure(gallery("standard", n=1), samples)


def test_validate_conjugated_structure_residual_small(rng):
    # conjugation preserves J^2 = -Id; verified against direct multiplication
    J = gallery("conjugated", n=1, epsilon=0.1)
    pts = rng.uniform(-1, 1, size=(500, 2))
    mats = J.eval(pts)
    direct = np.einsum("mij,mjk->mik", mats, mats) + np.eye(2)
    assert np.max(np.abs(direct)) < 1e-12
    report = validate_structure(J, pts, tol=1e-12)
    assert report.passed


def test_validation_reads_condition_numbers_without_solving(rng, monkeypatch):
    # validate_structure reports only condition numbers, so for n >= 2 it
    # must not solve for the dilatation matrices
    J = gallery("conjugated", n=2, epsilon=0.1)
    pts = rng.uniform(-1, 1, size=(50, 4))
    expect = float(np.max(np.linalg.cond(J.convention.jst_f + J.eval(pts))))

    def no_solve(*args, **kwargs):
        raise AssertionError("validate_structure solved for the dilatation")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    report = validate_structure(J, pts, tol=1e-12)
    assert report.passed
    assert report.cond_max == expect


def test_validation_reports_bad_samples_without_crashing():
    conv = ComplexConvention(1)
    dom = DomainDescriptor("chart-ball")

    def evil(pts):
        if np.any(pts[:, 0] > 0.5):
            raise RuntimeError("blew up")
        return np.broadcast_to(conv.jst_f, (pts.shape[0], 2, 2)).copy()

    J = StructureField(conv, dom, evil, name="evil")
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [0.1, 0.2]])
    report = validate_structure(J, pts)
    assert not report.passed
    assert [i for i, _ in report.invalid_samples] == [1]


def test_q_matrix_vanishes_for_standard():
    J = gallery("standard", n=2)
    q = q_matrix(J, np.array([0.3, -0.1, 0.7, 0.2]))
    assert np.all(q == 0.0)


def test_q_matrix_singular_at_minus_jst():
    conv = ComplexConvention(1)
    dom = DomainDescriptor("chart-ball")
    J = StructureField(conv, dom, lambda pts: np.broadcast_to(
        -conv.jst_f, (pts.shape[0], 2, 2)).copy(), name="minus-standard")
    with pytest.raises(Singular):
        q_matrix(J, np.zeros(2))
    with pytest.raises(Singular) as info:
        q_field(J, np.zeros((3, 2)), labels=np.array([[0.0, 0.1], [0.2, 0.3], [0.4, 0.5]]))
    assert info.value.where == [0.0, 0.1]


def _constant_field(jmats, cond_cap=1e8):
    """A custom field whose value at the i-th of len(jmats) points is jmats[i]."""
    conv = ComplexConvention(jmats.shape[-1] // 2)
    return StructureField(conv, DomainDescriptor("chart-ball"),
                          lambda pts: jmats[:pts.shape[0]], cond_cap=cond_cap)


@pytest.mark.parametrize("n", [1, 2])
def test_q_field_matches_solve_oracle(n, rng):
    # Jst + J = U diag(s) V^T with condition numbers spread over 1 to 1e12
    dim, m = 2 * n, 400
    jst = ComplexConvention(n).jst_f
    u = np.linalg.qr(rng.normal(size=(m, dim, dim)))[0]
    w = np.linalg.qr(rng.normal(size=(m, dim, dim)))[0]
    cond = 10.0 ** rng.uniform(0.0, 12.0, size=m)
    sv = np.exp(rng.uniform(0.0, 1.0, size=(m, dim)) * np.log(cond)[:, None])
    sv[:, 0], sv[:, -1] = cond, 1.0
    sv *= 10.0 ** rng.uniform(-1.0, 1.0, size=(m, 1))
    mats = np.einsum("mij,mj,mkj->mik", u, sv, w) - jst
    oracle = np.linalg.solve(jst + mats, jst - mats)
    q = q_field(_constant_field(mats, cond_cap=1e13), np.zeros((m, dim)))
    if n > 1:
        assert np.array_equal(q, oracle)
    else:
        err = np.max(np.abs(q - oracle), axis=(1, 2))
        scale = np.max(np.abs(oracle), axis=(1, 2))
        assert np.all(err <= 1e-12 * np.linalg.cond(jst + mats) * scale)
    # the cap decision is the one the SVD condition number makes
    svd_cond = np.linalg.cond(jst + mats)
    decided = 0
    for i in range(m):
        if abs(svd_cond[i] / 1e8 - 1.0) < 1e-6:
            continue
        J = _constant_field(mats[i:i + 1])
        if svd_cond[i] > J.cond_cap:
            with pytest.raises(Singular):
                q_field(J, np.zeros((1, dim)))
        else:
            q_field(J, np.zeros((1, dim)))
        decided += 1
    assert decided > 0.9 * m


def _sheared(points):
    x, y = points[:, 0], points[:, 1]
    return np.stack([np.stack([np.sin(x), np.cos(y)], -1),
                     np.stack([x * y, np.cos(x + y)], -1)], -2)


@pytest.mark.parametrize("perturbation", ["sin", _sheared])
def test_conjugated_eval_matches_dense_inverse_oracle(perturbation, rng):
    eps = 0.3
    J = gallery("conjugated", n=1, epsilon=eps, perturbation=perturbation)
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    if callable(perturbation):
        b = perturbation(pts)
    else:
        b = np.zeros((500, 2, 2))
        b[:, 0, 0] = np.sin(pts[:, 0])
    s = np.eye(2) + eps * b
    oracle = s @ J.convention.jst_f @ np.linalg.inv(s)
    assert np.max(np.abs(J.eval(pts) - oracle)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_singular_conjugation_raises_singular(n):
    # S = Id + eps*B has S[0, 0] = 1 - p_0 / 0.3, which is exactly 0 at
    # p_0 = 0.3 and nonzero on the gallery's validation lattice
    eps = 0.5

    def b_field(points):
        b = np.zeros(points.shape + (points.shape[-1],))
        b[:, 0, 0] = -points[:, 0] / (eps * 0.3)
        return b

    J = gallery("conjugated", n=n, epsilon=eps, perturbation=b_field)
    pts = np.zeros((3, 2 * n))
    pts[1, 0] = 0.3
    with pytest.raises(Singular) as info:
        J.eval(pts)
    assert info.value.where == pts[1].tolist()
    with pytest.raises(Singular) as info:
        q_field(J, pts)
    assert info.value.where == pts[1].tolist()


def _adjugate_dilatation(mats):
    """(Jst + J)^{-1} (Jst - J) for n = 1 as the adjugate over the
    determinant, formed on the (m, 2, 2) stacks Jst + J and Jst - J, and the
    condition numbers of Jst + J."""
    jst = ComplexConvention(1).jst_f
    m, rhs = jst + mats, jst - mats
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    det = a * d - b * c
    q = np.empty_like(rhs)
    q[:, 0, 0] = (d * rhs[:, 0, 0] - b * rhs[:, 1, 0]) / det
    q[:, 0, 1] = (d * rhs[:, 0, 1] - b * rhs[:, 1, 1]) / det
    q[:, 1, 0] = (a * rhs[:, 1, 0] - c * rhs[:, 0, 0]) / det
    q[:, 1, 1] = (a * rhs[:, 1, 1] - c * rhs[:, 0, 1]) / det
    return _cond_numbers(m), q


def test_entry_row_dilatation_is_the_adjugate_formula_to_the_bit(rng):
    # J = S Jst S^-1 for random S, plus Jst itself with signed zeros
    s = rng.normal(size=(500, 2, 2))
    jst = ComplexConvention(1).jst_f
    mats = s @ jst @ np.linalg.inv(s)
    mats[:2] = [[[0.0, -1.0], [1.0, 0.0]], [[-0.0, -1.0], [1.0, -0.0]]]
    want_conds, want = _adjugate_dilatation(mats)
    assert np.allclose(want_conds, np.linalg.cond(jst + mats), rtol=1e-8)
    # every node passes the condition screen, so no condition number is
    # returned; with the largest one as the cap the screen fails at its
    # node, the exact numbers pass, and q is the same to the bit
    for cap in (np.inf, float(want_conds.max())):
        q, conds = _dilatation(_constant_field(mats, cond_cap=cap), mats)
        assert conds is None
        assert q.tobytes() == want.tobytes()


def test_one_ill_conditioned_point_raises_with_its_label_and_cond():
    mats = np.broadcast_to(gallery("conjugated", epsilon=0.3).eval(np.array([[0.4, 0.1]])),
                           (6, 2, 2)).copy()
    # Jst + J = [[1, 1], [1, 1 + 1e-10]] at the fourth point
    mats[3] = [[1.0, 2.0], [0.0, 1.0 + 1e-10]]
    labels = np.arange(12.0).reshape(6, 2)
    want_conds, _ = _adjugate_dilatation(mats)
    J = _constant_field(mats)
    assert np.argmax(want_conds) == 3 and want_conds[3] > J.cond_cap
    with pytest.raises(Singular) as info:
        q_field(J, np.zeros((6, 2)), labels=labels)
    assert info.value.where == [6.0, 7.0]
    assert str(info.value) == f"Jst + J ill conditioned (cond={want_conds[3]:.3e}) at [6.0, 7.0]"
    q, conds = _dilatation(J, mats)
    assert q is None and conds.tobytes() == want_conds.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_value_of_J_is_singular_at_its_point(n, bad):
    # LAPACK's SVD does not converge on a NaN or inf, so only finite
    # matrices reach it; a non-finite one has condition number nan
    mats = np.broadcast_to(gallery("standard", n=n).eval(np.zeros(2 * n)),
                           (3, 2 * n, 2 * n)).copy()
    mats[1, 0, -1] = bad
    J = _constant_field(mats)
    conds = _cond_numbers(ComplexConvention(n).jst_f + mats)
    assert conds[[0, 2]].tolist() == [1.0, 1.0] and math.isnan(conds[1])
    with pytest.raises(Singular) as info:
        q_field(J, np.zeros((3, 2 * n)), labels=np.arange(6.0 * n).reshape(3, 2 * n))
    assert info.value.where == list(range(2 * n, 4 * n))
    report = validate_structure(J, np.zeros((3, 2 * n)))
    assert not report.passed and math.isnan(report.cond_max)


_SPECIAL_NODES = ("near_cap", "minus_jst", "nan", "inf", "-inf", "tiny", "huge", "tiny_det")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 30),
       cap=st.sampled_from([1e8, 10.0, np.inf]),
       specials=st.lists(st.sampled_from(_SPECIAL_NODES), max_size=4))
def test_condition_screen_raises_exactly_where_the_exact_condition_does(seed, m, cap, specials):
    # Jst + J = R(a) diag(s, s / c) R(b) with c log-uniform over 1 to 1e10,
    # and some nodes replaced: c within 2e-12 of the cap on either side (as
    # diag(c, 1), whose condition number rounds to about 1e-16, so the
    # screen passes, the exact test alone passes, or both fail),
    # J = -Jst (det = 0), a NaN or infinite entry, a scale of 2^-530,
    # 2^511 Id (F + 2|det| overflows, so the exact condition number reads
    # inf) or diag(1, 2^-1060) (s_max^2 / |det| overflows)
    rng = np.random.default_rng(seed)
    jst = ComplexConvention(1).jst_f

    def rot(t):
        return np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                         np.stack([np.sin(t), np.cos(t)], -1)], -2)

    s = np.exp(rng.uniform(-3.0, 3.0, m))
    c = 10.0 ** rng.uniform(0.0, 10.0, m)
    diag = np.zeros((m, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = s, s / c
    sums = rot(rng.uniform(0, 2 * np.pi, m)) @ diag @ rot(rng.uniform(0, 2 * np.pi, m))
    for kind in specials:
        i, j, k = rng.integers(m), rng.integers(2), rng.integers(2)
        if kind == "near_cap":
            near = min(cap, 1e9) * (1.0 + rng.uniform(-2e-12, 2e-12))
            sums[i] = np.diag([near, 1.0])
        elif kind == "minus_jst":
            sums[i] = 0.0
        elif kind == "tiny":
            sums[i] *= 2.0 ** -530
        elif kind == "huge":
            sums[i] = 2.0 ** 511 * np.eye(2)
        elif kind == "tiny_det":
            sums[i] = np.diag([1.0, 2.0 ** -1060])
        else:
            sums[i, j, k] = float(kind)
    mats = sums - jst
    labels = np.arange(2.0 * m).reshape(m, 2)
    with np.errstate(all="ignore"):
        conds, want = _adjugate_dilatation(mats)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            q, raised = q_field(_constant_field(mats, cond_cap=cap), np.zeros((m, 2)),
                                labels=labels), None
        except Singular as exc:
            raised = exc
    worst = np.max(conds)
    if np.isfinite(worst) and worst <= cap:
        assert raised is None and q.tobytes() == want.tobytes()
    else:
        k = int(np.argmax(conds))
        assert raised is not None and raised.where == labels[k].tolist()
        assert str(raised) == f"Jst + J ill conditioned (cond={conds[k]:.3e}) at {raised.where}"


def test_q_matrix_matches_dense_inverse_oracle():
    J = gallery("conjugated", n=1, epsilon=0.1)
    v = np.array([0.4, -0.2])
    q = q_matrix(J, v)
    jst = J.convention.jst_f
    jv = J.eval(v)
    oracle = np.linalg.inv(jst + jv) @ (jst - jv)
    assert np.max(np.abs(q - oracle)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_cauchy_riemann_form_equivalence(n, rng):
    # u_y = J u_x  is equivalent to  (u_x + Jst u_y) = q (u_x - Jst u_y)
    J = gallery("conjugated", n=n, epsilon=0.1)
    conv = J.convention
    pts = rng.uniform(-1, 1, size=(200, 2 * n))
    q = q_field(J, pts)
    a = rng.normal(size=(200, 2 * n))
    jmats = J.eval(pts)
    uy = np.einsum("mij,mj->mi", jmats, a)
    lhs = a + conv.mul_i(uy)
    rhs = np.einsum("mij,mj->mi", q, a - conv.mul_i(uy))
    assert np.max(np.linalg.norm(lhs - rhs, axis=-1)) < 1e-10


def test_q_vanishes_iff_structure_is_standard(rng):
    J = gallery("conjugated", n=1, epsilon=0.1)
    jst = J.convention.jst_f
    pts = rng.uniform(-1.5, 1.5, size=(300, 2))
    q = q_field(J, pts)
    jdev = np.max(np.abs(J.eval(pts) - jst), axis=(1, 2))
    qnorm = np.max(np.abs(q), axis=(1, 2))
    tiny = 1e-13
    assert np.all((qnorm < tiny) == (jdev < tiny))


@pytest.mark.parametrize("kind, radius", [("chart-ball", math.inf), ("chart-ball", 2.0),
                                          ("flat-torus", math.inf)])
def test_validation_lattice_is_whole_up_to_n3_and_bounded_above(kind, radius):
    dom = DomainDescriptor(kind, radius=radius)
    axis = np.unique(_validation_lattice(dom, 2)[:, 0])
    assert axis.size == 5
    for dim in (2, 4, 6):
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        whole = np.stack([g.ravel() for g in grids], axis=-1)
        assert np.array_equal(_validation_lattice(dom, dim), whole)
    for dim in (8, 16):
        pts = _validation_lattice(dom, dim)
        assert pts.shape == (5 ** 6, dim)
        assert np.array_equal(pts[0], np.full(dim, axis[0]))
        assert np.array_equal(pts[-1], np.full(dim, axis[-1]))
        assert all(np.array_equal(np.unique(pts[:, i]), axis) for i in range(dim))


def test_gallery_builds_quickly_at_the_largest_dimension():
    start = time.perf_counter()
    J = gallery("conjugated", n=8)
    assert time.perf_counter() - start < 2.0
    assert J.convention.dim == 16


def test_gallery_unknown_name_and_bad_params():
    with pytest.raises(UnknownName):
        gallery("nope")
    with pytest.raises(InvalidParams):
        gallery("conjugated", epsilon=1.5)


def test_gallery_conjugated_epsilon_zero_equals_standard(rng):
    J0 = gallery("standard", n=1)
    J = gallery("conjugated", n=1, epsilon=0.0)
    pts = rng.uniform(-2, 2, size=(50, 2))
    assert np.array_equal(J.eval(pts), J0.eval(pts))


def test_torus_perturbed_periodicity(rng):
    J = gallery("torus-perturbed", n=1, epsilon=0.05)
    # dyadic points survive the +1 shift exactly, so translates are bit equal
    pts = rng.integers(0, 256, size=(60, 2)) / 256.0
    base = J.eval(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = 1.0
        assert np.array_equal(J.eval(pts + shift), base)
        assert np.array_equal(J.eval(pts - 3 * shift), base)
    # generic points: translates agree to rounding of the shift itself
    gen = rng.uniform(0, 1, size=(60, 2))
    diff = np.abs(J.eval(gen + np.array([1.0, 0.0])) - J.eval(gen))
    assert np.max(diff) < 1e-13
    report = validate_structure(J, gen, tol=1e-12)
    assert report.passed


def test_torus_domain_wraps_and_measures_gaps():
    dom = DomainDescriptor("flat-torus")
    a = np.array([0.1, 0.9])
    b = np.array([0.95, 0.05])
    assert dom.point_gap(a, b) == pytest.approx(np.hypot(0.15, 0.15))
    assert dom.contains(np.array([[100.0, -3.0]]))


def test_chart_ball_containment():
    dom = DomainDescriptor("chart-ball", radius=1.0)
    assert dom.contains(np.array([[0.6, 0.8]]))
    assert not dom.contains(np.array([[1.2, 0.0]]))


def test_huge_points_are_at_distance_inf_without_a_warning():
    dom = DomainDescriptor("chart-ball", radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.point_gap(np.zeros(2), np.array([1e300, 1e300])) == math.inf
        assert not dom.contains(np.array([[0.5, 0.0], [1e300, 0.0]]))
    assert dom.point_gap(np.zeros(2), np.array([3.0, 4.0])) == 5.0
