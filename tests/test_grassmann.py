import math

import numpy as np
import pytest

from shrinkerlab import grassmann, sphere
from shrinkerlab.grassmann import (
    ChartDomainError,
    OrientedFrame,
    TangentCoeffs,
    dlogv_form,
    express_in_adapted_frame,
    geodesic_from_velocity,
    hess_logv_form,
    hess_v_form,
    jordan_spectrum,
    overlap_values,
    v_values,
    w_product,
)


def _random_frame(rng, n, amb):
    q, _ = np.linalg.qr(rng.standard_normal((amb, n)))
    return OrientedFrame(q.T)


def _complement(P):
    q = np.linalg.qr(P.vectors.T, mode="complete")[0]
    return q[:, P.n :].T


def _frame_in_chart(rng, base, max_angle=1.1):
    # move the base plane by a geodesic with controlled principal angles
    om = rng.standard_normal((base.n, base.m))
    om *= max_angle * rng.uniform(0.1, 1.0) / max(np.linalg.svd(om)[1][0], 1e-12)
    return geodesic_from_velocity(base, _complement(base), om, 1.0)


def test_w_product_of_frame_with_itself_is_one():
    rng = np.random.default_rng(0)
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        P = _random_frame(rng, n, n + m)
        assert w_product(P, P) == pytest.approx(1.0, abs=1e-12)


def test_w_product_line_rotation():
    for alpha in (0.0, 0.3, 1.2, 2.5):
        P = OrientedFrame(np.array([[1.0, 0.0]]))
        Q = OrientedFrame(np.array([[math.cos(alpha), math.sin(alpha)]]))
        assert w_product(P, Q) == pytest.approx(math.cos(alpha), abs=1e-14)


def test_w_product_dimension_mismatch():
    P = OrientedFrame(np.eye(3)[:2])
    Q = OrientedFrame(np.eye(4)[:2])
    with pytest.raises(ValueError):
        w_product(P, Q)
    with pytest.raises(ValueError):
        w_product(P, OrientedFrame(np.eye(3)[:1]))


def test_abs_w_equals_product_of_angle_cosines():
    rng = np.random.default_rng(1)
    for n, m in [(1, 2), (2, 2), (3, 2), (2, 4), (4, 2)]:
        for _ in range(20):
            P = _random_frame(rng, n, n + m)
            Q = _random_frame(rng, n, n + m)
            spec = jordan_spectrum(P, Q)
            assert abs(w_product(P, Q)) == pytest.approx(
                float(np.prod(spec.mu)), abs=1e-10
            )


def test_spectrum_of_identical_frames():
    rng = np.random.default_rng(2)
    P = _random_frame(rng, 3, 5)
    spec = jordan_spectrum(P, P)
    assert spec.mu.shape == (2,)
    assert np.allclose(spec.mu, 1.0, atol=1e-12)
    assert np.allclose(spec.lam, 0.0, atol=1e-6)


def test_spectrum_of_single_block_rotation():
    alpha = 0.7
    P = OrientedFrame(np.eye(4)[:2])
    rows = np.array(
        [
            [math.cos(alpha), 0.0, math.sin(alpha), 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    spec = jordan_spectrum(OrientedFrame(rows), P)
    # angles as a multiset are {alpha, 0}; storage is descending in mu
    assert sorted(np.arccos(spec.mu)) == pytest.approx([0.0, alpha], abs=1e-12)
    assert spec.mu[0] >= spec.mu[1]


def test_spectrum_matches_eigen_oracle():
    rng = np.random.default_rng(3)
    for n, m in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        for _ in range(15):
            P = _random_frame(rng, n, n + m)
            Q = _random_frame(rng, n, n + m)
            W = P.vectors @ Q.vectors.T
            eig = np.linalg.eigvalsh(W.T @ W)
            p = min(n, m)
            oracle = np.sqrt(np.clip(eig[:p], 0.0, 1.0))[::-1]
            spec = jordan_spectrum(P, Q)
            assert np.max(np.abs(spec.mu - oracle)) <= 1e-10


def test_spectrum_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(25):
        P = _random_frame(rng, 3, 5)
        Q = _random_frame(rng, 3, 5)
        a = jordan_spectrum(P, Q).mu
        b = jordan_spectrum(Q, P).mu
        assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-10


def test_w_and_spectrum_invariant_under_reorthonormalization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        P = _random_frame(rng, 3, 6)
        Q = _random_frame(rng, 3, 6)
        O1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        P2 = OrientedFrame(O1 @ P.vectors)
        assert abs(w_product(P2, Q)) == pytest.approx(
            abs(w_product(P, Q)), abs=1e-10
        )
        mu1 = jordan_spectrum(P, Q).mu
        mu2 = jordan_spectrum(P2, Q).mu
        assert np.max(np.abs(mu1 - mu2)) <= 1e-10


def test_v_trivial_values():
    P = OrientedFrame(np.eye(5)[:2])
    assert v_values(jordan_spectrum(P, P).mu) == pytest.approx(1.0, abs=1e-12)
    # both angles at 45 degrees: v = sqrt(2) * sqrt(2)
    c = math.sqrt(0.5)
    rows = np.array(
        [
            [c, 0.0, c, 0.0, 0.0],
            [0.0, c, 0.0, c, 0.0],
        ]
    )
    spec = jordan_spectrum(OrientedFrame(rows), P)
    assert np.allclose(spec.lam, 1.0, atol=1e-12)
    assert v_values(spec.mu) == pytest.approx(2.0, abs=1e-12)


def test_v_is_reciprocal_of_unsigned_overlap():
    rng = np.random.default_rng(6)
    for _ in range(30):
        base = _random_frame(rng, 2, 4)
        P = _frame_in_chart(rng, base)
        spec = jordan_spectrum(P, base)
        assert v_values(spec.mu) == pytest.approx(
            1.0 / abs(w_product(P, base)), rel=1e-10
        )


def test_v_at_least_one_and_strict_away_from_overlap():
    P = OrientedFrame(np.eye(5)[:2])
    assert v_values(jordan_spectrum(P, P).mu) >= 1.0
    rows = np.eye(5)[:2].copy()
    a = 1e-3
    rows[0] = [math.cos(a), 0.0, math.sin(a), 0.0, 0.0]
    v = v_values(jordan_spectrum(OrientedFrame(rows), P).mu)
    assert v > 1.0 + 1e-9


def test_orthogonal_planes_poison_v_operations():
    P = OrientedFrame(np.eye(4)[:2])
    Q = OrientedFrame(np.eye(4)[2:])
    spec = jordan_spectrum(P, Q)
    assert np.all(np.isinf(spec.lam))
    assert np.all(spec.mu == 0.0)
    Z = TangentCoeffs(np.ones((2, 2)), spec.tangent_frame)
    with pytest.raises(ChartDomainError):
        v_values(spec.mu)
    with pytest.raises(ChartDomainError):
        dlogv_form(spec, Z)
    with pytest.raises(ChartDomainError):
        hess_v_form(spec, Z)
    with pytest.raises(ChartDomainError):
        hess_logv_form(spec, Z)


def _plane_stack(rng, shape, n, amb):
    # orthonormal plane rows over leading axes
    return np.linalg.qr(rng.standard_normal(shape + (amb, n)))[0].swapaxes(-1, -2)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_overlap_values_equal_per_frame_spectra(shape, n, m):
    rng = np.random.default_rng(10 * n + m)
    Q = _random_frame(rng, n, n + m)
    P = _plane_stack(rng, shape, n, n + m)
    specs = [jordan_spectrum(OrientedFrame(r), Q) for r in P.reshape(-1, n, n + m)]
    mu = overlap_values(OrientedFrame(P), Q)
    assert mu.shape == shape + (min(n, m),)
    assert np.array_equal(mu, np.reshape([s.mu for s in specs], mu.shape))
    v = v_values(mu)
    assert v.shape == shape
    assert np.array_equal(v, np.reshape([v_values(s.mu) for s in specs], shape))


def test_v_values_reject_a_perpendicular_row_of_a_batch():
    Q = OrientedFrame(np.eye(4)[:2])
    c, s = math.cos(0.3), math.sin(0.3)
    tilted = np.array([[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0]])
    P = np.stack([np.eye(4)[:2], tilted, np.eye(4)[2:]])  # the last is perpendicular
    mu = overlap_values(OrientedFrame(P), Q)
    assert np.allclose(v_values(mu[:2]), [1.0, 1.0 / c], rtol=1e-14)
    with pytest.raises(ChartDomainError):
        v_values(mu)
    with pytest.raises(ChartDomainError):
        v_values(mu[2])


def test_overlap_values_reject_bad_rows():
    Q = OrientedFrame(np.eye(4)[:2])
    P = np.stack([np.eye(4)[:2], np.eye(4)[1:3]])
    skewed = P.copy()
    skewed[1, 0, 2] = 1e-6  # plane 1: row 0 leans 1e-6 toward row 1
    with pytest.raises(ValueError, match="not orthonormal"):
        overlap_values(OrientedFrame(skewed), Q)
    with pytest.raises(ValueError, match="mismatched"):
        overlap_values(OrientedFrame(np.stack([np.eye(5)[:2]] * 2)), Q)
    with pytest.raises(ValueError, match="mismatched"):
        overlap_values(OrientedFrame(np.eye(4)[:3]), Q)
    with pytest.raises(ValueError, match="mismatched"):
        overlap_values(OrientedFrame(np.eye(4)[:1]), Q)
    # a single row vector is no plane at all
    with pytest.raises(ValueError, match="row vectors"):
        OrientedFrame(np.eye(4)[0])


def test_geodesic_identity_cases():
    rng = np.random.default_rng(7)
    P = _random_frame(rng, 2, 5)
    N = _complement(P)
    om = np.array([[0.4, 0.0, 0.0], [0.0, 1.1, 0.0]])
    assert w_product(geodesic_from_velocity(P, N, om, 0.0), P) == pytest.approx(1.0, abs=1e-14)
    out = geodesic_from_velocity(P, N, np.zeros((2, 3)), 3.7)
    assert w_product(out, P) == pytest.approx(1.0, abs=1e-14)
    # at t = 0 any velocity leaves P in place, orientation included
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        P = _random_frame(rng, n, n + m)
        out = geodesic_from_velocity(P, _complement(P), rng.standard_normal((n, m)), 0.0)
        assert w_product(out, P) == pytest.approx(1.0, abs=1e-12)


def test_geodesic_rejects_bad_directions():
    P = OrientedFrame(np.eye(4)[:2])
    om = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="not normal"):
        geodesic_from_velocity(P, np.eye(4)[[0, 3]], om, 1.0)
    with pytest.raises(ValueError, match="not orthonormal"):
        geodesic_from_velocity(P, np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]]),
                               om, 1.0)
    with pytest.raises(ValueError, match="full orthonormal basis"):
        geodesic_from_velocity(P, np.eye(4)[2:3], om, 1.0)


@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_geodesic_over_times_equals_per_time_calls(shape):
    rng = np.random.default_rng(17)
    for n, m in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        P = _random_frame(rng, n, n + m)
        N = _complement(P)
        om = rng.standard_normal((n, m))
        t = rng.uniform(-2.0, 2.0, shape)
        out = geodesic_from_velocity(P, N, om, t)
        assert out.vectors.shape == shape + (n, n + m)
        for idx in np.ndindex(shape):
            assert np.array_equal(out.vectors[idx],
                                  geodesic_from_velocity(P, N, om, t[idx]).vectors)


def test_complement_equals_the_formulas_it_replaces():
    rng = np.random.default_rng(19)
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        E = _random_frame(rng, n, n + m).vectors
        # the normal complement of the target probes and the completion of
        # the partner normals, both one plane's rows
        assert np.array_equal(grassmann.complement(E),
                              np.linalg.qr(E.T, mode="complete")[0][:, n:].T)
        # the frame kernel's normals from jets dX over leading axes
        dX = rng.standard_normal((2, 3, n, n + m))
        assert np.array_equal(
            grassmann.complement(dX),
            np.linalg.qr(dX.swapaxes(-1, -2), mode="complete")[0][..., n:].swapaxes(-1, -2))
    # the sphere's tangent frame at unit points x
    for amb in (2, 3, 5):
        for _ in range(20):
            x = rng.standard_normal(amb)
            x /= np.linalg.norm(x)
            want = np.linalg.qr(x.reshape(-1, 1), mode="complete")[0][:, 1:].T
            assert np.array_equal(sphere.tangent_frame(x), want)
            assert np.array_equal(grassmann.complement(x[None]), want)


def _spectrum_fields(spec):
    return spec.mu, spec.lam, spec.tangent_frame.vectors, spec.normal_frame


def _stack_equals_its_planes(P, Q):
    """The spectrum of planes P (..., n, amb) against one plane Q or a stack
    of P's leading shape, after checking each of its fields against the
    plane's own call, bit for bit."""
    lead, (n, amb) = P.shape[:-2], P.shape[-2:]
    spec = jordan_spectrum(OrientedFrame(P), OrientedFrame(Q))
    assert spec.mu.shape == lead + (min(n, amb - n),)
    assert spec.normal_frame.shape == lead + (amb - n, amb)
    for idx in np.ndindex(lead):
        alone = jordan_spectrum(OrientedFrame(P[idx]), OrientedFrame(Q if Q.ndim == 2 else Q[idx]))
        for got, want in zip(_spectrum_fields(spec), _spectrum_fields(alone)):
            assert np.array_equal(got[idx], want)
    return spec


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_spectrum_equals_its_planes_one_by_one(n, m):
    rng = np.random.default_rng(30 + 10 * n + m)
    Q = _random_frame(rng, n, n + m)
    # random planes, planes in the chart of Q, and a stack of references
    P = _plane_stack(rng, (2, 3), n, n + m)
    _stack_equals_its_planes(P, Q.vectors)
    near = np.stack([_frame_in_chart(rng, Q).vectors for _ in range(6)])
    spec = _stack_equals_its_planes(near, Q.vectors)
    _stack_equals_its_planes(P, _plane_stack(rng, (2, 3), n, n + m))
    # the frame rewrite and the forms of the stack, plane by plane
    tangent = np.linalg.qr(rng.standard_normal((6, n, n)))[0] @ near
    normal = grassmann.complement(tangent)
    omega = rng.standard_normal((2, 6, n, m))
    Z = express_in_adapted_frame(spec, omega, tangent, normal)
    assert Z.omega.shape == omega.shape
    forms = [form(spec, Z) for form in (dlogv_form, hess_logv_form, hess_v_form)]
    for i in range(6):
        alone = jordan_spectrum(OrientedFrame(near[i]), Q)
        Zi = express_in_adapted_frame(alone, omega[:, i], tangent[i], normal[i])
        assert np.array_equal(Z.omega[:, i], Zi.omega)
        for form, got in zip((dlogv_form, hess_logv_form, hess_v_form), forms):
            assert np.array_equal(got[:, i], form(alone, Zi))


def test_stacked_spectrum_of_shared_and_right_angles_equals_its_planes():
    # against R^2 x 0 in R^4: a shared direction (mu = 1, no partner), a
    # right angle (mu = 0, lam = inf), two open angles, and the plane itself
    Q = np.eye(4)[:2]
    c, s, c2, s2 = math.cos(0.4), math.sin(0.4), math.cos(1.1), math.sin(1.1)
    shared = [[1.0, 0.0, 0.0, 0.0], [0.0, c, s, 0.0]]
    tilted = [[c, 0.0, s, 0.0], [0.0, c2, 0.0, s2]]
    P = np.array([shared, np.eye(4)[2:], tilted, Q, shared, tilted])
    spec = _stack_equals_its_planes(P, Q)
    assert np.array_equal(spec.mu[1], [0.0, 0.0]) and np.all(np.isinf(spec.lam[1]))
    assert spec.mu[0, 0] == pytest.approx(1.0, abs=1e-15)
    patterns = 1.0 - spec.mu**2 > grassmann._PARTNER_TOL**2
    assert len(np.unique(patterns, axis=0)) == 3
    # the same stack turned by one rotation of R^4
    turn = np.linalg.qr(np.random.default_rng(31).standard_normal((4, 4)))[0]
    _stack_equals_its_planes(P @ turn, Q @ turn)


def test_hess_v_form_of_a_stack_squares_like_a_lone_matrix():
    # a lone matrix squares d log v by float ** 2, libm pow, which differs
    # from x * x in the last bit for about 0.08% of values; 4000 matrices
    # catch a stack that multiplies instead
    P = OrientedFrame(np.array([[math.cos(0.7), math.sin(0.7)]]))
    spec = jordan_spectrum(P, OrientedFrame(np.array([[1.0, 0.0]])))
    w = np.random.default_rng(32).standard_normal((4000, 1, 1))
    stacked = hess_v_form(spec, TangentCoeffs(w, spec.tangent_frame))
    alone = [hess_v_form(spec, TangentCoeffs(z, spec.tangent_frame)) for z in w]
    assert np.array_equal(stacked, alone)


def test_stacked_geodesic_equals_its_planes_one_by_one():
    rng = np.random.default_rng(33)
    flips = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            P = _plane_stack(rng, (2, 4), n, n + m)
            N = grassmann.complement(P)
            om = rng.standard_normal((2, 4, n, m))
            # the branch that flips A's last column (and Bt's row) to keep P's
            # orientation
            flips += int(np.sum(np.linalg.det(np.linalg.svd(om)[0]) < 0.0))
            for t in (1.0, np.array([0.3, 0.0, -0.3]), np.ones((2, 3))):
                out = geodesic_from_velocity(OrientedFrame(P), N, om, t).vectors
                assert out.shape == (2, 4) + np.shape(t) + (n, n + m)
                for idx in np.ndindex(2, 4):
                    alone = geodesic_from_velocity(OrientedFrame(P[idx]), N[idx], om[idx], t)
                    assert np.array_equal(out[idx], alone.vectors)
    assert flips >= 10


def test_stack_routines_reject_mismatched_leading_axes():
    rng = np.random.default_rng(23)
    P = OrientedFrame(_plane_stack(rng, (3,), 2, 4))
    with pytest.raises(ValueError, match="mismatched"):
        jordan_spectrum(P, OrientedFrame(_plane_stack(rng, (4,), 2, 4)))
    with pytest.raises(ValueError, match="mismatched"):
        jordan_spectrum(OrientedFrame(P.vectors[0]), P)
    N = grassmann.complement(P.vectors)
    with pytest.raises(ValueError, match="row vectors"):
        geodesic_from_velocity(P, N[0], np.ones((3, 2, 2)), 1.0)
    with pytest.raises(ValueError, match="coefficient shape"):
        geodesic_from_velocity(P, N, np.ones((2, 2)), 1.0)
    spec = jordan_spectrum(P, _random_frame(rng, 2, 4))
    with pytest.raises(ValueError, match="row vectors"):
        express_in_adapted_frame(spec, np.ones((3, 2, 2)), P.vectors[0], N[0])


_NAN_ROWS = [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0]]


@pytest.mark.parametrize("call, message", [
    (lambda P: OrientedFrame(_NAN_ROWS), "not orthonormal"),
    (lambda P: geodesic_from_velocity(P, [[0.0, 0.0, math.nan]], [[1.0], [0.0]], 1.0),
     "not orthonormal"),
    (lambda P: express_in_adapted_frame(jordan_spectrum(P, P), np.zeros((2, 1)),
                                        _NAN_ROWS, [[0.0, 0.0, 1.0]]),
     "tangent rows"),
    (lambda P: express_in_adapted_frame(jordan_spectrum(P, P), np.zeros((2, 1)),
                                        P.vectors, [[0.0, 0.0, math.nan]]),
     "normal rows"),
])
def test_plane_checks_fail_on_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call(OrientedFrame(np.eye(3)[:2]))


def test_line_geodesic_is_a_great_circle():
    e = np.array([1.0, 0.0, 0.0])
    nu = np.array([0.0, 1.0, 0.0])
    P = OrientedFrame(e[None, :])
    for t in (0.0, 0.3, 1.0, 2.2):
        out = geodesic_from_velocity(P, np.eye(3)[1:], [[1.0, 0.0]], t)
        assert np.allclose(out.vectors[0], sphere.great_circle(e, nu, t), atol=1e-14)


def test_hess_v_at_zero_angles_is_squared_norm():
    rng = np.random.default_rng(9)
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        P = _random_frame(rng, n, n + m)
        spec = jordan_spectrum(P, P)
        om = rng.standard_normal((n, m))
        Z = TangentCoeffs(om, spec.tangent_frame)
        assert hess_v_form(spec, Z) == pytest.approx(float(np.sum(om * om)), abs=1e-9)
        assert hess_logv_form(spec, Z) == pytest.approx(
            float(np.sum(om * om)), abs=1e-9
        )
        assert dlogv_form(spec, Z) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 2)])
def test_forms_of_a_stack_are_its_matrices_alone(n, m):
    rng = np.random.default_rng(14)
    base = _random_frame(rng, n, n + m)
    spec = jordan_spectrum(_frame_in_chart(rng, base), base)
    om = rng.standard_normal((3, 4, n, m))
    for layout in (om, np.asfortranarray(om), om[:, ::-1]):
        Z = TangentCoeffs(layout, spec.tangent_frame)
        for form in (dlogv_form, hess_logv_form, hess_v_form):
            stacked = form(spec, Z)
            assert stacked.shape == layout.shape[:-2]
            for idx in np.ndindex(stacked.shape):
                alone = form(spec, TangentCoeffs(layout[idx], spec.tangent_frame))
                assert type(alone) is float and stacked[idx] == alone


def test_hess_v_single_pair_coefficient():
    base = OrientedFrame(np.eye(3)[:1])
    a = 0.6
    rows = np.array([[math.cos(a), math.sin(a), 0.0]])
    spec = jordan_spectrum(OrientedFrame(rows), base)
    lam = math.tan(a)
    om = np.zeros((1, 2))
    om[0, 0] = 1.0
    Z = TangentCoeffs(om, spec.tangent_frame)
    expected = (1.0 + 2.0 * lam**2) / math.cos(a)
    assert hess_v_form(spec, Z) == pytest.approx(expected, rel=1e-10)


def test_chain_rule_between_hess_v_and_hess_logv():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        base = _random_frame(rng, n, n + m)
        P = _frame_in_chart(rng, base)
        spec = jordan_spectrum(P, base)
        Z = TangentCoeffs(rng.standard_normal((n, m)), spec.tangent_frame)
        v = v_values(spec.mu)
        lhs = hess_logv_form(spec, Z)
        rhs = hess_v_form(spec, Z) / v - dlogv_form(spec, Z) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_derivative_forms_match_geodesic_differences():
    rng = np.random.default_rng(11)
    step = 1e-4
    checked = 0
    while checked < 200:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        base = _random_frame(rng, n, n + m)
        P = _frame_in_chart(rng, base)
        spec = jordan_spectrum(P, base)
        om = rng.standard_normal((n, m))
        om /= np.linalg.norm(om)
        Z = TangentCoeffs(om, spec.tangent_frame)

        def logv_at(t):
            frame = geodesic_from_velocity(
                spec.tangent_frame, spec.normal_frame, om, t
            )
            return math.log(v_values(jordan_spectrum(frame, base).mu))

        f0 = logv_at(0.0)
        fp = logv_at(step)
        fm = logv_at(-step)
        d1 = (fp - fm) / (2.0 * step)
        d2 = (fp - 2.0 * f0 + fm) / step**2
        c1 = dlogv_form(spec, Z)
        c2 = hess_logv_form(spec, Z)
        assert abs(d1 - c1) <= 1e-5 * max(1.0, abs(c1))
        assert abs(d2 - c2) <= 1e-5 * max(1.0, abs(c2))

        def v_at(t):
            frame = geodesic_from_velocity(
                spec.tangent_frame, spec.normal_frame, om, t
            )
            return v_values(jordan_spectrum(frame, base).mu)

        dv2 = (v_at(step) - 2.0 * v_at(0.0) + v_at(-step)) / step**2
        cv2 = hess_v_form(spec, Z)
        assert abs(dv2 - cv2) <= 1e-5 * max(1.0, abs(cv2))
        checked += 1


def test_forms_agree_for_different_orthonormalizations():
    # repeated principal angles leave the adapted frame non-unique; the form
    # values must not depend on the choice
    rng = np.random.default_rng(12)
    for _ in range(20):
        base = OrientedFrame(np.eye(5)[:2])
        a = 0.5
        rows = np.array(
            [
                [math.cos(a), 0.0, math.sin(a), 0.0, 0.0],
                [0.0, math.cos(a), 0.0, math.sin(a), 0.0],
            ]
        )
        P = OrientedFrame(rows)
        O1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        P2 = OrientedFrame(O1 @ rows)
        s1 = jordan_spectrum(P, base)
        s2 = jordan_spectrum(P2, base)
        tangent = rows
        normal = _complement(P)
        om = rng.standard_normal((2, 3))
        Z1 = express_in_adapted_frame(s1, om, tangent, normal)
        Z2 = express_in_adapted_frame(s2, om, tangent, normal)
        for form in (dlogv_form, hess_v_form, hess_logv_form):
            assert form(s1, Z1) == pytest.approx(form(s2, Z2), abs=1e-9)


def test_line_machinery_degenerates_to_secant_on_sphere():
    rng = np.random.default_rng(13)
    step = 1e-4
    for _ in range(50):
        nu0 = np.array([0.0, 0.0, 1.0])
        u = np.array([1.0, 0.0, 0.0])
        a = rng.uniform(0.1, 1.0)
        nu = sphere.great_circle(nu0, u, a)
        # the plane normal to nu, oriented so that cross(r1, r2) = nu
        r1 = np.cross(np.array([0.0, 1.0, 0.0]), nu)
        r1 /= np.linalg.norm(r1)
        r2 = np.cross(nu, r1)
        P = OrientedFrame(np.vstack([r1, r2]))
        base = OrientedFrame(np.eye(3)[:2])
        spec = jordan_spectrum(P, base)
        assert v_values(spec.mu) == pytest.approx(1.0 / math.cos(a), rel=1e-12)

        om = rng.standard_normal((2, 1))
        Z = TangentCoeffs(om, spec.tangent_frame)

        def sec_along(t):
            frame = geodesic_from_velocity(
                spec.tangent_frame, spec.normal_frame, om, t
            )
            n_t = np.cross(frame.vectors[0], frame.vectors[1])
            return 1.0 / abs(float(n_t @ nu0))

        fd = (sec_along(step) - 2.0 * sec_along(0.0) + sec_along(-step)) / step**2
        assert abs(fd - hess_v_form(spec, Z)) <= 1e-6 * max(
            1.0, abs(hess_v_form(spec, Z))
        )


def test_coeffs_frame_mismatch_rejected():
    rng = np.random.default_rng(14)
    base = _random_frame(rng, 2, 4)
    P = _frame_in_chart(rng, base)
    spec = jordan_spectrum(P, base)
    other = _random_frame(rng, 2, 4)
    Z = TangentCoeffs(np.ones((2, 2)), other)
    with pytest.raises(ValueError):
        dlogv_form(spec, Z)
