import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab import sphere


def _unit(rng, n1):
    v = rng.standard_normal(n1)
    return v / np.linalg.norm(v)


def _tangent_unit(rng, x):
    v = rng.standard_normal(x.size)
    v -= (v @ x) * x
    return v / np.linalg.norm(v)


def test_height_at_pole_antipode_equator():
    a = np.array([0.0, 0.0, 1.0])
    assert sphere.height_value(a, a) == 0.0
    assert sphere.height_value(-a, a) == 2.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert sphere.height_value(e1, a) == 1.0


def test_height_rejects_non_unit():
    a = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sphere.height_value(np.array([0.0, 0.0, 1.5]), a)
    with pytest.raises(ValueError):
        sphere.height_value(a, np.array([1.0, 1.0, 0.0]))


def test_hess_height_pole_and_equator():
    a = np.array([0.0, 0.0, 0.0, 1.0])
    basis = sphere.tangent_frame(a)
    h = sphere.hess_height(a, a, basis)
    assert np.allclose(h.entries, -np.eye(3), atol=1e-15)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    h0 = sphere.hess_height(x, a, sphere.tangent_frame(x))
    assert np.allclose(h0.entries, 0.0, atol=1e-15)


def test_hess_height_is_coordinate_times_negative_identity():
    # the form is Hess<., a> = -<x, a> g_s; the height 1 - <., a> has the
    # opposite-sign Hessian (1 - height) g_s
    rng = np.random.default_rng(7)
    for n1 in (3, 4, 6):
        for _ in range(50):
            x = _unit(rng, n1)
            a = _unit(rng, n1)
            basis = sphere.tangent_frame(x)
            h = sphere.hess_height(x, a, basis)
            expected = -(1.0 - sphere.height_value(x, a)) * np.eye(n1 - 1)
            assert np.max(np.abs(h.entries - expected)) <= 1e-12


def test_hess_height_matches_great_circle_differences():
    rng = np.random.default_rng(11)
    step = 1e-4
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(3, 7))
        x = _unit(rng, n1)
        a = _unit(rng, n1)
        v = _tangent_unit(rng, x)
        f = lambda t: 1.0 - sphere.great_circle(x, v, t) @ a
        fd = (f(step) - 2.0 * f(0.0) + f(-step)) / step**2
        # closed form: Hess(1 - <., a>)(v, v) = <x, a>
        worst = max(worst, abs(fd - x @ a))
    assert worst <= 1e-6


@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_great_circle_over_times_equals_per_time_calls(shape):
    rng = np.random.default_rng(13)
    for n1 in (2, 3, 5):
        x = _unit(rng, n1)
        v = _tangent_unit(rng, x)
        t = rng.uniform(-2.0, 2.0, shape)
        y = sphere.great_circle(x, v, t)
        assert y.shape == shape + (n1,)
        for idx in np.ndindex(shape):
            assert np.array_equal(y[idx], sphere.great_circle(x, v, t[idx]))
            assert np.array_equal(y[idx], math.cos(t[idx]) * x + math.sin(t[idx]) * v)


_NAN_POINT = np.array([math.nan, 0.0, 1.0])
_POLE = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("call", [
    lambda y: sphere.height_value(y, _POLE),
    lambda y: sphere.height_value(np.stack([_POLE, y]), _POLE),
    lambda y: sphere.height_value(_POLE, y),
    sphere.longitude_coords,
    sphere.tangent_frame,
    lambda y: sphere.region_membership(y, _POLE),
])
def test_nan_is_not_a_unit_vector(call):
    with pytest.raises(ValueError, match="unit vector"):
        call(_NAN_POINT)


def test_hess_height_rejects_bad_basis():
    rng = np.random.default_rng(3)
    x = _unit(rng, 4)
    a = _unit(rng, 4)
    bad = np.eye(4)[:3]  # generically not tangent at x
    with pytest.raises(ValueError):
        sphere.hess_height(x, a, bad)


def test_longitude_chart_basics():
    x = np.zeros(4)
    x[0] = 1.0
    r, th = sphere.longitude_coords(x)
    assert r == 1.0 and th == 0.0
    y = np.zeros(4)
    y[1] = 1.0
    r, th = sphere.longitude_coords(y)
    assert r == 1.0 and th == pytest.approx(math.pi / 2)
    z = np.zeros(4)
    z[0] = -1.0
    with pytest.raises(sphere.RegionError):
        sphere.longitude_coords(z)


def test_longitude_chart_round_trip():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        x = _unit(rng, int(rng.integers(3, 6)))
        try:
            r, th = sphere.longitude_coords(x)
        except sphere.RegionError:
            continue
        assert abs(r * math.cos(th) - x[0]) <= 1e-12
        assert abs(r * math.sin(th) - x[1]) <= 1e-12
        checked += 1


def test_region_error_carries_point():
    x = np.zeros(3)
    x[0] = -1.0
    try:
        sphere.longitude_coords(x)
    except sphere.RegionError as err:
        assert np.array_equal(err.point, x)
    else:
        pytest.fail("expected RegionError")


def test_hess_r_at_date_line_antipode():
    # at x = (1,0,0,...), v = third axis direction: dtheta(v) = 0, r = 1,
    # so Hess r(v,v) = -1
    x = np.zeros(5)
    x[0] = 1.0
    basis = sphere.tangent_frame(x)
    hr, ht = sphere.hess_r_theta(x, basis)
    v = basis @ np.eye(5)[2]  # coefficients of the ambient e3 direction
    assert hr(v, v) == pytest.approx(-1.0, abs=1e-12)
    assert ht(v, v) == pytest.approx(0.0, abs=1e-12)


def _chart_probe(rng, n1):
    while True:
        x = _unit(rng, n1)
        try:
            sphere.longitude_coords(x, tol=1e-3)
        except sphere.RegionError:
            continue
        return x


def test_hess_r_theta_match_great_circle_differences():
    rng = np.random.default_rng(13)
    step = 1e-4
    for _ in range(300):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        basis = sphere.tangent_frame(x)
        v = _tangent_unit(rng, x)
        hr, ht = sphere.hess_r_theta(x, basis)
        vb = basis @ v

        def r_of(t):
            return sphere.longitude_coords(sphere.great_circle(x, v, t))[0]

        def th_of(t):
            return sphere.longitude_coords(sphere.great_circle(x, v, t))[1]

        fd_r = (r_of(step) - 2.0 * r_of(0.0) + r_of(-step)) / step**2
        fd_t = (th_of(step) - 2.0 * th_of(0.0) + th_of(-step)) / step**2
        assert abs(fd_r - hr(vb, vb)) <= 1e-6 * max(1.0, abs(hr(vb, vb)))
        assert abs(fd_t - ht(vb, vb)) <= 1e-6 * max(1.0, abs(ht(vb, vb)))


def test_theta_level_sets_are_totally_geodesic():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        basis = sphere.tangent_frame(x)
        _, dt = sphere.longitude_differentials(x, basis)
        v = rng.standard_normal(n1 - 1)
        # remove the dtheta component so that dtheta(v) = 0
        v -= (v @ dt) / (dt @ dt) * dt
        v /= np.linalg.norm(v)
        _, ht = sphere.hess_r_theta(x, basis)
        assert abs(ht(v, v)) <= 1e-10


def test_polarization_identity_for_all_hessians():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        a = _unit(rng, n1)
        basis = sphere.tangent_frame(x)
        forms = [sphere.hess_height(x, a, basis)]
        forms.extend(sphere.hess_r_theta(x, basis))
        u = rng.standard_normal(n1 - 1)
        w = rng.standard_normal(n1 - 1)
        for form in forms:
            lhs = 2.0 * form(u, w)
            rhs = form(u + w, u + w) - form(u, u) - form(w, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_region_membership_cases():
    a = np.array([0.0, 0.0, 1.0])
    assert sphere.region_membership(a, a) is sphere.RegionClass.OPEN_HEMI
    eq = np.array([1.0, 0.0, 0.0])
    assert (
        sphere.region_membership(eq, a) is sphere.RegionClass.CLOSED_HEMI_BOUNDARY
    )
    dateline = np.array([-1.0, 0.0, 0.0])
    # relative to the z pole the dateline point lies on the equator, and the
    # equator classification takes precedence over chart membership
    assert (
        sphere.region_membership(dateline, a)
        is sphere.RegionClass.CLOSED_HEMI_BOUNDARY
    )
    # relative to the x pole it is strictly below and on the deleted half-plane
    ax = np.array([1.0, 0.0, 0.0])
    assert sphere.region_membership(dateline, ax) is sphere.RegionClass.OUTSIDE
    below = np.array([0.6, 0.0, -0.8])
    assert sphere.region_membership(below, a) is sphere.RegionClass.V_REGION


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_height_range_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    x = _unit(rng, n + 1)
    a = _unit(rng, n + 1)
    h = sphere.height_value(x, a)
    assert 0.0 <= h <= 2.0
    assert sphere.height_value(a, x) == pytest.approx(h, abs=1e-12)
