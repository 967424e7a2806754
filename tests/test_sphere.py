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


def _frame_pairs(x):
    # the tangent frame at x as (u, w) pairs: forms on them are n x n matrices
    basis = sphere.tangent_frame(x)
    return basis[:, None], basis[None]


def test_hess_height_pole_and_equator():
    a = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.allclose(sphere.height_hessian(a, a, *_frame_pairs(a)), np.eye(3), atol=1e-15)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(sphere.height_hessian(x, a, *_frame_pairs(x)), 0.0, atol=1e-15)


def test_height_hessian_is_coordinate_times_identity():
    # Hess(1 - <., a>) = <x, a> g_s = (1 - height) g_s
    rng = np.random.default_rng(7)
    for n1 in (3, 4, 6):
        for _ in range(50):
            x = _unit(rng, n1)
            a = _unit(rng, n1)
            h = sphere.height_hessian(x, a, *_frame_pairs(x))
            expected = (1.0 - sphere.height_value(x, a)) * np.eye(n1 - 1)
            assert np.max(np.abs(h - expected)) <= 1e-12


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
        worst = max(worst, abs(fd - sphere.height_hessian(x, a, v, v)))
        d1 = (f(step) - f(-step)) / (2.0 * step)
        assert abs(d1 - sphere.height_differential(x, a, v)) <= 1e-7
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
    lambda y: sphere.longitude_coords(np.stack([np.array([0.6, 0.8, 0.0]), y])),
    sphere.tangent_frame,
])
def test_nan_is_not_a_unit_vector(call):
    with pytest.raises(ValueError, match="unit vector"):
        call(_NAN_POINT)


_E3 = np.eye(4)[3]
# each public function on a stack x of points of S^3, with the trailing
# shapes of what it returns
_EMPTY_CALLS = {
    "height_value": (lambda x: sphere.height_value(x, _E3), [()]),
    "height_differential": (lambda x: sphere.height_differential(x, _E3, x), [()]),
    "height_hessian": (lambda x: sphere.height_hessian(x, _E3, x, x), [()]),
    "longitude_coords": (sphere.longitude_coords, [(), ()]),
    "_longitude_diffs": (lambda x: sphere._longitude_diffs(x, x), [(), (), ()]),
    "longitude_hessians": (lambda x: sphere.longitude_hessians(x, x, x), [(), ()]),
    "great_circle": (lambda x: sphere.great_circle(x, x, np.zeros(len(x))), [(4,)]),
    "tangent_frame": (sphere.tangent_frame, [(3, 4)]),
}


# and dr, dtheta, which the Hessians of r and theta take from _longitude_diffs
@pytest.mark.parametrize("name", sorted(set(sphere.__all__) - {"RegionError"}
                                        | {"_longitude_diffs"}))
def test_an_empty_stack_gives_empty_arrays(name):
    # the unit-vector check once raised NumPy's zero-size reduction error here
    call, trailing = _EMPTY_CALLS[name]
    out = call(np.zeros((0, 4)))
    out = out if isinstance(out, tuple) else (out,)
    assert [a.shape for a in out] == [(0,) + t for t in trailing]


_FORMS = {
    "height_differential": lambda x, a, u: sphere.height_differential(x, a, u),
    "height_hessian_u": lambda x, a, u: sphere.height_hessian(x, a, u, 0.0 * x),
    "height_hessian_w": lambda x, a, u: sphere.height_hessian(x, a, 0.0 * x, u),
    "_longitude_diffs": lambda x, a, u: sphere._longitude_diffs(x, u),
    "longitude_hessians_u": lambda x, a, u: sphere.longitude_hessians(x, u, 0.0 * x),
    "longitude_hessians_w": lambda x, a, u: sphere.longitude_hessians(x, 0.0 * x, u),
}


@pytest.mark.parametrize("form", _FORMS.values(), ids=_FORMS.keys())
def test_forms_reject_non_tangent_and_nan_vectors(form):
    rng = np.random.default_rng(3)
    x = _unit(rng, 4)
    a = _unit(rng, 4)
    u = _tangent_unit(rng, x)
    form(x, a, u)
    with pytest.raises(ValueError, match="tangent"):
        form(x, a, u + 1e-6 * x)
    with pytest.raises(ValueError, match="tangent"):
        form(np.stack([x, x]), a, np.stack([u, x]))
    bad = u.copy()
    bad[2] = math.nan
    with pytest.raises(ValueError, match="tangent"):
        form(x, a, bad)
    with pytest.raises(ValueError, match="unit vector"):
        form(np.array([math.nan, 0.0, 0.0, 1.0]), a, u)


def test_tangency_bound_scales_with_the_vector():
    # |<x, u>| <= 1e-10 max(1, |u|_inf): a long tangent vector keeps its
    # rounding, a unit one may not lean out by more than the tolerance
    x = np.array([0.6, 0.8, 0.0])
    u = 1e8 * np.array([-0.8, 0.6, 0.0]) + 0.5e-3 * x
    assert np.isfinite(sphere.height_differential(x, x, u))
    with pytest.raises(ValueError, match="tangent"):
        sphere.height_differential(x, x, np.array([-0.8, 0.6, 0.0]) + 2e-10 * x)


@pytest.mark.parametrize("form", list(_FORMS.values())[:3], ids=list(_FORMS)[:3])
def test_height_forms_reject_a_pole_off_the_sphere(form):
    rng = np.random.default_rng(4)
    x = _unit(rng, 4)
    u = _tangent_unit(rng, x)
    with pytest.raises(ValueError, match="same sphere"):
        form(x, _unit(rng, 3), u)
    with pytest.raises(ValueError, match="unit vector"):
        form(x, np.array([1.0, 1.0, 0.0, 0.0]), u)
    with pytest.raises(ValueError, match="unit vector"):
        form(x, np.array([math.nan, 0.0, 0.0, 1.0]), u)


def test_longitude_forms_reject_the_polar_set():
    x = np.array([0.0, 0.0, 1.0])
    u = np.array([0.0, 1.0, 0.0])
    with pytest.raises(sphere.RegionError) as err:
        sphere.longitude_hessians(np.stack([np.array([1.0, 0.0, 0.0]), x]), u, u)
    assert np.array_equal(err.value.point, x)
    with pytest.raises(sphere.RegionError):
        sphere._longitude_diffs(x, u)


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


def test_batched_chart_is_within_an_ulp_of_libm():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((10**5, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    r, th = sphere.longitude_coords(x)
    assert r.shape == th.shape == (10**5,)
    ref_r = np.array([math.hypot(p[0], p[1]) for p in x.tolist()])
    ref_th = np.array([math.atan2(p[1], p[0]) for p in x.tolist()])
    assert np.all(np.abs(r - ref_r) <= np.spacing(ref_r))
    assert np.all(np.abs(th - ref_th) <= np.spacing(np.abs(ref_th)))
    # leading axes are kept
    r2, th2 = sphere.longitude_coords(x[:12].reshape(3, 4, 3))
    assert np.array_equal(r2, r[:12].reshape(3, 4)) and np.array_equal(th2, th[:12].reshape(3, 4))


def _on_the_sphere(*rows):
    x = np.array(rows, dtype=float)
    return x / np.linalg.norm(x, axis=1)[:, None]


@pytest.mark.parametrize("stack, first, region", [
    (_on_the_sphere([0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.3, 0.2, 0.5], [1e-10, 0.0, -1.0]),
     1, "polar set"),
    (_on_the_sphere([0.6, 0.8, 0.0], [-0.5, 0.0, 0.5], [0.3, 0.2, 0.5], [-1.0, 1e-10, 0.0]),
     1, "half-equator"),
    (_on_the_sphere([-1.0, -1e-10, 0.0], [0.0, 0.0, 1.0]), 0, "half-equator"),
    (_on_the_sphere([0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]), 0, "polar set"),
], ids=["polar", "half-equator", "half-equator-first", "polar-first"])
def test_region_error_names_the_first_point_of_the_stack(stack, first, region):
    with pytest.raises(sphere.RegionError, match=region) as err:
        sphere.longitude_coords(stack)
    assert np.array_equal(err.value.point, stack[first])
    with pytest.raises(sphere.RegionError, match=region) as err:
        sphere.longitude_coords(stack.reshape((2, -1, 3)))
    assert np.array_equal(err.value.point, stack[first])


def test_hess_r_at_date_line_antipode():
    # at x = (1,0,0,...), v = the third axis: dtheta(v) = 0, r = 1,
    # so Hess r(v,v) = -1
    x = np.zeros(5)
    x[0] = 1.0
    v = np.eye(5)[2]
    hr, ht = sphere.longitude_hessians(x, v, v)
    assert hr == pytest.approx(-1.0, abs=1e-12)
    assert ht == pytest.approx(0.0, abs=1e-12)
    assert sphere._longitude_diffs(x, v)[1:] == (0.0, 0.0)


def _chart_probe(rng, n1):
    # a point at least 1e-3 off the polar set and the deleted half-equator
    while True:
        x = _unit(rng, n1)
        if math.hypot(x[0], x[1]) > 1e-3 and not (x[0] <= 0.0 and abs(x[1]) <= 1e-3):
            return x


def test_hess_r_theta_match_great_circle_differences():
    rng = np.random.default_rng(13)
    step = 1e-4
    for _ in range(300):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        v = _tangent_unit(rng, x)
        hr, ht = sphere.longitude_hessians(x, v, v)
        _, dr, dt = sphere._longitude_diffs(x, v)

        def coords(t):
            return np.array(sphere.longitude_coords(sphere.great_circle(x, v, t)))

        fd2 = (coords(step) - 2.0 * coords(0.0) + coords(-step)) / step**2
        fd1 = (coords(step) - coords(-step)) / (2.0 * step)
        for fd, closed in zip((*fd2, *fd1), (hr, ht, dr, dt)):
            assert abs(fd - closed) <= 1e-6 * max(1.0, abs(closed))


def test_theta_level_sets_are_totally_geodesic():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        # the gradient of theta in ambient coordinates, from dtheta of a frame
        basis = sphere.tangent_frame(x)
        grad = sphere._longitude_diffs(x, basis)[2] @ basis
        v = _tangent_unit(rng, x)
        # remove the gradient component so that dtheta(v) = 0
        v -= (v @ grad) / (grad @ grad) * grad
        v /= np.linalg.norm(v)
        assert abs(sphere._longitude_diffs(x, v)[2]) <= 1e-12
        assert abs(sphere.longitude_hessians(x, v, v)[1]) <= 1e-10


def test_polarization_identity_for_all_hessians():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n1 = int(rng.integers(3, 6))
        x = _chart_probe(rng, n1)
        a = _unit(rng, n1)
        forms = [
            lambda u, w: sphere.height_hessian(x, a, u, w),
            lambda u, w: sphere.longitude_hessians(x, u, w)[0],
            lambda u, w: sphere.longitude_hessians(x, u, w)[1],
        ]
        u = 3.0 * _tangent_unit(rng, x)
        w = 2.0 * _tangent_unit(rng, x)
        for form in forms:
            lhs = 2.0 * form(u, w)
            rhs = form(u + w, u + w) - form(u, u) - form(w, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            assert form(u, w) == pytest.approx(form(w, u), abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_height_range_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    x = _unit(rng, n + 1)
    a = _unit(rng, n + 1)
    h = sphere.height_value(x, a)
    assert 0.0 <= h <= 2.0
    assert sphere.height_value(a, x) == pytest.approx(h, abs=1e-12)


def _tangents(rng, x):
    v = rng.standard_normal(x.shape)
    return v - sphere._dot(v, x)[..., None] * x


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(2, 5),
       st.integers(0, 2**32 - 1))
def test_forms_over_leading_axes_equal_per_point_calls(lead, n, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead)
    x = rng.standard_normal(shape + (n + 1,))
    x /= np.sqrt(sphere._dot(x, x))[..., None]
    u, w = _tangents(rng, x), _tangents(rng, x)
    a = _unit(rng, n + 1)
    # and a pole per point
    b = rng.standard_normal(shape + (n + 1,))
    b /= np.sqrt(sphere._dot(b, b))[..., None]
    batched = [
        sphere.height_differential(x, a, u),
        sphere.height_hessian(x, a, u, w),
        *sphere._longitude_diffs(x, u)[1:],
        *sphere.longitude_hessians(x, u, w),
        sphere.height_value(x, b),
        sphere.height_hessian(x, b, u, w),
    ]
    for out in batched:
        assert out.shape == shape
    frames = sphere.tangent_frame(x)
    assert frames.shape == shape + (n, n + 1)
    for idx in np.ndindex(shape):
        single = [
            sphere.height_differential(x[idx], a, u[idx]),
            sphere.height_hessian(x[idx], a, u[idx], w[idx]),
            *sphere._longitude_diffs(x[idx], u[idx])[1:],
            *sphere.longitude_hessians(x[idx], u[idx], w[idx]),
            sphere.height_value(x[idx], b[idx]),
            sphere.height_hessian(x[idx], b[idx], u[idx], w[idx]),
        ]
        for out, one in zip(batched, single):
            assert np.array_equal(out[idx], one)
        assert np.array_equal(frames[idx], sphere.tangent_frame(x[idx]))
