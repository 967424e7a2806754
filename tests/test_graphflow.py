import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from shrinkerlab import cli
from shrinkerlab import grassmann as gr
from shrinkerlab import graphflow as gf
from shrinkerlab import immersion as im
from shrinkerlab import sphere
from shrinkerlab.immersion import ChartError


def _rk4_samples(rhs, x, y, xs, sub):
    """{xt: y(xt)[0]} at each xt of xs, by RK4 outward from y(x) = y in
    steps of at most sub; a target below x raises ValueError."""
    if min(xs) < x:
        raise ValueError(f"target {min(xs)} lies below the start {x}")
    out = {}
    for xt in sorted(set(xs)):
        while x < xt - 1e-15:
            n_sub = max(1, int(np.ceil((xt - x) / sub)))
            h = (xt - x) / n_sub
            k1 = rhs(x, y)
            k2 = rhs(x + h / 2, y + h / 2 * k1)
            k3 = rhs(x + h / 2, y + h / 2 * k2)
            k4 = rhs(x + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
        out[xt] = y[0]
    return out


def _profile_samples(xs, u0=0.4, sub=1e-4):
    """High-accuracy RK4 samples of the radial graph profile.

    Integrates u'' = (1 + u'^2)(x u' - u)/2 outward from (u0, 0); the grid
    fields built from these samples satisfy the discrete system up to pure
    stencil error, which is what the residual tests bound.
    """

    def rhs(x, y):
        u, p = y
        return np.array([p, (1 + p * p) * (x * p - u) / 2.0])

    return _rk4_samples(rhs, 0.0, np.array([u0, 0.0]), xs, sub)


def _profile_field(resolution, L=1.5):
    ax = np.linspace(-L, L, resolution)
    samples = _profile_samples([abs(v) for v in ax])
    return gf.GridField(L=L, values=np.array([[samples[abs(v)]] for v in ax]))


def _equivariant_field(resolution, d=0.1, L=1.5, r0=0.01, sub=1e-3):
    """The k = 2 equivariant shrinking graph u = f(r) (cos 2 theta, sin 2 theta)
    on the grid of [-L, L]^2: an exact non-affine solution of the m = 2 system.

    f solves f'' / (1 + f'^2) + (f'/r - 4 f / r^2) / (1 + 4 f^2 / r^2)
    = (r f' - f) / 2, integrated by RK4 from the series f = d r^2 (1 + r^2 / 24)
    at r0, below every nonzero node radius up to 257^2 (_rk4_samples checks);
    u = (f / r^2) (x^2 - y^2, 2 x y).
    """
    x = gf.GridField(L=L, values=np.zeros((resolution, resolution, 2))).coords()
    radii = np.hypot(x[..., 0], x[..., 1])

    def rhs(r, y):
        f, p = y
        q = f / (r * r)
        return np.array([p, (1 + p * p) * ((r * p - f) / 2.0 - (p / r - 4 * q) / (1 + 4 * f * q))])

    start = np.array([d * r0 ** 2 * (1 + r0 ** 2 / 24), d * (2 * r0 + r0 ** 3 / 6)])
    f = _rk4_samples(rhs, r0, start, radii[radii > 0].tolist(), sub)
    ratio = np.array([f[r] / r ** 2 if r > 0 else d for r in radii.ravel().tolist()])
    u = np.stack([x[..., 0] ** 2 - x[..., 1] ** 2, 2 * x[..., 0] * x[..., 1]], axis=-1)
    return gf.GridField(L=L, values=ratio.reshape(radii.shape + (1,)) * u)


def _graph_m2_field(resolution=41, L=2.0):
    def u(x):
        return [
            0.25 * x[0] ** 2 - 0.15 * x[0] * x[1] + 0.1 * np.sin(x[1]),
            0.2 * np.cos(x[0]) + 0.12 * x[1] ** 2,
        ]

    return gf.GridField.from_function(u, L=L, resolution=(resolution, resolution), m=2)


def _poly_window(x):
    return float(np.prod(np.maximum(0.0, 1.0 - x * x) ** 2))


# ---------------------------------------------------------------------------
# residual operator


@pytest.mark.parametrize("order", [2, 4])
def test_residual_vanishes_on_linear_fields(order):
    A = np.array([[0.4, -0.7], [0.2, 0.1]])
    f = gf.GridField.from_function(
        lambda x: A @ x, L=1.5, resolution=(17, 17), m=2,
        boundary="affine", A=A, b=np.zeros(2),
    )
    assert np.max(np.abs(gf.system_residual(f, order))) <= 1e-13


def test_residual_constant_offset_is_half_value():
    c = np.array([0.8, -0.3])
    f = gf.GridField.from_function(lambda x: c, L=1.0, resolution=(9, 9), m=2)
    assert np.max(np.abs(gf.system_residual(f) - c / 2.0)) == 0.0


def test_from_function_fills_the_nodes_in_grid_order():
    def u(x):
        return [math.sin(x[0]) * x[1], x[0] - 0.5 * x[1] ** 2]

    f = gf.GridField.from_function(u, L=1.0, resolution=(9, 7), m=2)
    want = np.array([u(x) for x in f.coords().reshape(-1, 2)]).reshape(9, 7, 2)
    assert np.array_equal(f.values, want)


@pytest.mark.parametrize("m, func", [
    (2, lambda x: x[0]),
    (1, lambda x: [x[0], x[1]]),
    (2, lambda x: [0.0, 1.0, 2.0] if x[0] > 0.5 else [0.0, 1.0]),  # later nodes only
])
def test_from_function_needs_m_values_per_node(m, func):
    with pytest.raises(ValueError, match=f"func must return {m} values per node"):
        gf.GridField.from_function(func, L=1.0, resolution=(9, 9), m=m)


def test_residual_sums_start_from_zero():
    # elliptic and drift are sums from 0.0, as in the stacked definition: on
    # alternating signed zeros u_xx is -0.0 at every other node, yet no part
    # of the defect is -0.0
    f = gf.GridField(L=1.0, values=np.array([[-0.0], [0.0]] * 4 + [[-0.0]]))
    ws = gf._Workspace(f, 2).fill()
    assert not any(np.any(np.signbit(x)) for x in (ws.res, ws.elliptic, ws.drift))


def test_residual_profile_field_within_stencil_bound():
    fine = _profile_field(121)
    coarse = _profile_field(41)
    sup_fine = np.max(np.abs(gf.system_residual(fine, 2)))
    sup_coarse = np.max(np.abs(gf.system_residual(coarse, 2)))
    assert sup_fine <= 1e-5
    assert np.max(np.abs(gf.system_residual(fine, 4))) <= 1e-7
    # second-order stencils: tripling h multiplies the defect by about nine
    assert 7.0 <= sup_coarse / sup_fine <= 11.0


def test_scaling_regression_through_parts():
    base = _profile_field(61)
    lam = 2.0
    scaled = gf.GridField(L=lam * base.L, values=lam * base.values)
    ws = gf._Workspace(base, 2).fill()
    elliptic, drift = ws.elliptic, ws.drift
    res_scaled = gf.system_residual(scaled, 2)
    # node-for-node the dilated field's defect recombines the two pieces
    assert np.max(np.abs(res_scaled - (elliptic / lam - lam * drift))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spd_inverse_matches_lapack(n):
    rng = np.random.default_rng(n)
    J = 3.0 * rng.standard_normal((n, 2, 7, 5))
    g = np.einsum("i...a,j...a->ij...", J, J)
    for k in range(n):
        g[k, k] += 1.0
    per_node = np.moveaxis(g, (0, 1), (-2, -1)).copy()
    det = np.empty(g.shape[2:])
    gf._run(gf._spd_inverse(g, det, np.empty(g.shape[2:])))
    inv = np.moveaxis(g, (0, 1), (-2, -1))
    assert np.max(np.abs(inv - np.linalg.inv(per_node))) <= 1e-12
    lapack_det = np.linalg.det(per_node)
    assert np.max(np.abs(det - lapack_det) / lapack_det) <= 1e-12


@pytest.mark.parametrize("order", [2, 4])
def test_residual_matches_per_node_formula_in_three_dimensions(order):
    # n = 3 runs every mixed partial; the reference inverts g node by node
    rng = np.random.default_rng(order)
    f = gf.GridField(L=1.2, values=0.3 * rng.standard_normal((9, 10, 11, 2)))
    box = gf.interior(f, order)
    _, dX, ddX = gf.field_immersion(f, order).jets(gf.interior_nodes(f, order))
    du = dX[..., 3:].reshape(f.values[box].shape[:-1] + (3, 2))
    ddu = ddX[..., 3:].reshape(du.shape[:-2] + (3, 3, 2))
    ginv = np.linalg.inv(np.einsum("...im,...jm->...ij", du, du) + np.eye(3))
    elliptic = np.einsum("...ij,...ijm->...m", ginv, ddu)
    drift = 0.5 * (np.einsum("...i,...im->...m", f.coords()[box], du) - f.values[box])
    res = gf.system_residual(f, order)
    assert res.shape == (9 - order, 10 - order, 11 - order, 2)
    assert np.max(np.abs(res - (elliptic - drift))) <= 1e-12 * np.max(np.abs(elliptic))


# The stacked kernel that the stencil plan and the per-entry geometry pass
# replaced, kept as the bit-for-bit reference: (n, ...) and (n, n, ...)
# arrays, einsum contractions and a full Gauss-Jordan pass.


def _ref_along(v, axis, k, g):
    idx = [slice(None)] * v.ndim
    idx[axis] = slice(g + k, v.shape[axis] - g + k)
    return v[tuple(idx)]


def _ref_d1(v, axis, h, order):
    s = lambda k: _ref_along(v, axis, k, order // 2)
    if order == 2:
        return (s(1) - s(-1)) / (2.0 * h)
    return (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * h)


def _ref_d2(v, axis, h, order):
    s = lambda k: _ref_along(v, axis, k, order // 2)
    if order == 2:
        return (s(1) - 2.0 * s(0) + s(-1)) / (h * h)
    return (-s(2) + 16.0 * s(1) - 30.0 * s(0) + 16.0 * s(-1) - s(-2)) / (12.0 * h * h)


def _ref_jets(field, order):
    v, h, n, g = field.values, field.spacing, field.n, order // 2

    def trimmed(*keep):
        return v[tuple(slice(None) if k in keep else slice(g, s - g)
                       for k, s in enumerate(field.shape))]

    du = np.stack([_ref_d1(trimmed(k), k, h[k], order) for k in range(n)])
    ddu = np.empty((n, n) + du.shape[1:])
    for k in range(n):
        ddu[k, k] = _ref_d2(trimmed(k), k, h[k], order)
        for l in range(k + 1, n):
            ddu[k, l] = ddu[l, k] = _ref_d1(_ref_d1(trimmed(k, l), k, h[k], order),
                                            l, h[l], order)
    return du, ddu


def _ref_inverse(g):
    n = g.shape[0]
    a = g.copy()
    inv = np.zeros_like(g)
    det = np.ones(g.shape[2:])
    for k in range(n):
        inv[k, k] = 1.0
    for k in range(n):
        det *= a[k, k]
        p = 1.0 / a[k, k]
        a[k] *= p
        inv[k] *= p
        for i in range(n):
            if i != k:
                f = a[i, k].copy()
                a[i] -= f * a[k]
                inv[i] -= f * inv[k]
    return inv, det


def _ref_geometry(field, order):
    box = gf.interior(field, order)
    du, ddu = _ref_jets(field, order)
    X = np.moveaxis(field.coords()[box], -1, 0)
    # the sum from 0.0 in component order
    g = sum((du[:, None, ..., a] * du[None, :, ..., a] for a in range(field.m)), 0.0)
    for k in range(field.n):
        g[k, k] += 1.0
    Q, det = _ref_inverse(g)
    elliptic = np.einsum("ij...,ij...m->...m", Q, ddu)
    drift = 0.5 * (sum(x[..., None] * d for x, d in zip(X, du)) - field.values[box])
    QH = np.einsum("ik...,kj...m->ij...m", Q, ddu)
    QW = np.einsum("p...m,ij...m->pij...", du, QH)
    b2 = np.einsum("ij...m,ji...m->...", QH, QH) - np.einsum(
        "pq...,pq...->...", Q, np.einsum("pij...,qji...->pq...", QW, QW))
    return (elliptic - drift, elliptic, drift), np.sqrt(det), b2, (du, ddu)


_REF_SHAPES = {1: (15,), 2: (11, 13), 3: (7, 8, 9)}


@pytest.mark.parametrize("boundary", ["affine", "frozen"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_geometry_pass_is_bit_identical_to_the_stacked_kernel(n, order, m, boundary,
                                                               monkeypatch):
    shape = _REF_SHAPES[n]
    rng = np.random.default_rng(100 * n + 10 * order + m)
    values = 0.4 * rng.standard_normal(shape + (m,))
    extra = {}
    if boundary == "affine":
        A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        X = np.stack(np.meshgrid(*[np.linspace(-1.3, 1.3, s) for s in shape],
                                 indexing="ij"), axis=-1)
        rim = np.ones(shape, dtype=bool)
        rim[tuple(slice(1, -1) for _ in shape)] = False
        values[rim] = (X @ A.T + b)[rim]
        extra = dict(A=A, b=b)
    f = gf.GridField(L=1.3, values=values, boundary=boundary, **extra)
    parts, slope, b2, jets = _ref_geometry(f, order)
    ws = gf._Workspace(f, order).fill()
    assert all(np.array_equal(x, y) for x, y in zip((ws.res, ws.elliptic, ws.drift), parts))
    assert np.array_equal(gf.system_residual(f, order), parts[0])
    assert np.array_equal(gf.slope_field(f, order), slope)
    # |B|^2 is contracted in blocks of nodes: at the module's size, one block
    # here, then over several blocks of each slab (13, 11, 117, 91, 360 or 216
    # nodes), ending in tails of 1 to 11 nodes or in a whole block
    for block in (im._NODE_BLOCK, 16, 4):
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
        assert np.array_equal(gf.second_form_sq_field(f, order), b2)
    # the node bridge gathers the same jets, node by node in row-major order
    nodes = gf.interior_nodes(f, order)
    x, dX, ddX = gf.field_immersion(f, order).jets(nodes)
    du, ddu = jets
    u = f.values[gf.interior(f, order)].reshape(-1, m)
    assert np.array_equal(x, np.concatenate([nodes, u], axis=-1))
    assert np.array_equal(dX[..., n:], np.moveaxis(du, 0, -2).reshape(-1, n, m))
    assert np.array_equal(ddX[..., n:], np.moveaxis(ddu, (0, 1), (-3, -2)).reshape(-1, n, n, m))


@pytest.mark.parametrize("order", [2, 4])
def test_geometry_pass_keeps_the_sign_of_zero_at_m2(order, monkeypatch):
    # u^a depends on y alone and falls with it, so du_x is exactly 0.0 next
    # to du_y < 0: the products du_x du_y and x du_x hold -0.0, and only a sum
    # that starts from 0.0, as einsum's does, keeps the reference's zeros
    shape = (11, 13)
    y = np.linspace(-1.3, 1.3, shape[1])
    profile = np.stack([-0.4 * y + 0.1 * y * y, -0.7 * y - 0.2 * y ** 3], axis=-1)
    f = gf.GridField(L=1.3, values=np.broadcast_to(profile, shape + (2,)))
    parts, slope, b2, (du, _) = _ref_geometry(f, order)
    products = du[0] * du[1]
    assert np.any((products == 0.0) & np.signbit(products))
    # the inverse's 0.0 - f steps clear the sign of the metric's zeros, so
    # the metric is read as the inverse receives it
    metrics, inverse = [], gf._spd_inverse
    monkeypatch.setattr(gf, "_spd_inverse", lambda g, *a: [
        (lambda: metrics.append(g.copy()), ())] + inverse(g, *a))
    ws = gf._Workspace(f, order).fill()
    g = np.einsum("i...a,j...a->ij...", du, du) + np.eye(2)[..., None, None]
    got = [gf._inside(ws._plan, metrics[0], per_node=True), ws.res, ws.elliptic, ws.drift,
           gf.slope_field(f, order), gf.second_form_sq_field(f, order)]
    for a, b in zip(got, [g, *parts, slope, b2]):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    # over blocks of 16 and of 4 nodes, the last of one node at order 2
    for block in (16, 4):
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
        a = gf.second_form_sq_field(f, order)
        assert np.array_equal(a, b2) and np.array_equal(np.signbit(a), np.signbit(b2))


# ---------------------------------------------------------------------------
# slope and curvature vs the frame layer


def test_slope_constant_field_is_one():
    f = gf.GridField.from_function(lambda x: [1.3], L=1.0, resolution=(9, 9), m=1)
    assert np.max(np.abs(gf.slope_field(f) - 1.0)) <= 1e-14


def test_slope_matches_hypersurface_formula():
    f = gf.GridField.from_function(
        lambda x: [0.3 * np.sin(x[0]) * np.cos(x[1])], L=2.0,
        resolution=(41, 41), m=1,
    )
    sl = gf.slope_field(f, order=4)
    _, dX, _ = gf.field_immersion(f, order=4).jets(gf.interior_nodes(f, order=4))
    du1 = dX[..., 2].reshape(sl.shape + (2,))
    assert np.min(sl) >= 1.0
    assert np.max(np.abs(sl - np.sqrt(1.0 + np.sum(du1 * du1, axis=-1)))) <= 1e-12


def test_slope_w_product_reciprocal_at_nodes():
    f = _graph_m2_field()
    imm = gf.field_immersion(f, order=4)
    sl = gf.slope_field(f, order=4)
    shape_i = sl.shape
    nodes = gf.interior_nodes(f, order=4).reshape(shape_i + (2,))
    P0 = gr.OrientedFrame(np.hstack([np.eye(2), np.zeros((2, 2))]))
    rng = np.random.default_rng(3)
    for _ in range(25):
        ij = (rng.integers(0, shape_i[0]), rng.integers(0, shape_i[1]))
        pf = im.point_frame(imm, nodes[ij])
        w = gr.w_product(gr.OrientedFrame(pf.tangent), P0)
        assert abs(sl[ij] * abs(w) - 1.0) <= 1e-8


def test_residual_consistent_with_frame_residual():
    # per component the grid defect is the pairing of the frame-level defect
    # vector with the graph normal (-Du^a, e_a)
    f = _graph_m2_field()
    imm = gf.field_immersion(f, order=4)
    res = gf.system_residual(f, order=4)
    shape_i = res.shape[:-1]
    nodes = gf.interior_nodes(f, order=4).reshape(shape_i + (2,))
    rng = np.random.default_rng(11)
    for _ in range(25):
        ij = (rng.integers(0, shape_i[0]), rng.integers(0, shape_i[1]))
        pf = im.point_frame(imm, nodes[ij])
        R = im.shrinker_residual(pf)
        dX = imm.jets(nodes[ij][None])[1][0]
        du = dX[:, 2:]
        for a in range(2):
            N = np.concatenate([-du[:, a], np.eye(2)[a]])
            paired = sum(R[b] * float(pf.normal[b] @ N) for b in range(2))
            assert abs(paired - res[ij][a]) <= 1e-12


def test_second_form_matches_frame_layer():
    f = _graph_m2_field()
    imm = gf.field_immersion(f, order=4)
    b2 = gf.second_form_sq_field(f, order=4)
    nodes = gf.interior_nodes(f, order=4).reshape(b2.shape + (2,))
    rng = np.random.default_rng(5)
    for _ in range(25):
        ij = (rng.integers(0, b2.shape[0]), rng.integers(0, b2.shape[1]))
        pf = im.point_frame(imm, nodes[ij])
        assert abs(pf.second_form_sq - b2[ij]) <= 1e-12


def test_drift_laplacian_reduces_on_profile_field():
    # on solution fields the weighted Laplacian of a horizontal function
    # collapses to g^ij f_ij - x_j f_j / 2
    f = _profile_field(121)
    imm = gf.field_immersion(f, order=4)
    ax = np.linspace(-f.L, f.L, 121)
    for i in (10, 30, 60, 85, 110):
        x = ax[i]
        p = np.array([x])
        # f = sin(x), from its chart gradient and hessian
        df, ddf = np.array([np.cos(x)]), np.array([[-np.sin(x)]])
        jets = [a[0] for a in imm.jets(p[None])]
        lhs = float(im._drift_laplacian(*jets, im.point_frame(imm, p).S, df, ddf))
        du = jets[1][0, 1]
        reduced = -np.sin(x) / (1.0 + du ** 2) - 0.5 * x * np.cos(x)
        assert abs(lhs - reduced) <= 1e-8


# ---------------------------------------------------------------------------
# relaxation


def test_relax_affine_is_a_fixed_point():
    A = np.array([[0.4, -0.7]])
    f = gf.GridField.from_function(
        lambda x: A @ x, L=1.5, resolution=(17, 17), m=1,
        boundary="affine", A=A, b=np.zeros(1),
    )
    out, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=10))
    assert trace.converged
    assert trace.steps == [0]
    assert np.array_equal(out.values, f.values)


def test_relax_bump_converges_with_monotone_slope():
    f = gf.GridField.from_function(
        lambda x: [0.35 * _poly_window(x)], L=1.0, resolution=(25, 25), m=1,
        boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1),
    )
    assert np.max(gf.slope_field(f)) < 3.0
    out, trace = gf.relax_flow(
        f, gf.SolverConfig(max_steps=30000, sample_interval=200)
    )
    assert trace.converged
    assert trace.sup_residual[-1] < 1e-8
    assert trace.sup_b2[-1] <= 1e-6
    assert np.max(np.abs(out.values)) <= 1e-6
    slopes = trace.sup_slope
    assert all(s1 <= s0 + 1e-12 for s0, s1 in zip(slopes, slopes[1:]))


def test_relax_small_m2_field_reaches_affine_interpolant():
    rng = np.random.default_rng(42)
    A = np.array([[0.3, -0.2], [0.1, 0.25]])
    coef = rng.normal(size=(2, 3, 3)) * 0.05

    def fld(x):
        w = (1 - x[0] ** 2) * (1 - x[1] ** 2)
        out = A @ x
        for a in range(2):
            out[a] += w * sum(
                coef[a, i, j] * np.sin((i + 1) * 1.1 * x[0]) * np.cos(j * 0.9 * x[1])
                for i in range(3)
                for j in range(3)
            )
        return out

    f = gf.GridField.from_function(
        fld, L=1.0, resolution=(25, 25), m=2,
        boundary="affine", A=A, b=np.zeros(2),
    )
    out, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=40000, sample_interval=500))
    assert trace.converged
    assert np.max(np.abs(out.values - f.affine_values())) <= 1e-6


def test_relax_converges_to_an_exact_non_affine_solution():
    # from the exact boundary and a zero interior; the error falls as h^2
    # (1.70e-5 on 17^2, 4.17e-6 on 33^2; 1.04e-6 on 65^2)
    errors = []
    for resolution in (17, 33):
        exact = _equivariant_field(resolution)
        start = exact.values.copy()
        start[1:-1, 1:-1] = 0.0
        out, trace = gf.relax_flow(gf.GridField(L=exact.L, values=start),
                                   gf.SolverConfig(threshold=1e-11))
        assert trace.converged
        errors.append(float(np.max(np.abs(out.values - exact.values))))
    assert errors[0] <= 2.5e-5
    assert 3.5 <= errors[0] / errors[1] <= 4.7


@pytest.mark.parametrize("order, low, high", [(2, 3.5, 4.5), (4, 14.0, 18.5)])
def test_exact_solution_residual_falls_with_the_stencil_order(order, low, high):
    # the sampled exact solution at the node (0.375, 0.75) of 17^2, 33^2 and
    # 65^2: per halving of h the residual fell by 3.99 and 4.00 (first
    # component) and 4.03 and 4.01 (second) at order 2, and by 16.9 and 16.2,
    # 16.4 and 16.1 at order 4
    ratios = []
    previous = None
    for resolution in (17, 33, 65):
        k, margin = (resolution - 1) // 16, order // 2
        field = _equivariant_field(resolution)
        assert field.coords()[10 * k, 12 * k].tolist() == [0.375, 0.75]
        residual = np.abs(gf.system_residual(field, order)[10 * k - margin, 12 * k - margin])
        if previous is not None:
            ratios.append(previous / residual)
        previous = residual
    ratios = np.array(ratios)
    assert np.all((low <= ratios) & (ratios <= high)), ratios


def test_relax_divergence_attaches_trace():
    f = gf.GridField.from_function(
        lambda x: [0.3 * _poly_window(x)], L=1.0, resolution=(17, 17), m=1,
        boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1),
    )
    h = float(np.min(f.spacing))
    unstable = gf.SolverConfig(dt=10.0 * 0.45 * h * h / 4.0, max_steps=5000,
                               sample_interval=10)
    with pytest.raises(gf.DivergenceError) as info:
        gf.relax_flow(f, unstable)
    trace = info.value.trace
    assert trace.steps[0] == 0  # step 0 is recorded before the first step
    assert all(t1 > t0 for t0, t1 in zip(trace.times, trace.times[1:]))


def test_rk4_samples_reject_a_target_below_the_start():
    # such a node would silently take the value at the start
    with pytest.raises(ValueError, match="below the start"):
        _rk4_samples(lambda x, y: y, 0.05, np.ones(1), [0.047, 0.1], 1e-3)


# ---------------------------------------------------------------------------
# power-of-two stencil divisors


def test_exact_reciprocal_needs_every_divisor_a_power_of_two_with_a_finite_inverse():
    assert gf._exact_reciprocal(gf._const([[0.25], [0.125]])).tolist() == [[4.0], [8.0]]
    assert float(gf._exact_reciprocal(gf._const(-0.5))) == -2.0
    assert float(gf._exact_reciprocal(gf._const(2.0 ** 1023))) == 2.0 ** -1023  # subnormal
    for div in ([[0.25], [1 / 6]], 1.5, 2.0 ** -1074, 0.0):
        assert gf._exact_reciprocal(gf._const(div)) is None


@pytest.mark.parametrize("shape, L, order, divides", [
    ((17, 17), 1.0, 2, 0), ((129, 129), 4.0, 2, 0), ((17, 9), 1.0, 2, 0),
    ((25, 25), 1.0, 2, 3), ((17, 13), 1.0, 2, 3), ((17, 17), 1.0, 4, 3),
])
def test_jets_divide_only_by_divisors_other_than_powers_of_two(shape, L, order, divides):
    # order 2: 2h and h^2 (powers of two at h = 1/8, 1/16 and 1/4 beside 1/8);
    # order 4: 12h and 12h^2, never powers of two
    f = gf.GridField(L=L, values=np.zeros(shape + (1,)))
    _, _, calls = gf._interior_jets(f, gf._plan(f, order), order)
    assert sum(ufunc is np.divide for ufunc, _ in calls) == divides


@pytest.mark.parametrize("stages", [1, 6])
def test_relaxation_with_reciprocal_multiplies_keeps_the_divide_bits(monkeypatch, stages):
    # 17^2 on L = 1 (h = 1/8): every stencil divisor is a power of two, and a
    # run built with divides only reads the same trace and field, bit for bit
    f = _bump(17, 2, amp=0.6)
    cfg = gf.SolverConfig(max_steps=240, threshold=1e-14, sample_interval=40, stages=stages)
    runs = []
    for divide_only in (False, True):
        if divide_only:
            monkeypatch.setattr(gf, "_exact_reciprocal", lambda div: None)
        ws = gf._Workspace(f, 2, 0.01)
        assert sum(ufunc is np.divide for ufunc, _ in ws.step) == (5 if divide_only else 2)
        out, trace = gf.relax_flow(f, cfg)
        runs.append((out.values.tobytes(), gf.trace_to_csv(trace)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# RKL1 supersteps


def test_supersteps_reach_the_explicit_state_of_the_flow_graph_field():
    # flow-graph's default field at seed 61: 6 573 explicit steps, or 520
    # fills at 20 stages, to states 1.8e-10 apart; the perimeter keeps its bits
    cfg = cli.DEFAULTS["flow-graph"]
    f = cli._seeded_bump_field(cfg, np.random.default_rng(np.random.SeedSequence(61)))
    rim = gf._perimeter_mask(f.shape)
    states = []
    with np.errstate(all="raise"):
        for stages in (1, 20):
            out, trace = gf.relax_flow(f, gf.SolverConfig(
                max_steps=cfg["max_steps"], sample_interval=cfg["sample_interval"],
                stages=stages))
            assert trace.converged
            assert out.values[rim].tobytes() == f.values[rim].tobytes()
            states.append(out.values)
    assert np.max(np.abs(states[1] - states[0])) <= 1e-8


@pytest.mark.parametrize("seed", [0, 61])
def test_supersteps_reach_the_explicit_state_in_three_dimensions(seed):
    # flow-graph's bump field at n = 3, m = 2 on 13^3: 1 555 and 1 744
    # explicit steps at seeds 0 and 61, or 360 and 400 fills at 20 stages, to
    # states 6.1e-10 and 2.0e-9 apart
    cfg = {**cli.DEFAULTS["flow-graph"], "n": 3, "m": 2, "resolution": 13}
    f = cli._seeded_bump_field(cfg, np.random.default_rng(np.random.SeedSequence(seed)))
    states, fills = [], []
    with np.errstate(all="raise"):
        for stages in (1, 20):
            out, trace = gf.relax_flow(f, gf.SolverConfig(
                max_steps=cfg["max_steps"], sample_interval=cfg["sample_interval"],
                stages=stages))
            assert trace.converged
            states.append(out.values)
            fills.append(trace.steps[-1])
    assert fills[1] <= 600
    assert np.max(np.abs(states[1] - states[0])) <= 1e-8


def test_supersteps_keep_order_two_in_h_on_the_exact_box():
    # 40 stages from the exact boundary and a zero interior: the error is
    # 4.17e-6 at 33^2 and 1.04e-6 at 65^2 (ratio 4.0), in 760 and 1 160 fills
    errors = []
    for resolution in (33, 65):
        exact = _equivariant_field(resolution)
        start = exact.values.copy()
        start[1:-1, 1:-1] = 0.0
        with np.errstate(all="raise"):
            out, trace = gf.relax_flow(gf.GridField(L=exact.L, values=start),
                                       gf.SolverConfig(threshold=1e-11, stages=40))
        assert trace.converged
        errors.append(float(np.max(np.abs(out.values - exact.values))))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_superstep_trace_is_read_at_superstep_ends():
    # 7 stages end at fills 7, 14, ...: a sample at the first end at or after
    # each multiple of 15, and the last superstep shortens to the 2 fills left
    # under max_steps.  A superstep spans 28 explicit steps of flow time
    f = _bump(13, 2)
    cfg = gf.SolverConfig(max_steps=100, threshold=1e-14, sample_interval=15, stages=7)
    with np.errstate(all="raise"):
        _, trace = gf.relax_flow(f, cfg)
        _, short = gf.relax_flow(f, dataclasses.replace(cfg, max_steps=35))
    dt = 0.45 * float(np.min(f.spacing)) ** 2 / 4.0
    assert trace.steps == [0, 21, 35, 49, 63, 77, 91, 100]
    assert trace.times == [k * 28 * dt for k in (0, 3, 5, 7, 9, 11, 13)] + [395 * dt]
    # a sample is the state of the flow there: a run that stops at it ends on it
    rows = [gf.trace_to_csv(t).splitlines() for t in (trace, short)]
    assert rows[1][-1] == rows[0][3]


def test_a_run_builds_no_more_stage_programs_than_it_may_fill():
    # a stage count far above max_steps builds the programs of max_steps
    # fills only; 10 000 stage programs would take about 16 MB
    f = _bump(9, 2)
    tracemalloc.start()
    try:
        _, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=3, threshold=1e-14, stages=10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == [0, 3]
    assert peak <= 2**20


def _reference_relax(u0, cfg):
    # the relaxation loop by its definition, on the stacked reference
    # residual; returns the field, the trace and the divergence message, if any
    h = float(np.min(u0.spacing))
    dt = cfg.dt if cfg.dt is not None else 0.45 * h * h / (2.0 * u0.n)
    box, v = gf.interior(u0), u0.values.copy()
    cur = gf.GridField(L=u0.L, values=v, boundary=u0.boundary, A=u0.A, b=u0.b)
    trace, step = gf.FlowTrace(), 0
    trace.record(0, 0.0, cur)
    while step < cfg.max_steps:
        (res, _, _), *_ = _ref_geometry(cur, 2)
        if float(np.max(np.abs(res))) < cfg.threshold:
            break
        v[box] += dt * res
        step += 1
        sup = float(np.max(np.abs(v)))
        if not math.isfinite(sup) or sup > gf.BLOWUP:
            if math.isfinite(sup):
                trace.record(step, step * dt, cur)
            return cur, trace, f"field magnitude {sup:.3e} exceeded the blow-up bound"
        if step % cfg.sample_interval == 0:
            trace.record(step, step * dt, cur)
    if trace.steps[-1] != step:
        trace.record(step, step * dt, cur)
    return cur, trace, None


def _bump(resolution, m, amp=0.3, n=2):
    # resolution is one count per axis, or one count for all n axes
    shape = tuple(resolution) if np.ndim(resolution) else (resolution,) * n
    return gf.GridField.from_function(
        lambda x: [amp * _poly_window(x) * (1.0 + 0.5 * a * x[0]) for a in range(m)],
        L=1.0, resolution=shape, m=m,
        boundary="affine", A=np.zeros((m, len(shape))), b=np.zeros(m),
    )


def _assert_relax_matches_reference(f, cfg):
    ref, ref_trace, message = _reference_relax(f, cfg)
    if message is None:
        out, trace = gf.relax_flow(f, cfg)
        assert out.values.tobytes() == ref.values.tobytes()
        assert trace.converged == (ref_trace.sup_residual[-1] < cfg.threshold)
    else:
        with pytest.raises(gf.DivergenceError) as info:
            gf.relax_flow(f, cfg)
        trace = info.value.trace
        assert str(info.value) == message
    assert gf.trace_to_csv(trace) == gf.trace_to_csv(ref_trace)
    return trace, message


@pytest.mark.parametrize("m, block", [(1, None), (2, None), (2, 16)],
                         ids=["1", "2", "2-block16"])
def test_relax_is_bit_identical_to_the_reference_loop(m, block, monkeypatch):
    # a loose threshold stops m = 1 early; m = 2 runs to max_steps.  No call
    # may meet a garbage slot, so no floating-point error is forgiven.  With
    # blocks of 16 nodes each sup_B2 reads 9 blocks, the last of 15 nodes
    if block is not None:
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
    cfg = gf.SolverConfig(max_steps=300, threshold=0.05 if m == 1 else 1e-12,
                          sample_interval=7)
    with np.errstate(all="raise"):
        trace, message = _assert_relax_matches_reference(_bump(13, m), cfg)
    assert message is None
    assert (trace.steps[-1] < 300) == (m == 1)


def test_relax_in_three_dimensions_is_bit_identical_to_the_reference_loop():
    cfg = gf.SolverConfig(max_steps=120, sample_interval=25)
    with np.errstate(all="raise"):
        _, message = _assert_relax_matches_reference(_bump(9, 2, n=3), cfg)
    assert message is None


@pytest.mark.parametrize("shape, m", [((11, 15), 2), ((15, 11), 1), ((7, 8, 9), 2),
                                      ((7, 8, 9), 1)])
def test_relax_on_unequal_axes_is_bit_identical_to_the_reference_loop(shape, m):
    # unequal steps divide each row of a stacked difference by its own
    # divisor, and the mixed differences' ends move with the strides
    cfg = gf.SolverConfig(max_steps=80, threshold=1e-12, sample_interval=9)
    trace, message = _assert_relax_matches_reference(_bump(shape, m), cfg)
    assert message is None and trace.steps[-1] == 80


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relax_raises_no_floating_point_error(n):
    # every slab slot off the interior holds a finite value, computed from
    # field values or zeroed once, so no call meets garbage
    f = _bump((13, 11, 9)[:n], 2)
    with np.errstate(all="raise"):
        out, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=60, sample_interval=20))
        gf.FlowTrace().record(0, 0.0, out)
    assert trace.steps[-1] == 60 and np.all(np.isfinite(out.values))


def test_relax_divergence_is_bit_identical_to_the_reference_loop():
    f = gf.GridField.from_function(
        lambda x: [0.3 * _poly_window(x)], L=1.0, resolution=(17, 17), m=1,
        boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1),
    )
    h = float(np.min(f.spacing))
    # the step of test_relax_divergence_attaches_trace: a finite blow-up past
    # BLOWUP, sampled once more; then a step so large that the field
    # overflows to inf or NaN before it is ever finite and past the bound
    unstable = gf.SolverConfig(dt=10.0 * 0.45 * h * h / 4.0, max_steps=5000, sample_interval=10)
    trace, message = _assert_relax_matches_reference(f, unstable)
    assert message is not None and len(trace.steps) >= 2
    with np.errstate(all="ignore"):
        trace, message = _assert_relax_matches_reference(
            f, gf.SolverConfig(dt=1.7e308, max_steps=5000, sample_interval=10))
    assert message.startswith(("field magnitude inf", "field magnitude nan"))
    assert trace.steps == [0]


def test_public_results_do_not_alias_the_workspace():
    rng = np.random.default_rng(8)
    fields = [gf.GridField(L=1.0, values=0.3 * rng.standard_normal((9, 9, 2)))
              for _ in range(3)]
    res = gf.system_residual(fields[0])
    slope = gf.slope_field(fields[1])
    got = [res, slope]
    kept = [a.copy() for a in got]
    gf.second_form_sq_field(fields[2])
    gf.relax_flow(fields[0], gf.SolverConfig(max_steps=5))
    assert all(np.array_equal(a, b) for a, b in zip(got, kept))
    assert not any(np.shares_memory(a, b) for i, a in enumerate(got) for b in got[i + 1:])


@pytest.mark.parametrize("shape, bound_mb", [((129, 129), 4.25), ((25, 25, 25), 7.5)],
                         ids=["129x129", "25x25x25"])
def test_workspace_fill_and_sample_peak_allocation_stays_bounded(monkeypatch, shape, bound_mb):
    # a step workspace, filled and sampled once, at m = 2.  The scratch block
    # holds the step's (n + 2) size entries and |B|^2 is contracted over blocks
    # of nodes: 3.91 and 6.02 MB.  Sized for one pass of the contractions,
    # n^2 m + n^3 + 1 entries per node, the block took 4.62 and 9.14 MB
    f = gf.GridField(L=1.0, values=0.1 * np.random.default_rng(0).standard_normal(shape + (2,)))
    # the plan, with its coordinate table, is built before tracing: not counted
    plan = gf._plan(f, 2)
    monkeypatch.setattr(gf, "_plan", lambda *a: plan)
    tracemalloc.start()
    try:
        gf._Workspace(f, 2, 1e-4).fill().sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20


@pytest.mark.parametrize("m", [1, 2])
def test_trace_sample_evaluates_the_jets_once(m, monkeypatch):
    calls = []
    jets = gf._interior_jets
    monkeypatch.setattr(gf, "_interior_jets", lambda *a: calls.append(a) or jets(*a))
    f = gf.GridField.from_function(
        lambda x: [0.3 * _poly_window(x)] * m, L=1.0, resolution=(9, 9), m=m
    )
    gf.FlowTrace().record(0, 0.0, f)
    assert len(calls) == 1


def test_one_stencil_plan_per_relaxation_run(monkeypatch):
    # one workspace per run: the plan and the jet program are built once,
    # not looked up or compiled per step; so are an immersion's
    f = gf.GridField.from_function(
        lambda x: [0.3 * _poly_window(x)], L=1.0, resolution=(17, 17), m=1,
        boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1),
    )
    built, plans, jets = [], [], []
    init, plan, compile_jets = gf._Workspace.__init__, gf._plan, gf._interior_jets
    monkeypatch.setattr(gf._Workspace, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(gf, "_plan", lambda *a: plans.append(a) or plan(*a))
    monkeypatch.setattr(gf, "_interior_jets", lambda *a: jets.append(a) or compile_jets(*a))
    _, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=400, sample_interval=50))
    assert trace.steps[-1] == 400
    assert len(built) == 1 and len(plans) == 1 and len(jets) == 1
    gf.field_immersion(f)
    assert len(built) == 1 and len(plans) == 2 and len(jets) == 2


def test_a_finished_run_leaves_no_graphflow_array_live():
    # the plan lives in its workspace: once a run's results are dropped, no
    # array buffer allocated from graphflow.py during the run is still held,
    # so no grid's coordinate table (0.13 MiB here) outlives the run.  Small
    # Python objects are left out: the interpreter's and numpy's free lists
    # keep some of those
    f = gf.GridField(L=1.0, values=0.1 * np.random.default_rng(0).standard_normal((65, 65, 2)))
    tracemalloc.start(64)  # np.repeat and its kin allocate a frame below graphflow.py
    try:
        out, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=20, sample_interval=10))
        assert trace.steps == [0, 10, 20]
        del out, trace
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    for keep in (tracemalloc.Filter(True, gf.__file__, all_frames=True),
                 tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)):
        snapshot = snapshot.filter_traces([keep])
    assert [t.size for t in snapshot.traces] == []


_FILL_CALLS = [(1, 2, 43), (1, 4, 58), (2, 2, 50), (2, 4, 65), (3, 2, 57)]


@pytest.mark.parametrize("m, order, count", _FILL_CALLS,
                         ids=[f"order{o}-m{m}" for m, o, _ in _FILL_CALLS])
def test_fill_call_count(m, order, count):
    # one fill at n = 2: the geometry up to res, then the sups
    ws = gf._Workspace(gf.GridField(L=1.0, values=np.zeros((9, 9, m))), order)
    assert len(ws._calls) + len(ws._sups) == count


def test_step_program_is_the_advance_then_the_fill():
    # res dt into scratch and the slab += it, then the fill's own calls up to
    # res's -0.0 copy; |u|, |res| and their reduction are left to the run
    f = gf.GridField(L=1.0, values=np.zeros((9, 9, 1)))
    ws = gf._Workspace(f, 2, 0.01)
    assert len(ws.step) == 42
    assert all(a is b for a, b in zip(ws.step[2:], ws._calls, strict=True))
    assert ws.step[-1][0] is np.copyto and ws.step[-1][1][1] is gf._NEG_ZERO
    # a one-off workspace, with no dt, builds no step program
    assert gf._Workspace(f, 2).step is None


@pytest.mark.parametrize("shape, m, order", [((15,), 1, 4), ((9, 9), 1, 2), ((11, 13), 2, 4),
                                              ((9, 9), 3, 2), ((7, 8, 9), 2, 2)])
def test_step_program_has_no_python_float_operands(shape, m, order):
    # a ufunc call takes a 0-d array faster than a float (np.float64 is one);
    # the superstep's programs run the step first
    ws = gf._Workspace(gf.GridField(L=1.0, values=np.zeros(shape + (m,))), order, 0.01, 3)
    floats = [(f, a) for program in ws.stages for f, args in program for a in args
              if isinstance(a, float)]
    assert not floats
    assert all(a is b for a, b in zip(ws.stages[0][1:], ws.step, strict=True))


@pytest.mark.parametrize("stages", [1, 5])
def test_a_superstep_takes_the_sups_once(stages, monkeypatch):
    # no stage program reduces |u| and |res|: relax_flow does, once after
    # the first fill and once after each superstep
    reductions, run = [], gf._run
    monkeypatch.setattr(gf, "_run", lambda calls: reductions.extend(
        f for f, _ in calls if f == np.maximum.reduce) or run(calls))
    cfg = gf.SolverConfig(max_steps=40, threshold=1e-14, sample_interval=20, stages=stages)
    _, trace = gf.relax_flow(_bump(13, 1), cfg)
    assert trace.steps == [0, 20, 40]
    assert len(reductions) == 1 + 40 // stages


@pytest.mark.parametrize("m", [1, 2])
def test_spd_inverse_leaves_the_off_diagonals_bitwise_equal_at_n2(m):
    # the elliptic sum adds the (0, 1) product again for (1, 0) on this
    # fact; at n = 3 it fails, so there both products are taken
    rng = np.random.default_rng(29 + m)

    def inverse_bits(n):
        J = 2.0 * rng.standard_normal((n, m, 3000))
        g = np.einsum("ia...,ja...->ij...", J, J)
        for k in range(n):
            g[k, k] += 1.0
        g[0, 1, :100] = g[1, 0, :100] = 0.0
        g[0, 1, 100:200] = g[1, 0, 100:200] = -0.0
        gf._run(gf._spd_inverse(g, np.empty(g.shape[2:]), np.empty(g.shape[2:])))
        return g.view(np.int64)

    bits = inverse_bits(2)
    assert np.array_equal(bits[0, 1], bits[1, 0])
    assert np.all(bits[0, 1, :200] == 0)  # a zero of either sign comes out +0.0
    bits = inverse_bits(3)
    assert any(np.any(bits[i, j] != bits[j, i]) for i in range(3) for j in range(i))
    # the one exception: an off-diagonal whose last product underflows to a
    # zero, which takes the sign of its factor on one side only
    g = np.array([[1.0, 5e-324], [5e-324, 3.0]])[..., None]
    gf._run(gf._spd_inverse(g, np.empty(1), np.empty(1)))
    assert g[0, 1] == g[1, 0] == 0.0 and np.signbit(g[1, 0]) != np.signbit(g[0, 1])


def test_gridfield_keeps_values_c_contiguous():
    # the workspace's slab views must alias the values a run moves
    f = gf.GridField(L=1.0, values=np.zeros((1, 9, 7)).T)
    assert f.values.flags.c_contiguous
    ws = gf._Workspace(f, 2)
    f.values[3, 4, 0] = 1.0
    ws.fill()
    assert ws.res[2, 3, 0] != 0.0


def test_trace_times_must_increase():
    f = gf.GridField.from_function(lambda x: [0.0], L=1.0, resolution=(9, 9), m=1)
    trace = gf.FlowTrace()
    trace.record(0, 0.0, f)
    with pytest.raises(ValueError, match="strictly increasing"):
        trace.record(1, 0.0, f)


# ---------------------------------------------------------------------------
# Gauss-image reports


def _pole_ips(f, pole):
    """<nu, pole> of the unit normals at the interior nodes."""
    pf = im.point_frame(gf.field_immersion(f, order=2), gf.interior_nodes(f, order=2))
    return im.oriented_normal(pf) @ pole


def test_report_affine_single_point_hemisphere():
    A = np.array([[0.5, -0.3]])
    f = gf.GridField.from_function(
        lambda x: A @ x, L=1.0, resolution=(9, 9), m=1,
        boundary="affine", A=A, b=np.zeros(1),
    )
    pole = np.array([-0.5, 0.3, 1.0])
    pole /= np.linalg.norm(pole)
    assert gf.gauss_image_report(f, pole) == pytest.approx(1.0, abs=1e-12)
    ips = _pole_ips(f, pole)
    assert ips.shape == (49,) and np.all(ips > sphere.REGION_TOL)


def test_report_single_variable_field_hits_equator():
    # u depending on one coordinate sends every normal into the great circle
    # orthogonal to the idle direction
    f = gf.GridField.from_function(
        lambda x: [0.8 * np.sin(1.3 * x[0])], L=1.0, resolution=(17, 17), m=1
    )
    pole = np.array([0.0, 1.0, 0.0])
    assert abs(gf.gauss_image_report(f, pole)) <= 1e-12
    assert np.all(np.abs(_pole_ips(f, pole)) <= sphere.REGION_TOL)


def test_report_slope_hypothesis_flag():
    # flow-graph's gauss_max_v is a trace row's sup_slope
    g = np.sqrt(2.9**2 - 1.0)
    f = gf.GridField.from_function(lambda x: [g * x[0]], L=1.0, resolution=(9, 9), m=1)
    trace = gf.FlowTrace()
    trace.record(0, 0.0, f)
    assert trace.sup_slope[0] == pytest.approx(2.9, rel=1e-12)


def test_report_needs_one_component():
    f = gf.GridField(L=1.0, values=np.zeros((9, 9, 2)))
    with pytest.raises(ValueError, match="m = 1, got m = 2"):
        gf.gauss_image_report(f, np.eye(4)[3])


def test_w_product_against_the_horizontal_plane_is_reciprocal_slope():
    # one batched frame call over every interior node
    f = _graph_m2_field()
    sl = gf.slope_field(f, order=4).ravel()
    P0 = gr.OrientedFrame(np.hstack([np.eye(2), np.zeros((2, 2))]))
    pf = im.point_frame(gf.field_immersion(f, order=4), gf.interior_nodes(f, order=4))
    w = gr.w_product(im.gauss_map(pf), P0)
    assert np.max(np.abs(np.abs(w) * sl - 1.0)) <= 1e-12
    assert 1.0 / np.max(sl) == pytest.approx(np.min(np.abs(w)), abs=1e-12)


# ---------------------------------------------------------------------------
# node immersion bridge


def test_field_immersion_rejects_off_node_parameters():
    f = _graph_m2_field(resolution=21)
    imm = gf.field_immersion(f, order=4)
    h = f.spacing[0]
    with pytest.raises(ChartError, match="grid node"):
        imm.jets(np.array([[0.37 * h, 0.0]]))
    with pytest.raises(ChartError, match="chart"):
        imm.jets(np.array([[-f.L + h, -f.L + h]]))


def test_field_immersion_rejects_a_batch_with_one_off_node_parameter():
    f = _graph_m2_field(resolution=21)
    imm = gf.field_immersion(f, order=4)
    nodes = gf.interior_nodes(f, order=4)
    imm.jets(nodes)
    nodes[7, 1] += 0.37 * f.spacing[1]
    with pytest.raises(ChartError, match="grid node"):
        imm.jets(nodes)


def test_field_immersion_jet_is_its_row_of_the_batch():
    f = _graph_m2_field(resolution=21)
    imm = gf.field_immersion(f, order=4)
    nodes = gf.interior_nodes(f, order=4)
    batch = imm.jets(nodes)
    for i, node in enumerate(nodes):
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(imm.jets(node[None]), batch))


def test_field_immersion_jets_exact_on_cubics():
    def u(x):
        return [x[0] ** 3 - 0.5 * x[0] * x[1] ** 2 + x[1]]

    f = gf.GridField.from_function(u, L=1.0, resolution=(21, 21), m=1)
    imm = gf.field_immersion(f, order=4)
    p = f.coords()[8, 12]
    _, dX, ddX = (a[0] for a in imm.jets(p[None]))
    assert dX[0, 2] == pytest.approx(3 * p[0] ** 2 - 0.5 * p[1] ** 2, abs=1e-12)
    assert dX[1, 2] == pytest.approx(-p[0] * p[1] + 1.0, abs=1e-12)
    assert ddX[0, 0, 2] == pytest.approx(6 * p[0], abs=1e-11)
    assert ddX[0, 1, 2] == pytest.approx(-p[1], abs=1e-11)
    assert ddX[1, 1, 2] == pytest.approx(-p[0], abs=1e-11)


# ---------------------------------------------------------------------------
# files, plots, validation


def test_field_csv_round_trip():
    A = np.array([[0.5, -0.3]])
    f = gf.GridField.from_function(
        lambda x: A @ x, L=1.0, resolution=(9, 9), m=1,
        boundary="affine", A=A, b=np.zeros(1),
    )
    back = gf.field_from_csv(gf.field_to_csv(f))
    assert np.array_equal(back.values, f.values)
    assert back.boundary == "affine"
    assert np.array_equal(back.A, f.A) and np.array_equal(back.b, f.b)
    assert back.L == f.L and back.shape == f.shape

    frozen = gf.GridField.from_function(
        lambda x: [np.sin(x[0]) + 0.3 * x[1]], L=2.5, resolution=(7, 11), m=1
    )
    back2 = gf.field_from_csv(gf.field_to_csv(frozen))
    assert np.array_equal(back2.values, frozen.values)
    assert back2.boundary == "frozen"

    with pytest.raises(ValueError, match="header"):
        gf.field_from_csv("bogus\n1,2,3")


def _per_node_field_csv(field):
    """field_to_csv as it wrote the node rows one node at a time: the
    byte-for-byte reference of its one-pass writer."""
    lines = ["n,m,L,res,boundary",
             f"{field.n},{field.m},{field.L:.17g},{'x'.join(map(str, field.shape))},"
             f"{field.boundary}"]
    if field.boundary == "affine":
        lines.append(",".join(f"{v:.17g}" for v in list(field.A.ravel()) + list(field.b)))
    lines.append(gf._csv_columns(field.n, field.m))
    coords = field.coords()
    for idx in np.ndindex(*field.shape):
        lines.append(",".join(list(map(str, idx)) + [f"{c:.17g}" for c in coords[idx]]
                              + [f"{v:.17g}" for v in field.values[idx]]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_field_csv_matches_the_per_node_writer_byte_for_byte(n, m):
    shape = (7, 5, 6)[:n]
    rng = np.random.default_rng(10 * n + m)
    values = rng.standard_normal(shape + (m,)) * 10.0 ** rng.integers(-300, 300, shape + (m,))
    values.reshape(-1)[:5] = [-0.0, 5e-324, 1e300, 0.1, 3.0]
    frozen = gf.GridField(L=1.3, values=values)
    A = rng.standard_normal((m, n))
    affine = gf.GridField(L=0.7, values=gf._coords(0.7, shape) @ A.T, boundary="affine", A=A)
    for field in (frozen, affine):
        text = gf.field_to_csv(field)
        assert text == _per_node_field_csv(field)
        assert gf.field_from_csv(text).values.tobytes() == field.values.tobytes()



def _csv_lines():
    f = gf.GridField.from_function(
        lambda x: [np.sin(x[0]) + 0.3 * x[1]], L=2.5, resolution=(5, 6), m=1
    )
    return gf.field_to_csv(f).strip().split("\n")


def _from_lines(lines):
    return gf.field_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("A, b", [
    (np.zeros((1, 2)), np.zeros(3)),
    (np.zeros((2, 2)), np.zeros(1)),
    (np.zeros(2), np.zeros(1)),
    (np.zeros((1, 2)), np.zeros(())),
])
def test_gridfield_rejects_affine_data_of_the_wrong_shape(A, b):
    # with m = 1 a zero field matches any zero data once it broadcasts
    with pytest.raises(ValueError, match=r"affine data must be A \(1, 2\) and b \(1,\)"):
        gf.GridField(L=1.0, values=np.zeros((7, 7, 1)), boundary="affine", A=A, b=b)


def test_field_csv_rejects_affine_line_of_the_wrong_length():
    f = gf.GridField(L=1.0, values=np.zeros((7, 7, 1)), boundary="affine")
    lines = gf.field_to_csv(f).strip().split("\n")
    assert lines[2] == "0,0,0"
    for line in ("0,0,0,0", "0,0"):
        with pytest.raises(ValueError, match="affine line 3 holds .* values, A and b need 3"):
            _from_lines(lines[:2] + [line] + lines[3:])


def test_field_csv_rejects_a_file_cut_before_its_data():
    lines = _csv_lines()
    with pytest.raises(ValueError, match="ends before line 2"):
        _from_lines(lines[:1])
    affine = gf.GridField(L=1.0, values=np.zeros((7, 7, 1)), boundary="affine")
    lines = gf.field_to_csv(affine).strip().split("\n")
    with pytest.raises(ValueError, match="ends before line 3"):
        _from_lines(lines[:2])


def test_field_csv_rejects_a_column_header_other_than_its_own():
    lines = _csv_lines()
    assert lines[2] == "i0,i1,x0,x1,u0"
    for header in ("anything at all", "i0,i1,x0,x1,u0,u1", "i0,x0,i1,x1,u0"):
        with pytest.raises(ValueError, match="line 3 is not the column header i0,i1,x0,x1,u0"):
            _from_lines(lines[:2] + [header] + lines[3:])
    affine = gf.GridField(L=1.0, values=np.zeros((7, 7, 1)), boundary="affine")
    lines = gf.field_to_csv(affine).strip().split("\n")
    assert lines[3] == "i0,i1,x0,x1,u0"
    with pytest.raises(ValueError, match="line 4 is not the column header"):
        _from_lines(lines[:3] + ["anything at all"] + lines[4:])


def test_field_with_no_components_is_rejected():
    with pytest.raises(ValueError, match="m >= 1"):
        gf.GridField(L=1.0, values=np.zeros((9, 9, 0)))
    # the text form of such a field fails to read back
    text = "n,m,L,res,boundary\n1,0,1,5,frozen\ni0,x0\n" + "".join(
        f"{i},{x:.17g}\n" for i, x in enumerate(np.linspace(-1.0, 1.0, 5)))
    with pytest.raises(ValueError, match="m >= 1"):
        gf.field_from_csv(text)


def test_field_csv_rejects_wrong_row_count():
    lines = _csv_lines()
    with pytest.raises(ValueError, match="node rows"):
        _from_lines(lines[:-1])
    with pytest.raises(ValueError, match="node rows"):
        _from_lines(lines + [lines[-1]])


def test_field_csv_rejects_axis_count_other_than_n():
    lines = _csv_lines()
    meta = lines[1].split(",")
    meta[3] = "30"  # 30 node rows, as many as the 5x6 grid
    with pytest.raises(ValueError, match="1 axes, n = 2"):
        _from_lines(lines[:1] + [",".join(meta)] + lines[2:])


def test_field_csv_rejects_coordinates_off_the_grid():
    lines = _csv_lines()
    toks = lines[-1].split(",")
    assert toks[2:4] == ["2.5", "2.5"]
    row = ",".join(toks[:2] + ["9", "9"] + toks[4:])
    with pytest.raises(ValueError, match=r"node \(4, 5\) has x = \(9.0, 9.0\)"):
        _from_lines(lines[:-1] + [row])


def test_field_csv_rejects_duplicate_index():
    lines = _csv_lines()
    with pytest.raises(ValueError, match="duplicate"):
        _from_lines(lines[:-1] + [lines[-2]])


def test_field_csv_rejects_out_of_range_index():
    lines = _csv_lines()
    for bad in ("5,0", "-1,0"):
        toks = lines[-1].split(",")
        row = ",".join(bad.split(",") + toks[2:])
        with pytest.raises(ValueError, match="outside"):
            _from_lines(lines[:-1] + [row])


def test_field_csv_rejects_short_row():
    lines = _csv_lines()
    with pytest.raises(ValueError, match="columns"):
        _from_lines(lines[:-1] + [lines[-1].rsplit(",", 1)[0]])


def test_field_csv_rejects_non_finite_value():
    lines = _csv_lines()
    for token in ("nan", "inf"):
        row = lines[-1].rsplit(",", 1)[0] + "," + token
        with pytest.raises(ValueError, match="non-finite"):
            _from_lines(lines[:-1] + [row])
        meta = lines[1].split(",")
        meta[2] = token
        with pytest.raises(ValueError, match="non-finite"):
            _from_lines(lines[:1] + [",".join(meta)] + lines[2:])


def test_relax_rejects_non_finite_field():
    values = np.zeros((9, 9, 1))
    values[4, 4, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gf.relax_flow(gf.GridField(L=1.0, values=values))

def test_trace_csv_and_svg():
    f = gf.GridField.from_function(
        lambda x: [0.2 * _poly_window(x)], L=1.0, resolution=(17, 17), m=1,
        boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1),
    )
    _, trace = gf.relax_flow(f, gf.SolverConfig(max_steps=4000, sample_interval=500))
    text = gf.trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "step,time,sup_slope,sup_residual,sup_B2,min_w"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == 0.0

    svg = gf.trace_svg(trace)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<polyline") == 2


def test_gridfield_rejects_non_finite_data():
    inner = np.zeros((9, 9, 1))
    inner[4, 4, 0] = np.nan
    rim = np.zeros((9, 9, 1))
    rim[0, 3, 0] = np.nan
    bad = [
        dict(L=1.0, values=inner),
        dict(L=1.0, values=rim, boundary="affine", A=np.zeros((1, 2)), b=np.zeros(1)),
        dict(L=np.nan, values=np.zeros((9, 9, 1))),
        dict(L=1.0, values=np.zeros((9, 9, 1)), boundary="affine",
             A=np.array([[np.inf, 0.0]]), b=np.zeros(1)),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError, match="non-finite"):
            gf.GridField(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(threshold=float("nan")), dict(threshold=float("inf")), dict(dt=float("nan")),
    dict(dt=float("inf")), dict(dt=0.0), dict(threshold=-1.0), dict(max_steps=0),
    dict(stages=0), dict(stages=1.5), dict(stages=True),
    # 10.5 fills raised TypeError inside relax_flow, True ran one step and
    # an interval of 2.5 sampled at steps 3, 5, 8, ...
    dict(max_steps=10.5), dict(max_steps=True), dict(sample_interval=2.5),
    dict(sample_interval=True), dict(sample_interval=0),
])
def test_solver_config_rejects_non_finite_and_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        gf.SolverConfig(**kwargs)


def test_gridfield_validation():
    with pytest.raises(ValueError, match="at least 5"):
        gf.GridField(L=1.0, values=np.zeros((4, 9, 1)))
    with pytest.raises(ValueError, match="affine"):
        gf.GridField(
            L=1.0, values=np.ones((9, 9, 1)), boundary="affine",
            A=np.zeros((1, 2)), b=np.zeros(1),
        )
    with pytest.raises(ValueError, match="boundary"):
        gf.GridField(L=1.0, values=np.zeros((9, 9, 1)), boundary="periodic")
    with pytest.raises(ValueError, match="positive"):
        gf.SolverConfig(dt=-1.0)
    with pytest.raises(ValueError, match="positive"):
        gf.SolverConfig(threshold=0.0)
    with pytest.raises(TypeError):  # the relaxation has one stencil order
        gf.SolverConfig(order=4)
    with pytest.raises(TypeError):  # and one blow-up bound, gf.BLOWUP
        gf.SolverConfig(blowup=1e3)
    with pytest.raises(ValueError, match="order"):
        gf.system_residual(
            gf.GridField(L=1.0, values=np.zeros((9, 9, 1))), order=3
        )
