import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from shrinkerlab import grassmann
from shrinkerlab import immersion as im
from shrinkerlab import sphere
from shrinkerlab.grassmann import OrientedFrame, w_product


def _graph_jets_m1(x):
    x0, x1 = x[..., 0], x[..., 1]
    u = 0.3 * np.sin(x0) * np.cos(x1) + 0.1 * x0 * x1
    du = np.stack(
        [
            0.3 * np.cos(x0) * np.cos(x1) + 0.1 * x1,
            -0.3 * np.sin(x0) * np.sin(x1) + 0.1 * x0,
        ],
        axis=-1,
    )
    ddu = np.stack(
        [
            -0.3 * np.sin(x0) * np.cos(x1),
            -0.3 * np.cos(x0) * np.sin(x1) + 0.1,
            -0.3 * np.cos(x0) * np.sin(x1) + 0.1,
            -0.3 * np.sin(x0) * np.cos(x1),
        ],
        axis=-1,
    ).reshape(x.shape[:-1] + (2, 2))
    return u[..., None], du[..., None], ddu[..., None]


def _graph_m1():
    return im.graph_immersion(None, 2, 1, [(-2, 2), (-2, 2)], jets=_graph_jets_m1)


def _graph_jets_m2(x):
    x0, x1 = x[..., 0], x[..., 1]
    u1 = 0.25 * x0 ** 2 - 0.15 * x0 * x1
    u2 = 0.2 * np.sin(x1) + 0.1 * x0
    du = np.zeros(x.shape[:-1] + (2, 2))
    du[..., 0, 0] = 0.5 * x0 - 0.15 * x1
    du[..., 0, 1] = 0.1
    du[..., 1, 0] = -0.15 * x0
    du[..., 1, 1] = 0.2 * np.cos(x1)
    ddu = np.zeros(x.shape[:-1] + (2, 2, 2))
    ddu[..., 0, 0, :] = [0.5, 0.0]
    ddu[..., 0, 1, :] = [-0.15, 0.0]
    ddu[..., 1, 0, :] = [-0.15, 0.0]
    ddu[..., 1, 1, 1] = -0.2 * np.sin(x1)
    return np.stack([u1, u2], axis=-1), du, ddu


def _graph_m2():
    return im.graph_immersion(None, 2, 2, [(-2, 2), (-2, 2)], jets=_graph_jets_m2)


def _interior_probe(rng, imm, margin=0.12):
    lo = imm.chart[:, 0] + margin * (imm.chart[:, 1] - imm.chart[:, 0])
    hi = imm.chart[:, 1] - margin * (imm.chart[:, 1] - imm.chart[:, 0])
    return rng.uniform(lo, hi)


def _with_nan(a, index):
    a = np.array(a, dtype=float)
    a[index] = math.nan
    return a


@pytest.mark.parametrize("fields, message", [
    (lambda pf: dict(position=_with_nan(pf.position, 0), rho=math.nan), "weight"),
    (lambda pf: dict(mean=_with_nan(pf.mean, 0)), "mean curvature"),
    (lambda pf: dict(h=_with_nan(pf.h, (0, 0, 0))), "symmetric"),
    (lambda pf: dict(tangent=_with_nan(pf.tangent, (0, 0))), "not orthonormal"),
])
def test_point_frame_checks_fail_on_nan(fields, message):
    pf = im.point_frame(im.catalog_immersion("sphere:n=2,R=2"), np.array([1.2, 0.4]))
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(pf, **fields(pf))


@pytest.fixture(scope="module")
def shrinker_sphere_mesh():
    return im.sphere_mesh(R=2.0, shape=(64, 128))


def test_plane_frame_is_flat():
    imm = im.catalog_immersion("plane:n=2,m=2")
    pf = im.point_frame(imm, np.array([0.3, -0.8]))
    assert np.max(np.abs(pf.h)) == 0.0
    assert np.max(np.abs(pf.mean)) == 0.0
    assert np.max(np.abs(im.shrinker_residual(pf))) == 0.0
    frame = np.vstack([pf.tangent, pf.normal])
    assert np.max(np.abs(frame @ frame.T - np.eye(4))) <= 1e-12


def test_sphere_frame_is_umbilic():
    imm = im.catalog_immersion("sphere:n=2,R=2")
    pf = im.point_frame(imm, np.array([1.1, 0.7]))
    assert abs(np.linalg.norm(pf.position) - 2.0) <= 1e-12
    # sign of the completed normal is not fixed; the curvature flips with it
    s = math.copysign(1.0, float(pf.normal[0] @ pf.position))
    assert np.max(np.abs(pf.h[0] + s * 0.5 * np.eye(2))) <= 1e-10
    assert abs(abs(pf.mean[0]) - 1.0) <= 1e-10
    assert abs(pf.second_form_sq - 0.5) <= 1e-10

    unit = im.catalog_immersion("sphere:n=2,R=1")
    pfu = im.point_frame(unit, np.array([0.9, -0.4]))
    assert abs(abs(pfu.mean[0]) - 2.0) <= 1e-10


def test_parabola_vertex_curvature():
    def jets(x):
        return 0.5 * x ** 2, x[..., None], np.ones(x.shape + (1, 1))

    imm = im.graph_immersion(None, 1, 1, [(-1, 1)], jets=jets)
    pf = im.point_frame(imm, np.array([0.0]))
    s = math.copysign(1.0, float(pf.normal[0, 1]))
    assert abs(s * pf.h[0, 0, 0] - 1.0) <= 1e-12

    # same surface through the difference-quotient path
    fd = im.graph_immersion(lambda x: 0.5 * x ** 2, 1, 1, [(-1, 1)])
    pfd = im.point_frame(fd, np.array([0.0]))
    sd = math.copysign(1.0, float(pfd.normal[0, 1]))
    assert abs(sd * pfd.h[0, 0, 0] - 1.0) <= 1e-8


def test_degenerate_metric_raises():
    imm = im.ParametricImmersion(
        1,
        1,
        [(-1, 1)],
        lambda p: (
            np.concatenate([p ** 3, 0.0 * p], axis=-1),
            np.concatenate([3 * p ** 2, 0.0 * p], axis=-1)[:, None],
            np.concatenate([6 * p, 0.0 * p], axis=-1)[:, None, None],
        ),
    )
    with pytest.raises(ValueError, match="condition estimate"):
        im.point_frame(imm, np.array([0.0]))


def _pinched_jet(q):
    # X(u, v) = (u^3, v, u v): dX has rank one at the origin and only there
    u, v = q[..., 0], q[..., 1]
    dX = np.zeros(q.shape[:-1] + (2, 3))
    dX[..., 0, 0], dX[..., 0, 2] = 3.0 * u * u, v
    dX[..., 1, 1], dX[..., 1, 2] = 1.0, u
    ddX = np.zeros(q.shape[:-1] + (2, 2, 3))
    ddX[..., 0, 0, 0] = 6.0 * u
    ddX[..., 0, 1, 2] = ddX[..., 1, 0, 2] = 1.0
    return np.stack([u**3, v, u * v], axis=-1), dX, ddX


def _pinched():
    return im.ParametricImmersion(2, 1, [(-1.5, 1.5), (-1.5, 1.5)], _pinched_jet)


def test_degenerate_metric_at_one_chart_point():
    imm = _pinched()
    with pytest.raises(ValueError, match="degenerate induced metric"):
        im.point_frame(imm, np.zeros(2))
    im.point_frame(imm, np.array([0.0, 0.5]))  # regular off the origin
    # the 3 x 3 midpoint mesh has its centre node on the origin; a mesh is
    # its grid, so the first read of its nodes raises, by itself or in a check
    mesh = im.patch_mesh(imm, (3, 3), closed=True)
    for read in (lambda: _mesh_arrays(mesh),
                 lambda: im.stability_identity_check(mesh, np.eye(3)[2])):
        with pytest.raises(
            ValueError, match=r"degenerate induced metric at parameter \[0\. 0\.\]"
        ):
            read()
    regular = im.patch_mesh(imm, (2, 2))
    assert regular.node_count == 4
    assert _mesh_arrays(regular)[2].rho.shape == (4,)


def test_batched_jets_check_the_chart_and_shape():
    imm = im.catalog_immersion("plane:n=2,m=1")
    params = np.array([[0.0, 0.0], [1.0, 3.5], [4.0, 0.0]])
    with pytest.raises(im.ChartError, match=r"parameter \[1\.  3\.5\] outside"):
        imm.jets(params)
    with pytest.raises(ValueError, match="dimension mismatch"):
        imm.jets(np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        imm.jets(np.zeros((4, 3)))


def test_jets_of_the_wrong_codimension_fail():
    # the plane's jets live in R^3; a codimension-2 wrapper expects R^4
    plane = im.catalog_immersion("plane:n=2,m=1")
    imm = im.ParametricImmersion(2, 2, plane.chart, plane._jet)
    want = re.escape("jets of (1, 2) parameters must have shapes ((1, 4), (1, 2, 4), "
                     "(1, 2, 2, 4)), got ((1, 3), (1, 2, 3), (1, 2, 2, 3))")
    with pytest.raises(ValueError, match=want):
        im.point_frame(imm, np.array([0.3, -0.8]))


def test_one_point_jets_fail_with_the_batch_contract():
    # _pinched's jet as written for one point (u, v)
    def jet(q):
        u, v = q
        ddX = np.zeros((2, 2, 3))
        ddX[0, 0, 0] = 6.0 * u
        ddX[0, 1, 2] = ddX[1, 0, 2] = 1.0
        return (
            np.array([u**3, v, u * v]),
            np.array([[3.0 * u * u, 0.0, v], [0.0, 1.0, u]]),
            ddX,
        )

    imm = im.ParametricImmersion(2, 1, [(-1.5, 1.5), (-1.5, 1.5)], jet)
    for B in (1, 2, 3):
        with pytest.raises(ValueError, match=rf"jets of \({B}, 2\) parameters must have "
                                             r"shapes .*; the evaluator failed"):
            im.point_frame(imm, np.zeros((B, 2)))
    # an evaluator that answers for its first point only
    first = im.ParametricImmersion(2, 1, imm.chart, lambda q: _pinched_jet(q[0]))
    with pytest.raises(ValueError, match=re.escape("got ((3,), (2, 3), (2, 2, 3))")):
        first.jets(np.zeros((2, 2)))


def test_from_positions_calls_the_map_once_per_batch():
    calls = []

    def position(x):
        calls.append(x.shape)
        return np.stack([x[..., 0], x[..., 1], 0.3 * x[..., 0] * x[..., 1] ** 2], axis=-1)

    imm = im.ParametricImmersion.from_positions(position, 2, 1, [(-1, 1)] * 2)
    params = np.random.default_rng(2).uniform(-0.5, 0.5, (7, 2))
    batch = imm.jets(params)
    # one call on the (25, 7, 2) second-order stencil of the batch
    assert calls == [(25, 7, 2)]
    assert [a.shape for a in batch] == [(7, 3), (7, 2, 3), (7, 2, 2, 3)]
    for i, p in enumerate(params):
        for b, row in zip(batch, imm.jets(p[None])):
            assert np.array_equal(b[i], row[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_sphere_jets_batch_equals_rows(n):
    t = np.random.default_rng(n).uniform(-3.0, 3.0, (9, n))
    batch = im._unit_sphere_jets(t)
    for i in range(len(t)):
        for b, row in zip(batch, im._unit_sphere_jets(t[i])):
            assert np.array_equal(b[i], row)
    # the closed form against differences of the position
    x, dx, ddx = im._unit_sphere_jets(t[0])
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
    _, fd1, fd2 = im._fd_jets(lambda q: im._unit_sphere_jets(q)[0], t[0], [1e-3] * n)
    assert np.max(np.abs(fd1 - dx)) <= 1e-11
    assert np.max(np.abs(fd2 - ddx)) <= 1e-8


_FRAME_FIELDS = ("position", "tangent", "normal", "h", "mean", "rho", "S")


def _block_arrays(blocks):
    # params, weights and frame fields of every node, concatenated from the
    # (slice, params, weights, frames) blocks of a mesh read
    return (np.concatenate([p for _, p, _, _ in blocks]),
            np.concatenate([w for _, _, w, _ in blocks]),
            {k: np.concatenate([getattr(f, k) for *_, f in blocks]) for k in _FRAME_FIELDS})


def _mesh_arrays(mesh):
    # one read of every node: params, weights and one PointFrame record
    params, weights, fields = _block_arrays(list(mesh._node_blocks()))
    return params, weights, im.PointFrame(**fields)


_MESH_CASES = (
    ("sphere:n=2,R=2", (6, 8)),
    ("sphere:n=3,R=2", (3, 4, 5)),
    ("sphere:n=2,R=1,c1=0.5", (5, 7)),
    ("cylinder:k=1,n=2", (8, 5)),
    ("plane:n=2,m=2", (4, 3)),
    ("graph", (5, 4)),  # user jets: one call over the nodes
    ("graph-fd", (3, 3)),  # position-only map: difference jets over the nodes
)


@pytest.mark.parametrize("name,shape", _MESH_CASES)
def test_mesh_arrays_match_point_frames(name, shape):
    if name == "graph":
        imm = _graph_m2()
    elif name == "graph-fd":
        imm = im.graph_immersion(lambda x: 0.3 * x[..., :1] * x[..., 1:] ** 2, 2, 1,
                                 [(-1, 1)] * 2)
    else:
        imm = im.catalog_immersion(name)
    mesh = im.patch_mesh(imm, shape)
    cell = math.prod((hi - lo) / c for (lo, hi), c in zip(imm.chart, shape))
    params, weights, frames = _mesh_arrays(mesh)
    batch = imm.jets(params)
    # batched jets, kernel and checks give the bits of the one-point path
    for i, p in enumerate(params):
        jets = [a[0] for a in imm.jets(p[None])]
        for b, row in zip(batch, jets):
            assert np.array_equal(b[i], row)
        L, f = im._frame_kernel(*jets, p)
        assert np.array_equal(frames.S[i], f["S"])
        assert weights[i] == cell * np.prod(np.diagonal(L))
        pf = im.point_frame(imm, p)
        got = (frames.position[i], frames.tangent[i], frames.normal[i], frames.h[i],
               frames.mean[i], frames.rho[i])
        want = (pf.position, pf.tangent, pf.normal, pf.h, pf.mean, pf.rho)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        row = frames[i]
        for field in _FRAME_FIELDS:
            assert np.array_equal(getattr(row, field), getattr(pf, field))
    assert frames.rho.shape == (mesh.node_count,)


def _one_call_mesh(imm, shape):
    # the unblocked reference: params, weights and frame fields of every node
    # from one jets call and one frame-kernel call
    steps = [(hi - lo) / c for (lo, hi), c in zip(imm.chart, shape)]
    axes = [lo + st * (np.arange(c) + 0.5) for (lo, _), st, c in zip(imm.chart, steps, shape)]
    params = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    L, f = im._frame_kernel(*imm.jets(params), params)
    weights = math.prod(steps) * np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)
    return params, weights, f


def _position_graph():
    return im.ParametricImmersion.from_positions(
        lambda x: np.stack([x[..., 0], x[..., 1], 0.3 * x[..., 0] * x[..., 1] ** 2], axis=-1),
        2, 1, [(-1, 1)] * 2)


_BLOCKED_IMMERSIONS = {
    "sphere": lambda: im.catalog_immersion("sphere:n=2,R=2"),
    "cylinder": lambda: im.catalog_immersion("cylinder:k=1,n=2"),
    "plane-m2": lambda: im.catalog_immersion("plane:n=2,m=2"),
    "graph-jets": _graph_m2,
    "from-positions": _position_graph,
}


# with blocks of 16 nodes: fewer nodes, as many, one more, and several blocks
# with a tail of 1 and of 7
@pytest.mark.parametrize("shape", [(3, 4), (4, 4), (17, 1), (7, 7), (5, 11)])
@pytest.mark.parametrize("name", sorted(_BLOCKED_IMMERSIONS))
def test_mesh_blocks_keep_every_bit(name, shape, monkeypatch):
    monkeypatch.setattr(im, "_NODE_BLOCK", 16)
    imm = _BLOCKED_IMMERSIONS[name]()
    evaluator, calls, checked = imm._jet, [], []
    monkeypatch.setattr(imm, "_jet", lambda p: calls.append(len(p)) or evaluator(p))
    orthonormal = grassmann._orthonormal
    monkeypatch.setattr(grassmann, "_orthonormal",
                        lambda rows: checked.append(len(rows)) or orthonormal(rows))
    mesh = im.patch_mesh(imm, shape)
    assert calls == checked == []  # the grid only
    count = math.prod(shape)
    got = _block_arrays(list(mesh._node_blocks()))
    # a read: one evaluator call per block of nodes, and one check per frame
    assert calls == [min(16, count - lo) for lo in range(0, count, 16)]
    assert checked == calls
    # nothing is kept: a second read makes the same calls again
    first = list(calls)
    list(mesh._node_blocks())
    assert calls == checked == first + first
    params, weights, f = _one_call_mesh(imm, shape)
    assert np.array_equal(got[0], params)
    assert np.array_equal(got[1], weights)
    for field in _FRAME_FIELDS:
        assert got[2][field].shape == f[field].shape and np.array_equal(got[2][field], f[field])


def test_mesh_blocks_at_the_module_block_size_keep_every_bit():
    imm = im.catalog_immersion("sphere:n=2,R=2")
    shape = (im._NODE_BLOCK + 1, 1)
    mesh = im.patch_mesh(imm, shape)
    params, weights, f = _one_call_mesh(imm, shape)
    got = _mesh_arrays(mesh)
    assert np.array_equal(got[0], params)
    assert np.array_equal(got[1], weights)
    for field in _FRAME_FIELDS:
        assert np.array_equal(getattr(got[2], field), f[field])


@pytest.mark.parametrize("shape", [(3, 4), (7, 7), (16, 32)])
def test_blocked_stability_check_equals_one_pass(shape, monkeypatch):
    a = np.array([0.2, 0.5, 0.84])
    a /= np.linalg.norm(a)
    mesh = im.sphere_mesh(R=2.0, shape=shape)
    # the check's arithmetic over every node at once
    _, weights, f = _one_call_mesh(mesh.immersion, shape)
    s, y = im._signed_normal(f["tangent"], f["normal"])
    vals = sphere.height_value(y, a)
    images = im._normal_images(f["tangent"], s, f["h"][:, 0])
    grads = (sphere.height_differential(y[:, None], a, images)[:, None, :] @ f["tangent"])[:, 0]
    b2 = np.sum(f["h"] * f["h"], axis=(-3, -2, -1))
    lhs = float(np.sum(vals * (1.0 - vals) * b2 * f["rho"] * weights))
    rhs = -float(np.sum(np.sum(grads * grads, axis=1) * f["rho"] * weights))
    # the check builds the frames of each block and checks them once, and
    # keeps every bit at each block size, a tail of one node (7 at 7 x 7)
    # included
    orthonormal, checked = grassmann._orthonormal, []
    monkeypatch.setattr(grassmann, "_orthonormal",
                        lambda rows: checked.append(len(rows)) or orthonormal(rows))
    count = math.prod(shape)
    for block in (1 << 10, 16, 7):
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
        checked.clear()
        assert im.stability_identity_check(mesh, a) == (lhs, rhs, lhs - rhs)
        assert checked == [min(block, count - lo) for lo in range(0, count, block)]


@pytest.mark.parametrize("fields, message", [
    (lambda f: dict(position=_with_nan(f.position, -1), rho=_with_nan(f.rho, -1)), "weight"),
    (lambda f: dict(mean=_with_nan(f.mean, -1)), "mean curvature"),
    (lambda f: dict(h=_with_nan(f.h, (-1, 0, 0, 0))), "symmetric"),
    (lambda f: dict(tangent=_with_nan(f.tangent, (-1, 0))), "not orthonormal"),
])
def test_frame_check_fails_on_nan_in_the_last_block(fields, message, monkeypatch):
    monkeypatch.setattr(im, "_NODE_BLOCK", 16)
    mesh = im.sphere_mesh(R=2.0, shape=(7, 7))  # 4 blocks, the last of one node
    with pytest.raises(ValueError, match=message):
        frames = _mesh_arrays(mesh)[2]
        dataclasses.replace(frames, **fields(frames))


@pytest.mark.parametrize("kind", ["chart", "rank"])
def test_a_later_block_fails_as_one_batch_does(kind, monkeypatch):
    plane = im.catalog_immersion("plane:n=2,m=1")

    def jet(q):
        # the last row of a (9, 5) mesh, nodes 40 to 44: the third block of 16
        late = q[:, 0] > 2.2
        if kind == "chart" and late.any():
            raise im.ChartError(f"stencil of parameter {q[np.argmax(late)]} leaves the chart")
        x, dX, ddX = plane._jet(q)
        dX[late, 1] = dX[late, 0]  # rank one
        return x, dX, ddX

    imm = im.ParametricImmersion(2, 1, plane.chart, jet)
    messages = []
    for block in (45, 16):
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
        # the mesh is its grid: its first read raises, by itself or in a check
        mesh = im.patch_mesh(imm, (9, 5), closed=True)
        for read in (lambda: _mesh_arrays(mesh),
                     lambda: im.stability_identity_check(mesh, np.eye(3)[2])):
            with pytest.raises(ValueError) as info:
                read()
            assert isinstance(info.value, im.ChartError) == (kind == "chart")
            messages.append(str(info.value))
    assert messages[0] == messages[-1] and len(set(messages)) == 1
    assert "parameter [ 2.66666667 -2.4       ]" in messages[-1]


def test_mesh_build_and_check_peak_allocation_stays_bounded():
    # a mesh holds its grid only, and the check holds one block's
    # temporaries (about 1.0 MB) and its two per-node integrands: 1.50 MB at
    # 128 x 256 and 3.02 MB at 256 x 512.  A mesh that stored its frames
    # took 7.06 MB to build and 7.14 MB to check at 128 x 256, and 25.8 MB
    # and 28.2 MB at 256 x 512
    a = np.array([0.2, 0.5, 0.84])
    a /= np.linalg.norm(a)
    for shape in ((128, 256), (256, 512)):
        tracemalloc.start()
        try:
            mesh = im.sphere_mesh(R=2.0, shape=shape)
            build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            im.stability_identity_check(mesh, a)
            check = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build <= 64 * 2**10
        assert check <= 1.25 * 2**20 + 16 * mesh.node_count


def test_patch_mesh_needs_positive_resolutions():
    plane = im.catalog_immersion("plane:n=2,m=1")
    for shape in ((0, 3), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="one positive resolution per parameter"):
            im.patch_mesh(plane, shape)


def test_mesh_quadrature_reads_arrays_only():
    mesh = im.sphere_mesh(R=2.0, shape=(8, 16))
    a = np.array([0.0, 0.6, 0.8])
    rep = im.stability_identity_check(mesh, a)
    params, weights, frames = _mesh_arrays(mesh)
    gauss = im.gaussian_weight(frames)
    unit = im.unit_weight(frames)
    assert np.array_equal(unit.values, np.ones(mesh.node_count))
    assert np.array_equal(unit.grad_log, np.zeros((mesh.node_count, 3)))
    # per-node loops over one-point frames as the reference
    pfs = [im.point_frame(mesh.immersion, p) for p in params]
    f, grad_sq = np.empty(mesh.node_count), np.empty(mesh.node_count)
    for i, pf in enumerate(pfs):
        s, y = im._signed_normal(pf.tangent, pf.normal)
        f[i] = 1.0 - float(s * pf.normal[0] @ a)
        assert np.array_equal(y, s * pf.normal[0])
        coeffs = sphere.height_differential(y, a, im._normal_images(pf.tangent, s, pf.h[0]))
        grad = coeffs @ pf.tangent
        # the closed form s h0 (tangent a) as it was written inline
        inline = s * (pf.h[0] @ (pf.tangent @ a)) @ pf.tangent
        assert np.max(np.abs(grad - inline)) <= 1e-15 * np.max(np.abs(inline))
        grad_sq[i] = np.sum(grad * grad)
        xt = (pf.tangent @ pf.position) @ pf.tangent
        assert np.array_equal(gauss.grad_log[i], -0.5 * xt)
        assert gauss.values[i] == pf.rho
    b2 = np.array([pf.second_form_sq for pf in pfs])
    lhs = float(np.sum(f * (1.0 - f) * b2 * gauss.values * weights))
    assert rep.lhs == lhs
    assert rep.rhs == -float(np.sum(grad_sq * gauss.values * weights))



# quartic monomials (a, b) -> coefficient of x^a y^b, one dict per output
_QUARTICS = (
    {(0, 0): 1.0, (1, 0): 2.0, (0, 1): -1.0, (2, 0): 0.5, (1, 1): 0.3,
     (0, 2): -0.7, (3, 0): 0.2, (2, 1): -0.1, (1, 3): 0.4, (4, 0): 0.25,
     (2, 2): -0.15, (0, 4): 0.05},
    {(0, 2): 0.5, (1, 3): 1.0, (4, 0): -2.0, (3, 1): 0.6, (1, 0): -0.3},
)


def _poly_jets(coeffs, x):
    def power_derivative(a, k, t):  # k-th derivative of t^a
        return math.perm(a, k) * t ** (a - k) if k <= a else 0.0

    def deriv(ka, kb):
        return sum(
            c * power_derivative(a, ka, x[..., 0]) * power_derivative(b, kb, x[..., 1])
            for (a, b), c in coeffs.items()
        )

    grad = np.stack([deriv(1, 0), deriv(0, 1)], axis=-1)
    hess = np.stack([np.stack([deriv(2, 0), deriv(1, 1)], axis=-1),
                     np.stack([deriv(1, 1), deriv(0, 2)], axis=-1)], axis=-2)
    return deriv(0, 0), grad, hess


def test_fd_jets_exact_on_quartics():
    # the 4th-order stencils, the mixed-partial product among them, are exact
    # on quartics; steps are coarse so that rounding stays far below the tol
    x = np.array([0.7, -0.4])
    steps = np.array([0.1, 0.05])

    def scalar(q):
        return _poly_jets(_QUARTICS[0], q)[0]

    val, grad, hess = im._fd_jets(scalar, x, steps)
    exact = _poly_jets(_QUARTICS[0], x)
    assert np.shape(val) == () and grad.shape == (2,) and hess.shape == (2, 2)
    assert float(val) == exact[0]
    assert np.max(np.abs(grad - exact[1])) <= 1e-11
    assert np.max(np.abs(hess - exact[2])) <= 1e-9

    def vector(q):
        return np.stack([_poly_jets(c, q)[0] for c in _QUARTICS], axis=-1)

    val, jac, jets2 = im._fd_jets(vector, x, steps)
    assert val.shape == (2,) and jac.shape == (2, 2) and jets2.shape == (2, 2, 2)
    for a, c in enumerate(_QUARTICS):
        exact = _poly_jets(c, x)
        assert val[a] == exact[0]
        assert np.max(np.abs(jac[:, a] - exact[1])) <= 1e-11
        assert np.max(np.abs(jets2[:, :, a] - exact[2])) <= 1e-9


def test_fd_jets_first_order_call_matches_full_call():
    calls = []  # the shape of the points of each call

    def vector(q):
        calls.append(q.shape)
        return np.stack([np.sin(q[..., 0]) * q[..., 1], np.exp(q[..., 0] - q[..., 1]),
                         q[..., 0] * q[..., 1] ** 2], axis=-1)

    x = np.array([0.3, 1.2])
    steps = np.array([1e-3, 2e-3])
    _, first_full, _ = im._fd_jets(vector, x, steps)
    full_calls = list(calls)
    calls.clear()
    value, first, jets2 = im._fd_jets(vector, x, steps, second=False)
    assert value is None and jets2 is None
    assert np.array_equal(first, first_full)
    # one call on the stacked stencil; first-derivative stencil only: 4
    # points per parameter, no centre
    assert calls == [(8, 2)]
    # full call: each point once: the centre, 4 per axis, 16 mixed per pair
    assert full_calls == [(1 + 8 + 16, 2)]


@pytest.mark.parametrize("func, shape", [
    (lambda q: np.ones(3), (3,)),  # one point's values, not the batch's
    (lambda q: q[..., 0].T, (2, 3, 8)),
])
def test_fd_jets_check_the_leading_axes(func, shape):
    # 8 first-order stencil points of each of the (3, 2) centres
    want = re.escape(f"leading axes (8, 3, 2), got shape {shape}")
    with pytest.raises(ValueError, match=want):
        im._fd_jets(func, np.zeros((3, 2, 2)), np.array([1e-3, 1e-3]), second=False)


def _ref_fd_jets(func, c, steps, second=True):
    # the stencil written point by point: one func call per use of a point
    n = c.size

    def at(*offsets):
        q = c.copy()
        for k, off in offsets:
            q[k] += off * steps[k]
        return np.asarray(func(q), dtype=float)

    first = np.stack(
        [sum(w * at((k, off)) for off, w in im._D4) / steps[k] for k in range(n)]
    )
    if not second:
        return None, first, None
    value = at()
    jets2 = np.zeros((n,) + first.shape)
    for k in range(n):
        jets2[k, k] = sum(
            w * (value if off == 0 else at((k, off))) for off, w in im._D4_2
        ) / steps[k] ** 2
        for l in range(k + 1, n):
            jets2[k, l] = jets2[l, k] = sum(
                wk * wl * at((k, ok), (l, ol)) for ok, wk in im._D4 for ol, wl in im._D4
            ) / (steps[k] * steps[l])
    return value, first, jets2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_jets_equal_pointwise_reference(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, n)
    steps = np.array([1e-3, 2e-3, 3e-3][:n])

    def scalar(q):
        return np.sin(q.sum(axis=-1)) * np.prod(q, axis=-1)

    def vector(q):
        return np.stack([np.exp(q[..., 0] - q[..., -1]), np.sum(q * q, axis=-1),
                         np.cos(q[..., 0]) * q[..., -1]], axis=-1)

    for func in (scalar, vector):
        for second in (True, False):
            got = im._fd_jets(func, x, steps, second)
            for g, w in zip(got, _ref_fd_jets(func, x, steps, second)):
                assert (g is None and w is None) or np.array_equal(g, w)


CATALOG_SHRINKERS = [
    "plane:n=1,m=1",
    "plane:n=2,m=1",
    "plane:n=2,m=2",
    f"sphere:n=1,R={math.sqrt(2)}",
    "sphere:n=2,R=2",
    f"sphere:n=3,R={math.sqrt(6)}",
    "cylinder:k=1,n=2",
    "cylinder:k=1,n=3",
    "cylinder:k=2,n=3",
]


@pytest.mark.parametrize("name", CATALOG_SHRINKERS)
def test_catalog_residual_vanishes(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    imm = im.catalog_immersion(name)
    worst = 0.0
    for _ in range(50):
        pf = im.point_frame(imm, _interior_probe(rng, imm, margin=0.05))
        worst = max(worst, float(np.max(np.abs(im.shrinker_residual(pf)))))
    assert worst <= 1e-10


def test_normal_frame_rotation_invariance():
    rng = np.random.default_rng(11)
    imm = _graph_m2()
    pf = im.point_frame(imm, np.array([0.4, -0.7]))
    C = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    rotated = im.PointFrame(
        position=pf.position,
        tangent=pf.tangent,
        normal=C @ pf.normal,
        h=np.einsum("ab,bij->aij", C, pf.h),
        mean=C @ pf.mean,
        rho=pf.rho,
    )
    r0 = np.linalg.norm(im.shrinker_residual(pf))
    r1 = np.linalg.norm(im.shrinker_residual(rotated))
    assert abs(r0 - r1) <= 1e-10
    assert abs(pf.second_form_sq - rotated.second_form_sq) <= 1e-10


def test_ambient_equivariance():
    rng = np.random.default_rng(12)
    imm = _graph_m1()
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]

    def jet(p):
        x, dX, ddX = imm.jets(p)
        return x @ Q.T, dX @ Q.T, ddX @ Q.T

    moved = im.ParametricImmersion(2, 1, imm.chart, jet)
    P0 = OrientedFrame(np.eye(3)[:2])
    P0_moved = OrientedFrame(P0.vectors @ Q.T)
    for _ in range(10):
        p = _interior_probe(rng, imm)
        pf = im.point_frame(imm, p)
        pfm = im.point_frame(moved, p)
        assert abs(
            np.linalg.norm(im.shrinker_residual(pf))
            - np.linalg.norm(im.shrinker_residual(pfm))
        ) <= 1e-9
        assert abs(pf.second_form_sq - pfm.second_form_sq) <= 1e-9
        v0 = grassmann.v_values(grassmann.overlap_values(im.gauss_map(pf), P0))
        v1 = grassmann.v_values(grassmann.overlap_values(im.gauss_map(pfm), P0_moved))
        assert abs(v0 - v1) <= 1e-9 * max(1.0, v0)


def test_gauss_map_of_cylinder_traces_great_circle():
    imm = im.catalog_immersion("cylinder:k=1,n=2")
    rng = np.random.default_rng(3)
    for _ in range(20):
        pf = im.point_frame(imm, _interior_probe(rng, imm))
        nu = im.oriented_normal(pf)
        assert abs(nu[2]) <= 1e-12
        assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12


def test_graph_w_product_is_reciprocal_slope():
    rng = np.random.default_rng(4)
    for imm, amb in ((_graph_m1(), 3), (_graph_m2(), 4)):
        P0 = OrientedFrame(np.eye(amb)[:2])
        for _ in range(10):
            p = _interior_probe(rng, imm)
            x, dX, _ = (a[0] for a in imm.jets(p[None]))
            slope = math.sqrt(np.linalg.det(dX @ dX.T))
            pf = im.point_frame(imm, p)
            w = abs(
                np.linalg.det(im.gauss_map(pf).vectors @ P0.vectors.T)
            )
            assert abs(w * slope - 1.0) <= 1e-10


def test_pushforward_energy_density():
    rng = np.random.default_rng(5)
    imm = _graph_m2()
    for _ in range(10):
        p = _interior_probe(rng, imm)
        pf = im.point_frame(imm, p)
        # omega[i, j, alpha] = h[alpha, i, j], the plane-map images of the frame rows
        omega = np.moveaxis(pf.h, -3, -1)
        assert omega.shape == (pf.n, pf.n, pf.m)
        dgamma_sq = float(np.sum(omega**2))
        assert abs(dgamma_sq - pf.second_form_sq) <= 1e-10
        density = 0.5 * dgamma_sq * pf.rho
        assert abs(density - 0.5 * pf.second_form_sq * pf.rho) <= 1e-12

    plane = im.catalog_immersion("plane:n=2,m=2")
    assert np.max(np.abs(im.point_frame(plane, np.array([0.5, -1.0])).h)) == 0.0


def test_weighted_tension_on_catalog_and_off_center_sphere():
    rng = np.random.default_rng(6)
    for name in ("plane:n=2,m=1", "sphere:n=2,R=2", "cylinder:k=1,n=2"):
        imm = im.catalog_immersion(name)
        for _ in range(5):
            T = im.weighted_tension(imm, _interior_probe(rng, imm))
            assert np.max(np.abs(T)) <= 1e-6

    # off-center unit sphere: the tension coefficients are <c, e_j>/(2R)
    off = im.catalog_immersion("sphere:n=2,R=1,c1=0.7")
    c = np.array([0.7, 0.0, 0.0])
    for _ in range(5):
        p = _interior_probe(rng, off)
        pf = im.point_frame(off, p)
        T = im.weighted_tension(off, p)
        target = np.abs(pf.tangent @ c) / 2.0
        assert np.max(np.abs(np.abs(T[0]) - target)) <= 1e-6


def test_weighted_tension_stencil_guard():
    imm = im.catalog_immersion("sphere:n=2,R=2")
    with pytest.raises(im.ChartError):
        im.weighted_tension(imm, np.array([1e-4, 0.0]))


def _ref_tension(imm, p):
    # one point_frame per stencil point, differencing H + X_normal/2
    def field(q):
        pf = im.point_frame(imm, q)
        xnorm = pf.position - (pf.tangent @ pf.position) @ pf.tangent
        return pf.mean @ pf.normal + 0.5 * xnorm

    S = im.point_frame(imm, p).S
    dV = _ref_fd_jets(field, p, imm.fd_step, second=False)[1]
    return im.point_frame(imm, p).normal @ (S @ dV).T


def _drift_laplacian(imm, p, df, ddf):
    # Laplace-Beltrami of f minus (1/2)<X, grad f> at one point p, from f's
    # chart gradient df and hessian ddf
    S = im.point_frame(imm, p).S
    return float(im._drift_laplacian(*(a[0] for a in imm.jets(p[None])), S,
                                     np.asarray(df, dtype=float),
                                     np.asarray(ddf, dtype=float)))


def _ref_composition(imm, p, reference, pole=None):
    # the rows of composition_checks at one point, each F and its closed-form
    # sum over the frame rows e_i straight from the sphere and grassmann
    # forms: one point_frame per stencil point and per F, and one drift
    # Laplacian at the centre
    pf = im.point_frame(imm, p)
    T = _ref_tension(imm, p)
    rows = []
    if pole is not None:
        def height(q):
            y = im.oriented_normal(im.point_frame(imm, q))
            return sphere.height_value(y / math.sqrt(y @ y), pole)

        nu = im.oriented_normal(pf)
        s = np.sign(np.linalg.det(np.concatenate([pf.tangent, pf.normal])))
        # dnu(e_i) = -s h(e_i, e_j) e_j, and dnu(tau) alike
        images = (-s * pf.h[0]) @ pf.tangent
        tension = ((-s * T) @ pf.tangent)[0]
        total = sum(sphere.height_hessian(nu, pole, u, u) for u in images)
        rows.append((height, total + sphere.height_differential(nu, pole, tension)))

    def v(q):
        plane = im.gauss_map(im.point_frame(imm, q))
        return grassmann.v_values(grassmann.overlap_values(plane, reference))

    spec = grassmann.jordan_spectrum(im.gauss_map(pf), reference)

    def adapted(omega):  # coefficients [j, alpha] in the adapted frame
        om = grassmann.express_in_adapted_frame(spec, omega, pf.tangent, pf.normal).omega
        return grassmann.TangentCoeffs(om, spec.tangent_frame)

    images = [adapted(pf.h[:, i].T) for i in range(imm.n)]
    tension = adapted(T.T)
    dlogv = grassmann.dlogv_form(spec, tension)
    rows.append((v, sum(grassmann.hess_v_form(spec, z) for z in images)
                 + grassmann.v_values(spec.mu) * dlogv))
    rows.append((lambda q: np.log(v(q)),
                 sum(grassmann.hess_logv_form(spec, z) for z in images) + dlogv))
    out = []
    for F, centre_sum in rows:
        _, df, ddf = _ref_fd_jets(F, p, imm.fd_step)
        out.append(_drift_laplacian(imm, p, df, ddf) - centre_sum)
    return out


def _stencil_case(name):
    if name == "graph":  # user jets: one call per batch
        return _graph_m1()
    if name == "positions":  # position-only map: difference jets, one call per batch
        return im.ParametricImmersion.from_positions(
            lambda x: np.stack([x[..., 0], x[..., 1], 0.3 * x[..., 0] * x[..., 1] ** 2
                                + 0.2 * np.sin(x[..., 0])], axis=-1),
            2, 1, [(-1, 1)] * 2,
        )
    return im.catalog_immersion(name)


def _composition_targets(imm):
    # (reference, pole): the tangent plane at the chart centre, tilted a
    # little, and the last axis on hypersurfaces (None otherwise)
    amb = imm.n + imm.m
    center = im.point_frame(imm, imm.chart.mean(axis=1)).tangent
    tilt = np.random.default_rng(amb).uniform(-0.2, 0.2, (imm.n, amb))
    ref = OrientedFrame(np.linalg.qr((center + tilt).T)[0].T)
    return ref, (np.eye(amb)[-1] if imm.m == 1 else None)


_STENCIL_CASES = (
    "sphere:n=2,R=2",
    "sphere:n=2,R=1,c1=0.5",
    "cylinder:k=1,n=2",
    "plane:n=2,m=2",
    "cylinder:k=2,n=3",  # n = 3: each centre sums three image terms
    "graph",
    "positions",
)


@pytest.mark.parametrize("name", _STENCIL_CASES)
def test_batched_stencils_equal_pointwise_reference(name):
    imm = _stencil_case(name)
    ref, pole = _composition_targets(imm)
    rng = np.random.default_rng(11)
    draws = [_interior_probe(rng, imm) for _ in range(20)]
    # the overlap targets lose conditioning as the planes turn perpendicular
    probes = [p for p in draws
              if abs(w_product(OrientedFrame(im.point_frame(imm, p).tangent), ref)) >= 0.3]
    assert len(probes) >= 3
    # batches of (B, n) and (2, 3, n) points: the bits of one call per point
    batch = np.array(draws[:6])
    for params in (batch, batch.reshape(2, 3, imm.n)):
        pf = im.point_frame(imm, params)
        T = im.weighted_tension(imm, params)
        residuals = im.composition_checks(imm, params, ref, pole)
        assert residuals.shape == (3 - (pole is None),) + params.shape[:-1]
        # unit points (..., amb) for the heights, stacked planes for w
        units = pf.normal[..., 0, :]
        axis = np.eye(imm.n + imm.m)[-1]
        heights = sphere.height_value(units, axis)
        w = grassmann.w_product(im.gauss_map(pf), ref)
        for idx in np.ndindex(params.shape[:-1]):
            one = im.point_frame(imm, params[idx])
            for field in ("position", "tangent", "normal", "h", "mean", "rho", "S"):
                assert np.array_equal(getattr(pf, field)[idx], getattr(one, field))
            assert np.array_equal(T[idx], im.weighted_tension(imm, params[idx]))
            assert np.array_equal(residuals[(slice(None),) + idx],
                                  im.composition_checks(imm, params[idx], ref, pole))
            assert heights[idx] == sphere.height_value(units[idx], axis)
            assert w[idx] == w_product(OrientedFrame(pf.tangent[idx]), ref)
    for p in probes[:3]:
        assert np.array_equal(im.weighted_tension(imm, p), _ref_tension(imm, p))
        got = im.composition_checks(imm, p, ref, pole)
        assert got.tolist() == _ref_composition(imm, p, ref, pole)
        # without a pole: the v and log v rows alone, with the same bits
        assert im.composition_checks(imm, p, ref).tolist() == got.tolist()[-2:]


def test_one_kernel_call_per_stencil(monkeypatch):
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, pole = _composition_targets(imm)
    p = np.array([1.2, 0.4])
    calls = _count_calls(monkeypatch, im, "_frame_kernel")
    im.weighted_tension(imm, p)
    assert len(calls) == 1
    assert len(im.composition_checks(imm, p, ref, pole)) == 3
    assert len(calls) == 2


@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_one_point_frame_call_per_batch(monkeypatch, lead):
    # the frames of a batch come from one point_frame call: weighted_tension's
    # on the centres and their 4n first-order stencil points, and
    # composition_checks' on the second-order stencils of its centres
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, pole = _composition_targets(imm)
    p = np.array([1.2, 0.4]) + 0.05 * np.arange(math.prod(lead))[:, None]
    p = p.reshape(lead + (2,))
    shapes = []
    point_frame = im.point_frame
    monkeypatch.setattr(im, "point_frame",
                        lambda imm, q: shapes.append(np.shape(q)) or point_frame(imm, q))
    im.weighted_tension(imm, p)
    assert shapes == [(1 + 4 * 2,) + p.shape]
    shapes.clear()
    im.composition_checks(imm, p, ref, pole)
    assert shapes == [(1 + 4 * 2 + 16,) + p.shape]


def _count_calls(monkeypatch, module, name):
    calls = []
    func = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or func(*a))
    return calls


@pytest.mark.parametrize("with_pole", [True, False])
def test_one_overlap_and_one_spectrum_call_per_composition_call(monkeypatch, with_pole):
    # one overlap_values call on the stencil planes gives v to the v and
    # log v rows, and one centre spectrum serves the centre terms of both
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, pole = _composition_targets(imm)
    pole = pole if with_pole else None
    overlaps = _count_calls(monkeypatch, grassmann, "overlap_values")
    spectra = _count_calls(monkeypatch, grassmann, "jordan_spectrum")
    im.composition_checks(imm, np.array([[1.2, 0.4], [1.1, 0.3]]), ref, pole)
    assert (len(overlaps), len(spectra)) == (1, 1)


def test_calls_on_two_references_equal_separate_calls(monkeypatch):
    # each call reads its own reference: nothing carries over between calls
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, pole = _composition_targets(imm)
    other = im.gauss_map(im.point_frame(imm, np.array([1.3, 0.2])))
    p = np.array([1.2, 0.4])
    alone = [im.composition_checks(imm, p, r, pole).tolist() for r in (ref, other)]
    overlaps = _count_calls(monkeypatch, grassmann, "overlap_values")
    spectra = _count_calls(monkeypatch, grassmann, "jordan_spectrum")
    assert [im.composition_checks(imm, p, r, pole).tolist() for r in (ref, other)] == alone
    assert (len(overlaps), len(spectra)) == (2, 2)
    assert alone[0][0] == alone[1][0]  # the height row does not read the reference
    assert alone[0][1:] != alone[1][1:]


def test_a_pole_needs_codimension_one():
    imm = im.catalog_immersion("plane:n=2,m=2")
    ref, _ = _composition_targets(imm)
    with pytest.raises(ValueError, match="codimension one"):
        im.composition_checks(imm, np.array([0.4, -0.9]), ref, np.eye(4)[-1])


def test_overlap_scalars_equal_the_per_row_scalar():
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, _ = _composition_targets(imm)
    points, _ = im._stencil(np.array([1.2, 0.4]), imm.fd_step)
    f = im.point_frame(imm, points)
    pfs = [im.point_frame(imm, q) for q in points]
    v = grassmann.v_values(grassmann.overlap_values(im.gauss_map(f), ref))
    assert v.shape == (len(points),)
    assert v.tolist() == [grassmann.v_values(grassmann.overlap_values(im.gauss_map(pf), ref))
                          for pf in pfs]


def test_stencil_frames_are_checked(monkeypatch):
    # a frame corrupted at the last stencil point fails the batch check
    kernel = im._frame_kernel

    def corrupting_kernel(*args):
        L, f = kernel(*args)
        mean = f["mean"].copy()
        mean[-1] += 1.0
        return L, {**f, "mean": mean}

    monkeypatch.setattr(im, "_frame_kernel", corrupting_kernel)
    imm = im.catalog_immersion("sphere:n=2,R=2")
    p = np.array([1.2, 0.4])
    with pytest.raises(ValueError, match="mean curvature must be the trace of h"):
        im.weighted_tension(imm, p)
    with pytest.raises(ValueError, match="mean curvature must be the trace of h"):
        im.composition_checks(imm, p, *_composition_targets(imm))


def test_composition_check_stencil_guard(monkeypatch):
    # the centre is inside the chart, the stencil's -2 step along t_0 is not:
    # the chart check raises before any target function is evaluated
    imm = im.catalog_immersion("sphere:n=2,R=2")
    ref, pole = _composition_targets(imm)
    overlaps = _count_calls(monkeypatch, grassmann, "overlap_values")
    with pytest.raises(im.ChartError, match=r"parameter \[-0\.0061"):
        im.composition_checks(imm, np.array([1e-4, 0.0]), ref, pole)
    assert overlaps == []


def test_drift_laplacian_flat_examples():
    imm = im.catalog_immersion("plane:n=2,m=1")
    p = np.array([0.7, -1.1])

    # f = |q|^2
    val = _drift_laplacian(imm, p, 2.0 * p, 2.0 * np.eye(2))
    assert abs(val - (4.0 - float(p @ p))) <= 1e-12
    # f constant
    assert abs(_drift_laplacian(imm, p, np.zeros(2), np.zeros((2, 2)))) <= 1e-15


def _shrinker_profile(x_target, u0=0.4, steps=1500):
    # curve profile solving u'' = (1 + u'^2)(x u' - u)/2 from a flat start
    def rhs(x, y):
        u, q = y
        return np.array([q, (1.0 + q * q) * (x * q - u) / 2.0])

    y = np.array([u0, 0.0])
    h = x_target / steps if steps else 0.0
    for i in range(steps):
        x = i * h
        k1 = rhs(x, y)
        k2 = rhs(x + h / 2, y + h / 2 * k1)
        k3 = rhs(x + h / 2, y + h / 2 * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _curve_immersion():
    def jets(xarr):
        # the ODE profile is scalar by nature: one integration per point
        x = xarr[:, 0]
        u, q = np.array([_shrinker_profile(float(xi)) for xi in x]).T
        upp = (1.0 + q * q) * (x * q - u) / 2.0
        return u[:, None], q[:, None, None], upp[:, None, None, None]

    return im.graph_immersion(None, 1, 1, [(-1.6, 1.6)], jets=jets)


def test_drift_laplacian_graph_reduction():
    # on a graphical shrinker the operator collapses to g^11 f_11 - x f_1 / 2
    curve = _curve_immersion()
    for x in (0.3, -0.9, 1.1):
        pf = im.point_frame(curve, np.array([x]))
        assert np.max(np.abs(im.shrinker_residual(pf))) <= 1e-9

        # f = sin(1.3 s)
        lf = _drift_laplacian(curve, np.array([x]), [1.3 * math.cos(1.3 * x)],
                              [[-1.69 * math.sin(1.3 * x)]])
        slope = float(curve.jets(np.array([[x]]))[1][0, 0, 1])
        g11 = 1.0 + slope**2
        reduced = (-1.69 * math.sin(1.3 * x)) / g11 - 0.5 * x * 1.3 * math.cos(1.3 * x)
        assert abs(lf - reduced) <= 1e-9


def test_composition_on_plane_is_exact():
    imm = im.catalog_immersion("plane:n=2,m=1")
    a = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    P0 = OrientedFrame(np.eye(3)[:2])
    p = np.array([0.4, -0.9])
    assert np.max(np.abs(im.composition_checks(imm, p, P0, a))) <= 1e-8


def test_composition_on_shrinker_sphere():
    imm = im.catalog_immersion("sphere:n=2,R=2")
    a = np.array([0.3, -0.5, 0.8])
    a /= np.linalg.norm(a)
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = _interior_probe(rng, imm)
        # the reference is the probe's own plane, so v and log v stay finite
        ref = im.gauss_map(im.point_frame(imm, p))
        assert abs(im.composition_checks(imm, p, ref, a)[0]) <= 1e-5


def test_composition_on_generic_graphs():
    rng = np.random.default_rng(9)
    a = np.array([0.2, 0.4, 0.89])
    a /= np.linalg.norm(a)
    g1 = _graph_m1()
    P0 = OrientedFrame(np.eye(3)[:2])
    for _ in range(5):
        p = _interior_probe(rng, g1)
        assert np.max(np.abs(im.composition_checks(g1, p, P0, a))) <= 1e-4

    g2 = _graph_m2()
    P02 = OrientedFrame(np.eye(4)[:2])
    for _ in range(3):
        p = _interior_probe(rng, g2)
        assert np.max(np.abs(im.composition_checks(g2, p, P02))) <= 1e-4


def test_hypersurface_targets_reach_the_sphere_forms(monkeypatch):
    # the height target and the stability check read sphere's closed forms,
    # so no second copy of a sphere formula lives here
    names = ("height_hessian", "height_differential")
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapped(*args):
            calls[name] += 1
            return func(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(sphere, name, counting(name, getattr(sphere, name)))
    a = np.array([0.2, 0.4, 0.89])
    a /= np.linalg.norm(a)
    im.composition_checks(_graph_m1(), np.array([[0.3, -0.4], [0.5, 0.2]]),
                          OrientedFrame(np.eye(3)[:2]), a)
    # one call of each form per batch of centres
    assert calls == dict.fromkeys(names, 1)
    calls.update(dict.fromkeys(names, 0))
    im.stability_identity_check(im.sphere_mesh(R=2.0, shape=(4, 8)), a)
    assert calls == {**dict.fromkeys(names, 0), "height_differential": 1}


def test_weighted_area_of_shrinker_sphere(shrinker_sphere_mesh):
    # the Gaussian-weighted area, a zero field and a field odd under the
    # reflection x3 -> -x3, as three rows of one streamed read
    mesh = shrinker_sphere_mesh
    exact = 16.0 * math.pi * math.exp(-1.0)
    val, zero, odd = im._integrals(
        mesh, lambda p, f: (f.rho, np.zeros(len(p)), f.position[:, 2] * f.rho))
    # midpoint quadrature carries an endpoint term h^2/24 in the latitude
    # direction; at 64 x 128 that is 1.004e-4 relative
    assert abs(val - exact) / exact <= 1.2e-4
    assert zero == 0.0
    assert abs(odd) <= 1e-12
    # each row is one sum over every node
    params, weights, frames = _mesh_arrays(mesh)
    assert val == float(np.sum(frames.rho * weights))


def test_stability_identity_on_closed_sphere(shrinker_sphere_mesh):
    a = np.array([0.2, 0.5, 0.84])
    a /= np.linalg.norm(a)
    rep = im.stability_identity_check(shrinker_sphere_mesh, a)
    frozen = -(8.0 * math.pi / 3.0) * math.exp(-1.0)
    assert abs(rep.lhs - frozen) <= 1e-3 * abs(frozen)
    assert abs(rep.residual) <= 1e-3 * max(abs(rep.lhs), 1.0)

    coarse = im.stability_identity_check(im.sphere_mesh(R=2.0, shape=(32, 64)), a)
    ratio = coarse.residual / rep.residual
    assert 3.3 <= ratio <= 4.7  # second-order refinement


def test_stability_identity_needs_closed_mesh():
    plane = im.catalog_immersion("plane:n=2,m=1")
    mesh = im.patch_mesh(plane, (6, 6))
    with pytest.raises(ValueError, match="closed"):
        im.stability_identity_check(mesh, np.array([0.0, 0.0, 1.0]))


def _poly_bump(widths, center=None, k=6):
    def eta(q):
        out = 1.0
        for idx, w in enumerate(widths):
            s = (q[..., idx] - (center[idx] if center is not None else 0.0)) / w
            out = out * np.where(np.abs(s) >= 1.0, 0.0, (1.0 - s * s) ** k)
        return out

    return eta


def _ref_weighted_energy(mesh, map_fn, weight):
    # the per-node loop that the batched energy density replaced
    step = mesh.immersion.fd_step
    params, weights, frames = _mesh_arrays(mesh)
    total = 0.0
    for idx in range(mesh.node_count):
        _, dy, _ = im._fd_jets(map_fn, params[idx], step, second=False)
        push = frames.S[idx] @ dy  # rows: map differential along frame rows
        total += 0.5 * float(np.sum(push * push)) * weight.values[idx] * weights[idx]
    return total


def _ref_sphere_map_tension(imm, p, map_fn, grad_log_w):
    # the per-point tension that the batched _sphere_map_tension replaced,
    # with its metric data and Laplace-Beltrami contraction written out
    _, dX, ddX = (a[0] for a in imm.jets(p[None]))
    fr = im.point_frame(imm, p)
    ginv = fr.S.T @ fr.S
    dg = np.einsum("kia,ja->kij", ddX, dX)
    dg = dg + np.swapaxes(dg, 1, 2)
    combo = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->ijk", ginv, combo)
    y, dy, ddy = im._fd_jets(map_fn, p, imm.fd_step)
    term = ddy - np.einsum("ijk,k...->ij...", gamma, dy)
    lap = np.sum(ginv[..., None] * term, axis=(0, 1))
    push = fr.S @ dy
    energy_density = float(np.sum(push * push))
    return lap + energy_density * y + (fr.tangent @ grad_log_w) @ push


@pytest.mark.parametrize("case", ["sphere", "plane"])
def test_batched_energy_layer_matches_per_node_loops(case, monkeypatch):
    if case == "sphere":
        mesh = im.sphere_mesh(R=2.0, shape=(16, 32))
    else:  # an open patch
        mesh = im.patch_mesh(im.catalog_immersion("plane:n=2,m=1"), (12, 10))
    monkeypatch.setattr(im, "_NODE_BLOCK", 16)  # several blocks on each mesh
    imm = mesh.immersion
    params, weights, frames = _mesh_arrays(mesh)
    weight = im.gaussian_weight(frames)

    def mp(q):
        y = np.stack([np.cos(0.6 * q[..., 0]), np.sin(0.6 * q[..., 0]) * np.cos(0.5 * q[..., 1]),
                      0.4 + 0.3 * np.sin(0.5 * q[..., 1])], axis=-1)
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    # the block helpers of the first variation, summed over the blocks of
    # one read; summation order may move the last bits
    energy, tension = 0.0, []
    for _, p, w, f in mesh._node_blocks():
        gw = im.gaussian_weight(f)
        energy += float(np.sum(im._energy_density(imm, p, f, mp) * gw.values * w))
        tension.append(im._sphere_map_tension(imm, p, f, mp, gw.grad_log))
    want = _ref_weighted_energy(mesh, mp, weight)
    assert abs(energy - want) <= 1e-12 * abs(want)
    got = np.concatenate(tension)
    want = np.array([_ref_sphere_map_tension(imm, p, mp, g)
                     for p, g in zip(params, weight.grad_log)])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_first_variation_vanishes_without_variation():
    plane = im.catalog_immersion("plane:n=2,m=1")
    mesh = im.patch_mesh(plane, (8, 8))

    def family(_t):
        def mp(q):
            y = np.stack([np.cos(0.4 * q[..., 0]), np.sin(0.4 * q[..., 0]), 0.5 * q[..., 1]],
                         axis=-1)
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        return mp

    rep = im.first_variation_check(mesh, family, im.unit_weight)
    assert rep.derivative == 0.0


def test_first_variation_matches_tension_pairing():
    plane = im.catalog_immersion("plane:n=2,m=1")
    mesh = im.patch_mesh(plane, (32, 32))
    eta = _poly_bump((2.6, 2.6))
    W = np.array([-0.2, 0.5, 0.3])

    def base(q):
        y = np.stack(
            [
                np.cos(0.6 * q[..., 0]),
                np.sin(0.6 * q[..., 0]) * np.cos(0.5 * q[..., 1]),
                0.4 + 0.3 * np.sin(0.5 * q[..., 1]),
            ],
            axis=-1,
        )
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    def family(t):
        def mp(q):
            y = base(q) + t * eta(q)[..., None] * W
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        return mp

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = im.first_variation_check(mesh, family, im.unit_weight)
    assert abs(rep.residual) <= 1e-4 * abs(rep.derivative)


@pytest.mark.parametrize("closed", [True, False])
def test_first_variation_calls_each_map_a_fixed_number_of_times(closed):
    plane = im.catalog_immersion("plane:n=2,m=1")
    W = np.array([0.0, 0.1, 0.2])
    counts = []
    for shape in ((4, 6), (8, 12)):
        calls = {}

        def family(t):
            def mp(q):
                calls[t] = calls.get(t, 0) + 1
                y = np.stack([np.cos(0.4 * q[..., 0]), np.sin(0.4 * q[..., 0]), 0.5 * q[..., 1]],
                             axis=-1) + t * W
                return y / np.linalg.norm(y, axis=-1, keepdims=True)

            return mp

        mesh = im.sphere_mesh(R=2.0, shape=shape) if closed else im.patch_mesh(plane, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the variation reaches the open patch's boundary
            im.first_variation_check(mesh, family, im.unit_weight)
        counts.append(calls)
    # the energies, the rate at the nodes and the tension, plus the rate at
    # the faces of an open chart box
    each = 2 if closed else 3
    assert counts[0] == counts[1] == {0.0: 1, 1e-3: each, -1e-3: each}


@pytest.mark.parametrize("closed", [True, False])
def test_blocked_first_variation_keeps_every_bit(closed, monkeypatch):
    # the shrinker sphere of c09 with the Gaussian weight, and an open plane
    # patch with the unit weight; 512 and 64 nodes leave a tail of one node
    # in blocks of 7
    if closed:
        mesh, weight_of = im.sphere_mesh(R=2.0, shape=(16, 32)), im.gaussian_weight
        eta = _poly_bump((1.35, 2.9), center=(math.pi / 2, 0.0))
    else:
        mesh = im.patch_mesh(im.catalog_immersion("plane:n=2,m=1"), (8, 8))
        weight_of, eta = im.unit_weight, _poly_bump((2.6, 2.6))
    imm, W = mesh.immersion, np.array([0.3, -0.2, 0.5])
    calls = []

    def family(t):
        def mp(q):
            calls.append(t)
            y = np.stack([np.cos(0.6 * q[..., 0]),
                          np.sin(0.6 * q[..., 0]) * np.cos(0.5 * q[..., 1]),
                          0.4 + 0.3 * np.sin(0.5 * q[..., 1])], axis=-1)
            y = y + t * eta(q)[..., None] * W
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        return mp

    # the check's arithmetic over every node at once
    dt = 1e-3
    params, weights, f = _one_call_mesh(imm, mesh.shape)
    frames = im.PointFrame(**f)
    w = weight_of(frames)
    e_p, e_m = (float(np.sum(im._energy_density(imm, params, frames, family(t)) * w.values
                             * weights)) for t in (dt, -dt))
    vdot = (family(dt)(params) - family(-dt)(params)) / (2.0 * dt)
    tau = im._sphere_map_tension(imm, params, frames, family(0.0), w.grad_log)
    pairing = -float(np.sum(np.sum(vdot * tau, axis=-1) * w.values * weights))
    derivative = (e_p - e_m) / (2.0 * dt)
    want = (derivative, pairing, derivative - pairing)
    count = mesh.node_count
    for block in (1 << 10, 16, 7):
        monkeypatch.setattr(im, "_NODE_BLOCK", block)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert im.first_variation_check(mesh, family, weight_of) == want
        # per block: the tension, and each of +-dt for its energy and the
        # rate; one more rate at the faces of an open chart box
        blocks = -(-count // block)
        each = 2 * blocks + (0 if closed else 1)
        assert {t: calls.count(t) for t in set(calls)} == {0.0: blocks, dt: each, -dt: each}


def test_first_variation_warns_on_boundary_support():
    plane = im.catalog_immersion("plane:n=2,m=1")
    mesh = im.patch_mesh(plane, (6, 6))
    W = np.array([0.0, 0.1, 0.2])

    def family(t):
        def mp(q):
            y = np.stack([np.ones(q.shape[:-1]), 0.3 * q[..., 0], 0.2 * q[..., 1]],
                         axis=-1) + t * W
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        return mp

    with pytest.warns(UserWarning, match="boundary"):
        im.first_variation_check(mesh, family, im.unit_weight)


def test_catalog_string_parsing():
    imm = im.catalog_immersion("sphere:n=2,R=2,c1=0.5")
    x = imm.jets(np.array([[0.6, 1.0]]))[0][0]
    assert abs(np.linalg.norm(x - np.array([0.5, 0.0, 0.0])) - 2.0) <= 1e-12

    with pytest.raises(ValueError, match="unknown catalog kind"):
        im.catalog_immersion("torus:n=2")
    with pytest.raises(ValueError, match="needs argument"):
        im.catalog_immersion("sphere:n=2")
    with pytest.raises(ValueError, match="unused"):
        im.catalog_immersion("plane:n=2,m=1,R=4")
    with pytest.raises(ValueError, match="malformed"):
        im.catalog_immersion("plane:n2")
    # a repeated argument names no one surface, even with equal values
    for name in ("sphere:n=2,R=1,R=2", "plane:n=2,m=1, n=2", "sphere:n=2,R=2,c1=0.5,c1=0.5"):
        with pytest.raises(ValueError, match="repeated catalog argument"):
            im.catalog_immersion(name)
