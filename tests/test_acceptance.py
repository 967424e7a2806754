"""Acceptance suite: one test per shipping criterion, with stated tolerances.

Each test prints a single pass/fail line with the measured values before
asserting, so a full run reads as a checklist.  Three supplementary
companion tests (not numbered criteria) sit beside the criteria: two (c07,
c10) document the honest behavior of the machinery where a criterion's
stated control/target is unattainable, and one (beside c09) checks that the
Gauss map of a shrinker is critical for the Gaussian-weighted energy.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from shrinkerlab import cli, graphflow, grassmann, immersion, ineq
from shrinkerlab.grassmann import OrientedFrame


def _emit(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. scalar sweep bound


def test_c01_scalar_sweep_bound():
    t0 = time.perf_counter()
    rep = ineq.sup_F_sweep(v_count=10_000, rt_resolution=10_000)
    elapsed = time.perf_counter() - t0
    bound = -1.0 / 16.0 + 1e-9
    ok = rep.worst_value <= bound and elapsed <= 60.0
    _emit(
        1,
        ok,
        f"sup F = {rep.worst_value:.9f} <= -1/16 + 1e-9 over "
        f"{rep.samples} samples ({elapsed:.1f}s, limit 60s)",
    )
    assert rep.worst_value <= bound
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. pinned scalar minima


def test_c02_pinned_minima():
    h1 = ineq.H1_value(1.0, 1.5)
    theta = np.linspace(2.0, 4.0, 200_001)
    vals = theta * (theta - 1.0) ** 2
    k = int(np.argmin(vals))
    ok = (
        abs(h1 - 1.0) <= 1e-12
        and abs(vals[k] - 2.0) <= 1e-12
        and abs(theta[k] - 2.0) <= 1e-12
    )
    _emit(
        2,
        ok,
        f"H1(1, 3/2) = {h1!r}; min theta(theta-1)^2 on [2,4] = {vals[k]!r} "
        f"at theta = {theta[k]!r} (tol 1e-12)",
    )
    assert abs(h1 - 1.0) <= 1e-12
    assert abs(vals[k] - 2.0) <= 1e-12
    assert abs(theta[k] - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# 3. master inequality with C1 = 16


def _batched_subcritical(rng, batch, p):
    lam = np.abs(rng.standard_normal((batch, p))) * rng.uniform(
        0.2, 1.5, (batch, 1)
    )
    v = np.exp(0.5 * np.sum(np.log1p(lam * lam), axis=1))
    hot = v >= 3.0
    if np.any(hot):
        ratio = (2.0 * np.log(3.0 - 1e-6)) / (2.0 * np.log(v[hot]))
        lam[hot] = np.sqrt(np.expm1(np.log1p(lam[hot] ** 2) * ratio[:, None]))
    return lam


def _sym(h):
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def test_c03_master_inequality_bulk():
    rng = np.random.default_rng(202)
    batch = 40_000
    worst = math.inf
    total = 0
    for n in range(1, 6):
        for m in range(1, 6):
            p = min(n, m)
            lam = _batched_subcritical(rng, batch, p)
            h = _sym(rng.standard_normal((batch, m, n, n)))
            margins = ineq.master_margin(n, m, lam, h)
            worst = min(worst, float(np.min(margins)))
            total += batch

    search = ineq.adversarial_margin_search(seed=303, restarts=10_000)

    zero_worst = 0.0
    for n, m in [(1, 1), (2, 3), (4, 4), (5, 2)]:
        p = min(n, m)
        margin = ineq.master_margin(
            n, m, np.zeros((1, p)), _sym(rng.standard_normal((1, m, n, n))))
        zero_worst = max(zero_worst, abs(float(margin[0])))

    ok = (
        worst >= -1e-12
        and search.worst_margin >= -1e-12
        and not search.violations
        and zero_worst <= 1e-12
    )
    _emit(
        3,
        ok,
        f"{total} random samples min margin {worst:.3e}; exact min over h of "
        f"margin/|B|^2 at 10^4 lambda {search.worst_margin:.3e} with "
        f"{len(search.violations)} violations; "
        f"lambda=0 margin {zero_worst:.1e} (tol 1e-12)",
    )
    assert worst >= -1e-12
    assert search.worst_margin >= -1e-12
    assert not search.violations
    assert zero_worst <= 1e-12


# ---------------------------------------------------------------------------
# 4. regrouping identity in bulk


def test_c04_regrouping_identity_bulk():
    rng = np.random.default_rng(404)
    count = 100_000
    worst = ineq.sample_check(rng, count).regroup_max
    ok = worst <= 1e-10
    _emit(4, ok, f"max regrouping defect {worst:.3e} over {count} samples (tol 1e-10)")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 5. closed-form Hessians vs geodesic differences


def test_c05_hessians_vs_differences():
    # every target family on one random stream; np.max keeps a NaN residual
    step = 1e-4
    probes = 500
    rows = cli._target_batch(np.random.SeedSequence(505), probes, step)
    worst = dict(zip(cli.TARGET_FAMILIES, np.max(rows, axis=0, initial=0.0).tolist()))
    peak = max(worst.values())
    ok = peak <= 1e-5
    _emit(
        5,
        ok,
        f"{probes} probes/family, worst relative error {peak:.3e} "
        f"({', '.join(f'{k}={v:.1e}' for k, v in worst.items())}; tol 1e-5)",
    )
    for name, value in worst.items():
        assert value <= 1e-5, name


# ---------------------------------------------------------------------------
# 6. exact catalog residuals


def _catalog_names():
    names = ["plane:n=2,m=1", "plane:n=3,m=2"]
    names += [f"sphere:n={n},R={math.sqrt(2.0 * n)!r}" for n in (1, 2, 3)]
    names += ["cylinder:k=1,n=2", "cylinder:k=1,n=3", "cylinder:k=2,n=3"]
    return names


def _probe_params(imm, rng, count, margin=0.12):
    lo = imm.chart[:, 0] + margin * (imm.chart[:, 1] - imm.chart[:, 0])
    hi = imm.chart[:, 1] - margin * (imm.chart[:, 1] - imm.chart[:, 0])
    return rng.uniform(lo, hi, size=(count, imm.chart.shape[0]))


def test_c06_catalog_residuals():
    rng = np.random.default_rng(606)
    worst = 0.0
    worst_name = ""
    for name in _catalog_names():
        imm = immersion.catalog_immersion(name)
        for p in _probe_params(imm, rng, 1000):
            pf = immersion.point_frame(imm, p)
            res = float(np.max(np.abs(immersion.shrinker_residual(pf))))
            if res > worst:
                worst, worst_name = res, name
    ok = worst <= 1e-10
    _emit(
        6,
        ok,
        f"max |H + X^N/2| = {worst:.3e} (at {worst_name}; 1000 probes x "
        f"{len(_catalog_names())} surfaces, tol 1e-10)",
    )
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 7. weighted tension: shrinkers vs the unit-sphere control


def test_c07_weighted_tension_ruh_vilms():
    rng = np.random.default_rng(707)
    shrinker_max = 0.0
    for name in _catalog_names():
        imm = immersion.catalog_immersion(name)
        for p in _probe_params(imm, rng, 200):
            ten = float(np.max(np.abs(immersion.weighted_tension(imm, p))))
            shrinker_max = max(shrinker_max, ten)

    control = immersion.catalog_immersion("sphere:n=2,R=1")
    control_min = math.inf
    for p in _probe_params(control, rng, 200):
        ten = float(np.max(np.abs(immersion.weighted_tension(control, p))))
        control_min = min(control_min, ten)

    ok = shrinker_max <= 1e-6 and control_min >= 1e-2
    _emit(
        7,
        ok,
        f"catalog max |tau_rho| = {shrinker_max:.3e} (tol 1e-6); centered "
        f"unit-sphere control min = {control_min:.3e} (required >= 1e-2)",
    )
    assert shrinker_max <= 1e-6
    # the weighted tension vanishes identically on every centered round
    # sphere (the normal derivative of a field with constant coefficient
    # along the normal is purely tangential), so no centered radius can
    # clear this floor; the assertion states the contract and records the
    # measured value
    assert control_min >= 1e-2


def test_c07_off_center_companion_control():
    # shifting the center makes the coefficient of the defect field
    # non-constant, and the tension becomes genuinely nonzero: the
    # machinery does detect non-harmonicity on a working control
    rng = np.random.default_rng(708)
    control = immersion.catalog_immersion("sphere:n=2,R=1,c1=0.5")
    control_min = math.inf
    for p in _probe_params(control, rng, 200):
        ten = float(np.max(np.abs(immersion.weighted_tension(control, p))))
        control_min = min(control_min, ten)
    print(
        f"companion 07: off-center unit sphere min |tau_rho| = {control_min:.3e} "
        f"(>= 1e-2)"
    )
    assert control_min >= 1e-2


# ---------------------------------------------------------------------------
# 8. composition formula across catalog and perturbed surfaces


def _graph_jets_m1(x):
    x0, x1 = x[..., 0], x[..., 1]
    u = 0.25 * x0 ** 2 - 0.15 * x0 * x1 + 0.1 * np.sin(x1)
    du = np.stack([0.5 * x0 - 0.15 * x1, -0.15 * x0 + 0.1 * np.cos(x1)], axis=-1)
    ddu = np.zeros(x.shape[:-1] + (2, 2, 1))
    ddu[..., 0, 0, 0] = 0.5
    ddu[..., 0, 1, 0] = ddu[..., 1, 0, 0] = -0.15
    ddu[..., 1, 1, 0] = -0.1 * np.sin(x1)
    return u[..., None], du[..., None], ddu


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
    ddu[..., 0, 1, :] = ddu[..., 1, 0, :] = [-0.15, 0.0]
    ddu[..., 1, 1, 1] = -0.2 * np.sin(x1)
    return np.stack([u1, u2], axis=-1), du, ddu


def _c08_surfaces():
    # each surface is paired with a reference plane its tangent planes
    # overlap; the cylinder's tangents always contain the axis direction,
    # so its reference must too
    return [
        (immersion.catalog_immersion("sphere:n=2,R=2"), np.eye(3)[:2]),
        (immersion.catalog_immersion("cylinder:k=1,n=2"), np.eye(3)[[0, 2]]),
        (immersion.catalog_immersion("plane:n=2,m=1"), np.eye(3)[:2]),
        (
            immersion.graph_immersion(
                None, 2, 1, [(-2, 2), (-2, 2)], jets=_graph_jets_m1
            ),
            np.eye(3)[:2],
        ),
        (
            immersion.graph_immersion(
                None, 2, 2, [(-2, 2), (-2, 2)], jets=_graph_jets_m2
            ),
            np.eye(4)[:2],
        ),
    ]


def test_c08_composition_formula():
    rng = np.random.default_rng(808)
    worst = {"height": 0.0, "v": 0.0, "logv": 0.0}
    probes_per_surface = 20
    for imm, ref_rows in _c08_surfaces():
        amb = imm.n + imm.m
        ref = OrientedFrame(ref_rows)
        a = np.zeros(amb)
        a[0], a[-1] = 0.6, 0.8
        kept = 0
        tries = 0
        while kept < probes_per_surface and tries < 200 * probes_per_surface:
            tries += 1
            p = _probe_params(imm, rng, 1)[0]
            pf = immersion.point_frame(imm, p)
            if abs(grassmann.w_product(OrientedFrame(pf.tangent), ref)) < 0.3:
                continue
            kept += 1
            # the rows height (hypersurfaces only), v and log v of one call
            rows = immersion.composition_checks(imm, p, ref, a if imm.m == 1 else None)
            for name, row in zip(list(worst)[-len(rows):], rows):
                worst[name] = max(worst[name], abs(row))
        assert kept == probes_per_surface
    peak = max(worst.values())
    ok = peak <= 1e-4
    _emit(
        8,
        ok,
        f"100 probes, worst residual {peak:.3e} "
        f"(height={worst['height']:.1e}, v={worst['v']:.1e}, "
        f"logv={worst['logv']:.1e}; tol 1e-4)",
    )
    for name, value in worst.items():
        assert value <= 1e-4, name


# ---------------------------------------------------------------------------
# 9. integrated identity on the shrinker 2-sphere


def test_c09_integrated_identity():
    a = np.array([0.2, 0.5, 0.84])
    a /= np.linalg.norm(a)
    fine = immersion.stability_identity_check(
        immersion.sphere_mesh(R=2.0, shape=(256, 512)), a
    )
    rel = abs(fine.residual) / max(abs(fine.lhs), abs(fine.rhs))
    mid = immersion.stability_identity_check(
        immersion.sphere_mesh(R=2.0, shape=(128, 256)), a
    )
    ratio = mid.residual / fine.residual
    ok = rel <= 1e-4 and 3.3 <= ratio <= 4.7
    _emit(
        9,
        ok,
        f"relative defect {rel:.3e} at 256x512 (tol 1e-4); refinement "
        f"ratio {ratio:.3f} (2nd order ~ 4)",
    )
    assert rel <= 1e-4
    assert 3.3 <= ratio <= 4.7


def test_first_variation_of_shrinker_gauss_map_is_critical():
    # the Gauss map of a shrinker is a critical point of the Gaussian-weighted
    # energy: the variational form of the paper's harmonic-Gauss-map step,
    # here on the R = 2 shrinker sphere of c09, varied by a bump field
    mesh = immersion.sphere_mesh(R=2.0, shape=(16, 32))
    imm = mesh.immersion
    V = np.array([0.3, -0.2, 0.5])

    def eta(q):
        out = 1.0
        for s in ((q[..., 0] - math.pi / 2) / 1.35, q[..., 1] / 2.9):
            out = out * np.where(np.abs(s) >= 1.0, 0.0, (1.0 - s * s) ** 6)
        return out

    def family(t):
        def mp(q):
            y = immersion.oriented_normal(immersion.point_frame(imm, q)) + t * eta(q)[..., None] * V
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        return mp

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = immersion.first_variation_check(mesh, family, immersion.gaussian_weight)
    print(
        f"companion 09: d/dt E_rho(Gauss map + t eta V) at 0 = {rep.derivative:.3e} "
        f"(tol 1e-4); tension pairing {rep.pairing:.3e} (tol 1e-6)"
    )
    assert abs(rep.derivative) <= 1e-4
    assert abs(rep.pairing) <= 1e-6


# ---------------------------------------------------------------------------
# 10. graph rigidity experiment


def _rigidity_bump_field(L, res, amp, seed=7):
    rng = np.random.default_rng(seed)
    n = m = 2
    A = np.array([[0.3, -0.2], [0.1, 0.25]])
    coef = rng.standard_normal((n, m))
    base = rng.standard_normal(m)

    def value(x):
        z = x / L
        window = float(np.prod((1.0 - z * z) ** 2))
        return A @ x + amp * window * (base + coef.T @ z)

    return graphflow.GridField.from_function(
        value, L, (res, res), m, boundary="affine", A=A, b=np.zeros(m)
    )


def test_c10_graph_rigidity_experiment():
    field = _rigidity_bump_field(L=4.0, res=129, amp=1.2)
    slope0 = float(np.max(graphflow.slope_field(field)))
    # step cap sized to the 5-minute budget at this resolution
    solver = graphflow.SolverConfig(
        max_steps=28_000, threshold=1e-8, sample_interval=500
    )
    t0 = time.perf_counter()
    final = None
    try:
        final, trace = graphflow.relax_flow(field, solver)
    except graphflow.DivergenceError as exc:
        trace = exc.trace
    elapsed = time.perf_counter() - t0

    converged = final is not None and trace.converged
    final_res = trace.sup_residual[-1]
    deviation = (
        float(np.max(np.abs(final.values - final.affine_values())))
        if final is not None
        else math.inf
    )
    ok = (
        slope0 <= 2.5
        and converged
        and final_res < 1e-8
        and deviation <= 1e-6
        and elapsed <= 300.0
    )
    outcome = (
        f"converged in {trace.steps[-1]} steps, final residual {final_res:.3e}, "
        f"affine deviation {deviation:.3e}"
        if converged
        else f"did NOT converge (last step {trace.steps[-1]}, "
        f"sup residual {final_res:.3e})"
    )
    _emit(
        10,
        ok,
        f"L=4, 129^2, initial sup-slope {slope0:.3f} (<= 2.5); {outcome}; "
        f"{elapsed:.0f}s (limit 300s)",
    )
    assert slope0 <= 2.5
    assert elapsed <= 300.0
    # the affine state is a linearly unstable equilibrium on this box: the
    # flow linearized there, G : D^2 phi - (x . D phi - phi)/2 with
    # G = (I + A^T A)^-1, Dirichlet data and centred differences, has top
    # eigenvalue +0.4739 (+0.4626 for the isotropic G = I), so the
    # relaxation is repelled from the prescribed target; the assertions
    # state the contract and record the measured outcome
    assert converged and final_res < 1e-8
    assert deviation <= 1e-6


def test_c10_stable_box_companion():
    # the same experiment on a box where the affine state is linearly
    # stable (top eigenvalue -1.0336 of the linearization at the affine
    # state, -1.2299 for the isotropic G = I) shows the advertised behavior
    field = _rigidity_bump_field(L=1.5, res=65, amp=0.25)
    slope0 = float(np.max(graphflow.slope_field(field)))
    solver = graphflow.SolverConfig(
        max_steps=150_000, threshold=1e-8, sample_interval=500
    )
    t0 = time.perf_counter()
    final, trace = graphflow.relax_flow(field, solver)
    elapsed = time.perf_counter() - t0
    deviation = float(np.max(np.abs(final.values - final.affine_values())))
    print(
        f"companion 10: L=1.5, 65^2, sup-slope {slope0:.3f}; converged="
        f"{trace.converged} in {trace.steps[-1]} steps, final residual "
        f"{trace.sup_residual[-1]:.3e}, affine deviation {deviation:.3e} "
        f"({elapsed:.0f}s)"
    )
    assert slope0 <= 2.5
    assert trace.converged and trace.sup_residual[-1] < 1e-8
    assert deviation <= 1e-6
    # RKL1 supersteps reach the same stationary state: 3 040 fills at 40
    # stages against 65 649 explicit steps, 6.5e-10 apart
    fast, fast_trace = graphflow.relax_flow(field, dataclasses.replace(solver, stages=40))
    assert fast_trace.converged
    assert float(np.max(np.abs(fast.values - final.values))) <= 1e-8


def test_c10_field_diverges_under_supersteps():
    # supersteps follow the same flow, so c10's affine state repels them as
    # it repels the explicit steps: at 65^2 and 20 stages the field passes
    # the blow-up bound at fill 1 440
    field = _rigidity_bump_field(L=4.0, res=65, amp=1.2)
    with pytest.raises(graphflow.DivergenceError):
        graphflow.relax_flow(field, graphflow.SolverConfig(
            max_steps=150_000, threshold=1e-8, sample_interval=500, stages=20))


# ---------------------------------------------------------------------------
# 11. slope / Gauss-map consistency


def test_c11_slope_gauss_consistency():
    def values(x):
        u1 = 0.25 * x[0] ** 2 - 0.15 * x[0] * x[1] + 0.1 * math.sin(x[1])
        u2 = 0.2 * math.cos(x[0]) + 0.12 * x[1] ** 2
        return np.array([u1, u2])

    field = graphflow.GridField.from_function(values, 2.0, (41, 41), 2)
    imm = graphflow.field_immersion(field, order=4)
    sl = graphflow.slope_field(field, order=4)
    nodes = graphflow.interior_nodes(field, order=4).reshape(sl.shape + (2,))
    P0 = OrientedFrame(np.hstack([np.eye(2), np.zeros((2, 2))]))
    rng = np.random.default_rng(1111)
    worst = 0.0
    probes = 400
    for _ in range(probes):
        ij = (int(rng.integers(0, sl.shape[0])), int(rng.integers(0, sl.shape[1])))
        pf = immersion.point_frame(imm, nodes[ij])
        w = grassmann.w_product(OrientedFrame(pf.tangent), P0)
        worst = max(worst, abs(float(sl[ij]) * abs(w) - 1.0))
    ok = worst <= 1e-8
    _emit(
        11,
        ok,
        f"max |slope * w - 1| = {worst:.3e} over {probes} matched probes (tol 1e-8)",
    )
    assert worst <= 1e-8
