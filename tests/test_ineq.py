import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab import cli, grassmann, ineq


def _hyperbola_t(v, r):
    return (v * v - 1.0 - r) / (1.0 + r)


def _in_omega(v, r, t):
    # the sweep's rule: D < 0, the t-bound off F's pole
    return ineq._pole_denominator(0.5 * (v - 1.0), r, t) < 0.0


# the factors of F = F2 / (F1 (F2 - F1)) and of F2 = H1 / H2, theta = r / (v - 1)
def _F1(v, r):
    return 1.0 + 0.5 * (v - 1.0) / r


def _F2(v, r, t):
    return 2.0 + 0.5 * (v - 1.0) * (1.0 / r + 2.0 / t) - r / (0.5 * (v - 1.0))


def _H2(v, theta):
    return theta * (v + 1.0 - theta)


def _F(v, r, t):
    tau = 0.5 * (v - 1.0)
    return ineq._F(tau, r, t, ineq._pole_denominator(tau, r, t))


# ---------------------------------------------------------------------------
# scalar domain


def test_omega_membership_examples():
    assert _in_omega(2.0, 1.5, 0.6)
    # r <= tau, where the t-bound is undefined, and t below its bound
    for r in (0.5, 0.2, 0.6):
        assert not _in_omega(2.0, r, _hyperbola_t(2.0, r))
    # 8.3e-14 below the t-bound, past F's pole (F would read 3.0e6), D > 0;
    # the bound used to be checked with 1e-12 of slack, which admitted it
    tau = 0.5 * (1.000001 - 1.0)
    assert ineq._pole_denominator(tau, 1.5000006666025336e-06, 4.999995833221254e-07) > 0.0


@pytest.mark.parametrize("v, r, t", [(2.0, math.nan, 1.0), (2.0, 1.0, math.nan)])
def test_nan_is_not_in_omega(v, r, t):
    assert not _in_omega(v, r, t)


def test_F_paper_point():
    F, F1, F2 = _F(2.0, 1.5, 0.6), _F1(2.0, 1.5), _F2(2.0, 1.5, 0.6)
    assert F == pytest.approx(-2.25, abs=1e-12)
    assert F1 == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert F2 == pytest.approx(1.0, abs=1e-12)
    assert F == pytest.approx(F2 / (F1 * (F2 - F1)), abs=1e-10)


def test_F_factorization_identity_random():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        v = 1.0 + 2.0 * rng.random()
        tau = 0.5 * (v - 1.0)
        r = tau + (v * v - 1.0 - tau) * rng.random()
        t = _hyperbola_t(v, r)
        if not _in_omega(v, r, t):
            continue
        F1, F2, theta = _F1(v, r), _F2(v, r, t), r / (v - 1.0)
        assert _F(v, r, t) == pytest.approx(F2 / (F1 * (F2 - F1)), rel=1e-10, abs=1e-10)
        assert F2 == pytest.approx(ineq.H1_value(v, theta) / _H2(v, theta), rel=1e-9)
        checked += 1


def test_F_pole_on_t_bound_boundary():
    # at v=2, r=1, t=1 the hyperbola meets the t lower bound exactly and the
    # second denominator vanishes, so the sweep's rule drops the point
    assert ineq._pole_denominator(0.5, 1.0, 1.0) == 0.0
    assert not _in_omega(2.0, 1.0, 1.0)


def test_H1_pinned_values():
    assert ineq.H1_value(1.0, 1.5) == pytest.approx(1.0, abs=1e-12)
    # at v = 1 the polynomial is 2 th (th - 3/2)^2 + 1
    for th in np.linspace(0.5, 2.0, 31):
        assert ineq.H1_value(1.0, th) == pytest.approx(
            2.0 * th * (th - 1.5) ** 2 + 1.0, abs=1e-12
        )
    # along v = th - 1 it collapses to th (th - 1)^2
    grid = np.linspace(2.0, 4.0, 4001)
    vals = np.array([ineq.H1_value(th - 1.0, th) for th in grid])
    direct = grid * (grid - 1.0) ** 2
    assert np.max(np.abs(vals - direct)) <= 1e-10
    k = int(np.argmin(vals))
    assert grid[k] == pytest.approx(2.0, abs=1e-12)
    assert vals[k] == pytest.approx(2.0, abs=1e-12)


def test_scalar_bounds_on_sampled_domain():
    rng = np.random.default_rng(8)
    f1_max = -math.inf
    f2_min = math.inf
    h1_min = math.inf
    h2_max = -math.inf
    count = 0
    while count < 500:
        v = 1.0 + 2.0 * rng.random()
        tau = 0.5 * (v - 1.0)
        r = tau + (v * v - 1.0 - tau) * rng.random()
        t = _hyperbola_t(v, r)
        if not _in_omega(v, r, t):
            continue
        theta = r / (v - 1.0)
        f1_max = max(f1_max, _F1(v, r))
        f2_min = min(f2_min, _F2(v, r, t))
        h1_min = min(h1_min, ineq.H1_value(v, theta))
        h2_max = max(h2_max, _H2(v, theta))
        count += 1
    assert f1_max <= 2.0 + 1e-12
    assert f2_min >= 0.25 - 1e-12
    assert h1_min >= 1.0 - 1e-12
    assert h2_max <= 4.0 + 1e-12


def test_sup_F_sweep_bound_and_refinement():
    rep = ineq.sup_F_sweep(v_count=400, rt_resolution=1500)
    assert rep.worst_value <= -1.0 / 16.0 + 1e-9
    assert rep.samples >= 100_000
    # refining the whole domain 4x barely moves the worst
    fine = ineq.sup_F_sweep(v_count=1600, rt_resolution=6000)
    assert fine.worst_value >= rep.worst_value - 1e-12
    assert abs(fine.worst_value - rep.worst_value) < 1e-4


@pytest.mark.parametrize("kwargs", [{"v_count": 0}, {"rt_resolution": 0}])
def test_sup_F_sweep_rejects_an_empty_grid_or_one_outside_the_domain(kwargs):
    # v_count=0 once returned a pass from no samples; the domain is fixed, so
    # no grid lies outside it
    args = {"v_count": 4, "rt_resolution": 4, **kwargs}
    with pytest.raises(ValueError, match="v_count"):
        ineq.sup_F_sweep(**args)


def test_sweep_without_samples_does_not_pass():
    # the one grid point, v = 1 + 1e-6 at r = v^2 - 1 (s = 4), misses Omega
    rep = ineq.sup_F_sweep(v_count=1, rt_resolution=1)
    assert rep.samples == 0
    assert rep.worst_value == -np.inf


def _sweep_per_slice(v_count, rt_resolution):
    """(worst, samples) from every point of every v-slice.

    The sweep as a loop over slices that evaluates each slice's full grid,
    kept as the reference the sweep must equal bit for bit.
    """
    v_grid = np.linspace(1.0 + 1e-6, 3.0 - 1e-6, v_count)
    frac = np.arange(1, rt_resolution + 1) / rt_resolution
    worst = -np.inf
    samples = 0
    for v in v_grid:
        tau = 0.5 * (v - 1.0)
        r = tau + (v * v - 1.0 - tau) * frac
        t = (v * v - 1.0 - r) / (1.0 + r)
        denom = ineq._pole_denominator(tau, r, t)
        member = denom < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            F = ineq._F(tau, r, t, denom)
        if np.any(member):
            samples += int(np.count_nonzero(member))
            worst = max(worst, float(np.max(F[member])))
    return worst, samples


def _assert_sweep_is_the_loop(v_count, rt_resolution):
    rep = ineq.sup_F_sweep(v_count=v_count, rt_resolution=rt_resolution)
    worst, samples = _sweep_per_slice(v_count, rt_resolution)
    assert rep.samples == samples
    assert np.array(rep.worst_value).tobytes() == np.array(worst).tobytes()
    if samples == 0:
        assert rep.worst_value == -np.inf


_GRIDS = [
    (5, 1),  # r = v^2 - 1 alone: every slice empty
    (1, 1),
    (9, 3),
    (37, 1500),
    (3, 20_000),  # one slice is more than a pass
    (1200, 1500),  # 1 800 000 points in 120 passes
]


# named v_count-rt_resolution-v_lo-v_hi, by the ends of the sweep's domain
@pytest.mark.parametrize("v_count, rt_resolution", _GRIDS,
                         ids=[f"{v}-{r}-{1.0 + 1e-6}-{3.0 - 1e-6}" for v, r in _GRIDS])
def test_blocked_sweep_equals_the_per_slice_loop(v_count, rt_resolution):
    _assert_sweep_is_the_loop(v_count, rt_resolution)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, math.log(2e5)))
def test_sweep_equals_the_per_slice_loop_on_random_grids(v_count, log_resolution):
    _assert_sweep_is_the_loop(v_count, round(math.exp(log_resolution)))


def test_pole_denominator_factors_on_a_slice():
    # tau (1 + r) D = (r - 2 tau)(r - tau (3 + 2 tau)) on the hyperbola, to rounding
    rng = np.random.default_rng(11)
    v = 1.0 + 2.0 * rng.random(2000)
    tau = 0.5 * (v - 1.0)
    r = tau + (v * v - 1.0 - tau) * rng.random(2000)
    t = _hyperbola_t(v, r)
    lhs = tau * (1.0 + r) * ineq._pole_denominator(tau, r, t)
    rhs = (r - 2.0 * tau) * (r - tau * (3.0 + 2.0 * tau))
    assert np.all(np.abs(lhs - rhs) <= 1e-14 * (r + tau * (3.0 + 2.0 * tau)) ** 2)


@pytest.mark.parametrize("v", [1.0 + 1e-6, 1.5, 2.0, 2.5, 3.0 - 1e-6])
def test_F_is_concave_across_a_slice(v):
    # second differences of F along r, strictly inside 2 tau < r < tau (3 + 2 tau)
    tau = 0.5 * (v - 1.0)
    width = 1.0 + 2.0 * tau
    r = tau * np.linspace(2.0 + 1e-3 * width, 3.0 + 2.0 * tau - 1e-3 * width, 2001)
    t = _hyperbola_t(v, r)
    denom = ineq._pole_denominator(tau, r, t)
    assert np.all(denom < 0.0)
    F = ineq._F(tau, r, t, denom)
    assert np.all(F[:-2] - 2.0 * F[1:-1] + F[2:] < 0.0)


@pytest.mark.parametrize("v_count, rt_resolution", [(1200, 1500), (10_000, 10_000)])
def test_sweep_peak_allocation_stays_bounded(v_count, rt_resolution):
    # a 1200 x 1500 grid and c01's: a pass holds one block of whole slices,
    # about 2^14 points, where a sweep of the whole grid at once would take
    # about 100 MB
    tracemalloc.start()
    try:
        ineq.sup_F_sweep(v_count=v_count, rt_resolution=rt_resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# the exact proof of the scalar bound


def _cubic_at(cubic, s):
    out = Fraction(0)
    for a in cubic:
        out = out * s + a
    return out


def _F_on_hyperbola(tau, s):
    # F at r = tau s, t on (1 + r)(1 + t) = v^2, with v = 1 + 2 tau
    r = tau * s
    t = _hyperbola_t(1.0 + 2.0 * tau, r)
    return ineq._F(tau, r, t, ineq._pole_denominator(tau, r, t))


def test_the_proof_closes_at_delta0_in_one_box():
    proof = ineq.certify_sup_F(ineq.DELTA0)
    assert proof.counterexample is None
    assert proof.boxes == ((2, 5, (-18, Fraction(-231, 16), Fraction(-39, 8), -18)),)
    assert proof.worst == Fraction(-39, 8)


def test_the_proof_closes_just_below_the_sharp_constant():
    proof = ineq.certify_sup_F(Fraction("1.1524"))
    assert proof.counterexample is None
    # the closed boxes tile [2, 5] in order, each with every coefficient negative
    lo, hi, _ = zip(*proof.boxes)
    assert lo[0] == 2 and hi[-1] == 5 and lo[1:] == hi[:-1]
    assert proof.worst == max(max(coef) for _, _, coef in proof.boxes) < 0
    # each box's end coefficients are p_c at its ends
    for a, b, coef in proof.boxes:
        assert (coef[0], coef[-1]) == (_cubic_at(proof.cubic, a), _cubic_at(proof.cubic, b))


def test_the_proof_fails_just_above_the_sharp_constant():
    proof = ineq.certify_sup_F(Fraction("1.1525"))
    s = proof.counterexample
    # p_c has its two roots in (2, 5) at 3.77598 and 3.78744
    assert Fraction("3.77598") < s < Fraction("3.78744")
    assert proof.worst == _cubic_at(proof.cubic, s) >= 0
    assert _F_on_hyperbola(1.0, float(s)) >= -1.1525


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 16), Fraction("1.1525"), Fraction(7, 3)])
def test_the_cubic_is_F_at_v_3_cleared_of_its_denominators(c):
    cubic = ineq.certify_sup_F(c).cubic
    assert _cubic_at(cubic, 2) == _cubic_at(cubic, 5) == -18
    # p_c(s) = (1 + s)(s - 2)(5 - s)(F(1, s) + c), F from `ineq._F` at tau = 1
    s = np.linspace(2.01, 4.99, 97)
    cleared = (1.0 + s) * (s - 2.0) * (5.0 - s) * (_F_on_hyperbola(1.0, s) + float(c))
    exact = np.array([float(_cubic_at(cubic, Fraction(x))) for x in s])
    assert np.allclose(cleared, exact, rtol=1e-12, atol=1e-12)


def test_F_increases_with_tau_at_fixed_s():
    # the proof's lemma: dF/dtau = 2 / (3 + 2 tau - s)^2 > 0 on Omega, here
    # by central differences along the hyperbola
    rng = np.random.default_rng(7)
    tau = 0.01 + 0.98 * rng.random(500)
    width = 1.0 + 2.0 * tau
    s = 2.0 + width * (0.05 + 0.9 * rng.random(500))
    step = 1e-5
    assert np.all(s < 3.0 + 2.0 * (tau - step))  # both differences stay in Omega
    slope = (_F_on_hyperbola(tau + step, s) - _F_on_hyperbola(tau - step, s)) / (2.0 * step)
    assert np.all(slope > 0.0)
    assert np.allclose(slope, 2.0 / (3.0 + 2.0 * tau - s) ** 2, rtol=1e-6, atol=0.0)


def test_the_sharp_constant_is_the_quartic_root():
    # F'(1, s) = 0 on (2, 5) is s^4 - 14 s^3 + 42 s^2 - 32 s + 73 = 0
    roots = np.roots([1.0, -14.0, 42.0, -32.0, 73.0])
    root = float(roots[(np.abs(roots.imag) < 1e-12) & (roots.real > 2.0) & (roots.real < 5.0)]
                 .real.item())
    assert root == pytest.approx(3.78171437452, abs=1e-11)
    s = np.linspace(2.0, 5.0, 3_000_001)[1:-1]
    F = _F_on_hyperbola(1.0, s)
    assert abs(s[np.argmax(F)] - root) <= 2e-6
    assert _F_on_hyperbola(1.0, root) == pytest.approx(-1.15246996739633, abs=1e-12)
    assert np.max(F) <= _F_on_hyperbola(1.0, root) + 1e-15


# ---------------------------------------------------------------------------
# stacks of group samples


SHAPES = [(n, m) for n in range(1, 6) for m in range(1, 6)]
GROUPS = ("I", "II", "III", "IV")


def _h_size(n, m, pattern):
    """Normals per sample of an array pattern, and entries per sparse sample."""
    p = min(n, m)
    return {"dense": m * n * n, "diag": p * n, "triple": p * (p - 1) * (p - 2),
            "lowrank": m * (n + 1), "sparse": max(3, n)}[pattern]


def _reference_h(n, m, pattern, raw):
    """One sample's h, built entry by entry from its raw numbers.

    raw is a flat sequence of normals for the array patterns (per component
    its vector, then its scale, for lowrank) and a sequence of (a, i, j,
    value) entries for sparse; this shares no code with `ineq._h_from`.
    """
    p = min(n, m)
    values = iter(raw)
    h = np.zeros((m, n, n))
    if pattern == "dense":
        for a in range(m):
            for i in range(n):
                for j in range(n):
                    h[a, i, j] = next(values)
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
    elif pattern == "diag":
        for j in range(p):
            for i in range(n):
                val = next(values)
                h[j, i, j] += val
                if i != j:
                    h[j, j, i] += val
    elif pattern == "triple":
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    if len({i, j, k}) == 3:
                        val = next(values)
                        h[i, j, k] += val
                        h[i, k, j] += val
    elif pattern == "lowrank":
        for a in range(m):
            vec = np.array([next(values) for _ in range(n)])
            h[a] = np.outer(vec, vec) * next(values)
    else:
        for a, i, j, val in raw:
            a, i, j = int(a), int(i), int(j)
            h[a, i, j] += val
            if i != j:
                h[a, j, i] += val
    return h


def _reference_draw(rng, n, m, pattern):
    """One sample drawn one variate at a time: test data, not the drawer's stream.

    lambda comes from numpy's `dirichlet` and h from one generator call per
    number, so this shares no code with `ineq._lam_from` or `ineq._h_from`.
    """
    p = min(n, m)
    budget = 2.0 * math.log(1.0 + 2.0 * rng.random())
    lam = np.sqrt(np.expm1(rng.dirichlet(np.ones(p)) * budget))
    if pattern == "sparse":
        raw = [(rng.integers(m), rng.integers(n), rng.integers(n), rng.normal())
               for _ in range(_h_size(n, m, pattern))]
    else:
        raw = [rng.normal() for _ in range(_h_size(n, m, pattern))]
    return lam, _reference_h(n, m, pattern, raw)


def _reference_stacks(rng, count):
    """draw_group_stacks' stacks, built one sample at a time from its stream.

    The stream is drawn in the order the drawer's docstring gives; then each
    sample k takes its row of every block, lambda from its budget and its
    first p exponentials with the shares summed left to right, and h from
    `_reference_h`.
    """
    ns, ms = rng.integers(1, 6, size=count), rng.integers(1, 6, size=count)
    r = rng.random(count)
    exps = rng.standard_exponential((count, 5))
    shapes = list(dict.fromkeys(zip(ns.tolist(), ms.tolist())))
    rows = {}  # (n, m, pattern): that block's rows, in order of k
    for n, m in shapes:
        for q, pattern in enumerate(ineq._PATTERNS):
            b = sum(1 for k in range(count) if (ns[k], ms[k]) == (n, m) and k % 5 == q)
            e = _h_size(n, m, pattern)
            if pattern == "sparse":
                a, i, j = (rng.integers(top, size=(b, e)) for top in (m, n, n))
                block = np.stack((a, i, j, rng.normal(size=(b, e))), axis=-1)
            else:
                block = rng.normal(size=(b, e))
            rows[n, m, q] = iter(block)
    drawn = {shape: [] for shape in shapes}
    for k in range(count):
        n, m = int(ns[k]), int(ms[k])
        e = exps[k, :min(n, m)]
        acc = 0.0
        for x in e:
            acc += x
        lam = np.sqrt(np.expm1(e * (1.0 / acc) * (2.0 * np.log(1.0 + 2.0 * r[k]))))
        h = _reference_h(n, m, ineq._PATTERNS[k % 5], next(rows[n, m, k % 5]))
        drawn[n, m].append((lam, h))
    return {shape: tuple(map(np.array, zip(*samples))) for shape, samples in drawn.items()}


def _reference_stack(rng, n, m, per_pattern):
    """(lam, h): per_pattern samples of each pattern, of one (n, m) shape."""
    samples = [_reference_draw(rng, n, m, pattern)
               for pattern in ineq._PATTERNS for _ in range(per_pattern)]
    return tuple(map(np.array, zip(*samples)))


@pytest.fixture(scope="module")
def verify_stacks():
    """{(n, m): (lam, h, group_totals, group_bounds)} of the stacks
    verify-prop41 checks at seed 61, evaluated once."""
    return {(n, m): (lam, h, ineq.group_totals(n, m, lam, h), ineq.group_bounds(n, m, lam, h))
            for (n, m), (lam, h) in
            ineq.draw_group_stacks(np.random.default_rng(61), 4000).items()}


def test_groups_vanish_without_curvature():
    lam, h = np.array([[0.5, 1.0, 0.2]]), np.zeros((1, 3, 4, 4))
    t = ineq.group_totals(4, 3, lam, h)
    b = ineq.group_bounds(4, 3, lam, h)
    assert t.grouped[0] == 0.0 and t.direct[0] == 0.0
    assert np.all(b.values == 0.0) and np.all(b.slack == 0.0)


@pytest.mark.parametrize("n,m", SHAPES)
def test_group_key_sets_follow_index_ranges(n, m):
    p = min(n, m)
    lam, h = _reference_stack(np.random.default_rng(4), n, m, 1)
    b = ineq.group_bounds(n, m, lam, h)
    I, II, III, IV = b.keys
    assert len(I) == n - p
    assert len(II) == (n - p) * math.comb(p, 2)
    assert len(III) == math.comb(p, 3)
    assert len(IV) == p
    assert all(p <= i < n for i in I)
    assert all(p <= i < n and 0 <= j < k < p for i, j, k in II)
    assert all(0 <= i < j < k < p for i, j, k in III)
    assert list(IV) == list(range(p))
    groups = sum(map(len, b.keys))
    assert b.values.shape == (len(lam), groups + 1)
    assert b.slack.shape == (len(lam), groups)


def _reference_groups(lam, h):
    """Group values and bound margins of one sample, one loop per group."""
    m, n = h.shape[:2]
    p, la = min(n, m), lam
    v = math.prod(math.sqrt(1.0 + x * x) for x in lam)
    diag = np.arange(p)
    vals = {"I": {}, "II": {}, "III": {}, "IV": {}}
    margins = {"I": {}, "II": {}, "III": {}, "IV": {}}
    for i in range(p, n):
        row = h[diag, i, diag]  # h_{j,ij}
        vals["I"][i] = np.sum((2.0 + la**2) * row * row) + ineq.C1 * (row @ la) ** 2
        margins["I"][i] = vals["I"][i] - 2.0 * np.sum(row * row)
    for i in range(p, n):
        for j in range(p):
            for k in range(j + 1, p):
                a, b = h[k, i, j], h[j, i, k]
                val = 2.0 * a * a + 2.0 * b * b + 2.0 * la[j] * la[k] * a * b
                vals["II"][(i, j, k)] = val
                margins["II"][(i, j, k)] = val - (3.0 - v) * (a * a + b * b)
    for i in range(p):
        for j in range(i + 1, p):
            for k in range(j + 1, p):
                a, b, c = h[i, j, k], h[j, k, i], h[k, i, j]
                val = 2.0 * (a * a + b * b + c * c) + 2.0 * (
                    la[i] * la[j] * a * b + la[j] * la[k] * b * c + la[k] * la[i] * c * a
                )
                vals["III"][(i, j, k)] = val
                margins["III"][(i, j, k)] = val - (3.0 - v) * (a * a + b * b + c * c)
    for i in range(p):
        val = (1.0 + la[i] ** 2) * h[i, i, i] ** 2
        base = h[i, i, i] ** 2
        for j in range(p):
            if j != i:
                val += (
                    (2.0 + la[j] ** 2) * h[j, i, j] ** 2
                    + h[i, j, j] ** 2
                    + 2.0 * la[i] * la[j] * h[i, j, j] * h[j, i, j]
                )
                base += h[i, j, j] ** 2 + 2.0 * h[j, i, j] ** 2
        val += ineq.C1 * (h[diag, i, diag] @ la) ** 2
        vals["IV"][i] = val
        margins["IV"][i] = val - 0.5 * (3.0 - v) * base
    leftover = np.sum(h[p:] ** 2) + np.sum(h[:p, p:, p:] ** 2)
    return vals, margins, leftover


@pytest.mark.parametrize("n,m", SHAPES)
def test_group_table_matches_pointwise_reference(n, m):
    lam, h = _reference_stack(np.random.default_rng(100 + 10 * n + m), n, m, 4)
    b = ineq.group_bounds(n, m, lam, h)
    for k in range(len(lam)):
        vals, margins, leftover = _reference_groups(lam[k], h[k])
        assert [list(keys) for keys in b.keys] == [list(vals[name]) for name in GROUPS]
        want = np.array([x for name in GROUPS for x in vals[name].values()] + [leftover])
        slack = np.array([x for name in GROUPS for x in margins[name].values()])
        tol = 1e-13 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(b.values[k] - want) <= tol)
        assert np.all(np.abs(b.slack[k] - slack) <= tol[:-1])


def test_regrouping_identity_random(verify_stacks):
    for *_, t, _ in verify_stacks.values():
        assert np.all(np.abs(t.grouped - t.direct) <= 1e-10 * np.maximum(1.0, np.abs(t.direct)))


def test_group_bounds_random_subcritical(verify_stacks):
    for *_, b in verify_stacks.values():
        assert np.all(b.slack >= -1e-12)


def test_master_margin_random_and_hierarchy(verify_stacks):
    for *_, t, _ in verify_stacks.values():
        assert np.all(t.margin >= -1e-12)


@pytest.mark.parametrize("pattern", ["diag", "triple", "lowrank", "dense", "sparse"])
def test_array_draws_match_the_per_entry_loops(pattern):
    for seed, (n, m) in enumerate(SHAPES):
        rng = np.random.default_rng(seed)
        e = _h_size(n, m, pattern)
        if pattern == "sparse":
            raw = np.stack([rng.integers(top, size=(7, e)) for top in (m, n, n)]
                           + [rng.normal(size=(7, e))], axis=-1)
        else:
            raw = rng.normal(size=(7, e))
        h = ineq._h_from(n, m, pattern, raw)
        assert h.shape == (7, m, n, n)
        for k in range(7):
            assert h[k].tobytes() == _reference_h(n, m, pattern, raw[k]).tobytes()


def test_stack_drawer_keeps_the_sample_loop_stream():
    loop, batch = np.random.default_rng(21), np.random.default_rng(21)
    stacks = _reference_stacks(loop, 600)
    drawn = ineq.draw_group_stacks(batch, 600)
    assert batch.random() == loop.random()
    assert list(drawn) == list(stacks)
    for shape, (lam, h) in drawn.items():
        assert lam.tobytes() == stacks[shape][0].tobytes()
        assert h.tobytes() == stacks[shape][1].tobytes()


def test_stack_drawer_keeps_the_stream_at_a_count_reaching_every_shape():
    # 613 is not a multiple of the five patterns, and seed 3 reaches all 25 shapes
    loop, batch = np.random.default_rng(3), np.random.default_rng(3)
    stacks = _reference_stacks(loop, 613)
    drawn = ineq.draw_group_stacks(batch, 613)
    assert batch.bit_generator.state == loop.bit_generator.state
    assert list(drawn) == list(stacks) and len(drawn) == 25
    for shape, (lam, h) in drawn.items():
        assert lam.tobytes() == stacks[shape][0].tobytes()
        assert h.tobytes() == stacks[shape][1].tobytes()


class _CountingGenerator:
    """Forwards to a Generator and counts the method calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return call


def test_stack_drawer_makes_a_fixed_number_of_generator_calls():
    # a loop over samples would make calls in proportion to the count
    calls = []
    for count in (600, 6000):
        rng = _CountingGenerator(np.random.default_rng(5))
        assert len(ineq.draw_group_stacks(rng, count)) == 25
        calls.append(rng.calls)
    assert calls[0] == calls[1] <= 4 + 25 * 8


@pytest.mark.parametrize("p", range(1, 6))
def test_lam_from_exponentials_reproduces_numpy_dirichlet(p):
    # src draws its Dirichlet shares from standard exponentials; this is the
    # reference they must equal, bit for bit, with the generator left as
    # dirichlet leaves it
    for seed in range(5):
        ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
        budget = 2.0 * np.log(1.0 + 2.0 * ref.random(37))
        got.random(37)
        want = np.sqrt(np.expm1(ref.dirichlet(np.ones(p), size=37) * budget[:, None]))
        lam = ineq._lam_from(got.standard_exponential((37, p)), budget)
        assert lam.tobytes() == want.tobytes()
        assert got.bit_generator.state == ref.bit_generator.state
        # one sample's draw, as a stack of one
        one = np.sqrt(np.expm1(ref.dirichlet(np.ones(p)) * budget[0]))
        lam = ineq._lam_from(got.standard_exponential(p)[None], budget[:1])
        assert lam.tobytes() == one.tobytes()
        assert got.bit_generator.state == ref.bit_generator.state


def test_draw_counts_must_be_nonnegative():
    rng = np.random.default_rng(0)
    assert ineq.draw_group_stacks(rng, 0) == {}
    for draw in (ineq.draw_group_stacks, ineq.sample_check):
        with pytest.raises(ValueError, match="nonnegative"):
            draw(rng, -1)


@pytest.mark.parametrize("n,m", SHAPES)
def test_group_totals_match_group_terms(n, m):
    # the grouped total is the sum of the group terms group_bounds returns,
    # and the margin is the master kernel's, bit for bit, as is master_margin
    lam, h = _reference_stack(np.random.default_rng(200 + 10 * n + m), n, m, 3)
    t = ineq.group_totals(n, m, lam, h)
    b = ineq.group_bounds(n, m, lam, h)
    margin = ineq._margins(lam, h)[0]
    assert t.grouped.tobytes() == b.values.sum(axis=-1).tobytes()
    assert t.margin.tobytes() == margin.tobytes()
    assert ineq.master_margin(n, m, lam, h).tobytes() == margin.tobytes()
    for k in range(len(lam)):
        assert t.b2[k] == np.sum(h[k] * h[k])


def test_every_stack_row_equals_its_sample_alone(verify_stacks):
    # the stacks verify-prop41 checks at seed 61, where a separate
    # single-sample kernel once differed from the stack in the last bits
    for (n, m), (lam, h, t, b) in verify_stacks.items():
        v = ineq._slope(lam)
        for k in range(len(lam)):
            one = lam[k:k + 1], h[k:k + 1]
            alone = ineq.group_totals(n, m, *one)
            row = np.array([*(x[k] for x in t), v[k]])
            assert row.tobytes() == np.concatenate([*alone, ineq._slope(one[0])]).tobytes(), \
                (n, m, k)
            bounds = ineq.group_bounds(n, m, *one)
            assert b.values[k].tobytes() == bounds.values[0].tobytes(), (n, m, k)
            assert b.slack[k].tobytes() == bounds.slack[0].tobytes(), (n, m, k)


def test_sample_check_makes_one_margin_call_per_shape(monkeypatch):
    shapes = len(ineq.draw_group_stacks(np.random.default_rng(8), 4000))
    calls = []
    margins = ineq._margins
    monkeypatch.setattr(ineq, "_margins", lambda *a: calls.append(1) or margins(*a))
    ineq.sample_check(np.random.default_rng(8), 4000)
    assert len(calls) == shapes <= 25


def _bad_stack_samples():
    """(lam, h, message) of one (n, m) = (3, 2) sample per way a check can fail."""
    h = np.zeros((2, 3, 3))
    asym = h.copy()
    asym[0, 0, 1] = 1.0
    nonfinite = [h.copy() for _ in range(3)]
    for bad, value in zip(nonfinite, (math.nan, math.inf, -math.inf)):
        bad[1, 2, 2] = value
    lam_finite = "angle values must be finite"
    return [(np.array([0.5, -0.1]), h, "angle values must be nonnegative"),
            (np.array([0.5, math.inf]), h, lam_finite),
            (np.zeros(2), nonfinite[0], "h must be finite"),
            (np.zeros(2), asym, "h must be symmetric in its last two indices"),
            (np.array([1e200, 1e200]), h, "slope value is not finite"),
            (np.zeros(3), h, "need 2 angle values, got shape (3,)"),
            (np.zeros(2), np.zeros((2, 3, 2)), "h must have shape (2, 3, 3)"),
            (np.array([0.5, math.nan]), h, lam_finite),
            (np.zeros(2), nonfinite[1], "h must be finite"),
            (np.zeros(2), nonfinite[2], "h must be finite")]


@pytest.mark.parametrize("case", range(10))
def test_stack_check_raises_as_group_sample(case):
    # each entry raises the message of one bad sample, also when the sample
    # is row 2 of a stack of four
    lam_bad, h_bad, message = _bad_stack_samples()[case]
    lam = np.full((4, *lam_bad.shape), 0.3)
    h = np.zeros((4, *h_bad.shape))
    lam[2], h[2] = lam_bad, h_bad
    for entry in (lambda: ineq.group_totals(3, 2, lam, h),
                  lambda: ineq.master_margin(3, 2, lam, h),
                  lambda: ineq.group_bounds(3, 2, lam, h)):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as raised:
            entry()
        assert str(raised.value) == message


def test_group_totals_of_an_empty_stack_are_float():
    t = ineq.group_totals(3, 2, np.zeros((0, 2)), np.zeros((0, 2, 3, 3)))
    for a in t:
        assert a.dtype == np.float64 and a.shape == (0,)


def test_group_bounds_need_subcritical():
    h = np.zeros((2, 2, 2, 2))
    for lam in ([[3.0, 3.0], [0.5, 0.5]], [[0.5, 0.5], [3.0, 3.0]]):
        with pytest.raises(ValueError, match="subcritical"):
            ineq.group_bounds(2, 2, np.array(lam), h)


def test_II_margin_tight_at_zero_angles():
    # with lambda = 0 the slope is 1 and each II margin collapses exactly
    h = np.zeros((1, 2, 3, 3))
    h[0, 1, 2, 0] = h[0, 1, 0, 2] = 0.7
    h[0, 0, 2, 1] = h[0, 0, 1, 2] = -0.4
    b = ineq.group_bounds(3, 2, np.zeros((1, 2)), h)
    column = len(b.keys[0]) + b.keys[1].index((2, 0, 1))
    assert b.slack[0, column] == pytest.approx(0.0, abs=1e-14)


def test_master_margin_trivial_cases():
    h = np.random.default_rng(3).normal(size=(1, 2, 3, 3))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    lam = np.zeros((1, 2))
    assert ineq.group_totals(3, 2, lam, h).margin[0] == 0.0 and ineq._slope(lam)[0] == 1.0
    lam = np.array([[0.4, 1.1]])
    assert ineq.group_totals(3, 2, lam, np.zeros((1, 2, 3, 3))).margin[0] == 0.0
    lam = np.array([[1.0, 1.0]])
    assert ineq.group_totals(2, 2, lam, np.zeros((1, 2, 2, 2))).margin[0] == 0.0
    assert ineq._slope(lam)[0] == pytest.approx(2.0, rel=1e-14)


def test_master_margin_near_critical_schedule():
    # lambda built as the adversarial search builds it, at each scheduled slope
    rng = np.random.default_rng(7)
    for slope in ineq.V_SCHEDULE:
        for n, m in SHAPES:
            p = min(n, m)
            budget = np.full(8, 2.0 * math.log(slope))
            lam = ineq._lam_from(rng.standard_exponential((8, p)), budget)
            raw = rng.normal(size=(8, m, n, n))
            margin = ineq.group_totals(n, m, lam, 0.5 * (raw + np.swapaxes(raw, -1, -2))).margin
            assert np.all(np.abs(ineq._slope(lam) - slope) <= 1e-9 * slope)
            assert np.all(margin >= -1e-12)


def test_batched_margins_match_scalar():
    lam, h = _reference_stack(np.random.default_rng(12), 4, 3, 13)
    batched = ineq.group_totals(4, 3, lam, h).margin
    for i in range(len(lam)):
        assert batched[i] == ineq.group_totals(4, 3, lam[i:i + 1], h[i:i + 1]).margin[0]


def test_batched_margins_check_their_stack():
    lam = np.full((3, 2), 0.5)
    h = np.zeros((3, 2, 3, 3))
    h[:, 0, 0, 1] = h[:, 0, 1, 0] = 1.0
    assert np.all(ineq.group_totals(3, 2, lam, h).margin >= 0.0)
    bad_lam = lam.copy()
    bad_lam[1, 0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        ineq.group_totals(3, 2, bad_lam, h)
    bad_h = h.copy()
    bad_h[2, 1, 0, 2] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        ineq.group_totals(3, 2, lam, bad_h)
    with pytest.raises(ValueError, match="shape"):
        ineq.group_totals(3, 2, lam, h[0])
    with pytest.raises(ValueError, match="angle values"):
        ineq.group_totals(3, 2, np.full((3, 3), 0.5), h)


def test_longdouble_recheck_consistent():
    rng = np.random.default_rng(13)
    ld = np.longdouble
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(1, 6, size=2))
        lam, h = (x[None] for x in _reference_draw(rng, n, m, "dense"))
        a = ineq.group_totals(n, m, lam, h).margin[0]
        b = ineq._margins(lam.astype(ld), h.astype(ld))[0][0]
        assert a == pytest.approx(float(b), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_master_kernel_row_is_its_stack_of_one(dtype):
    rng = np.random.default_rng(15)
    for n, m in SHAPES:
        p = min(n, m)
        lam = (np.abs(rng.normal(size=(12, p))) * 0.5).astype(dtype)
        h = rng.normal(size=(12, m, n, n))
        h = (0.5 * (h + np.swapaxes(h, -1, -2))).astype(dtype)
        stacked = ineq._master_kernel(lam, h)
        # a layout other than C order must not change a row's bits either
        flipped = ineq._master_kernel(lam, np.asfortranarray(h))
        for k in range(len(lam)):
            alone = ineq._master_kernel(lam[k:k + 1], h[k:k + 1])
            for a, b, c in zip(stacked, flipped, alone):
                assert a.dtype == c.dtype == dtype and c.shape == (1,)
                # equality, not bytes: a longdouble's padding bytes are not its value
                assert a[k] == b[k] == c[0]


def test_master_kernel_keeps_dtype_and_longdouble_agrees():
    rng = np.random.default_rng(16)
    lam = np.abs(rng.normal(size=(32, 3))) * 0.4
    h = rng.normal(size=(32, 4, 5, 5))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    ld = np.longdouble
    wide = ineq._master_kernel(lam.astype(ld), h.astype(ld))
    for a, b in zip(ineq._master_kernel(lam, h), wide):
        assert a.dtype == np.float64 and b.dtype == ld
        assert np.max(np.abs(a - b.astype(float))) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def test_master_kernel_total_is_the_sum_of_the_log_v_forms():
    # total(lam, h) = sum_i [Hess log v(Z_i) + C1 (d log v(Z_i))^2], where
    # Z_i[j, a] = h_{a,ij} is the plane-map image of frame row i in the
    # adapted frames of a plane with principal angles lam against R^n x 0
    rng = np.random.default_rng(21)
    worst = 0.0
    for n in range(1, 6):
        for m in range(1, 6):
            ref = grassmann.OrientedFrame(np.eye(n + m)[:n])
            for _ in range(20):
                q = np.linalg.qr(rng.standard_normal((n + m, n + m)))[0]
                rows = np.linalg.qr((np.eye(n + m) + 0.6 * q)[:n].T)[0].T
                spec = grassmann.jordan_spectrum(grassmann.OrientedFrame(rows), ref)
                h = rng.standard_normal((m, n, n))
                h = 0.5 * (h + np.swapaxes(h, -1, -2))
                forms = 0.0
                for i in range(n):
                    Z = grassmann.TangentCoeffs(h[:, i, :].T, spec.tangent_frame)
                    forms += (grassmann.hess_logv_form(spec, Z)
                              + ineq.C1 * grassmann.dlogv_form(spec, Z) ** 2)
                total = ineq._master_kernel(spec.lam[None], h[None])[0][0]
                worst = max(worst, abs(forms - total) / abs(total))
    assert worst <= 1e-13


@pytest.mark.parametrize("seed, regroup_max, min_margin, zero_forms", [
    (0, "0x1.c342c49ad7762p-51", "0x1.8eb4e1d038c83p-10", 514),
    (61, "0x1.8fea68a689efep-51", "0x1.b0116c8890c21p-12", 504),
], ids=["0", "61"])
def test_sample_check_values_are_pinned(seed, regroup_max, min_margin, zero_forms):
    # verify-prop41's sampled check reads these bits; they move with the order
    # in which draw_group_stacks consumes the stream, or with the kernel's
    # summation order
    r = ineq.sample_check(np.random.default_rng(np.random.SeedSequence(seed)), 4000)
    assert r.regroup_max == float.fromhex(regroup_max)
    assert r.min_margin == float.fromhex(min_margin)
    assert r.zero_forms == zero_forms


def test_sampled_margin_ratio_is_at_least_the_min_over_h():
    # sample_check's min_margin is a margin / |B|^2, which min_margin_over_h
    # bounds below at each sample's lambda; the smallest |B|^2 here is 7.1e-19
    stacks = ineq.draw_group_stacks(np.random.default_rng(np.random.SeedSequence(61)), 4000)
    for (n, m), (lam, h) in stacks.items():
        t = ineq.group_totals(n, m, lam, h)
        curved = t.b2 > 0.0
        kappa, _ = ineq.min_margin_over_h(n, m, lam[curved])
        assert np.all(t.margin[curved] / t.b2[curved] >= kappa - 1e-12), (n, m)


def test_adversarial_search_finds_no_violation():
    report = ineq.adversarial_margin_search(seed=5, restarts=300)
    assert report.worst_margin >= -1e-12
    assert report.violations == []
    assert report.evaluations == (300 // 24) * 24


def test_search_is_deterministic_in_seed():
    a = ineq.adversarial_margin_search(seed=21, restarts=60)
    b = ineq.adversarial_margin_search(seed=21, restarts=60)
    assert a.worst_margin == b.worst_margin


_SEARCH_SHAPES = [(n, m) for n in range(1, 6) for m in range(1, 6) if min(n, m) <= 4]


def _search_lambdas(rng, p, count):
    budgets, exps = zip(*((2.0 * math.log(1.0 + 2.0 * rng.random()), rng.standard_exponential(p))
                          for _ in range(count)))
    return ineq._lam_from(np.array(exps), np.array(budgets))


@pytest.mark.parametrize("n, m", _SEARCH_SHAPES)
def test_min_over_h_is_below_sampled_margins(n, m):
    rng = np.random.default_rng(100 + 10 * n + m)
    for lam in _search_lambdas(rng, min(n, m), 4):
        kappa, _ = ineq.min_margin_over_h(n, m, lam[None])
        raw = rng.normal(size=(200, m, n, n))
        h = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        margin, total, b2, _ = ineq._margins(np.broadcast_to(lam, (200, len(lam))), h)
        # at (1, 1) every h is a minimizer, so allow the rounding of the total
        assert np.all(kappa[0] <= margin / b2 + 1e-12 * np.maximum(1.0, total / b2))


@pytest.mark.parametrize("n, m", _SEARCH_SHAPES)
def test_minimizing_h_reproduces_the_minimum(n, m):
    rng = np.random.default_rng(200 + 10 * n + m)
    lam = _search_lambdas(rng, min(n, m), 16)
    kappa, h = ineq.min_margin_over_h(n, m, lam)
    assert h.shape == (16, m, n, n)
    assert np.array_equal(h, np.swapaxes(h, -1, -2))
    total, b2, v = ineq._master_kernel(lam, h)
    assert np.max(np.abs(b2 - 1.0)) <= 1e-14
    # relative to the total, the quantity the eigenvalue solver resolves
    margin = total - 0.5 * (3.0 - v) * b2
    assert np.all(np.abs(margin / b2 - kappa) <= 1e-12 * np.maximum(1.0, total / b2))


_ALL_SHAPES = [(n, m) for n in range(1, 6) for m in range(1, 6)]


@pytest.mark.parametrize("n, m", _ALL_SHAPES)
def test_margin_form_blocks_hold_every_coupling(n, m):
    # T(lam), built dense from the monomials, is exactly 0 between two cached
    # blocks, and the blockwise minimum is the dense form's smallest eigenvalue
    f = ineq._margin_form(n, m)
    la, lb, r, c = f.index
    size = len(f.scale)
    members = [b for size_blocks in f.blocks for b in size_blocks]
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(size))
    block = np.empty(size, dtype=int)
    for g, b in enumerate(members):
        block[b] = g
    assert max(map(len, members)) == (9 if (n, m) == (5, 5) else 2 * min(n, m) - 1)
    assert np.all(r >= c)
    rng = np.random.default_rng(300 + 10 * n + m)
    lam = _search_lambdas(rng, min(n, m), 6)
    kappa, _ = ineq.min_margin_over_h(n, m, lam)
    lam1 = np.concatenate((lam, np.ones((len(lam), 1))), axis=-1)
    for row, weights in enumerate(lam1[:, la] * lam1[:, lb] * f.const):
        lower = np.zeros((size, size))
        np.add.at(lower, (r, c), weights)
        T = lower + np.tril(lower, -1).T
        assert np.all(T[block[:, None] != block] == 0.0)
        eig = np.linalg.eigvalsh(T)
        dense = eig[0] - 0.5 * (3.0 - ineq._slope(lam[row]))
        assert abs(kappa[row] - dense) <= 1e-13 * max(1.0, np.max(np.abs(eig)))


def test_search_solves_blocks_of_at_most_seven_once_per_size(monkeypatch):
    # one eigh call per block size and shape, none past 7 x 7: a dense solve of
    # up to 60 x 60 woke OpenBLAS's second thread, stalling the first search
    calls, shapes = [], []
    eigh, solve = np.linalg.eigh, ineq.min_margin_over_h
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: (
        calls.append((shapes[-1], a.shape[-2:])) or eigh(a, *args, **kwargs)))
    monkeypatch.setattr(ineq, "min_margin_over_h", lambda n, m, lam: (
        shapes.append((n, m)) or solve(n, m, lam)))
    ineq.adversarial_margin_search(seed=1, restarts=400)
    assert sorted(shapes) == _SEARCH_SHAPES
    assert all(k == j <= 7 for _, (k, j) in calls)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("lam", [(0.5, 0.4), (1.2, 1.2), (1.3, 1.5)])
def test_min_over_h_closed_form_at_3_2(lam):
    # group II's 2x2 block is lowest here: kappa = (v - 1 - lam_1 lam_2) / 2
    kappa, _ = ineq.min_margin_over_h(3, 2, np.array([lam]))
    v = math.sqrt((1.0 + lam[0] ** 2) * (1.0 + lam[1] ** 2))
    assert abs(kappa[0] - 0.5 * (v - 1.0 - lam[0] * lam[1])) <= 1e-12


def test_min_over_h_below_the_group_II_block_where_another_is_lower():
    kappa, _ = ineq.min_margin_over_h(3, 2, np.array([[2.0, 0.3]]))
    v = math.sqrt(5.0 * 1.09)
    assert kappa[0] < 0.5 * (v - 1.0 - 0.6) - 0.05


@pytest.mark.parametrize("n, m", _SEARCH_SHAPES)
def test_min_over_h_vanishes_at_zero_angles(n, m):
    kappa, _ = ineq.min_margin_over_h(n, m, np.zeros((1, min(n, m))))
    assert abs(kappa[0]) <= 1e-14


@pytest.mark.parametrize("lam", [[[0.5, 0.4, 0.3]], [[0.5, -0.1]], [[0.5, math.nan]],
                                 [[0.5, math.inf]], [0.5, 0.4]])
def test_min_over_h_checks_its_angle_values(lam):
    # a NaN once reached the eigen-solver, whose LinAlgError is a ValueError too
    with pytest.raises(ValueError, match="angle values"):
        ineq.min_margin_over_h(3, 2, np.array(lam))


_EQUALITY_SHAPES = [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (4, 4), (5, 5), (3, 5)]


def _equal_angles(p, a):
    """lam = (a, a, 0, ...) of length p, one row per value of a."""
    lam = np.zeros((len(a), p))
    lam[:, :2] = np.asarray(a)[:, None]
    return lam


@pytest.mark.parametrize("n, m", _EQUALITY_SHAPES)
def test_prop41_is_an_equality_on_equal_angles(n, m):
    # at lam = (a, a, 0, ...), v = 1 + a^2, the fixed h* below attains
    # total = (3 - v)|B|^2 / 2 and every group's bound at once, for every v < 3
    a = np.linspace(0.05, 1.41, 28)
    lam = _equal_angles(min(n, m), a)
    h = np.zeros((len(a), m, n, n))
    h[:, 0, 1, 2] = h[:, 0, 2, 1] = 0.5
    h[:, 1, 0, 2] = h[:, 1, 2, 0] = -0.5
    t = ineq.group_totals(n, m, lam, h)
    assert np.all(t.b2 == 1.0)
    assert np.max(np.abs(t.margin)) <= 1e-15
    assert np.max(np.abs(ineq.group_bounds(n, m, lam, h).slack)) <= 1e-15
    kappa, _ = ineq.min_margin_over_h(n, m, lam)
    assert np.max(np.abs(kappa)) <= 1e-14


@pytest.mark.parametrize("m", [2, 5])
def test_prop41_is_strict_on_equal_angles_at_n_2(m):
    # with two tangent directions h* does not exist; the minimum is 0.1578 a^2
    a = np.linspace(0.5, 1.41, 28)
    kappa, _ = ineq.min_margin_over_h(2, m, _equal_angles(2, a))
    assert np.min(kappa) >= 0.03


def test_min_over_h_vanishes_on_equal_angles_at_3_2():
    # v = 1 + lam^2 there, so v - 1 - lam_1 lam_2 = 0 for every v < 3
    t = np.linspace(0.0, math.sqrt(2.0), 50, endpoint=False)
    kappa, _ = ineq.min_margin_over_h(3, 2, np.stack([t, t], axis=1))
    assert np.max(np.abs(kappa)) <= 1e-14


# ---------------------------------------------------------------------------
# plumbing


def test_certificate_and_dump_json():
    proof = ineq.certify_sup_F(ineq.DELTA0)
    text = cli.dump_json(cli._proof_certificate(proof))
    data = json.loads(text)
    assert data["bound"] == -0.0625
    assert data["proved"] is True and data["counterexample"] is None
    assert data["cubic"] == ["-17/16", "67/8", "-275/16", "-69/8"]
    assert data["boxes"] == [{"lo": "2", "hi": "5", "bernstein": ["-18", "-231/16", "-39/8", "-18"]}]
    assert data["samples"] == len(proof.boxes) == 1
    assert cli.dump_json(data) == text


def test_search_skips_the_recheck_when_nothing_is_flagged(monkeypatch):
    # the extended-precision recheck runs on flagged minima only
    calls = []
    margins = ineq._margins
    monkeypatch.setattr(ineq, "_margins", lambda lam, h: calls.append(len(lam)) or margins(lam, h))
    report = ineq.adversarial_margin_search(seed=14, restarts=48)
    assert report.worst_margin >= -ineq.MARGIN_TOL and not report.violations and calls == []


def test_search_records_every_confirmed_minimum_with_its_longdouble_margin(monkeypatch):
    # at this tolerance every minimum is flagged, and its recheck confirms it
    monkeypatch.setattr(ineq, "MARGIN_TOL", -1e9)
    report = ineq.adversarial_margin_search(seed=14, restarts=48)
    assert len(report.violations) == report.evaluations == 48
    ld = np.longdouble
    for record in report.violations:
        rt = json.loads(json.dumps(record))
        assert rt == record and rt["C1"] == 16.0
        sample = rt["sample"]
        assert set(sample) == {"n", "m", "lam", "h", "v", "subcritical"}
        lam, h = np.array([sample["lam"]]), np.array([sample["h"]])
        assert h.shape == (1, sample["m"], sample["n"], sample["n"])
        v = ineq._slope(lam)
        assert sample["v"] == v[0] and sample["subcritical"] == (v[0] < 3.0)
        assert rt["master_margin"] == float(ineq._margins(lam.astype(ld), h.astype(ld))[0][0])
