"""Batch driver: every verification suite and flow experiment as a subcommand.

Each subcommand reads an optional JSON config, runs its checks, writes a
versioned JSON report plus CSV/SVG artifacts into the output directory, and
exits 0 on PASS or OBSERVATION, 1 on FAIL, 2 on a configuration error: a
bad config, an output directory that cannot be made, or a SOURCE_DATE_EPOCH
that is not whole seconds, each found before any artifact is written.
Identical config and seed produce byte-identical CSV/JSON artifacts (set
SOURCE_DATE_EPOCH to pin the provenance timestamp as well).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import glob
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import __version__, graphflow, grassmann, immersion, ineq, sphere
from .grassmann import OrientedFrame, TangentCoeffs

REPORT_SCHEMA = "shrinkerlab.run-report/1"
BUNDLE_SCHEMA = "shrinkerlab.report-bundle/1"
CONFIG_SCHEMA = "shrinkerlab.run-config/1"


class ConfigError(ValueError):
    """Invalid run configuration; the process exits with code 2."""


# ---------------------------------------------------------------------------
# report records


@dataclass(frozen=True)
class CheckRecord:
    """One judged numeric: FAIL when a mandatory margin drops below -tolerance."""

    name: str
    value: float
    bound: float
    margin: float
    tolerance: float
    kind: str  # "mandatory" or "observation"


def check_le(name, value, bound, tolerance, kind="mandatory"):
    """Check that value <= bound, with `tolerance` of slack before FAIL."""
    value, bound = float(value), float(bound)
    return CheckRecord(name, value, bound, bound - value, float(tolerance), kind)


def check_ge(name, value, bound, tolerance, kind="mandatory"):
    """Check that value >= bound, with `tolerance` of slack before FAIL."""
    value, bound = float(value), float(bound)
    return CheckRecord(name, value, bound, value - bound, float(tolerance), kind)


def report_status(checks) -> str:
    # a NaN margin fails: only a margin of at least -tolerance passes
    if any(c.kind == "mandatory" and not (c.margin >= -c.tolerance) for c in checks):
        return "FAIL"
    if any(c.kind == "observation" for c in checks):
        return "OBSERVATION"
    return "PASS"


@dataclass
class RunReport:
    subcommand: str
    seed: int
    checks: list = dc_field(default_factory=list)
    artifacts: list = dc_field(default_factory=list)

    @property
    def status(self) -> str:
        return report_status(self.checks)

    def as_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "subcommand": self.subcommand,
            "status": self.status,
            "checks": [asdict(c) for c in self.checks],
            "artifacts": sorted(self.artifacts),
            "provenance": {
                "seed": self.seed,
                "version": __version__,
                "timestamp": run_timestamp(),
            },
        }

    def write_artifact(self, outdir, name, text):
        """Write text to the file name in outdir and list it as an artifact."""
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.artifacts.append(name)


def run_timestamp() -> str:
    """UTC timestamp string; honors SOURCE_DATE_EPOCH for reproducible runs
    (ConfigError unless it is whole seconds that name a date)."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = int(raw) if raw else int(time.time())
        when = datetime.datetime.fromtimestamp(stamp, datetime.timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970, "
                          f"got {raw!r}") from exc
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def dump_json(payload) -> str:
    """Canonical JSON used for every artifact, so round trips are stable."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# configuration

DEFAULTS = {
    "verify-targets": {
        "seed": 0,
        "probes": 240,
        "fd_step": 1e-4,
        "tol_hessian": 1e-5,
        "residual_csv": "target_residuals.csv",
    },
    "verify-shrinkers": {
        "seed": 0,
        "probes": 120,
        "surfaces": ["plane:n=2,m=2", "sphere:n=2,R=2", "cylinder:k=1,n=2"],
        # off-center: the weighted tension vanishes identically on every
        # centered round sphere, so only a shifted one exercises the control
        "control_surfaces": ["sphere:n=2,R=1,c1=0.5"],
        "composition_probes": 20,
        "tol_residual": 1e-10,
        "tol_tension": 1e-6,
        "tol_composition": 1e-4,
        "control_floor": 1e-2,
        "residual_csv": "shrinker_residuals.csv",
    },
    "verify-prop41": {
        "seed": 0,
        "samples": 4000,
        "restarts": 400,
        "tol_regroup": 1e-10,
        "tol_margin": 1e-12,
        "certificate": "prop41_certificate.json",
    },
    "flow-graph": {
        "seed": 0,
        "n": 2,
        "m": 1,
        "box": 1.0,
        "resolution": 25,
        "amplitude": 0.3,
        "max_steps": 60_000,
        "sample_interval": 200,
        "threshold": 1e-8,
        "tol_b2": 1e-6,
        "tol_affine": 1e-6,
        "trace_csv": "flow_trace.csv",
        "trace_svg": "flow_trace.svg",
        "field_csv": "flow_final.csv",
    },
    "report": {
        "seed": 0,
        "run_dir": "",
        "bundle": "bundle.json",
    },
}


def _catalog_name(name):
    """Whether immersion.catalog_immersion builds a surface from name."""
    if not isinstance(name, str):
        return False
    try:
        immersion.catalog_immersion(name)
    except (ValueError, ArithmeticError, LookupError):  # how malformed names fail
        return False
    return True


def _file_name(name):
    """Whether name is a plain file name: nonempty, not . or .., with no
    directory part and no NUL, which no file name holds."""
    return (name not in ("", ".", "..") and "\0" not in name
            and os.path.basename(name) == name)


# the range of each value type in load_config, and the keys whose range differs
_TYPE_RANGES = {
    int: (lambda x: x >= 1, "a positive integer"),
    float: (lambda x: x > 0.0, "a positive finite number"),
    str: (_file_name, "a file name with no directory part or NUL, not empty, . or .."),
    list: (lambda x: bool(x) and all(map(_catalog_name, x)),
           "a nonempty list of catalog surface names"),
}
_KEY_RANGES = {
    "seed": (lambda x: x >= 0, "a nonnegative integer"),
    "run_dir": (lambda x: True, "a string"),
    "resolution": (lambda x: x >= 5, "an integer of at least 5"),
    "amplitude": (lambda x: x >= 0.0, "a nonnegative finite number"),
}


def _typed(key, val, default):
    """val with the type of the key's default (an int taken as a float where
    the default is one), or ConfigError if the type or the range is wrong."""
    kind = type(default)
    if kind is float and type(val) is int and abs(val) < 1e308:  # float() takes it
        val = float(val)
    accept, expected = _KEY_RANGES.get(key) or _TYPE_RANGES[kind]
    if type(val) is not kind or (kind is float and not math.isfinite(val)) or not accept(val):
        raise ConfigError(f"config key {key!r} must be {expected}, got {val!r}")
    return val


def load_config(subcommand, path=None, seed=None):
    """Merge defaults, file payload, and the seed flag into one dict.

    Unknown keys are rejected, and every value must have the type of its
    default and lie in its key's range: counts positive, tolerances and
    other numbers positive and finite, surface lists nonempty and made of
    names the catalog builds.
    Every string but run_dir names an artifact: a plain file name, which
    differs from the subcommand's other artifacts and from its report.
    """
    if subcommand not in DEFAULTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cfg = {k: (list(v) if isinstance(v, list) else v)
           for k, v in DEFAULTS[subcommand].items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long integer
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config payload must be a JSON object")
        schema = payload.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}")
        for key, val in payload.items():
            if key not in cfg:
                raise ConfigError(
                    f"unknown config key {key!r} for {subcommand}"
                )
            cfg[key] = val
    if seed is not None:
        cfg["seed"] = seed
    for key, default in DEFAULTS[subcommand].items():
        cfg[key] = _typed(key, cfg[key], default)
    names = [v for k, v in cfg.items() if type(v) is str and k != "run_dir"]
    if subcommand == "report":  # the bundle's CSV and SVG take its stem
        names += [os.path.splitext(cfg["bundle"])[0] + ext for ext in (".csv", ".svg")]
    names.append(f"report_{subcommand}.json")
    if len(set(names)) < len(names):
        raise ConfigError(f"artifact names of {subcommand} must differ, got {names}")
    return cfg


# ---------------------------------------------------------------------------
# finite differences

# the times +step, 0 and -step of _second_difference, in units of step
_STENCIL = np.array([1.0, 0.0, -1.0])


def _second_difference(fp, f0, fm, step):
    """Central second difference from the values at +step, 0 and -step."""
    return (fp - 2.0 * f0 + fm) / step**2


def _relative_defect(approx, closed):
    """|approx - closed| / max(1, |closed|), elementwise."""
    return np.abs(approx - closed) / np.maximum(1.0, np.abs(closed))


# ---------------------------------------------------------------------------
# verify-targets: finite-difference probes of the closed-form Hessians

TARGET_FAMILIES = (
    "sphere_height_hess",
    "sphere_r_hess",
    "sphere_theta_hess",
    "grassmann_v_hess",
    "grassmann_logv_hess",
    "grassmann_dlogv",
    "m1_reduction",
)


def _draw_units(rng, count, dim, keep=None):
    """count unit vectors (count, dim) in rounds: the first round draws every
    row, each later one redraws only the rows that were too short to
    normalise or that keep(units, rows) rejects, with rows their indices."""
    out = np.empty((count, dim))
    rows = np.arange(count)
    while len(rows):
        x = rng.standard_normal((len(rows), dim))
        nrm = np.sqrt(sphere._dot(x, x))
        ok = nrm > 1e-6
        u = x / np.where(ok, nrm, 1.0)[:, None]
        if keep is not None:
            ok &= keep(u, rows)
        out[rows[ok]] = u[ok]
        rows = rows[~ok]
    return out


def _longitude_margin(y, rows):
    # margin from the polar set and the deleted half-equator, and theta away
    # from +-pi so differences never cross the cut
    r = np.hypot(y[:, 0], y[:, 1])
    return (r >= 0.35) & (y[:, 0] > -0.8 * r)


def _draw_targets(rng, count):
    """The random draws of count probes of every family, as arrays.

    Returns ((x, a, w), (y, w), grass, (tilt, om)): the height probes'
    points, poles and tangent coordinates; the longitude probes' points and
    tangent coordinates; grass, {(n, m): (rows, gauss, chart_om, scale, om)}
    in sorted shape order, the Grassmannian probes of each shape with their
    probe indices, the Gaussian matrices of the base planes, the chart
    velocities and their scales, and the probe velocities; and the
    reduction's tilts and velocities.

    The generator is called in bulk, in this order: standard_normal((count,
    3)) for the height points, then for the poles, standard_normal((count,
    2)) for the height tangent coordinates, (count, 3) for the longitude
    points and (count, 2) for their tangent coordinates, each unit set
    followed by its redraw rounds (`_draw_units`: a norm at most 1e-6, a
    pole with |x.a| < 0.3, a longitude point outside `_longitude_margin`);
    integers(1, 4, count) for every n, then for every m; uniform(0.1, 1.0,
    count) for the scales; per shape in sorted order, standard_normal((B,
    (n + m) n + 2 n m)) over its B probes in probe order, whose columns are
    the Gaussian matrix, the chart velocity and the probe velocity; then
    uniform(0.1, 1.0, count) for the tilts and standard_normal((count, 2,
    1)) for the reduction's velocities.  So the calls do not depend on
    count, at most 19 besides the redraw rounds.
    """
    x = _draw_units(rng, count, 3)
    a = _draw_units(rng, count, 3, lambda u, rows: np.abs(sphere._dot(u, x[rows])) >= 0.3)
    height = (x, a, _draw_units(rng, count, 2))
    longitude = (_draw_units(rng, count, 3, _longitude_margin), _draw_units(rng, count, 2))
    ns, ms = rng.integers(1, 4, count), rng.integers(1, 4, count)
    scale = rng.uniform(0.1, 1.0, count)
    grass = {}
    for n, m in sorted(set(zip(ns.tolist(), ms.tolist()))):
        rows = np.flatnonzero((ns == n) & (ms == m))
        block = rng.standard_normal((len(rows), (n + m) * n + 2 * n * m))
        k = (n + m) * n
        grass[n, m] = (rows, block[:, :k].reshape(-1, n + m, n),
                       block[:, k:k + n * m].reshape(-1, n, m), scale[rows],
                       block[:, k + n * m:].reshape(-1, n, m))
    reduction = (rng.uniform(0.1, 1.0, count), rng.standard_normal((count, 2, 1)))
    return height, longitude, grass, reduction


def _unit_rows(y):
    return y / np.sqrt(sphere._dot(y, y))[..., None]


def _circle_stencil(x, w, step):
    """Tangent vectors u at points x (N, 3) from frame coordinates w (N, 2),
    and the unit points (N, 3, 3) at times +step, 0, -step on their great
    circles."""
    u = (w[:, None] @ sphere.tangent_frame(x))[:, 0]
    return u, _unit_rows(sphere.great_circle(x[:, None], u[:, None], step * _STENCIL))


def _height_residuals(x, a, w, step):
    u, y = _circle_stencil(x, w, step)
    d2 = _second_difference(*sphere.height_value(y, a[:, None]).T, step)
    return _relative_defect(d2, sphere.height_hessian(x, a, u, u))


def _longitude_residuals(x, w, step):
    u, y = _circle_stencil(x, w, step)
    r, theta = sphere.longitude_coords(y)
    hr, ht = sphere.longitude_hessians(x, u, u)
    return (_relative_defect(_second_difference(*r.T, step), hr),
            _relative_defect(_second_difference(*theta.T, step), ht))


def _frame_in_chart(base, om, scale):
    """Planes at distance up to 1.1 from base planes, along the velocities om
    scaled by scale over their top singular values."""
    top = np.maximum(np.linalg.svd(om)[1][:, 0], 1e-12)
    om = om * (1.1 * scale / top)[:, None, None]
    return grassmann.geodesic_from_velocity(base, grassmann.complement(base.vectors), om, 1.0)


def _grassmann_residuals(gauss, chart_om, scale, om, step):
    """The v, log v and d log v residuals of probes of one shape (n, m)."""
    base = OrientedFrame(np.linalg.qr(gauss)[0].swapaxes(-1, -2))
    spec = grassmann.jordan_spectrum(_frame_in_chart(base, chart_om, scale), base)
    flat = om.reshape(len(om), -1)
    om = om / np.sqrt(sphere._dot(flat, flat))[:, None, None]
    Z = TangentCoeffs(om, spec.tangent_frame)

    # v at t = +step, 0, -step from one geodesic and one overlap_values call
    frames = grassmann.geodesic_from_velocity(
        spec.tangent_frame, spec.normal_frame, om, step * _STENCIL)
    v = grassmann.v_values(grassmann.overlap_values(frames, OrientedFrame(base.vectors[:, None])))
    (vp, v0, vm), (lp, l0, lm) = v.T, np.log(v).T
    return (
        _relative_defect(_second_difference(vp, v0, vm, step), grassmann.hess_v_form(spec, Z)),
        _relative_defect(_second_difference(lp, l0, lm, step),
                         grassmann.hess_logv_form(spec, Z)),
        _relative_defect((lp - lm) / (2.0 * step), grassmann.dlogv_form(spec, Z)),
    )


def _reduction_residuals(a, om, step):
    """Codimension-one degeneration: v equals the secant of the tilt angle a."""
    nu0 = np.array([0.0, 0.0, 1.0])
    nu = sphere.great_circle(nu0, np.array([1.0, 0.0, 0.0]), a)
    r1 = _unit_rows(np.cross(np.array([0.0, 1.0, 0.0]), nu))
    P = OrientedFrame(np.stack([r1, np.cross(nu, r1)], axis=-2))
    spec = grassmann.jordan_spectrum(P, OrientedFrame(np.eye(3)[:2]))
    sec = 1.0 / np.cos(a)
    res = np.abs(grassmann.v_values(spec.mu) - sec) / sec
    Z = TangentCoeffs(om, spec.tangent_frame)

    # the secant along the geodesic from the normal n_t = r1 x r2 of its frames
    rows = grassmann.geodesic_from_velocity(
        spec.tangent_frame, spec.normal_frame, om, step * _STENCIL).vectors
    n_t = np.cross(rows[..., 0, :], rows[..., 1, :])
    fd = _second_difference(*(1.0 / np.abs(sphere._dot(n_t, nu0))).T, step)
    fd = _relative_defect(fd, grassmann.hess_v_form(spec, Z))
    return np.where(fd > res, fd, res)  # max(res, fd), NaN in res kept


def _target_batch(seed_seq, count, step):
    """Residuals (count, 7) of count probes drawn in bulk on the random
    stream of seed_seq (`_draw_targets`), a row per probe with its columns
    in TARGET_FAMILIES order; each family is evaluated as one stack (the
    Grassmannian one per shape (n, m))."""
    height, longitude, grass, reduction = _draw_targets(np.random.default_rng(seed_seq), count)
    grass_cols = np.empty((3, count))
    for rows, *stacks in grass.values():
        grass_cols[:, rows] = _grassmann_residuals(*stacks, step)
    return np.stack([_height_residuals(*height, step), *_longitude_residuals(*longitude, step),
                     *grass_cols, _reduction_residuals(*reduction, step)], axis=-1)


def cmd_verify_targets(cfg, outdir) -> RunReport:
    rows = _target_batch(np.random.SeedSequence(cfg["seed"]), cfg["probes"], cfg["fd_step"])

    lines = ["family,probe,residual"]
    for k, row in enumerate(rows.tolist()):
        lines += [f"{family},{k},{r:.17g}" for family, r in zip(TARGET_FAMILIES, row)]

    report = RunReport("verify-targets", cfg["seed"])
    # np.max keeps a NaN
    worst = np.max(rows, axis=0, initial=0.0)
    for family, value in zip(TARGET_FAMILIES, worst):
        report.checks.append(check_le(family, value, 0.0, cfg["tol_hessian"]))
    report.write_artifact(outdir, cfg["residual_csv"], "\n".join(lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# verify-shrinkers: catalog residuals, weighted tension, composition identity


def _chart_probes(imm, rng, count):
    lo = imm.chart[:, 0] + 0.12 * (imm.chart[:, 1] - imm.chart[:, 0])
    hi = imm.chart[:, 1] - 0.12 * (imm.chart[:, 1] - imm.chart[:, 0])
    return rng.uniform(lo, hi, size=(count, imm.chart.shape[0]))


def _surface_batch(name, seed_seq, count):
    """Rows (residual, tension), (count, 2), of count probes of one catalog
    surface, drawn on the random stream of seed_seq and evaluated in one
    frame-kernel call, whose centre frames give the residuals."""
    imm = immersion.catalog_immersion(name)
    pf, T = immersion._centre_tension(
        imm, _chart_probes(imm, np.random.default_rng(seed_seq), count))
    res = np.max(np.abs(immersion.shrinker_residual(pf)), axis=-1)
    return np.stack([res, np.max(np.abs(T), axis=(-2, -1))], axis=-1)


def _composition_targets(imm):
    # (reference, pole) of composition_checks, the pole None off hypersurfaces.
    # The reference is the tangent plane at the chart center: it overlaps the
    # tangents of every catalog surface (a fixed coordinate plane does
    # not — the cylinder's tangents all contain the axis direction)
    center = 0.5 * (imm.chart[:, 0] + imm.chart[:, 1])
    ref = immersion.gauss_map(immersion.point_frame(imm, center))
    if imm.m != 1:
        return ref, None
    pole = np.zeros(imm.n + imm.m)
    pole[0], pole[-1] = 0.6, 0.8
    return ref, pole


def _composition_worst(name, seed_seq, count):
    """Max chain-rule defect over admissible probes of one catalog surface.

    Probes whose tangent plane tilts far from the reference are redrawn:
    the overlap functions lose conditioning as the planes approach
    perpendicularity.  Candidates come in at most 50 rounds of count; the
    first count admitted are checked in one composition_checks call.
    """
    imm = immersion.catalog_immersion(name)
    rng = np.random.default_rng(seed_seq)
    ref, pole = _composition_targets(imm)
    probes = np.empty((0, imm.n))
    for _ in range(50):
        if len(probes) >= count:
            break
        draws = _chart_probes(imm, rng, count)
        w = grassmann.w_product(immersion.gauss_map(immersion.point_frame(imm, draws)), ref)
        probes = np.concatenate([probes, draws[np.abs(w) >= 0.3]])[:count]
    if len(probes) < count:
        raise RuntimeError(
            f"only {len(probes)}/{count} admissible composition probes on {name}"
        )
    return float(np.max(np.abs(immersion.composition_checks(imm, probes, ref, pole))))


def cmd_verify_shrinkers(cfg, outdir) -> RunReport:
    names = list(cfg["surfaces"])
    controls = list(cfg["control_surfaces"])
    surfaces = names + controls
    # one random stream per surface and control, then one per composition surface
    children = np.random.SeedSequence(cfg["seed"]).spawn(len(surfaces) + len(names))

    blocks = np.stack([_surface_batch(name, child, cfg["probes"])
                       for name, child in zip(surfaces, children)])
    lines = ["surface,probe,residual,tension"]
    for name, rows in zip(surfaces, blocks):
        quoted = f'"{name}"'  # catalog names hold commas; none that builds holds a quote
        lines += [f"{quoted},{k},{r:.17g},{t:.17g}" for k, (r, t) in enumerate(rows.tolist())]

    report = RunReport("verify-shrinkers", cfg["seed"])
    # np.max and np.min keep a NaN
    for name, (res, ten) in zip(names, np.max(blocks[:len(names)], axis=1)):
        report.checks.append(check_le(f"residual[{name}]", res, 0.0, cfg["tol_residual"]))
        report.checks.append(check_le(f"tension[{name}]", ten, 0.0, cfg["tol_tension"]))
    for name, floor in zip(controls, np.min(blocks[len(names):, :, 1], axis=1)):
        report.checks.append(
            check_ge(f"control_tension[{name}]", floor, cfg["control_floor"], 0.0)
        )

    comp_worst = np.max([0.0] + [
        _composition_worst(name, child, cfg["composition_probes"])
        for name, child in zip(names, children[len(surfaces):])])
    report.checks.append(
        check_le("composition_max", comp_worst, 0.0, cfg["tol_composition"])
    )

    report.write_artifact(outdir, cfg["residual_csv"], "\n".join(lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# verify-prop41: scalar proof, sampled grouped inequality, adversarial search


_PROP41_LEMMA = (
    "In tau = (v - 1)/2 and s = r/tau, Omega(tau) = {2 < s < 3 + 2 tau} and "
    "F = s/(1 + s) - (4 + 4 tau - s)/((s - 2)(3 + 2 tau - s)). At fixed s, "
    "dF/dtau = 2/(3 + 2 tau - s)^2 > 0 and Omega(tau) grows with tau, so sup F over "
    "Omega (v < 3) is the sup of F(1, s) over (2, 5), and F(1, s) <= -c there exactly "
    "when the cubic p_c(s) = (1 + s)(s - 2)(5 - s)(F(1, s) + c) <= 0 on [2, 5].")


def _proof_certificate(proof):
    """The JSON record of an `ineq.certify_sup_F` proof of sup F <= -1/16, exact
    numbers as strings; samples counts its closed boxes."""
    return {
        "bound": -ineq.DELTA0,
        "method": "exact Bernstein enclosure of p_c on [2, 5] over the rationals, by bisection",
        "lemma": _PROP41_LEMMA,
        "cubic": [str(a) for a in proof.cubic],
        "boxes": [{"lo": str(lo), "hi": str(hi), "bernstein": [str(b) for b in coef]}
                  for lo, hi, coef in proof.boxes],
        "proved": proof.counterexample is None,
        "counterexample": None if proof.counterexample is None else str(proof.counterexample),
        "samples": len(proof.boxes),
    }


def cmd_verify_prop41(cfg, outdir) -> RunReport:
    report = RunReport("verify-prop41", cfg["seed"])

    # the largest closed Bernstein coefficient, or p_c >= 0 at a counterexample
    proof = ineq.certify_sup_F(ineq.DELTA0)
    report.checks.append(check_le("sup_F_proof", proof.worst, 0.0, 0.0))

    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    sampled = ineq.sample_check(rng, int(cfg["samples"]))
    report.checks.append(
        check_le("regroup_max", sampled.regroup_max, 0.0, cfg["tol_regroup"])
    )
    report.checks.append(
        check_ge("sample_min_margin", sampled.min_margin, 0.0, cfg["tol_margin"])
    )
    # a count, not a gate: its margin is the number of samples the minimum
    # margin ranges over
    report.checks.append(
        check_le("zero_form_samples", sampled.zero_forms, cfg["samples"], 0.0)
    )

    zero_lam = ineq.master_margin(
        3, 2, np.zeros((1, 2)), _symmetrized(rng.standard_normal((1, 2, 3, 3))))
    report.checks.append(
        check_le("zero_lambda_margin", abs(zero_lam[0]), 0.0, cfg["tol_margin"])
    )

    search = ineq.adversarial_margin_search(
        seed=cfg["seed"] + 1, restarts=int(cfg["restarts"])
    )
    report.checks.append(
        check_ge("search_min_margin", search.worst_margin, 0.0, cfg["tol_margin"])
    )
    report.checks.append(
        check_le("search_violations", len(search.violations), 0.0, 0.0)
    )

    report.write_artifact(outdir, cfg["certificate"], dump_json(_proof_certificate(proof)))
    return report


def _symmetrized(h):
    return 0.5 * (h + np.swapaxes(h, -1, -2))


# ---------------------------------------------------------------------------
# flow-graph: relaxation experiment with trace artifacts


def _seeded_bump_field(cfg, rng):
    n, m = int(cfg["n"]), int(cfg["m"])
    L = float(cfg["box"])
    res = (int(cfg["resolution"]),) * n
    A = 0.3 * rng.standard_normal((m, n))
    # only linear boundary data is stationary: a constant offset leaves a
    # drift residual of -b/2, so the experiment pins b = 0
    b = np.zeros(m)
    coef = rng.standard_normal((n, m))
    base = rng.standard_normal(m)
    amp = float(cfg["amplitude"])
    # every node at once, one column (n, 1) per node: the stacked matmuls
    # give each node the bits of its own A @ x and coef.T @ z (x @ A.T or
    # einsum differ by an ulp at n = 2), and the window multiplies the axis
    # factors in axis order, as np.prod does for one node
    x = graphflow._coords(L, res)[..., None]
    z = x / L
    factors = (1.0 - z * z) ** 2
    window = factors[..., 0, 0]
    for k in range(1, n):
        window = window * factors[..., k, 0]
    bump = (amp * window)[..., None] * (base + (coef.T @ z)[..., 0])
    values = (A @ x)[..., 0] + b + bump
    return graphflow.GridField(L=L, values=values, boundary="affine", A=A, b=b)


def cmd_flow_graph(cfg, outdir) -> RunReport:
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    field = _seeded_bump_field(cfg, rng)
    solver = graphflow.SolverConfig(
        max_steps=int(cfg["max_steps"]),
        threshold=cfg["threshold"],
        sample_interval=int(cfg["sample_interval"]),
        # RKL1 supersteps of 20 fills (graphflow.relax_flow): the explicit flow's
        # outcome in fewer fills on every config README "Supersteps" lists
        stages=20,
    )
    final = None
    try:
        final, trace = graphflow.relax_flow(field, solver)
    except graphflow.DivergenceError as exc:
        trace = exc.trace

    report = RunReport("flow-graph", cfg["seed"])
    report.checks.append(
        check_le(
            "final_residual",
            trace.sup_residual[-1],
            0.0,
            cfg["threshold"],
        )
    )
    if final is not None:
        # relax_flow records the final state before it returns
        report.checks.append(check_le("final_b2", trace.sup_b2[-1], 0.0, cfg["tol_b2"]))
        deviation = float(np.max(np.abs(final.values - final.affine_values())))
        report.checks.append(
            check_le("affine_deviation", deviation, 0.0, cfg["tol_affine"])
        )
    report.checks.append(
        check_le(
            "initial_slope", trace.sup_slope[0], 3.0, 0.0, kind="observation"
        )
    )
    slopes = np.asarray(trace.sup_slope)
    bump = float(np.max(np.diff(slopes))) if slopes.size > 1 else 0.0
    report.checks.append(
        check_le("slope_monotone", bump, 0.0, 1e-9, kind="observation")
    )
    report.checks.append(
        check_le(
            "steps_to_converge",
            trace.steps[-1],
            float(cfg["max_steps"]),
            0.0,
            kind="observation",
        )
    )
    if final is not None and final.m == 1 and final.n == 2:
        pole = np.zeros(final.n + 1)
        pole[-1] = 1.0
        report.checks.append(
            check_ge(
                "gauss_min_pole_ip",
                graphflow.gauss_image_report(final, pole),
                0.0,
                sphere.REGION_TOL,
                kind="observation",
            )
        )
        # the largest slope of the final field: the trace's last row
        report.checks.append(
            check_le(
                "gauss_max_v", trace.sup_slope[-1], 3.0, 0.0, kind="observation"
            )
        )

    report.write_artifact(outdir, cfg["trace_csv"], graphflow.trace_to_csv(trace))
    report.write_artifact(outdir, cfg["trace_svg"], graphflow.trace_svg(trace))
    if final is not None:
        report.write_artifact(outdir, cfg["field_csv"], graphflow.field_to_csv(final))
    return report


# ---------------------------------------------------------------------------
# report: merge prior runs into one bundle


def _well_formed(payload):
    """Whether a run report's fields have the types the bundle reads: string
    status and timestamp, and a list of check objects with float numbers."""
    def number(x):  # a float, or an int that converts to one
        return isinstance(x, float) or (isinstance(x, int) and abs(x) < 1e308)

    prov, checks = payload.get("provenance", {}), payload.get("checks", [])
    fields = ("value", "bound", "margin", "tolerance")
    return (isinstance(prov, dict) and isinstance(prov.get("timestamp", ""), str)
            and isinstance(payload.get("status", ""), str) and isinstance(checks, list)
            and all(isinstance(c, dict) and all(number(c.get(k, 0.0)) for k in fields)
                    for c in checks))


def _csv_text(x):
    """x as one bundle CSV field: commas become ';', double quotes single
    ones and line breaks spaces."""
    return str(x).replace(",", ";").replace('"', "'").replace("\r", " ").replace("\n", " ")


def cmd_report(cfg, outdir) -> RunReport:
    run_dir = cfg["run_dir"] or outdir
    paths = sorted(glob.glob(os.path.join(glob.escape(run_dir), "report_*.json")))
    runs = []
    warnings = []
    for path in paths:
        base = os.path.basename(path)
        if base == "report_report.json":
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            warnings.append(f"skipping {base}: {exc}")
            continue
        if not isinstance(payload, dict) or payload.get("schema") != REPORT_SCHEMA:
            warnings.append(f"skipping {base}: unrecognized schema")
            continue
        if not _well_formed(payload):
            warnings.append(f"skipping {base}: malformed report")
            continue
        stamp = payload.get("provenance", {}).get("timestamp", "")
        runs.append((stamp, base, payload))
    runs.sort(key=lambda item: (item[0], item[1]))
    if not runs:
        warnings.append(f"no run reports found in {run_dir}")

    failures = sum(1 for _, _, payload in runs if payload.get("status") == "FAIL")
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "generated": run_timestamp(),
        "warnings": warnings,
        "runs": [
            {"file": base, "report": payload} for _, base, payload in runs
        ],
    }
    report = RunReport("report", cfg["seed"])
    bundle_name = cfg["bundle"]
    stem = os.path.splitext(bundle_name)[0]
    report.write_artifact(outdir, bundle_name, dump_json(bundle))

    lines = ["file,subcommand,status,check,value,bound,margin,tolerance,kind"]
    for _, base, payload in runs:
        for chk in payload.get("checks", []):
            lines.append(
                ",".join(
                    [
                        _csv_text(base),
                        _csv_text(payload.get("subcommand", "")),
                        _csv_text(payload.get("status", "")),
                        _csv_text(chk.get("name", "")),
                        f"{chk.get('value', math.nan):.17g}",
                        f"{chk.get('bound', math.nan):.17g}",
                        f"{chk.get('margin', math.nan):.17g}",
                        f"{chk.get('tolerance', math.nan):.17g}",
                        _csv_text(chk.get("kind", "")),
                    ]
                )
            )
    report.write_artifact(outdir, stem + ".csv", "\n".join(lines) + "\n")
    report.write_artifact(outdir, stem + ".svg", _bundle_svg(runs))

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    report.checks.append(check_le("merged_failures", failures, 0.0, 0.0))
    report.checks.append(
        check_ge("runs_merged", len(runs), 0.0, 0.0, kind="observation")
    )
    return report


_STATUS_COLORS = {"PASS": "#2a7e43", "OBSERVATION": "#b57b14", "FAIL": "#b03030"}


def _bundle_svg(runs):
    # imported here: xml.sax.saxutils loads urllib.request and ssl, about
    # 30 ms and several MB of resident memory that no other command needs
    from xml.sax.saxutils import escape

    row_h, width = 26, 520
    height = row_h * max(1, len(runs)) + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="10" y="18" font-family="monospace" font-size="13">'
        "run status</text>",
    ]
    for k, (_, base, payload) in enumerate(runs):
        y = 30 + k * row_h
        color = _STATUS_COLORS.get(payload.get("status", ""), "#777777")
        parts.append(
            f'<rect x="10" y="{y}" width="16" height="16" fill="{color}"/>'
        )
        parts.append(
            f'<text x="34" y="{y + 13}" font-family="monospace" '
            f'font-size="12">{escape(str(payload.get("status", "?")))} {escape(base)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry point

HANDLERS = {
    "verify-targets": cmd_verify_targets,
    "verify-shrinkers": cmd_verify_shrinkers,
    "verify-prop41": cmd_verify_prop41,
    "flow-graph": cmd_flow_graph,
    "report": cmd_report,
}

_HELP = {
    "verify-targets": "finite-difference checks of the closed-form Hessians",
    "verify-shrinkers": "catalog residual, tension, and composition checks",
    "verify-prop41": "exact proof of the scalar bound plus sampled grouped-inequality checks",
    "flow-graph": "graph relaxation experiment with trace artifacts",
    "report": "merge prior run reports into one bundle",
}


@functools.cache  # built once: a process may call main many times
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, help="JSON config file")
    shared.add_argument(
        "--out", default="runs", help="output directory (default: runs)"
    )
    shared.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    # the retired worker count, accepted at its one value, which changes nothing
    shared.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="shrinker-lab",
        description="batch verification runs with machine-readable reports",
    )
    sub = parser.add_subparsers(dest="command")
    for name in HANDLERS:
        sub.add_parser(name, parents=[shared], help=_HELP[name])
    return parser


def _print_report(report: RunReport, path: str) -> None:
    for c in report.checks:
        print(
            f"[{c.kind}] {c.name}: value={c.value:.6g} bound={c.bound:.6g} "
            f"margin={c.margin:.3g} tol={c.tolerance:.3g}"
        )
    print(f"status: {report.status}")
    print(f"report: {path}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = load_config(args.command, path=args.config, seed=args.seed)
        # the clock and the output directory are checked before any artifact
        run_timestamp()
        outdir = args.out
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {outdir}: {exc}") from exc
        report = HANDLERS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(outdir, f"report_{args.command}.json")
    text = dump_json(report.as_dict())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _print_report(report, path)
    return 0 if report.status != "FAIL" else 1


if __name__ == "__main__":
    sys.exit(main())
