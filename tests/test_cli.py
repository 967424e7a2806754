import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import shrinkerlab
from shrinkerlab import cli, graphflow, grassmann, immersion, ineq, sphere


@pytest.fixture(autouse=True)
def _pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755820800")


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _load_report(outdir, subcommand):
    with open(os.path.join(outdir, f"report_{subcommand}.json")) as fh:
        return json.load(fh)


def test_no_subcommand_is_a_config_error():
    assert cli.main([]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"nonsense_key": 1})
    code = cli.main(["verify-targets", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2


def test_malformed_json_config_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(
        ["verify-targets", "--config", str(path), "--out", str(tmp_path)]
    )
    assert code == 2


def test_nonpositive_tolerance_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"tol_hessian": 0.0})
    assert cli.main(["verify-targets", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_wrong_config_schema_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"schema": "something-else/9", "probes": 4})
    assert cli.main(["verify-targets", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_removed_search_iters_key_rejected(tmp_path):
    # the search minimizes over h exactly, so it has no iteration count
    assert "iters" not in cli.DEFAULTS["verify-prop41"]
    cfg = _write_cfg(tmp_path, {"iters": 30})
    assert cli.main(["verify-prop41", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_ceiling_at_or_above_three_rejected(tmp_path):
    # verify-prop41 proves its bound without a sweep, so v_hi is an unknown key
    cfg = _write_cfg(tmp_path, {"v_hi": 3.0})
    assert cli.main(["verify-prop41", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("subcommand, payload", [
    ("flow-graph", {"resolution": "abc"}),
    ("verify-targets", {"residual_csv": 5}),
    ("flow-graph", {"trace_csv": None}),
    ("verify-targets", {"probes": True}),
    # the relaxation has one stencil order, so order is an unknown key
    # (at 2 too: the last entry)
    ("flow-graph", {"order": 4}),
    # surface lists: nonempty, of names the catalog builds; these used to
    # PASS over no probes and to raise from the catalog (exit 1)
    ("verify-shrinkers", {"surfaces": [], "control_surfaces": []}),
    ("verify-shrinkers", {"surfaces": ["torus:n=2"]}),
    # artifact names are plain file names that differ from each other and
    # from the report; these used to raise after the run (exit 1) or let
    # one file overwrite another
    ("verify-targets", {"residual_csv": ""}),
    ("verify-targets", {"residual_csv": "."}),
    ("verify-targets", {"residual_csv": ".."}),
    ("verify-targets", {"residual_csv": "no/such/dir.csv"}),
    ("verify-targets", {"residual_csv": "nul\0.csv"}),
    ("verify-targets", {"residual_csv": "report_verify-targets.json"}),
    ("verify-shrinkers", {"residual_csv": "report_verify-shrinkers.json"}),
    ("verify-prop41", {"certificate": "certs/"}),
    ("flow-graph", {"trace_svg": "flow_trace.csv"}),
    ("report", {"bundle": "report_report.json"}),
    ("report", {"bundle": "bundle.csv"}),
    ("flow-graph", {"order": 2}),
    # verify-targets draws its probes on one random stream and
    # verify-shrinkers on one per surface, so chunks is an unknown key
    ("verify-targets", {"chunks": 8}),
    ("verify-shrinkers", {"chunks": 4}),
    # verify-prop41 proves the scalar bound exactly and sweeps no grid, so
    # the sweep's keys are unknown, at their old defaults too
    ("verify-prop41", {"v_count": 1200}),
    ("verify-prop41", {"rt_resolution": 1500}),
    ("verify-prop41", {"v_hi": 3.0 - 1e-6}),
    ("verify-prop41", {"tol_sweep": 1e-9}),
])
def test_wrong_typed_config_value_rejected(tmp_path, capsys, subcommand, payload):
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / f"report_{subcommand}.json").exists()


@pytest.mark.parametrize("surface", [
    "plane:n=0,m=1", "plane:n=1.5,m=1", "plane:n=1,m=0", "sphere:n=2,R=0",
    "sphere:n=2,R=-2", "sphere:n=2,R=nan", "sphere:n=2,R=2,c1=inf", "cylinder:k=3,n=2",
    "sphere:n=2,R=1,R=2",
])
def test_degenerate_catalog_surface_rejected(tmp_path, capsys, surface):
    # non-integral or nonpositive dimensions, k > n, radii or centres that
    # are not finite (or not positive), and a repeated argument are
    # configuration errors
    cfg = _write_cfg(tmp_path, {"surfaces": [surface]})
    out = tmp_path / "out"
    assert cli.main(["verify-shrinkers", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report_verify-shrinkers.json").exists()


@pytest.mark.parametrize("raw", [
    b'\xff\xfe{"probes": 4}',
    b'{"probes": ' + b"1" * 5000 + b"}",  # beyond Python's integer parsing limit
], ids=["not-utf8", "long-integer"])
def test_unreadable_config_file_rejected(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert cli.main(["verify-targets", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_report_skips_a_report_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report_verify-targets.json").write_bytes(b"\xff\xfe")
    assert cli.main(["report", "--out", str(out)]) == 0
    assert "skipping report_verify-targets.json" in capsys.readouterr().err


_RUN = {
    "schema": cli.REPORT_SCHEMA,
    "subcommand": "verify-targets",
    "status": "PASS",
    "provenance": {"timestamp": "z"},
    "checks": [{"name": "x", "value": 0.0, "bound": 1.0, "margin": 1.0, "tolerance": 0.0}],
}


@pytest.mark.parametrize("bad", [
    {"provenance": 5},
    {"checks": 7},
    {"checks": [1]},
    {"checks": [{"value": "x"}]},
    {"provenance": {"timestamp": 3}},  # not comparable with the "z" of the good run
])
def test_report_skips_a_malformed_report(tmp_path, capsys, bad):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report_good.json").write_text(json.dumps(_RUN))
    (out / "report_bad.json").write_text(json.dumps({**_RUN, **bad}))
    assert cli.main(["report", "--out", str(out)]) == 0
    assert "skipping report_bad.json: malformed report" in capsys.readouterr().err
    bundle = json.loads((out / "bundle.json").read_text())
    assert [run["file"] for run in bundle["runs"]] == ["report_good.json"]


def test_verify_targets_small_run_passes(tmp_path):
    cfg = _write_cfg(tmp_path, {"probes": 16})
    out = tmp_path / "out"
    code = cli.main(
        ["verify-targets", "--config", cfg, "--out", str(out), "--seed", "5"]
    )
    assert code == 0
    report = _load_report(str(out), "verify-targets")
    assert report["schema"] == cli.REPORT_SCHEMA
    assert report["status"] == "PASS"
    names = {c["name"] for c in report["checks"]}
    assert set(cli.TARGET_FAMILIES) == names
    for c in report["checks"]:
        assert c["tolerance"] >= 0.0
        assert c["margin"] >= -c["tolerance"]
    csv_text = (out / "target_residuals.csv").read_text()
    assert csv_text.startswith("family,probe,residual\n")
    assert report["provenance"]["seed"] == 5
    assert report["provenance"]["timestamp"] == "2025-08-22T00:00:00Z"


@pytest.fixture
def flipped_height_hessian(monkeypatch):
    # a sign error in the closed-form height Hessian, the fault the height
    # probes must catch
    hessian = sphere.height_hessian
    monkeypatch.setattr(sphere, "height_hessian", lambda *args: -hessian(*args))


def test_corrupted_height_formula_fails(tmp_path, flipped_height_hessian):
    cfg = _write_cfg(tmp_path, {"probes": 8})
    out = tmp_path / "out"
    code = cli.main(["verify-targets", "--config", cfg, "--out", str(out)])
    assert code == 1
    report = _load_report(str(out), "verify-targets")
    assert report["status"] == "FAIL"
    bad = next(c for c in report["checks"] if c["name"] == "sphere_height_hess")
    assert bad["margin"] < -bad["tolerance"]


def test_retired_tolerance_scale_flag_exits_2(tmp_path):
    # a looser run sets tol_* keys in its config
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-targets", "--out", str(out), "--tolerance-scale", "2"])
    assert exc.value.code == 2
    assert not out.exists()


def test_identical_config_and_seed_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, {"probes": 12})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert (
            cli.main(
                ["verify-targets", "--config", cfg, "--out", str(out), "--seed", "9"]
            )
            == 0
        )
    for name in ("report_verify-targets.json", "target_residuals.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command, payload, residuals", [
    ("verify-targets", {"probes": 6}, "target_residuals.csv"),
    ("verify-shrinkers", {"probes": 6, "composition_probes": 2}, "shrinker_residuals.csv"),
])
def test_retired_jobs_flag_takes_only_1_which_changes_nothing(tmp_path, command, payload,
                                                              residuals):
    # every probe runs in the calling process; --jobs 1 is still parsed and
    # writes the bytes that no flag writes, and any other count exits 2
    cfg = _write_cfg(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--out", str(tmp_path / "two"), "--jobs", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "two").exists()
    artifacts = []
    for flags in ([], ["--jobs", "1"]):
        out = tmp_path / str(len(flags))
        assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        artifacts.append([(out / name).read_bytes()
                          for name in (residuals, f"report_{command}.json")])
    assert artifacts[1] == artifacts[0]


def test_main_builds_the_parser_once(monkeypatch):
    # a shared parent, the top parser and one subparser per command, built
    # by the first call alone
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli.build_parser.cache_clear()
    assert cli.main([]) == 2
    assert len(built) == 2 + len(cli.HANDLERS)
    assert cli.main([]) == 2
    assert len(built) == 2 + len(cli.HANDLERS)


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # no command starts a worker process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, shrinkerlab.cli; sys.exit('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verify_targets_at_seed_0_with_800_probes_passes(tmp_path):
    # larger stacks mix more partner-normal patterns; this run once raised
    # in the orthonormality check of the partner normals
    cfg = _write_cfg(tmp_path, {"probes": 800})
    assert cli.main(["verify-targets", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    assert _load_report(str(tmp_path), "verify-targets")["status"] == "PASS"


def test_report_version_is_the_project_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert shrinkerlab.__version__ == version
    cfg = _write_cfg(tmp_path, {"probes": 2})
    assert cli.main(["verify-targets", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _load_report(str(tmp_path), "verify-targets")["provenance"]["version"] == version


def test_verify_shrinkers_catalog_and_control(tmp_path):
    cfg = _write_cfg(tmp_path, {"probes": 12, "composition_probes": 4})
    out = tmp_path / "out"
    code = cli.main(["verify-shrinkers", "--config", cfg, "--out", str(out)])
    assert code == 0
    # one block of probes rows per surface, numbered from 0, each row four
    # fields with the quoted surface name first
    defaults = cli.DEFAULTS["verify-shrinkers"]
    rows = list(csv.reader((out / "shrinker_residuals.csv").read_text().splitlines()))
    assert rows[0] == ["surface", "probe", "residual", "tension"]
    assert all(len(row) == 4 for row in rows)
    assert [row[:2] for row in rows[1:]] == [
        [name, str(k)] for name in defaults["surfaces"] + defaults["control_surfaces"]
        for k in range(12)]
    report = _load_report(str(out), "verify-shrinkers")
    assert report["status"] == "PASS"
    names = [c["name"] for c in report["checks"]]
    assert "residual[plane:n=2,m=2]" in names
    assert "tension[sphere:n=2,R=2]" in names
    assert any(n.startswith("control_tension[") for n in names)
    assert "composition_max" in names
    # the shifted unit sphere really is detected as a non-shrinker
    control = next(
        c for c in report["checks"] if c["name"].startswith("control_tension")
    )
    assert control["value"] >= control["bound"]


def test_verify_prop41_certificate(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "samples": 150,
            "restarts": 40,
        },
    )
    out = tmp_path / "out"
    code = cli.main(["verify-prop41", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = _load_report(str(out), "verify-prop41")
    assert report["status"] == "PASS"
    # the largest Bernstein coefficient of p_c over the proof's one box
    proof = next(c for c in report["checks"] if c["name"] == "sup_F_proof")
    assert proof["bound"] == 0.0
    assert proof["value"] == -4.875 <= proof["bound"]
    with open(out / "prop41_certificate.json") as fh:
        cert = json.load(fh)
    assert cert["bound"] == -1.0 / 16.0
    assert cert["proved"] is True and cert["counterexample"] is None
    # the benchmark reads samples from every certificate: here the boxes
    assert type(cert["samples"]) is int and cert["samples"] == len(cert["boxes"]) == 1


@pytest.mark.parametrize("seed, values, digest", [
    (0, {"regroup_max": "0x1.c342c49ad7762p-51", "sample_min_margin": "0x1.8eb4e1d038c83p-10",
         "zero_form_samples": "0x1.0100000000000p+9",
         "search_min_margin": "0x1.6b2c1f6405000p-14"},
     "32e25a3ca8daeb7edb0129f82c5d3540a95fd545359969771ded851c6421daa0"),
    (61, {"regroup_max": "0x1.8fea68a689efep-51", "sample_min_margin": "0x1.b0116c8890c21p-12",
          "zero_form_samples": "0x1.f800000000000p+8",
          "search_min_margin": "0x1.8ad1cf00e0000p-17"},
     "32e25a3ca8daeb7edb0129f82c5d3540a95fd545359969771ded851c6421daa0"),
], ids=["0", "61"])
def test_prop41_values_at_the_default_config_are_pinned(tmp_path, seed, values, digest):
    # the sampled values follow draw_group_stacks' bulk stream; the proof and
    # the search do not read it, and the certificate records the proof alone,
    # so its digest is the same at every seed.  The search's last bits follow
    # the eigen-solver's matrices, one block of T(lam) each
    # (`ineq._margin_form`), not the whole form
    assert cli.main(["verify-prop41", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    checks = {c["name"]: c["value"] for c in _load_report(str(tmp_path), "verify-prop41")["checks"]}
    values = {"sup_F_proof": "-0x1.3800000000000p+2", **values}
    assert {name: float(checks[name]).hex() for name in values} == values
    got = hashlib.sha256((tmp_path / "prop41_certificate.json").read_bytes()).hexdigest()
    assert got == digest


def test_prop41_margin_skips_zero_forms_and_counts_them(tmp_path):
    # the triple pattern draws h = 0 when min(n, m) < 3; those samples'
    # margin is exactly 0, which the minimum used to read at every seed
    cfg = _write_cfg(tmp_path, {"restarts": 2, "seed": 61})
    assert cli.main(["verify-prop41", "--config", cfg, "--out", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in _load_report(str(tmp_path), "verify-prop41")["checks"]}
    # the minimum is of margin / |B|^2, which does not shrink with h: the
    # smallest curved sample, |B|^2 = 7.1e-19 with margin 3.9e-17, reads 55.5,
    # and the minimum comes from a (5, 4) sample with |B|^2 = 0.70
    assert checks["sample_min_margin"]["value"] == pytest.approx(4.120522139922662e-04,
                                                                 rel=1e-9, abs=0.0)
    assert checks["zero_form_samples"]["value"] == 504.0
    assert checks["zero_form_samples"]["margin"] == 4000.0 - 504.0


def test_flow_graph_bump_run_artifacts(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {"resolution": 17, "amplitude": 0.2, "max_steps": 30_000},
    )
    out = tmp_path / "out"
    code = cli.main(["flow-graph", "--config", cfg, "--out", str(out), "--seed", "3"])
    assert code == 0
    report = _load_report(str(out), "flow-graph")
    assert report["status"] == "OBSERVATION"
    names = {c["name"] for c in report["checks"]}
    assert {"final_residual", "final_b2", "affine_deviation"} <= names
    assert "gauss_min_pole_ip" in names  # hemisphere telemetry for m = 1
    trace = (out / "flow_trace.csv").read_text()
    assert trace.splitlines()[0] == "step,time,sup_slope,sup_residual,sup_B2,min_w"
    svg = (out / "flow_trace.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert (out / "flow_final.csv").exists()


def test_flow_graph_final_b2_is_the_final_field_curvature(tmp_path):
    # the check is the trace's last sample; it must be |B|^2 of the final field
    cfg = _write_cfg(tmp_path, {"resolution": 17, "amplitude": 0.2, "max_steps": 30_000})
    out = tmp_path / "out"
    assert cli.main(["flow-graph", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
    report = _load_report(str(out), "flow-graph")
    b2 = next(c["value"] for c in report["checks"] if c["name"] == "final_b2")
    final = graphflow.field_from_csv((out / "flow_final.csv").read_text())
    assert b2 == float(np.max(graphflow.second_form_sq_field(final)))


# seed -> (gauss_max_v, gauss_min_pole_ip) of flow-graph's default field
# relaxed by explicit steps, and of the default run, by RKL1 supersteps of 20
# fills
_GAUSS_PINS = {
    0: ("0x1.0062038911f23p+0", "0x1.ff3c43de94e87p-1"),
    61: ("0x1.100ea658aa8d2p+0", "0x1.e1c7ef1155054p-1"),
}
_SUPERSTEP_GAUSS_PINS = {
    0: ("0x1.00620388bbf58p+0", "0x1.ff3c43df405e8p-1"),
    61: ("0x1.100ea6583ed6dp+0", "0x1.e1c7ef1213c41p-1"),
}


@pytest.mark.parametrize("seed", sorted(_GAUSS_PINS))
def test_flow_graph_gauss_observations_keep_their_bits(seed):
    # the explicit flow (stages = 1) on flow-graph's field keeps the readings
    # flow-graph reported before supersteps existed, bit for bit
    cfg = cli.DEFAULTS["flow-graph"]
    field = cli._seeded_bump_field(cfg, np.random.default_rng(np.random.SeedSequence(seed)))
    final, trace = graphflow.relax_flow(field, graphflow.SolverConfig(
        max_steps=cfg["max_steps"], threshold=cfg["threshold"],
        sample_interval=cfg["sample_interval"]))
    max_v, min_pole_ip = _GAUSS_PINS[seed]
    assert trace.sup_slope[-1] == float.fromhex(max_v)
    pole = np.array([0.0, 0.0, 1.0])
    assert graphflow.gauss_image_report(final, pole) == float.fromhex(min_pole_ip)


@pytest.mark.parametrize("seed", sorted(_SUPERSTEP_GAUSS_PINS))
def test_flow_graph_default_keeps_its_bits_and_converges_in_at_most_1000_fills(tmp_path, seed):
    # the default run's slope and hemisphere readings, bit for bit; the slope
    # maximum is the trace's last row.  The fill bound guards the superstep
    # speed-up by a count, not a time: 460 and 520 fills, against 5 744 and
    # 6 573 explicit steps
    max_v, min_pole_ip = _SUPERSTEP_GAUSS_PINS[seed]
    assert cli.main(["flow-graph", "--out", str(tmp_path), "--seed", str(seed)]) == 0
    checks = {c["name"]: c["value"] for c in _load_report(str(tmp_path), "flow-graph")["checks"]}
    assert checks["gauss_max_v"] == float.fromhex(max_v)
    assert checks["gauss_min_pole_ip"] == float.fromhex(min_pole_ip)
    with open(tmp_path / "flow_trace.csv") as fh:
        assert float(list(csv.DictReader(fh))[-1]["sup_slope"]) == float.fromhex(max_v)
    assert checks["steps_to_converge"] <= 1000


def _per_node_bump_field(cfg, rng):
    """flow-graph's bump field built one node at a time: the bit-for-bit
    reference of cli._seeded_bump_field's all-node build."""
    n, m = int(cfg["n"]), int(cfg["m"])
    L = float(cfg["box"])
    A = 0.3 * rng.standard_normal((m, n))
    b = np.zeros(m)
    coef = rng.standard_normal((n, m))
    base = rng.standard_normal(m)
    amp = float(cfg["amplitude"])

    def value(x):
        z = x / L
        window = float(np.prod((1.0 - z * z) ** 2))
        return A @ x + b + amp * window * (base + coef.T @ z)

    return graphflow.GridField.from_function(
        value, L, (int(cfg["resolution"]),) * n, m, boundary="affine", A=A, b=b)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_seeded_bump_field_matches_the_per_node_build_bit_for_bit(n, m):
    resolution = {1: 41, 2: 25, 3: 9}[n]
    for seed in (0, 3, 61):
        for box, amplitude in ((1.0, 0.3), (0.7, 4.0), (2.0, 1.0)):
            cfg = dict(cli.DEFAULTS["flow-graph"], n=n, m=m, box=box,
                       resolution=resolution, amplitude=amplitude)
            field, ref = (build(cfg, np.random.default_rng(np.random.SeedSequence(seed)))
                          for build in (cli._seeded_bump_field, _per_node_bump_field))
            assert field.values.tobytes() == ref.values.tobytes()
            assert (field.L, field.boundary) == (ref.L, ref.boundary)
            assert field.A.tobytes() == ref.A.tobytes() and field.b.tobytes() == ref.b.tobytes()


def test_flow_graph_default_final_field_keeps_its_bytes(tmp_path):
    # sha256 of flow_final.csv from the default run at seed 61, taken when
    # the bump field was built and the file written one node at a time
    assert cli.main(["flow-graph", "--out", str(tmp_path), "--seed", "61"]) == 0
    digest = hashlib.sha256((tmp_path / "flow_final.csv").read_bytes()).hexdigest()
    assert digest == "0b9c20adcbb81c44b26301b9f9dd4cbed9dbe56becdf777e2111d0fc0bfd6145"


def test_flow_graph_affine_start_converges_in_zero_steps(tmp_path):
    cfg = _write_cfg(tmp_path, {"resolution": 9, "amplitude": 0.0})
    out = tmp_path / "out"
    assert cli.main(["flow-graph", "--config", cfg, "--out", str(out)]) == 0
    report = _load_report(str(out), "flow-graph")
    steps = next(c for c in report["checks"] if c["name"] == "steps_to_converge")
    assert steps["value"] == 0.0


def test_report_empty_directory_warns(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["report", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "no run reports found" in err
    with open(out / "bundle.json") as fh:
        bundle = json.load(fh)
    assert bundle["schema"] == cli.BUNDLE_SCHEMA
    assert bundle["runs"] == []
    assert any("no run reports" in w for w in bundle["warnings"])


def test_report_reads_a_run_directory_whose_name_holds_glob_characters(tmp_path):
    out = tmp_path / "runs[1]"
    assert cli.main(["verify-prop41", "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    with open(out / "bundle.json") as fh:
        bundle = json.load(fh)
    assert [run["file"] for run in bundle["runs"]] == ["report_verify-prop41.json"]
    assert bundle["warnings"] == []


def test_out_naming_an_existing_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("kept\n")
    assert cli.main(["verify-prop41", "--out", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert path.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("stamp", ["abc", "1.5", "9" * 30])
def test_a_bad_source_date_epoch_is_a_config_error_before_any_artifact(
        tmp_path, capsys, monkeypatch, stamp):
    # found before the handler runs: no artifact and no empty report
    monkeypatch.setenv("SOURCE_DATE_EPOCH", stamp)
    out = tmp_path / "out"
    assert cli.main(["verify-prop41", "--out", str(out)]) == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
    assert not out.exists()


def test_report_merges_runs_chronologically(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_fast = _write_cfg(tmp_path, {"probes": 6})
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755830000")
    assert cli.main(["verify-targets", "--config", cfg_fast, "--out", str(out)]) == 0
    cfg_prop41 = _write_cfg(
        tmp_path,
        {
            "samples": 40,
            "restarts": 20,
        },
        name="prop41.json",
    )
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755820800")  # earlier than the first
    assert cli.main(["verify-prop41", "--config", cfg_prop41, "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    with open(out / "bundle.json") as fh:
        bundle = json.load(fh)
    order = [run["file"] for run in bundle["runs"]]
    assert order == ["report_verify-prop41.json", "report_verify-targets.json"]
    csv_lines = (out / "bundle.csv").read_text().splitlines()
    assert csv_lines[0].startswith("file,subcommand,status,check")
    assert len(csv_lines) > 2
    assert (out / "bundle.svg").read_text().lstrip().startswith("<svg")


def test_report_bundle_round_trip_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"probes": 6})
    cli.main(["verify-targets", "--config", cfg, "--out", str(out)])
    cli.main(["report", "--out", str(out)])
    raw = (out / "bundle.json").read_text()
    assert cli.dump_json(json.loads(raw)) == raw


def test_report_flags_merged_failures(tmp_path, flipped_height_hessian):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"probes": 6})
    assert cli.main(["verify-targets", "--config", cfg, "--out", str(out)]) == 1
    assert cli.main(["report", "--out", str(out)]) == 1


def test_out_flag_alone_places_the_run(tmp_path, monkeypatch):
    # the retired SHRINKER_LAB_OUT override is ignored
    monkeypatch.setenv("SHRINKER_LAB_OUT", str(tmp_path / "from_env"))
    cfg = _write_cfg(tmp_path, {"probes": 4})
    out = tmp_path / "out"
    assert cli.main(["verify-targets", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert sorted(p.name for p in out.iterdir()) == [
        "report_verify-targets.json", "target_residuals.csv"]


def test_report_csv_keeps_commas_and_line_breaks_in_their_column(tmp_path):
    # every free-text field of a merged report stays one field of its row
    out = tmp_path / "out"
    out.mkdir()
    check = {**_RUN["checks"][0], "name": "a,b", "kind": "mandatory,\nx"}
    run = {**_RUN, "subcommand": "verify,targets", "status": "PASS,\r", "checks": [check]}
    (out / "report_a,b.json").write_text(json.dumps(run))
    assert cli.main(["report", "--out", str(out)]) == 0
    with open(out / "bundle.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [9, 9]
    assert rows[1][:4] == ["report_a;b.json", "verify;targets", "PASS; ", "a;b"]
    assert rows[1][8] == "mandatory; x"


def test_report_csv_keeps_double_quotes_in_their_column(tmp_path):
    # a double quote would open a quoted field and swallow the row's rest
    out = tmp_path / "out"
    out.mkdir()
    check = {**_RUN["checks"][0], "name": 'a"b', "kind": 'mandatory"'}
    run = {**_RUN, "subcommand": '"verify', "status": 'PASS"', "checks": [check]}
    (out / 'report_"a.json').write_text(json.dumps(run))
    assert cli.main(["report", "--out", str(out)]) == 0
    with open(out / "bundle.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [9, 9]
    assert rows[1][:4] == ["report_'a.json", "'verify", "PASS'", "a'b"]
    assert rows[1][8] == "mandatory'"


def test_report_svg_escapes_file_names_and_statuses(tmp_path):
    # a copied report named with "&" and a status holding "<" keep bundle.svg
    # well-formed, and the parsed text reads them back
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"samples": 40, "restarts": 20})
    assert cli.main(["verify-prop41", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "report_verify-prop41.json").read_text()
    (out / "report_a&b.json").write_text(raw)
    (out / "report_c.json").write_text(json.dumps({**_RUN, "status": "PASS<&>"}))
    cli.main(["report", "--out", str(out)])
    svg = xml.dom.minidom.parse(str(out / "bundle.svg"))
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert "PASS report_a&b.json" in texts
    assert "PASS<&> report_c.json" in texts


def test_check_record_margin_conventions():
    below = cli.check_le("x", 0.5, 1.0, 1e-6)
    assert below.margin == pytest.approx(0.5)
    over = cli.check_le("x", 2.0, 1.0, 1e-6)
    assert cli.report_status([over]) == "FAIL"
    slack = cli.check_ge("x", -0.5e-6, 0.0, 1e-6)
    assert cli.report_status([slack]) == "PASS"
    watched = cli.check_le("x", 9.0, 1.0, 1e-6, kind="observation")
    assert cli.report_status([watched]) == "OBSERVATION"


def _nan_after_first(monkeypatch, module, name, poison):
    # module.name as before on its first call, poisoned by poison after it
    calls = []
    func = getattr(module, name)

    def wrapped(*args):
        calls.append(1)
        got = func(*args)
        return got if len(calls) == 1 else poison(got)

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("case", [
    "check_le", "check_ge", "verify-targets", "verify-shrinkers residual",
    "verify-shrinkers tension", "verify-shrinkers control", "verify-shrinkers composition",
    "verify-prop41 regroup", "verify-prop41 margin",
])
def test_a_nan_fails_a_mandatory_check(monkeypatch, tmp_path, case):
    # a NaN fails its check, and the max and min over a run keep it, also
    # when it follows a number
    if case == "check_le":
        assert cli.report_status([cli.check_le("x", math.nan, 0.0, 1e-6)]) == "FAIL"
        return
    if case == "check_ge":
        assert cli.report_status([cli.check_ge("x", math.nan, 0.0, 1e-6)]) == "FAIL"
        return
    command = case.split()[0]
    cfg = {
        "verify-targets": {"probes": 2},
        "verify-shrinkers": {"probes": 3, "composition_probes": 2},
        "verify-prop41": {"samples": 5, "restarts": 2},
    }[command]
    if command == "verify-targets":
        # the reduction residual of probe 1, after that of probe 0: one
        # stack holds both probes
        reduction = cli._reduction_residuals
        monkeypatch.setattr(cli, "_reduction_residuals",
                            lambda *a: np.where([False, True], math.nan, reduction(*a)))
    elif case == "verify-shrinkers residual":
        _nan_after_first(monkeypatch, immersion, "shrinker_residual",
                         lambda r: np.where(np.arange(len(r))[:, None] == 2, math.nan, r))
    elif case in ("verify-shrinkers tension", "verify-shrinkers control"):
        if case.endswith("control"):  # one catalog surface: only the control is poisoned
            cfg = dict(cfg, surfaces=["plane:n=2,m=2"])
        # T of the (centre frames, T) pair that verify-shrinkers reads
        _nan_after_first(monkeypatch, immersion, "_centre_tension",
                         lambda got: (got[0], np.where(
                             np.arange(len(got[1]))[:, None, None] == 2, math.nan, got[1])))
    elif case == "verify-shrinkers composition":
        _nan_after_first(monkeypatch, cli, "_composition_worst", lambda r: math.nan)
    else:
        # group_totals poisoned after its first call within the sampled
        # check, whose stacks are not the zero-lambda check's
        field = "grouped" if case.endswith("regroup") else "margin"
        sample_check = ineq.sample_check

        def poisoned_sample_check(*args):
            with pytest.MonkeyPatch.context() as inner:
                _nan_after_first(
                    inner, ineq, "group_totals",
                    lambda t: t._replace(**{field: np.full_like(getattr(t, field), math.nan)}),
                )
                return sample_check(*args)

        monkeypatch.setattr(ineq, "sample_check", poisoned_sample_check)
    path = _write_cfg(tmp_path, cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 1
    report = _load_report(str(tmp_path), command)
    assert report["status"] == "FAIL"
    status = {c["name"]: cli.report_status([cli.CheckRecord(**c)]) for c in report["checks"]}
    if case == "verify-shrinkers control":
        # the minimum keeps the NaN that follows numbers
        assert {name for name, s in status.items() if s == "FAIL"} == {
            "control_tension[sphere:n=2,R=1,c1=0.5]"}
    if command == "verify-prop41":
        # the poisoned check fails alone: the zero-lambda check, which reads
        # its own stack, passes
        poisoned = "regroup_max" if case.endswith("regroup") else "sample_min_margin"
        assert {name for name, s in status.items() if s == "FAIL"} == {poisoned}
        assert status["zero_lambda_margin"] == "PASS"


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = _write_cfg(tmp_path, {"probes": 4, "seed": 11})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["verify-targets", "--config", cfg, "--out", str(out_a)])
    cli.main(
        ["verify-targets", "--config", cfg, "--out", str(out_b), "--seed", "12"]
    )
    rep_a = _load_report(str(out_a), "verify-targets")
    rep_b = _load_report(str(out_b), "verify-targets")
    assert rep_a["provenance"]["seed"] == 11
    assert rep_b["provenance"]["seed"] == 12
    assert (out_a / "target_residuals.csv").read_text() != (
        out_b / "target_residuals.csv"
    ).read_text()


def _ref_target_rows(seed_seq, count, step):
    # the reference probes, one at a time, on one bulk draw, with their rows
    # in TARGET_FAMILIES order
    (x, a, hw), (y, lw), grass, (tilt, rom) = cli._draw_targets(
        np.random.default_rng(seed_seq), count)
    probe_grass = {k: g for rows, *stacks in grass.values()
                   for k, g in zip(rows.tolist(), zip(*stacks))}
    rows = []
    for k in range(count):
        rows.append(_ref_height_probe(x[k], a[k], hw[k], step))
        rows.extend(_ref_longitude_probe(y[k], lw[k], step))
        rows.extend(_ref_grassmann_probe(*probe_grass[k], step))
        rows.append(_ref_reduction_probe(tilt[k], rom[k], step))
    return list(zip(cli.TARGET_FAMILIES * count, rows))


def _family_rows(residuals):
    # (count, 7) residuals as (family, value) rows, probe by probe
    return [row for probe in residuals.tolist() for row in zip(cli.TARGET_FAMILIES, probe)]


# probe 70 of the second of eight random streams at seed 0, when every
# probe was drawn with its own generator calls: the Gaussian matrix of the
# base plane, the chart velocity and its scale, and the probe velocity
_NEAR_ZERO_ANGLE_PROBE = (
    [[0.3643761739623491, 0.926668834853784, -0.4227290634985127],
     [0.022396706960390263, 1.520931839431247, 0.10088072559899439],
     [0.1974263305847077, -0.524337956720583, -0.36860903906108416],
     [-0.5337245994332588, 1.2603922173835451, -0.0018857784977254445],
     [-0.0836877166802098, 1.4770874561163774, -0.7821349869832959],
     [-1.1145594681224424, 0.9841280413514604, 0.8729211522308916]],
    [[-0.04624757549588375, 1.1300133756710817, 0.9269469072823368],
     [-0.8782926250316406, -1.3849640784387751, -1.8155151625129777],
     [-1.2560859116986203, 2.1790768557608815, 0.9411712860520483]],
    0.20357304037862123,
    [[0.23890950914380263, 0.32209235838623784, -1.1052287264704792],
     [1.131336878505956, -0.27338177607084435, -0.4072970880847563],
     [0.7104316502416679, -1.5906468757918188, -0.5409005681047082]],
)


def test_target_probes_near_zero_angle_keep_orthonormal_normals():
    # n = m = 3 with principal cosines [1, 0.994, 0.975], the first at sine
    # 1.8e-5: normalised without orthogonalization, its partner normal missed
    # orthonormality by 1.1e-10 and the geodesic check raised.  Stacked with
    # a probe of the same shape, every row keeps the reference's bits
    rng = np.random.default_rng(70)
    other = (rng.standard_normal((6, 3)), rng.standard_normal((3, 3)), 0.5,
             rng.standard_normal((3, 3)))
    stacks = [np.array(s) for s in zip(_NEAR_ZERO_ANGLE_PROBE, other)]
    base = grassmann.OrientedFrame(np.linalg.qr(stacks[0])[0].swapaxes(-1, -2))
    spec = grassmann.jordan_spectrum(cli._frame_in_chart(base, *stacks[1:3]), base)
    assert spec.mu[0].tolist() == pytest.approx([1.0, 0.99405, 0.97503], abs=1e-5)
    frames = np.concatenate([spec.tangent_frame.vectors, spec.normal_frame], axis=-2)
    gram = frames @ frames.swapaxes(-1, -2) - np.eye(6)
    assert np.abs(gram).max() <= 1e-14
    cols = np.array(cli._grassmann_residuals(*stacks, 1e-4))
    assert cols.max() <= 1e-5
    assert cols.T.tolist() == [list(_ref_grassmann_probe(*probe, 1e-4))
                               for probe in zip(*stacks)]


def _count_calls(monkeypatch, *targets):
    # calls of each (module, name) by name
    calls = {name: 0 for _, name in targets}

    def counting(name, func):
        def wrapped(*args):
            calls[name] += 1
            return func(*args)
        return wrapped

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def _shapes_drawn(seed_seq, count):
    # the Grassmannian probe shapes (n, m) of a draw pass
    return set(cli._draw_targets(np.random.default_rng(seed_seq), count)[2])


def test_target_draw_meets_the_probe_regions():
    (x, a, hw), (y, lw), grass, (tilt, rom) = cli._draw_targets(np.random.default_rng(5), 500)
    for units in (x, a, hw, y, lw):
        assert np.abs(np.linalg.norm(units, axis=-1) - 1.0).max() <= 1e-15
    assert np.abs(np.sum(x * a, axis=-1)).min() >= 0.3
    r = np.hypot(y[:, 0], y[:, 1])
    assert r.min() >= 0.35 and np.all(y[:, 0] > -0.8 * r)
    # every probe in the block of its shape, blocks in sorted shape order
    assert list(grass) == sorted(grass) == [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    assert sorted(np.concatenate([g[0] for g in grass.values()]).tolist()) == list(range(500))
    for (n, m), (rows, gauss, chart_om, scale, om) in grass.items():
        assert np.all(np.diff(rows) > 0)
        assert gauss.shape == (len(rows), n + m, n)
        assert chart_om.shape == om.shape == (len(rows), n, m)
        assert scale.shape == (len(rows),)
    for values in (np.concatenate([g[3] for g in grass.values()]), tilt):
        assert 0.1 <= values.min() and values.max() < 1.0
    assert tilt.shape == (500,) and rom.shape == (500, 2, 1)


class _CountingGenerator:
    # a random generator recording the method and output shape of each call
    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args):
            out = method(*args)
            self.calls.append((name, np.shape(out)))
            return out
        return call


@pytest.mark.parametrize("seed", [0, 61])
def test_target_draw_calls_the_generator_a_fixed_number_of_times(monkeypatch, seed):
    # a draw pass calls its generator in bulk: apart from the rounds
    # that redraw rejected unit vectors, standard_normal((k, d)) with d <= 3
    # and k below the count, the calls do not grow with the count (one draw
    # per probe and family made about 15 calls per probe)
    make, generators = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seq: generators.append(_CountingGenerator(make(seq)))
                        or generators[-1])
    fixed = []
    for count in (100, 400):
        cli._target_batch(np.random.SeedSequence(seed), count, 1e-4)
        calls = generators.pop().calls
        rounds = [call for call in calls if call[0] == "standard_normal"
                  and len(call[1]) == 2 and call[1][1] <= 3 and call[1][0] < count]
        assert len(rounds) <= 30
        fixed.append([name for name, shape in calls if (name, shape) not in rounds])
    assert fixed[0] == fixed[1]
    assert len(fixed[0]) == 19


@pytest.mark.parametrize("count", [1, 5, 30])
def test_target_chunk_takes_one_spectrum_per_shape_and_one_for_the_reduction(
        monkeypatch, count):
    # the Grassmannian probes of one shape (n, m) share one spectrum, and
    # the three geodesic frames of each one overlap_values call
    shapes = len(_shapes_drawn(np.random.SeedSequence(3), count))
    calls = _count_calls(monkeypatch, (grassmann, "jordan_spectrum"),
                         (grassmann, "overlap_values"))
    rows = cli._target_batch(np.random.SeedSequence(3), count, 1e-4)
    assert calls == {"jordan_spectrum": shapes + 1, "overlap_values": shapes}
    assert rows.max() <= 1e-5


@pytest.mark.parametrize("count", [1, 5, 30])
def test_target_chunk_makes_two_geodesic_calls_per_shape_and_three_great_circle_calls(
        monkeypatch, count):
    # per shape one geodesic to the random planes and one at the times
    # (step, 0, -step), one for the reduction; one great circle per sphere
    # family and one for the reduction's tilts
    shapes = len(_shapes_drawn(np.random.SeedSequence(2), count))
    calls = _count_calls(monkeypatch, (grassmann, "geodesic_from_velocity"),
                         (sphere, "great_circle"))
    rows = cli._target_batch(np.random.SeedSequence(2), count, 1e-4)
    assert rows.shape == (count, len(cli.TARGET_FAMILIES))
    assert calls == {"geodesic_from_velocity": 2 * shapes + 1, "great_circle": 3}


def test_default_verify_targets_takes_one_stack_per_family_over_all_chunks(
        monkeypatch, tmp_path):
    # one spectrum and two geodesic calls per shape (n, m) drawn, one of
    # each for the reduction, and three great circle calls
    cfg = cli.load_config("verify-targets", seed=61)
    shapes = len(_shapes_drawn(np.random.SeedSequence(61), cfg["probes"]))
    calls = _count_calls(monkeypatch, (grassmann, "jordan_spectrum"),
                         (grassmann, "geodesic_from_velocity"), (sphere, "great_circle"))
    assert cli.main(["verify-targets", "--seed", "61", "--out", str(tmp_path)]) == 0
    assert calls == {"jordan_spectrum": shapes + 1,
                     "geodesic_from_velocity": 2 * shapes + 1, "great_circle": 3}


def test_default_verify_shrinkers_takes_one_kernel_call_per_surface(monkeypatch, tmp_path):
    # one frame-kernel call per surface over all its probes: the residuals
    # read the tension's centre frames; the composition checks, counted
    # apart, are stubbed out
    calls = []
    kernel = immersion._frame_kernel
    monkeypatch.setattr(immersion, "_frame_kernel", lambda *a: calls.append(1) or kernel(*a))
    monkeypatch.setattr(cli, "_composition_worst", lambda *a: 0.0)
    cfg = cli.load_config("verify-shrinkers", seed=61)
    cli.cmd_verify_shrinkers(cfg, str(tmp_path))
    assert len(calls) == len(cfg["surfaces"]) + len(cfg["control_surfaces"])


@pytest.mark.parametrize("seed, digest", [
    (0, "045cfd2ec51bb8cb8d73c1638cf547af7ed82999003ba78544dcf6320d65a57d"),
    (61, "7e44d09ef29221c60d95f235c1513448c766b5da43538276ccb8044c9b9d6b41"),
], ids=["0", "61"])
def test_target_residuals_at_the_default_config_are_pinned(tmp_path, seed, digest):
    # sha256 of target_residuals.csv with the chart and the logarithms and
    # cosines taken by NumPy ufuncs over the batch, and every probe drawn in
    # bulk on one random stream
    assert cli.main(["verify-targets", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "target_residuals.csv").read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "ade340697363d53aa522e5d12ac07df9b5491e90e31e7712ea010a1639c049a1"),
    (61, "c6d35708f50f430f37acc742dc04e4c4039af823dbe218234cc2c5af88cf4376"),
], ids=["0", "61"])
def test_shrinker_residuals_at_the_default_config_are_pinned(tmp_path, seed, digest):
    # sha256 of shrinker_residuals.csv with the surface names quoted; the
    # rows are those the (residual, tension) row tuples wrote
    assert cli.main(["verify-shrinkers", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "shrinker_residuals.csv").read_bytes()).hexdigest()
    assert got == digest


@pytest.fixture
def chart_calls(monkeypatch):
    # the shapes of the stacks that sphere.longitude_coords is called on
    calls = []
    chart = sphere.longitude_coords
    monkeypatch.setattr(sphere, "longitude_coords", lambda x: calls.append(x.shape) or chart(x))
    return calls


@pytest.mark.parametrize("count", [1, 7, 30])
def test_target_batch_takes_the_longitude_chart_in_one_call(chart_calls, count):
    cli._target_batch(np.random.SeedSequence(count), count, 1e-4)
    assert chart_calls == [(count, 3, 3)]


# the probes as they were with one geodesic call per time, kept as the
# reference the batched probes must equal


def _ref_height_probe(x, a, w, step):
    w = w @ sphere.tangent_frame(x)

    def f(t):
        y = sphere.great_circle(x, w, t)
        return sphere.height_value(y / np.linalg.norm(y), a)

    d2 = cli._second_difference(f(step), f(0.0), f(-step), step)
    return cli._relative_defect(d2, sphere.height_hessian(x, a, w, w))


def _ref_longitude_probe(x, w, step):
    w = w @ sphere.tangent_frame(x)

    def coords(t):
        y = sphere.great_circle(x, w, t)
        return sphere.longitude_coords(y / np.linalg.norm(y))

    (r0, t0), (rp, tp), (rm, tm) = coords(0.0), coords(step), coords(-step)
    cr, ct = sphere.longitude_hessians(x, w, w)
    return (cli._relative_defect(cli._second_difference(rp, r0, rm, step), cr),
            cli._relative_defect(cli._second_difference(tp, t0, tm, step), ct))


def _ref_grassmann_probe(gauss, chart_om, scale, om, step):
    base = grassmann.OrientedFrame(np.linalg.qr(gauss)[0].T)
    top = max(float(np.linalg.svd(chart_om)[1][0]), 1e-12)
    chart_om = chart_om * (1.1 * scale / top)
    complement = np.linalg.qr(base.vectors.T, mode="complete")[0][:, base.n:].T
    P = grassmann.geodesic_from_velocity(base, complement, chart_om, 1.0)
    spec = grassmann.jordan_spectrum(P, base)
    om = om / np.linalg.norm(om)
    Z = grassmann.TangentCoeffs(om, spec.tangent_frame)
    frames = np.stack([
        grassmann.geodesic_from_velocity(spec.tangent_frame, spec.normal_frame, om, t).vectors
        for t in (step, 0.0, -step)
    ])
    vp, v0, vm = grassmann.v_values(
        grassmann.overlap_values(grassmann.OrientedFrame(frames), base)).tolist()
    lp, l0, lm = np.log(vp), np.log(v0), np.log(vm)
    return (
        cli._relative_defect(cli._second_difference(vp, v0, vm, step),
                             grassmann.hess_v_form(spec, Z)),
        cli._relative_defect(cli._second_difference(lp, l0, lm, step),
                             grassmann.hess_logv_form(spec, Z)),
        cli._relative_defect((lp - lm) / (2.0 * step), grassmann.dlogv_form(spec, Z)),
    )


def _ref_reduction_probe(a, om, step):
    nu0 = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    a = float(a)
    nu = sphere.great_circle(nu0, u, a)
    r1 = np.cross(np.array([0.0, 1.0, 0.0]), nu)
    r1 /= np.linalg.norm(r1)
    r2 = np.cross(nu, r1)
    P = grassmann.OrientedFrame(np.vstack([r1, r2]))
    base = grassmann.OrientedFrame(np.eye(3)[:2])
    spec = grassmann.jordan_spectrum(P, base)
    sec = 1.0 / np.cos(a)
    res = abs(grassmann.v_values(spec.mu) - sec) / sec
    Z = grassmann.TangentCoeffs(om, spec.tangent_frame)

    def sec_along(t):
        frame = grassmann.geodesic_from_velocity(
            spec.tangent_frame, spec.normal_frame, om, t
        )
        n_t = np.cross(frame.vectors[0], frame.vectors[1])
        return 1.0 / abs(float(n_t @ nu0))

    fd = cli._second_difference(sec_along(step), sec_along(0.0), sec_along(-step), step)
    return max(res, cli._relative_defect(fd, grassmann.hess_v_form(spec, Z)))


@pytest.mark.parametrize("seed", range(10))
def test_target_probes_equal_the_per_time_reference(seed):
    # the batch's rows equal the reference probes run in draw order on the
    # same random stream, row for row and bit for bit
    for count in (1, 7, 30):
        args = (np.random.SeedSequence(seed), count, 1e-4)
        assert _family_rows(cli._target_batch(*args)) == _ref_target_rows(*args)


@pytest.mark.parametrize("count", [1, 7, 30])
def test_surface_chunk_makes_one_kernel_call(monkeypatch, count):
    # one frame-kernel call over the surface's centres and their stencils
    calls = []
    kernel = immersion._frame_kernel
    monkeypatch.setattr(immersion, "_frame_kernel", lambda *a: calls.append(1) or kernel(*a))
    rows = cli._surface_batch("cylinder:k=1,n=2", np.random.SeedSequence(4), count)
    assert rows.shape == (count, 2)
    assert len(calls) == 1


def _ref_composition_worst(name, seed_seq, count):
    # the per-probe admission loop: one point_frame, one w_product and one
    # composition_checks call per candidate
    imm = immersion.catalog_immersion(name)
    rng = np.random.default_rng(seed_seq)
    ref, pole = cli._composition_targets(imm)
    worst = 0.0
    kept = 0
    attempts = 0
    while kept < count and attempts < 50 * count:
        attempts += 1
        p = cli._chart_probes(imm, rng, 1)[0]
        pf = immersion.point_frame(imm, p)
        if abs(grassmann.w_product(grassmann.OrientedFrame(pf.tangent), ref)) < 0.3:
            continue
        kept += 1
        for residual in immersion.composition_checks(imm, p, ref, pole):
            worst = max(worst, abs(residual))
    assert kept == count
    return worst


def _composition_calls(monkeypatch, tmp_path, seed):
    """(arguments, frame-kernel calls, result) of each _composition_worst
    call of one verify-shrinkers run."""
    calls, kernel_calls = [], []
    kernel, worst = immersion._frame_kernel, cli._composition_worst
    monkeypatch.setattr(immersion, "_frame_kernel",
                        lambda *a: kernel_calls.append(1) or kernel(*a))

    def recording(*args):
        before = len(kernel_calls)
        got = worst(*args)
        calls.append((args, len(kernel_calls) - before, got))
        return got

    monkeypatch.setattr(cli, "_composition_worst", recording)
    cli.cmd_verify_shrinkers(cli.load_config("verify-shrinkers", seed=seed), str(tmp_path))
    return calls


@pytest.mark.parametrize("seed", range(10))
def test_composition_admission_equals_the_per_probe_loop(monkeypatch, tmp_path, seed):
    calls = _composition_calls(monkeypatch, tmp_path, seed)
    assert [args[0] for args, _, _ in calls] == cli.DEFAULTS["verify-shrinkers"]["surfaces"]
    for args, _, got in calls:
        assert got == _ref_composition_worst(*args)


def test_composition_admission_makes_few_kernel_calls(monkeypatch, tmp_path):
    # at seed 61 the per-probe loop made 41 to 57 calls per surface; rounds
    # of candidates take one per round, plus one for the reference plane and
    # one for all the admitted probes
    calls = _composition_calls(monkeypatch, tmp_path, 61)
    assert len(calls) == 3
    assert all(kernel <= 4 for _, kernel, _ in calls)
