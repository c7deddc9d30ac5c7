import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from weingarten import cli, meshes, odekit, parab_h3, rot_r3
from weingarten.geomcore import WeingartenParams

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "report.schema.json").read_text())


def run(argv):
    return cli.main(argv)


def validate_report(path: Path):
    jsonschema.validate(json.loads(path.read_text()), SCHEMA)


# Fast shared settings: one rotational period, coarse curve sampling.
ROT_ARGS = ["rot-r3", "integrate", "--a", "2", "--b", "-2", "--z0", "3",
            "--periods", "2", "--samples-per-period", "400"]


def test_rot_integrate_artifacts(tmp_path):
    code = run(ROT_ARGS + ["--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "rot_curve.csv"
    assert csv_path.exists()
    assert csv_path.read_text().startswith("s,x,z,theta,theta_prime,first_integral_residual")
    validate_report(tmp_path / "rot_report.json")


def test_rot_report_schema(tmp_path):
    code = run(["rot-r3", "report", "--a", "2", "--b", "-2", "--z0", "3",
                "--periods", "2", "--out", str(tmp_path)])
    assert code == 0
    validate_report(tmp_path / "rot_report.json")


def test_parab_integrate_and_classify(tmp_path):
    assert run(["parab-h3", "integrate", "--a", "0.5", "--b", "-1", "--z0", "1",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "parab_curve.csv").exists()
    validate_report(tmp_path / "parab_profile.json")

    assert run(["parab-h3", "classify", "--a", "0.5", "--b", "-1", "--z0", "1",
                "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "parab_classification.json").read_text())
    assert rep["label"] == "CompleteConcaveGraph"
    validate_report(tmp_path / "parab_classification.json")


def test_cyclic_subcommands(tmp_path):
    assert run(["cyclic", "riemann", "--lam", "1", "--mu", "0", "--out", str(tmp_path)]) == 0
    validate_report(tmp_path / "cyclic_riemann.json")

    assert run(["cyclic", "cone", "--f1", "0.3", "--g1", "0.4", "--r0", "1",
                "--r1", "0.5", "--out", str(tmp_path)]) == 0
    validate_report(tmp_path / "cyclic_cone.json")
    assert (tmp_path / "cyclic_residual.csv").read_text().startswith("u,v,residual")

    assert run(["cyclic", "coeffs", "--surface", "sphere", "--a", "2", "--b", "0",
                "--c", "2", "--out", str(tmp_path)]) == 0
    validate_report(tmp_path / "cyclic_coefficients.json")


def test_mesh_export(tmp_path):
    assert run(["mesh", "export", "--surface", "cone", "--f1", "0.3", "--g1", "0.4",
                "--r0", "1", "--r1", "0.5", "--s-samples", "10", "--phi-samples", "12",
                "--out", str(tmp_path)]) == 0
    obj = (tmp_path / "surface.obj").read_text().splitlines()
    assert sum(1 for ln in obj if ln.startswith("v ")) == 10 * 12
    assert any(ln.startswith("f ") for ln in obj)


def test_mesh_export_rot_and_parab(tmp_path):
    assert run(["mesh", "export", "--surface", "rot", "--a", "2", "--b", "-2", "--z0", "3",
                "--s-samples", "20", "--phi-samples", "8", "--obj-name", "rot.obj",
                "--out", str(tmp_path)]) == 0
    rot_obj = (tmp_path / "rot.obj").read_text().splitlines()
    assert sum(1 for ln in rot_obj if ln.startswith("v ")) == 20 * 8

    assert run(["mesh", "export", "--surface", "parab", "--a", "0.5", "--b", "-1",
                "--z0", "1", "--s-samples", "12", "--phi-samples", "6",
                "--obj-name", "parab.obj", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "parab.obj").exists()


@pytest.mark.parametrize("surface, extra, wraps", [
    ("rot", ["--a", "2", "--b", "-2", "--z0", "3"], True),
    ("parab", ["--a", "0.5", "--b", "-1", "--z0", "1"], False),
    ("sphere", [], True),
    ("cone", ["--r1", "0.5"], True),
    ("riemann", ["--lam", "1", "--r0p", "0.1"], True),
])
def test_mesh_export_closes_only_the_closed_surfaces(tmp_path, surface, extra, wraps):
    assert run(["mesh", "export", "--surface", surface, *extra, "--s-samples", "7", "--phi-samples", "5",
                "--out", str(tmp_path)]) == 0
    faces = [ln for ln in (tmp_path / "surface.obj").read_text().splitlines() if ln.startswith("f ")]
    assert len(faces) == 6 * (5 if wraps else 4)


def test_mesh_export_rot_equals_revolved_mesh(tmp_path):
    assert run(["mesh", "export", "--surface", "rot", "--a", "2", "--b", "-2", "--z0", "3",
                "--s-samples", "20", "--phi-samples", "8", "--out", str(tmp_path)]) == 0
    profile = rot_r3.integrate_profile(WeingartenParams(2, -2, 1), 3.0, n_periods=1, tol=1e-10)
    surf = rot_r3.revolve(profile, phi_samples=8, s_samples=20)
    meshes.write_obj(tmp_path / "revolved.obj", surf.vertices, surf.faces)
    assert (tmp_path / "surface.obj").read_bytes() == (tmp_path / "revolved.obj").read_bytes()


def test_nonfinite_numeric_input_rejected(tmp_path):
    assert run(["rot-r3", "integrate", "--a", "inf", "--b", "-2", "--z0", "3",
                "--out", str(tmp_path)]) == 1


def test_figures_reproduce(tmp_path):
    code = run(["figures", "reproduce", "--samples-per-period", "300", "--out", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"fig3_rot.csv", "fig41a_parab.csv", "fig41b_parab.csv",
            "fig42a_parab.csv", "fig42b_parab.csv", "figures_manifest.json"} <= names
    validate_report(tmp_path / "figures_manifest.json")


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert run(ROT_ARGS + ["--out", str(d)]) == 0
    for name in ("rot_curve.csv", "rot_report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_usage_error_exit_code():
    assert run(["rot-r3", "integrate", "--b", "-2", "--z0", "3"]) == 1  # missing --a


def test_bad_numeric_input_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["rot-r3", "integrate", "--a", "nope", "--b", "-2", "--z0", "3"])
    assert exc.value.code == 1


def test_domain_errors_are_usage_errors(tmp_path):
    # out-of-scope classification parameters: actionable message, exit 1
    assert run(["parab-h3", "classify", "--a", "1.5", "--b", "-1.2",
                "--out", str(tmp_path)]) == 1


def test_verdict_failure_exit_code(tmp_path):
    # sphere does not satisfy 2H = 1.5: coefficients are nonzero
    assert run(["cyclic", "coeffs", "--surface", "sphere", "--a", "2", "--b", "0",
                "--c", "1.5", "--out", str(tmp_path)]) == 2


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("WEINGARTEN_OUT", str(env_dir))
    assert run(["parab-h3", "classify", "--a", "0.5", "--b", "-0.2",
                "--out", str(tmp_path / "ignored")]) == 0
    assert (env_dir / "parab_classification.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": 0.5, "b": -1.0, "z0": 5.0}))
    out = tmp_path / "out"
    # --z0 on the command line overrides the config's 5.0
    assert run(["parab-h3", "classify", "--config", str(config),
                "--z0", "1", "--out", str(out)]) == 0
    rep = json.loads((out / "parab_classification.json").read_text())
    assert rep["z0"] == 1.0
    assert rep["params"]["a"] == 0.5


def test_config_file_alone_supplies_required(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": 0.5, "b": -0.2, "z0": 1.0}))
    out = tmp_path / "out"
    assert run(["parab-h3", "classify", "--config", str(config), "--out", str(out)]) == 0
    rep = json.loads((out / "parab_classification.json").read_text())
    assert rep["label"] == "PeriodicComplete"


def test_parab_integrate_empty_trajectory_fails_verdicts(tmp_path):
    # z0 below the z floor would underflow at s = 0 with nothing to verify:
    # it is refused as a usage error before any report is written
    assert run(["parab-h3", "integrate", "--a", "0.5", "--b", "-1", "--z0", "1e-12",
                "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "parab_profile.json").exists()


def test_parab_integrate_first_step_underflow_is_usage_error(tmp_path):
    # z0 = 2e-8 clears the z floor, but no first step can be taken: exit 1
    # and no report, instead of a report with s_max = 0
    assert run(["parab-h3", "integrate", "--a", "0.5", "--b", "-1", "--z0", "2e-8",
                "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["cyclic", "riemann", "--u-min", "0", "--u-max", "0"],
    ["mesh", "export", "--surface", "riemann", "--u-min", "0", "--u-max", "0"],
    ["mesh", "export", "--surface", "cone", "--u-min", "0", "--u-max", "0"],
    # u = 3 lies outside the integrated range (-1, 1): the dense output
    # would only extrapolate, and the minimal relation holds there regardless
    ["cyclic", "coeffs", "--surface", "riemann", "--lam", "1", "--u", "3", "--a", "1", "--b", "0", "--c", "0"],
])
def test_empty_or_outside_cyclic_range_is_usage_error(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["cyclic", "coeffs", "--surface", "sphere", "--radius", "-1"],
    ["mesh", "export", "--surface", "sphere", "--radius", "-1"],
    ["mesh", "export", "--surface", "sphere", "--radius", "0"],
])
def test_nonpositive_sphere_radius_is_named(argv, tmp_path, capsys):
    # the radius is the bad input, not the u range derived from it
    assert run(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"R = {float(argv[-1])}" in err and "u_range" not in err
    assert list(tmp_path.iterdir()) == []


def _obj_z_span(path):
    z = [float(line.split()[3]) for line in path.read_text().splitlines() if line.startswith("v ")]
    return min(z), max(z)


@pytest.mark.parametrize("flags,span", [
    ([], (-0.7 * 1.3, 0.7 * 1.3)),
    (["--u-min", "-0.2", "--u-max", "0.2"], (-0.2, 0.2)),
    (["--u-max", "0.5"], (-0.7 * 1.3, 0.5)),
], ids=["defaults", "both", "u-max-only"])
def test_sphere_mesh_spans_the_u_range_flags(flags, span, tmp_path):
    argv = ["mesh", "export", "--surface", "sphere", "--radius", "1.3", "--s-samples", "20", "--phi-samples", "16"]
    assert run(argv + ["--out", str(tmp_path / "default")]) == 0
    assert run(argv + flags + ["--out", str(tmp_path / "flags")]) == 0
    default, flagged = (tmp_path / d / "surface.obj" for d in ("default", "flags"))
    assert _obj_z_span(flagged) == span
    assert (flagged.read_bytes() == default.read_bytes()) == (flags == [])


@pytest.mark.parametrize("command", ["integrate", "classify"])
def test_loose_tol_sign_change_names_the_tolerance(tmp_path, capsys, command):
    # Fig. 4.1b lies inside the studied families; at tol 1e-3 integration
    # error flips the sign of theta', and the usage error must say so.
    assert run(["parab-h3", command, "--a", "0.5", "--b", "-0.8", "--tol", "1e-3",
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "changed sign" in err and "tol = 0.001" in err and "integration error" in err


def test_parab_classify_integrates_with_tol(tmp_path, monkeypatch):
    tols = []
    integrate = parab_h3.integrate_parabolic

    def recorded(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(parab_h3, "integrate_parabolic", recorded)
    assert run(["parab-h3", "classify", "--a", "0.5", "--b", "-1", "--tol", "1e-9",
                "--out", str(tmp_path)]) == 0
    assert tols == [1e-9]


@pytest.mark.parametrize("argv", [
    ["mesh", "export", "--surface", "cone", "--phi-samples", "0"],
    ["mesh", "export", "--surface", "sphere", "--phi-samples", "1"],
    ["mesh", "export", "--surface", "sphere", "--s-samples", "1"],
    ["mesh", "export", "--surface", "rot", "--s-samples", "-3"],
    ["rot-r3", "integrate", "--a", "2", "--b", "-2", "--z0", "3", "--periods", "2",
     "--samples-per-period", "0"],
    ["figures", "reproduce", "--samples-per-period", "-1"],
])
def test_small_counts_are_usage_errors(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert not any(p.suffix in (".obj", ".csv") for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv,named", [
    (["cyclic", "coeffs", "--n-max", "-1"], "n_max = -1"),
    (["rot-r3", "report", "--a", "2", "--b", "-2", "--z0", "3", "--periods", "0"], "n_periods = 0"),
    (["rot-r3", "report", "--a", "2", "--b", "-2", "--z0", "3", "--periods", "-1"], "n_periods = -1"),
], ids=["n-max-negative", "periods-zero", "periods-negative"])
def test_out_of_range_counts_are_named_in_the_usage_error(argv, named, tmp_path, capsys):
    # an input error, not an integration failure or a traceback
    assert run(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [
    {"a": "nope", "b": -0.2},
    {"a": [0.5], "b": -0.2},
    {"a": None, "b": -0.2},
    {"a": True, "b": -0.2},
    {"a": 0.5, "b": {"value": -0.2}},
])
def test_config_values_of_wrong_type_are_usage_errors(config, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run(["parab-h3", "classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


def test_config_values_convert_like_flags(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"a": "0.5", "b": -0.2, "z0": 1}))
    out = tmp_path / "out"
    assert run(["parab-h3", "classify", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "parab_classification.json").read_text())
    assert rep["params"]["a"] == 0.5 and rep["label"] == "PeriodicComplete"
    assert isinstance(rep["z0"], float)

    path.write_text(json.dumps({"surface": "torus"}))
    assert run(["cyclic", "coeffs", "--config", str(path), "--out", str(out)]) == 1
    path.write_text(json.dumps({"periods": 2.5}))
    assert run(["rot-r3", "report", "--config", str(path), "--a", "2", "--b", "-2",
                "--z0", "3", "--out", str(out)]) == 1


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _load_tool(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_artifact_digest_covers_every_subcommand_and_surface():
    tool = _load_tool("artifact_digest")
    covered = {tuple(argv[:2]) for argv in tool.RUNS}
    groups = _subparsers(cli.build_parser())
    assert covered == {(g, c) for g, gp in groups.items() for c in _subparsers(gp)}
    for group, command in (("mesh", "export"), ("cyclic", "coeffs")):
        choices = next(a.choices for a in _subparsers(groups[group])[command]._actions
                       if a.dest == "surface")
        used = {argv[argv.index("--surface") + 1] for argv in tool.RUNS if argv[:2] == [group, command]}
        assert used == set(choices)


def test_artifact_digest_matches_record(monkeypatch):
    # the artifact bytes of every subcommand, as the tool recorded them
    tool = _load_tool("artifact_digest")
    if np.__version__ != tool.EXPECTED_NUMPY:
        pytest.skip(f"digest recorded under numpy {tool.EXPECTED_NUMPY}, running {np.__version__}")
    monkeypatch.delenv("WEINGARTEN_OUT", raising=False)
    assert tool.combined_digest(tool.digest_lines()) == tool.EXPECTED


def test_artifact_digest_exits_1_on_a_mismatch_under_the_recorded_numpy(monkeypatch, capsys):
    tool = _load_tool("artifact_digest")
    monkeypatch.setattr(tool, "digest_lines", lambda: iter(["exit=0 cyclic cone"]))
    combined = tool.hashlib.sha256(b"exit=0 cyclic cone\n").hexdigest()
    monkeypatch.setattr(tool, "EXPECTED_NUMPY", np.__version__)
    assert tool.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"combined {combined}"
    assert tool.EXPECTED in err
    monkeypatch.setattr(tool, "EXPECTED", combined)
    assert tool.main() == 0
    monkeypatch.setattr(tool, "EXPECTED", "0" * 64)
    monkeypatch.setattr(tool, "EXPECTED_NUMPY", "0.0.0")
    assert tool.main() == 0


def test_seeded_digest_smoke():
    # a few seeded items of each benchmark workload, hashed twice alike
    tool = _load_tool("seeded_digest")
    items = {"rot_verify": 1, "parab_classify": 2, "surface_export": 2}
    lines = list(tool.digest_lines(seeds=[1], items=items))
    assert [line.split()[:3] for line in lines] == [[name, "seed=1", f"items={n}"] for name, n in items.items()]
    assert all(len(line.split()[3]) == 64 for line in lines)
    assert list(tool.digest_lines(seeds=[1], items=items)) == lines


def test_seeded_digest_exits_1_on_a_mismatch_under_the_recorded_numpy(monkeypatch, capsys):
    tool = _load_tool("seeded_digest")
    monkeypatch.setattr(tool, "digest_lines", lambda: iter(["rot_verify seed=1 items=1 00"]))
    combined = tool.hashlib.sha256(b"rot_verify seed=1 items=1 00\n").hexdigest()
    monkeypatch.setattr(tool, "EXPECTED_NUMPY", np.__version__)
    assert tool.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"combined {combined}"
    assert tool.EXPECTED in err
    monkeypatch.setattr(tool, "EXPECTED", combined)
    assert tool.main() == 0
    monkeypatch.setattr(tool, "EXPECTED", "0" * 64)
    monkeypatch.setattr(tool, "EXPECTED_NUMPY", "0.0.0")
    assert tool.main() == 0


def test_traced_layers_resolve_in_the_library():
    # The benchmark's layer tracer (``wbench/run.py --trace 1``) wraps these
    # functions by name; each must still exist where the tracer looks.
    layertrace = _load_tool("layertrace", folder="wbench")
    assert layertrace.TRACED
    for name in layertrace.TRACED:
        module, attr = name.split(".")
        lib = importlib.import_module(f"weingarten.{module}")
        target = lib.Trajectory.__call__ if name == "odekit.dense_eval" else getattr(lib, attr, None)
        assert callable(target), name
    # It also reads these odekit names, rebuilds the IvpSpec with a counting
    # rhs through dataclasses.replace, finds the families' integrate by
    # identity with odekit.integrate, and calls it as fn(spec, s_end, guard).
    inspect.signature(odekit.integrate).bind(odekit.IvpSpec(rhs=None, s0=0.0, y0=[0.0]), 1.0, None)
    assert issubclass(odekit.StepUnderflowError, Exception)
    assert isinstance(odekit.GUARD_STOP, str) and isinstance(odekit.UNDERFLOW, str)
    assert "rhs" in {f.name for f in dataclasses.fields(odekit.IvpSpec)}
    assert rot_r3.integrate is odekit.integrate


# The benchmark's own tests (wbench/tests) are not in this suite; these pin
# what they and its workloads use of the library, without running it.

def test_conservation_report_builds_by_keyword():
    rep = rot_r3.ConservationReport(max_residual=1.0, max_closed_form_deviation=0.0)
    assert (rep.max_residual, rep.max_closed_form_deviation) == (1.0, 0.0)


def test_report_reads_first_integral_through_the_module_function(fig3_profile, fig3_structure, monkeypatch):
    # The benchmark's mutation test stubs first_integral_residual with a
    # function of (profile, n=2000); report must call it with the profile alone.
    calls = []

    def corrupted(profile, n=2000):
        calls.append((profile, n))
        return rot_r3.ConservationReport(max_residual=1.0, max_closed_form_deviation=0.0)

    assert rot_r3.report(fig3_profile, structure=fig3_structure)["verdicts"]["first_integral"] is True
    monkeypatch.setattr(rot_r3, "first_integral_residual", corrupted)
    assert rot_r3.report(fig3_profile, structure=fig3_structure)["verdicts"]["first_integral"] is False
    assert calls == [(fig3_profile, 2000)]


def test_parab_entry_points_keep_their_signatures():
    inspect.signature(parab_h3.classify).bind(0.5, -1.0, 1.0)
    fields = {f.name for f in dataclasses.fields(parab_h3.ParabClassification)}
    assert {"label", "corroborated", "termination_cause"} <= fields
    profile = object()
    inspect.signature(parab_h3.mirror_defect).bind(profile)
    inspect.signature(parab_h3.derivative_identity_residual).bind(profile)
    inspect.signature(parab_h3.ParabolicProfile.max_relation_residual).bind(profile)
