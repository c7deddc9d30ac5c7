import argparse
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

from weingarten import cli

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


def test_artifact_digest_covers_every_subcommand_and_surface():
    spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "tools" / "artifact_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    covered = {tuple(argv[:2]) for argv in tool.RUNS}
    groups = _subparsers(cli.build_parser())
    assert covered == {(g, c) for g, gp in groups.items() for c in _subparsers(gp)}
    for group, command in (("mesh", "export"), ("cyclic", "coeffs")):
        choices = next(a.choices for a in _subparsers(groups[group])[command]._actions
                       if a.dest == "surface")
        used = {argv[argv.index("--surface") + 1] for argv in tool.RUNS if argv[:2] == [group, command]}
        assert used == set(choices)
