"""Command-line frontend: integrate/classify/verify subcommands with
deterministic artifact emission (CSV curves, JSON reports, OBJ meshes) and a
figure-reproduction batch mode.

Exit codes: 0 when every verdict passes, 2 on a verdict failure, 1 on usage
errors (including bad numeric input). Artifacts are byte-identical across
runs with the same configuration. The WEINGARTEN_OUT environment variable
overrides the output directory.
"""

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cyclic_r3, meshes, parab_h3, rot_r3
from .errors import WeingartenError
from .geomcore import WeingartenParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _np_to_builtin(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_np_to_builtin) + "\n")


def _out_dir(args) -> Path:
    env = os.environ.get("WEINGARTEN_OUT")
    out = Path(env) if env else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _verdict_exit(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _rot_profile(args):
    params = WeingartenParams(args.a, args.b, args.c)
    return rot_r3.integrate_profile(params, args.z0, n_periods=args.periods, tol=args.tol)


def cmd_rot_integrate(args) -> int:
    out = _out_dir(args)
    profile = _rot_profile(args)
    rot_r3.export_curve_csv(profile, out / "rot_curve.csv", samples_per_period=args.samples_per_period)
    report = rot_r3.report(profile)
    _write_json(out / "rot_report.json", report)
    if args.obj:
        verts, faces = meshes.sample_grid_mesh(rot_r3.profile_patch(profile), 200, args.phi_samples, wrap_v=True)
        meshes.write_obj(out / "rot_surface.obj", verts, faces)
    return _verdict_exit(all(report["verdicts"].values()))


def cmd_rot_report(args) -> int:
    out = _out_dir(args)
    report = rot_r3.report(_rot_profile(args))
    _write_json(out / "rot_report.json", report)
    return _verdict_exit(all(report["verdicts"].values()))


def cmd_parab_integrate(args) -> int:
    out = _out_dir(args)
    profile = parab_h3.integrate_parabolic(args.a, args.b, args.z0, tol=args.tol)
    parab_h3.export_curve_csv(profile, out / "parab_curve.csv")
    report = parab_h3.profile_report(profile)
    _write_json(out / "parab_profile.json", report)
    return _verdict_exit(all(report["verdicts"].values()))


def cmd_parab_classify(args) -> int:
    out = _out_dir(args)
    cls = parab_h3.classify(args.a, args.b, args.z0, tol=args.tol)
    _write_json(out / "parab_classification.json", parab_h3.classification_json(cls))
    return _verdict_exit(bool(cls.corroborated))


def _cyclic_surface_from_args(args, surface):
    if surface == "sphere":
        return cyclic_r3.sphere_slice(args.radius)
    if surface == "cone":
        return cyclic_r3.generalized_cone(args.f0, args.f1, args.g0, args.g1, args.r0, args.r1,
                                          (args.u_min, args.u_max))
    return cyclic_r3.riemann_example(args.lam, args.mu, args.r0, args.r0p, (args.u_min, args.u_max))


def cmd_cyclic_riemann(args) -> int:
    out = _out_dir(args)
    spec = _cyclic_surface_from_args(args, "riemann")
    cyclic_r3.export_residual_csv(spec, cyclic_r3.MINIMAL, out / "cyclic_residual.csv")
    report = cyclic_r3.riemann_json(spec)
    _write_json(out / "cyclic_riemann.json", report)
    return _verdict_exit(all(report["verdicts"].values()))


def cmd_cyclic_cone(args) -> int:
    out = _out_dir(args)
    spec = _cyclic_surface_from_args(args, "cone")
    cyclic_r3.export_residual_csv(spec, cyclic_r3.FLAT, out / "cyclic_residual.csv")
    report = cyclic_r3.cone_json(spec, (args.f0, args.f1), (args.g0, args.g1), (args.r0, args.r1))
    _write_json(out / "cyclic_cone.json", report)
    return _verdict_exit(all(report["verdicts"].values()))


def cmd_cyclic_coeffs(args) -> int:
    out = _out_dir(args)
    spec = _cyclic_surface_from_args(args, args.surface)
    params = WeingartenParams(args.a, args.b, args.c)
    tc = cyclic_r3.trig_coefficients(spec, params, args.u, n_samples=args.n_samples, n_max=args.n_max)
    report = cyclic_r3.coefficients_json(tc, tol=args.tol)
    _write_json(out / "cyclic_coefficients.json", report)
    return _verdict_exit(bool(report["verdict"]))


def cmd_mesh_export(args) -> int:
    out = _out_dir(args)
    if args.surface == "rot":
        patch = rot_r3.profile_patch(_rot_profile(args))
    elif args.surface == "parab":
        profile = parab_h3.integrate_parabolic(args.a, args.b, args.z0, tol=args.tol)
        patch = parab_h3.parab_patch(profile, t_range=(args.t_min, args.t_max)).patch
    else:
        patch = cyclic_r3.cyclic_patch(_cyclic_surface_from_args(args, args.surface))
    # the surfaces of revolution and the circle foliations close up in v
    verts, faces = meshes.sample_grid_mesh(patch, args.s_samples, args.phi_samples, wrap_v=args.surface != "parab")
    meshes.write_obj(out / args.obj_name, verts, faces)
    return EXIT_OK


FIGURE_CONFIGS = (
    ("fig41a_parab.csv", 0.5, -1.0, "CompleteConcaveGraph"),
    ("fig41b_parab.csv", 0.5, -0.8, "IncompleteGraph"),
    ("fig42a_parab.csv", 0.5, -0.2, "PeriodicComplete"),
    ("fig42b_parab.csv", 0.5, 0.3, "IncompleteNonGraph"),
)


def cmd_figures_reproduce(args) -> int:
    out = _out_dir(args)
    verdicts = {}

    profile = rot_r3.integrate_profile(WeingartenParams(2, -2, 1), 3.0, n_periods=3, tol=1e-10)
    rot_r3.export_curve_csv(profile, out / "fig3_rot.csv", samples_per_period=args.samples_per_period)
    rot_report = rot_r3.report(profile)
    verdicts["fig3_rot"] = all(rot_report["verdicts"].values())

    outputs = [{"file": "fig3_rot.csv", "label": "rotational profile a=2 b=-2 z0=3"}]
    for name, a, b, want in FIGURE_CONFIGS:
        prof = parab_h3.integrate_parabolic(a, b, 1.0)
        parab_h3.export_curve_csv(prof, out / name)
        cls = parab_h3.classify(a, b, 1.0)
        verdicts[name] = bool(cls.label == want and cls.corroborated)
        outputs.append({"file": name, "label": f"parabolic profile a={a} b={b} z0=1", "case": cls.label})

    manifest = {
        "report": "figures",
        "outputs": outputs,
        "verdicts": verdicts,
    }
    _write_json(out / "figures_manifest.json", manifest)
    return _verdict_exit(all(verdicts.values()))


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_out(p):
    p.add_argument("--out", default=".", help="output directory (WEINGARTEN_OUT overrides)")
    p.add_argument("--config", default=None, help="JSON file of option defaults; flags override")


def _add_rot_params(p):
    # required values may come from the config file; checked after the merge
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=None)
    p.add_argument("--periods", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples-per-period", type=int, default=2000, dest="samples_per_period")
    p.set_defaults(_required=("a", "b", "z0"))


def _add_parab_params(p):
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--z0", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(_required=("a", "b"))


def _add_cyclic_common(p, u_min):
    """--r0 and the u range; ``u_min`` is the subcommand's default for --u-min."""
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--u-min", type=float, default=u_min, dest="u_min")
    p.add_argument("--u-max", type=float, default=1.0, dest="u_max")


def _add_cone_params(p):
    for name in ("f0", "f1", "g0", "g1", "r1"):
        p.add_argument(f"--{name}", type=float, default=0.0)


def _add_riemann_params(p):
    for name in ("lam", "mu", "r0p"):
        p.add_argument(f"--{name}", type=float, default=0.0)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="weingarten",
                     description="Integrate, classify, and verify linear Weingarten surfaces.")
    sub = parser.add_subparsers(dest="group", required=True)

    rot = sub.add_parser("rot-r3", help="hyperbolic rotational profiles in Euclidean space")
    rot_sub = rot.add_subparsers(dest="command", required=True)
    p = rot_sub.add_parser("integrate")
    _add_rot_params(p)
    _add_out(p)
    p.add_argument("--obj", action="store_true", help="also export the revolved mesh")
    p.add_argument("--phi-samples", type=int, default=64, dest="phi_samples")
    p.set_defaults(func=cmd_rot_integrate)
    p = rot_sub.add_parser("report")
    _add_rot_params(p)
    _add_out(p)
    p.set_defaults(func=cmd_rot_report)

    parab = sub.add_parser("parab-h3", help="parabolic profiles in hyperbolic space")
    parab_sub = parab.add_subparsers(dest="command", required=True)
    p = parab_sub.add_parser("integrate")
    _add_parab_params(p)
    _add_out(p)
    p.set_defaults(func=cmd_parab_integrate)
    p = parab_sub.add_parser("classify")
    _add_parab_params(p)
    _add_out(p)
    p.set_defaults(func=cmd_parab_classify)

    cyc = sub.add_parser("cyclic", help="circle-foliated surfaces")
    cyc_sub = cyc.add_subparsers(dest="command", required=True)
    p = cyc_sub.add_parser("riemann")
    _add_riemann_params(p)
    _add_cyclic_common(p, u_min=-1.0)
    _add_out(p)
    p.set_defaults(func=cmd_cyclic_riemann)
    p = cyc_sub.add_parser("cone")
    _add_cone_params(p)
    _add_cyclic_common(p, u_min=0.0)
    _add_out(p)
    p.set_defaults(func=cmd_cyclic_cone)
    p = cyc_sub.add_parser("coeffs")
    p.add_argument("--surface", choices=("sphere", "cone", "riemann"), default="sphere")
    p.add_argument("--radius", type=float, default=1.0, help="sphere radius")
    _add_cone_params(p)
    _add_riemann_params(p)
    _add_cyclic_common(p, u_min=-1.0)
    p.add_argument("--u", type=float, default=0.3)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--n-samples", type=int, default=64, dest="n_samples")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_out(p)
    p.set_defaults(func=cmd_cyclic_coeffs)

    mesh = sub.add_parser("mesh", help="OBJ mesh export")
    mesh_sub = mesh.add_subparsers(dest="command", required=True)
    p = mesh_sub.add_parser("export")
    p.add_argument("--surface", choices=("rot", "parab", "sphere", "cone", "riemann"), required=True)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=-2.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=3.0)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--radius", type=float, default=1.0)
    _add_cone_params(p)
    _add_riemann_params(p)
    _add_cyclic_common(p, u_min=0.0)
    p.add_argument("--t-min", type=float, default=-1.0, dest="t_min")
    p.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p.add_argument("--s-samples", type=int, default=100, dest="s_samples")
    p.add_argument("--phi-samples", type=int, default=48, dest="phi_samples")
    p.add_argument("--obj-name", default="surface.obj", dest="obj_name")
    _add_out(p)
    p.set_defaults(func=cmd_mesh_export)

    figs = sub.add_parser("figures", help="reproduce the published figure data")
    figs_sub = figs.add_subparsers(dest="command", required=True)
    p = figs_sub.add_parser("reproduce")
    p.add_argument("--samples-per-period", type=int, default=2000, dest="samples_per_period")
    _add_out(p)
    p.set_defaults(func=cmd_figures_reproduce)

    return parser


def _leaf_actions(parser, args) -> dict:
    """Option actions, by dest, of the subcommand that parsed ``args``."""
    while True:
        sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            return {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
        parser = sub.choices[getattr(args, sub.dest)]


def _config_value(action, key, value):
    """Convert a config value as argparse converts the same flag's text."""
    if action.nargs == 0 and isinstance(value, bool):  # store_true flag
        return value
    if action.nargs != 0 and isinstance(value, (str, int, float)) and not isinstance(value, bool):
        value = (action.type or str)(str(value))
        if action.choices is None or value in action.choices:
            return value
    raise ValueError(f"config value {key}={value!r} is not valid for {action.option_strings[0]}")


def _apply_config(parser, args, argv) -> None:
    """Fill options from a JSON config file; explicit flags keep priority."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    supplied = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    actions = _leaf_actions(parser, args)
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or supplied.intersection(action.option_strings):
            continue
        setattr(args, action.dest, _config_value(action, key, value))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args, argv)
        missing = [n for n in getattr(args, "_required", ()) if getattr(args, n) is None]
        if missing:
            sys.stderr.write(f"error: missing required option(s): {', '.join('--' + n for n in missing)}\n")
            return EXIT_USAGE
        bad = [n for n, v in vars(args).items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            sys.stderr.write(f"error: non-finite value for option(s): {', '.join(bad)}\n")
            return EXIT_USAGE
        return args.func(args)
    except (WeingartenError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
