"""Seeded inputs, per-item runners and per-item correctness gates.

Each workload turns a seed into a list of items before any timing starts.
``run`` performs one item the way a user of the library would; ``check``
inspects its result outside the timed span and returns a ``Verdict``.

Two kinds of check are kept apart:

* verdict checks are the library's own numerical thresholds. A miss marks
  the item failed and feeds ``fail_frac``; the seed code misses a few of
  them on admissible inputs (see README.md), and the generators keep those
  inputs in the mix.
* integrity checks (schema validity, the classified label, artifact bytes,
  vertex counts, no exception) guard the benchmark itself: a miss means the
  program produced wrong or malformed output, and the run reports
  ``correct: false``.

Categorical choices (periods, parabolic case, circle branch, CLI
configuration) are drawn as shuffled blocks in which every value occurs
once, so each value has its stated share of every run and the mix does not
drift from seed to seed.
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Verdict:
    ok: bool = True                               # every verdict check passed
    integrity: list = field(default_factory=list)  # integrity problems (empty when sound)
    margins: dict = field(default_factory=dict)    # verdict -> value / threshold, or bool
    artifacts: tuple = (0, 0)                      # files and bytes written by the item


def _blocks(rng, values, n):
    """n draws where each consecutive block is a permutation of ``values``."""
    out = []
    while len(out) < n:
        out.extend(values[k] for k in rng.permutation(len(values)))
    return out[:n]


def _to_builtin(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _jsonable(payload):
    return json.loads(json.dumps(payload, default=_to_builtin))


def _schema_errors(validator, payload) -> list:
    return [e.message for e in validator.iter_errors(payload)]


# ---------------------------------------------------------------------------
# rot_verify
# ---------------------------------------------------------------------------

ROT_PERIODS = (2, 3, 4)
# verdict -> (report field, nested key or None, threshold) as applied in rot_r3.report
ROT_THRESHOLDS = {
    "first_integral": ("first_integral_residual", None, 1e-8),
    "closed_form_height": ("closed_form_deviation", None, 1e-8),
    "z_period_return": ("periodicity", "z_return_deviation", 1e-6),
    "translation_invariance": ("periodicity", "translation_defect", 1e-6),
    "mirror_symmetry": ("symmetry_defect", None, 1e-7),
    "surface_relation": ("surface_relation_residual", None, 1e-6),
}


def draw_rot_triple(rng):
    """The admissible domain of ``draw_rot_triple`` in tests/test_acceptance.py."""
    a = rng.uniform(0.8, 2.2)
    b = -a * a / 4 - rng.uniform(0.15, 0.9)
    z0 = max(-2 * b / a, a) * 1.02 + rng.uniform(0.05, 0.4)
    return float(a), float(b), float(z0)


class RotVerify:
    def __init__(self, lib, schema):
        from jsonschema import Draft7Validator

        self.lib = lib
        self.validator = Draft7Validator({"$ref": "#/definitions/rot_r3", "definitions": schema["definitions"]})

    def make_items(self, rng, n):
        periods = _blocks(rng, ROT_PERIODS, n)
        items = []
        for p in periods:
            a, b, z0 = draw_rot_triple(rng)
            items.append({"a": a, "b": b, "z0": z0, "n_periods": int(p)})
        return items

    @staticmethod
    def case(item):
        return f"n_periods={item['n_periods']}"

    def prepare(self, item):
        return None

    def run(self, item, ctx):
        rot_r3 = self.lib.rot_r3
        params = self.lib.geomcore.WeingartenParams(item["a"], item["b"], 1.0)
        profile = rot_r3.integrate_profile(params, item["z0"], n_periods=item["n_periods"], tol=1e-10)
        return rot_r3.report(profile)

    def check(self, item, report, ctx):
        v = Verdict()
        v.integrity = _schema_errors(self.validator, _jsonable(report))
        verdicts = report["verdicts"]
        if len(verdicts) != 12:
            v.integrity.append(f"expected 12 verdicts, got {len(verdicts)}")
        for name, passed in verdicts.items():
            if name in ROT_THRESHOLDS:
                key, sub, thr = ROT_THRESHOLDS[name]
                value = report[key] if sub is None else report[key][sub]
                v.margins[name] = float(value) / thr
            else:
                v.margins[name] = bool(passed)
            v.ok = v.ok and bool(passed)
        return v


# ---------------------------------------------------------------------------
# parab_classify
# ---------------------------------------------------------------------------

PARAB_CASES = (
    "DegenerateLine",
    "EuclideanCircle",
    "CompleteConcaveGraph",
    "IncompleteGraph",
    "PeriodicComplete",
    "IncompleteNonGraph",
)
# the three thresholds cli.cmd_parab_integrate applies
PARAB_THRESHOLDS = {"relation_residual": 1e-9, "mirror_defect": 1e-7, "derivative_identity": 1e-5}


def _generic_case(a, b):
    """The four-way decision of the classification for 0 < a < 1, b != 0."""
    if a + 2 * b < 0:
        low = -(1 + math.sqrt(1 - a * a)) / 2
        return "CompleteConcaveGraph" if b < low else "IncompleteGraph"
    return "PeriodicComplete" if a - 2 * b > 0 else "IncompleteNonGraph"


def _draw_parab_pair(rng):
    """The region of ``draw_parab_pair`` in tests/test_acceptance.py."""
    while True:
        a = rng.uniform(0.15, 0.85)
        b = rng.uniform(-1.4, 0.9)
        if abs(a + 2 * b) < 0.08 or abs(a - 2 * b) < 0.08 or abs(b) < 0.05:
            continue
        if abs(a * a + 4 * b * b + 4 * b) < 5e-3:
            continue
        if abs(b - (-(1 + math.sqrt(1 - a * a)) / 2)) < 0.03:
            continue
        return float(a), float(b)


class ParabClassify:
    def __init__(self, lib, schema):
        self.lib = lib

    def make_items(self, rng, n):
        cases = _blocks(rng, PARAB_CASES, n)
        branches = iter(_blocks(rng, ("upper", "lower"), n))
        items = []
        for case in cases:
            branch = None
            if case == "DegenerateLine":
                a = 1.0
                while True:
                    b = float(rng.uniform(-1.4, 0.9))
                    if abs(a + 2 * b) >= 0.08 and abs(b) >= 0.05:
                        break
            elif case == "EuclideanCircle":
                branch = next(branches)
                a = float(rng.uniform(0.2, 0.95))
                sign = 1.0 if branch == "upper" else -1.0
                b = (-1.0 + sign * math.sqrt(1.0 - a * a)) / 2.0
            else:
                while True:
                    a, b = _draw_parab_pair(rng)
                    if _generic_case(a, b) == case:
                        break
            z0 = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            items.append({"case": case, "a": a, "b": b, "z0": z0, "branch": branch})
        return items

    @staticmethod
    def case(item):
        if item["branch"] is not None:
            return f"{item['case']}/{item['branch']}"
        return item["case"]

    def prepare(self, item):
        return None

    def run(self, item, ctx):
        parab_h3 = self.lib.parab_h3
        a, b, z0 = item["a"], item["b"], item["z0"]
        cls = parab_h3.classify(a, b, z0)
        profile = parab_h3.integrate_parabolic(a, b, z0)
        return {
            "label": cls.label,
            "corroborated": cls.corroborated,
            "termination_cause": cls.termination_cause,
            "relation_residual": profile.max_relation_residual(),
            "mirror_defect": parab_h3.mirror_defect(profile),
            "derivative_identity": parab_h3.derivative_identity_residual(profile),
        }

    def check(self, item, out, ctx):
        v = Verdict()
        if out["label"] != item["case"]:
            v.integrity.append(f"label {out['label']} != drawn case {item['case']}")
        v.margins["corroborated"] = bool(out["corroborated"])
        v.margins["termination_cause"] = out["termination_cause"]
        v.ok = bool(out["corroborated"])
        for name, thr in PARAB_THRESHOLDS.items():
            v.margins[name] = float(out[name]) / thr
            v.ok = v.ok and out[name] < thr
        return v


# ---------------------------------------------------------------------------
# surface_export
# ---------------------------------------------------------------------------

MESH_SIZES = ((100, 48), (200, 96))


def _f(x):
    return repr(float(x))


def surface_pool(rng):
    """Twenty CLI configurations with seeded parameters.

    The kinds and mesh sizes are fixed; only the numbers vary with the seed.
    """
    pool = []

    def riemann_args():
        u = rng.uniform(0.6, 1.0)
        return ["--lam", _f(rng.uniform(0.0, 1.0)), "--mu", _f(rng.uniform(0.0, 0.6)),
                "--r0", _f(rng.uniform(0.8, 1.2)), "--r0p", _f(rng.uniform(-0.2, 0.2)),
                "--u-min", _f(-u), "--u-max", _f(u)]

    def cone_args():
        return ["--f1", _f(rng.uniform(-0.5, 0.5)), "--g1", _f(rng.uniform(-0.5, 0.5)),
                "--r0", _f(rng.uniform(0.8, 1.5)), "--r1", _f(rng.uniform(-0.4, 0.6)),
                "--u-min", "0.0", "--u-max", "1.0"]

    for _ in range(3):
        pool.append(["cyclic", "riemann", *riemann_args()])
    for _ in range(3):
        pool.append(["cyclic", "cone", *cone_args()])

    # Relation coefficients each surface satisfies: a sphere of radius R has
    # H = 1/R and K = 1/R^2, a cone K = 0, a minimal surface H = 0.
    for _ in range(2):
        R = rng.uniform(0.6, 2.0)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        pool.append(["cyclic", "coeffs", "--surface", "sphere", "--radius", _f(R),
                     "--u", _f(rng.uniform(-0.5, 0.5) * R),
                     "--a", _f(a), "--b", _f(b), "--c", _f(a / R + b / (R * R))])
    pool.append(["cyclic", "coeffs", "--surface", "cone", *cone_args(),
                 "--u", _f(rng.uniform(0.1, 0.9)), "--a", "0.0", "--b", _f(rng.uniform(0.5, 2.0)), "--c", "0.0"])
    pool.append(["cyclic", "coeffs", "--surface", "riemann", *riemann_args(),
                 "--u", _f(rng.uniform(-0.5, 0.5)), "--a", _f(rng.uniform(0.5, 2.0)), "--b", "0.0", "--c", "0.0"])

    for surface in ("rot", "parab", "sphere", "cone", "riemann"):
        for n_s, n_phi in MESH_SIZES:
            if surface == "rot":
                a, b, z0 = draw_rot_triple(rng)
                extra = ["--a", _f(a), "--b", _f(b), "--z0", _f(z0)]
            elif surface == "parab":
                while True:
                    a, b = _draw_parab_pair(rng)
                    if _generic_case(a, b) == "PeriodicComplete":
                        break
                extra = ["--a", _f(a), "--b", _f(b), "--z0", _f(rng.uniform(0.5, 2.0))]
            elif surface == "sphere":
                extra = ["--radius", _f(rng.uniform(0.6, 2.0))]
            elif surface == "cone":
                extra = cone_args()
            else:
                extra = riemann_args()
            pool.append(["mesh", "export", "--surface", surface, *extra,
                         "--s-samples", str(n_s), "--phi-samples", str(n_phi)])
    return pool


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SurfaceExport:
    def __init__(self, lib, schema, work_dir: Path):
        from jsonschema import Draft7Validator

        self.lib = lib
        self.validator = Draft7Validator(schema)
        self.work_dir = work_dir
        self.first_hashes = {}  # argv -> {file name: sha256} from its first run
        self._seq = 0

    def make_items(self, rng, n):
        pool = surface_pool(rng)
        return [{"argv": argv} for argv in _blocks(rng, pool, n)]

    @staticmethod
    def case(item):
        argv = item["argv"]
        if argv[0] == "mesh":
            return f"mesh export {argv[argv.index('--surface') + 1]} {argv[-3]}x{argv[-1]}"
        if argv[1] == "coeffs":
            return f"cyclic coeffs {argv[argv.index('--surface') + 1]}"
        return f"cyclic {argv[1]}"

    def prepare(self, item):
        self._seq += 1
        out = self.work_dir / f"item{self._seq}"
        out.mkdir(parents=True)
        return out

    def run(self, item, ctx):
        try:
            code = self.lib.cli.main([*item["argv"], "--out", str(ctx)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        return code

    def check(self, item, code, out_dir):
        v = Verdict()
        v.margins["exit_code"] = code
        v.ok = code == 0
        if code not in (0, 2):
            v.integrity.append(f"exit code {code}")
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        hashes = {p.name: _sha256(p) for p in files}
        key = tuple(item["argv"])
        first = self.first_hashes.setdefault(key, hashes)
        if first != hashes:
            v.integrity.append("artifacts differ from the first run of the same argv")
        argv = item["argv"]
        for p in files:
            if p.suffix == ".json":
                v.integrity.extend(_schema_errors(self.validator, json.loads(p.read_text())))
            elif p.suffix == ".obj":
                with p.open() as fh:
                    n_vert = sum(1 for line in fh if line.startswith("v "))
                want = int(argv[argv.index("--s-samples") + 1]) * int(argv[argv.index("--phi-samples") + 1])
                if n_vert != want:
                    v.integrity.append(f"{p.name}: {n_vert} vertices, expected {want}")
        if not files:
            v.integrity.append("no artifacts written")
        v.artifacts = (len(files), sum(p.stat().st_size for p in files))
        shutil.rmtree(out_dir)
        return v


def make_workload(name, lib, schema, work_dir):
    if name == "rot_verify":
        return RotVerify(lib, schema)
    if name == "parab_classify":
        return ParabClassify(lib, schema)
    if name == "surface_export":
        os.environ.pop("WEINGARTEN_OUT", None)
        return SurfaceExport(lib, schema, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("rot_verify", "parab_classify", "surface_export")


def repeated_share(items, n_done) -> float:
    """Share of the first n_done items whose inputs repeat an earlier item."""
    seen = set()
    repeats = 0
    for item in items[:n_done]:
        key = json.dumps(item, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return repeats / n_done if n_done else 0.0

