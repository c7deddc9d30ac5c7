"""Workbench benchmark: one closed-loop client driving the weingarten library.

Run from the repository root:

    python3 wbench/run.py --workload rot_verify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` runs every item twice, untraced and then with every layer
wrapped from outside, and reports per-layer metrics (see README.md). Both
print one metric per line with its unit and sample count, and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

The process imports the library from ``src/`` of the checkout it sits in
and never from an installed copy. It runs no threads or pools; the
``setup_s`` launches are run one after another, outside the timed loop.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter
from pathlib import Path

import numpy as np

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".wbench_runs"
SETUP_LAUNCHES = 11
READY = "wbench-ready"

# A shared machine's speed drifts by up to a quarter within seconds, for
# every process alike. So every timed item sits
# between two runs of a fixed reference kernel, and item times are reported
# at reference speed: wall time x REF_SECONDS / (mean duration of the two
# reference runs around it). The kernel is the benchmark's own code,
# a mix of interpreter work and small numpy calls like the library's, so no
# change to the library can move it. Raw wall times are printed and
# recorded beside the reported ones.
REF_SECONDS = 0.010
_REF_Q = np.arange(12.0).reshape(3, 4) / 7.0


def reference_kernel() -> float:
    """Fixed work that takes about REF_SECONDS on the reference machine."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        x = i * 1e-3
        p = np.array([x, x * x, x * x * x, x * x * x * x])
        acc += float((_REF_Q @ p)[1]) + math.cos(x)
    return time.perf_counter() - start


def at_reference_speed(times, refs):
    """Scale each span by REF_SECONDS over the mean of the reference runs
    just before and just after it (``refs`` has one more entry than ``times``)."""
    return [t * 2.0 * REF_SECONDS / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def load_library():
    """Import weingarten from this checkout's src/ (and nowhere else)."""
    src = ROOT / "src"
    if not (src / "weingarten" / "__init__.py").is_file():
        raise FileNotFoundError(f"no weingarten package under {src}")
    sys.path.insert(0, str(src))
    import weingarten
    from weingarten import cli, cyclic_r3, geomcore, meshes, odekit, parab_h3, rot_r3

    if Path(weingarten.__file__).resolve().parent != (src / "weingarten").resolve():
        raise ImportError(f"weingarten imported from {weingarten.__file__}, not {src}")
    return types.SimpleNamespace(odekit=odekit, geomcore=geomcore, rot_r3=rot_r3, parab_h3=parab_h3,
                                 cyclic_r3=cyclic_r3, meshes=meshes, cli=cli)


def setup(workload, seed, seconds, work_dir):
    """Everything a run does before its first timed item."""
    lib = load_library()
    schema = json.loads((ROOT / "report.schema.json").read_text())
    wl = workloads.make_workload(workload, lib, schema, work_dir)
    items = wl.make_items(np.random.default_rng(seed), int(100 * seconds) + 64)
    return lib, wl, items


def measure_setup(args, launches):
    """Wall times from launching a fresh interpreter until it has run
    ``setup`` and reports ready, for ``launches`` sequential launches.

    These stay raw wall times: a reference run right after a launch finds
    cold caches and tracks the machine worse than the launches themselves."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(launches):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != READY or code != 0:
            raise RuntimeError(f"setup launch failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


class Loop:
    """Closed loop over the items: the next item starts when the previous
    one and its check are done. Only ``run`` is inside the timed span."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []
        self.refs = [reference_kernel()]
        self.failed = 0
        self.failures = []
        self.integrity = []
        self.case_counts = Counter()
        self.artifacts = [0, 0]

    def one(self, index, item, traced=False):
        ctx = self.wl.prepare(item)
        error = None
        t0 = time.perf_counter()
        try:
            out = self.wl.run(item, ctx)
        except Exception:  # an item that raises is a failed item; the loop goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if error is None:
            verdict = self.wl.check(item, out, ctx)
            ok, problems, margins = verdict.ok, verdict.integrity, verdict.margins
            if traced:
                self.artifacts[0] += verdict.artifacts[0]
                self.artifacts[1] += verdict.artifacts[1]
        else:
            if ctx is not None:
                shutil.rmtree(ctx, ignore_errors=True)
            ok, problems, margins = False, [f"raised: {error.strip().splitlines()[-1]}"], {}
        if problems:
            self.integrity.append({"item": index, "inputs": item, "traced": traced, "problems": problems})
        return elapsed, ok and not problems, margins

    def record(self, index, item, ok, margins):
        self.case_counts[self.wl.case(item)] += 1
        if not ok:
            self.failed += 1
            self.failures.append({"item": index, "inputs": item, "margins": margins})


def run_untraced(wl, items, seconds):
    loop = Loop(wl)
    timed = 0.0
    for index, item in enumerate(items):
        if timed >= seconds:
            break
        elapsed, ok, margins = loop.one(index, item)
        loop.refs.append(reference_kernel())
        loop.times.append(elapsed)
        loop.record(index, item, ok, margins)
        timed += elapsed
    return loop


def run_traced(wl, items, seconds, tracer):
    """Each item runs untraced, then traced, on identical inputs."""
    loop = Loop(wl)
    untraced = traced = 0.0
    for index, item in enumerate(items):
        if untraced + traced >= seconds:
            break
        elapsed, ok_plain, margins = loop.one(index, item)
        untraced += elapsed
        tracer.install()
        try:
            tracer.self_check()
            tracer.item = index
            elapsed, ok_traced, margins_traced = loop.one(index, item, traced=True)
        finally:
            tracer.uninstall()
        traced += elapsed
        loop.times.append(elapsed)
        loop.record(index, item, ok_plain and ok_traced, margins if not ok_plain else margins_traced)
    return loop, untraced, traced


def end_to_end(loop, setup_samples):
    """The end-to-end metrics, each with a note that gives its sample count
    and, for item times (reported at reference speed), the raw wall figure."""
    n = len(loop.times)
    times = at_reference_speed(loop.times, loop.refs)
    beyond = n - math.ceil(0.9 * n)
    return {
        "items_per_s": (n / sum(times), "1/s",
                        f"n={n} items, {sum(times):.2f} s at reference speed; "
                        f"wall {n / sum(loop.times):.4g}/s over {sum(loop.times):.2f} s"),
        "item_p50_ms": (1e3 * np.percentile(times, 50), "ms",
                        f"n={n}; wall {1e3 * np.percentile(loop.times, 50):.4g} ms"),
        "item_p90_ms": (1e3 * np.percentile(times, 90), "ms",
                        f"n={n}, {beyond} beyond; wall {1e3 * np.percentile(loop.times, 90):.4g} ms"),
        "pass_frac": ((n - loop.failed) / n, "frac", f"{n - loop.failed}/{n} passed"),
        "setup_s": (statistics.median(setup_samples), "s", f"median of {len(setup_samples)} launches"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1 process"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    try:
        lib, wl, items = setup(args.workload, args.seed, args.seconds, work_dir)
    except (ImportError, OSError) as exc:
        sys.stderr.write(f"wbench: cannot set up: {exc}\n")
        return 2
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    # Half the setup launches run before the timed loop and half after it,
    # so that their median spans the run rather than one moment of it.
    setup_samples = [] if args.trace else measure_setup(args, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    try:
        if args.trace:
            tracer = layertrace.Tracer(lib)
            loop, untraced_s, traced_s = run_traced(wl, items, args.seconds, tracer)
            metrics = tracer.layer_metrics(len(loop.times), traced_s, untraced_s, loop.artifacts)
            metrics = {k: (v, unit, "") for k, (v, unit) in metrics.items()}
        else:
            loop = run_untraced(wl, items, args.seconds)
            setup_samples += measure_setup(args, SETUP_LAUNCHES // 2)
            metrics = end_to_end(loop, setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    n = len(loop.times)
    print(f"wbench {args.workload} seed={args.seed} trace={args.trace}: {n} items, "
          f"{loop.failed} failed the verdict gate, {len(loop.integrity)} integrity problems"
          + (" (input list exhausted before --seconds)" if n == len(items) else ""))
    print("items per case: " + ", ".join(f"{k}={v}" for k, v in sorted(loop.case_counts.items())))
    print(f"repeated inputs: {100 * workloads.repeated_share(items, n):.1f}% of items")
    if not args.trace:
        print(f"{'fail_frac':<44} {loop.failed / n:>14.6g} frac       {loop.failed}/{n} failed")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit:<10} {note}")
    for f in loop.failures:
        margins = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in f["margins"].items())
        print(f"failed item {f['item']}: {json.dumps(f['inputs'])} margins: {margins}")
    for p in loop.integrity:
        print(f"INTEGRITY item {p['item']}: {json.dumps(p['inputs'])}: {'; '.join(p['problems'])}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u, "samples": note} for k, (v, u, note) in metrics.items()},
        "case_counts": dict(loop.case_counts),
        "setup_wall_s": setup_samples,
        "item_wall_s": loop.times,
        "item_reference_s": loop.refs,
        "failures": loop.failures,
        "integrity": loop.integrity,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        tracer.save(stem.with_suffix(".spans.npz"))

    print(json.dumps(result_line(loop, metrics)))
    return 0


def result_line(loop, metrics):
    """The closing JSON object. ``failed`` counts operations that went
    wrong: items that raised or whose output failed an integrity check. A
    verdict miss is the library reporting one of its own residuals above
    its threshold; the item ran and its report is sound, so it counts in
    ``pass_frac`` (and the printed ``fail_frac``), not in ``failed``."""
    return {
        "correct": not loop.integrity,
        "attempted": len(loop.times),
        "failed": len({p["item"] for p in loop.integrity}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
