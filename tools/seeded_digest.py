"""Hash what the library returns and writes on the benchmark's seeded inputs.

For each workload of ``wbench`` and each seed, builds the item list that a
30 s benchmark run of that seed draws (``wbench/run.py``'s ``setup``), runs
the first items in-process and hashes their results:

* rot_verify: the ``rot_r3.report`` JSON of the first 60 items;
* parab_classify: label, corroboration, termination cause and the three
  verdict values of the first 280 items;
* surface_export: exit code and the SHA-256 of every artifact of the first
  20 items, which are the 20 distinct CLI invocations of the seed.

Prints one line per workload and seed (item count and digest) and a final
combined digest over those lines, as ``artifact_digest.py`` does. Two
checkouts that print the same combined digest returned and wrote the same
bytes on every one of these items. ``EXPECTED`` records the combined digest
with the numpy version it was recorded under; under that version a different
digest makes the tool exit 1. A change that moves these results on purpose
records the new digest here.

Usage, from the repository root (several minutes):

    python tools/seeded_digest.py
    python tools/seeded_digest.py | tail -1    # combined digest only

The benchmark code is imported read-only from ``wbench/`` and the package
from ``src/`` next to this script, so the tool measures the checkout it sits
in; to compare with another commit, run the same script from a checkout of
that commit.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "wbench"))

import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = "1c71da1991c52cabc7cbb4595419a8867cda53d1397d30f3d3cda0bd2a2e3bf2"
EXPECTED_NUMPY = "2.4.6"

SEEDS = range(1, 11)
ITEMS = {"rot_verify": 60, "parab_classify": 280, "surface_export": 20}
BENCH_SECONDS = 30


def _item_bytes(name, wl, item, work_dir: Path) -> bytes:
    if name != "surface_export":
        return json.dumps(wl.run(item, None), sort_keys=True, default=workloads._to_builtin).encode()
    out = Path(tempfile.mkdtemp(dir=work_dir))
    lines = [f"exit={wl.run(item, out)} {' '.join(item['argv'])}"]
    lines += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}" for p in sorted(out.iterdir())]
    return "\n".join(lines).encode()


def digest_lines(seeds=SEEDS, items=ITEMS):
    """Yield one line per workload and seed: name, seed, item count and the
    SHA-256 over the items' results in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, n in items.items():
            for seed in seeds:
                _, wl, todo = run.setup(name, seed, BENCH_SECONDS, Path(tmp))
                digest = hashlib.sha256()
                for item in todo[:n]:
                    digest.update(_item_bytes(name, wl, item, Path(tmp)) + b"\n")
                yield f"{name} seed={seed} items={n} {digest.hexdigest()}"


def main() -> int:
    combined = hashlib.sha256()
    for line in digest_lines():
        combined.update(line.encode() + b"\n")
        print(line, flush=True)
    digest = combined.hexdigest()
    print(f"combined {digest}")
    if np.__version__ == EXPECTED_NUMPY and digest != EXPECTED:
        print(f"error: combined digest differs from the recorded {EXPECTED} (numpy {EXPECTED_NUMPY})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
