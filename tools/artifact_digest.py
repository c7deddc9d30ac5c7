"""Hash the artifacts of a fixed set of CLI runs.

Runs each invocation in-process into its own temporary directory and prints
one line per run (exit code and argv), one line per written file (SHA-256
and name), and a final combined digest over all of those lines. Two
checkouts that print the same combined digest wrote the same bytes.

Usage, from the repository root:

    python tools/artifact_digest.py
    python tools/artifact_digest.py | tail -1    # combined digest only

The package is imported from ``src/`` next to this script, so the tool
measures the checkout it sits in. ``EXPECTED`` records the combined digest
with the numpy version it was recorded under; the test suite checks it
under that version, and under that version a different digest makes the
tool exit 1. A change that moves artifact bytes on purpose records the new
digest here.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from weingarten import cli  # noqa: E402

EXPECTED = "96da98a7b7922af5516afc1066960be51e9b8c1168910b008939a57382f8b528"
EXPECTED_NUMPY = "2.4.6"

ROT = ["--a", "2", "--b", "-2", "--z0", "3"]
PARAB_CASES = (("0.5", "-1"), ("0.5", "-0.8"), ("0.5", "-0.2"), ("0.5", "0.3"))
RIEMANN = ["--lam", "1", "--mu", "0.5", "--r0", "1", "--r0p", "0.1"]
CONE = ["--f1", "0.3", "--g1", "0.4", "--r0", "1", "--r1", "0.5"]

RUNS = (
    ["rot-r3", "integrate", *ROT, "--periods", "2", "--samples-per-period", "400", "--obj",
     "--phi-samples", "16"],
    ["rot-r3", "integrate", *ROT, "--periods", "4", "--samples-per-period", "500"],
    ["rot-r3", "report", *ROT],
    ["rot-r3", "report", "--a", "1.5", "--b", "-1", "--z0", "2", "--periods", "2"],
    *(["parab-h3", "integrate", "--a", a, "--b", b, "--z0", "1"] for a, b in PARAB_CASES),
    *(["parab-h3", "classify", "--a", a, "--b", b, "--z0", "1"] for a, b in PARAB_CASES),
    ["cyclic", "riemann", *RIEMANN],
    ["cyclic", "cone", *CONE],
    ["cyclic", "coeffs", "--surface", "sphere", "--radius", "1.5", "--u", "0.4",
     "--a", "2", "--b", "0.5", "--c", str(2 / 1.5 + 0.5 / 1.5**2)],
    ["cyclic", "coeffs", "--surface", "cone", *CONE, "--u", "0.5", "--a", "0", "--b", "1", "--c", "0"],
    ["cyclic", "coeffs", "--surface", "riemann", *RIEMANN, "--u", "0.2", "--a", "1", "--b", "0",
     "--c", "0"],
    ["mesh", "export", "--surface", "rot", *ROT, "--s-samples", "40", "--phi-samples", "12"],
    ["mesh", "export", "--surface", "parab", "--a", "0.5", "--b", "-0.2", "--z0", "1",
     "--s-samples", "30", "--phi-samples", "8"],
    ["mesh", "export", "--surface", "sphere", "--radius", "1.3", "--s-samples", "20",
     "--phi-samples", "16"],
    ["mesh", "export", "--surface", "cone", *CONE, "--s-samples", "20", "--phi-samples", "16"],
    ["mesh", "export", "--surface", "riemann", *RIEMANN, "--u-min", "-0.8", "--u-max", "0.8",
     "--s-samples", "20", "--phi-samples", "16"],
    ["figures", "reproduce", "--samples-per-period", "600"],
)


def digest_lines():
    """Yield the report lines: one per run, then one per artifact file."""
    os.environ.pop("WEINGARTEN_OUT", None)
    for argv in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                code = cli.main([*argv, "--out", tmp])
            except SystemExit as exc:
                code = exc.code
            yield f"exit={code} {' '.join(argv)}"
            for path in sorted(Path(tmp).iterdir()):
                yield f"  {hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"


def combined_digest(lines) -> str:
    """SHA-256 over ``lines``, each ended by a newline."""
    combined = hashlib.sha256()
    for line in lines:
        combined.update(line.encode() + b"\n")
    return combined.hexdigest()


def _echoed(lines):
    for line in lines:
        print(line, flush=True)
        yield line


def main() -> int:
    digest = combined_digest(_echoed(digest_lines()))
    print(f"combined {digest}")
    if np.__version__ == EXPECTED_NUMPY and digest != EXPECTED:
        print(f"error: combined digest differs from the recorded {EXPECTED} (numpy {EXPECTED_NUMPY})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
