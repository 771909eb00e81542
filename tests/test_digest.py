"""``scripts/metrics_digest.py`` against its committed output.

``metrics_digest.md`` holds the script's output (every ``metrics.csv`` and
``params.npz`` of its fixed runs, the gradient suite, the switch oracle
check and the exact oracle), after one comment line that names the numpy
and BLAS build it was made with. A change that must not alter any of those
bits has to reproduce the file. The bits depend on the BLAS build, as
``test_autodiff.py::TestRowExactKernel`` already assumes, so a mismatch
fails and names both environments rather than skipping. A change that is
allowed to alter low bits regenerates the file with

    python3 tests/test_digest.py

and says so in ``CHANGES.md``.
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "metrics_digest.py"
DIGEST = Path(__file__).with_name("metrics_digest.md")


def environment() -> str:
    """The numpy version and BLAS build of this interpreter, on one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = " ".join(blas.get("openblas configuration", "").split())
    return (f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']} ({build}); "
            f"{platform.machine()}")


def run_digest() -> str:
    return subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True, timeout=900).stdout


@pytest.mark.slow
def test_digest_equals_the_committed_file():
    header, expected = DIGEST.read_text().split("\n", 1)
    made_with = header.removeprefix("<!-- made with ").removesuffix(" -->")
    actual = run_digest()
    differ = [line.split(" | ")[0] for line, ref in
              zip(actual.splitlines(), expected.splitlines()) if line != ref]
    assert actual == expected, (
        f"{DIGEST.name} was made with {made_with}; this run used {environment()}. "
        f"Rows that differ: {differ or 'the row count'}")


if __name__ == "__main__":
    DIGEST.write_text(f"<!-- made with {environment()} -->\n{run_digest()}")
