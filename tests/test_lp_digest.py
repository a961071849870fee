"""Every LP the size solver raises, pinned by digest.

``golden/lp_digest.txt`` holds the lines ``tools/lp_digest.py --seeds 1``
prints: per document, the number of LPs and one sha1 over every LP's
inputs and result, for the shipped scenarios, ``tests/data/fault6x4.json``
and the benchmark documents of seed 1. The golden CSVs see only the
winning sizes and a summed iteration count, and only on the shipped
scenarios; this sees every LP, the losing branches', the lease tables' and
the benchmark documents' too.

The digests depend on the numpy, scipy and HiGHS builds, whose versions
head the file, as the golden CSVs do. The benchmark documents come from
the ``perfbench.workloads`` generator, so a change to that generator
re-records the file, as does any change that moves an LP:
``PYTHONPATH=src python tests/test_lp_digest.py > tests/golden/lp_digest.txt``.
"""

import pathlib
import subprocess
import sys

import numpy as np
import scipy

import sliceprofit

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "lp_digest.txt"
# directory holding the imported package, so the tool digests the same code
PACKAGE_ROOT = pathlib.Path(sliceprofit.__file__).resolve().parent.parent


def digest_lines():
    """``<sha1> <LP count> <document>`` per document, from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lp_digest.py"), "--seeds", "1",
         "--src", str(PACKAGE_ROOT)],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_lp_matches_golden():
    want = [line for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]
    got = digest_lines()
    assert [line.split()[2] for line in got] == [line.split()[2] for line in want]
    for got_line, want_line in zip(got, want):
        assert got_line == want_line, f"the LPs of {want_line.split()[2]} moved"


if __name__ == "__main__":
    from scipy.optimize._highspy import _core as highs

    version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    print(f"# tools/lp_digest.py --seeds 1: <sha1> <LP count> <document>; "
          f"numpy {np.__version__}, scipy {scipy.__version__}, HiGHS {version}")
    print("\n".join(digest_lines()))
