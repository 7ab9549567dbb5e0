"""Put the checkout's own cnfetsim on the import path, single-threaded.

Import this module before numpy: the BLAS thread count is read when numpy
loads.  The benchmark always measures the sources next to it (../src),
never an installed copy of the package.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_sources() -> None:
    """Make `import cnfetsim` load ../src/cnfetsim, or exit with code 2."""
    if not (SRC / "cnfetsim" / "__init__.py").is_file():
        print(f"perfbench: no cnfetsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
