"""The benchmark tracer's hooks name functions the package still has.

perfbench/tracing.py wraps package functions by name and skips a name it
cannot find, so a renamed or inlined function would silently zero the
per-layer metrics that hang on it.  The tracer imports only the standard
library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("mod_name, path", [(h[0], h[1]) for h in _hooks()])
def test_hook_resolves(mod_name, path):
    owner = importlib.import_module(f"cnfetsim.{mod_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

