"""The benchmark tracer wraps latticelab functions by dotted name.

perfbench/tracing.py resolves every name in SPAN_LAYERS and COUNTED on the
package when `perfbench/run.py --trace 1` starts, so a renamed or deleted
function makes that run fail; each name is resolved here the same way.
"""

import importlib.util
from pathlib import Path

import latticelab
import latticelab.cli  # noqa: F401  (the tracer wraps cli.main)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [name for names in tracing.SPAN_LAYERS.values() for name in names]
    names += tracing.COUNTED.values()
    missing = []
    for dotted in names:
        try:
            tracing._resolve(latticelab, dotted)
        except (AttributeError, KeyError):
            missing.append(dotted)
    assert not missing
    assert callable(latticelab.util.BudgetCounter.__dict__["tick"])
