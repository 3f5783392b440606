"""Every call site the benchmark's tracer wraps must exist in the package.

perfbench/spans.py replaces module globals of the solvers by name for a
traced run (``--trace 1``); a renamed or deleted global breaks that run.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr, _span in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
