"""The benchmark's span installer accepts the package as it stands.

``perfbench/spans.py`` wraps every public function of every dtebounds
module at each binding site, and refuses to run when an original is still
reachable from a module-level container or a class, where no wrapper would
see the call. Entering it once here turns such a binding into a test
failure instead of a failed traced benchmark run.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import dtebounds

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_function_can_be_wrapped():
    for info in pkgutil.iter_modules(dtebounds.__path__):
        importlib.import_module(f"dtebounds.{info.name}")
    original = dtebounds.crossfit.estimate
    with _load_spans().Tracer().installed():
        assert dtebounds.crossfit.estimate is not original
    assert dtebounds.crossfit.estimate is original
