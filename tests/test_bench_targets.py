"""The traced benchmark wraps powmon functions by name; each name must resolve.

perfbench/spans.py lists its targets as (module, attribute) pairs and
reads PowerMonoid.kind for its carrier notes.  A rename in powmon breaks
only the traced runs, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from powmon.monoid import cyclic_group
from powmon.powerset import reduced_power_monoid

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    for span, module, attr, _ in _spans().TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module}.{attr} is not callable"


def test_carrier_note_reads_power_monoid():
    pm = reduced_power_monoid(cyclic_group(2))
    assert pm.kind and _spans()._carrier_note((pm,), None).startswith(pm.kind + ":")
