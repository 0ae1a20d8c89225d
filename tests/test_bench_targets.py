"""The benchmark calls powmon by name; each name it uses must still work.

perfbench/spans.py lists its targets as (module, attribute) pairs and
reads PowerMonoid.kind for its carrier notes.  perfbench/child.py runs
the CLI with the argv of perfbench/workloads.py, builds census entries
from stored tables (census_entries) and calls run_experiment with
jobs=1.  A rename in powmon breaks only the benchmark runs, so these
are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from powmon import cli
from powmon.census import census_monoids, groups_catalog, run_experiment
from powmon.monoid import cyclic_group
from powmon.powerset import reduced_power_monoid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _perfbench("spans")


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


def test_benchmark_entry_points_run(capsys):
    workloads = _perfbench("workloads")
    assert cli.main(list(workloads.WORKLOADS["verify-all"].argv)) == 0
    capsys.readouterr()
    records, _ = run_experiment(groups_catalog(3), mode="groups",
                                budget=workloads.GROUPS_BUDGET, jobs=1)
    assert records
    records, _ = run_experiment(census_monoids(2), mode="monoids", jobs=1)
    assert records


def test_benchmark_census_entries_run():
    # the monoids-* children build their entries with census_entries
    tables = [(1, [[0]]), (2, [[0, 1], [1, 0]]), (2, [[0, 1], [1, 1]]),
              (3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]), (3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]])]
    entries = _perfbench("child").census_entries(tables, range(len(tables)))
    assert [e.name for e in entries] == ["m1.0", "m2.1", "m2.2", "m3.3", "m3.4"]
    assert [e.tags["group"] for e in entries] == [True, True, False, True, False]
    assert [e.tags["cancellative"] for e in entries] == [e.tags["group"] for e in entries]
    records, summary = run_experiment(entries, mode="monoids", jobs=1)
    assert len(records) == 15 and not summary.failures
