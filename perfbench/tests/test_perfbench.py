"""Tests of the benchmark's own code: inputs, reference checks, backends, tracing.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def census():
    return workloads.load_census()


@pytest.fixture(scope="module")
def ref():
    return workloads.load_power_iso_reference()


@pytest.fixture(scope="module")
def small_sample(ref):
    """Eight stored monoids that include a power-isomorphic, non-isomorphic pair."""
    i, j = next(pair for pair in sorted(ref) if pair[0] != pair[1])
    return sorted({i, j, 0, 1, 2, 10, 50, 200})


def bench_for(name, tmp_path, pkg_root=run.PKG.parent):
    return run.Bench(WORKLOADS[name], 1, pkg_root, tmp_path)


def test_stored_census_gives_the_known_class_counts(census):
    from powmon.census import canonical_key
    from powmon.monoid import FiniteMonoid

    counts = [sum(1 for n, _ in census if n == k) for k in range(1, 6)]
    assert counts == [1, 2, 7, 35, 228]
    keys = {canonical_key(FiniteMonoid(table)) for _, table in census}
    assert len(keys) == len(census)


def test_reference_has_the_diagonal_and_the_known_exceptions(census, ref):
    diagonal = [pair for pair in ref if pair[0] == pair[1]]
    assert len(diagonal) == len(census)
    assert len(ref) - len(diagonal) == 641


def test_sample_is_seeded_per_child_and_stratified(census):
    a = workloads.sample_indices(census, 7, 3)
    assert a == workloads.sample_indices(census, 7, 3)
    assert a != workloads.sample_indices(census, 8, 3)
    assert a != workloads.sample_indices(census, 7, 4)
    assert len(a) == len(set(a)) == workloads.SAMPLE_SIZE
    for seed, child in ((1, 0), (2, 5), (3, 9)):
        orders = [census[i][0] for i in workloads.sample_indices(census, seed, child)]
        assert [orders.count(k) for k in range(1, 6)] == [0, 0, 1, 5, 34]


def test_ten_group_children_cover_every_catalog_pair():
    catalog = workloads.load_groups_catalog()
    assert [order for order, _ in catalog].count(8) == 5
    names = [name for _, name in catalog]
    ref = workloads.load_groups_reference()
    assert {(names[a], names[b]) for a in range(15) for b in range(a, 15)} == set(ref)
    covered = set()
    selections = [workloads.group_indices(catalog, 4, k) for k in range(10)]
    for sel in selections:
        assert len(sel) == 12 and [catalog[i][0] for i in sel].count(8) == 2
        assert sel == sorted(sel)       # catalog order, as the reference pairs are
        covered |= {(names[sel[a]], names[sel[b]]) for a in range(12) for b in range(a, 12)}
    assert covered == set(ref)
    assert workloads.group_indices(catalog, 4, 10) == selections[0]
    assert [workloads.group_indices(catalog, 5, k) for k in range(10)] != selections


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_monoid_run_passes_and_a_flipped_verdict_fails(tmp_path, small_sample, ref):
    bench = bench_for("monoids-pure", tmp_path)
    child = bench.spawn(0, False, 60, small_sample)
    n = len(small_sample)
    assert child.check.attempted == n * (n + 1) // 2
    assert child.check.failed == 0, child.check.problems
    records = child.result["records"]
    exception = next(r for r in records if r[0] != r[1] and r[3] == "yes")
    flipped = dict(ref)
    del flipped[exception[0], exception[1]]
    assert workloads.check_monoids(small_sample, records, flipped).failed == 1
    flipped = dict(ref)
    flipped[small_sample[0], small_sample[0]] = (False, True)
    assert workloads.check_monoids(small_sample, records, flipped).failed == 1
    assert workloads.check_monoids(small_sample, records[1:], ref).failed == 1


def test_a_run_on_the_wrong_backend_fails(tmp_path, small_sample):
    # the child is forced onto the pure kernels while the workload asks for compiled ones
    bench = bench_for("monoids-pure", tmp_path)
    bench.workload = WORKLOADS["monoids-compiled"]
    child = bench.spawn(0, False, 60, small_sample)
    assert child.result["backend"] == "pure"
    assert child.check.failed == child.check.attempted > 0
    assert any("backend" in p for p in child.check.problems)


def test_traced_run_reaches_the_untraced_verdicts_and_repeats_its_counts(tmp_path, small_sample):
    bench = bench_for("monoids-pure", tmp_path)
    children = [bench.spawn(i, i > 0, 60, small_sample) for i in range(3)]
    assert run.verdict_mismatches(children) == 0
    assert children[0].check.verdicts == children[1].check.verdicts == children[2].check.verdicts
    first, second = (spans.aggregate(c.spans) for c in children[1:])
    counts = [name for name, unit in spans.PER_LAYER if unit == "count" and name in first]
    assert first["kernels.iso_search.nodes"] > 0
    assert first["iso.find.calls"] == 2 * len(children[0].result["records"])
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    metrics = run.layer_metrics(children)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}


def test_a_traced_verdict_that_differs_is_a_failure(tmp_path, small_sample):
    bench = bench_for("monoids-pure", tmp_path)
    children = [bench.spawn(0, False, 60, small_sample), bench.spawn(1, True, 60, small_sample)]
    children[1].check.verdicts = children[1].check.verdicts[1:]
    assert run.verdict_mismatches(children) == 1
    assert children[1].check.failed == children[1].check.attempted


def test_group_child_passes_and_a_flipped_verdict_fails(tmp_path):
    bench = bench_for("groups-8", tmp_path)
    small = [i for i, (order, _) in enumerate(bench.catalog) if order <= 4]
    child = bench.spawn(0, False, 60, small)
    assert child.check.attempted == len(small) * (len(small) + 1) // 2
    assert child.check.failed == 0, child.check.problems
    assert not child.result["numpy_loaded"]
    records = child.result["records"]
    flipped = dict(bench.ref)
    h, k = next((r[0], r[1]) for r in records if r[0] != r[1])
    flipped[h, k] = ("no", "yes", True, True)
    names = [bench.catalog[i][1] for i in small]
    assert workloads.check_groups(names, records, flipped).failed == 1
    assert workloads.check_groups(names, records[1:], bench.ref).failed == 1
    assert workloads.check_groups(names[::-1], records, bench.ref).failed > 0


def test_verify_summary_mismatch_fails_that_suite():
    ref = workloads.load_verify_reference()
    text = "\n".join(["# generated: now", *ref]) + "\n"
    assert workloads.check_verify(0, text, ref).failed == 0
    broken = text.replace("suite=lemma21 cases=1306", "suite=lemma21 cases=1305")
    assert workloads.check_verify(0, broken, ref).failed == 1306
    assert workloads.check_verify(1, text, ref).failed == workloads.check_verify(1, text, ref).attempted


def test_exits_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "monoids-pure",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert got.stdout == ""


def test_a_reference_run_with_another_checksum_is_refused(tmp_path, monkeypatch):
    bench = bench_for("verify-all", tmp_path)
    assert bench.reference() > 0
    monkeypatch.setattr(run.reference, "CHECKSUM", run.reference.CHECKSUM + 1)
    assert bench.reference() is None
