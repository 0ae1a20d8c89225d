"""Monoid enumeration, canonical keys, the group catalog, experiments."""

import gc
import random
import weakref
from collections import Counter
from itertools import combinations_with_replacement
from types import MappingProxyType, SimpleNamespace

import pytest

from powmon.census import (CensusEntry, _classify, canonical_key, census_monoids,
                           enumerate_monoids, groups_catalog, power_classes,
                           power_iso_facts, power_isomorphism, power_isomorphisms,
                           power_pair, run_experiment)
from powmon.errors import SizeLimitExceeded
from powmon.iso import (DEFAULT_BUDGET, IsoWitness, element_invariants, enumerate_isomorphisms,
                        find_isomorphism)
from powmon.monoid import FiniteMonoid, cyclic_group, direct_product, idempotent_monoid2
from powmon.powerset import PowerMonoid, reduced_power_monoid
from powmon.suites import suite_section4, suite_thm32
from powmon.verify import Pullback, pullback_report

from oracles import brute_valid_tables, per_pair_records

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 35, 5: 228}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_counts(n):
    assert len(enumerate_monoids(n)) == EXPECTED_COUNTS[n]


def test_enumeration_limit():
    with pytest.raises(SizeLimitExceeded):
        enumerate_monoids(6)
    with pytest.raises(ValueError):
        enumerate_monoids(0)


def test_enumeration_rejects_two_tables_of_one_class(monkeypatch):
    from powmon import kernels

    tables = kernels.enumerate_tables(3) + [cyclic_group(3).flat]
    monkeypatch.setattr(kernels, "enumerate_tables", lambda n: tables)
    with pytest.raises(AssertionError, match="two tables of one class"):
        enumerate_monoids.__wrapped__(3)


def test_census_entries_are_immutable():
    entries = enumerate_monoids(2)
    assert isinstance(entries, tuple) and entries is enumerate_monoids(2)
    with pytest.raises(AttributeError):
        entries[0].tags = {}
    with pytest.raises(TypeError):
        entries[0].tags["group"] = not entries[0].tags["group"]
    assert all(isinstance(e.tags, MappingProxyType) for e in groups_catalog(3))


def test_order2_census_is_z2_and_idem(zoo):
    entries = enumerate_monoids(2)
    groups = [e for e in entries if e.tags["group"]]
    others = [e for e in entries if not e.tags["group"]]
    assert len(groups) == 1 and len(others) == 1
    assert find_isomorphism(groups[0].monoid, zoo["z2"]) is not None
    assert find_isomorphism(others[0].monoid, zoo["idem2"]) is not None


def test_census_entries_pairwise_nonisomorphic():
    entries = enumerate_monoids(3)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert find_isomorphism(entries[i].monoid, entries[j].monoid) is None


def test_raw_bruteforce_cross_check():
    # independent validator: all 3^4 candidate tables, triple-loop filtered
    raw = brute_valid_tables(3)
    assert len(raw) == 11
    # split raw tables into isomorphism classes by pairwise search
    classes = []
    for t in raw:
        m = FiniteMonoid(t)
        for cls in classes:
            if find_isomorphism(m, cls[0]) is not None:
                cls.append(m)
                break
        else:
            classes.append([m])
    assert len(classes) == len(enumerate_monoids(3)) == 7
    # and canonical keys agree with the class split
    assert len({canonical_key(m) for cls in classes for m in cls}) == 7


def test_canonical_key_relabel_invariance():
    rng = random.Random(5)
    for entry in enumerate_monoids(3) + enumerate_monoids(4)[:10]:
        m = entry.monoid
        base = canonical_key(m)
        for _ in range(30):
            perm = list(range(m.n))
            rng.shuffle(perm)
            table = [[0] * m.n for _ in range(m.n)]
            for a in range(m.n):
                for b in range(m.n):
                    table[perm[a]][perm[b]] = perm[m.table[a][b]]
            assert canonical_key(FiniteMonoid(table)) == base


def test_random_valid_tables_land_in_census():
    # closure: any valid random table of order 3 matches exactly one entry
    rng = random.Random(17)
    keys = [e.canonical_key for e in enumerate_monoids(3)]
    hits = 0
    while hits < 25:
        table = [[0, 1, 2]] + [[a] + [rng.randrange(3) for _ in range(2)] for a in (1, 2)]
        try:
            m = FiniteMonoid(table)
        except Exception:
            continue
        hits += 1
        matches = [k for k in keys if k == canonical_key(m)]
        assert len(matches) == 1


def test_random_relabelings_land_in_census_order4():
    from powmon import kernels

    rng = random.Random(29)
    keys = {e.canonical_key for e in enumerate_monoids(4)}
    raw = kernels.enumerate_tables(4)
    for _ in range(40):
        flat = raw[rng.randrange(len(raw))]
        perm = list(range(4))
        rng.shuffle(perm)
        table = [[0] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                table[perm[a]][perm[b]] = perm[flat[a * 4 + b]]
        assert canonical_key(FiniteMonoid(table)) in keys


def test_groups_catalog_small(zoo):
    assert [e.name for e in groups_catalog(2)] == ["cyclic 1", "cyclic 2"]
    cat4 = groups_catalog(4)
    assert len(cat4) == 5
    assert sum(e.control_of is not None for e in cat4) == 0


def test_groups_catalog_order8_distinct():
    cat = groups_catalog(8)
    assert [e.name for e in cat] == [
        "cyclic 1", "cyclic 2", "cyclic 3", "cyclic 4", "klein", "cyclic 5", "cyclic 6",
        "dihedral 3", "(cyclic 2 x cyclic 3)", "cyclic 7", "cyclic 8",
        "(cyclic 4 x cyclic 2)", "(cyclic 2 x (cyclic 2 x cyclic 2))", "dihedral 4",
        "quaternion8"]
    assert sum(1 for e in cat if e.monoid.n == 8) == 5
    q8 = next(e.monoid for e in cat if e.name == "quaternion8")
    d4 = next(e.monoid for e in cat if e.name == "dihedral 4")
    # order-profile oracle: D4 has five involutions, Q8 exactly one
    assert sorted(q8.orders()) != sorted(d4.orders())
    assert find_isomorphism(q8, d4) is None


def test_groups_catalog_control_pair():
    cat = groups_catalog(6)
    controls = [e for e in cat if e.control_of is not None]
    assert len(controls) == 1 and controls[0].control_of == "cyclic 6"


def test_catalog_limit():
    with pytest.raises(SizeLimitExceeded):
        groups_catalog(9)


@pytest.mark.parametrize("edit, message", [
    (lambda specs: specs + ((4, "z2xz2", None),),
     r"catalog entries klein and \(cyclic 2 x cyclic 2\) are isomorphic"),
    (lambda specs: tuple((6, "z2xz3", "dihedral 3") if spec == "z2xz3" else (order, spec, control)
                         for order, spec, control in specs),
     r"control \(cyclic 2 x cyclic 3\) is not isomorphic to dihedral 3"),
], ids=["duplicate-entry", "wrong-control"])
def test_groups_catalog_integrity_errors(monkeypatch, edit, message):
    from powmon import census

    monkeypatch.setattr(census, "_CATALOG_SPECS", edit(census._CATALOG_SPECS))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        groups_catalog.__wrapped__(8)


def test_groups_catalog_budget_hit_is_an_error(monkeypatch):
    # classing (cyclic 2 x cyclic 3) against cyclic 6 hits the budget: the
    # control is unresolved, not passed
    from powmon import census
    from powmon.errors import SearchBudgetExceeded

    def find_hitting(m1, m2, *args, **kwargs):
        raise SearchBudgetExceeded(0)

    monkeypatch.setattr(census, "find_isomorphism", find_hitting)
    with pytest.raises(AssertionError, match=r"^catalog entries cyclic 6 and \(cyclic 2 x cyclic 3\) "
                                             r"are unresolved: a search hit the budget$"):
        groups_catalog.__wrapped__(6)


def _power_isomorphism(zoo, h, k, budget=DEFAULT_BUDGET):
    return power_isomorphism(reduced_power_monoid(zoo[h]), reduced_power_monoid(zoo[k]), budget)


def test_power_isomorphism_status(zoo):
    assert _power_isomorphism(zoo, "z2", "z2").status == "iso"
    assert _power_isomorphism(zoo, "z2", "idem2").status == "iso"
    assert _power_isomorphism(zoo, "z4", "klein").status == "absent"
    res = _power_isomorphism(zoo, "z6", "z2xz3", budget=1)
    assert res.status == "budget-exceeded"


def test_power_isomorphism_facts(zoo):
    res = _power_isomorphism(zoo, "z2", "idem2")
    assert res.two_to_two.status == "pass"
    assert res.extraction.line() == "pullback_extraction\tcyclic 2 -> idem2\tpass\tg=(0, 1)"
    assert res.pullback.map == (0, 1)
    assert res.checks() == [res.two_to_two, res.extraction, res.record()]
    assert res.report.holds("order_preserving") and not res.report.holds("power_compatible")
    assert res.cardinality_preserving is True
    assert res.subject == "cyclic 2 vs idem2"
    res = _power_isomorphism(zoo, "z4", "klein")
    assert (res.witness, res.two_to_two, res.extraction, res.pullback, res.report,
            res.cardinality_preserving) == (None,) * 6
    assert res.checks() == []


def test_failed_is_the_verdict_of_record(zoo):
    # one result per outcome, each decided by .failed without formatting a record
    pm = reduced_power_monoid(cyclic_group(3))
    images = list(find_isomorphism(pm.carrier, pm.carrier).map)
    swapped = images[:1] + images[3:4] + images[2:3] + images[1:2]    # two-to-two fails
    merged = images[:2] + images[1:2] + images[3:]                     # not a bijection
    iso = _power_isomorphism(zoo, "z4", "z4")
    # a pullback of z4 that is not a homomorphism, on gated (cancellative) bases
    gated = iso._replace(report=pullback_report(
        Pullback(zoo["z4"], zoo["z4"], (0, 2, 1, 3))))
    results = [iso,
               _power_isomorphism(zoo, "z2", "idem2"),       # findings only
               _power_isomorphism(zoo, "z4", "klein"),
               _power_isomorphism(zoo, "z6", "z2xz3", budget=1),
               power_iso_facts(pm, pm, SimpleNamespace(map=tuple(swapped))),
               power_iso_facts(pm, pm, SimpleNamespace(map=tuple(merged))),
               gated]
    assert [r.failed for r in results] == [False, False, False, True, True, True, True]
    assert [r.failed for r in results] == [r.record().failed for r in results]
    assert gated.report.failed and not results[1].report.failed


def test_power_isomorphism_needs_materialized_carriers():
    # above MATERIALIZE_LIMIT no reduced power monoid is built, so the pair
    # cannot reach the routine
    with pytest.raises(SizeLimitExceeded):
        power_isomorphism(reduced_power_monoid(cyclic_group(11)),
                          reduced_power_monoid(cyclic_group(11)))


def _count_power_monoids(monkeypatch):
    built = []
    init = PowerMonoid.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0].name)
        init(self, *args, **kwargs)
    monkeypatch.setattr(PowerMonoid, "__init__", counting)
    return built


def test_experiment_jobs_must_be_1():
    # the message the CLI prints for --jobs other than 1
    with pytest.raises(ValueError, match="^--jobs must be 1, got 2"):
        run_experiment(census_monoids(2), mode="monoids", jobs=2)


def test_experiment_builds_each_carrier_once(monkeypatch):
    entries = groups_catalog(5)
    built = _count_power_monoids(monkeypatch)
    run_experiment(entries, jobs=1)
    assert len(built) == len(entries)


def test_section4_builds_each_carrier_once(monkeypatch):
    built = _count_power_monoids(monkeypatch)
    list(suite_section4(group_max=5))
    assert len(built) <= len(groups_catalog(5)) + 2   # plus the pinned z2/idem2 pair


def _count_refinements(monkeypatch):
    from powmon import iso

    batches = []
    refine = iso.refine_colors

    def counting(monoids):
        batches.append(list(monoids))
        return refine(monoids)
    monkeypatch.setattr(iso, "refine_colors", counting)
    return batches


def _refined_once_in_own_bucket(batches):
    # no monoid is refined twice, and each refinement is of one bucket: the
    # monoids of one order and one multiset of element invariants
    refined = [id(m) for batch in batches for m in batch]
    assert len(refined) == len(set(refined))
    for batch in batches:
        assert len({(m.n, tuple(sorted(element_invariants(m)))) for m in batch}) == 1


def test_experiment_refines_bases_and_carriers_once(monkeypatch):
    batches = _count_refinements(monkeypatch)
    run_experiment(census_monoids(3), mode="monoids", jobs=1)
    assert batches
    _refined_once_in_own_bucket(batches)


def test_thm32_refines_each_batch_once(monkeypatch):
    groups_catalog(4)       # cached with its validation, as suite_thm32 finds it
    batches = _count_refinements(monkeypatch)
    list(suite_thm32(max_order=3, group_max=4))
    assert batches
    _refined_once_in_own_bucket(batches)


def test_group_experiment_refines_few_elements(monkeypatch):
    # the catalog's only non-trivial bucket is z6 with z2xz3, bases and
    # carriers; self-pairs need no colors
    batches = _count_refinements(monkeypatch)
    run_experiment(groups_catalog.__wrapped__(8))
    assert sum(m.n for batch in batches for m in batch) <= 100


def test_group_experiment_computes_invariants_only_where_order_profiles_collide(monkeypatch):
    # in the catalog <= 8 only z6 and its control z2xz3 share an order
    # profile, as bases and as carriers; every other monoid is alone in its
    # bucket, and neither keying nor a self-pair needs its invariants
    from powmon import iso

    seen = []
    invariants = iso.element_invariants

    def counting(m):
        seen.append(m.name)
        return invariants(m)
    monkeypatch.setattr(iso, "element_invariants", counting)
    run_experiment(groups_catalog.__wrapped__(8))
    assert sorted(seen) == ["(cyclic 2 x cyclic 3)", "cyclic 6",
                            "reduced power((cyclic 2 x cyclic 3))", "reduced power(cyclic 6)"]


def test_experiment_tiny_groups():
    records, summary = run_experiment(groups_catalog(2))
    assert summary.pairs == 3
    assert summary.biconditional_holds and not summary.exceptions


def test_experiment_order2_monoids():
    records, summary = run_experiment(census_monoids(2), mode="monoids")
    assert summary.pairs == 6
    assert len(summary.exceptions) == 1
    exc = summary.exceptions[0]
    assert exc.base_iso == "no" and exc.power_iso == "yes"
    # the pair is Z2 vs the idempotent monoid, in census order
    assert not summary.pullback_failures


@pytest.mark.parametrize("forged, failures, findings", [(False, [], 1), (True, [(0, 1)], 0)],
                         ids=["true-tags", "forged-tags"])
def test_experiment_gates_exceptions_on_cancellative_tags(forged, failures, findings):
    # z2 vs idem2 is the known exception; it contradicts the theorem only
    # when both entries are tagged cancellative, which for finite monoids is
    # the "group" tag
    entries = [CensusEntry(m, None, {"group": m.is_group() or forged})
               for m in (cyclic_group(2), idempotent_monoid2())]
    _, summary = run_experiment(entries, mode="monoids")
    assert [r.pair for r in summary.exceptions] == [(0, 1)]
    assert [r.pair for r in summary.failures] == failures
    assert summary.findings == findings


def test_experiment_order5_monoids():
    records, summary = run_experiment(census_monoids(5), mode="monoids")
    assert summary.pairs == len(records) == 37401     # 228 + 35 + 7 + 2 + 1 = 273 entries
    assert len(summary.exceptions) == 641
    assert all(r.base_iso == "no" and r.power_iso == "yes" for r in summary.exceptions)
    assert not summary.budget_exceeded and not summary.pullback_failures
    assert summary.findings == 641 and not summary.failures
    assert summary.cardinality_always_preserved
    assert sum(r.base_iso == "yes" for r in records) == 273


def test_experiment_witnesses_revalidate(monkeypatch):
    # the records keep no witness: catch each result as the experiment decides it
    from powmon import census
    decided = []
    decide = census.power_iso_facts

    def recording(*args):
        decided.append(decide(*args))
        return decided[-1]
    monkeypatch.setattr(census, "power_iso_facts", recording)
    records, _ = run_experiment(groups_catalog(4))
    # one "iso" result per "yes" record, in pair order, whose verdicts it gives
    assert [r.names for r in records if r.power_iso == "yes"] == \
        [(res.pm_src.base.name, res.pm_dst.base.name) for res in decided]
    assert [(r.pullback_ok, r.cardinality_preserving) for r in records if r.power_iso == "yes"] == \
        [(not res.failed, res.cardinality_preserving) for res in decided]
    for res in decided:
        assert res.status == "iso"
        IsoWitness(res.pm_src.carrier, res.pm_dst.carrier, res.witness.map)  # raises if invalid
    assert len(decided) >= 5


@pytest.mark.parametrize("entries", [lambda: census_monoids(4), lambda: groups_catalog(8)],
                         ids=["census-4", "catalog-8"])
def test_experiment_classes_match_per_pair_oracle(entries):
    # deciding by classes and composed witnesses gives the records that a
    # search per pair gives, facts included
    entries = entries()
    records, _ = run_experiment(entries, mode="monoids")
    assert records == per_pair_records(entries, DEFAULT_BUDGET)


@pytest.mark.parametrize("entries", [lambda: census_monoids(4), lambda: groups_catalog(8)],
                         ids=["census-4", "catalog-8"])
def test_classes_give_a_member_its_representative_search_witness(entries):
    # the classes keep each witness from the representative r onto the
    # member m, so the pair (r, m) gets the map that searching it alone with
    # the batch's coloring finds, and a pair sweep reads that very witness
    pms, classes = power_classes(entries(), DEFAULT_BUDGET)
    members = 0
    for m, c in enumerate(classes.of):
        r = classes.reps[c]
        if r != m:
            want = find_isomorphism(pms[r].carrier, pms[m].carrier, DEFAULT_BUDGET,
                                    classes.coloring)
            assert list(power_pair(classes, pms, r, m).witness.map) == list(want.map), (r, m)
            members += 1
    assert members


@pytest.mark.parametrize("monoids", [
    lambda: [reduced_power_monoid(e.monoid).carrier for e in census_monoids(4)],
    lambda: [e.monoid for e in groups_catalog(8)]], ids=["census-4-carriers", "catalog-8-bases"])
def test_classes_keep_each_class_first_member_as_its_representative(monoids):
    # reps[c] is where class c was founded: its first member, mapped onto
    # itself by the identity
    monoids = monoids()
    classes = _classify(monoids, DEFAULT_BUDGET)
    assert sorted(set(classes.of)) == list(range(len(classes.reps)))
    for c, r in enumerate(classes.reps):
        assert r == classes.of.index(c) and classes.of[r] == c
        assert classes.maps[r] == range(monoids[r].n)


def test_experiment_budget_exceeded_reported():
    records, summary = run_experiment(groups_catalog(6), budget=10)
    assert summary.budget_exceeded
    # an unexhausted search blocks the biconditional claim
    assert not summary.biconditional_holds


def test_experiment_budget_hit_is_never_no():
    # budget 10 stops classing the (cyclic 2 x cyclic 3) carrier against the
    # cyclic 6 one: that pair is budget-exceeded and a failure, and every
    # "no" is one that an exhausted per-pair search also reads
    entries = groups_catalog(6)
    records, summary = run_experiment(entries, budget=10)
    oracle = per_pair_records(entries, DEFAULT_BUDGET)
    hit = [r for r in records if "budget-exceeded" in (r.base_iso, r.power_iso)]
    assert [r.names for r in hit] == [("cyclic 6", "(cyclic 2 x cyclic 3)")]
    assert summary.budget_exceeded == hit and all(r in summary.failures for r in hit)
    for r, want in zip(records, oracle):
        for got, proven in ((r.base_iso, want.base_iso), (r.power_iso, want.power_iso)):
            assert got != "no" or proven == "no", r
    assert not summary.biconditional_holds


def _second_carrier_hits_the_budget(monkeypatch):
    # three isomorphic groups; classing the second carrier against the first
    # is made to hit the budget, so it founds a class of its own, and the
    # third joins the first
    from powmon import census
    from powmon.errors import SearchBudgetExceeded

    entries = [CensusEntry(m, None, {"group": True})
               for m in (cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(3)),
                         direct_product(cyclic_group(3), cyclic_group(2)))]
    first, second = [f"reduced power({e.name})" for e in entries[:2]]
    find_real = census.find_isomorphism

    def find_hitting(m1, m2, *args, **kwargs):
        if (m1.name, m2.name) == (first, second):
            raise SearchBudgetExceeded(0)
        return find_real(m1, m2, *args, **kwargs)

    monkeypatch.setattr(census, "find_isomorphism", find_hitting)
    return entries


def test_experiment_budget_hit_leaves_both_classes_unresolved(monkeypatch):
    # both pairs across the two classes are budget-exceeded, (1, 2) too,
    # which a search of its own would decide
    records, summary = run_experiment(_second_carrier_hits_the_budget(monkeypatch))
    assert [(r.pair, r.base_iso, r.power_iso) for r in records] == [
        ((0, 0), "yes", "yes"), ((0, 1), "yes", "budget-exceeded"), ((0, 2), "yes", "yes"),
        ((1, 1), "yes", "yes"), ((1, 2), "yes", "budget-exceeded"), ((2, 2), "yes", "yes")]
    assert [r.pair for r in summary.budget_exceeded] == [(0, 1), (1, 2)]
    assert [r.pair for r in summary.failures] == [(0, 1), (1, 2)]
    assert not summary.biconditional_holds and not summary.exceptions


def test_thm32_budget_hit_is_failing_record():
    # the census half's three order-2 searches hit the budget: one failing
    # record each, and nothing raised
    records = list(suite_thm32(max_order=2, group_max=1, budget=1))
    hits = [r for r in records if r.checker == "power_iso_search"]
    assert [r.subject for r in hits] == ["monoid2.0 vs monoid2.0", "monoid2.0 vs monoid2.1",
                                         "monoid2.1 vs monoid2.1"]
    assert all(r.failed and r.detail == "budget exceeded: absence unproven" for r in hits)
    assert [r for r in records if r.failed] == hits


def _relabelled_census(max_order, seed):
    # each census entry, then a copy of each relabelled by a seeded random
    # permutation, so that the classes' maps f_i are scrambled, not
    # involutions, and the listing order of a member differs from its
    # representative's
    rng = random.Random(seed)
    entries = census_monoids(max_order)
    copies = []
    for e in entries:
        n, flat = e.monoid.n, e.monoid.flat
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[flat[a * n + b]]
        m = FiniteMonoid(table, name=f"{e.name}^{''.join(map(str, perm))}")
        copies.append(CensusEntry(m, None, e.tags))
    return entries + copies


@pytest.mark.parametrize("entries, pairs, maps", [(lambda: census_monoids(4), 116, 446),
                                                  (lambda: groups_catalog(6), 10, 58),
                                                  (lambda: _relabelled_census(4, 7), 419, 1640)],
                         ids=["census-4", "catalog-6", "relabelled-census-4"])
def test_class_listing_matches_per_pair_listing(entries, pairs, maps):
    # each class's automorphisms, composed with the classes' maps, give every
    # listed pair the maps that listing that pair alone finds, in its order;
    # the catalog's cyclic 6 and (cyclic 2 x cyclic 3) are a composed pair
    pms, classes = power_classes(entries(), DEFAULT_BUDGET)
    listed = _listed_as_alone(pms, classes)
    assert (len(listed), sum(listed)) == (pairs, maps)


def test_class_listing_order_holds_for_any_kept_maps():
    # the classes keep the first map rep -> i that a search finds, and with
    # those maps the composed lists happen to come out in their pairs' order
    # unsorted (through census <= 5).  Keeping f_i o t instead, t the last
    # automorphism of the class's representative, composes another order
    # (56 of the 116 census <= 4 pairs), which the listing's sort must undo
    pms, classes = power_classes(census_monoids(4), DEFAULT_BUDGET)
    last = {}
    for i, c in enumerate(classes.of):
        if c not in last:
            rep = pms[i].carrier
            last[c] = enumerate_isomorphisms(rep, rep, DEFAULT_BUDGET, classes.coloring)[-1].map
    kept = tuple(tuple(f[t] for t in last[c]) for f, c in zip(classes.maps, classes.of))
    assert len(_listed_as_alone(pms, classes._replace(maps=kept))) == 116


def _by_pair(pms, results):
    # the results grouped by their pair (i, j), asserting that each pair's
    # results come together and the pairs in increasing order
    index = {id(pm): k for k, pm in enumerate(pms)}
    grouped = {}
    for r in results:
        pair = index[id(r.pm_src)], index[id(r.pm_dst)]
        assert pair >= max(grouped, default=pair), pair
        grouped.setdefault(pair, []).append(r)
    return grouped


def _listed_as_alone(pms, classes):
    # asserts that power_isomorphisms yields for each pair the maps of
    # listing it alone, in that order, and nothing for a pair proven "no";
    # returns the listed pairs' list lengths
    got = _by_pair(pms, power_isomorphisms(classes, pms))
    assert all(classes.status(i, j) != "no" for i, j in got)
    listed = []
    for i, j in combinations_with_replacement(range(len(pms)), 2):
        if classes.status(i, j) != "no":
            want = enumerate_isomorphisms(pms[i].carrier, pms[j].carrier, DEFAULT_BUDGET,
                                          classes.coloring)
            results = got.get((i, j), [])
            assert [r.witness.map for r in results] == [w.map for w in want], (i, j)
            assert all(r.status == "iso" for r in results)
            listed.append(len(results))
    return listed


@pytest.mark.parametrize("entries", [lambda: census_monoids(4), lambda: _relabelled_census(4, 7)],
                         ids=["census-4", "relabelled-census-4"])
def test_class_listing_computes_each_member_fact_once(monkeypatch, entries):
    # f_i^-1 and carrier i's search order depend on i alone: one of each
    # for every member i with a composed pair, that is every member of a
    # class of two or more, where a count per pair would make one for each
    # in-class pair but the representative's self-pair
    from powmon import census

    pms, classes = power_classes(entries(), DEFAULT_BUDGET)
    calls = Counter()
    for name in ("inverse_map", "search_order"):
        def counting(arg, real=getattr(census, name), name=name):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(census, name, counting)
    sizes = Counter(classes.of)
    members = sum(k for k in sizes.values() if k > 1)
    assert members < sum(k * (k + 1) // 2 - 1 for k in sizes.values() if k > 1)
    assert len(_listed_as_alone(pms, classes)) > 0
    assert calls == {"inverse_map": members, "search_order": members}


def _count_listings(monkeypatch):
    from powmon import census

    calls = []
    enumerate_real = census.enumerate_isomorphisms

    def counting(m1, m2, *args, **kwargs):
        calls.append((m1.name, m2.name))
        return enumerate_real(m1, m2, *args, **kwargs)
    monkeypatch.setattr(census, "enumerate_isomorphisms", counting)
    return calls


def test_class_listing_budget_hit_fails_every_in_class_pair(monkeypatch):
    # z2's and idem2's carriers are one class; listing its automorphisms at
    # budget 1 hits the budget once, and each of the class's three pairs,
    # self-pairs included, gets one budget-exceeded result, never none
    pms, classes = power_classes(census_monoids(2), DEFAULT_BUDGET)
    assert classes.of[1] == classes.of[2] != classes.of[0]
    calls = _count_listings(monkeypatch)
    got = _by_pair(pms, power_isomorphisms(classes, pms, budget=1))
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert [(r.status, r.pm_src, r.pm_dst, r.failed) for r in got[i, j]] == \
            [("budget-exceeded", pms[i], pms[j], True)]
    # the trivial carrier's one automorphism fits in the budget
    assert [r.status for r in got[0, 0]] == ["iso"]
    assert list(got) == [(0, 0), (1, 1), (1, 2), (2, 2)]
    assert calls == [(pm.carrier.name, pm.carrier.name) for pm in pms[:2]]


def test_class_listing_drops_a_class_list_after_its_last_pair(monkeypatch):
    # census <= 3 carriers 3, 5, 6 and 7 make a class with two automorphisms,
    # and carrier 9 is the batch's last: the class's automorphisms are
    # listed once, stay alive while its pairs are to come, and none is alive
    # once a result after its last pair (7, 7) is out, with no result kept
    from powmon import census

    pms, classes = power_classes(census_monoids(3), DEFAULT_BUDGET)
    members = [i for i, c in enumerate(classes.of) if c == classes.of[3]]
    rep, last = members[0], members[-1]
    assert members == [3, 5, 6, 7] and len(pms) == 10
    aut = []
    enumerate_real = census.enumerate_isomorphisms

    def keeping_refs(m1, m2, *args, **kwargs):
        found = enumerate_real(m1, m2, *args, **kwargs)
        if m1 is m2 is pms[rep].carrier:
            aut.append([weakref.ref(w) for w in found])
        return found
    monkeypatch.setattr(census, "enumerate_isomorphisms", keeping_refs)
    index = {id(pm): k for k, pm in enumerate(pms)}
    alive = []
    for res in power_isomorphisms(classes, pms):
        pair = index[id(res.pm_src)], index[id(res.pm_dst)]
        del res
        gc.collect()
        alive.append((pair, sum(ref() is not None for ref in aut[0]) if aut else None))
    (refs,) = aut
    assert len(refs) == 2
    assert {n for pair, n in alive if (rep, rep) <= pair < (last, last)} == {len(refs)}
    assert {n for pair, n in alive if pair > (last, last)} == {0}


def test_class_listing_lists_a_pair_across_unresolved_classes_alone(monkeypatch):
    # no composed map joins two unresolved classes, so each pair across
    # them is listed by a search of its own
    pms, classes = power_classes(_second_carrier_hits_the_budget(monkeypatch), DEFAULT_BUDGET)
    assert [classes.status(*p) for p in ((0, 1), (0, 2), (1, 2))] == \
        ["budget-exceeded", "yes", "budget-exceeded"]
    calls = _count_listings(monkeypatch)
    got = _by_pair(pms, power_isomorphisms(classes, pms))
    for i, j in ((0, 1), (1, 2)):
        want = enumerate_isomorphisms(pms[i].carrier, pms[j].carrier, DEFAULT_BUDGET,
                                      classes.coloring)
        assert [r.witness.map for r in got[i, j]] == [w.map for w in want] != []
    names = [pm.carrier.name for pm in pms]
    assert calls == [(names[0], names[0]), (names[0], names[1]), (names[1], names[1]),
                     (names[1], names[2])]
    # a budget hit of a pair's own listing is its budget-exceeded result
    got = _by_pair(pms, power_isomorphisms(classes, pms, budget=10))
    assert [r.status for r in got[0, 1]] == ["budget-exceeded"]


def test_experiment_groups_order8():
    # carrier size 128; the biconditional still holds with zero exceptions
    records, summary = run_experiment(groups_catalog(8))
    assert summary.pairs == 120
    assert summary.biconditional_holds
    assert not summary.pullback_failures and not summary.budget_exceeded
