"""Isomorphism search against the permutation-scan oracle."""

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powmon import iso
from powmon.census import catalog_power_classes, census_monoids, groups_catalog, power_classes
from powmon.errors import SearchBudgetExceeded
from powmon.iso import (DEFAULT_BUDGET, Coloring, IsoWitness, _search, element_invariants,
                        enumerate_isomorphisms, find_isomorphism, refine_colors)
from powmon.monoid import cyclic_group
from powmon.powerset import augment, reduced_power_monoid

from oracles import (brute_element_invariants, brute_homomorphism_failure, brute_isomorphisms,
                     brute_light_rows, brute_refine_colors)


def test_self_isomorphism_is_found(zoo):
    for m in zoo.values():
        w = find_isomorphism(m, m)
        assert w is not None
        assert w.map[m.identity] == m.identity


def test_self_pair_witness_is_the_first_search_result():
    # the census <= 5 and catalog <= 8 bases and carriers: the identity that
    # find_isomorphism returns is the search's first map, reached without
    # backtracking
    bases = [e.monoid for e in census_monoids(5) + list(groups_catalog(8))]
    for m in bases + [reduced_power_monoid(b).carrier for b in bases]:
        exhausted, maps, nodes = _search(m, m, m.n, 1, None)
        assert exhausted and nodes <= m.n
        assert find_isomorphism(m, m).map == tuple(maps[0])


def test_cyclic4_vs_klein_absent(zoo):
    # order profiles {1,2,4,4} vs {1,2,2,2} force absence
    assert find_isomorphism(zoo["z4"], zoo["klein"]) is None


def test_z6_vs_z2xz3_witness_matches_oracle(zoo):
    w = find_isomorphism(zoo["z6"], zoo["z2xz3"])
    oracle = brute_isomorphisms(zoo["z6"].table, zoo["z2xz3"].table)
    assert w is not None and tuple(w.map) in oracle
    assert len(enumerate_isomorphisms(zoo["z6"], zoo["z2xz3"])) == len(oracle)


def test_enumerate_matches_oracle(zoo):
    for name in ("z6", "d3", "klein", "q8", "cm22", "idem2"):
        m = zoo[name]
        found = {tuple(w.map) for w in enumerate_isomorphisms(m, m)}
        assert found == set(brute_isomorphisms(m.table, m.table))


def test_cross_pair_enumeration_matches_oracle(zoo):
    pairs = [("z6", "z2xz3"), ("z4", "klein"), ("d3", "z6"), ("z2", "idem2")]
    for a, b in pairs:
        found = {tuple(w.map) for w in enumerate_isomorphisms(zoo[a], zoo[b])}
        assert found == set(brute_isomorphisms(zoo[a].table, zoo[b].table))


def test_symmetry_over_census():
    entries = census_monoids(4)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ab = find_isomorphism(entries[i].monoid, entries[j].monoid)
            ba = find_isomorphism(entries[j].monoid, entries[i].monoid)
            assert (ab is None) == (ba is None)


def test_budget_exceeded_raises(zoo):
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(zoo["z6"], zoo["z2xz3"], budget=1)


def test_witness_validation_rejects_corruption(zoo):
    z6 = zoo["z6"]
    with pytest.raises(ValueError):
        IsoWitness(z6, z6, [0, 2, 1, 3, 4, 5])  # not a homomorphism
    with pytest.raises(ValueError):
        IsoWitness(z6, z6, [0, 0, 1, 3, 4, 5])  # not a bijection
    with pytest.raises(ValueError):
        IsoWitness(z6, zoo["d3"], [1, 0, 2, 3, 4, 5])  # identity not fixed


def test_identity_witness_needs_no_product_check(zoo, monkeypatch):
    # the identity of a monoid onto itself is recognised by its map alone;
    # the identity between two objects, and any other map, is checked in full
    from powmon import iso

    checked = []
    check = iso._check_isomorphism
    monkeypatch.setattr(iso, "_check_isomorphism", lambda *args: checked.append(args) or check(*args))
    z6 = zoo["z6"]
    assert IsoWitness(z6, z6, range(6)).map == tuple(range(6)) and not checked
    IsoWitness(z6, cyclic_group(6), range(6))
    with pytest.raises(ValueError, match="not a homomorphism"):
        IsoWitness(z6, z6, [0, 2, 1, 3, 4, 5])
    assert len(checked) == 2


def _carrier_witnesses(pms, classes):
    """(source, target, map) of each member's witness from its class's
    representative, and of each base automorphism lifted to the carriers."""
    out = []
    for i, pm in enumerate(pms):
        rep = pms[classes.reps[classes.of[i]]]
        out.append((rep.carrier, pm.carrier, tuple(classes.maps[i])))
        for aut in enumerate_isomorphisms(pm.base, pm.base):
            out.append((pm.carrier, pm.carrier, augment(aut, pm, pm).map))
    return out


@lru_cache(maxsize=None)
def _witness_pools():
    """Valid witnesses on the census <= 5 carriers, the catalog <= 8
    carriers, the trivial monoid and the 512-element carrier of Z10, whose
    table is an array('H')."""
    trivial = cyclic_group(1)
    z10 = reduced_power_monoid(cyclic_group(10))
    return {
        "census5": _carrier_witnesses(*power_classes(census_monoids(5), DEFAULT_BUDGET)),
        "catalog8": _carrier_witnesses(*catalog_power_classes(8, DEFAULT_BUDGET)),
        "trivial": [(trivial, trivial, (0,))],
        "z10": [(z10.carrier, z10.carrier, augment(w, z10, z10).map)
                for w in enumerate_isomorphisms(z10.base, z10.base)],
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_witness_check_matches_the_cell_loop(data):
    # a valid witness with two images swapped, or kept: the row check raises
    # the cell loop's first failure, or accepts exactly when it finds none
    pool = data.draw(st.sampled_from(("census5", "catalog8", "trivial", "z10")))
    source, target, mapping = data.draw(st.sampled_from(_witness_pools()[pool]))
    n = source.n
    mapping = list(mapping)
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        mapping[i], mapping[j] = mapping[j], mapping[i]
    if mapping[source.identity] != target.identity:
        want = "witness does not map identity to identity"
    else:
        failure = brute_homomorphism_failure(source.table, target.table, mapping)
        want = failure and "witness is not a homomorphism at (%d, %d)" % failure
    if want is None:
        assert IsoWitness(source, target, mapping).map == tuple(mapping)
    else:
        with pytest.raises(ValueError) as exc:
            IsoWitness(source, target, mapping)
        assert str(exc.value) == want


class _RowLog(bytes):
    """A bytes table that logs the row index of each row sliced from it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.log.append(key.start // self.n)
        return super().__getitem__(key)


@pytest.mark.parametrize("entries", [lambda: census_monoids(5), lambda: groups_catalog(8)],
                         ids=["census5-carriers", "catalog8-carriers"])
def test_witness_check_compares_only_the_light_rows(entries):
    # the rows compared are row 0, the carrier's identity {1}, and the rows
    # a that are no product y*z with z <= y < a.  Row a is compared with
    # the target row map[a], so the target rows sliced name them.
    for e in entries():
        pm = reduced_power_monoid(e.monoid)
        c = pm.carrier
        rows = brute_light_rows(c.table)
        assert rows[0] == c.identity == 0
        aut = enumerate_isomorphisms(e.monoid, e.monoid)[-1]
        for mapping in (tuple(range(c.n)), augment(aut, pm, pm).map):
            flat = _RowLog(c.flat)
            flat.n, flat.log = c.n, []
            target = SimpleNamespace(n=c.n, identity=c.identity, flat=flat)
            iso._check_isomorphism(c, target, mapping)
            assert flat.log == [mapping[a] for a in rows]


def test_witness_inverse_roundtrip(zoo):
    w = find_isomorphism(zoo["z6"], zoo["z2xz3"])
    inv = w.inverse()
    assert [inv.map[w.map[a]] for a in range(6)] == list(range(6))


def _same_partition(a, b):
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def _carriers(entries):
    return [reduced_power_monoid(e.monoid).carrier for e in entries]


def _census_bases_and_carriers(max_order):
    bases = [e.monoid for e in census_monoids(max_order)]
    return bases + [reduced_power_monoid(m).carrier for m in bases]


def test_batch_coloring_restricts_to_pairwise_refinement():
    # the census <= 4 bases and their carriers as one batch; a bucket holds
    # the monoids of one order and one multiset of element invariants
    monoids = _census_bases_and_carriers(4)
    batch = Coloring(monoids)
    bucket = {id(m): (m.n, sorted(element_invariants(m))) for m in monoids}
    for m1, m2 in combinations_with_replacement(monoids, 2):
        c1, c2 = refine_colors([m1, m2])
        assert (batch.class_key(m1) == batch.class_key(m2)) == (Counter(c1) == Counter(c2))
        if bucket[id(m1)] == bucket[id(m2)]:
            assert _same_partition(batch.colors_of(m1) + batch.colors_of(m2), c1 + c2)


@pytest.mark.parametrize("batch", [
    lambda: _census_bases_and_carriers(5),
    lambda: [e.monoid for e in groups_catalog(8)] + _carriers(groups_catalog(8)),
], ids=["census5-bases-and-carriers", "catalog8-bases-and-carriers"])
def test_buckets_are_those_of_the_invariant_multiset(batch):
    # grouped by order profile first, split by invariants only on a tie:
    # two monoids share a bucket iff they share n and invariant multiset
    monoids = batch()
    coloring = Coloring(monoids)
    assert _same_partition([coloring.class_key(m)[0] for m in monoids],
                           [(m.n, tuple(sorted(element_invariants(m)))) for m in monoids])


def test_order_profile_tie_is_split_without_refinement(monkeypatch, zoo):
    # Z2 and idem2, the paper's counterexample pair, share the order profile
    # (1, 2) but not their invariants: the buckets alone tell them apart
    def refuse(monoids):
        raise AssertionError(f"refined {[m.name for m in monoids]}")
    monkeypatch.setattr(iso, "refine_colors", refuse)
    z2, idem2 = zoo["z2"], zoo["idem2"]
    assert sorted(z2.orders()) == sorted(idem2.orders()) == [1, 2]
    coloring = Coloring([z2, idem2])
    assert coloring.class_key(z2)[0] != coloring.class_key(idem2)[0]


def test_batch_coloring_gives_the_pairwise_witnesses():
    carriers = _carriers(census_monoids(3))
    batch = Coloring(carriers)
    for m1, m2 in combinations_with_replacement(carriers, 2):
        assert ([w.map for w in enumerate_isomorphisms(m1, m2, coloring=batch)]
                == [w.map for w in enumerate_isomorphisms(m1, m2)])


@pytest.mark.parametrize("batch", [
    lambda: _census_bases_and_carriers(4),
    # the order-5 bases tell apart codes that drop the factor p of cur[ab]
    lambda: _census_bases_and_carriers(5),
    lambda: _carriers(groups_catalog(8)),
    lambda: [reduced_power_monoid(cyclic_group(6)).carrier],
    lambda: [cyclic_group(1)],
], ids=["census4-bases-and-carriers", "census5-bases-and-carriers", "catalog8-carriers",
        "one-monoid", "order-1"])
def test_refine_colors_matches_tuple_oracle(batch):
    # the same colour lists, ids and order included, not only the same partition
    monoids = batch()
    assert refine_colors(monoids) == brute_refine_colors([m.table for m in monoids])


def test_refine_colors_keys_batch_singletons_like_the_oracle():
    monoids = _carriers(census_monoids(3))
    colors = refine_colors(monoids)
    # classes with one element across the batch reach the last round
    assert 1 in Counter(chain.from_iterable(colors)).values()
    assert colors == brute_refine_colors([m.table for m in monoids])


def test_element_invariants_match_oracle():
    # the oracle also lists cancellativity and unit status; both equal
    # row image == n, so the 4-component vector drops them
    bases = [e.monoid for e in census_monoids(5) + list(groups_catalog(8))]
    for m in bases + _carriers(groups_catalog(6)):
        brute = brute_element_invariants(m.table)
        assert element_invariants(m) == [(o, idem, row, col) for o, idem, _, _, row, col in brute]
        assert all(canc == unit == (row == m.n) for _, _, canc, unit, row, _ in brute)
