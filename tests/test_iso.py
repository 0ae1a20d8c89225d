"""Isomorphism search against the permutation-scan oracle."""

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from powmon.census import census_monoids
from powmon.errors import SearchBudgetExceeded
from powmon.iso import (Coloring, IsoWitness, enumerate_isomorphisms, find_isomorphism,
                        refine_colors)
from powmon.powerset import reduced_power_monoid

from oracles import brute_isomorphisms


def test_self_isomorphism_is_found(zoo):
    for m in zoo.values():
        w = find_isomorphism(m, m)
        assert w is not None
        assert w.map[m.identity] == m.identity


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


def test_witness_inverse_roundtrip(zoo):
    w = find_isomorphism(zoo["z6"], zoo["z2xz3"])
    inv = w.inverse()
    assert [inv.map[w.map[a]] for a in range(6)] == list(range(6))


def _same_partition(a, b):
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def test_batch_coloring_restricts_to_pairwise_refinement():
    # the census <= 4 bases and their carriers, refined as one batch
    monoids = [e.monoid for e in census_monoids(4)]
    monoids += [reduced_power_monoid(m).carrier for m in monoids]
    batch = Coloring(monoids)
    for m1, m2 in combinations_with_replacement(monoids, 2):
        c1, c2 = refine_colors([m1, m2])
        assert _same_partition(batch.colors_of(m1) + batch.colors_of(m2), c1 + c2)
        assert (batch.profile(m1) == batch.profile(m2)) == (Counter(c1) == Counter(c2))


def test_batch_coloring_gives_the_pairwise_witnesses():
    entries = census_monoids(3)
    carriers = [reduced_power_monoid(e.monoid).carrier for e in entries]
    batch = Coloring(carriers)
    for m1, m2 in combinations_with_replacement(carriers, 2):
        assert ([w.map for w in enumerate_isomorphisms(m1, m2, coloring=batch)]
                == [w.map for w in enumerate_isomorphisms(m1, m2)])
