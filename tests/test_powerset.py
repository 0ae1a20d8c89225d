"""Setwise products, subset powers, and power-monoid construction."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powmon
from powmon import _pure
from powmon.census import census_monoids, groups_catalog
from powmon.errors import SizeLimitExceeded
from powmon.iso import find_isomorphism
from powmon.monoid import FiniteMonoid, cyclic_group, cyclic_monoid, idempotent_monoid2
from powmon.powerset import (MATERIALIZE_LIMIT, augment, elements_of, format_subset,
                             mask_of, parse_subset, reduced_power_monoid, setwise_product,
                             subset_power)

from oracles import brute_reduced_exponent, brute_setwise, brute_subset_power


def to_set(mask):
    return frozenset(elements_of(mask))


def test_mask_helpers():
    assert mask_of([0, 3], 6) == 0b1001
    assert elements_of(0b1001) == [0, 3]
    assert parse_subset("0,3", 6) == 0b1001
    assert format_subset(0b1001) == "0,3"
    with pytest.raises(ValueError):
        mask_of([6], 6)
    with pytest.raises(ValueError):
        parse_subset("", 6)
    with pytest.raises(ValueError):
        parse_subset("a,b", 6)


def test_identity_singleton_is_neutral(zoo):
    for m in (zoo["z6"], zoo["d3"], zoo["cm22"]):
        e = 1 << m.identity
        for y in range(1, 1 << m.n):
            assert setwise_product(m, e, y) == y
            assert setwise_product(m, y, e) == y


def test_setwise_product_examples(zoo):
    z6 = zoo["z6"]
    assert to_set(setwise_product(z6, mask_of([0, 3], 6), mask_of([0, 2], 6))) == {0, 2, 3, 5}
    cm = zoo["cm22"]
    lhs = setwise_product(cm, mask_of([0, 3], 4), mask_of([0, 1], 4))
    assert lhs == subset_power(cm, mask_of([0, 1], 4), 4)
    assert to_set(lhs) == {0, 1, 2, 3}


def test_setwise_matches_oracle_random(zoo):
    rng = random.Random(11)
    for name in ("z6", "d3", "cm22", "q8"):
        m = zoo[name]
        for _ in range(100):
            x = rng.randrange(1, 1 << m.n)
            y = rng.randrange(1, 1 << m.n)
            assert to_set(setwise_product(m, x, y)) == brute_setwise(m.table, to_set(x), to_set(y))


def test_empty_subsets_rejected(zoo):
    with pytest.raises(ValueError):
        setwise_product(zoo["z2"], 0, 1)
    with pytest.raises(ValueError):
        subset_power(zoo["z2"], 0, 2)


def test_subset_power_examples(zoo):
    z3 = zoo["z3"]
    assert subset_power(z3, 0b01, 0) == 1 << z3.identity
    assert to_set(subset_power(z3, 0b011, 2)) == {0, 1, 2}
    cm = zoo["cm22"]
    assert to_set(subset_power(cm, 0b0011, 3)) == {0, 1, 2, 3}
    for k in range(6):
        assert to_set(subset_power(cm, 0b0011, k)) == brute_subset_power(cm.table, 0, {0, 1}, k)


def test_subset_power_matches_oracle_for_every_mask():
    for m in [e.monoid for e in census_monoids(3)] + [cyclic_group(6)]:
        e = m.identity
        for x in range(1, 1 << m.n):        # with and without the identity
            xs = to_set(x)
            seq = [frozenset([e])]
            for _ in range(2 ** (m.n + 1)):
                seq.append(brute_setwise(m.table, seq[-1], xs))
            assert to_set(subset_power(m, x, 10 ** 12)) == seq[brute_reduced_exponent(seq, 10 ** 12)]
            for k in range(2 * m.n + 3):
                assert to_set(subset_power(m, x, k)) == brute_subset_power(m.table, e, xs, k)
    with pytest.raises(ValueError):
        subset_power(cyclic_group(2), 0b01, -1)


def test_subset_power_stops_once_stable(monkeypatch):
    # fresh monoids: the shared zoo's would bring powers cached by other tests
    from powmon import kernels

    calls = []
    product = kernels.setwise_product

    def counting(*args):
        calls.append(args)
        return product(*args)
    monkeypatch.setattr(kernels, "setwise_product", counting)
    z6 = cyclic_group(6)
    x = mask_of([0, 1], 6)                  # holds the identity: x^5 = Z6 = x^k for k >= 5
    assert subset_power(z6, x, 10 ** 12) == subset_power(z6, x, 5) == (1 << 6) - 1
    assert len(calls) <= z6.n
    # without the identity the powers may cycle and never repeat
    # consecutively: {1} has the cycle {0}, {1}, ..., {5}, one product per term
    calls.clear()
    assert subset_power(z6, mask_of([1], 6), 7) == mask_of([1], 6)
    assert len(calls) <= 6
    assert subset_power(z6, mask_of([1], 6), 10 ** 12) == mask_of([4], 6)
    assert len(calls) <= 6
    # a repeat stops the loop with or without the identity: {e}^k = {e} for an idempotent e
    idem2 = idempotent_monoid2()
    e = 1 - idem2.identity
    assert subset_power(idem2, mask_of([e], 2), 10 ** 12) == mask_of([e], 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_setwise_associativity(zoo, data):
    names = ("z6", "d3", "cm22", "q8", "idem2")
    m = zoo[data.draw(st.sampled_from(names))]
    full = (1 << m.n) - 1
    x = data.draw(st.integers(1, full))
    y = data.draw(st.integers(1, full))
    z = data.draw(st.integers(1, full))
    assert setwise_product(m, setwise_product(m, x, y), z) == \
        setwise_product(m, x, setwise_product(m, y, z))


def test_setwise_associativity_census_random_triples():
    rng = random.Random(23)
    for entry in census_monoids(5):
        m = entry.monoid
        full = (1 << m.n) - 1
        for _ in range(12):
            x, y, z = (rng.randrange(1, full + 1) for _ in range(3))
            assert setwise_product(m, setwise_product(m, x, y), z) == \
                setwise_product(m, x, setwise_product(m, y, z))


def test_monotone_powers_exhaustive():
    # 1 in S implies S <= S^2 <= S^3 <= ... for the whole census
    for entry in census_monoids(5):
        m = entry.monoid
        ebit = 1 << m.identity
        for s in range(1, 1 << m.n):
            if not s & ebit:
                continue
            prev = s
            for _ in range(m.n + 2):
                nxt = setwise_product(m, prev, s)
                assert prev & ~nxt == 0, "power chain not monotone"
                if nxt == prev:
                    break
                prev = nxt


def test_reduced_power_monoid_sizes(zoo):
    for name in ("triv", "z2", "z3", "z4", "d3"):
        m = zoo[name]
        pm = reduced_power_monoid(m)
        assert len(pm) == 1 << (m.n - 1)
        assert pm.carrier.n == len(pm)


def test_reduced_trivial_and_z2(zoo):
    assert reduced_power_monoid(zoo["triv"]).carrier.n == 1
    pm = reduced_power_monoid(zoo["z2"])
    assert pm.carrier.flat == bytes([0, 1, 1, 1])   # the order-2 idempotent monoid
    assert pm.carrier.table == (bytes([0, 1]), bytes([1, 1]))
    assert find_isomorphism(pm.carrier, zoo["idem2"]) is not None


def test_reduced_z3(zoo):
    pm = reduced_power_monoid(zoo["z3"])
    assert len(pm) == 4
    i, j = pm.index_of(0b011), pm.index_of(0b101)
    assert pm.masks[pm.carrier.table[i][j]] == 0b111


def test_carrier_agrees_with_setwise(zoo):
    # the pure builder on either backend, cell by cell: byte cells up to
    # order 8 (q8, 128 masks); two-byte cells above, cmon4.5 of order 9
    # (256 masks, still a bytes table) and Z10 (512 masks, an array('H')
    # table, on a few rows)
    bases = [(zoo[name], None) for name in ("z4", "d3", "cm22", "q8")]
    bases += [(cyclic_monoid(4, 5), None), (cyclic_group(10), (0, 1, 255, 511))]
    for m, rows in bases:
        pm = reduced_power_monoid(m)
        k = len(pm)
        flat = _pure.power_table(m.flat, m.n, pm.masks)
        assert type(flat) is (bytes if k <= 256 else array)
        assert flat == pm.carrier.flat
        for i in range(k) if rows is None else rows:
            for j in range(k):
                expected = setwise_product(m, pm.masks[i], pm.masks[j])
                assert pm.masks[flat[i * k + j]] == expected


def test_carrier_tables_are_pinned():
    # the carrier tables of every census entry up to order 5 and every
    # catalog entry up to order 8, joined in that order
    entries = census_monoids(5) + list(groups_catalog(8))
    flats = [reduced_power_monoid(e.monoid).carrier.flat for e in entries]
    assert {type(flat) for flat in flats} == {bytes} and sum(map(len, flats)) == 150222
    assert hashlib.sha256(b"".join(flats)).hexdigest() == \
        "90d7f4502d97893dfc1d038b921508fefc58e377564def4a8c068ba57fd9f829"


def test_carrier_identity_is_singleton(zoo):
    for name in ("z4", "d3", "q8"):
        pm = reduced_power_monoid(zoo[name])
        assert pm.masks[pm.carrier.identity] == 1 << zoo[name].identity


def test_masks_increasing(zoo):
    pm = reduced_power_monoid(zoo["z4"])
    assert list(pm.masks) == sorted(pm.masks)


@pytest.mark.parametrize("base", [e.monoid for e in census_monoids(3)]
                         + [FiniteMonoid([[2, 0, 1], [0, 1, 2], [1, 2, 0]])],
                         ids=lambda m: m.name)
def test_index_of_is_the_position_in_masks(base):
    # every census base of order <= 3, and Z3 with its identity at 1
    pm = reduced_power_monoid(base)
    n, e = base.n, base.identity
    assert [pm.index_of(mask) for mask in pm.masks] == list(range(len(pm)))
    assert pm.pairs == tuple(pm.masks.index((1 << e) | (1 << x)) for x in range(n))
    carrier = set(pm.masks)
    for mask in range(1 << (n + 1)):
        if mask not in carrier:
            with pytest.raises(ValueError, match="is not a carrier element"):
                pm.index_of(mask)


def test_size_limit():
    # every power monoid is materialized, so bases above the limit raise at construction
    assert MATERIALIZE_LIMIT == 10
    for n in (11, 17):
        with pytest.raises(SizeLimitExceeded):
            reduced_power_monoid(cyclic_group(n))


@pytest.mark.parametrize("base", [cyclic_group(6), cyclic_group(9), cyclic_group(10)],
                         ids=["z6", "z9", "z10"])
def test_carrier_keeps_one_flat_table(base):
    # one byte per cell up to 256 elements, two above; table is the rows of flat
    carrier = reduced_power_monoid(base).carrier
    n = carrier.n
    assert type(carrier.flat) is (bytes if n <= 256 else array) and len(carrier.flat) == n * n
    assert carrier.table == tuple(carrier.flat[a * n:a * n + n] for a in range(n))
    assert all(type(row) is type(carrier.flat) for row in carrier.table)
    if n <= 256:
        return
    # P(Z10) has 512 elements: array('H'), rebuilt, compared, hashed and
    # range-checked as a bytes table is
    assert n == 512 and carrier.flat.typecode == "H"
    again = FiniteMonoid(carrier.flat)
    assert again.flat is carrier.flat and again == carrier and hash(again) == hash(carrier)
    bad = array("H", carrier.flat)
    bad[3 * n + 7] = n
    with pytest.raises(ValueError) as exc:
        FiniteMonoid(bad)
    assert str(exc.value) == "table entry 512 out of range [0, 512)"


def test_bases_keep_bytes_tables():
    for m in [e.monoid for e in census_monoids(4) + list(groups_catalog(8))]:
        assert type(m.flat) is bytes and len(m.flat) == m.n * m.n


def test_kept_carrier_memory(zoo):
    # a kept P(Q8) holds its 128^2 cells once, as bytes: about 19 KiB with
    # its masks, where 8-byte pointers would take 128 KiB; row slices or a
    # mask -> index dict kept beside them would take about 45 KiB
    q8 = zoo["q8"]
    reduced_power_monoid(q8)        # imports and first-call caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pm = reduced_power_monoid(q8)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pm.carrier.n == 128
    assert "table" not in vars(pm.carrier) and not hasattr(pm, "index")
    assert kept < 32 * 1024, kept


def test_group_carriers_build_without_numpy():
    # the pure kernels check carriers of up to 256 elements without numpy,
    # which would add about 14 MB of resident memory to a catalog run
    code = ("import sys\n"
            "from powmon import kernels\n"
            "from powmon.census import groups_catalog\n"
            "from powmon.powerset import reduced_power_monoid\n"
            "assert kernels.backend == 'pure'\n"
            "sizes = [len(reduced_power_monoid(e.monoid)) for e in groups_catalog(8)]\n"
            "assert max(sizes) == 128, sizes\n"
            "assert 'numpy' not in sys.modules\n")
    src = str(Path(powmon.__file__).resolve().parents[1])
    env = dict(os.environ, POWMON_PURE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_large_base_defaults_to_ondemand():
    # an order-11 base gets no power monoid; its subset products are computed on demand
    z11 = cyclic_group(11)
    with pytest.raises(SizeLimitExceeded):
        reduced_power_monoid(z11)
    x = mask_of([0, 1], 11)
    assert frozenset(elements_of(setwise_product(z11, x, x))) == {0, 1, 2}
    assert frozenset(elements_of(subset_power(z11, x, 3))) == {0, 1, 2, 3}


def test_augmentation_functoriality_small(zoo):
    pairs = [("z2", "z2"), ("z3", "z3"), ("z4", "z4"), ("klein", "klein"),
             ("z6", "z2xz3")]
    for a, b in pairs:
        h = find_isomorphism(zoo[a], zoo[b])
        w = augment(h)  # IsoWitness construction re-validates
        assert w.map[0] == 0


def test_augmentation_of_nontrivial_base_map(zoo):
    z3 = zoo["z3"]
    h = find_isomorphism(z3, z3)
    pm = reduced_power_monoid(z3)
    w = augment(h, pm, pm)
    for i, mask in enumerate(pm.masks):
        img = frozenset(h.map[e] for e in elements_of(mask))
        assert frozenset(elements_of(pm.masks[w.map[i]])) == img
