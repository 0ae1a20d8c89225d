"""Monoid construction, validation, and structure queries."""

from array import array

import pytest

from powmon.census import census_monoids, groups_catalog
from powmon.errors import NoIdentity, NotAssociative
from powmon.monoid import (FiniteMonoid, cyclic_group, cyclic_monoid, direct_product,
                           format_table, parse_monoid_spec, parse_table_text, quaternion_group,
                           table_orders)
from powmon.powerset import reduced_power_monoid

from oracles import (brute_assoc_failure, brute_cancellative_elements, brute_element_order,
                     brute_power, brute_reduced_exponent, brute_units)


def test_trivial_monoid():
    m = FiniteMonoid([[0]])
    assert m.n == 1 and m.identity == 0


def test_z2_table():
    m = FiniteMonoid([[0, 1], [1, 0]])
    assert m.identity == 0 and m.is_group()


def test_idempotent_order2():
    m = FiniteMonoid([[0, 1], [1, 1]])
    assert m.identity == 0
    assert m.mul(1, 1) == 1
    assert not m.is_group()


def test_not_associative_rejected():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    assert brute_assoc_failure(table) is not None
    with pytest.raises(NotAssociative) as exc:
        FiniteMonoid(table)
    a, b, c = exc.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_no_identity_rejected():
    # constant table: no identity row/column
    with pytest.raises(NoIdentity):
        FiniteMonoid([[0, 0], [0, 0]])


@pytest.mark.parametrize("table", [[[0, 1], [0, 1]], [[0, 0], [1, 1]]],
                         ids=["left-identities", "right-identities"])
def test_one_sided_identities_rejected(table):
    # every row of the first table is the identity row but no column is the
    # identity column; the second is its transpose
    with pytest.raises(NoIdentity, match="found 0 two-sided identities"):
        FiniteMonoid(table)


def test_entries_out_of_range():
    with pytest.raises(ValueError):
        FiniteMonoid([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMonoid([[0, 1], [1]])
    # the first offending entry in row order is reported, whichever bound it breaks
    for rows, bad in (([[0, 1, 2], [1, 3, -1], [2, 0, 1]], 3),
                      ([[0, 1, 2], [1, -1, 3], [2, 0, 1]], -1),
                      ([[0, 1, 2], [1, 2, 0], [2, 0, 5]], 5),
                      ([[0, 1, 2], [1, 2, 0], [-2, 7, 1]], -2)):
        with pytest.raises(ValueError) as exc:
            FiniteMonoid(rows)
        assert str(exc.value) == f"table entry {bad} out of range [0, 3)"


@pytest.mark.parametrize("rows", [
    [[0, 2], [1, 0]],                                   # entry out of range
    [[0, 1, 2], [1, 2, 5], [3, 0, 1]],                  # the first of two, in row order
    [[0, 0], [0, 0]],                                   # no identity
    [[0, 1], [0, 1]],                                   # left identities only
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],                  # not associative
], ids=["range", "first-bad", "no-identity", "one-sided", "not-associative"])
def test_flat_table_checked_as_rows(rows):
    # a flat bytes or array('H') table is refused with the rows' exception and message
    with pytest.raises((ValueError, NoIdentity, NotAssociative)) as want:
        FiniteMonoid(rows)
    cells = [v for row in rows for v in row]
    for flat in (bytes(cells), array("H", cells)):
        with pytest.raises(type(want.value)) as got:
            FiniteMonoid(flat)
        assert str(got.value) == str(want.value)
        if isinstance(want.value, NotAssociative):
            assert got.value.witness == want.value.witness


def test_flat_table_length_and_type():
    with pytest.raises(ValueError, match="table is not square: got 3 entries"):
        FiniteMonoid(bytes([0, 1, 1]))
    with pytest.raises(NoIdentity, match="empty table"):
        FiniteMonoid(b"")
    # every constructor keeps one packed table: bytes here, equal and hashed by it
    rows = FiniteMonoid([[0, 1], [1, 1]])
    for m in (FiniteMonoid(bytes([0, 1, 1, 1])), FiniteMonoid(array("H", [0, 1, 1, 1]))):
        assert type(m.flat) is bytes and m.table == (b"\x00\x01", b"\x01\x01")
        assert m == rows and hash(m) == hash(rows)
    assert rows != FiniteMonoid([[0, 1], [1, 0]])


def test_cyclic_monoid_index2_period2():
    m = cyclic_monoid(2, 2)
    assert m.n == 4
    assert m.element_order(1) == 4
    # z^4 = z^2
    assert m.power(1, 4) == m.power(1, 2)
    assert m.power(1, 4) != m.power(1, 3)


def test_cyclic_monoid_degenerate_cases():
    assert cyclic_monoid(0, 1).n == 1
    z6 = cyclic_monoid(0, 6)
    assert z6.is_group() and z6.element_order(1) == 6


def test_cyclic_monoid_rejects_bad_args():
    with pytest.raises(ValueError):
        cyclic_monoid(-1, 2)
    with pytest.raises(ValueError):
        cyclic_monoid(1, 0)


def test_cyclic_monoid_size_and_generator_order():
    for i in range(0, 4):
        for p in range(1, 5):
            m = cyclic_monoid(i, p)
            assert m.n == i + p
            gen = 1 if m.n > 1 else 0
            assert m.element_order(gen) == i + p or m.n == 1


def test_element_order_examples(zoo):
    assert zoo["z6"].element_order(zoo["z6"].identity) == 1
    assert zoo["cm22"].element_order(1) == 4
    assert zoo["z6"].element_order(2) == 3
    for name in ("z6", "cm22", "d3", "idem2"):
        m = zoo[name]
        for a in range(m.n):
            assert m.element_order(a) == brute_element_order(m.table, m.identity, a)


def test_power_matches_plain_loop():
    # fresh cyclic monoids, and census monoids whose caches other tests may have filled
    monoids = [e.monoid for e in census_monoids(4)] + [cyclic_monoid(2, 2), cyclic_monoid(1, 2)]
    for m in monoids:
        for a in range(m.n):
            # a huge exponent first, so that it builds the cycle on fresh monoids
            seq = [brute_power(m.table, m.identity, a, k) for k in range(2 * m.n + 1)]
            assert m.power(a, 10 ** 12) == seq[brute_reduced_exponent(seq, 10 ** 12)], (m, a)
            assert ([m.power(a, k) for k in range(3 * m.n + 1)]
                    == [brute_power(m.table, m.identity, a, k) for k in range(3 * m.n + 1)])
            assert m.element_order(a) == brute_element_order(m.table, m.identity, a)
    with pytest.raises(ValueError):
        monoids[-1].power(1, -1)


def _relabelled(m, perm):
    """m with each element a renamed perm[a]."""
    table = [[0] * m.n for _ in range(m.n)]
    for a in range(m.n):
        for b in range(m.n):
            table[perm[a]][perm[b]] = perm[m.table[a][b]]
    return FiniteMonoid(table)


@pytest.mark.parametrize("monoids", [
    lambda: [reduced_power_monoid(e.monoid).carrier for e in census_monoids(4)],
    lambda: [reduced_power_monoid(quaternion_group()).carrier],
    # the identity at the top and in the middle
    lambda: [_relabelled(cyclic_monoid(2, 3), [4, 3, 2, 1, 0]),
             _relabelled(quaternion_group(), [3, 1, 2, 0, 4, 5, 6, 7])],
    lambda: [reduced_power_monoid(cyclic_group(10)).carrier],
], ids=["census4-carriers", "q8-carrier-128", "relabelled-identity", "z10-carrier-512"])
def test_table_orders_match_oracle(monoids):
    for m in monoids():
        if m.n > 256:
            assert m.flat.typecode == "H"
        assert table_orders(m.n, m.flat, m.identity) == tuple(
            brute_element_order(m.table, m.identity, a) for a in range(m.n))


def test_order_one_iff_identity(zoo):
    for m in zoo.values():
        for a in range(m.n):
            assert (m.element_order(a) == 1) == (a == m.identity)


def test_group_order_is_least_power_hitting_identity(zoo):
    for name in ("z6", "klein", "d4", "q8"):
        m = zoo[name]
        for a in range(m.n):
            k = m.element_order(a)
            assert m.power(a, k) == m.identity
            assert all(m.power(a, j) != m.identity for j in range(1, k))


def test_cancellativity(zoo):
    assert zoo["z6"].is_cancellative()
    assert zoo["d4"].is_cancellative()
    assert not zoo["idem2"].is_cancellative()
    assert 1 not in zoo["idem2"].units()
    # z*z = z*z^3 but z != z^3
    cm = zoo["cm22"]
    assert 1 not in cm.units()
    assert cm.mul(1, 1) == cm.mul(1, 3) and 1 != 3


def test_units_and_inverse(zoo):
    z6 = zoo["z6"]
    assert z6.units() == tuple(range(6))
    assert zoo["idem2"].units() == (0,)
    assert zoo["cm12"].units() == (0,)


def test_units_and_cancellative_elements_match_oracles():
    # units() is also the set of cancellative elements, carriers included
    bases = [e.monoid for e in census_monoids(4) + list(groups_catalog(8))]
    small = [e.monoid for e in census_monoids(4) + list(groups_catalog(6))]
    for m in bases + [reduced_power_monoid(b).carrier for b in small]:
        assert m.units() == brute_units(m.table) == brute_cancellative_elements(m.table)
        assert m.is_cancellative() == m.is_group() == (len(m.units()) == m.n)


def test_cancellative_elements_are_units(zoo):
    # in a finite monoid cancellative and unit coincide
    for m in zoo.values():
        assert brute_cancellative_elements(m.table) == m.units()


def test_is_group_is_commutative(zoo):
    assert zoo["z2"].is_group() and zoo["z2"].is_commutative()
    assert zoo["d4"].is_group() and not zoo["d4"].is_commutative()
    assert not zoo["cm22"].is_group() and zoo["cm22"].is_commutative()


def test_standard_group_names(zoo):
    # the standard groups are built by name through the spec grammar
    assert parse_monoid_spec("z1").n == 1
    g = parse_monoid_spec("z2xz3")
    assert g.n == 6 and g.is_group()
    q8 = parse_monoid_spec("quaternion8")
    assert sorted(q8.orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not q8.is_commutative()
    assert parse_monoid_spec("klein").n == 4
    nested = parse_monoid_spec("z2xz2xz2")
    assert nested.n == 8 and sorted(nested.orders()) == [1] + [2] * 7


def test_standard_group_unknown():
    with pytest.raises(ValueError, match="cyclic group order must be at least 1, got 0"):
        parse_monoid_spec("z0")
    with pytest.raises(ValueError, match="dihedral group degree must be at least 1, got 0"):
        parse_monoid_spec("d0")
    # unknown names, malformed products and the retired long-form names
    for bad in ("frobnitz", "dx", "z2x", "cyclic 2",
                "direct_product(cyclic 2, cyclic 3)"):
        with pytest.raises(ValueError, match="unrecognized monoid spec"):
            parse_monoid_spec(bad)


def test_cyclic_monoid_bounds_name_the_family():
    # the CLI cannot pass a negative index (cmon-1.2 is no spec), the API can
    with pytest.raises(ValueError, match="cyclic monoid index must be at least 0, got -1"):
        cyclic_monoid(-1, 2)
    for index in (0, 1):
        with pytest.raises(ValueError, match="cyclic monoid period must be at least 1, got 0"):
            cyclic_monoid(index, 0)
    with pytest.raises(ValueError, match="cyclic monoid period must be at least 1, got 0"):
        parse_monoid_spec("cmon1.0")


def test_constructor_invariants_revalidate(zoo):
    # FiniteMonoid re-accepts every table produced by the constructors
    for m in zoo.values():
        again = FiniteMonoid(m.table)
        assert again.identity == m.identity
        assert brute_assoc_failure(m.table) is None


def test_order_profiles(zoo):
    assert sorted(zoo["z4"].orders()) == [1, 2, 4, 4]
    assert sorted(zoo["klein"].orders()) == [1, 2, 2, 2]


def test_table_text_roundtrip(zoo):
    for m in (zoo["z6"], zoo["cm22"], zoo["q8"]):
        again = parse_table_text(format_table(m))
        assert again.table == m.table


def test_table_text_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_table_text("zap\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_table_text("2\n0 1\n1 zap\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_table_text("2\n0 1\n1 0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_table_text("2\n0 1\n1 7\n")
    with pytest.raises(ValueError):
        parse_table_text("# only a comment\n")
    # after row n only comments and blank lines may follow
    for text in ("2\n0 1\n1 0\n0 1 2\n", "2\n0 1\n1 0\n# done\n\n1 0\n", "2\n0 1\n1 0\nzap\n"):
        with pytest.raises(ValueError, match=f"line {len(text.splitlines())}: unexpected content"):
            parse_table_text(text)
    # comments and blank lines are fine, after the rows too
    m = parse_table_text("# Z2\n\n2\n0 1  # row of 0\n1 0\n\n# end\n")
    assert m.n == 2


def test_direct_product_structure(zoo):
    g = direct_product(zoo["z2"], zoo["z3"])
    assert g.n == 6 and g.is_group() and g.is_commutative()
    assert sorted(g.orders()) == sorted(zoo["z6"].orders())
