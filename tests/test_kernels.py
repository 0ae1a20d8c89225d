"""Backend parity: the compiled kernels must match the pure ones exactly,
including search visit order and node counts.  The `core` fixture builds
the compiled twin from the tracked _core.c, so these run wherever cc does.
The parity tests feed both backends each table type the kernels take
(_tables): a list, bytes and array('H').  The pure power_table returns a
packed table and the compiled one a list, so they compare as lists.
Enumeration is the exception: the pure kernel yields one table per
isomorphism class and the compiled one every labelling, so the compiled
output serves as a raw oracle for it."""

import hashlib
import os
import random
import re
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powmon import _pure, kernels
from powmon.census import canonical_key, census_monoids, enumerate_monoids, groups_catalog
from powmon.iso import refine_colors
from powmon.monoid import (FiniteMonoid, cyclic_group, cyclic_monoid, dihedral_group,
                           direct_product, quaternion_group)

from oracles import (brute_assoc_failure, brute_least_labelling, brute_setwise,
                     brute_valid_tables, growing_square_cells)

try:
    from powmon import _core      # only when the package itself ships a built _core
except ImportError:
    _core = None


def test_backend_reports_itself():
    assert kernels.backend in ("pure", "compiled")
    forced_pure = os.environ.get("POWMON_PURE", "") in ("1", "true", "yes")
    if _core is not None and not forced_pure:
        assert kernels.backend == "compiled"
    if forced_pure:
        assert kernels.backend == "pure"


def test_core_c_quotes_current_pyx():
    """_core.c cannot be regenerated offline, so it must still match _core.pyx:
    each source line Cython quoted and marked in it is that line of the .pyx."""
    pkg = Path(kernels.__file__).parent
    pyx = (pkg / "_core.pyx").read_text().splitlines()
    line, quoted = None, 0
    for text in (pkg / "_core.c").read_text().splitlines():
        cite = re.fullmatch(r'\s*/\* "powmon/_core\.pyx":(\d+)', text)
        if cite:
            line = int(cite.group(1))
        elif text.endswith("# <<<<<<<<<<<<<<"):
            quoted += 1
            assert text == f" * {pyx[line - 1]}             # <<<<<<<<<<<<<<", line
    assert quoted > 300


def _tables(flat):
    """flat as each table type the kernels take: a list, array('H') and,
    when every cell fits in a byte, bytes."""
    cells = list(flat)
    out = [cells, array("H", cells)]
    if max(cells) < 256:
        out.append(bytes(cells))
    return out


def test_pack_table_types():
    cells = [0, 1, 1, 0]
    for t in _tables(cells):
        packed = _pure.pack_table(t, 2)
        assert type(packed) is bytes and list(packed) == cells
    big = [v % 300 for v in range(300 * 300)]
    for t in _tables(big):
        packed = _pure.pack_table(t, 300)
        assert packed.typecode == "H" and packed.tolist() == big
    # a table already packed is kept, not copied
    for packed, n in ((bytes(cells), 2), (array("H", big), 300)):
        assert _pure.pack_table(packed, n) is packed


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 1 << 20), max_size=8))
def test_unions_match_brute_or(values):
    # entry A is the OR of values[i] over the bits i of A, the empty A's 0
    want = []
    for a in range(1 << len(values)):
        acc = 0
        for i, v in enumerate(values):
            if a >> i & 1:
                acc |= v
        want.append(acc)
    assert kernels.unions(values) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_assoc_witness_parity(core, data):
    n = data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    for t in _tables(flat):
        assert _pure.assoc_witness(t, n) == core.assoc_witness(t, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_setwise_parity(core, data, zoo):
    m = zoo[data.draw(st.sampled_from(("z6", "d4", "cm22")))]
    full = (1 << m.n) - 1
    x = data.draw(st.integers(1, full))
    y = data.draw(st.integers(1, full))
    for t in _tables(m.flat):
        assert _pure.setwise_product(t, m.n, x, y) == core.setwise_product(t, m.n, x, y)


def test_power_table_parity(core, zoo):
    for name in ("z4", "d3", "cm22"):
        m = zoo[name]
        masks = tuple(x for x in range(1, 1 << m.n) if x & 1)
        for t in _tables(m.flat):
            got = _pure.power_table(t, m.n, masks)
            assert type(got) is bytes
            assert list(got) == core.power_table(t, m.n, masks)


def _carrier_masks(m):
    ebit = 1 << m.identity
    return tuple(x for x in range(1, 1 << m.n) if x & ebit)


def _relabelled(m, identity_to):
    """m relabelled by the transposition that moves its identity to identity_to."""
    perm = list(range(m.n))
    perm[m.identity], perm[identity_to] = identity_to, m.identity
    table = [[0] * m.n for _ in range(m.n)]
    for a in range(m.n):
        for b in range(m.n):
            table[perm[a]][perm[b]] = perm[m.table[a][b]]
    return FiniteMonoid(table)


@pytest.mark.parametrize("name,kind", [("q8", "reduced"), ("d4", "reduced")])
def test_power_table_parity_kinds_and_bases(core, zoo, name, kind):
    # q8 and d4: non-abelian bases of order 8, carriers of 128 masks
    m = zoo[name]
    masks = _carrier_masks(m)
    for t in _tables(m.flat):
        assert list(_pure.power_table(t, m.n, masks)) == core.power_table(t, m.n, masks)


@pytest.mark.parametrize("base", [cyclic_group(10), cyclic_monoid(4, 5)],
                         ids=["z10", "cmon4.5"])
def test_power_table_parity_at_materialize_limit(core, base):
    # bases of order 10 and 9, the largest MATERIALIZE_LIMIT allows: each
    # base element's translates span 2^10 and 2^9 subsets (512 and 256 masks)
    masks = _carrier_masks(base)
    for t in _tables(base.flat):
        got = _pure.power_table(t, base.n, masks)
        assert type(got) is (bytes if len(masks) <= 256 else array)
        assert list(got) == core.power_table(t, base.n, masks)


# sha256 of the pure carrier tables of bases of order 9 and 10, cells as
# bytes (256 masks) or little-endian array('H') (512 masks)
BIG_CARRIERS = {
    "z9": (cyclic_group(9), "7eacfc21894b84a3f0bef459c0859b3a126d70a6ecffa59024442d0111d13e47"),
    "z3xz3": (direct_product(cyclic_group(3), cyclic_group(3)),
              "7a20a8db3aef63c1a4a2d16b054686160012a046773b3f6b4ed32ecd77a829ab"),
    "cmon4.5": (cyclic_monoid(4, 5), "24d8e131c00993cf8274b903db998afbb0b4dc5edf9c2c67fb13ad899f176cf9"),
    "z10": (cyclic_group(10), "7eac295f8baf2c53d9f5641f7456cdbf2571a4584888bd6a647287c8d1ea8b67"),
    "d5": (dihedral_group(5), "080007e1df1c2b63118c6510208fa0ead2c1cdf5362f3422bbb2ecbe29ec87f4"),
}


@pytest.mark.parametrize("name", BIG_CARRIERS)
def test_power_table_pinned_past_128_elements(name):
    # the builder alone, without validating the carrier
    base, digest = BIG_CARRIERS[name]
    masks = _carrier_masks(base)
    got = _pure.power_table(base.flat, base.n, masks)
    if len(masks) == 256:
        assert type(got) is bytes
    else:
        assert type(got) is array and got.typecode == "H"
        if sys.byteorder == "big":
            got = array("H", got)
            got.byteswap()
    assert hashlib.sha256(got).hexdigest() == digest


@pytest.mark.parametrize("kind", ["reduced"])
@pytest.mark.parametrize("name,identity_to", [("z5", 4), ("d3", 5), ("d3", 2), ("cm22", 3)])
def test_power_table_relabelled_identity(core, zoo, name, identity_to, kind):
    # the identity at the top or in the middle: the reduced family then
    # doubles {e} over elements on both sides of e
    m = _relabelled(zoo[name], identity_to)
    assert m.identity == identity_to
    masks = _carrier_masks(m)
    got = list(_pure.power_table(m.flat, m.n, masks))
    for t in _tables(m.flat):
        assert list(_pure.power_table(t, m.n, masks)) == got == core.power_table(t, m.n, masks)


@pytest.mark.parametrize("kind", ["reduced"])
@pytest.mark.parametrize("name,identity_to", [("z5", 0), ("cm22", 0), ("d3", 2), ("d3", 5),
                                              ("z5", 4), ("cm22", 3), ("q8", 3), ("q8", 7)])
def test_power_table_matches_setwise_oracle(zoo, name, identity_to, kind):
    # the identity at 0, in the middle and at the top; q8 gives 128 masks
    m = _relabelled(zoo[name], identity_to)
    assert m.identity == identity_to
    masks = _carrier_masks(m)
    sets = [frozenset(i for i in range(m.n) if x >> i & 1) for x in masks]
    index = {s: i for i, s in enumerate(sets)}
    want = [index[brute_setwise(m.table, xs, ys)] for xs in sets for ys in sets]
    for t in _tables(m.flat):
        assert list(_pure.power_table(t, m.n, masks)) == want


@pytest.mark.parametrize("masks", [
    (), (2,), (2, 3, 6), (2, 6, 3, 7), (1, 3, 5, 7), (2, 3, 6, 7, 9), (3, 7), (3, 3, 7, 7),
    tuple(range(1, 8)) + (8,), tuple(range(0, 8)), tuple(range(2, 9)), (2, 3, 5, 7),
    tuple(range(7, 0, -1)), tuple(range(1, 8)),
], ids=["empty", "too-few", "subset-missing", "unsorted", "around-a-non-identity",
        "extra-mask", "two-bit-start", "duplicated-masks", "full-plus-outside",
        "with-empty-set", "shifted", "one-mask-without-identity", "full-descending",
        "full-family"])
def test_power_table_rejects_other_mask_families(masks):
    # Z3 with its identity at 1: the reduced family is (2, 3, 6, 7);
    # anything else is refused, also the full family 1..7 and the subsets
    # around 0, which are not closed under the product
    z3 = _relabelled(cyclic_group(3), 1).flat
    _pure.power_table(z3, 3, (2, 3, 6, 7))
    with pytest.raises(ValueError, match="the reduced family, the subsets that hold the identity"):
        _pure.power_table(z3, 3, masks)


def test_power_table_refuses_a_family_around_a_non_identity():
    # (2, 3, 6, 7) are the subsets of Z3 that hold 1, not its identity 0
    z3 = cyclic_group(3).flat
    for build in (_pure.power_table, kernels.power_table):
        with pytest.raises(ValueError, match="the reduced family, the subsets that hold the identity"):
            build(z3, 3, (2, 3, 6, 7))


def test_compiled_power_table_refuses_a_family_around_a_non_identity(core, monkeypatch):
    # kernels' compiled binding checks the family before _core reads its
    # cells through it, with the pure builder's error
    monkeypatch.setattr(kernels, "_impl", core)
    z3 = cyclic_group(3).flat
    assert kernels._compiled_power_table(z3, 3, (1, 3, 5, 7)) == _pure.power_table(z3, 3, (1, 3, 5, 7))
    with pytest.raises(ValueError, match="the reduced family, the subsets that hold the identity"):
        kernels._compiled_power_table(z3, 3, (2, 3, 6, 7))


def _carrier_flat(base):
    masks = _carrier_masks(base)
    return _pure.power_table(base.flat, base.n, masks), len(masks)


def _perturbed(flat, n, row):
    out = list(flat)
    cell = row * n + n // 2
    out[cell] = (out[cell] + 1) % n
    return out


@pytest.mark.parametrize("base", [cyclic_group(6), cyclic_group(7), quaternion_group(),
                                  cyclic_group(9)], ids=["32", "64", "128", "256"])
def test_assoc_witness_parity_on_carriers(core, base):
    # 256 elements is the largest table of the bytes path
    flat, n = _carrier_flat(base)
    assert type(flat) is bytes
    for t in _tables(flat):
        assert _pure.assoc_witness(t, n) == core.assoc_witness(t, n) == -1
    for row in (0, n // 2, n - 1):
        bad = _perturbed(flat, n, row)
        got = _pure.assoc_witness(bad, n)
        assert got >= 0
        for t in _tables(bad):
            assert _pure.assoc_witness(t, n) == core.assoc_witness(t, n) == got


@pytest.mark.parametrize("numpy_blocked", [True], ids=["loop"])
def test_assoc_witness_parity_above_256(core, monkeypatch, numpy_blocked):
    monkeypatch.setitem(sys.modules, "numpy", None)     # import numpy fails
    flat, n = _carrier_flat(cyclic_group(10))
    assert n == 512 and flat.typecode == "H"
    bad = _perturbed(flat, n, 1)            # the first failing triple has a <= 1
    got = _pure.assoc_witness(bad, n)
    assert 0 <= got < 2 * n * n
    for t in _tables(bad):                  # a list and array('H')
        assert _pure.assoc_witness(t, n) == core.assoc_witness(t, n) == got


def _brute_witness(flat, n):
    """assoc_witness's encoding of the triple-loop oracle's first failure."""
    rows = [list(flat[a * n:(a + 1) * n]) for a in range(n)]
    triple = brute_assoc_failure(rows)
    return -1 if triple is None else (triple[0] * n + triple[1]) * n + triple[2]


def _skipped_rows(flat, n):
    """The rows assoc_witness skips: each a that is some y*z with z <= y < a."""
    seen = set()
    skipped = []
    for a in range(n):
        if a in seen:
            skipped.append(a)
        seen.update(flat[a * n:a * n + a + 1])
    return skipped


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_assoc_witness_matches_triple_loop(data):
    # a random table, or a census monoid of order <= 5 or a group of order
    # 6 or 7 with one cell changed: those keep most rows good, so that the
    # first failing row comes after skipped ones
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 7))
        flat = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    else:
        bases = [e.monoid for e in census_monoids(5)] + [cyclic_group(6), cyclic_group(7)]
        m = data.draw(st.sampled_from(bases))
        n = m.n
        flat = list(m.flat)
        cell = data.draw(st.integers(0, n * n - 1))
        flat[cell] = data.draw(st.integers(0, n - 1))
    want = _brute_witness(flat, n)
    for t in _tables(flat):
        assert _pure.assoc_witness(t, n) == want


@pytest.mark.parametrize("base", [quaternion_group(), cyclic_group(9)], ids=["128", "256"])
def test_assoc_witness_finds_a_fault_in_a_skipped_row(base):
    # the changed cell lies in a row that is still skipped, so the first
    # failing triple, which the triple loop finds, lies in a checked row
    flat, n = _carrier_flat(base)
    skipped = _skipped_rows(flat, n)
    assert 0 < len(skipped) < n
    for row in (skipped[0], skipped[len(skipped) // 2], skipped[-1]):
        bad = _perturbed(flat, n, row)
        assert row in _skipped_rows(bad, n)
        got = _pure.assoc_witness(bad, n)
        assert got >= 0 and got == _brute_witness(bad, n)
        for t in _tables(bad):
            assert _pure.assoc_witness(t, n) == got


@pytest.mark.parametrize("numpy_blocked", [True], ids=["loop"])
def test_assoc_witness_finds_a_fault_in_a_skipped_row_above_256(monkeypatch, numpy_blocked):
    monkeypatch.setitem(sys.modules, "numpy", None)     # import numpy fails
    flat, n = _carrier_flat(cyclic_group(10))
    assert n == 512
    skipped = _skipped_rows(flat, n)
    bad = _perturbed(flat, n, skipped[0])
    assert skipped[0] in _skipped_rows(bad, n)
    got = _pure.assoc_witness(bad, n)
    assert got >= 0 and got == _brute_witness(bad, n)
    for t in _tables(bad):                  # a list and array('H')
        assert _pure.assoc_witness(t, n) == got


def _certificate_bases():
    """Every base whose carrier the certificate must accept: census <= 5,
    catalog <= 8, the bases of order 9 and 10, and bases with their
    identity moved off 0."""
    bases = [e.monoid for e in census_monoids(5)] + [e.monoid for e in groups_catalog(8)]
    bases += [base for base, _ in BIG_CARRIERS.values()]
    zoo = {"z5": cyclic_group(5), "d3": dihedral_group(3), "cm22": cyclic_monoid(2, 2),
           "q8": quaternion_group()}
    bases += [_relabelled(zoo[name], to) for name, to in
              (("z5", 4), ("d3", 2), ("d3", 5), ("cm22", 3), ("q8", 3), ("q8", 7))]
    return bases


def _oracle_carrier(m):
    """The packed reduced carrier of m from the setwise oracle, cell by cell."""
    masks = _carrier_masks(m)
    sets = [frozenset(i for i in range(m.n) if x >> i & 1) for x in masks]
    index = {s: i for i, s in enumerate(sets)}
    table = [list(row) for row in m.table]
    return _pure.pack_table([index[brute_setwise(table, xs, ys)]
                             for xs in sets for ys in sets], len(masks))


def test_is_power_table_accepts_every_carrier():
    assert kernels.is_power_table is _pure.is_power_table     # one check on both backends
    bases = _certificate_bases()
    assert len(bases) == 273 + 15 + 5 + 6
    for m in bases:
        carrier = kernels.power_table(m.flat, m.n, _carrier_masks(m))
        assert _pure.is_power_table(m.flat, m.n, m.identity, carrier), m.name
        if m.n <= 5:
            assert carrier == _oracle_carrier(m), m.name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_is_power_table_rejects_every_single_cell_change(order):
    # exhaustive: every cell of every census carrier of this base order, set
    # to every other byte, also past the carrier
    tried = 0
    for e in enumerate_monoids(order):
        m = e.monoid
        carrier = kernels.power_table(m.flat, m.n, _carrier_masks(m))
        for cell, value in enumerate(carrier):
            for other in range(256):
                if other != value:
                    bad = bytearray(carrier)
                    bad[cell] = other
                    assert not _pure.is_power_table(m.flat, m.n, m.identity, bytes(bad)), (m.name, cell)
                    tried += 1
    assert tried == {1: 255, 2: 2 * 4 * 255, 3: 7 * 16 * 255}[order]


@pytest.mark.parametrize("base", [quaternion_group(), cyclic_group(9), cyclic_group(10)],
                         ids=["128", "256", "512"])
def test_is_power_table_rejects_sampled_cell_changes(base):
    # seeded: a cell in each of 128 rows and the corner cells, each set to
    # three other values; one-byte cells at 128 and 256 elements, two-byte
    # cells at 512, where one of the three changes only the high byte
    carrier = kernels.power_table(base.flat, base.n, _carrier_masks(base))
    assert _pure.is_power_table(base.flat, base.n, base.identity, carrier)
    m = 1 << base.n - 1
    rng = random.Random(35 + m)
    rows = sorted(rng.sample(range(m), 128))
    for cell in [r * m + rng.randrange(m) for r in rows] + [0, m - 1, m * m - 1]:
        value = carrier[cell]
        if m <= 256:
            bad = bytearray(carrier)
            others = rng.sample([v for v in range(256) if v != value], 3)
        else:
            bad = array("H", carrier)
            others = [value ^ 0x100, value ^ 1 << rng.randrange(8),
                      (value + rng.randrange(1, 1 << 16)) % (1 << 16)]
        for other in others:
            bad[cell] = other
            table = bytes(bad) if m <= 256 else bad
            assert not _pure.is_power_table(base.flat, base.n, base.identity, table), (cell, other)


def test_is_power_table_rejects_other_table_types():
    # the carrier must be packed as power_table packs it, at its length
    for base in (quaternion_group(), cyclic_group(10)):
        n, e = base.n, base.identity
        carrier = kernels.power_table(base.flat, n, _carrier_masks(base))
        assert _pure.is_power_table(base.flat, n, e, carrier)
        others = [list(carrier), carrier[:-1], carrier + carrier[-1:]]
        if type(carrier) is bytes:
            others.append(array("H", carrier))
        else:
            others += [bytes(carrier), array("I", carrier), array("h", carrier)]
        for other in others:
            assert not _pure.is_power_table(base.flat, n, e, other), type(other)


def _class_keys(tables, n):
    return [canonical_key(FiniteMonoid([list(t[i * n:(i + 1) * n]) for i in range(n)]))
            for t in tables]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_tables_one_per_class(core, n):
    # the compiled twin still lists every labelling: a raw oracle
    raw_keys = set(_class_keys(core.enumerate_tables(n), n))
    tables = _pure.enumerate_tables(n)
    assert set(_class_keys(tables, n)) == raw_keys
    assert len(tables) == len(raw_keys)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_tables_one_per_class_brute(n):
    raw_keys = {canonical_key(FiniteMonoid(t)) for t in brute_valid_tables(n)}
    tables = _pure.enumerate_tables(n)
    assert set(_class_keys(tables, n)) == raw_keys
    assert len(tables) == len(raw_keys)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerate_tables_yields_least_labellings(n):
    cells = growing_square_cells(n)
    for flat in _pure.enumerate_tables(n):
        table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        assert brute_least_labelling(table) == tuple(table[a][b] for a, b in cells)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_tables_increase_in_cell_order(n):
    cells = growing_square_cells(n)
    seqs = [tuple(flat[a * n + b] for a, b in cells) for flat in _pure.enumerate_tables(n)]
    assert all(p < q for p, q in zip(seqs, seqs[1:]))


def _partial_table(n, known):
    """An order-n partial table (-1 unknown) with the identity row and
    column and the known {(x, y): v} cells, with where and trail as
    _pure._assign keeps them."""
    t = [-1] * (n * n)
    for i in range(n):
        t[i] = i
        t[i * n] = i
    where = [[] for _ in range(n)]
    trail = []
    for (x, y), v in known.items():
        t[x * n + y] = v
        where[v].append((x, y))
        trail.append(x * n + y)
    return t, where, trail


# Per triple family of _pure._assign, on order 5: cells known beforehand,
# the cell (x, y) of the triple's other side with the value that violates
# the triple and the one that satisfies it, and the cell assigned with its
# value.  No other family of the assigned cell meets a known triple, so
# each family's conflict and forcing are seen alone.
PAIRS5 = [divmod(i, 5) for i in range(25)]
ASSIGN_FAMILIES = {
    "(pq)z=p(qz)": ({(2, 4): 1, (3, 4): 2}, (1, 1), 4, 2, (1, 2), 3),
    "(xp)q=x(pq)": ({(4, 1): 2, (2, 2): 1}, (4, 3), 4, 1, (1, 2), 3),
    "(xy)q=x(yq)": ({(1, 2): 3, (2, 4): 1}, (1, 1), 2, 4, (3, 4), 4),
    "p(xy)=(px)y": ({(2, 3): 4, (1, 2): 3}, (3, 3), 1, 2, (1, 4), 2),
}


@pytest.mark.parametrize("family", ASSIGN_FAMILIES)
def test_assign_fails_forces_or_passes_each_triple_family(family):
    known, (x, y), bad, good, (p, q), v = ASSIGN_FAMILIES[family]
    for other, ok in ((bad, False), (good, True), (None, True)):
        cells = dict(known) if other is None else {**known, (x, y): other}
        t, where, trail = _partial_table(5, cells)
        assert _pure._assign(t, 5, PAIRS5, where, trail, p * 5 + q, v) is ok, (family, other)
        assert t[x * 5 + y] == (bad if other == bad else good)      # forced when unknown


@pytest.mark.parametrize("family", ASSIGN_FAMILIES)
def test_undo_resets_what_assign_set(family):
    known, _, _, _, (p, q), v = ASSIGN_FAMILIES[family]
    t, where, trail = _partial_table(5, known)
    before = (list(t), [list(w) for w in where], list(trail))
    assert _pure._assign(t, 5, PAIRS5, where, trail, p * 5 + q, v)
    assert len(trail) > len(known) + 1          # a forced cell went on the trail
    _pure._undo(t, where, trail, len(known))
    assert (t, where, trail) == before


def test_enumeration_is_pure_on_every_backend():
    assert kernels.enumerate_tables is _pure.enumerate_tables


# sha256 of the tables of each order, each as bytes, joined in output order
ENUMERATION_DIGESTS = {
    5: "4594e031d8519763e6fd9d5c2108a39dfa8115c7cc7a1c25e2f1b641b5d5f8cf",
    6: "a8ed91ed2b183dabcf611b09b57630666384738636b0dbc58423e4ed41ea60c2",
}


def test_enumerate_tables_order6_count():
    tables = {n: kernels.enumerate_tables(n) for n in ENUMERATION_DIGESTS}
    assert len(tables[6]) == 2237     # OEIS A058133
    for t in tables[6]:
        assert t[:6] == t[::6] == (0, 1, 2, 3, 4, 5)     # identity row and column
        assert _pure.assoc_witness(bytes(t), 6) == -1
    for n, digest in ENUMERATION_DIGESTS.items():
        joined = b"".join(bytes(t) for t in tables[n])
        assert hashlib.sha256(joined).hexdigest() == digest, n


def test_iso_search_parity_including_node_counts(core):
    rng = random.Random(3)
    entries = enumerate_monoids(4)
    compared = 0
    # self-pairs always survive the color pre-check; mix in random pairs
    picks = [(e, e) for e in entries[::4]]
    picks += [(rng.choice(entries), rng.choice(entries)) for _ in range(60)]
    for e1, e2 in picks:
        m1, m2 = e1.monoid, e2.monoid
        c1, c2 = refine_colors([m1, m2])
        if Counter(c1) != Counter(c2):
            continue
        sizes = Counter(c1)
        vo = sorted(range(m1.n), key=lambda a: (sizes[c1[a]], a))
        for budget, cap in ((10 ** 6, 1), (10 ** 6, 1 << 60), (2, 1)):
            for t1, t2 in zip(_tables(m1.flat), _tables(m2.flat)):
                got_p = _pure.iso_search(t1, t2, m1.n, c1, c2, vo, budget, cap)
                got_c = core.iso_search(t1, t2, m1.n, c1, c2, vo, budget, cap)
                assert got_p == got_c
            compared += 1
    assert compared >= 30


def test_iso_search_parity_on_carriers(core, zoo):
    # pure close() stacks only unsettled forced pairs, so a drift in visit
    # order or node counts shows in full listings and budget-stopped runs
    from powmon.powerset import reduced_power_monoid

    census = {e.name: e.monoid for e in census_monoids(3)}
    pairs = [(zoo["z6"], zoo["z2xz3"]), (zoo["q8"], zoo["q8"]), (zoo["d3"], zoo["d3"]),
             (census["monoid3.0"], census["monoid3.2"]), (census["monoid3.1"], census["monoid3.5"])]
    for h, k in pairs:
        pm1, pm2 = reduced_power_monoid(h).carrier, reduced_power_monoid(k).carrier
        c1, c2 = refine_colors([pm1, pm2])
        assert Counter(c1) == Counter(c2)
        sizes = Counter(c1)
        vo = sorted(range(pm1.n), key=lambda a: (sizes[c1[a]], a))
        for budget, cap in ((10 ** 6, 1), (10 ** 6, 1 << 60), (2, 1 << 60)):
            for t1, t2 in zip(_tables(pm1.flat), _tables(pm2.flat)):
                got_p = _pure.iso_search(t1, t2, pm1.n, c1, c2, vo, budget, cap)
                got_c = core.iso_search(t1, t2, pm1.n, c1, c2, vo, budget, cap)
                assert got_p == got_c
                assert got_p[1] or budget == 2
