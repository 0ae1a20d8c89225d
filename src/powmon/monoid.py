"""Finite monoids as validated Cayley tables.

Elements are dense indices 0..n-1.  The identity is detected from the
table, never declared, so input files cannot lie about it.  The table of
an instance never changes after construction.  Derived facts (element
power cycles, orders, units, and the subset power cycles and element
invariants that powmon.powerset and powmon.iso keep here) are cached
lazily; every cache entry is a pure function of the table, so filling one
twice stores the same value.
"""

import math
from array import array
from itertools import chain

from . import kernels
from .errors import NoIdentity, NotAssociative, SizeLimitExceeded

ORDER_LIMIT = 16   # largest order built from a spec or a table file
TABLE_FILE_LIMIT = 1 << 16   # bytes read from a table file: a 16x16 table and its comments


def eventual_cycle(one, step):
    """The eventually periodic sequence one, step(one), step(step(one)), ...

    Returns (terms, start): terms holds the distinct terms in order, and
    the next term equals terms[start].  step is called len(terms) times.
    """
    pos = {}
    terms = []
    x = one
    while x not in pos:
        pos[x] = len(terms)
        terms.append(x)
        x = step(x)
    return tuple(terms), pos[x]


def cycle_term(cycle, k):
    """Term k >= 0 of the sequence that eventual_cycle returned as cycle."""
    terms, start = cycle
    if k >= len(terms):
        k = start + (k - start) % (len(terms) - start)
    return terms[k]


def table_orders(n, flat, identity):
    """Every element's order in the flat table of a monoid with this identity.

    The powers of a are walked down column a (x -> x*a, cell x*n + a) and
    kept in a plain list until one repeats: orders are small, so a list
    search beats eventual_cycle's dict and tuple, and indexing the cells
    beats slicing the column out first.  Best of 5 on 2 vCPU, against the
    eventual_cycle walk of each sliced column: 0.74 ms (2.6-2.8) for the
    228 16-element carriers of the order-5 census, 0.04 ms (0.11-0.13) for
    the 128-element carrier of Q8, 0.22 ms (1.1-1.3) for the 512-element
    carrier of Z10.
    """
    orders = []
    for a in range(n):
        powers = [identity]
        x = a
        while x not in powers:
            powers.append(x)
            x = flat[x * n + a]
        orders.append(len(powers))
    return tuple(orders)


def check_order(n):
    """Raise SizeLimitExceeded when n > ORDER_LIMIT; call before building from input."""
    if n > ORDER_LIMIT:
        raise SizeLimitExceeded(f"order {n} exceeds the input limit {ORDER_LIMIT}")


class FiniteMonoid:
    """A finite monoid given by its full multiplication table.

    table is either rows, n sequences of n ints, or the flat row-major
    buffer that flat holds: n*n cells, cell a*n + b holding a*b, as bytes
    up to 256 elements and as array('H') above (kernels.pack_table).
    flat is the only table the monoid stores: row a is the slice
    flat[a*n:a*n+n] and column a is flat[a::n].  The table property
    slices the rows afresh on each access, for format_table and for
    callers that want rows.  Construction validates all three structural
    invariants: entries in range, associativity (kernels.assoc_witness,
    with the first failing triple as witness; the pure kernel checks only
    the rows that are no product of two earlier rows, which gives the same
    answer), and a unique two-sided identity.  The one exception is a
    reduced carrier, which powerset.PowerMonoid builds through the private
    _certified: kernels.is_power_table has proved its table the setwise
    product of a validated base, so all three invariants hold, with the
    identity {e} at 0, and none is checked again.  Powers are computed once
    per element: the first call for a builds its power cycle, and
    power(a, k) for any k is then an index computation.  subset_cycles
    maps a subset bitmask to its power cycle under setwise product (filled
    by powerset.subset_power), and invariants is the tuple of
    iso.element_invariants (filled by iso.invariants_of).  light_rows()
    lists, once, the rows that Light's test keeps, which every witness
    check from this monoid reads.
    """

    def __init__(self, table, name=None):
        if isinstance(table, (bytes, array)):
            cells = table
            n = math.isqrt(len(cells))
            if n * n != len(cells):
                raise ValueError(f"table is not square: got {len(cells)} entries")
        else:
            rows = [tuple(row) for row in table]
            n = len(rows)
            for row in rows:
                if len(row) != n:
                    raise ValueError(f"table is not square: got a row of length {len(row)}, expected {n}")
            cells = list(chain.from_iterable(rows))
        if n == 0:
            raise NoIdentity("empty table has no identity")
        if isinstance(cells, bytes) and n <= 256:
            bad = cells.translate(None, bytes(range(n)))    # the entries >= n, in order
        else:
            bad = [v for v in cells if not 0 <= v < n]
        if bad:
            raise ValueError(f"table entry {bad[0]} out of range [0, {n})")
        flat = kernels.pack_table(cells, n)
        ident = kernels.pack_table(range(n), n)
        identities = [e for e in range(n)
                      if flat[e * n:e * n + n] == ident and flat[e::n] == ident]
        if len(identities) != 1:
            # >1 is impossible for a genuine magma identity; treat as a
            # validation failure either way
            raise NoIdentity(f"found {len(identities)} two-sided identities, need exactly 1")
        w = kernels.assoc_witness(flat, n)
        if w >= 0:
            c = w % n
            ab = w // n
            raise NotAssociative(ab // n, ab % n, c)
        self._keep(n, flat, identities[0], name)

    @classmethod
    def _certified(cls, flat, n, name):
        """The monoid of a packed n-element table already proved to be a
        monoid's with its identity at 0, validated no further: only
        powerset.PowerMonoid calls it, on a table kernels.is_power_table
        has certified."""
        m = cls.__new__(cls)
        m._keep(n, flat, 0, name)
        return m

    def _keep(self, n, flat, identity, name):
        self.n = n
        self.flat = flat
        self.identity = identity
        self.name = name or f"monoid[{n}]"
        self._orders = None
        self._units = None
        self._light_rows = None
        self._cycles = {}
        self.subset_cycles = {}
        self.invariants = None

    @property
    def table(self):
        """The rows of flat, sliced on each access."""
        n, flat = self.n, self.flat
        return tuple(flat[a * n:a * n + n] for a in range(n))

    def mul(self, a, b):
        return self.flat[a * self.n + b]

    def power_cycle(self, a):
        """(powers, start): the distinct powers a^0 .. a^(ord-1) in order,
        and the exponent start < ord with a^ord = a^start."""
        cycle = self._cycles.get(a)
        if cycle is None:
            column = self.flat[a::self.n]    # x -> x*a
            cycle = self._cycles[a] = eventual_cycle(self.identity, column.__getitem__)
        return cycle

    def power(self, a, k):
        """a^k for k >= 0, with a^0 the identity."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        return cycle_term(self.power_cycle(a), k)

    def element_order(self, a):
        """Size of the cyclic submonoid {a^0, a^1, ...} generated by a."""
        return self.orders()[a]

    def orders(self):
        """Every element's order; the power cycles walked are not kept."""
        if self._orders is None:
            self._orders = table_orders(self.n, self.flat, self.identity)
        return self._orders

    def light_rows(self):
        """The rows that Light's test checks (kernels.light_rows), those that
        iso._check_isomorphism compares for every witness from this monoid;
        computed once."""
        if self._light_rows is None:
            n, flat = self.n, self.flat
            self._light_rows = kernels.light_rows([flat[a * n:a * n + n] for a in range(n)])
        return self._light_rows

    def is_cancellative(self):
        """Whether m is a group: a cancellative a makes x -> ax injective on a
        finite set, so onto, so ab = e for some b, and then ba = e (units).
        powmon itself reads is_group(); perfbench's census entries call this."""
        return self.is_group()

    def units(self):
        """Elements with a two-sided inverse: in a finite monoid, uv = e
        forces vu = e, so those whose row holds the identity."""
        if self._units is None:
            e, n, flat = self.identity, self.n, self.flat
            self._units = tuple(u for u in range(n) if e in flat[u * n:u * n + n])
        return self._units

    def is_group(self):
        return len(self.units()) == self.n

    def is_commutative(self):
        n, flat = self.n, self.flat
        return all(flat[a * n:a * n + n] == flat[a::n] for a in range(n))

    def __eq__(self, other):
        return isinstance(other, FiniteMonoid) and self.flat == other.flat

    def __hash__(self):
        # bytes() of an array('H') is its raw memory: hashable, equal for equal tables
        return hash(bytes(self.flat))

    def __repr__(self):
        return f"FiniteMonoid({self.name}, n={self.n})"


def cyclic_monoid(index, period, name=None):
    """Monogenic monoid with elements z^0 .. z^(index+period-1), z^(i+p) = z^i.

    index 0 gives the cyclic group of order `period`.
    """
    if index < 0:
        raise ValueError(f"cyclic monoid index must be at least 0, got {index}")
    if period < 1:
        raise ValueError(f"cyclic monoid period must be at least 1, got {period}")
    n = index + period
    def reduce(c):
        while c >= n:
            c -= period
        return c
    table = [[reduce(a + b) for b in range(n)] for a in range(n)]
    return FiniteMonoid(table, name=name or f"cyclic_monoid({index},{period})")


def cyclic_group(n):
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    return cyclic_monoid(0, n, name=f"cyclic {n}")


def direct_product(m1, m2, name=None):
    """Componentwise product monoid; element (a, b) has index a*|m2| + b."""
    n1, n2, f1, f2 = m1.n, m2.n, m1.flat, m2.flat
    table = [
        [c1 * n2 + c2 for c1 in f1[a1 * n1:a1 * n1 + n1] for c2 in f2[a2 * n2:a2 * n2 + n2]]
        for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteMonoid(table, name=name or f"({m1.name} x {m2.name})")


def dihedral_group(n):
    """Dihedral group of order 2n, realized as the maps x -> +-x + r on Z_n.

    Index f*n + r encodes the map x -> (-1)^f x + r; rotations come first.
    """
    if n < 1:
        raise ValueError(f"dihedral group degree must be at least 1, got {n}")
    def mul(a, b):
        f1, r1 = divmod(a, n)
        f2, r2 = divmod(b, n)
        return (f1 ^ f2) * n + (r1 + (r2 if f1 == 0 else -r2)) % n
    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteMonoid(table, name=f"dihedral {n}")


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2), name="klein")


def quaternion_group():
    """Quaternion group of order 8, elements [1, -1, i, -i, j, -j, k, -k]."""
    ax = {}
    for a in range(4):
        ax[0, a] = (a, 1)
        ax[a, 0] = (a, 1)
    for a in (1, 2, 3):
        ax[a, a] = (0, -1)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        ax[a, b] = (c, 1)
        ax[b, a] = (c, -1)
    def mul(x, y):
        xa, xs = divmod(x, 2)
        ya, ys = divmod(y, 2)
        axis, s = ax[xa, ya]
        neg = (xs + ys + (s < 0)) % 2
        return axis * 2 + neg
    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteMonoid(table, name="quaternion8")


def idempotent_monoid2():
    """The order-2 monoid with a non-identity idempotent: e*e = e."""
    return FiniteMonoid([[0, 1], [1, 1]], name="idem2")


def parse_monoid_spec(spec):
    """Build a monoid from a compact spec: z6, d4, klein, q8, idem2, cmon2.2
    (cyclic monoid, index 2 period 2), or a product such as z2xz3.

    Products nest to the right: z2xz2xz2 is (cyclic 2 x (cyclic 2 x cyclic 2)).
    Orders above ORDER_LIMIT raise SizeLimitExceeded before any table is
    built; any other bad spec raises ValueError.
    """
    s = spec.strip().lower()
    if "x" in s and not s.startswith("x"):
        parts = s.split("x")
        if all(parts):
            factors = [parse_monoid_spec(p) for p in parts]
            check_order(math.prod(f.n for f in factors))
            acc = factors[-1]
            for f in reversed(factors[:-1]):
                acc = direct_product(f, acc)
            return acc
    if s == "klein":
        return klein_group()
    if s in ("q8", "quaternion8"):
        return quaternion_group()
    if s == "idem2":
        return idempotent_monoid2()
    if s.startswith("cmon"):
        i, sep, p = s[4:].replace(",", ".").partition(".")
        if sep and i.isdigit() and p.isdigit():
            check_order(int(i) + int(p))
            return cyclic_monoid(int(i), int(p))
    if s.startswith("z") and s[1:].isdigit():
        check_order(int(s[1:]))
        return cyclic_group(int(s[1:]))
    if s.startswith("d") and s[1:].isdigit():
        check_order(2 * int(s[1:]))
        return dihedral_group(int(s[1:]))
    raise ValueError(f"unrecognized monoid spec {spec!r} "
                     "(try z6, d4, klein, q8, idem2, cmon2.2, z2xz3)")


def parse_table_text(text, name=None):
    """Parse the Cayley-table text format and validate the monoid.

    Line 1 is n; the next n lines hold n space-separated 0-based indices,
    row a giving a*b for b = 0..n-1.  '#' starts a comment.  Anything but
    comments and blank lines after row n is an error.
    """
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: expected the order n, got {line!r}")
            if n < 1:
                raise ValueError(f"line {lineno}: order must be positive, got {n}")
            check_order(n)
            continue
        if len(rows) == n:
            raise ValueError(f"line {lineno}: unexpected content after the {n} table rows: {line!r}")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: row must be space-separated integers, got {line!r}")
        if len(row) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, got {len(row)}")
        for v in row:
            if not (0 <= v < n):
                raise ValueError(f"line {lineno}: entry {v} out of range [0, {n})")
        rows.append(row)
    if n is None:
        raise ValueError("empty table file")
    if len(rows) != n:
        raise ValueError(f"expected {n} table rows, got {len(rows)}")
    return FiniteMonoid(rows, name=name)


def parse_table_file(path):
    with open(path, "rb") as fh:
        data = fh.read(TABLE_FILE_LIMIT + 1)
    if len(data) > TABLE_FILE_LIMIT:
        raise SizeLimitExceeded(f"table file {path} exceeds the input limit of {TABLE_FILE_LIMIT} bytes")
    return parse_table_text(data.decode(), name=str(path))


def format_table(m):
    """Inverse of parse_table_text (without comments)."""
    lines = [str(m.n)]
    lines.extend(" ".join(str(v) for v in row) for row in m.table)
    return "\n".join(lines) + "\n"
