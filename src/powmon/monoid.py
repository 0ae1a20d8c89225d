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


def check_order(n):
    """Raise SizeLimitExceeded when n > ORDER_LIMIT; call before building from input."""
    if n > ORDER_LIMIT:
        raise SizeLimitExceeded(f"order {n} exceeds the input limit {ORDER_LIMIT}")


class FiniteMonoid:
    """A finite monoid given by its full multiplication table.

    Construction validates all three structural invariants: entries in
    range, associativity (with a witness triple on failure), and a unique
    two-sided identity.  Powers are computed once per element: the first
    call for a builds its power cycle, and power(a, k) for any k is then
    an index computation.  subset_cycles maps a subset bitmask to its power
    cycle under setwise product (filled by powerset.subset_power), and
    invariants is the tuple of iso.element_invariants (filled by
    iso.invariants_of).
    """

    def __init__(self, table, name=None):
        rows = [tuple(row) for row in table]
        n = len(rows)
        if n == 0:
            raise NoIdentity("empty table has no identity")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"table is not square: got a row of length {len(row)}, expected {n}")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise ValueError(f"table entry {v} out of range [0, {n})")
        flat = tuple(chain.from_iterable(rows))
        ident = tuple(range(n))
        # flat[e::n] is column e
        identities = [e for e, row in enumerate(rows) if row == ident and flat[e::n] == ident]
        if len(identities) != 1:
            # >1 is impossible for a genuine magma identity; treat as a
            # validation failure either way
            raise NoIdentity(f"found {len(identities)} two-sided identities, need exactly 1")
        w = kernels.assoc_witness(flat, n)
        if w >= 0:
            c = w % n
            ab = w // n
            raise NotAssociative(ab // n, ab % n, c)
        self.n = n
        self.table = tuple(rows)
        self.flat = flat
        self.identity = identities[0]
        self.name = name or f"monoid[{n}]"
        self._orders = None
        self._units = None
        self._cycles = {}
        self.subset_cycles = {}
        self.invariants = None

    def mul(self, a, b):
        return self.table[a][b]

    def power_cycle(self, a):
        """(powers, start): the distinct powers a^0 .. a^(ord-1) in order,
        and the exponent start < ord with a^ord = a^start."""
        cycle = self._cycles.get(a)
        if cycle is None:
            rows = self.table
            cycle = self._cycles[a] = eventual_cycle(self.identity, lambda x: rows[x][a])
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
            e = self.identity
            self._orders = tuple(len(eventual_cycle(e, col.__getitem__)[0])
                                 for col in zip(*self.table))
        return self._orders

    def is_cancellative(self):
        """Whether m is a group: a cancellative a makes x -> ax injective on a
        finite set, so onto, so ab = e for some b, and then ba = e (units)."""
        return self.is_group()

    def units(self):
        """Elements with a two-sided inverse: in a finite monoid, uv = e
        forces vu = e, so those whose row holds the identity."""
        if self._units is None:
            e = self.identity
            self._units = tuple(u for u, row in enumerate(self.table) if e in row)
        return self._units

    def is_group(self):
        return len(self.units()) == self.n

    def is_commutative(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a + 1, self.n))

    def __eq__(self, other):
        return isinstance(other, FiniteMonoid) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteMonoid({self.name}, n={self.n})"


def cyclic_monoid(index, period, name=None):
    """Monogenic monoid with elements z^0 .. z^(index+period-1), z^(i+p) = z^i.

    index 0 gives the cyclic group of order `period`.
    """
    if index < 0 or period < 1:
        raise ValueError("need index >= 0 and period >= 1")
    n = index + period
    def reduce(c):
        while c >= n:
            c -= period
        return c
    table = [[reduce(a + b) for b in range(n)] for a in range(n)]
    return FiniteMonoid(table, name=name or f"cyclic_monoid({index},{period})")


def cyclic_group(n):
    return cyclic_monoid(0, n, name=f"cyclic {n}")


def direct_product(m1, m2, name=None):
    """Componentwise product monoid; element (a, b) has index a*|m2| + b."""
    n2 = m2.n
    table = [
        [m1.table[a1][b1] * n2 + m2.table[a2][b2]
         for b1 in range(m1.n) for b2 in range(n2)]
        for a1 in range(m1.n) for a2 in range(n2)
    ]
    return FiniteMonoid(table, name=name or f"({m1.name} x {m2.name})")


def dihedral_group(n):
    """Dihedral group of order 2n, realized as the maps x -> +-x + r on Z_n.

    Index f*n + r encodes the map x -> (-1)^f x + r; rotations come first.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
