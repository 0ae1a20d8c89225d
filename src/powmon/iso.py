"""Isomorphism search between finite monoids.

The search backtracks over element bijections, constrained by a joint
partition refinement: elements may only map within matching refinement
classes, and every assignment propagates the products it forces.  Classes
start from per-element invariants (order, idempotency, row and column
image sizes) and are refined by the coloring of row and column patterns,
so most non-isomorphic pairs are rejected before any search.  A batch of
monoids is split into buckets by size and multiset of element orders,
and a group of two or more that share those is split again by invariant
multiset, so a monoid alone in its order profile never has its element
invariants computed for its key.  Each bucket is refined once, when a
member first needs colors (Coloring); each pair is then decided from its
class keys and its slices of that coloring.

"Proven absent" and "budget exceeded" are distinct outcomes: absence is
only reported after an exhausted search (or an invariant mismatch, which
is a proof).
"""

from collections import Counter
from itertools import chain
from operator import add, itemgetter

from . import kernels
from .errors import SearchBudgetExceeded

DEFAULT_BUDGET = 5_000_000


class IsoWitness:
    """A certified isomorphism between two finite monoids.

    The map is re-validated on construction, independently of whatever
    search produced it: bijection, identity to identity, and
    map[a*b] == map[a]*map[b] for all pairs (_check_isomorphism).  The
    product check reads only the rows of the source that are no product
    of two earlier rows (source.light_rows()), each as a whole row: the
    rows that pass are closed under the product, so the first failing
    pair lies in a row it reads, and it raises the error, or accepts the
    map, exactly as a check of every pair would.  The identity map of a
    monoid onto itself satisfies all three by definition, so it is
    recognised by comparing the map with range(n), without the product
    check.
    """

    def __init__(self, source, target, mapping):
        mapping = tuple(mapping)
        if source is not target or mapping != tuple(range(source.n)):
            _check_isomorphism(source, target, mapping)
        self.source = source
        self.target = target
        self.map = mapping

    def inverse(self):
        return IsoWitness(self.target, self.source, inverse_map(self.map))

    def __repr__(self):
        return f"IsoWitness({self.source.name} -> {self.target.name}, {self.map})"


def inverse_map(mapping):
    """The inverse of a bijection of 0..n-1, given as the list of its images."""
    inv = [0] * len(mapping)
    for a, b in enumerate(mapping):
        inv[b] = a
    return inv


def _check_isomorphism(source, target, mapping):
    """Raise ValueError unless mapping is an isomorphism source -> target.

    After the bijection and identity checks, write f for the map and call
    row a of source good when f(a*b) = f(a)*f(b) for all b.  Good rows
    are closed under the product: for good a and a',
    f((a*a')*b) = f(a*(a'*b)) = f(a)*f(a'*b) = f(a)*f(a')*f(b) =
    f(a*a')*f(b), by associativity in both monoids.  So every row before
    the first bad row a is good, and so is every product of two of them:
    a is no product y*z with z <= y < a, and is one of the rows Light's
    associativity test keeps (source.light_rows(), found once per
    monoid).  Only those rows are checked, in increasing order, so the
    first bad row checked is the first bad row.  Each is compared whole:
    f(a*b) over b is row a mapped through f, and f(a)*f(b) over b is row
    f(a) of target gathered by f; for bytes tables (up to 256 elements)
    both are one bytes.translate, for array('H') tables one itemgetter
    each.  Only a row that differs is walked, to its first differing b.
    So the error names the first failing (a, b) in row-major order, as a
    check of every cell would, and a map is accepted iff every cell
    holds.  Best of 5 on 2 vCPU, per check of a carrier automorphism,
    against the cell loop this replaced: 2.5-2.7 us on 4 elements
    (2.6-4.6), 4 us on 16 (17-28), 10-11 us on 32 (55-73), 42-52 us on
    128 (0.7-0.8 ms) and 4.9-5.4 ms on 512 (19-21 ms).
    """
    n = source.n
    if target.n != n or len(mapping) != n:
        raise ValueError("witness size mismatch")
    if sorted(mapping) != list(range(n)):
        raise ValueError("witness map is not a bijection")
    if mapping[source.identity] != target.identity:
        raise ValueError("witness does not map identity to identity")
    sf, tf = source.flat, target.flat
    if n <= 256:        # bytes tables (pack_table)
        f = bytes(mapping)
        pad = bytes(256 - n)
        image = f + pad
        mapped = lambda row: row.translate(image)
        gathered = lambda row: f.translate(row + pad)
    else:               # array('H') tables, n > 256, so itemgetter returns tuples
        mapped = lambda row: itemgetter(*row)(mapping)
        gathered = itemgetter(*mapping)
    for a in source.light_rows():
        ma = mapping[a]
        lhs, rhs = mapped(sf[a * n:a * n + n]), gathered(tf[ma * n:ma * n + n])
        if lhs != rhs:
            b = next(b for b, (p, q) in enumerate(zip(lhs, rhs)) if p != q)
            raise ValueError(f"witness is not a homomorphism at ({a}, {b})")


def element_invariants(m):
    """Per element (order, idempotent, |row image|, |column image|), the
    seed partition for refinement.  Whether a cancels and whether it is a
    unit both equal |row image| == n (FiniteMonoid.is_cancellative), which
    rises with the third entry: listing them before it would give the same
    partition, colour ids, bucket keys and sorted class order."""
    return table_invariants(m.n, m.flat, m.orders())


def table_invariants(n, flat, orders):
    """element_invariants of the monoid with flat table flat, read from
    the table and its element orders alone, without a FiniteMonoid."""
    # flat[::n + 1] is the diagonal a*a, flat[a::n] column a
    return [(order, aa == a, len(set(flat[a * n:a * n + n])), len(set(flat[a::n])))
            for a, (order, aa) in enumerate(zip(orders, flat[::n + 1]))]


def invariants_of(m):
    """element_invariants(m) as a tuple, computed once per monoid and kept on it."""
    if m.invariants is None:
        m.invariants = tuple(element_invariants(m))
    return m.invariants


def refine_colors(monoids):
    """Jointly refine element colors across several monoids.

    Returns one color list per monoid; equal ids mean "not yet
    distinguished", comparable across the monoids because the id pool is
    shared.  Rounds split classes by the colors of products until stable.

    A round keys element a by its color and the sorted triples
    (cur[b], cur[ab], cur[ba]) over all b, each coded as the int
    (cur[b]*p + cur[ab])*p + cur[ba], p being the previous round's color
    count; the ab are the slice flat[a*n:(a+1)*n] of the flat table and
    the ba its column flat[a::n], so each key is a few passes of builtins.
    An element alone in its class across the batch cannot split, so it is
    keyed (c,), as unique as its full key.  Keys are numbered in order of
    first occurrence, so the ids are those that sorting the triples as
    tuples gives.
    """
    pool = {}
    colors = [[pool.setdefault(sig, len(pool)) for sig in invariants_of(m)] for m in monoids]
    while True:
        p = len(pool)
        sizes = Counter(chain.from_iterable(colors))
        pool = {}
        nxt = []
        for m, cur in zip(monoids, colors):
            n, flat = m.n, m.flat
            look = cur.__getitem__
            look_p = [c * p for c in cur].__getitem__
            b_pp = [c * p * p for c in cur]
            keys = ((c,) if sizes[c] == 1 else
                    (c, tuple(sorted(map(add, map(add, b_pp, map(look_p, flat[a * n:a * n + n])),
                                         map(look, flat[a::n])))))
                    for a, c in enumerate(cur))
            nxt.append([pool.setdefault(k, len(pool)) for k in keys])
        colors = nxt
        if len(pool) == p:
            return colors


class Coloring:
    """The stable coloring of a batch of monoids, refined bucket by bucket.

    The monoids are grouped into buckets by their order and the multiset
    of their element_invariants, the round-0 colors of refine_colors.  The
    key has two levels: the monoids are first grouped by (n, sorted
    element orders), and only a group of two or more is split by (n,
    sorted invariants).  The order is the first invariant, so these are
    the buckets of the second key alone, but a monoid alone in its order
    profile has invariants_of computed only once it needs colors, never
    for its key.  A bucket is refined with refine_colors the first time a
    member needs colors or, in a bucket of two or more, a class key, so
    its color ids are comparable only within the bucket.

    Refinement only splits classes, so two monoids in different buckets
    have different final profiles (color multisets) and are proven
    non-isomorphic without search, as a profile mismatch is.  Restricted
    to any two monoids of a bucket, the bucket's coloring is the partition
    that refine_colors([m1, m2]) gives: a round reads only each monoid's
    own table, and the bucket stops only once no class of any member
    splits.  Searching with its colors therefore gives the same verdicts,
    witnesses and node counts as refining the pair alone.

    class_key(m) is the one color test: the search and census._classify
    compare keys, two monoids with different keys are proven
    non-isomorphic, and only those with equal keys need a search.  A
    monoid alone in its bucket is keyed by the bucket, so its bucket is
    never refined for a key.
    """

    def __init__(self, monoids):
        groups = {}             # order profile -> {id(m): m}, in batch order
        for m in monoids:
            groups.setdefault((m.n, tuple(sorted(m.orders()))), {})[id(m)] = m
        self._bucket = {}       # id(m) -> the members of m's bucket
        for group in groups.values():
            buckets = {}        # invariant multiset -> members; a lone member needs none
            for m in group.values():
                key = tuple(sorted(invariants_of(m))) if len(group) > 1 else None
                bucket = buckets.setdefault(key, [])
                bucket.append(m)    # also keeps the ids valid
                self._bucket[id(m)] = bucket
        self._colors = {}       # id(m) -> colors, for the members of refined buckets
        self._profiles = {}

    def _refine(self, m):
        if id(m) not in self._colors:
            bucket = self._bucket[id(m)]
            for b, colors in zip(bucket, refine_colors(bucket)):
                self._colors[id(b)] = colors
                self._profiles[id(b)] = tuple(sorted(Counter(colors).items()))

    def class_key(self, m):
        """m's bucket, and its profile when the bucket has another member
        (refining the bucket then); comparable within this Coloring only."""
        bucket = self._bucket[id(m)]
        if len(bucket) == 1:
            return id(bucket), None
        self._refine(m)
        return id(bucket), self._profiles[id(m)]

    def colors_of(self, m):
        self._refine(m)
        return self._colors[id(m)]


def _search(m1, m2, budget, max_results, coloring):
    if coloring is None:
        coloring = Coloring([m1, m2])
    if coloring.class_key(m1) != coloring.class_key(m2):     # a bucket has one order
        return True, [], 0
    c1, c2 = coloring.colors_of(m1), coloring.colors_of(m2)
    return kernels.iso_search(m1.flat, m2.flat, m1.n, c1, c2, search_order(c1), budget,
                              max_results)


def search_order(colors):
    """The order in which the search assigns the elements of a monoid with
    these colors: by the size of their color class, then by index.  The
    search tries each element's candidates in increasing order, so it
    yields its maps sorted by their images taken in this order."""
    sizes = Counter(colors)
    return sorted(range(len(colors)), key=lambda a: (sizes[colors[a]], a))


def find_isomorphism(m1, m2, budget=DEFAULT_BUDGET, coloring=None):
    """One isomorphism witness, or None once absence is proven.

    coloring is a Coloring of a batch holding m1 and m2; without one, the
    pair is refined as a batch of two.

    On a self-pair (m1 is m2) the search returns the identity after at
    most n nodes.  Both sides have the same colors, and the search visits
    the elements of one color in increasing order.  So when it reaches a
    variable a, the map so far is the identity and every element of a's
    color below a is taken: a's smallest free candidate of its own color
    is a itself.  Mapping a to a forces only x*y -> x*y, which never
    conflicts.  So the identity that census._classify gives a self-pair
    without a search is the witness this search returns.

    Raises SearchBudgetExceeded if the node budget ran out first; callers
    needing certainty (census experiments) must treat that as unknown.
    """
    exhausted, maps, nodes = _search(m1, m2, budget, 1, coloring)
    if maps:
        return IsoWitness(m1, m2, maps[0])
    if not exhausted:
        raise SearchBudgetExceeded(nodes)
    return None


def enumerate_isomorphisms(m1, m2, budget=DEFAULT_BUDGET, coloring=None):
    """All isomorphisms m1 -> m2 (all automorphisms when m1 is m2).

    coloring is as for find_isomorphism.

    Raises SearchBudgetExceeded if the search could not be exhausted, so a
    returned list is always complete.
    """
    exhausted, maps, nodes = _search(m1, m2, budget, 1 << 62, coloring)
    if not exhausted:
        raise SearchBudgetExceeded(nodes)
    return [IsoWitness(m1, m2, mp) for mp in maps]
