"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's bitmask kernels and search: sets of
ints for subsets, permutation scans for isomorphisms, itertools product
for table enumeration.  They stay independent of the code paths they
check.  The exception is per_pair_records, which keeps the census
experiment's per-pair decision as an oracle for its decision by classes.
"""

import itertools


def brute_assoc_failure(table):
    """First non-associative triple of a row-of-rows table, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def brute_homomorphism_failure(t1, t2, mapping):
    """First (a, b) in row-major order with mapping[a*b] != mapping[a]*mapping[b]
    between two row-of-rows tables, or None."""
    n = len(t1)
    for a in range(n):
        for b in range(n):
            if mapping[t1[a][b]] != t2[mapping[a]][mapping[b]]:
                return (a, b)
    return None


def brute_light_rows(table):
    """The rows a of a row-of-rows table that are no product y*z with
    z <= y < a: the rows Light's test checks."""
    n = len(table)
    return [a for a in range(n)
            if all(table[y][z] != a for y in range(a) for z in range(y + 1))]


def brute_element_order(table, identity, a):
    seen = {identity}
    x = a
    while x not in seen:
        seen.add(x)
        x = table[x][a]
    return len(seen)


def brute_setwise(table, xs, ys):
    """Setwise product as a frozenset of ints."""
    return frozenset(table[a][b] for a in xs for b in ys)


def brute_subset_power(table, identity, xs, k):
    acc = frozenset([identity])
    for _ in range(k):
        acc = brute_setwise(table, acc, xs)
    return acc


def brute_isomorphisms(t1, t2):
    """All isomorphisms between two row-of-rows tables, by full permutation scan."""
    n = len(t1)
    if len(t2) != n:
        return []
    out = []
    for perm in itertools.permutations(range(n)):
        if all(perm[t1[a][b]] == t2[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            out.append(perm)
    return out


def brute_valid_tables(n):
    """Every identity-at-0 Cayley table of a monoid of order n, raw.

    Plain itertools.product over the free cells plus the triple-loop
    associativity filter; no pruning, no shared code with the enumerator.
    """
    free = [(a, b) for a in range(1, n) for b in range(1, n)]
    out = []
    for vals in itertools.product(range(n), repeat=len(free)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[0][i] = i
            t[i][0] = i
        for (a, b), v in zip(free, vals):
            t[a][b] = v
        if brute_assoc_failure(t) is None:
            out.append(tuple(tuple(row) for row in t))
    return out


def growing_square_cells(n):
    """The free cells (a, b), 1 <= a, b < n, in growing-square order: for
    m = 1, 2, ... row m up to the diagonal, then column m above it."""
    def key(cell):
        a, b = cell
        m = max(a, b)
        return (m, 0, b) if a == m else (m, 1, a)
    return sorted(((a, b) for a in range(1, n) for b in range(1, n)), key=key)


def brute_least_labelling(table):
    """Least relabelling of a row-of-rows table over all permutations that
    fix 0, read as the sequence of its free cells in growing-square order."""
    n = len(table)
    cells = growing_square_cells(n)
    best = None
    for rest in itertools.permutations(range(1, n)):
        perm = (0,) + rest
        t = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                t[perm[a]][perm[b]] = perm[table[a][b]]
        seq = tuple(t[a][b] for a, b in cells)
        if best is None or seq < best:
            best = seq
    return best


def brute_power(table, identity, a, k):
    """a^k by k right multiplications, a^0 the identity."""
    acc = identity
    for _ in range(k):
        acc = table[acc][a]
    return acc


def brute_pullback_counterexamples(h_table, k_table, g):
    """The (property, description) pairs of verify.pullback_report for a
    bijection g between row-of-rows tables, in its order and text, cell by
    cell: every power by brute_power, and a bounded image by a scan of the
    exponents l <= k."""
    n = len(h_table)
    eh, ek = brute_identity(h_table), brute_identity(k_table)
    cx = []
    for x in range(n):
        ox = brute_element_order(h_table, eh, x)
        ogx = brute_element_order(k_table, ek, g[x])
        if ox != ogx:
            cx.append(("order_preserving", f"x={x}: ord_H={ox} ord_K={ogx}"))
        for k in range(2 * ox + 1):
            gxk = g[brute_power(h_table, eh, x, k)]
            gx_k = brute_power(k_table, ek, g[x], k)
            if gxk != gx_k:
                cx.append(("power_compatible", f"x={x} k={k}: g(x^k)={gxk} g(x)^k={gx_k}"))
            if all(brute_power(k_table, ek, g[x], l) != gxk for l in range(k + 1)):
                cx.append(("bounded_power_image", f"x={x} k={k}: no l <= k with g(x^k)=g(x)^l"))
    for x in range(n):
        for y in range(n):
            gxy, gxgy = g[h_table[x][y]], k_table[g[x]][g[y]]
            if gxy != gxgy:
                cx.append(("torsion_hom", f"x={x} y={y}: g(xy)={gxy} g(x)g(y)={gxgy}"))
                x2, y2 = brute_power(h_table, eh, x, 2), brute_power(h_table, eh, y, 2)
                if h_table[x2][y2] != eh:
                    cx.append(("product_dichotomy", f"x={x} y={y}: g(xy)!=g(x)g(y) and x^2y^2 != 1"))
                if x2 == eh or y2 == eh:
                    cx.append(("involution_product",
                               f"x={x} y={y}: square hypothesis holds yet g(xy)!=g(x)g(y)"))
    return cx


def brute_preserves_sizes(src_masks, dst_masks, mapping):
    """Whether mapping[i] indexes a subset of the size of src_masks[i] for
    every i, counting the elements of each bitmask one bit at a time."""
    def size(mask):
        return sum(mask >> e & 1 for e in range(mask.bit_length()))
    return all(size(a) == size(dst_masks[mapping[i]]) for i, a in enumerate(src_masks))


def brute_reduced_exponent(seq, k):
    """An exponent j < len(seq) with term j equal to term k of an eventually
    periodic sequence of which seq holds terms 0 .. 2N for some N at or past
    its index: the period p is the least p >= 1 with seq[N + p] == seq[N]."""
    n = (len(seq) - 1) // 2
    if k <= 2 * n:
        return k
    p = next(p for p in range(1, n + 1) if seq[n + p] == seq[n])
    return n + (k - n) % p


def brute_equation_solutions(table, identity, s, n_exp, universe):
    """(solutions, family, family_ok) of A*S = S^n as in count_equation_solutions,
    over frozensets: every non-empty A (holding the identity for universe
    "reduced") in ascending bitmask order, and for n >= 3 the sets S^(n-1)
    minus T for the subsets T of S minus the identity, T ranging in binary
    counting order over those elements in ascending order."""
    n = len(table)
    as_set = lambda mask: frozenset(e for e in range(n) if mask >> e & 1)
    target = brute_subset_power(table, identity, s, n_exp)
    solutions = [a for a in range(1, 1 << n)
                 if (universe == "full" or a >> identity & 1)
                 and brute_setwise(table, as_set(a), s) == target]
    if n_exp < 3:
        return solutions, [], True
    base = brute_subset_power(table, identity, s, n_exp - 1)
    rest = sorted(s - {identity})
    family = [base - {e for i, e in enumerate(rest) if bits >> i & 1}
              for bits in range(1 << len(rest))]
    family_ok = (all(q and brute_setwise(table, q, s) == target for q in family)
                 and len(set(family)) == len(family))
    return solutions, family, family_ok


def brute_identity(table):
    """The two-sided identity of a row-of-rows monoid table."""
    n = len(table)
    return next(e for e in range(n) if all(table[e][b] == b == table[b][e] for b in range(n)))


def brute_units(table):
    """Elements u with some v such that uv = vu = e, ascending."""
    n, e = len(table), brute_identity(table)
    return tuple(u for u in range(n)
                 if any(table[u][v] == e and table[v][u] == e for v in range(n)))


def brute_cancellative_elements(table):
    """Elements a with ab = ac or ba = ca only for b = c, ascending."""
    n = len(table)
    return tuple(a for a in range(n)
                 if all(table[a][b] != table[a][c] and table[b][a] != table[c][a]
                        for b in range(n) for c in range(b + 1, n)))


def brute_element_invariants(table):
    """Per element: order, idempotency, cancellativity, unit status and the
    sizes of its row and column images."""
    n, e = len(table), brute_identity(table)
    units, canc = brute_units(table), brute_cancellative_elements(table)
    return [(brute_element_order(table, e, a), table[a][a] == a, a in canc, a in units,
             len({table[a][b] for b in range(n)}), len({table[b][a] for b in range(n)}))
            for a in range(n)]


def brute_refine_colors(tables):
    """Joint colour refinement of row-of-rows tables with tuple signatures.

    Colours start from brute_element_invariants.  A round keys element a by
    its colour and the sorted tuples (cur[b], cur[ab], cur[ba]) over all b,
    and numbers the keys of the whole batch in order of first occurrence;
    rounds stop once the number of colours stays the same.
    """
    pool = {}
    def intern(sig):
        return pool.setdefault(sig, len(pool))
    colors = [[intern(sig) for sig in brute_element_invariants(t)] for t in tables]
    total = len(pool)
    while True:
        pool.clear()
        colors = [[intern((cur[a], tuple(sorted((cur[b], cur[t[a][b]], cur[t[b][a]])
                                               for b in range(len(t))))))
                   for a in range(len(t))]
                  for t, cur in zip(tables, colors)]
        if len(pool) == total:
            return colors
        total = len(pool)


def per_pair_records(entries, budget):
    """The census experiment's records decided pair by pair, as
    census.ExperimentRecord: each pair of bases and of carriers is searched
    on its own by iso.find_isomorphism with the batch's colorings, a budget
    hit reads "budget-exceeded", and census.power_iso_facts decides the
    facts of a carrier witness.  Nothing here reads census._classify."""
    from powmon.census import ExperimentRecord, power_iso_facts
    from powmon.errors import SearchBudgetExceeded
    from powmon.iso import Coloring, find_isomorphism
    from powmon.powerset import reduced_power_monoid

    def search(m1, m2, coloring):
        try:
            return find_isomorphism(m1, m2, budget, coloring)
        except SearchBudgetExceeded:
            return "budget-exceeded"

    def status(found):
        return found if found == "budget-exceeded" else "no" if found is None else "yes"

    pms = [reduced_power_monoid(e.monoid) for e in entries]
    bases = Coloring(pm.base for pm in pms)
    carriers = Coloring(pm.carrier for pm in pms)
    out = []
    for i in range(len(pms)):
        for j in range(i, len(pms)):
            found = search(pms[i].carrier, pms[j].carrier, carriers)
            res = power_iso_facts(pms[i], pms[j], found) if status(found) == "yes" else None
            out.append(ExperimentRecord(
                (i, j), (pms[i].base.name, pms[j].base.name),
                status(search(pms[i].base, pms[j].base, bases)), status(found),
                None if res is None else not res.failed, res and res.cardinality_preserving))
    return out
