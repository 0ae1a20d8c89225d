"""Pure-Python kernels for the hot loops.

A compiled Cython twin of this module (powmon._core) may be selected at
import time by powmon.kernels for assoc_witness, setwise_product,
power_table and iso_search.  For those both backends must agree exactly:
same results, same visit order, same node counts.  enumerate_tables is
always this one: it yields one table per isomorphism class, where the
compiled twin still yields every labelling.  A table is flat and
row-major, n*n cells with cell a*n + b holding a*b; the kernels read it
by index, so any sequence of ints will do.  The tables they return, and
the one a FiniteMonoid keeps, take one byte per cell up to 256 elements
and two above (pack_table).  Subsets are int bitmasks over element
indices.  Everything here is standard library up to tables of 256
elements, the reduced carriers of bases up to order 9; only
assoc_witness on larger tables imports numpy, and falls back to a plain
loop without it.  assoc_witness checks only the rows that are no product
of two earlier rows (Light's test, light_rows): the rows that pass are
closed under the product, so the first failing row is never a product of
two earlier ones and is always checked.  iso._check_isomorphism reads
the same rows for the same reason.
"""

import sys
from array import array
from itertools import permutations


def pack_table(cells, n):
    """The n*n cells of an n-element table, row-major, as bytes up to 256
    elements and as array('H') above; a table already of that type is
    returned as it is.  Every cell must lie in [0, n)."""
    if n <= 256:
        return cells if isinstance(cells, bytes) else bytes(_listed(cells))
    if isinstance(cells, array) and cells.typecode == "H":
        return cells
    return array("H", _listed(cells))


def _listed(cells):
    """cells as a list, copied only if it is not one: bytes() and array()
    of another buffer would copy its raw memory."""
    return cells if isinstance(cells, list) else list(cells)


def unions(values, first=0):
    """first ORed with values[i] over the bits i of A, for every
    A < 2^len(values), as a list indexed by A (entry 0 is first): the sets
    with top bit i follow those below i, and each is the one without i
    ORed with values[i]."""
    out = [first]
    for v in values:
        out += [u | v for u in out]
    return out


def light_rows(rows):
    """The indices of the rows that Light's test checks, in order: row a is
    skipped when a is in seen, the products y*z with z <= y < a, which each
    row y feeds in as its prefix rows[y][:y + 1] once it is passed.  rows
    is the table's rows, any sequences of ints that slice.

    Associativity (assoc_witness) and homomorphism
    (iso._check_isomorphism) checks have the same shape: the rows that pass
    are closed under the product.  So every row before the first failing
    row passes, and so does every product of two of them; the first
    failing row is never skipped, and checking only these rows finds it.
    A product y*z with y < z is not fed, so a row may be kept that a
    rule fed both orders would skip: sound, only not minimal.
    """
    seen = set()
    out = []
    for a, row in enumerate(rows):
        if a not in seen:
            out.append(a)
        seen.update(row[:a + 1])
    return out


def assoc_witness(table, n):
    """Index of the first failing triple, encoded (a*n + b)*n + c, or -1.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, section 1.2): the rows a with (a*b)*c = a*(b*c) for all b, c
    are closed under the product.  For such a and a',
    ((a*a')*b)*c = (a*(a'*b))*c = a*((a'*b)*c) = a*(a'*(b*c)) = (a*a')*(b*c).
    So the rows before the first failing row a are all good, and so is
    every product of two of them: a is no product y*z with y, z < a.  The
    check therefore skips row a when a is in seen, the products y*z with
    z <= y < a, which each row y feeds in as its prefix row_y[:y + 1]
    once it is done.  A skipped row is a product of two earlier rows, all
    good by then, so it holds no failing triple, and the first failing
    row is never skipped.  So the result is that of checking every row:
    the same -1, or the same lexicographically first failing triple, on
    any table.  light_rows lists the rows it keeps; in the reduced
    carriers of the groups of order 8 they are {1} and the
    indecomposables, 45 to 92 of 128.

    Up to 256 elements the table is one bytes object (pack_table, which
    returns a FiniteMonoid's flat as it is), and for each row a checked
    the n*n cells (b, c) of (a*b)*c and of a*(b*c) are built as two byte
    strings: (a*b)*c joins the rows a*b, and a*(b*c) maps the whole table
    through row a with bytes.translate.  The first differing cell is the
    lexicographically first failing triple.  Larger tables use a
    vectorized numpy pass when numpy is importable; the plain triple loop
    is the semantic reference and the last fallback.  All three check the
    rows of light_rows.
    """
    if n <= 256:
        flat = pack_table(table, n)
        rows = [flat[x * n:(x + 1) * n] for x in range(n)]
        pad = bytes(256 - n)
        for a in light_rows(rows):
            row_a = rows[a]
            lhs = b"".join(map(rows.__getitem__, row_a))
            rhs = flat.translate(row_a + pad)
            if lhs != rhs:
                i = next(i for i, (p, q) in enumerate(zip(lhs, rhs)) if p != q)
                return a * n * n + i
        return -1
    try:
        import numpy as np
    except ImportError:
        pass
    else:
        t = np.asarray(table, dtype=np.int64).reshape(n, n)
        for a in light_rows(t.tolist()):
            lhs = t[t[a], :]     # (a*b)*c indexed by (b, c)
            rhs = t[a, t]        # a*(b*c) indexed by (b, c)
            if not np.array_equal(lhs, rhs):
                b, c = map(int, np.argwhere(lhs != rhs)[0])
                return (a * n + b) * n + c
        return -1
    for a in light_rows([table[x * n:(x + 1) * n] for x in range(n)]):
        an = a * n
        for b in range(n):
            abn = table[an + b] * n
            bn = b * n
            for c in range(n):
                if table[abn + c] != table[an + table[bn + c]]:
                    return (an + b) * n + c
    return -1


def setwise_product(table, n, x, y):
    """Bitmask of {a*b : a in x, b in y} for bitmask subsets x, y."""
    out = 0
    xi = x
    while xi:
        lsb = xi & -xi
        xi ^= lsb
        an = (lsb.bit_length() - 1) * n
        yi = y
        while yi:
            lsb = yi & -yi
            yi ^= lsb
            out |= 1 << table[an + lsb.bit_length() - 1]
    return out


def power_table(table, n, masks):
    """Carrier table of the reduced power monoid of the n-element base with
    this flat table, flat row-major over masks: bytes up to 256 masks
    (n <= 9), array('H') above, as pack_table gives it.

    masks must be the 2^(n-1) subsets holding the table's identity e, in
    increasing order, masks[0] = {e}; any other family raises ValueError.
    Entry (i, j) is the position in masks of masks[i]*masks[j].

    The position of a mask is the mask with e's bit deleted, and deleting
    a bit distributes over OR.  So each base element v stands for its
    position bit, bit[v] (0 for e), and a cell ORs the bits of the
    product's elements.  A row is one int holding one cell per mask, cell
    j the product with masks[j], a byte while 2^(n-1) <= 256 and two bytes
    above.  masks is the doubling (unions) of {e} over the free elements,
    those other than e.  The translate row of a base element x, the cells
    x*masks[j], is built by the same doubling on the packed int: from the
    cell bit[x] of x*{e}, adding a free y ORs bit[x*y] into a copy of every
    cell so far, one multiply, OR and shift per y.  The row of X with y is
    the row of X ORed with the translate row of y, so the carrier rows are
    the doubling of e's translate row over those of the free elements, one
    int OR per mask, and the rows joined as bytes are the table.  Two-byte
    cells are joined little-endian and swapped on a big-endian host.

    Best of 5 on 2 vCPU, in one process beside the compiled twin: the 228
    16-element carriers of the order-5 census take 2.9-3.0 ms (compiled
    1.5), one of 128 elements 0.05 ms (2.2), of 256 elements 0.12-0.14 ms
    (11) and of 512 elements 0.6-0.7 ms (58-61).
    """
    start = masks[0] if masks else 0
    e = start.bit_length() - 1
    free = [y for y in range(n) if y != e]
    if not (start.bit_count() == 1
            and list(masks) == unions([1 << y for y in free], start)
            and list(table[e * n:e * n + n]) == list(range(n)) == list(table[e::n])):
        raise ValueError("masks must be the reduced family, the subsets that hold "
                         "the identity, in increasing order")
    bit = [0 if v == e else 1 << v - (v > e) for v in range(n)]
    width = 1 if n <= 9 else 2
    bits = 8 * width
    steps = []          # (shift, a 1 in each of the 2^k cells so far), k = 0, 1, ...
    ones = 1
    for k in range(len(free)):
        steps.append((bits << k, ones))
        ones |= ones << (bits << k)
    trans = []
    for x in range(n):
        row = table[x * n:(x + 1) * n]
        tx = bit[x]                 # x*{e}
        for (shift, ones), y in zip(steps, free):
            tx |= (tx | bit[row[y]] * ones) << shift
        trans.append(tx)
    size = len(masks) * width
    joined = b"".join([row.to_bytes(size, "little")
                       for row in unions([trans[y] for y in free], trans[e])])
    if width == 1:
        return joined
    out = array("H", joined)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def iso_search(t1, t2, n, c1, c2, var_order, budget, max_results):
    """Backtracking search for color-respecting isomorphisms t1 -> t2.

    c1, c2 assign each element a color id; a map may only send an element
    to one of the same color (the caller guarantees colors are isomorphism
    invariants).  Assigning a -> b forces map[x*y] = map[x]*map[y] for all
    settled pairs, so contradictions surface immediately.

    Returns (exhausted, maps, nodes): exhausted is False iff the node
    budget stopped the search early; maps holds up to max_results complete
    bijections in deterministic (smallest-image-first) order.
    """
    fwd = [-1] * n
    used = [False] * n
    assigned = []
    results = []
    nodes = 0
    exhausted = True

    def rollback(mark):
        while len(assigned) > mark:
            x = assigned.pop()
            used[fwd[x]] = False
            fwd[x] = -1

    def close(a, b):
        # Assign a -> b plus every forced consequence; -1 on conflict.  A
        # forced pair (u, v) is stacked only while fwd[u] != v.  A settled
        # pair would be popped and skipped, since inside one close only the
        # rollback of a conflict unassigns, and close then returns -1; so
        # leaving it out keeps the maps, visit order and node counts.
        mark = len(assigned)
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            fx = fwd[x]
            if fx != -1:
                if fx != y:
                    rollback(mark)
                    return -1
                continue
            if used[y] or c1[x] != c2[y]:
                rollback(mark)
                return -1
            fwd[x] = y
            used[y] = True
            assigned.append(x)
            xn = x * n
            yn = y * n
            for p in assigned:
                fp = fwd[p]
                u, v = t1[xn + p], t2[yn + fp]
                if fwd[u] != v:
                    stack.append((u, v))
                u, v = t1[p * n + x], t2[fp * n + y]
                if fwd[u] != v:
                    stack.append((u, v))
        return len(assigned) - mark

    def rec(pos):
        nonlocal nodes, exhausted
        while pos < n and fwd[var_order[pos]] != -1:
            pos += 1
        if pos == n:
            results.append(list(fwd))
            return len(results) >= max_results
        a = var_order[pos]
        ca = c1[a]
        for b in range(n):
            if used[b] or c2[b] != ca:
                continue
            nodes += 1
            if nodes > budget:
                exhausted = False
                return True
            mark = len(assigned)
            if close(a, b) >= 0:
                if rec(pos + 1):
                    return True
                rollback(mark)
        return False

    rec(0)
    return exhausted, results, nodes


def _assign(t, n, pairs, where, trail, cell, value):
    """Set a cell of the partial table t and every cell that associativity
    then forces; False on a conflict.

    t is flat with -1 for an unknown cell, and pairs[i] is divmod(i, n).
    where[v] lists the assigned cells (x, y) holding v, and trail the flat
    index of each assigned cell, in assignment order.  Each cell set here
    is appended to both, also on a conflict, so that _undo can reset it.
    The cells of the identity row and column are known and complete only
    trivial triples, so they are in neither list.  Setting pq = v runs the four triple families that
    cell completes: (pq)z = p(qz), (xp)q = x(pq), (xy)q = x(yq) with
    xy = p, and p(xy) = (px)y with xy = q.  In each, a known side forces
    an unknown other side to its value, and two known sides that differ
    fail.  A forced cell that another force set first is skipped: it holds
    the value it was forced to, since had it differed, its own families
    would have met the triple that forced it and failed.
    """
    free = range(1, n)
    stack = [(cell, value)]
    while stack:
        i, v = stack.pop()
        if t[i] >= 0:
            continue
        t[i] = v
        trail.append(i)
        pq = pairs[i]
        where[v].append(pq)
        p, q = pq
        pn = p * n
        qn = q * n
        vn = v * n
        for z in free:              # (pq)z = p(qz)
            qz = t[qn + z]
            if qz >= 0:
                a = vn + z
                b = pn + qz
                l = t[a]
                r = t[b]
                if l != r:
                    if l < 0:
                        stack.append((a, r))
                    elif r < 0:
                        stack.append((b, l))
                    else:
                        return False
        for x in free:              # (xp)q = x(pq)
            xn = x * n
            xp = t[xn + p]
            if xp >= 0:
                a = xp * n + q
                b = xn + v
                l = t[a]
                r = t[b]
                if l != r:
                    if l < 0:
                        stack.append((a, r))
                    elif r < 0:
                        stack.append((b, l))
                    else:
                        return False
        for x, y in where[p]:       # (xy)q = x(yq) with xy = p
            yq = t[y * n + q]
            if yq >= 0:
                b = x * n + yq
                r = t[b]
                if r != v:
                    if r < 0:
                        stack.append((b, v))
                    else:
                        return False
        for x, y in where[q]:       # p(xy) = (px)y with xy = q
            px = t[pn + x]
            if px >= 0:
                a = px * n + y
                l = t[a]
                if l != v:
                    if l < 0:
                        stack.append((a, v))
                    else:
                        return False
    return True


def _undo(t, where, trail, mark):
    """Reset the cells assigned since the trail held mark cells, newest
    first, so each where[v] pops the cell it last gained."""
    while len(trail) > mark:
        i = trail.pop()
        where[t[i]].pop()
        t[i] = -1


def enumerate_tables(n):
    """One Cayley table per isomorphism class of order-n monoids.

    The identity is fixed at 0 and the (n-1)^2 free cells are filled by
    backtracking in growing-square order.  Assigning a cell also assigns
    every cell that associativity then forces, to a fixpoint, and fails
    the branch on a violated triple (_assign); one trail undoes both on
    backtracking (_undo).  The search branches only on cells that are
    still unknown when it reaches them.  Symmetry is broken by lex-leader
    pruning: for each relabelling sigma that fixes 0,
    T^sigma[p][q] = sigma(T[sigma^-1 p][sigma^-1 q]) is compared with T cell
    by cell in cell order, and T is cut once the first cell where the two
    differ (every earlier cell known and equal) is smaller in T^sigma.
    T^sigma may read a later cell that forcing set; the cells before it
    imply that value, so the cut holds for every completion.  So each
    class yields exactly its least labelling in cell order, and the tables
    come out as a list of flat tuples in increasing cell order.
    """
    t = [-1] * (n * n)
    for i in range(n):
        t[i] = i
        t[i * n] = i
    pairs = [divmod(i, n) for i in range(n * n)]
    where = [[] for _ in range(n)]
    trail = []

    # complete the top-left (m+1)x(m+1) block before moving on
    cells = []
    for m in range(1, n):
        cells.extend((m, b) for b in range(1, m + 1))
        cells.extend((a, m) for a in range(1, m))
    pos = [p * n + q for p, q in cells]

    # one (sources, sigma, k) per relabelling: T^sigma at cell i reads T at
    # sources[i]; cells before k are known and equal in T and T^sigma
    syms = []
    for perm in permutations(range(1, n)):
        sigma = (0,) + perm
        if sigma == tuple(range(n)):
            continue
        inv = [0] * n
        for a, b in enumerate(sigma):
            inv[b] = a
        syms.append((tuple(inv[p] * n + inv[q] for p, q in cells), sigma, 0))

    def leader(known, active):
        # advance each sigma over the known cells; None if one beats T
        kept = []
        for src, sigma, k in active:
            while k < known:
                w = t[src[k]]
                if w < 0:
                    break
                w = sigma[w]
                v = t[pos[k]]
                if w != v:
                    if w < v:
                        return None
                    k = -1      # decided for T: no completion is beaten
                    break
                k += 1
            if k >= 0:
                kept.append((src, sigma, k))
        return kept

    out = []
    last = len(cells)

    def rec(d, active):
        # cells before d are known, and cell d is not
        if d == last:
            out.append(tuple(t))
            return
        cell = pos[d]
        mark = len(trail)
        for v in range(n):
            if _assign(t, n, pairs, where, trail, cell, v):
                e = d + 1
                while e < last and t[pos[e]] >= 0:
                    e += 1
                kept = leader(e, active)
                if kept is not None:
                    rec(e, kept)
            _undo(t, where, trail, mark)

    rec(0, syms)
    return out
