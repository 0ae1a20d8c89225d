"""One executable checker per verified statement.

Every checker returns a structured record carrying pass/fail status and
witnesses.  Hypothesis gating is explicit: a conclusion is only asserted
(can only flip status to "fail") when its stated hypotheses hold for the
inputs; outside them, observed violations are recorded as informative
findings.  That is how the known counterexamples surface without failing
a run.  A violated statement is a fail record (exit status 1), never an
exception (exit status 2): that holds for a failed two-to-two or pullback
extraction check too, which census.power_iso_facts decides in that order.
"""

from collections import namedtuple

from .errors import PreconditionViolated
from .kernels import unions
from .monoid import cycle_term
from .powerset import elements_of, format_subset, setwise_product, subset_power


class CheckResult(namedtuple("CheckResult", "checker subject status detail findings",
                             defaults=("", ()))):
    """Line-oriented checker outcome: status is pass, fail, or n/a;
    findings are the violations seen outside the checked hypotheses."""
    __slots__ = ()

    def line(self):
        parts = [self.checker, self.subject, self.status, self.detail]
        if self.findings:
            parts.append("findings: " + "; ".join(self.findings))
        return "\t".join(parts)

    @property
    def failed(self):
        return self.status == "fail"


def _pair(m, x):
    return (1 << m.identity) | (1 << x)


def check_order_stabilization(m, z):
    """Least k >= 1 with {1,z}^k = {1,z}^(k-1) must equal the order of z."""
    ord_z = m.element_order(z)
    pair = _pair(m, z)
    k = 1
    while subset_power(m, pair, k) != subset_power(m, pair, k - 1):
        k += 1
    ok = k == ord_z
    return CheckResult("order_stabilization", f"{m.name} z={z}",
                       "pass" if ok else "fail", f"k={k} ord={ord_z}")


def shifted_power_scan(m, z, l):
    """The pairs (r', s), in order, with r' < l-1 <= s <= ord(z)+2 and
    {1,z^l}{1,z}^r' = {1,z}^s: the part-2 scan of check_shifted_power,
    which does not depend on its r."""
    zl = 1 << m.identity | 1 << m.power(z, l)
    pair = _pair(m, z)
    later = [(s, subset_power(m, pair, s)) for s in range(l - 1, m.element_order(z) + 3)]
    equal = []
    for rp in range(0, l - 1):
        lhs = setwise_product(m, zl, subset_power(m, pair, rp))
        equal.extend((rp, s) for s, power in later if lhs == power)
    return equal


def check_shifted_power(m, z, l, r, scan=None):
    """{1,z^l}{1,z}^r = {1,z}^(l+r) for r >= l-1; and never equals any
    {1,z}^s with r < l-1 <= s when z is cancellative (on a finite monoid,
    a unit) and l <= ord(z).

    The inequality scan runs over all r' < l-1 and s in [l-1, ord+2]
    regardless of hypotheses; without them its violations are findings,
    not failures.  scan, if given, is shifted_power_scan(m, z, l), so a
    caller checking several r for one (z, l) scans once.
    """
    if l < 1:
        raise PreconditionViolated("need l >= 1")
    ord_z = m.element_order(z)
    zl = 1 << m.identity | 1 << m.power(z, l)
    pair = _pair(m, z)
    applied = []
    failures = []
    findings = []
    if r >= l - 1:
        lhs = setwise_product(m, zl, subset_power(m, pair, r))
        rhs = subset_power(m, pair, l + r)
        applied.append("part1")
        if lhs != rhs:
            failures.append(f"part1: l={l} r={r} lhs={format_subset(lhs)} rhs={format_subset(rhs)}")
    part2_gated = z in m.units() and l <= ord_z
    if part2_gated:
        applied.append("part2")
    for rp, s in shifted_power_scan(m, z, l) if scan is None else scan:
        msg = f"l={l} r={rp} s={s}: sides equal"
        if part2_gated:
            failures.append("part2: " + msg)
        else:
            findings.append("non-cancellative violation of part 2: " + msg)
    if failures:
        status = "fail"
    elif applied:
        status = "pass"
    else:
        status = "n/a"
    detail = " ".join(applied) if not failures else "; ".join(failures)
    return CheckResult("shifted_power", f"{m.name} z={z} l={l} r={r}",
                       status, detail, findings)


def check_cross_relation(m, x, y, r, s, products=None):
    """Both product identities that follow from x^r = y^s.

    {1,x}^(r-1){1,xy}{1,y}^s   = {1,x}^r{1,y}^(s+1)
    {1,x}^r{1,xy}{1,y}^(s-1)   = {1,x}^(r+1){1,y}^s

    Each side is multiplied out left to right from its first factor.
    products, if given, memoizes those setwise products: it maps a pair
    of masks (a, b) to the mask of a*b.  Its entries hold for m only, so a
    caller checking many cases of one monoid passes one dict for them all
    and drops it afterwards.
    """
    if r < 1 or s < 1:
        raise PreconditionViolated("need r, s >= 1")
    if m.power(x, r) != m.power(y, s):
        raise PreconditionViolated(f"x^{r} != y^{s} for x={x}, y={y} in {m.name}")
    if products is None:
        products = {}
    px, py = _pair(m, x), _pair(m, y)
    pxy = (1 << m.identity) | (1 << m.mul(x, y))
    def side(acc, *masks):
        for mk in masks:
            key = (acc, mk)
            acc = products.get(key)
            if acc is None:
                acc = products[key] = setwise_product(m, *key)
        return acc
    bad = []
    lhs1 = side(subset_power(m, px, r - 1), pxy, subset_power(m, py, s))
    rhs1 = side(subset_power(m, px, r), subset_power(m, py, s + 1))
    if lhs1 != rhs1:
        bad.append(f"eq1: {format_subset(lhs1)} != {format_subset(rhs1)}")
    lhs2 = side(subset_power(m, px, r), pxy, subset_power(m, py, s - 1))
    rhs2 = side(subset_power(m, px, r + 1), subset_power(m, py, s))
    if lhs2 != rhs2:
        bad.append(f"eq2: {format_subset(lhs2)} != {format_subset(rhs2)}")
    return CheckResult("cross_relation", f"{m.name} x={x} y={y} r={r} s={s}",
                       "fail" if bad else "pass", "; ".join(bad))


class MinimalRelation(namedtuple("MinimalRelation", "r s u v counterexample", defaults=(None,))):
    """Minimal exponents r, s, u, v with x^r = y^s and x^u = y^v.

    r is the least positive exponent of x equal to any positive power of
    y, and v the least positive exponent of y equal to any positive power
    of x.  The divisibility conclusion says that whenever x^c = y^d on the
    exponent grid [1, ord(x)] x [1, ord(y)], r divides c and v divides d;
    `counterexample` is the first grid solution (c, d) where it fails, or
    None.  Powers of cancellative torsion elements cycle with period equal
    to the order, and (ord(x), ord(y)) is itself a solution, so the grid
    covers every integer solution.
    """
    __slots__ = ()


def minimal_relation(m, x, y):
    ox, oy = m.element_order(x), m.element_order(y)
    for a in (x, y):
        if a not in m.units():
            raise PreconditionViolated(f"element {a} of {m.name} is not cancellative")
    xs = [m.power(x, c) for c in range(1, ox + 1)]
    ys = [m.power(y, d) for d in range(1, oy + 1)]
    sols = [(c, d) for c, xc in enumerate(xs, 1) for d, yd in enumerate(ys, 1) if xc == yd]
    r = min(c for c, _ in sols)
    s = min(d for c, d in sols if c == r)
    v = min(d for _, d in sols)
    u = min(c for c, d in sols if d == v)
    return MinimalRelation(r, s, u, v, next(((c, d) for c, d in sols if c % r or d % v), None))


def check_minimal_relation(m, x, y):
    rel = minimal_relation(m, x, y)
    detail = f"r={rel.r} s={rel.s} u={rel.u} v={rel.v}"
    if rel.counterexample:
        detail += " but x^{} = y^{}".format(*rel.counterexample)
    return CheckResult("minimal_relation", f"{m.name} x={x} y={y}",
                       "fail" if rel.counterexample else "pass", detail)


class SolutionCount(namedtuple("SolutionCount",
                               "count solutions bound bound_applies family family_ok")):
    """Exhaustive count of subsets A with A*S = S^n over a chosen universe:
    the solutions as ascending masks, the bound 2^(|S|-1), which applies
    over the full universe with n >= 3, and the constructed solutions
    (S^(n-1) \\ T) in family."""
    __slots__ = ()


def subset_translates(m, s_mask):
    """A*S for every subset A of m, as a list indexed by the mask of A
    (entry 0, the empty A, is 0), for a non-empty S given by s_mask: A*S
    is the union of the x*S over x in A.
    """
    return unions([setwise_product(m, 1 << x, s_mask) for x in range(m.n)])


def count_equation_solutions(m, s_mask, n_exp, universe="full", translates=None):
    """Solutions A of A*S = S^n, plus the constructed family (S^(n-1) \\ T)*S = S^n.

    S must contain the identity.  The lower bound 2^(|S|-1) is asserted by
    callers only when it applies (universe "full", n >= 3); the family is
    checked for validity and pairwise distinctness whenever n >= 3.
    translates, if given, is subset_translates(m, s_mask), which does not
    depend on n or the universe, so a caller counting several exponents
    for one S builds it once.
    """
    ebit = 1 << m.identity
    if not s_mask & ebit:
        raise PreconditionViolated("S must contain the identity")
    if universe not in ("full", "reduced"):
        raise PreconditionViolated(f"unknown universe {universe!r}")
    if n_exp < 1:
        raise PreconditionViolated("need n >= 1")
    target = subset_power(m, s_mask, n_exp)
    products = subset_translates(m, s_mask) if translates is None else translates
    solutions = [a for a, prod in enumerate(products)
                 if prod == target and (universe == "full" or a & ebit)]
    k = bin(s_mask).count("1") - 1
    family = []
    family_ok = True
    if n_exp >= 3:
        base = subset_power(m, s_mask, n_exp - 1)
        # t_masks[b] is the T holding the i-th non-identity element of S iff bit i of b is set
        t_masks = unions([1 << e for e in elements_of(s_mask & ~ebit)])
        family = [base & ~t_mask for t_mask in t_masks]
        family_ok = (all(q and products[q] == target for q in family)
                     and len(set(family)) == len(family))
    return SolutionCount(len(solutions), solutions, 1 << k,
                         universe == "full" and n_exp >= 3, family, family_ok)


def check_solution_count(m, s_mask, n_exp, universe="full", translates=None):
    """count_equation_solutions as a record; translates is passed on to it."""
    sc = count_equation_solutions(m, s_mask, n_exp, universe, translates)
    bad = []
    if sc.bound_applies and sc.count < sc.bound:
        bad.append(f"count {sc.count} < bound {sc.bound}")
    if n_exp >= 3 and not sc.family_ok:
        bad.append("constructed family invalid or not pairwise distinct")
    status = "fail" if bad else ("pass" if (sc.bound_applies or n_exp >= 3) else "n/a")
    return CheckResult("equation_solutions",
                       f"{m.name} S={format_subset(s_mask)} n={n_exp} {universe}",
                       status, "; ".join(bad) or f"count={sc.count} bound={sc.bound}")


def check_two_to_two(pm_src, pm_dst, witness):
    """Images of the 2-element carrier sets {1, x} must have 2 elements."""
    bad = []
    for x in range(pm_src.base.n):
        if x == pm_src.base.identity:
            continue
        i = witness.map[pm_src.pairs[x]]
        if pm_dst.sizes[i] != 2:
            bad.append(f"x={x} -> {format_subset(pm_dst.masks[i])} (size {pm_dst.sizes[i]})")
    return CheckResult("two_to_two", f"{pm_src.base.name} -> {pm_dst.base.name}",
                       "fail" if bad else "pass", "; ".join(bad))


class Pullback(namedtuple("Pullback", "source target map")):
    """The bijection g: H -> K carried by a power-monoid isomorphism f, its
    map the tuple of images.

    g(x) is the unique non-identity element of f({1_H, x}); g(1_H) = 1_K.
    Only extract_pullback builds one, when its check passes.  A witness
    that fails two-to-two or extraction gets a fail record (exit status 1),
    never an exception (exit status 2); census.power_iso_facts decides both.
    """
    __slots__ = ()


def extract_pullback(pm_src, pm_dst, witness):
    """(record, pullback): the one check that x -> y, where f({1_H, x}) =
    {1_K, y}, is a bijection H -> K.  The witness must have passed
    check_two_to_two (census.power_iso_facts calls this only then).  A
    failure is a fail record (exit status 1) and no pullback, never raised.
    """
    h, k = pm_src.base, pm_dst.base
    kbit = 1 << k.identity
    mapping = tuple(k.identity if x == h.identity else
                    (pm_dst.masks[witness.map[pm_src.pairs[x]]] & ~kbit).bit_length() - 1
                    for x in range(h.n))
    ok = sorted(mapping) == list(range(k.n))
    return (CheckResult("pullback_extraction", f"{h.name} -> {k.name}", "pass" if ok else "fail",
                        f"g={mapping}" + ("" if ok else " is not a bijection")),
            Pullback(h, k, mapping) if ok else None)


class PullbackReport(namedtuple("PullbackReport", "subject hypotheses counterexamples")):
    """Pullback properties, each decided by its recorded counterexamples.

    A property holds iff no counterexample to it was recorded.
    `hypotheses` records which of the gating conditions the input pair
    satisfies; a property that fails only counts as a failure when its
    gate is met (see gated_failures).  full_hom reads torsion_hom's
    counterexamples: on finite inputs every element is torsion, so the two
    observe the same products, but they are gated differently.
    counterexamples holds (property, description) pairs.
    """
    __slots__ = ()

    GATES = (
        ("order_preserving", None),
        ("bounded_power_image", "target_cancellative"),
        ("power_compatible", "both_cancellative"),
        ("product_dichotomy", "both_cancellative"),
        ("involution_product", "both_cancellative"),
        ("torsion_hom", "both_cancellative"),
        ("full_hom", "both_groups"),
    )

    def _failing(self):
        """The properties in GATES that fail, decided in one pass over the
        counterexamples; full_hom reads torsion_hom's."""
        seen = {prop for prop, _ in self.counterexamples}
        return {prop for prop, _ in self.GATES
                if ("torsion_hom" if prop == "full_hom" else prop) in seen}

    def _gated(self, failing):
        return [prop for prop, hyp in self.GATES
                if (hyp is None or self.hypotheses[hyp]) and prop in failing]

    def holds(self, prop):
        return prop not in self._failing()

    def gated_failures(self):
        return self._gated(self._failing())

    @property
    def failed(self):
        """The verdict of result(), decided without formatting it."""
        return bool(self.gated_failures())

    def result(self):
        failing = self._failing()
        failures = self._gated(failing)
        detail = "; ".join(f"{prop}={prop not in failing}" for prop, _ in self.GATES)
        findings = [f"{flag} fails outside hypotheses: {cx}"
                    for flag, cx in self.counterexamples if flag not in failures]
        return CheckResult("pullback_report", self.subject,
                           "fail" if failures else "pass", detail, findings)


def pullback_report(pb):
    """Check the pullback against every order/power/product statement.

    Exponents range over [0, 2*ord(x)]; beyond that, powers of torsion
    elements only repeat earlier cases.
    """
    h, k, g = pb.source, pb.target, pb.map
    k_group = k.is_group()          # a finite monoid cancels iff it is a group
    groups = h.is_group() and k_group
    hyp = {"target_cancellative": k_group, "both_cancellative": groups, "both_groups": groups}
    image = g.__getitem__
    cx = []
    for x in range(h.n):
        cycle, gx_cycle = h.power_cycle(x), k.power_cycle(g[x])
        powers, gx_powers = cycle[0], gx_cycle[0]
        ox = len(powers)
        if ox != len(gx_powers):
            cx.append(("order_preserving", f"x={x}: ord_H={ox} ord_K={len(gx_powers)}"))
        # g carries the powers of x onto those of g(x), with the same tail:
        # then g(x^k) = g(x)^k for every k, and nothing fails for this x
        if cycle[1] == gx_cycle[1] and tuple(map(image, powers)) == gx_powers:
            continue
        # the powers of g(x) are distinct up to the cycle's end, so some
        # l <= kk has g(x)^l = g(x^kk) iff its first exponent is <= kk
        first = {p: l for l, p in enumerate(gx_powers)}
        for kk in range(0, 2 * ox + 1):
            gxk = g[cycle_term(cycle, kk)]
            gx_k = cycle_term(gx_cycle, kk)
            if gxk != gx_k:
                cx.append(("power_compatible", f"x={x} k={kk}: g(x^k)={gxk} g(x)^k={gx_k}"))
            if first.get(gxk, kk + 1) > kk:
                cx.append(("bounded_power_image", f"x={x} k={kk}: no l <= k with g(x^k)=g(x)^l"))
    e, n, h_flat, k_flat = h.identity, h.n, h.flat, k.flat
    squares = h_flat[::n + 1]    # the diagonal x*x
    for x in range(n):
        # g(xy) and g(x)g(y) for every y, from the rows of x and g(x)
        gx = g[x]
        row, k_row = h_flat[x * n:x * n + n], k_flat[gx * n:gx * n + n]
        for y, gxy, gxgy in zip(range(n), map(image, row), map(k_row.__getitem__, g)):
            if gxy != gxgy:
                cx.append(("torsion_hom", f"x={x} y={y}: g(xy)={gxy} g(x)g(y)={gxgy}"))
                if h_flat[squares[x] * n + squares[y]] != e:
                    cx.append(("product_dichotomy", f"x={x} y={y}: g(xy)!=g(x)g(y) and x^2y^2 != 1"))
                if squares[x] == e or squares[y] == e:
                    cx.append(("involution_product", f"x={x} y={y}: square hypothesis holds yet g(xy)!=g(x)g(y)"))
    return PullbackReport(f"{h.name} -> {k.name}", hyp, cx)


def cardinality_profile(pm_src, pm_dst, witness):
    """Whether the witness preserves |X| for every carrier set X; asserted nowhere.

    Whether power-monoid isomorphisms must preserve cardinality is open;
    the census only reports what it sees.
    """
    sizes = pm_dst.sizes
    return [sizes[i] for i in witness.map] == pm_src.sizes
