"""Exhaustive verification suites, one per checked statement family.

Each suite, and each single case, is a generator: it sweeps its stated
scope and yields every checker record as it is decided, in sweep order,
so `list(suite(...))` holds exactly its records.  Its return value is its
notes, a tuple of lines (None when it has none).  Nothing here keeps the
records: cli._report writes each one as it arrives and counts cases,
failures (of gated assertions only) and findings.  Expected
counterexamples (the non-cancellative cases) surface as findings inside
otherwise passing records; suites that pin them assert the finding
occurs, so the counterexamples themselves are regression-tested.
"""

from collections import Counter
from itertools import combinations_with_replacement

from .census import (_classify, catalog_power_classes, census_monoids, groups_catalog,
                     power_classes, power_iso_facts, power_isomorphism, power_isomorphisms,
                     power_pair, verdict)
from .iso import DEFAULT_BUDGET
from .monoid import cyclic_group, cyclic_monoid, idempotent_monoid2, parse_monoid_spec
from .powerset import format_subset, mask_of, parse_subset, reduced_power_monoid
from .verify import (CheckResult, check_cross_relation, check_minimal_relation,
                     check_order_stabilization, check_shifted_power,
                     check_solution_count, count_equation_solutions, shifted_power_scan,
                     subset_translates)


def _catalog_groups(max_order):
    return [e for e in groups_catalog(max_order) if e.control_of is None]


def suite_lemma21(max_order=5):
    """Stabilization index of {1,z} equals ord(z), across the full census."""
    for entry in census_monoids(max_order):
        m = entry.monoid
        for z in range(m.n):
            yield check_order_stabilization(m, z)


def suite_lemma22(max_order=4, group_max=8):
    """Shifted-power identity and, for cancellative z, the inequality range.

    Part 1 sweeps the census with l in [1, ord(z)] and r in [l-1, l+3],
    making the part-2 scan, which does not depend on r, once per (z, l).
    Part 2 sweeps the group catalog, where every element is cancellative,
    via one call per (z, l) that scans all r < l-1 and s in [l-1, ord+2].
    The cyclic monoid of order 4 and index 2 is pinned: with l = 3 the
    inequality genuinely fails for its non-cancellative generator, and the
    suite asserts that finding occurs.
    """
    for entry in census_monoids(max_order):
        m = entry.monoid
        for z in range(m.n):
            for l in range(1, m.element_order(z) + 1):
                scan = shifted_power_scan(m, z, l)
                for r in range(max(0, l - 1), l + 4):
                    yield check_shifted_power(m, z, l, r, scan)
    for entry in _catalog_groups(group_max):
        m = entry.monoid
        for z in range(m.n):
            for l in range(1, m.element_order(z) + 1):
                yield check_shifted_power(m, z, l, l - 1)
    cm = cyclic_monoid(2, 2)
    pinned = check_shifted_power(cm, 1, 3, 1)
    expected = [f for f in pinned.findings if "l=3 r=1" in f]
    yield CheckResult(
        "expected_violation", "cyclic_monoid(2,2) z=1 l=3",
        "pass" if (not pinned.failed and expected) else "fail",
        expected[0] if expected else "missing the non-cancellative part-2 violation")


def suite_lemma24(group_max=8):
    """Both cross-relation identities for every admissible (x, y, r, s),
    with one product memo per group."""
    for entry in _catalog_groups(group_max):
        m = entry.monoid
        # powers[a] lists a^1 .. a^ord(a); products is shared by the group's cases
        powers = [[m.power(a, k) for k in range(1, m.element_order(a) + 1)] for a in range(m.n)]
        products = {}
        for x in range(m.n):
            for y in range(m.n):
                for r, xr in enumerate(powers[x], 1):
                    for s, ys in enumerate(powers[y], 1):
                        if xr == ys:
                            yield check_cross_relation(m, x, y, r, s, products)


def suite_prop25(group_max=8):
    """Minimal relation exponents and their divisibility conclusion."""
    for entry in _catalog_groups(group_max):
        m = entry.monoid
        for x in range(m.n):
            for y in range(m.n):
                yield check_minimal_relation(m, x, y)


LEMMA31_EXPONENTS = (3, 4)


def suite_lemma31(max_order=4):
    """Solution counts of AS = S^n for n in LEMMA31_EXPONENTS over the
    census, plus pinned counts for the two-element sets X = {1, x} (d = 2,
    3, and 2 with the exact solution pair, by the order of x).  The
    products A*S are built once per S for both exponents."""
    for entry in census_monoids(max_order):
        m = entry.monoid
        ebit = 1 << m.identity
        for s_mask in range(1, 1 << m.n):
            if not s_mask & ebit:
                continue
            translates = subset_translates(m, s_mask)
            for n_exp in LEMMA31_EXPONENTS:
                yield check_solution_count(m, s_mask, n_exp, "full", translates)
    for order, want_count, want_solutions in (
            (2, 2, None),
            (3, 3, None),
            (5, 2, "pinned"),
            (6, 2, "pinned"),
            (7, 2, "pinned")):
        g = cyclic_group(order)
        x = 1
        sc = count_equation_solutions(g, mask_of([g.identity, x], g.n), 3, "reduced")
        ok = sc.count == want_count
        detail = f"d={sc.count} want={want_count}"
        if want_solutions == "pinned":
            pinned = sorted((mask_of([g.identity, g.power(x, 2)], g.n),
                             mask_of([g.identity, x, g.power(x, 2)], g.n)))
            ok = ok and sorted(sc.solutions) == pinned
            detail += " solutions=" + " ".join(format_subset(a) for a in sorted(sc.solutions))
        yield CheckResult("pair_solution_count", f"cyclic {order} x=1 n=3 reduced",
                          "pass" if ok else "fail", detail)


def _thm32_records(res, preserving):
    """The records of one PowerIsoResult: its checks when it found an
    isomorphism, none when absence was proven, else its failing record.
    An isomorphism whose checks all passed adds its cardinality fact to
    the Counter `preserving`."""
    if res.status == "iso":
        if not res.failed:
            preserving[res.cardinality_preserving] += 1
        return res.checks()
    return [] if res.status == "absent" else [res.record()]


def suite_thm32(max_order=4, group_max=6, budget=DEFAULT_BUDGET):
    """Two-to-two property and pullback extraction for every isomorphism
    found between reduced power monoids: all of them over the census by
    exhaustive enumeration, one witness (and its inverse) per catalog pair.

    Both halves class their carriers (power_classes).  The census half
    is one sweep of power_isomorphisms, which yields the results of every
    pair its classes do not prove non-isomorphic, in pair order: an
    in-class pair composes its class representative's automorphisms,
    listed once per class and dropped after the class's last pair, with
    the classes' maps, in the order a listing of the pair alone gives,
    and a pair across two classes that a budget hit left unresolved is
    listed on its own.  The catalog half reads each witness from the
    catalog's classes (power_pair), which it shares with section4
    (catalog_power_classes), so a self-pair is decided by its identity
    map, even under a budget below its order.
    Every extracted pullback also gets a full property report (its order
    preservation has no cancellativity hypothesis, hence the whole census);
    a search that hit its budget adds its failing record.  The cardinality
    note counts only the isomorphisms whose checks all passed.
    """
    preserving = Counter()
    pms, classes = power_classes(census_monoids(max_order), budget)
    for res in power_isomorphisms(classes, pms, budget):
        yield from _thm32_records(res, preserving)
    pms, classes = catalog_power_classes(group_max, budget)
    for i, j in combinations_with_replacement(range(len(pms)), 2):
        res = power_pair(classes, pms, i, j)
        yield from _thm32_records(res, preserving)
        if res.status == "iso":
            yield from _thm32_records(power_iso_facts(pms[j], pms[i], res.witness.inverse()),
                                      preserving)
    return (f"cardinality profile: {preserving[True]}/{preserving.total()} observed isomorphisms "
            "preserve subset size (measured only; the question is open)",)


def analyze_pair(h, k, budget=DEFAULT_BUDGET):
    """Single-pair power-isomorphism analysis.

    Returns (results, report_or_None): base and power isomorphism status
    records, failing on a budget hit (census.verdict), plus, when a power
    isomorphism exists, its two-to-two record and the record that decides it.
    """
    base = _classify([h, k], budget).status(0, 1)
    res = power_isomorphism(reduced_power_monoid(h), reduced_power_monoid(k), budget)
    results = [CheckResult("base_iso", res.subject, verdict(base), base),
               CheckResult("power_iso", res.subject, verdict(res.status), res.status)]
    if res.status == "iso":
        decided = res.record()
        results += [res.two_to_two] + ([] if decided is res.two_to_two else [decided])
    return results, res.report


def suite_section4(group_max=6, budget=DEFAULT_BUDGET):
    """Pullback property reports for power isomorphisms of group pairs.

    Reads all unordered catalog pairs (controls included) from their
    carriers' classes (power_pair), so a self-pair is decided by its
    identity map, even under a budget below its order.  Pins the cyclic-2
    versus idempotent-2 counterexample: its pullback preserves orders but
    not squares, recorded as a finding since the pair is not cancellative.
    """
    pms, classes = catalog_power_classes(group_max, budget)
    for i, j in combinations_with_replacement(range(len(pms)), 2):
        yield power_pair(classes, pms, i, j).record()
    results, report = analyze_pair(cyclic_group(2), idempotent_monoid2(), budget)
    yield from results
    witness = next((cx for flag, cx in (report.counterexamples if report else [])
                    if flag == "power_compatible"), None)
    ok = witness is not None and report.holds("order_preserving")
    yield CheckResult("expected_violation", "cyclic 2 vs idem2", "pass" if ok else "fail",
                      f"order_preserving=true power_compatible=false [{witness or 'missing'}]")
    return ("infinite-order branches of the order-preservation statement "
            "are structurally inapplicable to finite inputs",)


def case_section4(pair, budget=DEFAULT_BUDGET):
    """analyze_pair on one pair of monoid specs written H:K, such as z2:idem2."""
    specs = pair.split(":")
    if len(specs) != 2:
        raise ValueError(f"bad pair {pair!r}: expected H:K, such as z2:idem2")
    try:
        h, k = map(parse_monoid_spec, specs)
    except ValueError as exc:
        raise ValueError(f"bad pair {pair!r}: {exc}")
    yield from analyze_pair(h, k, budget)[0]


def case_lemma31(monoid, subset=None, n=3, universe="full"):
    """One solution count of AS = S^n for a monoid spec and a subset
    literal S such as 0,1 (default: the whole monoid)."""
    m = parse_monoid_spec(monoid)
    s_mask = parse_subset(subset, m.n) if subset else (1 << m.n) - 1
    yield check_solution_count(m, s_mask, n, universe)


SUITES = {
    "lemma21": suite_lemma21,
    "lemma22": suite_lemma22,
    "lemma24": suite_lemma24,
    "prop25": suite_prop25,
    "lemma31": suite_lemma31,
    "thm32": suite_thm32,
    "section4": suite_section4,
}

# SUITES and CASES hold generator functions (see the module docstring);
# a single case runs in place of its suite when its first parameter is given
CASES = {"section4": case_section4, "lemma31": case_lemma31}
