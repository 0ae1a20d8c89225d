"""Checker behavior on the worked examples and their oracles."""

import copy
import itertools
import types
from collections import Counter

import pytest

from powmon import census, suites
from powmon.census import census_monoids, groups_catalog, power_isomorphism
from powmon.cli import main
from powmon.errors import PreconditionViolated
from powmon.iso import enumerate_isomorphisms, find_isomorphism
from powmon.monoid import cyclic_group, cyclic_monoid, direct_product
from powmon.powerset import (elements_of, mask_of, reduced_power_monoid,
                             setwise_product, subset_power)
from powmon.verify import (Pullback, PullbackReport, cardinality_profile, check_cross_relation,
                           check_minimal_relation, check_order_stabilization,
                           check_shifted_power, check_solution_count,
                           check_two_to_two, count_equation_solutions,
                           extract_pullback, minimal_relation, pullback_report,
                           subset_translates)

from oracles import (brute_equation_solutions, brute_isomorphisms,
                     brute_preserves_sizes, brute_pullback_counterexamples, brute_setwise,
                     brute_subset_power)


# --- order stabilization (suite lemma21) ---------------------------------

def test_stabilization_identity(zoo):
    r = check_order_stabilization(zoo["z6"], 0)
    assert r.status == "pass" and "k=1" in r.detail


def test_stabilization_z3_generator(zoo):
    # oracle: expand powers of {1,z} until they stop growing
    z3 = zoo["z3"]
    chain = [brute_subset_power(z3.table, 0, {0, 1}, k) for k in range(5)]
    k = next(i for i in range(1, 5) if chain[i] == chain[i - 1])
    assert k == 3
    r = check_order_stabilization(z3, 1)
    assert r.status == "pass" and "k=3" in r.detail


def test_stabilization_index2_period2(zoo):
    r = check_order_stabilization(zoo["cm22"], 1)
    assert r.status == "pass" and "k=4 ord=4" in r.detail


def test_stabilization_whole_zoo(zoo):
    for m in zoo.values():
        for z in range(m.n):
            assert not check_order_stabilization(m, z).failed


# --- shifted powers (suite lemma22) ---------------------------------------

def test_shifted_power_l1_trivial(zoo):
    for name in ("z6", "d3", "cm22"):
        m = zoo[name]
        for z in range(m.n):
            for r in range(0, 4):
                assert not check_shifted_power(m, z, 1, r).failed


def test_shifted_power_z5_inequality(zoo):
    z5 = zoo["z5"]
    # direct oracle for the l=3, r=1, s=2 instance
    lhs = setwise_product(z5, mask_of([0, 3], 5), subset_power(z5, 0b011, 1))
    assert lhs != subset_power(z5, 0b011, 2)
    assert check_shifted_power(z5, 1, 3, 1).status == "pass"


def test_shifted_power_noncancellative_finding(zoo):
    r = check_shifted_power(zoo["cm22"], 1, 3, 1)
    assert not r.failed
    assert any("l=3 r=1" in f for f in r.findings)


def test_shifted_power_precondition(zoo):
    with pytest.raises(PreconditionViolated):
        check_shifted_power(zoo["z2"], 1, 0, 1)


# --- cross relations (suite lemma24) --------------------------------------

def test_cross_relation_identity_case(zoo):
    r = check_cross_relation(zoo["z6"], 0, 0, 1, 1)
    assert r.status == "pass"


def test_cross_relation_z6(zoo):
    assert check_cross_relation(zoo["z6"], 3, 2, 2, 3).status == "pass"


def test_cross_relation_s3(zoo):
    d3 = zoo["d3"]
    x = next(a for a in range(6) if d3.element_order(a) == 2)
    y = next(a for a in range(6) if d3.element_order(a) == 3)
    assert d3.power(x, 2) == d3.power(y, 3) == d3.identity
    assert check_cross_relation(d3, x, y, 2, 3).status == "pass"


def test_cross_relation_precondition(zoo):
    with pytest.raises(PreconditionViolated):
        check_cross_relation(zoo["z6"], 1, 2, 1, 1)  # 1 != 2
    with pytest.raises(PreconditionViolated):
        check_cross_relation(zoo["z6"], 0, 0, 0, 1)


def _lemma24_cases(group_max):
    """(m, cases) per non-control catalog group: every (x, y, r, s) with
    1 <= r <= ord(x), 1 <= s <= ord(y) and x^r = y^s, as suite_lemma24 visits them."""
    for entry in groups_catalog(group_max):
        if entry.control_of is None:
            m = entry.monoid
            order = m.element_order
            yield m, [(x, y, r, s) for x in range(m.n) for y in range(m.n)
                      for r in range(1, order(x) + 1) for s in range(1, order(y) + 1)
                      if m.power(x, r) == m.power(y, s)]


def test_cross_relation_shared_products_match_unshared():
    total = 0
    for m, cases in _lemma24_cases(8):
        products = {}
        for case in cases:
            assert (check_cross_relation(m, *case, products).line()
                    == check_cross_relation(m, *case).line())
        total += len(cases)
    assert total == len(list(suites.suite_lemma24(8))) == 1210


def test_cross_relation_sides_match_oracle():
    # each side is read back from a fresh products dict, prefix by prefix
    for m, cases in _lemma24_cases(6):
        t, e = m.table, m.identity
        for x, y, r, s in cases:
            products = {}
            assert not check_cross_relation(m, x, y, r, s, products).failed
            px = lambda k: brute_subset_power(t, e, {e, x}, k)
            py = lambda k: brute_subset_power(t, e, {e, y}, k)
            pxy = frozenset({e, t[x][y]})
            for factors in ((px(r - 1), pxy, py(s)), (px(r), py(s + 1)),
                            (px(r), pxy, py(s - 1)), (px(r + 1), py(s))):
                got, want = mask_of(factors[0], m.n), factors[0]
                for f in factors[1:]:
                    got = products[got, mask_of(f, m.n)]
                    want = brute_setwise(t, want, f)
                    assert got == mask_of(want, m.n)


# --- minimal relations (suite prop25) --------------------------------------

def grid_oracle(m, x, y):
    ox, oy = m.element_order(x), m.element_order(y)
    return [(c, d) for c in range(1, ox + 1) for d in range(1, oy + 1)
            if m.power(x, c) == m.power(y, d)]


def test_minimal_relation_x_equals_y(zoo):
    rel = minimal_relation(zoo["z6"], 2, 2)
    assert (rel.r, rel.s, rel.u, rel.v) == (1, 1, 1, 1)


def test_minimal_relation_z6(zoo):
    rel = minimal_relation(zoo["z6"], 3, 2)
    assert (rel.r, rel.s, rel.u, rel.v, rel.counterexample) == (2, 3, 2, 3, None)
    assert check_minimal_relation(zoo["z6"], 3, 2).line() == \
        "minimal_relation\tcyclic 6 x=3 y=2\tpass\tr=2 s=3 u=2 v=3"
    sols = grid_oracle(zoo["z6"], 3, 2)
    assert all(c % rel.r == 0 and d % rel.v == 0 for c, d in sols)


def test_minimal_relation_z4(zoo):
    rel = minimal_relation(zoo["z4"], 1, 2)
    assert (rel.r, rel.s, rel.v) == (2, 1, 1)


def test_minimal_relation_requires_cancellative(zoo):
    with pytest.raises(PreconditionViolated):
        minimal_relation(zoo["idem2"], 1, 1)


def test_minimal_relation_reports_failed_divisibility():
    # duck-typed fake: x^2 = y^3 and x^3 = y^2, so r = v = 2, which does not divide 3
    powers = ("1abce", "1fcbe")
    fake = types.SimpleNamespace(name="fake", element_order=lambda a: 4,
                                 units=lambda: (0, 1),
                                 power=lambda a, k: powers[a][k])
    rel = minimal_relation(fake, 0, 1)
    assert (rel.r, rel.s, rel.u, rel.v, rel.counterexample) == (2, 3, 3, 2, (2, 3))
    r = check_minimal_relation(fake, 0, 1)
    assert (r.checker, r.subject, r.status) == ("minimal_relation", "fake x=0 y=1", "fail")
    assert r.detail == "r=2 s=3 u=3 v=2 but x^2 = y^3"


def test_minimal_relation_check_over_groups(zoo):
    for name in ("z6", "klein", "d4", "q8"):
        m = zoo[name]
        for x in range(m.n):
            for y in range(m.n):
                assert not check_minimal_relation(m, x, y).failed


# --- solution counting (suite lemma31) -------------------------------------

def test_count_z2_full(zoo):
    sc = count_equation_solutions(zoo["z2"], 0b11, 3, "full")
    assert sc.count == 3 and sorted(sc.solutions) == [0b01, 0b10, 0b11]
    assert sc.bound == 2 and sc.bound_applies and sc.family_ok


def test_count_reduced_proof_cases(zoo):
    # d = |C_X| from the two-to-two theorem's proof, for X = {1, x}
    for name, want in (("z2", 2), ("z3", 3), ("z5", 2), ("z6", 2), ("z7", 2)):
        m = zoo[name]
        sc = count_equation_solutions(m, 0b11, 3, "reduced")
        assert sc.count == want, name
        if m.element_order(1) >= 5:
            x2 = m.power(1, 2)
            pinned = {mask_of([0, x2], m.n), mask_of([0, 1, x2], m.n)}
            assert set(sc.solutions) == pinned


def test_count_preconditions(zoo):
    with pytest.raises(PreconditionViolated):
        count_equation_solutions(zoo["z2"], 0b10, 3)  # identity missing
    with pytest.raises(PreconditionViolated):
        count_equation_solutions(zoo["z2"], 0b11, 0)
    with pytest.raises(PreconditionViolated):
        count_equation_solutions(zoo["z2"], 0b11, 3, "sideways")


def test_count_family_distinct_and_valid(zoo):
    for name in ("z4", "d3", "cm22"):
        m = zoo[name]
        full = (1 << m.n) - 1
        sc = count_equation_solutions(m, full, 3, "full")
        assert sc.family_ok and len(sc.family) == 1 << (m.n - 1)
        assert not check_solution_count(m, full, 3, "full").failed


def test_count_matches_oracle():
    for entry in census_monoids(3):
        m = entry.monoid
        for s_mask in range(1, 1 << m.n):
            if not s_mask >> m.identity & 1:
                continue
            for n_exp in range(1, 5):
                for universe in ("full", "reduced"):
                    sc = count_equation_solutions(m, s_mask, n_exp, universe)
                    solutions, family, family_ok = brute_equation_solutions(
                        m.table, m.identity, frozenset(elements_of(s_mask)), n_exp, universe)
                    assert (sc.solutions, sc.count) == (solutions, len(solutions))
                    assert [frozenset(elements_of(q)) for q in sc.family] == family
                    assert sc.family_ok == family_ok


def test_subset_translates_match_oracle():
    for entry in census_monoids(3):
        m = entry.monoid
        for s_mask in range(1, 1 << m.n):
            translates = subset_translates(m, s_mask)
            assert len(translates) == 1 << m.n
            for a, prod in enumerate(translates):
                want = brute_setwise(m.table, elements_of(a), elements_of(s_mask))
                assert prod == mask_of(want, m.n)


def test_count_with_translates_matches_count_without():
    for entry in census_monoids(3):
        m = entry.monoid
        for s_mask in range(1, 1 << m.n):
            if not s_mask >> m.identity & 1:
                continue
            translates = subset_translates(m, s_mask)
            for n_exp in (3, 4):
                for universe in ("full", "reduced"):
                    assert (count_equation_solutions(m, s_mask, n_exp, universe, translates)
                            == count_equation_solutions(m, s_mask, n_exp, universe))


# --- Thm 3.2 / Cor 3.3: two-to-two and pullbacks ---------------------------

def test_two_to_two_identity_automorphism(zoo):
    pm = reduced_power_monoid(zoo["z4"])
    w = find_isomorphism(pm.carrier, pm.carrier)
    assert check_two_to_two(pm, pm, w).status == "pass"


def test_two_to_two_all_z4_automorphisms(zoo):
    pm = reduced_power_monoid(zoo["z4"])
    for w in enumerate_isomorphisms(pm.carrier, pm.carrier):
        assert check_two_to_two(pm, pm, w).status == "pass"


def test_two_to_two_z2_idem_witness(zoo):
    pmh = reduced_power_monoid(zoo["z2"])
    pmk = reduced_power_monoid(zoo["idem2"])
    w = find_isomorphism(pmh.carrier, pmk.carrier)
    assert w is not None
    assert check_two_to_two(pmh, pmk, w).status == "pass"
    pb = extract_pullback(pmh, pmk, w)[1]
    assert pb.map == (0, 1)  # 1 -> 1, x -> e


def test_pullback_identity(zoo):
    pm = reduced_power_monoid(zoo["z6"])
    w = find_isomorphism(pm.carrier, pm.carrier)
    pb = extract_pullback(pm, pm, w)[1]
    assert pb.map == tuple(range(6))


def test_pullback_z3_automorphisms_fix_identity(zoo):
    pm = reduced_power_monoid(zoo["z3"])
    maps = set()
    for w in enumerate_isomorphisms(pm.carrier, pm.carrier):
        pb = extract_pullback(pm, pm, w)[1]
        assert pb.map[0] == 0 and sorted(pb.map) == [0, 1, 2]
        maps.add(pb.map)
    assert maps == {(0, 1, 2), (0, 2, 1)}


def test_pullback_rejects_corrupted_witness(zoo):
    pm = reduced_power_monoid(zoo["z4"])
    # duck-typed fake mapping the pair {1,x} to a 3-element subset
    bad = list(range(len(pm)))
    i = pm.pairs[1]
    assert i == pm.masks.index(1 | 1 << 1)
    j = pm.index_of(mask_of([0, 1, 2], 4))
    bad[i], bad[j] = bad[j], bad[i]
    fake = types.SimpleNamespace(map=tuple(bad))
    assert check_two_to_two(pm, pm, fake).line() == (
        "two_to_two\tcyclic 4 -> cyclic 4\tfail\tx=1 -> 0,1,2 (size 3)")
    # read anyway, it gives g(1) = g(2) = 2: a failing record, no pullback
    rec, pb = extract_pullback(pm, pm, fake)
    assert rec.line() == (
        "pullback_extraction\tcyclic 4 -> cyclic 4\tfail\tg=(0, 2, 2, 3) is not a bijection")
    assert pb is None


def test_pullback_inverse(zoo):
    pmh = reduced_power_monoid(zoo["z6"])
    pmk = reduced_power_monoid(zoo["z2xz3"])
    w = find_isomorphism(pmh.carrier, pmk.carrier)
    pb = extract_pullback(pmh, pmk, w)[1]
    inv = extract_pullback(pmk, pmh, w.inverse())[1]
    assert [inv.map[pb.map[x]] for x in range(6)] == list(range(6))


# --- Section 4: pullback reports -------------------------------------------

def test_report_identity_all_true(zoo):
    pm = reduced_power_monoid(zoo["q8"])
    pb = extract_pullback(pm, pm, find_isomorphism(pm.carrier, pm.carrier))[1]
    rep = pullback_report(pb)
    assert rep.holds("order_preserving") and rep.holds("power_compatible") and rep.holds("full_hom")
    assert not rep.gated_failures()


def test_report_z2_idem_counterexample(zoo):
    pmh = reduced_power_monoid(zoo["z2"])
    pmk = reduced_power_monoid(zoo["idem2"])
    pb = extract_pullback(pmh, pmk, find_isomorphism(pmh.carrier, pmk.carrier))[1]
    rep = pullback_report(pb)
    assert rep.holds("order_preserving")
    assert not rep.holds("power_compatible")
    # the exact witness: g(x^2) = 1 != e = g(x)^2
    assert any(flag == "power_compatible" and "x=1 k=2" in cx
               for flag, cx in rep.counterexamples)
    assert not rep.gated_failures()          # hypotheses unmet: finding only
    assert rep.result().status == "pass"
    assert rep.result().findings


def test_report_s3_automorphisms(zoo):
    d3 = zoo["d3"]
    pm = reduced_power_monoid(d3)
    auts = enumerate_isomorphisms(pm.carrier, pm.carrier)
    pulls = set()
    for w in auts:
        rep = pullback_report(extract_pullback(pm, pm, w)[1])
        assert rep.holds("full_hom") and not rep.gated_failures()
        pulls.add(extract_pullback(pm, pm, w)[1].map)
    assert pulls == set(brute_isomorphisms(d3.table, d3.table))


def test_full_hom_implies_torsion_hom(zoo):
    # every element of a finite monoid is torsion, so the flags agree
    for h, k in (("z2", "idem2"), ("z6", "z2xz3"), ("q8", "q8")):
        pmh, pmk = reduced_power_monoid(zoo[h]), reduced_power_monoid(zoo[k])
        w = find_isomorphism(pmh.carrier, pmk.carrier)
        if w is None:
            continue
        rep = pullback_report(extract_pullback(pmh, pmk, w)[1])
        assert rep.holds("full_hom") == rep.holds("torsion_hom")


def test_report_properties_come_from_counterexamples():
    hyp = {"target_cancellative": False, "both_cancellative": False, "both_groups": False}
    rep = PullbackReport("h -> k", hyp, [("power_compatible", "x=1 k=2"), ("torsion_hom", "x=1 y=1")])
    assert not rep.holds("power_compatible") and rep.holds("order_preserving")
    # full_hom reads torsion_hom's counterexamples
    assert not rep.holds("torsion_hom") and not rep.holds("full_hom")
    assert rep.gated_failures() == []
    res = rep.result()
    assert res.status == "pass"
    assert res.findings == ["power_compatible fails outside hypotheses: x=1 k=2",
                            "torsion_hom fails outside hypotheses: x=1 y=1"]
    assert "power_compatible=False" in res.detail and "full_hom=False" in res.detail
    # the same list under met gates: every property with a counterexample fails
    rep = PullbackReport("h -> k", dict.fromkeys(hyp, True), rep.counterexamples)
    assert rep.gated_failures() == ["power_compatible", "torsion_hom", "full_hom"]
    assert rep.result().status == "fail" and rep.result().findings == []
    # order preservation has no gate
    rep = PullbackReport("h -> k", hyp, [("order_preserving", "x=1: ord_H=2 ord_K=1")])
    assert rep.gated_failures() == ["order_preserving"] and rep.result().failed
    assert PullbackReport("h -> k", hyp, []).result().line() == (
        "pullback_report\th -> k\tpass\t" + "; ".join(
            f"{prop}=True" for prop, _ in PullbackReport.GATES))


def test_pullback_facts_match_oracles(monkeypatch):
    # every witness thm32 decides by default: each carrier isomorphism of
    # census <= 4, and the witness and inverse of each catalog <= 6 pair
    seen = []
    facts = census.power_iso_facts
    def record(pm_src, pm_dst, witness):
        seen.append((pm_src, pm_dst, witness))
        return facts(pm_src, pm_dst, witness)
    monkeypatch.setattr(census, "power_iso_facts", record)
    monkeypatch.setattr(suites, "power_iso_facts", record)
    list(suites.suite_thm32())
    flagged = set()
    preserving = Counter()
    for pm_src, pm_dst, w in seen:
        preserves = cardinality_profile(pm_src, pm_dst, w)
        assert preserves == brute_preserves_sizes(pm_src.masks, pm_dst.masks, w.map)
        preserving[preserves] += 1
        pb = extract_pullback(pm_src, pm_dst, w)[1]
        cx = pullback_report(pb).counterexamples
        assert cx == brute_pullback_counterexamples(pb.source.table, pb.target.table, pb.map)
        flagged.update(prop for prop, _ in cx)
    # 446 census isomorphisms, then a witness and its inverse per catalog pair
    assert len(seen) == 446 + 2 * 10
    # orders are preserved and powers bounded throughout; the product
    # properties fail on the census's non-cancellative pairs
    assert flagged == {"power_compatible", "product_dichotomy", "involution_product", "torsion_hom"}
    assert preserving == {True: 466}
    # bijections fixing the identity that no isomorphism carries fail the rest
    for h, k in ((cyclic_group(4), cyclic_group(4)), (cyclic_group(4), cyclic_monoid(2, 2))):
        for rest in itertools.permutations(range(1, 4)):
            pb = Pullback(h, k, (0,) + rest)
            cx = pullback_report(pb).counterexamples
            assert cx == brute_pullback_counterexamples(h.table, k.table, pb.map)
            flagged.update(prop for prop, _ in cx)
    assert flagged == {prop for prop, _ in PullbackReport.GATES} - {"full_hom"}
    # all of them preserve subset size; swapping {0,1} and {0,1,2} does not
    pm = reduced_power_monoid(cyclic_group(3))
    fake = types.SimpleNamespace(map=(0, 3, 2, 1))
    assert not cardinality_profile(pm, pm, fake)
    assert not brute_preserves_sizes(pm.masks, pm.masks, fake.map)


# --- every check name that verify all writes can fail ----------------------

def _unvalidated(m, rows, name):
    """A copy of m whose flat table is rows, which FiniteMonoid would not
    accept; its table property and every reader slice that one buffer."""
    m = copy.copy(m)
    m.flat = bytes(itertools.chain.from_iterable(rows))
    m.name = name
    return m


def _flat_perturbed():
    """cyclic 3 with 0*0 = 1, so 0 is no identity yet is kept as one: the
    powers of 1 and its order are those of cyclic 3, while {0,1}^1 = {1}."""
    return _unvalidated(cyclic_group(3), ((1, 1, 2), (1, 2, 0), (2, 0, 1)), "cyclic 3")


def _loop5():
    """A loop of order 5 (a Latin square with identity 0) that is not
    associative, so FiniteMonoid would refuse it: x=2 is y^2 for y=3, yet
    x^3 = y^3 and 2 does not divide 3."""
    return _unvalidated(cyclic_group(5), ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                                          (3, 4, 1, 2, 0), (4, 2, 0, 1, 3)), "loop5")


def _pullback_records(images):
    """check_two_to_two and extract_pullback of a duck-typed witness of
    P(cyclic 3), given as the images of its carrier indices."""
    pm = reduced_power_monoid(cyclic_group(3))
    fake = types.SimpleNamespace(map=images)
    return [check_two_to_two(pm, pm, fake), extract_pullback(pm, pm, fake)[0]]


def _expected_violation(monkeypatch):
    # both pinned counterexamples built from groups, where none occurs
    monkeypatch.setattr(suites, "idempotent_monoid2", lambda: cyclic_group(2))
    monkeypatch.setattr(suites, "cyclic_monoid", lambda index, period: cyclic_group(index + period))
    return (list(suites.suite_section4(group_max=1))
            + list(suites.suite_lemma22(max_order=1, group_max=1)))


def _pair_solution_count(monkeypatch):
    # each pinned count read off the next cyclic group
    cyclic = suites.cyclic_group
    monkeypatch.setattr(suites, "cyclic_group", lambda order: cyclic(order + 1))
    return list(suites.suite_lemma31(max_order=1))


_Z6, _Z2XZ3 = cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(3))

# check name -> records, given monkeypatch, of an input violating its statement
FAILING_INPUTS = {
    "order_stabilization": lambda mp: [check_order_stabilization(_flat_perturbed(), 1)],
    "shifted_power": lambda mp: [check_shifted_power(_flat_perturbed(), 1, 2, 1)],
    "expected_violation": _expected_violation,
    "cross_relation": lambda mp: [check_cross_relation(_flat_perturbed(), 1, 1, 1, 1)],
    "minimal_relation": lambda mp: [check_minimal_relation(_loop5(), 2, 3)],
    "equation_solutions": lambda mp: [check_solution_count(_flat_perturbed(), 0b011, 3)],
    "pair_solution_count": _pair_solution_count,
    # {0,1} -> {0,1,2} and {0,1,2} -> {0,1}
    "two_to_two": lambda mp: _pullback_records((0, 3, 2, 1)),
    # {0,1} and {0,2} both -> {0,1}: g = (0, 1, 1)
    "pullback_extraction": lambda mp: _pullback_records((0, 1, 1, 3)),
    # g(1) = 2 has order 2 in cyclic 4, but 1 has order 4
    "pullback_report": lambda mp: [pullback_report(
        Pullback(cyclic_group(4), cyclic_group(4), (0, 2, 1, 3))).result()],
    "power_iso_search": lambda mp: [power_isomorphism(
        reduced_power_monoid(_Z6), reduced_power_monoid(_Z2XZ3), 1).record()],
    "base_iso": lambda mp: suites.analyze_pair(_Z6, _Z2XZ3, budget=1)[0],
    "power_iso": lambda mp: suites.analyze_pair(_Z6, _Z2XZ3, budget=1)[0],
}


@pytest.mark.parametrize("name", FAILING_INPUTS)
def test_every_check_can_fail(monkeypatch, name):
    records = [r for r in FAILING_INPUTS[name](monkeypatch) if r.checker == name]
    assert records and any(r.failed for r in records), [r.line() for r in records]


def test_failing_inputs_cover_every_check_name(capsys):
    # a new check name in verify all needs an input above that fails it
    assert main(["verify", "all"]) == 0
    written = {line.split("\t")[0] for line in capsys.readouterr().out.splitlines()
               if not line.startswith("#")}
    assert written == set(FAILING_INPUTS)
