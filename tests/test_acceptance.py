"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Every criterion carries its stated wall-clock ceiling; the checks
themselves must have zero gated failures.
"""

import random
import time

from powmon.census import (canonical_key, enumerate_monoids, groups_catalog,
                           run_experiment)
from powmon.cli import main as cli_main
from powmon.iso import find_isomorphism
from powmon.monoid import FiniteMonoid, cyclic_group, cyclic_monoid, idempotent_monoid2
from powmon.powerset import (augment, mask_of, reduced_power_monoid,
                             setwise_product, subset_power)
from powmon.suites import (suite_lemma21, suite_lemma22, suite_lemma24,
                           suite_lemma31, suite_prop25, suite_section4,
                           suite_thm32)
from powmon.verify import extract_pullback, pullback_report

from oracles import brute_valid_tables


def criterion(num, desc, limit_s, fn):
    t0 = time.perf_counter()
    problems = fn()
    dt = time.perf_counter() - t0
    if dt > limit_s:
        problems = problems + [f"exceeded time budget: {dt:.1f}s > {limit_s}s"]
    status = "PASS" if not problems else "FAIL"
    print(f"\n[criterion {num}] {desc}: {status} ({dt:.2f}s)")
    assert not problems, "; ".join(problems)


def test_criterion_1_lemma21():
    def run():
        records = list(suite_lemma21(max_order=5))
        return [f.line() for f in records if f.failed]
    criterion(1, "stabilization equals order, census <= 5 (lemma21)", 60, run)


def test_criterion_2_lemma22():
    def run():
        problems = []
        records = list(suite_lemma22(max_order=5, group_max=8))
        problems += [f.line() for f in records if f.failed]
        pinned = [r for r in records if r.checker == "expected_violation"]
        if not pinned or pinned[0].failed:
            problems.append("missing the pinned non-cancellative violation at l=3")
        # the example itself, by direct computation
        cm = cyclic_monoid(2, 2)
        lhs = setwise_product(cm, mask_of([0, 3], 4), mask_of([0, 1], 4))
        if lhs != subset_power(cm, mask_of([0, 1], 4), 4):
            problems.append("{1,z^3}{1,z} != {1,z}^4 in the index-2 period-2 monoid")
        return problems
    criterion(2, "shifted-power equality and inequality sweeps (lemma22)", 120, run)


def test_criterion_3_lemma24_prop25():
    def run():
        problems = []
        problems += [f.line() for f in suite_lemma24(group_max=8) if f.failed]
        problems += [f.line() for f in suite_prop25(group_max=8) if f.failed]
        return problems
    criterion(3, "cross relations and minimal relations, groups <= 8", 300, run)


def test_criterion_4_lemma31():
    def run():
        records = list(suite_lemma31(max_order=4))
        problems = [f.line() for f in records if f.failed]
        pinned = [r for r in records if r.checker == "pair_solution_count"]
        if len(pinned) < 5:
            problems.append("missing pinned pair-count cases")
        return problems
    criterion(4, "solution counts and pinned pair counts (lemma31)", 300, run)


def test_criterion_5_thm32():
    def run():
        records = list(suite_thm32(max_order=4, group_max=6))
        problems = [f.line() for f in records if f.failed]
        if not any(r.checker == "two_to_two" for r in records):
            problems.append("no isomorphisms were exercised")
        return problems
    criterion(5, "two-to-two and pullback extraction", 600, run)


def test_criterion_6_section4_thm51():
    def run():
        problems = []
        cat = groups_catalog(6)
        records, summary = run_experiment(cat, mode="groups")
        if summary.exceptions:
            problems.append(f"{len(summary.exceptions)} biconditional exceptions")
        if summary.budget_exceeded:
            problems.append("budget-exceeded pairs present")
        if summary.pullback_failures:
            problems.append("pullback failures present")
        control = next(i for i, e in enumerate(cat) if e.control_of == "cyclic 6")
        base = next(i for i, e in enumerate(cat) if e.name == "cyclic 6")
        i, j = min(base, control), max(base, control)
        rec = next(r for r in records if r.pair == (i, j))
        if not (rec.base_iso == "yes" and rec.power_iso == "yes"):
            problems.append("positive control pair not confirmed isomorphic")
        problems += [f.line() for f in suite_section4(group_max=6) if f.failed]
        return problems
    criterion(6, "pullbacks are isomorphisms: experiment over groups <= 6", 900, run)


def test_criterion_7_counterexample_regression(capsys):
    def run():
        problems = []
        code = cli_main(["verify", "section4", "--pair", "z2:idem2",
                         "--expect-violation"])
        out = capsys.readouterr().out
        if code != 0:
            problems.append(f"expect-violation run exited {code}")
        for needle in ("base_iso\tcyclic 2 vs idem2\tpass\tno",
                       "power_iso\tcyclic 2 vs idem2\tpass\tiso",
                       "order_preserving=True",
                       "power_compatible=False"):
            if needle not in out:
                problems.append(f"missing {needle!r} in report")
        # the exact witness: g(x^2) = 1_K != g(x)^2
        pmh = reduced_power_monoid(cyclic_group(2))
        pmk = reduced_power_monoid(idempotent_monoid2())
        w = find_isomorphism(pmh.carrier, pmk.carrier)
        rep = pullback_report(extract_pullback(pmh, pmk, w)[1])
        g = rep and extract_pullback(pmh, pmk, w)[1].map
        k = pmk.base
        if not (g[cyclic_group(2).power(1, 2)] != k.power(g[1], 2)):
            problems.append("g(x^2) == g(x)^2 unexpectedly")
        if rep.gated_failures():
            problems.append("counterexample wrongly gated as failure")
        return problems
    criterion(7, "counterexample regression via --expect-violation", 60, run)


def test_criterion_8_enumeration_self_consistency():
    def run():
        problems = []
        if len(enumerate_monoids(2)) != 2:
            problems.append("order-2 census is not 2 entries")
        raw = brute_valid_tables(3)           # independent: no dedup, no pruning
        classes = []
        for t in raw:
            m = FiniteMonoid(t)
            for cls in classes:
                if find_isomorphism(m, cls[0]) is not None:
                    cls.append(m)
                    break
            else:
                classes.append([m])
        census = enumerate_monoids(3)
        if not (len(classes) == len(census) == len({canonical_key(FiniteMonoid(t)) for t in raw})):
            problems.append(
                f"class counts disagree: pairwise={len(classes)} census={len(census)}")
        rng = random.Random(0)
        for entry in enumerate_monoids(2) + census + enumerate_monoids(4):
            m = entry.monoid
            for _ in range(100):
                perm = list(range(m.n))
                rng.shuffle(perm)
                table = [[0] * m.n for _ in range(m.n)]
                for a in range(m.n):
                    for b in range(m.n):
                        table[perm[a]][perm[b]] = perm[m.table[a][b]]
                if canonical_key(FiniteMonoid(table)) != entry.canonical_key:
                    problems.append(f"canonical key not relabel-invariant for {entry.name}")
                    break
        return problems
    criterion(8, "enumeration self-consistency and canonical keys", 300, run)


def test_criterion_9_augmentation_functoriality():
    def run():
        problems = []
        cat = groups_catalog(6)
        pms = [reduced_power_monoid(e.monoid) for e in cat]
        pairs_checked = 0
        for i in range(len(cat)):
            for j in range(len(cat)):
                h = find_isomorphism(cat[i].monoid, cat[j].monoid)
                if h is None:
                    continue
                w = augment(h, pms[i], pms[j])   # re-validated on construction
                pb = extract_pullback(pms[i], pms[j], w)[1]
                if pb.map != h.map:
                    problems.append(f"pullback of augmentation differs from base map "
                                    f"for {cat[i].name} -> {cat[j].name}")
                pairs_checked += 1
        if pairs_checked < len(cat):
            problems.append("missed base-isomorphic pairs")
        return problems
    criterion(9, "augmentation functoriality over groups <= 6", 300, run)
