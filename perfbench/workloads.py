"""Workloads, frozen inputs and the reference verdicts they are checked against.

Each child run of a workload gets its own inputs, drawn from the run's
seed and the child's index, so one run averages over many inputs and the
same seed always gives the same inputs.

The order <= 5 monoid census is stored in data/census5.tsv in a fixed
order, so the seeded samples of the monoids-* workloads do not depend on
how powmon orders its canonical keys.  Every pair of stored indices
(i, j) with i <= j that has isomorphic reduced power monoids is listed in
data/monoids5_power_iso.tsv with its pullback and cardinality flags; all
other pairs have neither a base nor a power isomorphism.  The order and
name of each entry of powmon's order <= 8 group catalog are stored in
data/groups8_catalog.tsv, and the verdicts of all 120 pairs of the CLI's
`experiment groups --max-order 8` in data/groups8_verdicts.tsv.  The data
files are rewritten by `python3 perfbench/regen.py`.
"""

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CENSUS_FILE = DATA / "census5.tsv"
POWER_ISO_FILE = DATA / "monoids5_power_iso.tsv"
GROUPS_CATALOG_FILE = DATA / "groups8_catalog.tsv"
GROUPS_FILE = DATA / "groups8_verdicts.tsv"
VERIFY_FILE = DATA / "verify_all_summary.txt"

# monoids of order 1..5 up to isomorphism (OEIS A058133)
CENSUS_COUNTS = (1, 2, 7, 35, 228)
SAMPLE_SIZE = 40
GROUPS_MAX_ORDER = 8
GROUPS_BUDGET = 10_000_000
GROUPS_TOP_PER_CHILD = 2    # groups of the top order in one child's selection
# the CLI run that data/groups8_verdicts.tsv records
GROUPS_ARGV = ("experiment", "groups", "--max-order", str(GROUPS_MAX_ORDER),
               "--budget", str(GROUPS_BUDGET), "--jobs", "1")
VERDICT_COLUMNS = ("base_iso", "power_iso", "pullback_ok", "cardinality_preserving")


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str        # the kernel backend the run must load
    kind: str           # "monoids" or "groups": run_experiment on drawn inputs; "cli": argv
    argv: tuple = ()    # CLI arguments of a "cli" workload
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("monoids-pure", "pure", "monoids",
             why="a fresh seeded 40-monoid census sample per child, pure kernels: many small "
                 "carriers rebuilt per pair, so carrier construction dominates"),
    Workload("monoids-compiled", "compiled", "monoids",
             why="same inputs on the compiled kernels: colour refinement and "
                 "invariants dominate; a kernel-only gain should leave it flat"),
    Workload("groups-8", "pure", "groups",
             why="order<=7 groups plus 2 of the 5 order-8 groups per child (78 pairs): few "
                 "128-element carriers, so power_table dominates and validation takes the numpy path"),
    Workload("verify-all", "pure", "cli", argv=("verify", "all", "--jobs", "1"),
             why="all seven suites: cold census enumeration, canonical keys, "
                 "checkers and exhaustive automorphism search, no big carriers"),
)}


def load_census():
    """The frozen census as a list of (order, table) in stored order."""
    out = []
    for line in CENSUS_FILE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        order, rows = line.split("\t")
        n = int(order)
        table = [[int(c) for c in row] for row in rows.split()]
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{CENSUS_FILE.name}: malformed table {line!r}")
        out.append((n, table))
    counts = tuple(sum(1 for n, _ in out if n == k) for k in range(1, len(CENSUS_COUNTS) + 1))
    if counts != CENSUS_COUNTS or len(out) != sum(CENSUS_COUNTS):
        raise ValueError(f"{CENSUS_FILE.name}: class counts {counts}, want {CENSUS_COUNTS}")
    if len({str(t) for _, t in out}) != len(out):
        raise ValueError(f"{CENSUS_FILE.name}: duplicate tables")
    return out


def sample_indices(census, seed, child=0, size=SAMPLE_SIZE):
    """The seeded sample of stored census indices for one child, stratified by order.

    Each order gets its share of `size` by largest remainder, so the work
    of a sweep depends on the seed and child only through which monoids
    of each order are drawn, not through how many of the large ones.
    """
    by_order = {}
    for i, (n, _) in enumerate(census):
        by_order.setdefault(n, []).append(i)
    total = len(census)
    quota = {n: len(ids) * size // total for n, ids in by_order.items()}
    short = size - sum(quota.values())
    for n in sorted(by_order, key=lambda n: (-(len(by_order[n]) * size % total), n))[:short]:
        quota[n] += 1
    rng = random.Random(seed * 1_000_003 + child)
    return sorted(i for n in sorted(by_order) for i in rng.sample(by_order[n], quota[n]))


def load_groups_catalog():
    """[(order, name)] of powmon's group catalog up to GROUPS_MAX_ORDER, in catalog order."""
    out = []
    for line in GROUPS_CATALOG_FILE.read_text().splitlines()[1:]:
        order, name = line.split("\t")
        out.append((int(order), name))
    return out


def group_indices(catalog, seed, child=0, per_child=GROUPS_TOP_PER_CHILD):
    """Catalog indices for one child: every group below the top order and
    `per_child` groups of the top order.

    Children 0, 1, ... take the subsets of the top-order groups in a
    seeded order, one each, so with two of the five order-8 groups ten
    children cover all 120 pairs of the catalog.
    """
    top = max(order for order, _ in catalog)
    small = [i for i, (order, _) in enumerate(catalog) if order < top]
    subsets = list(itertools.combinations(
        [i for i, (order, _) in enumerate(catalog) if order == top], per_child))
    random.Random(seed).shuffle(subsets)
    return small + list(subsets[child % len(subsets)])


def _flag(text):
    return {"true": True, "false": False, "-": None}[text]


def load_power_iso_reference():
    """{(i, j): (pullback_ok, cardinality_preserving)} for power-isomorphic pairs."""
    ref = {}
    for line in POWER_ISO_FILE.read_text().splitlines()[1:]:
        i, j, pullback_ok, card = line.split("\t")
        ref[int(i), int(j)] = (_flag(pullback_ok), _flag(card))
    return ref


def load_groups_reference():
    """{(H, K): verdict tuple in VERDICT_COLUMNS order} for the 120 group pairs; flags as bools."""
    lines = GROUPS_FILE.read_text().splitlines()
    header = lines[0].split("\t")
    ref = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        ref[row["H"], row["K"]] = (row["base_iso"], row["power_iso"],
                                   _flag(row["pullback_ok"]), _flag(row["cardinality_preserving"]))
    return ref


def load_verify_reference():
    """The `# summary:` line of each suite of `verify all`, in report order."""
    return VERIFY_FILE.read_text().splitlines()


@dataclass
class Check:
    """Outcome of checking one child run against the reference."""
    attempted: int
    failed: int
    verdicts: object        # comparable across runs of the same input
    problems: list


def check_pairs(keys, records, want):
    """Records are [a, b, base_iso, power_iso, pullback_ok, card] for keys a, b of the input.

    Every pair of keys (keys[x], keys[y]) with x <= y must appear once, with
    the verdicts want(pair) gives.  Missing, unexpected and repeated pairs
    fail, as does any other verdict, budget-exceeded ones included.
    """
    expected = {(keys[a], keys[b]) for a in range(len(keys)) for b in range(a, len(keys))}
    problems = []
    failing = set()
    seen = set()
    for a, b, base_iso, power_iso, pullback_ok, card in records:
        pair = (a, b)
        wanted = want(pair)
        got = (base_iso, power_iso, pullback_ok, card)
        if pair not in expected or pair in seen or got != wanted:
            failing.add(pair)
            problems.append(f"pair {a}:{b}: got {got}, want {wanted}")
        seen.add(pair)
    missing = expected - seen
    failing |= missing
    problems.extend(f"pair {a}:{b}: missing" for a, b in sorted(missing))
    return Check(len(expected), min(len(expected), len(failing)), [tuple(r) for r in records], problems)


def check_monoids(sample, records, ref):
    """Keys are stored census indices; base_iso must be "yes" exactly on the
    diagonal, and power_iso and both flags must match the reference."""
    def want(pair):
        return (("yes" if pair[0] == pair[1] else "no", "yes" if pair in ref else "no")
                + ref.get(pair, (None, None)))
    return check_pairs(sample, records, want)


def check_groups(names, records, ref):
    """Keys are group names; every verdict must match the CLI's reference."""
    return check_pairs(names, records, ref.get)


def parse_report(text):
    """Split a CLI report into (column header, data rows, `#` lines)."""
    header = None
    rows = []
    comments = []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            if header is None and line.startswith("pair\t"):
                header = line.split("\t")
            else:
                rows.append(line.split("\t"))
    return header, rows, comments


def _suite_of(summary_line):
    return summary_line.split("suite=", 1)[1].split()[0]


def _cases_of(summary_line):
    return int(summary_line.split("cases=", 1)[1].split()[0])


def check_verify(exit_code, text, ref):
    """Each suite's `# summary:` line must equal the reference; items are check records.

    A non-zero exit fails every record; otherwise a mismatched summary
    fails all the records of that suite.
    """
    _, _, comments = parse_report(text)
    got = {_suite_of(l): l for l in comments if l.startswith("# summary:")}
    attempted = sum(_cases_of(l) for l in ref)
    problems = [f"exit code {exit_code}"] if exit_code != 0 else []
    mismatched = [want for want in ref if got.get(_suite_of(want)) != want]
    problems.extend(f"got {got.get(_suite_of(want))!r}, want {want!r}" for want in mismatched)
    failed = attempted if exit_code != 0 else sum(_cases_of(want) for want in mismatched)
    body = [l for l in text.splitlines() if not l.startswith("# generated:")]
    return Check(attempted, failed, body, problems)
