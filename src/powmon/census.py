"""Census of small monoids and groups, and the pairwise experiments.

Monoids are enumerated up to isomorphism by backtracking over Cayley
tables with the identity fixed at index 0: each assigned cell also
assigns the cells associativity forces, and lex-leader pruning keeps one
table per class (kernels.enumerate_tables).  Each is then named and
ordered by a canonical key.  The group catalog is constructive (the
classification of groups of order <= 8 is classical), with deliberate
isomorphic duplicates kept as positive controls for the experiments.
"""

import math
from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product
from types import MappingProxyType

from . import kernels
from .errors import SearchBudgetExceeded, SizeLimitExceeded
from .iso import (DEFAULT_BUDGET, Coloring, IsoWitness, enumerate_isomorphisms,
                  find_isomorphism, invariants_of, inverse_map, search_order, table_invariants)
from .monoid import FiniteMonoid, parse_monoid_spec, table_orders
from .powerset import reduced_power_monoid
from .verify import (CheckResult, cardinality_profile, check_two_to_two, extract_pullback,
                     pullback_report)

ENUMERATION_LIMIT = 5
CATALOG_LIMIT = 8


def check_census_order(n):
    """Raise SizeLimitExceeded for a census order above ENUMERATION_LIMIT."""
    if n > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"census order {n} exceeds the monoid enumeration limit {ENUMERATION_LIMIT}")


def check_catalog_order(n):
    """Raise SizeLimitExceeded for a catalog order above CATALOG_LIMIT."""
    if n > CATALOG_LIMIT:
        raise SizeLimitExceeded(f"catalog order {n} exceeds the group catalog limit {CATALOG_LIMIT}")


class CensusEntry(namedtuple("CensusEntry", "monoid canonical_key tags control_of",
                               defaults=(None,))):
    """A read-only census or catalog entry: the monoid, its canonical_key
    (None for group catalog entries), its read-only tags (only "group",
    which the experiments gate on) and, on a deliberate isomorphic catalog
    duplicate, control_of, the name of the entry it repeats.  There is no
    cancellative tag: a finite monoid is cancellative iff it is a group
    (FiniteMonoid.is_cancellative), so "group" carries that bit."""
    __slots__ = ()

    @property
    def name(self):
        return self.monoid.name


def _tags(m):
    return MappingProxyType({"group": m.is_group()})


def canonical_key(m):
    """Relabeling-invariant byte encoding of the Cayley table.

    m is a FiniteMonoid, or the flat table of a monoid whose identity is
    0, as kernels.enumerate_tables yields them; a table is read as it is,
    without building or validating a FiniteMonoid of it.

    Elements are partitioned by invariant vectors (the identity's class is
    always first since only it has order 1); candidate relabelings respect
    that partition, and the key is the lexicographically smallest
    relabeled table.  Two monoids get equal keys iff they are isomorphic.
    """
    if isinstance(m, FiniteMonoid):
        n, flat, vecs = m.n, m.flat, invariants_of(m)
    else:
        flat = bytes(m)
        n = math.isqrt(len(flat))
        vecs = table_invariants(n, flat, table_orders(n, flat, 0))
    rows = [flat[a * n:a * n + n] for a in range(n)]
    classes = {}
    for a in range(n):
        classes.setdefault(vecs[a], []).append(a)
    ordered = [classes[v] for v in sorted(classes)]
    best = None
    for choice in product(*(permutations(c) for c in ordered)):
        seq = [a for group in choice for a in group]
        pos = [0] * n
        for new, old in enumerate(seq):
            pos[old] = new
        relabeled = bytes(pos[rows[a][b]] for a in seq for b in seq)
        if best is None or relabeled < best:
            best = relabeled
    return bytes([n]) + best


@lru_cache(maxsize=None)
def enumerate_monoids(n):
    """All monoids of order n up to isomorphism, sorted by canonical key.

    The result is cached, so it is immutable: a tuple of frozen entries.
    Each enumerated table is keyed as it is, and only the keyed table,
    key[1:], is built and validated: a relabeling preserves the identity
    and associativity, so that validation certifies the enumerated table
    too.
    """
    if n < 1:
        raise ValueError("order must be positive")
    check_census_order(n)
    keys = set()
    for flat in kernels.enumerate_tables(n):
        key = canonical_key(flat)
        if key in keys:
            raise AssertionError(f"order-{n} enumeration yielded two tables of one class")
        keys.add(key)
    out = []
    for idx, key in enumerate(sorted(keys)):
        m = FiniteMonoid(key[1:], name=f"monoid{n}.{idx}")     # key[1:] is the flat table
        out.append(CensusEntry(m, key, _tags(m)))
    return tuple(out)


def census_monoids(max_order):
    """Census entries of every order from 1 to max_order."""
    out = []
    for n in range(1, max_order + 1):
        out.extend(enumerate_monoids(n))
    return out


_CATALOG_SPECS = (
    (1, "z1", None),
    (2, "z2", None),
    (3, "z3", None),
    (4, "z4", None),
    (4, "klein", None),
    (5, "z5", None),
    (6, "z6", None),
    (6, "d3", None),
    (6, "z2xz3", "cyclic 6"),
    (7, "z7", None),
    (8, "z8", None),
    (8, "z4xz2", None),
    (8, "z2xz2xz2", None),
    (8, "d4", None),
    (8, "q8", None),
)


@lru_cache(maxsize=None)
def groups_catalog(max_order):
    """The standard groups of each order <= max_order (max CATALOG_LIMIT).

    The result is cached, so it is immutable: a tuple of frozen entries,
    built and validated once per process and order.

    Entries tagged control_of are deliberate isomorphic duplicates (e.g.
    cyclic 2 x cyclic 3 alongside cyclic 6), kept so the experiments also
    confirm the easy direction of the biconditional.  The catalog is
    sorted into isomorphism classes by _classify: every non-control entry
    must start a class of its own and every control must join its
    target's class.  A pair of classes that a budget hit left unresolved
    is an error too, never a pass.
    """
    check_catalog_order(max_order)
    out = []
    for order, spec, control in _CATALOG_SPECS:
        if order > max_order:
            continue
        m = parse_monoid_spec(spec)
        out.append(CensusEntry(m, None, _tags(m), control_of=control))
    classes = _classify([e.monoid for e in out], DEFAULT_BUDGET)
    if classes.unresolved:
        a, b = (out[classes.reps[c]].name for c in min(classes.unresolved))
        raise AssertionError(f"catalog entries {a} and {b} are unresolved: a search hit the budget")
    first = {}      # class -> the name of its first non-control entry
    for e, c in zip(out, classes.of):
        if e.control_of is None:
            if c in first:
                raise AssertionError(f"catalog entries {first[c]} and {e.name} are isomorphic")
            first[c] = e.name
    for e, c in zip(out, classes.of):
        if e.control_of is not None and first.get(c) != e.control_of:
            raise AssertionError(f"control {e.name} is not isomorphic to {e.control_of}")
    return tuple(out)


def verdict(status):
    """The record status of a search status: a budget hit decides nothing, so it fails."""
    return "fail" if status == "budget-exceeded" else "pass"


class PowerIsoResult(namedtuple("PowerIsoResult", "status witness pm_src pm_dst two_to_two "
                                 "extraction pullback report cardinality_preserving",
                                 defaults=(None,) * 8)):
    """Whether P_fin,1(H) ~ P_fin,1(K); status is "iso", "absent" or
    "budget-exceeded".  The facts after pm_dst (the IsoWitness, the
    two-to-two and extraction CheckResults, the Pullback g: H -> K, its
    PullbackReport and whether the witness preserves |X|) are None unless
    status is "iso", and a failed check leaves the ones after it None.
    failed decides the result, and record() takes its status from it: a budget
    hit, or a failed two-to-two or extraction check, is a fail record (exit
    status 1), never an exception."""
    __slots__ = ()

    @property
    def subject(self):
        return f"{self.pm_src.base.name} vs {self.pm_dst.base.name}"

    @property
    def failed(self):
        """The verdict of record(), decided without formatting any record."""
        if self.status != "iso":
            return verdict(self.status) == "fail"
        return self.two_to_two.failed or self.extraction.failed or self.report.failed

    def checks(self):
        """An "iso" result's records in the order decided, up to its first failure."""
        return [r for r in (self.two_to_two, self.extraction, self.report and self.report.result())
                if r is not None]

    def record(self):
        """The last of checks() if "iso", else a power_iso_search record."""
        if self.status == "iso":
            return self.checks()[-1]
        detail = "proven-absent" if self.status == "absent" else "budget exceeded: absence unproven"
        return CheckResult("power_iso_search", self.subject, "fail" if self.failed else "pass",
                           detail)


def power_isomorphism(pm_src, pm_dst, budget=DEFAULT_BUDGET):
    """power_pair of the two carriers classed as a batch of two: absence
    requires an exhausted search or a color mismatch, and a budget hit
    gives a "budget-exceeded" result, which PowerIsoResult.record() fails.
    Subset cardinality is deliberately not a search invariant (whether it
    is preserved is open); element order, idempotency and divisibility
    profiles of the carriers are."""
    pms = [pm_src, pm_dst]
    return power_pair(_classify([pm.carrier for pm in pms], budget), pms, 0, 1)


def power_iso_facts(pm_src, pm_dst, witness):
    """The "iso" result for a known carrier isomorphism, the one place where
    Theorem 3.2 is decided: check_two_to_two, then extract_pullback only if
    it passed, then pullback_report only if extraction passed.  A failed
    check is a fail record (exit status 1), never an exception."""
    two_to_two = check_two_to_two(pm_src, pm_dst, witness)
    preserving = cardinality_profile(pm_src, pm_dst, witness)
    extraction = pullback = report = None
    if not two_to_two.failed:
        extraction, pullback = extract_pullback(pm_src, pm_dst, witness)
        report = pullback and pullback_report(pullback)
    return PowerIsoResult("iso", witness, pm_src, pm_dst, two_to_two, extraction, pullback, report,
                          preserving)


def power_pair(classes, pms, i, j):
    """The PowerIsoResult of carriers i and j of a power_classes batch:
    "absent" or "budget-exceeded" across two classes, else power_iso_facts
    of the composed witness f_j o f_i^-1, f_i and f_j the classes' maps
    from the representative onto i and j, re-validated by IsoWitness.  A
    self-pair is its identity map, without a search, and a pair from the
    representative gets f_j itself."""
    pm_src, pm_dst = pms[i], pms[j]
    status = classes.status(i, j)
    if status != "yes":
        return PowerIsoResult("absent" if status == "no" else status, pm_src=pm_src, pm_dst=pm_dst)
    fj = classes.maps[j]
    composed = [fj[a] for a in inverse_map(classes.maps[i])]
    return power_iso_facts(pm_src, pm_dst, IsoWitness(pm_src.carrier, pm_dst.carrier, composed))


def power_isomorphisms(classes, pms, budget=DEFAULT_BUDGET):
    """Yield the "iso" result of every isomorphism from carrier i onto
    carrier j of a power_classes batch, for every pair i <= j in pair
    order that the classes leave open, or one "budget-exceeded" result
    for a pair whose listing hit the budget.  A pair the classes prove
    non-isomorphic yields nothing, without a search.

    Aut(P(rep)) of each class's representative is listed once, with the
    classes' Coloring, at the class's first pair (rep, rep).  An in-class
    pair (i, j) gets the maps f_j o s o f_i^-1 for s in Aut(P(rep)), f_i
    and f_j the classes' validated maps from rep onto i and j, each
    re-validated by IsoWitness, and the representative's self-pair the
    listed maps as they are.  f_i^-1 and the search order of carrier i's
    colors are computed once per member i that has such a composed pair.

    These are the maps, in the order, of enumerate_isomorphisms(i, j,
    budget, coloring) on the pair alone.  The maps: an isomorphism
    composed of isomorphisms is one, so s -> f_j o s o f_i^-1 sends
    Aut(P(rep)) into Iso(i, j); it is injective, as f_i and f_j are
    bijections, and onto, as any p in Iso(i, j) is the image of
    f_j^-1 o p o f_i.  The order: the search of (i, j) assigns carrier
    i's elements in search_order of its colors and tries candidates in
    increasing order, and a variable it does not branch on is forced by
    the choices before it, so two maps it yields first differ at a
    variable it branched on, the smaller image first.  It yields its maps
    sorted by their images in that order, which is how the composed maps
    are sorted.

    A listing of Aut(P(rep)) that hits the budget leaves every in-class
    pair of its class with one "budget-exceeded" result, even where a
    listing of that pair alone would finish.  A pair across two classes
    that a budget hit left unresolved has no composed maps, so it is
    listed on its own.

    A class's last pair is (last, last), last its last member, so its
    list is dropped once that pair is answered: the sweep keeps a class's
    list only while some of its pairs are still to come.
    """
    def listed(m1, m2):
        try:
            return enumerate_isomorphisms(m1, m2, budget, classes.coloring)
        except SearchBudgetExceeded:
            return None

    last = {c: i for i, c in enumerate(classes.of)}     # class -> its last member
    auts = {}       # class -> the IsoWitnesses of Aut(P(rep)), or None after a budget hit
    for i, pm_src in enumerate(pms):
        c = classes.of[i]
        rep, src = classes.reps[c], pm_src.carrier
        if i == rep:
            auts[c] = listed(src, src)
        if auts[c] is not None and last[c] != rep:      # i has a composed pair
            inv = inverse_map(classes.maps[i])
            order = search_order(classes.coloring.colors_of(src))
        for j in range(i, len(pms)):
            pm_dst, status = pms[j], classes.status(i, j)
            if status == "no":
                continue
            if status == "budget-exceeded":
                witnesses = listed(src, pm_dst.carrier)
            elif auts[c] is None or i == j == rep:
                witnesses = auts[c]
            else:
                fj = classes.maps[j]
                maps = sorted(([fj[s[x]] for x in inv] for s in (w.map for w in auts[c])),
                              key=lambda mp: [mp[a] for a in order])
                witnesses = [IsoWitness(src, pm_dst.carrier, mp) for mp in maps]
            if i == j == last[c]:
                del auts[c]
            if witnesses is None:
                yield PowerIsoResult("budget-exceeded", pm_src=pm_src, pm_dst=pm_dst)
            else:
                yield from (power_iso_facts(pm_src, pm_dst, w) for w in witnesses)


class ExperimentRecord(namedtuple("ExperimentRecord", "pair names base_iso power_iso pullback_ok "
                                     "cardinality_preserving")):
    """One census pair: its (i, j) indices into the census, their names, and
    base_iso and power_iso, each "yes", "no" or "budget-exceeded".  The
    facts after them are None when there is no power isomorphism to check."""
    __slots__ = ()

    HEADER = "pair\tH\tK\tbase_iso\tpower_iso\tpullback_ok\tcardinality_preserving"

    def line(self):
        (i, j), (h, k), base_iso, power_iso, pullback_ok, preserving = self
        return (f"{i}:{j}\t{h}\t{k}\t{base_iso}\t{power_iso}\t"
                f"{_FLAG[pullback_ok]}\t{_FLAG[preserving]}")


_FLAG = {None: "-", True: "true", False: "false"}


class ExperimentSummary(namedtuple("ExperimentSummary", "mode records biconditional_holds exceptions "
                                      "budget_exceeded pullback_failures "
                                      "cardinality_always_preserved failures findings")):
    """The records of an experiment and what they add up to; exceptions are
    the records violating "power iso <=> base iso"."""
    __slots__ = ()

    @property
    def pairs(self):
        return len(self.records)

    def lines(self):
        """The report body, line by line: the TSV header, the records, then
        the summary, each line made only when it is asked for."""
        yield ExperimentRecord.HEADER
        yield from map(ExperimentRecord.line, self.records)
        yield f"# mode: {self.mode}"
        yield f"# pairs: {self.pairs}"
        yield f"# power-iso-iff-base-iso: {'holds' if self.biconditional_holds else 'FAILS'}"
        yield f"# exceptions: {len(self.exceptions)}"
        for r in self.exceptions:
            yield (f"#   exception: {r.names[0]} vs {r.names[1]} "
                   f"(base_iso={r.base_iso}, power_iso={r.power_iso})")
        yield f"# budget-exceeded pairs: {len(self.budget_exceeded)}"
        for r in self.budget_exceeded:
            yield f"#   budget-exceeded: {r.names[0]} vs {r.names[1]}"
        yield f"# pullback failures: {len(self.pullback_failures)}"
        for r in self.pullback_failures:
            yield f"#   pullback failure: {r.names[0]} vs {r.names[1]}"
        yield ("# cardinality profile: all observed isomorphisms "
               + ("preserve |X| (asserted nowhere; the question is open)"
                  if self.cardinality_always_preserved else "do NOT all preserve |X|"))


class _Classes(namedtuple("_Classes", "of maps reps unresolved coloring")):
    """A batch sorted into isomorphism classes by _classify: of[i] is the
    class of monoid i, maps[i] the map of a validated IsoWitness from its
    class's representative onto it (range(n) on the representative),
    reps[c] the index of class c's representative, its first member,
    unresolved holds the pairs of classes, in both orders, that a budget
    hit left unseparated, and coloring is the batch's Coloring."""
    __slots__ = ()

    def status(self, i, j):
        """"yes", "no" or "budget-exceeded" for monoids i and j of the batch."""
        a, b = self.of[i], self.of[j]
        if a == b:
            return "yes"
        return "budget-exceeded" if self.unresolved and (a, b) in self.unresolved else "no"


def _classify(monoids, budget):
    """Sort a batch into isomorphism classes, searching each monoid only
    against the representatives of the same Coloring.class_key.

    The monoids are taken in order.  Each is searched from the earlier
    representatives of its key until one search finds a witness
    rep -> monoid; it then joins that class and keeps the witness.
    Otherwise it becomes the representative of a new class, without a
    search when no representative shares its key, so a monoid alone in
    its bucket is never refined, and one alone in its order profile never
    has its element invariants computed either.  A search that hits the
    budget leaves the pair of classes of the monoid and that
    representative unresolved.

    Two monoids of different classes are non-isomorphic unless their
    classes are unresolved.  Let i ~ a and j ~ b, for representatives a
    and b of different classes.  If a and b have different keys, their
    colors prove a and b non-isomorphic.  Otherwise the later of them, say
    a, was searched from b before it became a representative: the search
    either exhausted without a witness, a proof that b and a are
    non-isomorphic, or hit the budget and left the two classes
    unresolved.  An isomorphism i -> j would give one a -> b through the
    validated witnesses, so none exists.

    The witnesses run from the representative, so maps[m] of a member m
    is the map of find_isomorphism(r, m, budget, coloring), r = reps[of[m]]
    its representative, the witness of a search of that pair alone.  A
    self-pair gets the identity without a search, even under a budget
    below its order, where find_isomorphism would search.
    """
    coloring = Coloring(monoids)
    keyed = {}      # class key -> [(class, representative)]
    of, maps, reps, unresolved = [], [], [], set()
    for m in monoids:
        candidates = keyed.setdefault(coloring.class_key(m), [])
        cls = witness = None
        hits = []
        for c, rep in candidates:
            try:
                witness = find_isomorphism(rep, m, budget, coloring)
            except SearchBudgetExceeded:
                hits.append(c)
                continue
            if witness is not None:
                cls = c
                break
        if cls is None:
            cls = len(reps)
            reps.append(len(of))
            candidates.append((cls, m))
        of.append(cls)
        maps.append(witness.map if witness else range(m.n))
        unresolved.update(pair for c in hits for pair in ((c, cls), (cls, c)))
    return _Classes(tuple(of), tuple(maps), tuple(reps), frozenset(unresolved), coloring)


def power_classes(entries, budget):
    """The entries' reduced power monoids, each built once, and the
    _classify classes of their carriers."""
    pms = tuple(reduced_power_monoid(e.monoid) for e in entries)
    return pms, _classify([pm.carrier for pm in pms], budget)


@lru_cache(maxsize=None)
def catalog_power_classes(max_order, budget):
    """power_classes of groups_catalog(max_order), controls included.

    The result is cached, as the catalog is: the sweeps that read catalog
    pairs share one build and one classing of its carriers per process,
    order and budget.
    """
    return power_classes(groups_catalog(max_order), budget)


def _experiment_pair(i, j, pms, bases, carriers):
    """The record of census pair (i, j), read from the _classify classes of
    the bases and of the carriers; power_pair decides an in-class carrier
    pair's facts."""
    power_iso = carriers.status(i, j)
    res = power_pair(carriers, pms, i, j) if power_iso == "yes" else None
    return ExperimentRecord(
        (i, j), (pms[i].base.name, pms[j].base.name), bases.status(i, j), power_iso,
        res and not res.failed, res and res.cardinality_preserving)


# --jobs and run_experiment's jobs= accept only 1; they remain because
# perfbench's workloads pass them, and go once perfbench stops doing so
def check_jobs(jobs):
    """Raise ValueError unless jobs is 1: every run is decided in this process."""
    if jobs != 1:
        raise ValueError(f"--jobs must be 1, got {jobs}: every run is decided in one process")


def run_experiment(entries, mode="groups", budget=DEFAULT_BUDGET, jobs=1):
    """Decide base and power isomorphism for every unordered census pair.

    Returns (records, summary), the records in pair order.  Each entry's
    reduced power monoid is built once.  Isomorphism is an equivalence,
    so the bases and the carriers are each sorted into classes once
    (_classify), and every pair is read from its classes:

    - a pair in one class is "yes"; a self-pair needs no search;
    - an in-class carrier pair gets the composed map f_j o f_i^-1 of the
      two validated witnesses from the class representative, re-validated
      by IsoWitness, and power_iso_facts decides its facts (power_pair);
    - a pair in two classes is "no": _classify proves the classes distinct
      by colors or by an exhausted search from a representative, through
      the validated witnesses;
    - a pair in two classes that a budget hit left unresolved is
      "budget-exceeded", never "no", and, as in every verify sweep, a
      failure.

    A hit leaves every pair between the two classes unresolved, even
    where a per-pair search would have decided some.  Self-pairs never hit
    the budget.  Entries' canonical keys are not read.  jobs must be 1
    (check_jobs).
    """
    check_jobs(jobs)
    # the records read neither batch's Coloring: each is let go as soon as
    # its batch is classed, the carriers' before the bases are classed
    pms, carriers = power_classes(entries, budget)
    carriers = carriers._replace(coloring=None)
    bases = _classify([pm.base for pm in pms], budget)._replace(coloring=None)
    records = [_experiment_pair(i, j, pms, bases, carriers)
               for i in range(len(pms)) for j in range(i, len(pms))]
    hit = {r.pair for r in records if "budget-exceeded" in (r.base_iso, r.power_iso)}
    exceptions = [r for r in records if r.pair not in hit and r.base_iso != r.power_iso]
    # an exception between cancellative entries (groups, being finite)
    # contradicts the theorem; the others (the known counterexamples) are findings
    gated = {r.pair for r in exceptions
             if entries[r.pair[0]].tags["group"] and entries[r.pair[1]].tags["group"]}
    summary = ExperimentSummary(
        mode=mode,
        records=records,
        biconditional_holds=not exceptions and not hit,
        exceptions=exceptions,
        budget_exceeded=[r for r in records if r.pair in hit],
        pullback_failures=[r for r in records if r.pullback_ok is False],
        cardinality_always_preserved=all(r.cardinality_preserving is not False for r in records),
        failures=[r for r in records if r.pair in gated or r.pair in hit or r.pullback_ok is False],
        findings=len(exceptions) - len(gated),
    )
    return records, summary
