"""Regenerate the frozen inputs and reference verdicts in perfbench/data.

Run from the repository root:

    python3 perfbench/regen.py

It enumerates the order <= 5 census with the powmon in src/, stores the
tables in canonical-key order, and records the verdicts of the full
37 401-pair monoid experiment over the stored tables, the order and
name of each entry of the order <= 8 group catalog, the verdicts of the
CLI's `experiment groups --max-order 8` and the `verify all` summary
lines.  It refuses to write a
census whose class counts are not 1, 2, 7, 35, 228, or a monoid reference
other than the 273 diagonal pairs plus the 641 known exceptions.  The full
experiment takes about a minute on the pure kernels.
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from powmon import cli  # noqa: E402
from powmon.census import census_monoids, groups_catalog, run_experiment  # noqa: E402
from workloads import VERDICT_COLUMNS, WORKLOADS  # noqa: E402
from child import census_entries  # noqa: E402

KNOWN_EXCEPTIONS = 641


def _flag_text(value):
    return "-" if value is None else str(value).lower()


def write_census():
    lines = ["# order<TAB>rows of the Cayley table; identity is element 0"]
    for e in census_monoids(len(workloads.CENSUS_COUNTS)):
        rows = " ".join("".join(str(v) for v in row) for row in e.monoid.table)
        lines.append(f"{e.monoid.n}\t{rows}")
    workloads.CENSUS_FILE.write_text("\n".join(lines) + "\n")
    return workloads.load_census()


def write_power_iso_reference(census):
    indices = list(range(len(census)))
    records, _ = run_experiment(census_entries(census, indices), mode="monoids")
    ref = {}
    for r in records:
        i, j = r.pair
        if r.base_iso != ("yes" if i == j else "no") or r.power_iso not in ("yes", "no"):
            raise SystemExit(f"unexpected base verdict for pair {i}:{j}: {r}")
        if r.power_iso == "yes":
            ref[i, j] = (r.pullback_ok, r.cardinality_preserving)
    exceptions = sum(1 for i, j in ref if i != j)
    if exceptions != KNOWN_EXCEPTIONS or len(ref) - exceptions != len(census):
        raise SystemExit(f"{len(ref)} power-isomorphic pairs with {exceptions} exceptions")
    lines = ["i\tj\tpullback_ok\tcardinality_preserving"]
    lines.extend(f"{i}\t{j}\t{_flag_text(p)}\t{_flag_text(c)}" for (i, j), (p, c) in sorted(ref.items()))
    workloads.POWER_ISO_FILE.write_text("\n".join(lines) + "\n")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"powmon {' '.join(argv)} exited with {code}")
    return out.getvalue()


def write_groups_catalog():
    lines = ["order\tname"]
    lines.extend(f"{e.monoid.n}\t{e.name}" for e in groups_catalog(workloads.GROUPS_MAX_ORDER))
    workloads.GROUPS_CATALOG_FILE.write_text("\n".join(lines) + "\n")


def write_groups_reference():
    header, rows, _ = workloads.parse_report(run_cli(workloads.GROUPS_ARGV))
    columns = ("H", "K") + VERDICT_COLUMNS
    lines = ["\t".join(columns)]
    for row in rows:
        named = dict(zip(header, row))
        lines.append("\t".join(named[c] for c in columns))
    workloads.GROUPS_FILE.write_text("\n".join(lines) + "\n")


def write_verify_reference():
    _, _, comments = workloads.parse_report(run_cli(WORKLOADS["verify-all"].argv))
    workloads.VERIFY_FILE.write_text(
        "\n".join(l for l in comments if l.startswith("# summary:")) + "\n")


def main():
    census = write_census()
    write_power_iso_reference(census)
    write_groups_catalog()
    write_groups_reference()
    write_verify_reference()
    written = (workloads.CENSUS_FILE, workloads.POWER_ISO_FILE, workloads.GROUPS_CATALOG_FILE,
               workloads.GROUPS_FILE, workloads.VERIFY_FILE)
    print(f"wrote {', '.join(p.name for p in written)}")


if __name__ == "__main__":
    main()
