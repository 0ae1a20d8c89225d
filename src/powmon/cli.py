"""Command-line front end: construct, verify, experiment.

Reports are line-oriented TSV plus a summary block.  For a fixed
configuration the report body is byte-identical across runs; the
wall-clock timestamp appears only in the header.

Exit status: 0 when every gated assertion passed (expected
counterexamples are findings, not failures), 1 on an assertion failure,
2 on a usage or input error, 141 (128 + SIGPIPE) when the reader of
stdout went away.
"""

import argparse
import os
import sys
import time

from .census import (census_monoids, check_catalog_order, check_census_order,
                     groups_catalog, run_experiment)
from .errors import PowmonError
from .monoid import format_table, parse_monoid_spec, parse_table_file
from .powerset import format_subset, mask_of, parse_subset
from .suites import SUITES, SuiteReport, suite_section4
from .verify import check_solution_count

USAGE_ERROR = 2
BROKEN_PIPE = 128 + 13     # as a shell reports a process killed by SIGPIPE


class Report:
    """A report on stdout or in the file `out`; use it as a context
    manager, which closes the file (or flushes stdout) on every path."""

    def __init__(self, out, title, config):
        self.fh = open(out, "w") if out else sys.stdout
        self.emit(f"# powmon {title}")
        self.emit(f"# config: {config}")
        self.emit(f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}")

    def emit(self, line=""):
        print(line, file=self.fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.fh is sys.stdout:
            self.fh.flush()
        else:
            self.fh.close()


def _describe(m, report):
    report.emit(f"name: {m.name}")
    report.emit(format_table(m).rstrip("\n"))
    report.emit("identity: " + str(m.identity))
    report.emit("orders: " + " ".join(str(o) for o in m.orders()))
    report.emit("cancellative elements: " + (format_subset(mask_of(m.cancellative_elements(), m.n))
                                             if m.cancellative_elements() else "(none)"))
    report.emit("units: " + format_subset(mask_of(m.units(), m.n)))
    report.emit(f"group: {str(m.is_group()).lower()}")
    report.emit(f"commutative: {str(m.is_commutative()).lower()}")


def cmd_construct(args):
    spec = args.spec
    if spec[0] == "table" and len(spec) == 2:
        m = parse_table_file(spec[1])
    elif len(spec) == 1:
        m = parse_monoid_spec(spec[0])
    else:
        raise ValueError("construct expects: SPEC (such as cmon2.2 or z2xz3) | table PATH")
    with Report(args.out, "construct " + " ".join(spec), _config(args)) as report:
        _describe(m, report)
    return 0


def _config(args):
    keys = ("max_order", "group_max", "budget", "jobs", "universe")
    parts = []
    for k in keys:
        if getattr(args, k, None) is not None:
            parts.append(f"{k.replace('_', '-')}={getattr(args, k)}")
    return " ".join(parts) or "(defaults)"


def _given(*values):
    """The first value that is set (an unset flag is None)."""
    return next(v for v in values if v is not None)


def _suite_kwargs(name, args):
    mo = args.max_order
    gm = args.group_max
    if name == "lemma21":
        return {"max_order": _given(mo, 5)}
    if name == "lemma22":
        return {"census_max": _given(mo, 4), "group_max": _given(gm, 8)}
    if name in ("lemma24", "prop25"):
        return {"group_max": _given(gm, mo, 8)}
    if name == "lemma31":
        return {"max_order": _given(mo, 4)}
    if name == "thm32":
        return {"census_max": _given(mo, 4), "group_max": _given(gm, 6), "budget": args.budget}
    if name == "section4":
        return {"group_max": _given(gm, mo, 6), "budget": args.budget}
    raise ValueError(name)


def _check_scope(kwargs):
    """Refuse a suite scope above the census or catalog limit before any
    report is opened (the suites would refuse it only once running)."""
    for key in ("max_order", "census_max"):
        if key in kwargs:
            check_census_order(kwargs[key])
    if "group_max" in kwargs:
        check_catalog_order(kwargs["group_max"])


def cmd_verify(args):
    if args.pair and args.suite != "section4":
        raise ValueError("--pair belongs to the section4 suite")
    if args.monoid and args.suite != "lemma31":
        raise ValueError("--monoid belongs to the lemma31 suite")
    for flag in ("subset", "n", "universe"):
        if getattr(args, flag) is not None and not args.monoid:
            raise ValueError(f"--{flag} belongs to the lemma31 --monoid case")
    single = None
    if args.pair:
        try:
            ha, kb = args.pair.split(":", 1)
            h, k = parse_monoid_spec(ha), parse_monoid_spec(kb)
        except ValueError as exc:
            raise ValueError(f"bad --pair: {exc}")
        single = suite_section4(budget=args.budget, pair=(h, k))
    elif args.monoid:
        m = parse_monoid_spec(args.monoid)
        s_mask = parse_subset(args.subset, m.n) if args.subset else (1 << m.n) - 1
        single = SuiteReport("lemma31", [check_solution_count(
            m, s_mask, 3 if args.n is None else args.n, args.universe or "full")])
    else:
        runs = {name: _suite_kwargs(name, args)
                for name in (SUITES if args.suite == "all" else [args.suite])}
        for kwargs in runs.values():
            _check_scope(kwargs)

    findings = 0
    failures = 0
    with Report(args.out, f"verify {args.suite}", _config(args)) as report:
        def run_one(rep):
            nonlocal findings, failures
            for line in rep.lines():
                report.emit(line)
            failures += len(rep.failures)
            findings += sum(len(r.findings) for r in rep.results)
            findings += sum(1 for r in rep.results
                            if r.checker == "expected_violation" and not r.failed)

        if single is not None:
            run_one(single)
        elif args.suite == "all" and args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            workers = min(args.jobs, len(SUITES), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(SUITES[n], **kwargs) for n, kwargs in runs.items()]
                for fut in futures:       # report order fixed regardless of scheduling
                    run_one(fut.result())
        else:
            for name, kwargs in runs.items():
                run_one(SUITES[name](**kwargs))

        if args.expect_violation and findings == 0:
            report.emit("# expect-violation: FAILED (no violation finding occurred)")
            return 1
        if args.expect_violation:
            report.emit(f"# expect-violation: ok ({findings} findings)")
    return 1 if failures else 0


def cmd_experiment(args):
    max_order = _given(args.max_order, 6 if args.mode == "groups" else 2)
    if args.mode == "groups":
        entries = groups_catalog(max_order)
    else:
        entries = census_monoids(max_order)
    records, summary = run_experiment(entries, mode=args.mode,
                                      budget=args.budget, jobs=args.jobs)
    # exceptions between cancellative pairs contradict the theorem and fail
    # the run; others (the known counterexamples) are findings
    gated_failures = [r for r in summary.exceptions
                      if entries[r.pair[0]].tags["cancellative"]
                      and entries[r.pair[1]].tags["cancellative"]]
    hard_fail = bool(gated_failures or summary.pullback_failures)
    with Report(args.out, f"experiment {args.mode}", _config(args)) as report:
        report.emit("pair\tH\tK\tbase_iso\tpower_iso\tpullback_ok\tcardinality_preserving")
        for r in records:
            report.emit(r.line())
        for line in summary.lines():
            report.emit("# " + line)
        if args.expect_violation:
            ok = bool(summary.exceptions)
            report.emit(f"# expect-violation: {'ok' if ok else 'FAILED (no exception observed)'}")
            return 0 if ok and not hard_fail else 1
    return 1 if hard_fail else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="powmon",
        description="Finite monoids, their reduced power monoids, and the "
                    "checkers and experiments over them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and describe a monoid")
    p.add_argument("spec", nargs="+",
                   help="SPEC (z6, d4, klein, q8, idem2, cmon2.2, z2xz3) | table PATH")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["all"] + sorted(SUITES))
    p.add_argument("--max-order", type=int, default=None, dest="max_order")
    p.add_argument("--group-max", type=int, default=None, dest="group_max")
    p.add_argument("--budget", type=int, default=5_000_000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--pair", default=None, help="section4 single pair, e.g. z2:idem2")
    p.add_argument("--monoid", default=None, help="lemma31 single-case monoid spec")
    p.add_argument("--subset", default=None, help="--monoid subset literal, e.g. 0,1 (default: all)")
    p.add_argument("--n", type=int, default=None, help="--monoid exponent (default 3)")
    p.add_argument("--universe", choices=["full", "reduced"], default=None,
                   help="--monoid universe (default full)")
    p.add_argument("--expect-violation", action="store_true", dest="expect_violation")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="pairwise census experiment")
    p.add_argument("mode", choices=["groups", "monoids"])
    p.add_argument("--max-order", type=int, default=None, dest="max_order")
    p.add_argument("--budget", type=int, default=5_000_000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--expect-violation", action="store_true", dest="expect_violation")
    p.set_defaults(fn=cmd_experiment)

    args = parser.parse_args(argv)
    try:
        for flag in ("max_order", "group_max", "budget", "jobs"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); point it at /dev/null so
        # the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (PowmonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
