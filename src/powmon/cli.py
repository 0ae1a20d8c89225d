"""Command-line front end: construct, verify, experiment.

Reports are line-oriented TSV plus a summary block.  For a fixed
configuration the report body is byte-identical across runs; the
wall-clock timestamp appears only in the header.

Exit status, the same for verify and experiment: 0 when every gated
assertion passed (expected counterexamples are findings, not failures), 1
on an assertion failure, a search that hit its budget or, under
--expect-violation, no finding, 2 on a usage or input error, 141
(128 + SIGPIPE) when the reader of stdout went away.
"""

import argparse
import os
import sys
import time

from .census import (census_monoids, check_catalog_order, check_census_order, check_jobs,
                     groups_catalog, run_experiment)
from .errors import PowmonError
from .iso import DEFAULT_BUDGET
from .monoid import format_table, parse_monoid_spec, parse_table_file
from .powerset import format_subset, mask_of
from .suites import CASES, SUITES

USAGE_ERROR = 2
BROKEN_PIPE = 128 + 13     # as a shell reports a process killed by SIGPIPE


class Report:
    """A report on stdout or in the file `out`; use it as a context
    manager, which closes the file (or flushes stdout) on every path.
    Nothing is written, and no file is opened, before the first line, so
    an input error a run meets before its first record leaves no output."""

    def __init__(self, out, title, config):
        self.out, self.fh = out, None
        self.header = [f"# powmon {title}", f"# config: {config}",
                       f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"]

    def emit(self, line=""):
        if self.fh is None:
            self.fh = open(self.out, "w") if self.out else sys.stdout
            for head in self.header:
                self.fh.write(head + "\n")
        self.fh.write(line + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.fh is sys.stdout:
            self.fh.flush()
        elif self.fh is not None:
            self.fh.close()


def _records(suite, notes):
    """Yield the suite's records, then add the notes it returns to `notes`."""
    notes.extend((yield from suite) or ())


def _report(args, title, config, suites):
    """Write each suite, given as (name, generator), and return the exit status.

    Each record's line is written as the suite yields it; only counters
    are kept: cases and failures per suite, findings over the run.  After
    a suite's records come its `# summary:` line and the notes its
    generator returns.  An error a suite raises propagates after the
    lines already written.
    """
    failures = findings = 0
    with Report(args.out, title, config) as out:
        for name, suite in suites:
            cases = failed = 0
            notes = []
            for r in _records(suite, notes):
                out.emit(r.line())
                cases += 1
                failed += r.failed
                # violations seen outside their hypotheses, pinned counterexamples included
                findings += len(r.findings) + (r.checker == "expected_violation" and not r.failed)
            out.emit(f"# summary: suite={name} cases={cases} failures={failed}")
            for note in notes:
                out.emit(f"# note: {note}")
            failures += failed
        return _status(args, out, failures, findings)


def _status(args, out, failures, findings):
    """The exit status: 1 on a failure, or under --expect-violation when
    nothing was found; the --expect-violation verdict goes to `out`."""
    if args.expect_violation:
        if findings == 0:
            out.emit("# expect-violation: FAILED (no violation finding occurred)")
            return 1
        out.emit(f"# expect-violation: ok ({findings} findings)")
    return 1 if failures else 0


def _describe(m, report):
    report.emit(f"name: {m.name}")
    report.emit(format_table(m).rstrip("\n"))
    report.emit("identity: " + str(m.identity))
    report.emit("orders: " + " ".join(str(o) for o in m.orders()))
    units = format_subset(mask_of(m.units(), m.n))   # also the cancellative elements
    report.emit("cancellative elements: " + units)
    report.emit("units: " + units)
    report.emit(f"group: {str(m.is_group()).lower()}")
    report.emit(f"commutative: {str(m.is_commutative()).lower()}")


def cmd_construct(args):
    spec = args.spec
    if spec[0] == "table" and len(spec) == 2:
        m = parse_table_file(spec[1])
    elif len(spec) == 1 and spec[0] != "table":
        m = parse_monoid_spec(spec[0])
    else:
        raise ValueError("construct expects: SPEC (such as cmon2.2 or z2xz3) | table PATH")
    with Report(args.out, "construct " + " ".join(spec), _config({})) as report:
        _describe(m, report)
    return 0


def _set_flags(args, flags):
    """The flags among `flags` that are set (an unset flag is None), by name."""
    return {k: getattr(args, k) for k in flags if getattr(args, k, None) is not None}


def _config(given):
    return " ".join(f"{k.replace('_', '-')}={v}" for k, v in given.items()) or "(defaults)"


# each verify flag goes to the suite or case parameter of the same name;
# --jobs, which must be 1, is read by `verify all` itself
VERIFY_FLAGS = ("max_order", "group_max", "budget", "jobs",
                "pair", "monoid", "subset", "n", "universe")


def _params(fn):
    """The names of fn's parameters, in order; a wrapper that sets
    __wrapped__ (functools.wraps) is read through to the function it wraps."""
    code = getattr(fn, "__wrapped__", fn).__code__
    return code.co_varnames[:code.co_argcount]


def _first_param(fn):
    return next(iter(_params(fn)))


def _readers(flag):
    """Labels of the verify runs that read `flag`."""
    if flag == "jobs":
        return ["all"]
    runs = list(SUITES.items()) + [(f"{n} --{_first_param(fn)}", fn) for n, fn in CASES.items()]
    return [label for label, fn in runs if flag in _params(fn)]


def cmd_verify(args):
    given = _set_flags(args, VERIFY_FLAGS)
    if args.suite == "all":
        runs = SUITES
    else:
        case = CASES.get(args.suite)
        use_case = case is not None and _first_param(case) in given
        runs = {args.suite: case if use_case else SUITES[args.suite]}
    read = {p for fn in runs.values() for p in _params(fn)}
    if args.suite == "all":
        read.add("jobs")
    for flag in given:
        if flag not in read:
            readers = _readers(flag)
            raise ValueError(f"--{flag.replace('_', '-')} belongs to the verify "
                             f"run{'s' * (len(readers) > 1)} {', '.join(readers)}")
    if "max_order" in given:
        check_census_order(given["max_order"])
    if "group_max" in given:
        check_catalog_order(given["group_max"])
    check_jobs(given.get("jobs", 1))
    suites = [(name, fn(**{k: v for k, v in given.items() if k in _params(fn)}))
              for name, fn in runs.items()]
    return _report(args, f"verify {args.suite}", _config(given), suites)


def cmd_experiment(args):
    max_order = args.max_order or (6 if args.mode == "groups" else 2)
    groups = args.mode == "groups"
    (check_catalog_order if groups else check_census_order)(max_order)
    check_jobs(args.jobs)
    entries = groups_catalog(max_order) if groups else census_monoids(max_order)
    _, summary = run_experiment(entries, mode=args.mode, budget=args.budget, jobs=args.jobs)
    with Report(args.out, f"experiment {args.mode}",
                _config(_set_flags(args, ("max_order", "budget", "jobs")))) as out:
        for line in summary.lines():
            out.emit(line)
        return _status(args, out, len(summary.failures), summary.findings)


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
    p.add_argument("--budget", type=int, default=None)
    # --jobs accepts only 1 (check_jobs); it stays while perfbench passes it
    p.add_argument("--jobs", type=int, default=None, help="must be 1: one process decides every suite")
    p.add_argument("--out", default=None)
    p.add_argument("--pair", default=None, help="section4 single pair, e.g. z2:idem2")
    p.add_argument("--monoid", default=None, help="lemma31 single-case monoid spec")
    p.add_argument("--subset", default=None, help="--monoid subset literal, e.g. 0,1 (default: all)")
    p.add_argument("--n", type=int, default=None, help="--monoid exponent")
    p.add_argument("--universe", choices=["full", "reduced"], default=None,
                   help="--monoid universe")
    p.add_argument("--expect-violation", action="store_true", dest="expect_violation")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="pairwise census experiment")
    p.add_argument("mode", choices=["groups", "monoids"])
    p.add_argument("--max-order", type=int, default=None, dest="max_order")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1, help="must be 1: one process decides every pair")
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
