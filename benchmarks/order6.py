#!/usr/bin/env python3
"""Pin the order-6 report bodies of the census runs, with time and peak memory.

Usage:
    python benchmarks/order6.py [--json PATH] [--against DIR [--rounds N]] [RUN ...]
        RUN: lemma21 lemma22 lemma31 thm32 experiment (default: all)

Each suite RUN is `powmon verify RUN --max-order 6`, and `experiment` is
`powmon experiment monoids --max-order 6` (3 151 305 pairs).  Each is made
in a child process of its own that raises census.ENUMERATION_LIMIT to 6 in
that process only.
stdout goes to a sink that hashes the report body and keeps nothing.  The
body is every line, with its newline, but the `# generated:` and
`# config:` header lines, as in tests/test_cli.py::test_report_body_digest.
For each run this prints the body's sha256, the wall time and the child's
peak resident memory (VmHWM), and exits 1 when a digest differs from its
pin, a run exits non-zero, or a peak exceeds its bound.  It is not part of
the test suite: thm32 alone takes minutes.

With --json PATH it also writes {"records": [...]} to PATH, one record per
run: the run, the kernel backend the child loaded, its exit code, the
body digest and whether it matches the pin, wall_s, peak_mb, the printed
verdict, the Python version, nproc and the sha256 of src/powmon (its
files but bytecode and built extensions, as perfbench's src_sha256).  A
child that failed has null in the fields it could not report.

With --against DIR it also runs the checkout in DIR, a tree with the
same layout (say a `git archive` of the parent commit), through this
script's harness: each of N rounds (--rounds, default 1) makes every RUN
once on each side, DIR first in odd rounds and this checkout first in
even ones, so that drift of the host falls on both.  Each row then starts
with its side (`against` or `this`) and round, and one row per run and
side, its round `median`, ends the table with the median wall_s and
peak_mb.  The JSON records carry
the same two fields, and the file adds "against", "rounds" and
"medians" ({run: {side: {"wall_s", "peak_mb"}}}).  Both sides load the
kernel backend their own tree provides, built or not, under the same
POWMON_PURE; the records name it.

The experiment keeps all its records until the summary is written, so
its peak grows with the pair count; its bound is about 10 % above the
peak of that design, 834 MB on either backend.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# run -> (sha256 of the order-6 body, peak-RSS bound in MB)
PINS = {
    "lemma21": ("49c99f8bdd5130c2ce39764b7b24eb3047d2db8f5928150aaeeafc72ae947e2b", 64),
    "lemma22": ("597aaeeaea1e52a44fb72b1ff0a4227f994cf5d80085d6a4bc04588e9da8dedf", 64),
    "lemma31": ("1d6739cbfb829e90b4d3f3668f4413ff01f8eafa2b8719e83a3b93a2464d0dc4", 64),
    "thm32": ("83b00affa8680234c851379a7798b1c590be08a06c9bfb6bea3ba2f88a0d7abf", 96),
    "experiment": ("8871ff425c3dadbdd5e61186b5d482013453e3f917cc5b6627e2fc4ea50b303e", 920),
}

SKIPPED = ("# generated:", "# config:")
PKG = Path(__file__).resolve().parents[1] / "src" / "powmon"


def argv_of(run):
    """The powmon arguments of a run."""
    if run == "experiment":
        return ["experiment", "monoids", "--max-order", "6"]
    return ["verify", run, "--max-order", "6"]


class BodyHash:
    """A text stream that hashes the report body line by line; it keeps
    only the unfinished line, since a writer may split a line over
    several writes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.tail = ""

    def write(self, text):
        *lines, self.tail = (self.tail + text).split("\n")
        for line in lines:
            if not line.startswith(SKIPPED):
                self.sha.update(line.encode() + b"\n")
        return len(text)

    def flush(self):
        pass

    def hexdigest(self):
        return self.sha.hexdigest()


def body_digest(argv):
    """(exit status, body sha256) of `powmon ARGV` run in this process."""
    from powmon import cli

    sink = BodyHash()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
    return code, sink.hexdigest()


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def package_digest(pkg):
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix not in (".so", ".pyc", ".pyd")):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child(run):
    """Make one run at order 6 and print its result as one JSON line."""
    from powmon import census, kernels

    census.ENUMERATION_LIMIT = 6
    t0 = time.perf_counter()
    code, digest = body_digest(argv_of(run))
    wall = time.perf_counter() - t0
    print(json.dumps({"backend": kernels.backend, "code": code, "digest": digest, "wall_s": wall,
                      "peak_mb": peak_rss_mb()}))


def run_child(run, src):
    """The record of one run in a child process that imports powmon from src."""
    proc = subprocess.run([sys.executable, __file__, "--child", run, str(src)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        res = dict.fromkeys(("backend", "code", "digest", "wall_s", "peak_mb"))
        verdict = f"child failed ({proc.returncode}): {proc.stderr.strip()}"
        return {"run": run, **res, "digest_ok": False, "verdict": verdict}
    res = json.loads(proc.stdout)
    digest, bound = PINS[run]
    problems = [text for failed, text in ((res["code"] != 0, f"exit {res['code']}"),
                                          (res["digest"] != digest, "digest differs"),
                                          (res["peak_mb"] > bound, f"peak above {bound} MB"))
                if failed]
    return {"run": run, **res, "digest_ok": res["digest"] == digest,
            "verdict": "; ".join(problems) or "ok"}


def print_row(record, prefix=""):
    if record["code"] is None:
        print(f"{prefix}{record['run']}\t{record['verdict']}")
    else:
        print(f"{prefix}{record['run']}\t{record['code']}\t{record['digest']}\t"
              f"{record['wall_s']:.1f}\t{record['peak_mb']:.0f}\t{record['verdict']}")


def medians(records):
    """{run: {side: {"wall_s", "peak_mb"}}} over the records that have both."""
    out = {}
    for r in records:
        if r["wall_s"] is not None:
            out.setdefault(r["run"], {}).setdefault(r["side"], []).append(r)
    return {run: {side: {key: statistics.median(r[key] for r in rs)
                         for key in ("wall_s", "peak_mb")}
                  for side, rs in sides.items()}
            for run, sides in out.items()}


def host_of(pkg):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "src_sha256": package_digest(pkg)}


def main(runs, json_path=None, against=None, rounds=1):
    unknown = [r for r in runs if r not in PINS]
    if unknown:
        sys.exit(f"unknown run {', '.join(unknown)}: choose from {' '.join(PINS)}")
    runs = runs or list(PINS)
    header = "run\texit\tdigest\twall_s\tpeak_mb\tverdict"
    records = []
    if against is None:
        host = host_of(PKG)
        print(header)
        for run in runs:
            records.append({**run_child(run, PKG.parent), **host})
            print_row(records[-1])
        doc = {"records": records}
    else:
        sides = {"against": Path(against).resolve() / "src", "this": PKG.parent}
        hosts = {side: host_of(src / "powmon") for side, src in sides.items()}
        print("side\tround\t" + header)
        for rnd in range(1, rounds + 1):
            order = ("against", "this") if rnd % 2 else ("this", "against")
            for run in runs:
                for side in order:
                    record = {"side": side, "round": rnd, **run_child(run, sides[side]),
                              **hosts[side]}
                    records.append(record)
                    print_row(record, f"{side}\t{rnd}\t")
        doc = {"against": str(Path(against).resolve()), "rounds": rounds,
               "records": records, "medians": medians(records)}
        for run, by_side in doc["medians"].items():
            for side, med in by_side.items():
                print(f"{side}\tmedian\t{run}\t\t\t{med['wall_s']:.1f}\t{med['peak_mb']:.0f}")
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["verdict"] != "ok" for r in records) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, sys.argv[3])
        child(sys.argv[2])
    else:
        parser = argparse.ArgumentParser(description="Pin the order-6 report bodies.")
        parser.add_argument("runs", nargs="*", metavar="RUN", help=" ".join(PINS))
        parser.add_argument("--json", metavar="PATH", help="also write one record per run to PATH")
        parser.add_argument("--against", metavar="DIR",
                            help="also run the checkout in DIR, alternating with this one")
        parser.add_argument("--rounds", type=int, default=1, metavar="N",
                            help="rounds of runs on each side with --against (default 1)")
        args = parser.parse_args()
        if args.rounds < 1:
            parser.error(f"--rounds must be at least 1, got {args.rounds}")
        if args.rounds != 1 and args.against is None:
            parser.error("--rounds needs --against")
        sys.exit(main(args.runs, args.json, args.against, args.rounds))
