#!/usr/bin/env python3
"""End-to-end benchmark of powmon, with a traced run for per-layer numbers.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each run of a workload is a fresh child interpreter (perfbench/child.py)
with one job, in a closed loop with one client: the next child starts
only after the previous one has exited, and no child starts that the last
one's duration says would end after --seconds.  Every child pays the
per-process caches a user pays (bytecode is warm, the census lru_cache is
not).  Child k of a run sweeps the inputs drawn from (seed, k), so a run
of many short children averages over inputs as well as over the host's
moment-to-moment speed.  Every verdict is checked against the reference
in perfbench/data.

Before the first child and after every child, the loop runs
perfbench/reference.py, a fixed pure-Python job, as a child interpreter
of its own.  The host's speed moves by 30 % and more for minutes at a
time, so a child's times are reported in units of its "ref", the mean
wall time of the reference runs just before and just after it, which
cancels most of that.  End-to-end metrics (--trace 0) are medians over
the children of a run: wall_ref (spawn to exit, in refs), setup_s (spawn
to sweep start: interpreter, `import powmon`, inputs; in seconds),
items_per_ref (pairs or check records decided per ref of wall - setup)
and peak_rss_mb.  The times in seconds, and the reference's, are printed
on "# raw:" lines.  failed_ratio is printed and reported through the
"failed" and "attempted" counts.

With --trace 1, untraced and traced children alternate, all on the
inputs of child 0, so counts repeat exactly; the traced ones record
spans around powmon's public functions (perfbench/spans.py) and the
per-layer metrics are their medians.  The tracing overhead is the ratio
of traced to untraced sweep time.

The compiled backend is built from src/powmon/_core.c with the system cc
into a private copy of the package under .bench_build/perfbench, never in
src/.  The last line printed is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import reference
import spans
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PKG = ROOT / "src" / "powmon"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
RUN_LIMIT_S = 170.0     # every child is stopped by then, so a run ends within 180 s

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("items_per_ref", "1/ref"), ("peak_rss_mb", "MB"))


def mono():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def package_digest(pkg):
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".so", ".pyc", ".pyd"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def build_compiled(digest):
    """A private copy of src/powmon with _core built from the tracked _core.c.

    Returns (package root, seconds spent building); a copy built earlier
    for the same sources and interpreter is reused.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    dest = WORK / f"compiled-{sys.implementation.cache_tag}-{digest[:16]}"
    if (dest / "powmon" / f"_core{suffix}").is_file():
        return dest, 0.0
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="build-", dir=WORK))
    try:
        t0 = time.perf_counter()
        shutil.copytree(PKG, tmp / "powmon", ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
        cmd = ["cc", "-O2", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared",
               "-I", sysconfig.get_paths()["include"],
               str(tmp / "powmon" / "_core.c"), "-o", str(tmp / "powmon" / f"_core{suffix}")]
        subprocess.run(cmd, check=True, timeout=600, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        build_s = time.perf_counter() - t0
        tmp.rename(dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dest, build_s


@dataclass
class Child:
    traced: bool
    wall: float
    setup: float
    sweep: float
    rss_mb: float
    result: dict            # RESULT.json of the child, empty if it wrote none
    check: workloads.Check
    spans: list


class Bench:
    """One workload's inputs, reference and package, and the children run on them."""

    def __init__(self, workload, seed, pkg_root, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        # the caller's PYTHON* settings (unbuffered output, no bytecode cache,
        # ...) would change what a child costs, so children get the defaults
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") or k == "PYTHONHOME"}
        self.env.pop("POWMON_PURE", None)
        # a fixed string hash seed gives every child the same dict and set layouts
        self.env.update(PYTHONPATH=str(pkg_root), PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
                        PYTHONHASHSEED="0")
        if workload.backend == "pure":
            self.env["POWMON_PURE"] = "1"
        self.seed = seed
        if workload.kind == "cli":
            self.ref = workloads.load_verify_reference()
        elif workload.kind == "groups":
            self.catalog = workloads.load_groups_catalog()
            self.ref = workloads.load_groups_reference()
        else:
            self.census = workloads.load_census()
            self.ref = workloads.load_power_iso_reference()

    def inputs(self, k):
        """The sample child k sweeps: census or catalog indices, None for a CLI workload."""
        if self.workload.kind == "groups":
            return workloads.group_indices(self.catalog, self.seed, k)
        if self.workload.kind == "monoids":
            return workloads.sample_indices(self.census, self.seed, k)
        return None

    def warm_up(self):
        """Fill the bytecode cache so the first child's set-up is like the others'."""
        subprocess.run([sys.executable, "-c", "import powmon.cli"], env=self.env, check=True,
                       timeout=60, cwd=ROOT)

    def check(self, result, stdout, sample):
        kind = self.workload.kind
        records = result.get("records", [])
        if kind == "monoids":
            return workloads.check_monoids(sample, records, self.ref)
        if kind == "groups":
            names = [self.catalog[i][1] for i in sample]
            return workloads.check_groups(names, records, self.ref)
        return workloads.check_verify(result.get("exit_code", -1), stdout, self.ref)

    def spawn(self, index, traced, limit_s, sample=None):
        base = self.run_dir / f"child{index}"
        spec = {"kind": self.workload.kind, "argv": list(self.workload.argv), "sample": sample,
                "max_order": workloads.GROUPS_MAX_ORDER, "budget": workloads.GROUPS_BUDGET,
                "trace": traced, "spans": str(base) + ".spans.json"}
        Path(str(base) + ".spec.json").write_text(json.dumps(spec))
        result_path = Path(str(base) + ".result.json")
        out_path = Path(str(base) + ".out")
        with open(out_path, "wb") as out, open(str(base) + ".err", "wb") as err:
            t_spawn = mono()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(base) + ".spec.json", str(result_path)],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(limit_s, 1.0), proc.kill)
            timer.start()
            try:
                proc.wait()     # blocking, so exit is seen at once; the timer bounds it
            finally:
                timer.cancel()
            t_exit = mono()
        result = json.loads(result_path.read_text()) if result_path.is_file() else {}
        check = self.check(result, out_path.read_text(errors="replace"), sample)
        if proc.returncode != result.get("exit_code", proc.returncode):
            check.problems.append(f"child exited with {proc.returncode}")
            check.failed = check.attempted
        if result.get("backend") != self.workload.backend:
            check.problems.append(f"loaded backend {result.get('backend')!r}, "
                                  f"want {self.workload.backend!r}")
            check.failed = check.attempted
        span_path = Path(spec["spans"])
        recorded = json.loads(span_path.read_text()) if traced and span_path.is_file() else []
        t_sweep = result.get("t_sweep", t_exit)
        return Child(traced, t_exit - t_spawn, t_sweep - t_spawn,
                     result.get("t_end", t_exit) - t_sweep,
                     result.get("peak_rss_kb", 0) * 1024 / 1e6, result, check, recorded)

    def reference(self):
        """Wall seconds of one reference run, or None if it failed or lost its checksum."""
        t_spawn = mono()
        got = subprocess.run([sys.executable, str(REFERENCE)], capture_output=True, text=True,
                             env=self.env, cwd=ROOT, timeout=60)
        wall = mono() - t_spawn
        ok = got.returncode == 0 and got.stdout.strip() == str(reference.CHECKSUM)
        return wall if ok else None

    def loop(self, seconds, trace, started):
        """Closed loop with one client; with trace, untraced and traced alternate.

        Reference runs come before the first child and after every child.
        Returns the children and the reference wall times, one more than
        children.
        """
        children = []
        refs = [self.reference()]
        last = {}
        t0 = mono()
        while True:
            traced = trace and len(children) % 2 == 1
            sample = self.inputs(0 if trace else len(children))
            child = self.spawn(len(children), traced, RUN_LIMIT_S - (mono() - started), sample)
            children.append(child)
            refs.append(self.reference())
            last[traced] = child.wall
            if not child.result or None in refs or mono() - started > RUN_LIMIT_S - 5:
                break
            nxt = trace and len(children) % 2 == 1
            if trace and len(children) < 2:
                continue
            if mono() - t0 + last.get(nxt, child.wall) + refs[-1] > seconds:
                break
        return children, refs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end_metrics(children, refs):
    """Per-child values of each end-to-end metric; refs[k] and refs[k + 1] bracket child k."""
    around = [(before + after) / 2 for before, after in zip(refs, refs[1:])]
    return {
        "wall_ref": [c.wall / r for c, r in zip(children, around)],
        "setup_s": [c.setup for c in children],
        "items_per_ref": [c.check.attempted / (c.wall - c.setup) * r for c, r in zip(children, around)],
        "peak_rss_mb": [c.rss_mb for c in children],
    }


def raw_lines(children, refs):
    """The times of the end-to-end metrics in seconds, and the reference's, for reading."""
    lines = []
    for name, unit, values in (
            ("wall_s", "s", [c.wall for c in children]),
            ("items_per_s", "1/s", [c.check.attempted / (c.wall - c.setup) for c in children]),
            ("reference_s", "s", refs)):
        q1, q3 = quartiles(values)
        lines.append(f"# raw: {name:26s} {statistics.median(values):14.6f} {unit:6s} "
                     f"q1={q1:.6f} q3={q3:.6f} n={len(values)}")
    return lines


def layer_metrics(children):
    """Per-traced-child values of each per-layer metric; empty unless both kinds of child ran."""
    traced = [c for c in children if c.traced and c.result]
    untraced = [c for c in children if not c.traced and c.result]
    if not traced or not untraced:
        return {}
    per_child = {}
    for c in traced:
        for name, value in spans.aggregate(c.spans).items():
            per_child.setdefault(name, []).append(value)
    per_child["trace.sweep_s"] = [c.sweep for c in traced]
    per_child["trace.untraced_sweep_s"] = [c.sweep for c in untraced]
    per_child["trace.overhead"] = [statistics.median(per_child["trace.sweep_s"])
                                   / statistics.median(per_child["trace.untraced_sweep_s"]) - 1.0]
    return per_child


def verdict_mismatches(children):
    """Traced children must reach exactly the verdicts of the untraced ones."""
    reference = next((c.check.verdicts for c in children if not c.traced), None)
    bad = 0
    for c in children:
        if c.traced and c.check.verdicts != reference:
            c.check.problems.append("traced verdicts differ from the untraced run")
            c.check.failed = c.check.attempted
            bad += 1
    return bad


def meta_lines(workload, seed, bench, children, build_s, digest):
    commit = "none"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or "none"
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    backends = sorted({c.result.get("backend", "none") for c in children})
    numpy_used = any(c.result.get("numpy_loaded") for c in children)
    size = (f"inputs drawn per child, {len(bench.inputs(0))} entries" if workload.kind != "cli"
            else "argv=" + " ".join(workload.argv))
    return [
        f"# workload: {workload.name} seed={seed} {size} items/child={children[0].check.attempted}",
        f"# loop: closed, 1 client, --jobs 1, {len(children)} child runs",
        f"# backend: want={workload.backend} loaded={','.join(backends)} "
        f"numpy={numpy} numpy_loaded={str(numpy_used).lower()} build_s={build_s:.3f}",
        f"# host: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"commit={commit} src_sha256={digest[:16]}",
    ]


def run_workload(name, seed, seconds, trace, started):
    workload = WORKLOADS[name]
    digest = package_digest(PKG)
    build_s = 0.0
    pkg_root = PKG.parent
    if workload.backend == "compiled":
        pkg_root, build_s = build_compiled(digest)
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=WORK))
    try:
        bench = Bench(workload, seed, pkg_root, run_dir)
        bench.warm_up()
        children, refs = bench.loop(seconds, trace, started)
        if trace:
            verdict_mismatches(children)
            if any(c.spans for c in children):
                (WORK / f"last-trace-{name}.json").write_text(
                    json.dumps(next(c.spans for c in children if c.spans), separators=(",", ":")))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(c.check.attempted for c in children)
    failed = sum(c.check.failed for c in children)
    lines = meta_lines(workload, seed, bench, children, build_s, digest)
    if None in refs:
        lines.append("# problem: a reference run failed or printed another checksum")
        failed = attempted
        valid = [r for r in refs if r is not None] or [1.0]
        refs = [statistics.median(valid) if r is None else r for r in refs]
    for c in children:
        lines.extend(f"# problem: {p}" for p in c.check.problems[:5])
    if trace:
        listed, per_child = spans.PER_LAYER, layer_metrics(children)
        if not per_child:
            lines.append("# problem: no traced and untraced pair of child runs completed")
            failed = attempted
    else:
        listed = END_TO_END
        per_child = end_to_end_metrics(children, refs)
        lines.extend(raw_lines(children, refs))
    metrics = {}
    for metric, unit in listed:
        values = per_child.get(metric, [0.0])
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[metric] = {"value": median, "unit": unit}
        lines.append(f"{metric:32s} {median:14.6f} {unit:6s} q1={q1:.6f} q3={q3:.6f} n={len(values)}")
    lines.append(f"{'failed_ratio':32s} {failed / attempted:14.6f} ratio  "
                 f"failed={failed} attempted={attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    started = mono()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PKG / "__init__.py").is_file():
        print(f"error: no powmon package at {PKG}", file=sys.stderr)
        return 2
    try:
        workloads.load_census()
    except (OSError, ValueError) as exc:
        print(f"error: frozen census: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        # "all" runs every workload back to back, each with its own time limit
        t0 = mono() if len(names) > 1 else started
        try:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), t0)
        except (OSError, subprocess.SubprocessError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        if len(names) == 1:
            print(json.dumps(result))
            return 0
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
