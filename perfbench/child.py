"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

run.py starts this with PYTHONPATH pointing at the powmon package under
test.  SPEC names the inputs: stored census indices for the library-level
monoid sweep, catalog indices for the group sweep, or CLI arguments.  The child marks on the system-wide monotonic
clock when its sweep starts and ends, so the parent can split its wall
time into set-up and sweep.  It writes RESULT.json with those marks, its
peak RSS, the kernel backend it loaded, and the verdicts of each pair
(CLI reports go to stdout).  With "trace" set, it records spans around
powmon's public functions during the sweep and writes them to
SPEC["spans"].
"""

import json
import sys
import time


def mono():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb():
    """Peak resident set of this process since exec, in kB.

    getrusage and wait4 would also count the parent's memory image that
    the child was forked from, so read the high-water mark of the current
    address space instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def census_entries(census, indices):
    """CensusEntry objects for the stored tables, named by stored index."""
    from powmon.census import CensusEntry
    from powmon.monoid import FiniteMonoid

    out = []
    for i in indices:
        n, table = census[i]
        m = FiniteMonoid(table, name=f"m{n}.{i}")
        tags = {"group": m.is_group(), "commutative": m.is_commutative(),
                "cancellative": m.is_cancellative()}
        out.append(CensusEntry(m, bytes([n]) + bytes(m.flat), tags))
    return out


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import powmon.kernels

    kind = spec["kind"]
    if kind == "cli":
        from powmon import cli

        def sweep():
            return cli.main(list(spec["argv"]))
    elif kind == "groups":
        from powmon import census

        sample = spec["sample"]

        def sweep():
            # as the CLI does: build the validated catalog, then the experiment;
            # looked up at call time, so a traced child sees the wrapped catalog
            catalog = census.groups_catalog(spec["max_order"])
            entries = [catalog[i] for i in sample]
            return census.run_experiment(entries, mode="groups", budget=spec["budget"], jobs=1)[0]
    else:
        import workloads
        from powmon.census import run_experiment

        sample = spec["sample"]
        entries = census_entries(workloads.load_census(), sample)

        def sweep():
            return run_experiment(entries, mode="monoids", jobs=1)[0]

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        sweep = tracer.wrap("sweep", sweep)
    t_sweep = mono()
    out = sweep()
    t_end = mono()
    sys.stdout.flush()
    result = {"t_sweep": t_sweep, "t_end": t_end, "backend": powmon.kernels.backend,
              "numpy_loaded": "numpy" in sys.modules}
    if kind == "cli":
        result["exit_code"] = out
    else:
        result["exit_code"] = 0
        keys = ([r.names for r in out] if kind == "groups"
                else [(sample[r.pair[0]], sample[r.pair[1]]) for r in out])
        result["records"] = [[*key, r.base_iso, r.power_iso, r.pullback_ok, r.cardinality_preserving]
                             for key, r in zip(keys, out)]
    result["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
