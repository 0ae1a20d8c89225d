"""CLI contract: report shape, exit codes, determinism."""

import functools
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import pytest

import powmon
from powmon import census, kernels
from powmon.cli import VERIFY_FLAGS, _params, main, parse_monoid_spec
from powmon.monoid import TABLE_FILE_LIMIT, cyclic_group, direct_product
from powmon.suites import CASES, SUITES
from powmon.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body_of(text):
    # report body: everything except header lines with timestamps
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated:"))


def test_parse_monoid_spec():
    assert parse_monoid_spec is powmon.monoid.parse_monoid_spec
    assert parse_monoid_spec("z6").n == 6
    assert parse_monoid_spec("z1").n == 1
    assert parse_monoid_spec("d4").n == 8
    assert parse_monoid_spec("klein").n == 4
    assert parse_monoid_spec("idem2").n == 2
    assert parse_monoid_spec("cmon2.2").n == 4
    g = parse_monoid_spec("z2xz3")
    assert g.n == 6 and g.is_group() and g.name == "(cyclic 2 x cyclic 3)"
    q8 = parse_monoid_spec("q8")
    assert sorted(q8.orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not q8.is_commutative()
    # products nest to the right, like the group catalog's Z2^3
    nested = parse_monoid_spec("z2xz2xz2")
    assert nested.name == "(cyclic 2 x (cyclic 2 x cyclic 2))"
    assert nested.n == 8 and sorted(nested.orders()) == [1] + [2] * 7
    assert nested == direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2)))
    for bad in ("wat", "zx", "z2x", "xz2", "dx", "cmon2", "cmon.2", "cmon2.x", "z2xwat"):
        with pytest.raises(ValueError):
            parse_monoid_spec(bad)
    for bad, family in (("z0", "cyclic group order"), ("z2xz0", "cyclic group order"),
                        ("d0", "dihedral group degree")):
        with pytest.raises(ValueError, match=f"{family} must be at least 1, got 0"):
            parse_monoid_spec(bad)


def test_construct_cyclic(capsys):
    code, out, _ = run_cli(capsys, "construct", "cmon2.2")
    assert code == 0
    assert "name: cyclic_monoid(2,2)" in out
    assert "orders: 1 4 2 3" in out
    assert "\ncancellative elements: 0\nunits: 0\n" in out
    assert "group: false" in out


def test_construct_named_klein(capsys):
    code, out, _ = run_cli(capsys, "construct", "klein")
    assert code == 0
    assert "name: klein" in out
    assert "\ncancellative elements: 0,1,2,3\nunits: 0,1,2,3\n" in out
    assert "group: true" in out and "commutative: true" in out


def test_construct_product_with_idempotent(capsys):
    # the units of Z2 x idem2 are (0, 0) and (1, 0), indices 0 and 2
    code, out, _ = run_cli(capsys, "construct", "z2xidem2")
    assert code == 0
    assert "\ncancellative elements: 0,2\nunits: 0,2\n" in out
    assert "group: false" in out


def test_construct_table_file(tmp_path, capsys):
    p = tmp_path / "z3.tbl"
    p.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run_cli(capsys, "construct", "table", str(p))
    assert code == 0 and "group: true" in out


def test_construct_malformed_table_names_line(tmp_path, capsys):
    p = tmp_path / "bad.tbl"
    p.write_text("3\n0 1 2\n1 zap 0\n2 0 1\n")
    code, out, err = run_cli(capsys, "construct", "table", str(p))
    assert code == 2
    assert "line 3" in err


def test_construct_table_with_trailing_row_is_input_error(tmp_path, capsys):
    p = tmp_path / "extra.tbl"
    p.write_text("2\n0 1\n1 0\n0 1 2\n")
    code, out, err = run_cli(capsys, "construct", "table", str(p))
    assert code == 2 and out == "" and "line 4: unexpected content" in err


@pytest.mark.parametrize("spec, message", [
    ("z0", "cyclic group order must be at least 1, got 0"),
    ("z2xz0", "cyclic group order must be at least 1, got 0"),
    ("d0", "dihedral group degree must be at least 1, got 0"),
    ("cmon1.0", "cyclic monoid period must be at least 1, got 0"),
    ("cmon0.0", "cyclic monoid period must be at least 1, got 0"),
])
def test_construct_empty_group_names_its_family(capsys, spec, message):
    code, out, err = run_cli(capsys, "construct", spec)
    assert code == 2 and out == "" and message in err


def test_construct_nonassociative_table_is_input_error(tmp_path, capsys):
    p = tmp_path / "nonassoc.tbl"
    p.write_text("3\n0 1 2\n1 2 0\n2 1 0\n")
    code, out, err = run_cli(capsys, "construct", "table", str(p))
    assert code == 2 and "not associative" in err


def test_verify_lemma21_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma21", "--max-order", "3")
    assert code == 0
    assert "summary: suite=lemma21" in out
    assert "failures=0" in out


def test_verify_report_body_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "lemma31", "--max-order", "3")
    _, second, _ = run_cli(capsys, "verify", "lemma31", "--max-order", "3")
    assert body_of(first) == body_of(second)
    assert first.count("# generated:") == 1


def test_verify_pair_expected_violation(capsys):
    code, out, _ = run_cli(capsys, "verify", "section4", "--pair", "z2:idem2",
                           "--expect-violation")
    assert code == 0
    assert "power_compatible=False" in out
    assert "order_preserving=True" in out
    assert re.search(r"base_iso\tcyclic 2 vs idem2\tpass\tno", out)
    assert re.search(r"power_iso\tcyclic 2 vs idem2\tpass\tiso", out)


def test_verify_pair_without_violation_fails_expectation(capsys):
    code, out, _ = run_cli(capsys, "verify", "section4", "--pair", "z2:z2",
                           "--expect-violation")
    assert code == 1
    assert "expect-violation: FAILED" in out


def test_verify_lemma31_single_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma31", "--monoid", "z2", "--n", "3")
    assert code == 0
    assert "count=3 bound=2" in out
    # check_solution_count's own record, with its constructed-family check
    assert "equation_solutions\tcyclic 2 S=0,1 n=3 full\tpass\tcount=3 bound=2\n" in out
    assert "# summary: suite=lemma31 cases=1 failures=0" in out


def test_verify_lemma31_huge_exponent(capsys):
    # S = {0, 1} in Z6 has S^5 = Z6, so every larger exponent gives the same counts
    argv = ("verify", "lemma31", "--monoid", "z6", "--subset", "0,1", "--n")
    _, small, _ = run_cli(capsys, *argv, "6")
    code, huge, _ = run_cli(capsys, *argv, "1000000000000")
    assert code == 0
    assert small.splitlines()[3].replace("n=6", "n=1000000000000") == huge.splitlines()[3]


@pytest.mark.parametrize("argv", [
    ("verify", "lemma21", "--pair", "z2:idem2"),
    ("verify", "all", "--pair", "z2:idem2"),
    ("verify", "section4", "--monoid", "z2"),
    ("verify", "lemma21", "--subset", "0,1"),
    ("verify", "lemma21", "--n", "7"),
    ("verify", "lemma21", "--universe", "reduced"),
    ("verify", "lemma31", "--n", "3"),
    ("verify", "section4", "--pair", "z2:z2", "--group-max", "9"),
    ("verify", "lemma31", "--monoid", "z2", "--max-order", "3"),
    ("verify", "lemma21", "--group-max", "9"),
    ("verify", "lemma21", "--budget", "7"),
    ("verify", "lemma21", "--jobs", "2"),
    ("verify", "lemma24", "--max-order", "5"),
])
def test_single_case_flags_belong_to_their_suite(tmp_path, capsys, argv):
    target = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and "belongs to the" in err
    assert out == "" and not target.exists()


def test_verify_flags_are_suite_and_case_parameters():
    params = {p for fn in [*SUITES.values(), *CASES.values()]
              for p in inspect.signature(fn).parameters}
    # --jobs is read by `verify all` itself
    assert set(VERIFY_FLAGS) - params == {"jobs"}
    assert params - set(VERIFY_FLAGS) == set()


def test_params_are_the_signature():
    for fn in [*SUITES.values(), *CASES.values()]:
        assert _params(fn) == tuple(inspect.signature(fn).parameters)


def test_flags_reach_a_wrapped_suite(capsys, monkeypatch):
    # a tracer that wraps a suite as (*args, **kwargs) and sets __wrapped__
    # still receives the flags the suite itself reads
    argv = ("verify", "lemma21", "--max-order", "2")
    _, plain, _ = run_cli(capsys, *argv)
    suite = SUITES["lemma21"]
    calls = []

    @functools.wraps(suite)
    def traced(*args, **kwargs):
        calls.append(kwargs)
        return suite(*args, **kwargs)
    monkeypatch.setitem(SUITES, "lemma21", traced)
    assert _params(traced) == _params(suite)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and calls == [{"max_order": 2}]
    assert body_of(out) == body_of(plain)


def test_cli_imports_without_dataclasses_or_inspect():
    # each costs start-up time in every run of the command
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import powmon.cli\n"
            "assert not {'dataclasses', 'inspect'} & (set(sys.modules) - before), sys.modules.keys()\n")
    src = str(Path(powmon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_max_order_leaves_catalog_suites_alone(capsys):
    summaries = lambda text: [l for l in text.splitlines() if l.startswith("# summary:")]
    _, together, _ = run_cli(capsys, "verify", "all", "--max-order", "2")
    for suite in ("lemma24", "prop25", "section4"):
        _, alone, _ = run_cli(capsys, "verify", suite)
        assert summaries(alone)[0] in summaries(together)


def test_verify_bad_pair_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "section4", "--pair", "z2:wat")
    assert code == 2 and "error:" in err
    target = tmp_path / "report.tsv"
    code, _, _ = run_cli(capsys, "verify", "section4", "--pair", "z2:wat", "--out", str(target))
    assert code == 2 and not target.exists()   # rejected before the report is opened
    for pair in ("z2", "z2:z2:z2"):
        code, out, err = run_cli(capsys, "verify", "section4", "--pair", pair, "--out", str(target))
        assert code == 2 and "expected H:K" in err
        assert out == "" and not target.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "lemma31", "--monoid", "z100000"),
    ("verify", "lemma31", "--monoid", "z8xz8"),
    ("verify", "section4", "--pair", "z11:z11"),     # a base too big for a power monoid
    ("construct", "cmon100000.1"),
    ("construct", "z16xz2"),
    ("verify", "lemma21", "--max-order", "6"),          # above the census limit
    ("verify", "lemma24", "--group-max", "9"),          # above the catalog limit
    ("verify", "all", "--max-order", "6", "--jobs", "2"),
    ("experiment", "groups", "--max-order", "9"),
    ("experiment", "monoids", "--max-order", "6"),
])
def test_oversized_input_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and "exceeds" in err
    assert out == "" and not target.exists()


def test_oversized_table_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "huge.tbl"
    p.write_text("100000\n0 1\n")
    code, out, err = run_cli(capsys, "construct", "table", str(p))
    assert code == 2 and "order 100000 exceeds" in err


@pytest.mark.parametrize("source", ["over", "/dev/zero"])
def test_long_table_file_is_usage_error(tmp_path, capsys, source):
    # a file is read up to a fixed byte bound, never whole
    if source == "over":
        p = tmp_path / "long.tbl"
        text = "1\n0\n"
        p.write_text(text + "#" * (TABLE_FILE_LIMIT + 1 - len(text)))
        assert p.stat().st_size == TABLE_FILE_LIMIT + 1
        source = str(p)
    target = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, "construct", "table", source, "--out", str(target))
    assert code == 2 and "exceeds" in err
    assert out == "" and not target.exists()


def test_table_file_at_the_bound_is_read(tmp_path, capsys):
    p = tmp_path / "padded.tbl"
    text = "2\n0 1\n1 0\n"
    p.write_text(text + "#" * (TABLE_FILE_LIMIT - len(text)))
    code, out, _ = run_cli(capsys, "construct", "table", str(p))
    assert code == 0 and "group: true" in out


def test_closed_stdout_exits_quietly():
    src = str(Path(powmon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-m", "powmon.cli", "verify", "lemma22"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# powmon verify lemma22\n"
    proc.stdout.close()                 # as `| head -1` does; the report is ~230 kB
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_records_are_written_as_they_are_decided(capsys, monkeypatch):
    # a suite that raises after its first record: that record is already written
    record = CheckResult("order_stabilization", "streamed", "pass", "k=1")

    def one_record_then_error():
        yield record
        raise ValueError("failed after one record")
    monkeypatch.setitem(SUITES, "lemma21", one_record_then_error)
    code, out, err = run_cli(capsys, "verify", "lemma21")
    assert code == 2 and err == "error: failed after one record\n"
    assert out.splitlines()[3:] == [record.line()]


def test_experiment_groups_small(capsys):
    code, out, _ = run_cli(capsys, "experiment", "groups", "--max-order", "4")
    assert code == 0
    assert "power-iso-iff-base-iso: holds" in out
    assert out.splitlines()[3].startswith("pair\t")


def test_experiment_monoids_counterexample(capsys):
    code, out, _ = run_cli(capsys, "experiment", "monoids", "--max-order", "2",
                           "--expect-violation")
    assert code == 0
    assert "exceptions: 1" in out
    assert "expect-violation: ok" in out


def test_experiment_expect_violation_reads_as_verify(capsys):
    # the experiment's findings are its exceptions outside the theorem's
    # hypotheses, counted and reported as verify counts a suite's
    code, out, _ = run_cli(capsys, "experiment", "monoids", "--max-order", "2",
                           "--expect-violation")
    assert code == 0 and out.splitlines()[-1] == "# expect-violation: ok (1 findings)"
    code, out, _ = run_cli(capsys, "experiment", "groups", "--max-order", "4",
                           "--expect-violation")
    assert code == 1
    assert out.splitlines()[-1] == "# expect-violation: FAILED (no violation finding occurred)"


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--max-order", "2", "--group-max", "3"),
    ("experiment", "monoids", "--max-order", "2"),
])
def test_jobs_1_changes_only_the_config(capsys, argv):
    body = lambda text: [l for l in text.splitlines()
                         if not l.startswith(("# generated:", "# config:"))]
    code, plain, _ = run_cli(capsys, *argv)
    code_1, jobs_1, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert code == code_1 == 0 and body(plain) == body(jobs_1)
    assert "jobs=1" in jobs_1.splitlines()[1]


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--jobs", "2"),
    ("verify", "all", "--max-order", "2", "--jobs", "1000000"),
    ("experiment", "monoids", "--jobs", "2"),
    ("experiment", "groups", "--max-order", "4", "--jobs", "3"),
])
def test_jobs_other_than_1_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and err.startswith(f"error: --jobs must be 1, got {argv[-1]}")
    assert out == "" and not target.exists()


def test_experiment_budget_path(capsys):
    # budget 10 stops the search of the (cyclic 2 x cyclic 3) carrier
    # against the cyclic 6 one, which really searches: the pair is reported
    # and, as an undecided pair, is a failure; self-pairs need no search
    code, out, err = run_cli(capsys, "experiment", "groups", "--max-order", "6",
                             "--budget", "10")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[lines.index("# budget-exceeded pairs: 1") + 1] == \
        "#   budget-exceeded: cyclic 6 vs (cyclic 2 x cyclic 3)"
    assert "6:8\tcyclic 6\t(cyclic 2 x cyclic 3)\tyes\tbudget-exceeded\t-\t-" in lines


def test_verify_all_budget_hit_is_failure(capsys):
    # every suite still reports; the budget hits are failing records
    code, out, err = run_cli(capsys, "verify", "all", "--budget", "1")
    summaries = [l.split()[2] for l in out.splitlines() if l.startswith("# summary:")]
    assert summaries == [f"suite={name}" for name in SUITES]
    assert code == 1 and err == ""


def test_verify_pair_budget_hit_is_failure(capsys):
    code, out, err = run_cli(capsys, "verify", "section4", "--pair", "z4:z4", "--budget", "1")
    records = [l.split("\t")[:4] for l in out.splitlines() if not l.startswith("#")]
    assert records == [["base_iso", "cyclic 4 vs cyclic 4", "fail", "budget-exceeded"],
                       ["power_iso", "cyclic 4 vs cyclic 4", "fail", "budget-exceeded"]]
    assert code == 1 and err == ""


def test_section4_self_pairs_need_no_search(capsys):
    # a catalog self-pair is read from the carriers' classes, so its identity
    # map decides it even under a budget below its order; the control pair
    # still needs a search, which hits the budget and fails the run
    code, out, err = run_cli(capsys, "verify", "section4", "--budget", "1")
    records = [l.split("\t")[:4] for l in out.splitlines() if not l.startswith("#")]
    names = [e.name for e in census.groups_catalog(6)]
    assert [r[:3] for r in records if r[1] in {f"{n} -> {n}" for n in names}] == \
        [["pullback_report", f"{n} -> {n}", "pass"] for n in names]
    assert [r for r in records if r[0] == "power_iso_search" and r[2] == "fail"] == \
        [["power_iso_search", "cyclic 6 vs (cyclic 2 x cyclic 3)", "fail",
          "budget exceeded: absence unproven"]]
    assert code == 1 and err == ""


def _swap_1_3(images):
    # on a 4-element carrier this sends {0,1} to {0,1,2}: two-to-two fails
    images[1], images[3] = images[3], images[1]
    return images


def _merge_pairs(images):
    # {0,1} and {0,2} go to one {1, y}: two-to-two holds, the pullback is no bijection
    images[2] = images[1]
    return images


@pytest.mark.parametrize("corrupt, failing, detail, skipped", [
    (_swap_1_3, "two_to_two", "(size 3)", "pullback_extraction"),
    (_merge_pairs, "pullback_extraction", "is not a bijection", "pullback_report"),
])
def test_thm32_corrupted_witness_is_a_fail_record(capsys, monkeypatch, corrupt, failing,
                                                  detail, skipped):
    # the first witness that the listing hands to the facts for each listed
    # pair of 4-element carriers (order-3 bases) is corrupted; each is a
    # fail record, the checks after it are not run, and the report is complete
    facts_real = census.power_iso_facts
    seen = set()

    def facts_corrupted(pm_src, pm_dst, w):
        if len(pm_src) == 4 and (id(pm_src), id(pm_dst)) not in seen:
            seen.add((id(pm_src), id(pm_dst)))
            w = types.SimpleNamespace(map=tuple(corrupt(list(w.map))))
        return facts_real(pm_src, pm_dst, w)

    monkeypatch.setattr(census, "power_iso_facts", facts_corrupted)
    code, out, err = run_cli(capsys, "verify", "thm32", "--max-order", "3", "--group-max", "1")
    records = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
    fails = [i for i, r in enumerate(records) if r[2] == "fail"]
    assert code == 1 and err == "" and fails
    for i in fails:
        assert records[i][0] == failing and records[i][3].endswith(detail)
        assert [r[0] for r in records[i + 1:i + 2]] != [skipped]
    assert out.splitlines()[-2] == f"# summary: suite=thm32 cases={len(records)} failures={len(fails)}"
    # the note counts only the 17 witnesses whose checks all passed, not the 14 corrupted ones
    assert out.splitlines()[-1] == ("# note: cardinality profile: 17/17 observed isomorphisms "
                                    "preserve subset size (measured only; the question is open)")


def test_experiment_corrupted_witness_is_a_pullback_failure(capsys, monkeypatch):
    # the composed witness the experiment hands to the facts is corrupted
    # on the one 4-element carrier pair, cyclic 3 with itself
    facts_real = census.power_iso_facts

    def facts_corrupted(pm_src, pm_dst, w):
        if len(pm_src) == 4:
            w = types.SimpleNamespace(map=tuple(_swap_1_3(list(w.map))))
        return facts_real(pm_src, pm_dst, w)

    monkeypatch.setattr(census, "power_iso_facts", facts_corrupted)
    code, out, err = run_cli(capsys, "experiment", "groups", "--max-order", "3")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[lines.index("# pullback failures: 1") + 1] == "#   pullback failure: cyclic 3 vs cyclic 3"
    assert "2:2\tcyclic 3\tcyclic 3\tyes\tyes\tfalse\tfalse" in lines


def test_experiment_body_deterministic(capsys):
    _, first, _ = run_cli(capsys, "experiment", "groups", "--max-order", "4")
    _, second, _ = run_cli(capsys, "experiment", "groups", "--max-order", "4")
    assert body_of(first) == body_of(second)
    assert first.splitlines()[3] == \
        "pair\tH\tK\tbase_iso\tpower_iso\tpullback_ok\tcardinality_preserving"


# sha256 of the report body: every line, with its newline, but the
# `# generated:` and `# config:` header lines.  Both backends give the same
# bytes, so any change to a record, a verdict or a summary line shows here.
@pytest.mark.parametrize("argv, digest", [
    (("verify", "all"),
     "129194aebe8eafbf2b341d8b82e4a077d94870a080f59fe56d61eb1a5629de86"),
    (("experiment", "groups", "--max-order", "8", "--budget", "10000000"),
     "191ef81e271ad8359a51e03cae72fbec160cf7d81d3f721f2a8e6a6f756ae878"),
    # every census <= 5 carrier isomorphism and its Theorem 3.2 facts
    (("verify", "thm32", "--max-order", "5"),
     "305f6a7dec5cb7b4e840ee85219b31df6bc57ae21f98b8ffffe5ecf67970d81e"),
    # every census <= 5 pair, read from the classes of the bases and carriers
    (("experiment", "monoids", "--max-order", "5"),
     "9d71e0008f66f51637b1b7cb96de016e63688722c41280ee33944dfae50aaee6"),
])
def test_report_body_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    body = "".join(l for l in out.splitlines(keepends=True)
                   if not l.startswith(("# generated:", "# config:")))
    assert code == 0 and hashlib.sha256(body.encode()).hexdigest() == digest


# runs each argv of test_report_body_digest in one process and prints the
# backend and, per argv, the exit code and the body digest, as JSON
_DIGESTS_CHILD = """
import contextlib, hashlib, io, json, sys
from powmon import kernels
from powmon.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    body = "".join(l for l in sink.getvalue().splitlines(keepends=True)
                   if not l.startswith(("# generated:", "# config:")))
    out.append([code, hashlib.sha256(body.encode()).hexdigest()])
print(json.dumps({"backend": kernels.backend, "file": kernels.__file__, "runs": out}))
"""


def test_report_body_digest_on_compiled_backend(core, tmp_path):
    # the same bodies from a copy of the package with the `core` fixture's
    # build beside it as powmon/_core, so the compiled kernels are the
    # active backend
    pkg = tmp_path / "powmon"
    shutil.copytree(Path(powmon.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__", "_core.*.so", "_core.*.pyd"))
    shutil.copy(core.__file__, pkg / f"_core{sysconfig.get_config_var('EXT_SUFFIX')}")
    (mark,) = [m for m in test_report_body_digest.pytestmark if m.name == "parametrize"]
    cases = mark.args[1]
    env = {k: v for k, v in os.environ.items() if k != "POWMON_PURE"}
    env["PYTHONPATH"] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _DIGESTS_CHILD,
                           json.dumps([list(argv) for argv, _ in cases])],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["backend"] == "compiled"
    assert Path(got["file"]).parent == pkg
    assert got["runs"] == [[0, digest] for _, digest in cases]


def test_order6_script_hashes_the_report_body(capsys):
    # benchmarks/order6.py pins the order-6 bodies by its sink's hash,
    # which must be the body digest above
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "order6.py"
    spec = importlib.util.spec_from_file_location("order6", path)
    order6 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(order6)
    argv = ("verify", "lemma21", "--max-order", "2")
    code, digest = order6.body_digest(argv)
    _, out, _ = run_cli(capsys, *argv)
    body = "".join(l for l in out.splitlines(keepends=True)
                   if not l.startswith(("# generated:", "# config:")))
    assert code == 0 and digest == hashlib.sha256(body.encode()).hexdigest()


def test_order6_script_writes_one_json_record_per_run(tmp_path):
    # the record repeats the printed row and adds the host and the sources
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "order6.py"
    target = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(script), "--json", str(target), "lemma21"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == "run\texit\tdigest\twall_s\tpeak_mb\tverdict"
    (record,) = json.loads(target.read_text())["records"]
    assert set(record) == {"run", "backend", "code", "digest", "digest_ok", "wall_s", "peak_mb",
                           "verdict", "python", "nproc", "src_sha256"}
    assert row.split("\t") == ["lemma21", "0", record["digest"], f"{record['wall_s']:.1f}",
                               f"{record['peak_mb']:.0f}", "ok"]
    assert (record["run"], record["code"], record["digest_ok"], record["verdict"]) == \
        ("lemma21", 0, True, "ok")
    assert record["backend"] == kernels.backend
    assert record["python"] == platform.python_version()
    assert record["nproc"] >= 1 and len(record["src_sha256"]) == 64
    assert 0 < record["wall_s"] and 0 < record["peak_mb"]


def test_order6_script_alternates_two_checkouts(tmp_path):
    # --against with this very tree: both sides pin the same body, the
    # rounds alternate which side goes first, and the medians cover both
    root = Path(__file__).resolve().parents[1]
    target = tmp_path / "ab.json"
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "order6.py"), "--json",
                           str(target), "--against", str(root), "--rounds", "2", "lemma21"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(target.read_text())
    assert (doc["against"], doc["rounds"]) == (str(root), 2)
    records = doc["records"]
    assert [(r["side"], r["round"]) for r in records] == [
        ("against", 1), ("this", 1), ("this", 2), ("against", 2)]
    assert all(r["run"] == "lemma21" and r["verdict"] == "ok" and r["digest_ok"]
               and r["backend"] == kernels.backend for r in records)
    assert len({r["src_sha256"] for r in records}) == 1
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert rows[0] == ["side", "round", "run", "exit", "digest", "wall_s", "peak_mb", "verdict"]
    assert [row[:3] for row in rows[1:]] == [
        ["against", "1", "lemma21"], ["this", "1", "lemma21"], ["this", "2", "lemma21"],
        ["against", "2", "lemma21"], ["against", "median", "lemma21"],
        ["this", "median", "lemma21"]]
    for side in ("against", "this"):
        mine = [r for r in records if r["side"] == side]
        assert doc["medians"]["lemma21"][side] == {
            key: statistics.median(r[key] for r in mine) for key in ("wall_s", "peak_mb")}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.tsv"
    code, out, _ = run_cli(capsys, "verify", "lemma21", "--max-order", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert "summary: suite=lemma21" in text


@pytest.mark.parametrize("argv", [
    ("construct", "ztwo"),
    ("construct", "cyclic", "2", "2"),                 # the retired two-word form
    ("verify", "lemma21", "--max-order", "0"),
    ("verify", "lemma24", "--group-max", "0"),
    ("verify", "section4", "--budget", "0"),
    ("verify", "all", "--jobs", "0"),
    ("experiment", "groups", "--max-order", "0"),
    ("experiment", "monoids", "--budget", "-1"),
    ("experiment", "monoids", "--jobs", "0"),
    ("construct", "table"),                             # without its PATH
])
def test_usage_error_exit_code(tmp_path, capsys, argv):
    target = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and err.startswith("error: ")
    if argv[0] != "construct":
        assert f"{argv[2]} must be at least 1, got {argv[3]}" in err
    elif argv[1] == "table":
        assert err.startswith("error: construct expects: SPEC")
    assert out == "" and not target.exists()   # rejected before the report is opened
