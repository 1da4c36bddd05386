import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kcnf.calculus import serialize_trace
from kcnf.cli import run
from kcnf.constructions import bounds_csv_row, bounds_row
from kcnf.dimacs import read_dimacs, write_dimacs
from kcnf.dp import f2_value, feasible
from kcnf.formula import almost_complete_formula, complete_formula
from test_dp import WITNESS_SHA256


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_block_example(self, capsys, tmp_path):
        out = tmp_path / "l1.cnf"
        code, text, _ = invoke(capsys, "construct", "--method", "lemma1",
                               "--k", "3", "--l", "1", "--out", str(out))
        assert code == 0
        assert text.splitlines() == [
            "method=lemma1", "k=3", "l=1", "n=9", "m=13", "s=5", str(out)]
        formula = read_dimacs(out.read_text())
        assert len(formula) == 13 and len(formula.vars) == 9

    def test_block_verifies(self, capsys, tmp_path):
        out = tmp_path / "l1.cnf"
        invoke(capsys, "construct", "--method", "lemma1", "--k", "3",
               "--l", "1", "--out", str(out))
        code, text, _ = invoke(capsys, "verify", str(out), "--k", "3",
                               "--max-occ", "5", "--solve")
        assert code == 0
        assert "solver = UNSAT" in text

    def test_staged_build(self, capsys, tmp_path):
        out = tmp_path / "l2.cnf"
        code, text, _ = invoke(capsys, "construct", "--method", "lemma2",
                               "--k", "4", "--l", "1", "--out", str(out))
        assert code == 0
        assert "n=16" in text and "m=33" in text and "s=9" in text

    def test_default_l_clamps_with_note(self, capsys, tmp_path):
        out = tmp_path / "c.cnf"
        code, text, err = invoke(capsys, "construct", "--method", "lemma1",
                                 "--k", "8", "--out", str(out))
        assert code == 0
        assert "l=1" in text.splitlines()
        assert err == ("note: recommended l = 0 is below the block "
                       "construction's minimum, using l = 1\n")

    @pytest.mark.parametrize("k", [2, 3])
    def test_lemma2_default_l_stays_zero_where_one_fails(self, capsys, k):
        # lemma2 takes l = 0, and its parameter condition rejects l = 1 here
        code, text, err = invoke(capsys, "construct", "--method", "lemma2",
                                 "--k", str(k), "--out", "-")
        assert code == 0
        assert "c l=0" in text.splitlines()
        assert err == ""

    @pytest.mark.parametrize("k", range(4, 9))
    def test_lemma2_default_l_clamps_to_one(self, capsys, tmp_path, k):
        out = tmp_path / "c.cnf"
        runs = []
        for extra in ([], ["--l", "1"]):
            code, text, err = invoke(capsys, "construct", "--method",
                                     "lemma2", "--k", str(k), *extra,
                                     "--out", str(out))
            assert code == 0
            runs.append((text, out.read_bytes()))
            # lemma2 builds at l = 0 too; the note says why l = 1 is taken
            assert err == ("" if extra else
                           "note: recommended l = 0, but the staged "
                           "condition also holds at l = 1, using l = 1\n")
        assert runs[0] == runs[1]

    def test_compact_suppresses_stats(self, capsys, tmp_path):
        plain = tmp_path / "a.cnf"
        compact = tmp_path / "b.cnf"
        invoke(capsys, "construct", "--method", "lemma1", "--k", "3",
               "--l", "1", "--out", str(plain))
        code, text, _ = invoke(capsys, "construct", "--method", "lemma1",
                               "--k", "3", "--l", "1", "--compact",
                               "--out", str(compact))
        assert code == 0
        assert text == str(compact) + "\n"
        assert compact.read_bytes() == plain.read_bytes()

    def test_stdout_target_is_one_dimacs_document(self, capsys):
        code, text, _ = invoke(capsys, "construct", "--method", "lemma1",
                               "--k", "3", "--l", "1", "--out", "-")
        assert code == 0
        assert text.startswith("c method=lemma1\n")
        formula = read_dimacs(text)
        assert len(formula) == 13

    def test_oversized_request_is_usage_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "construct", "--method", "lemma1",
                              "--k", "48", "--l", "1",
                              "--out", str(tmp_path / "x.cnf"))
        assert code == 2
        assert "error:" in err

    def test_failed_parameter_condition_is_usage_error(self, capsys,
                                                       tmp_path):
        code, _, err = invoke(capsys, "construct", "--method", "lemma2",
                              "--k", "5", "--l", "-1",
                              "--out", str(tmp_path / "x.cnf"))
        assert code == 2
        assert "parameter condition fails" in err


_VERIFY_PINS = {
    "unsat": (write_dimacs(complete_formula([1, 2, 3])),
              ["--k", "3", "--max-occ", "8", "--solve"], 0,
              "n = 3\nm = 8\nwidth_uniform_k3 = yes\nmax_occurrence = 8\n"
              "occurrence_cap = 8 (ok)\nsolver = UNSAT\n"),
    "sat": (write_dimacs(almost_complete_formula([1, 2, 3])),
            ["--k", "3", "--solve"], 1,
            "n = 3\nm = 7\nwidth_uniform_k3 = yes\nmax_occurrence = 7\n"
            "solver = SAT\nmodel = -1 -2 -3\n"),
    "timeout": (write_dimacs(complete_formula(range(1, 7))),
                ["--k", "6", "--solve", "--budget", "0"], 1,
                "n = 6\nm = 64\nwidth_uniform_k6 = yes\nmax_occurrence = 64\n"
                "solver = TIMEOUT\n"),
    "widths": ("p cnf 3 3\n1 2 0\n-1 2 3 0\n-2 0\n",
               ["--k", "3"], 1,
               "n = 3\nm = 3\nwidth_uniform_k3 = no\nwidths = 1,2,3\n"
               "max_occurrence = 3\n"),
    "cap": (write_dimacs(complete_formula([1, 2])),
            ["--k", "2", "--max-occ", "3"], 1,
            "n = 2\nm = 4\nwidth_uniform_k2 = yes\nmax_occurrence = 4\n"
            "occurrence_cap = 3 (exceeded)\n"),
}


class TestVerify:
    @pytest.mark.parametrize("case", sorted(_VERIFY_PINS))
    def test_report_bytes_pinned(self, capsys, tmp_path, case):
        # the whole report and exit code of each report shape
        text, argv, want_code, want_out = _VERIFY_PINS[case]
        path = tmp_path / "f.cnf"
        path.write_text(text)
        code, out, _ = invoke(capsys, "verify", str(path), *argv)
        assert (code, out) == (want_code, want_out)

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "verify", str(tmp_path / "no.cnf"),
                              "--k", "3")
        assert code == 2
        assert "error:" in err

    def test_malformed_dimacs_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf not-a-number\n")
        code, _, err = invoke(capsys, "verify", str(path), "--k", "3")
        assert code == 2
        assert "error:" in err

    def test_miscounted_header_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "miscount.cnf"
        path.write_text("p cnf 2 9\n1 2 0\n")
        code, text, err = invoke(capsys, "verify", str(path), "--k", "2")
        assert (code, text) == (2, "")
        assert err == "error: header declares 9 clauses, body has 1\n"

    def test_negative_budget_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k2.cnf"
        path.write_text(write_dimacs(complete_formula([1, 2])))
        code, text, err = invoke(capsys, "verify", str(path), "--k", "2",
                                 "--solve", "--budget", "-5")
        assert (code, text) == (2, "")
        assert "error:" in err and "budget" in err

    def test_negative_max_occ_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k2.cnf"
        path.write_text(write_dimacs(complete_formula([1, 2])))
        code, text, err = invoke(capsys, "verify", str(path), "--k", "2",
                                 "--max-occ", "-3")
        assert (code, text) == (2, "")
        assert "error: max-occ must be nonnegative" in err
        code, text, _ = invoke(capsys, "verify", str(path), "--k", "2",
                               "--max-occ", "0")
        assert code == 1 and "occurrence_cap = 0 (exceeded)" in text

    def test_nonpositive_k_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k2.cnf"
        path.write_text(write_dimacs(complete_formula([1, 2])))
        code, text, err = invoke(capsys, "verify", str(path), "--k", "0")
        assert (code, text) == (2, "")
        assert "error:" in err and "k must be positive" in err


class TestF2:
    def test_prints_bare_number(self, capsys):
        code, text, _ = invoke(capsys, "f2", "--k", "3")
        assert (code, text) == (0, "4\n")

    def test_emit_trace_round_trips(self, capsys, tmp_path):
        trace_path = tmp_path / "t.txt"
        code, text, _ = invoke(capsys, "f2", "--k", "4",
                               "--emit-trace", str(trace_path))
        assert (code, text) == (0, "8\n")
        out = tmp_path / "w.cnf"
        code, text, _ = invoke(capsys, "materialize", "--k", "4", "--s", "9",
                               "--trace", str(trace_path), "--out", str(out))
        assert code == 0
        code, _, _ = invoke(capsys, "verify", str(out), "--k", "4",
                            "--max-occ", "9", "--solve")
        assert code == 0

    def test_emit_trace_to_stdout_pipes_into_materialize(self, capsys,
                                                         monkeypatch):
        code, text, err = invoke(capsys, "f2", "--k", "4", "--emit-trace", "-")
        assert (code, err) == (0, "8\n")
        assert text == serialize_trace(feasible(4, 9))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, piped, _ = invoke(capsys, "materialize", "--k", "4", "--s", "9",
                                "--trace", "-", "--out", "-")
        assert code == 0
        code, direct, _ = invoke(capsys, "materialize", "--k", "4", "--s", "9",
                                 "--out", "-")
        assert code == 0
        assert piped == direct

    def test_literal_mode_notes_on_stderr(self, capsys):
        code, text, err = invoke(capsys, "f2", "--k", "4", "--paper-literal")
        assert (code, text) == (0, "6\n")
        assert "comparison only" in err

    @pytest.mark.parametrize("k,f2", [(63, 467086816406250006),
                                      (70, 52547266845703125006)])
    def test_literal_trace_falls_back_to_the_search_witness(self, capsys, k,
                                                            f2):
        # the literal frontier overshoots T(63) and misses T(70), so the
        # emitted trace is the search's derivation
        code, text, err = invoke(capsys, "f2", "--k", str(k),
                                 "--paper-literal", "--emit-trace", "-")
        assert code == 0
        assert (hashlib.sha256(text.encode()).hexdigest()
                == WITNESS_SHA256[k, True])
        assert err.splitlines()[-1] == str(f2)
        assert "comparison only" in err

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "f2", "--k", "0")
        assert code == 2
        assert "error:" in err


_ARITY = {"AXIOM": 0, "SPLIT": 1, "COMPOSE": 2}


@st.composite
def refused_traces(draw):
    """(k, s, trace text) that materialize must refuse: random nodes, each
    naming earlier ones, then one defect that no trace survives."""
    k = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=1, max_value=2 ** k + 2))
    defect = draw(st.sampled_from([
        "bad id", "wrong arity", "forward reference", "unknown op",
        "missing FINAL", "compose of finished", "split of composed",
        "cap below requirement"]))
    if defect == "cap below requirement":
        t = f2_value(k) + 1
        s = draw(st.integers(min_value=1, max_value=t - 1))
        return k, s, serialize_trace(feasible(k, t))
    nodes = [["AXIOM"]]
    for i in range(1, draw(st.integers(min_value=1, max_value=6))):
        op = draw(st.sampled_from(sorted(_ARITY)))
        nodes.append([op] + [str(draw(st.integers(min_value=0,
                                                   max_value=i - 1)))
                             for _ in range(_ARITY[op])])
    i = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
    n = len(nodes)
    if defect == "wrong arity":
        arity = draw(st.integers(min_value=0, max_value=3).filter(
            lambda a: a != _ARITY[nodes[i][0]]))
        nodes[i] = [nodes[i][0]] + ["0"] * arity
    elif defect == "forward reference":
        nodes[i] = ["SPLIT", str(draw(st.integers(min_value=i,
                                                  max_value=i + 3)))]
    elif defect == "unknown op":
        nodes[i] = [draw(st.sampled_from(["FROB", "axiom", "FINAL"]))]
    elif defect == "compose of finished":
        # a split chain reaches width k, then is composed with itself
        nodes += [["AXIOM"]] + [["SPLIT", str(n + j)] for j in range(k)]
        nodes.append(["COMPOSE", str(n + k), str(n + k)])
    elif defect == "split of composed":
        nodes += [["AXIOM"], ["SPLIT", str(n)],
                  ["COMPOSE", str(n), str(n + 1)], ["SPLIT", str(n + 2)]]
    ids = [str(j) for j in range(len(nodes))]
    if defect == "bad id":
        ids[i] = draw(st.one_of(
            st.integers(min_value=-2, max_value=9).filter(lambda v: v != i)
            .map(str), st.sampled_from(["x", "0x1", "1.0"])))
    final = [] if defect == "missing FINAL" else [f"FINAL {len(nodes) - 1}"]
    lines = [" ".join([ident, *node]) for ident, node in zip(ids, nodes)]
    return k, s, "\n".join(lines + final) + "\n"


class TestMaterialize:
    @settings(max_examples=300, deadline=None)
    @given(refused_traces())
    def test_refused_traces_exit_with_an_error_line(self, case):
        k, s, text = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            trace_path, out = Path(tmp, "trace.txt"), Path(tmp, "x.cnf")
            trace_path.write_text(text)
            with contextlib.redirect_stderr(err):
                code = run(["materialize", "--k", str(k), "--s", str(s),
                            "--trace", str(trace_path), "--out", str(out)])
            assert not out.exists()
        assert code in (1, 2), text
        assert err.getvalue().startswith("error: "), err.getvalue()

    def test_witness_within_cap(self, capsys, tmp_path):
        out = tmp_path / "w3.cnf"
        code, text, _ = invoke(capsys, "materialize", "--k", "3", "--s", "5",
                               "--out", str(out))
        assert code == 0
        assert text.splitlines() == ["k=3", "s=5", "n=14", "m=20", str(out)]

    def test_infeasible_cap_is_violation(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "materialize", "--k", "4", "--s", "8",
                              "--out", str(tmp_path / "x.cnf"))
        assert code == 1
        assert "f2 = 8" in err

    def test_hand_written_chain_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "chain.txt"
        trace_path.write_text("0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\nFINAL 2\n")
        out = tmp_path / "k2.cnf"
        code, _, _ = invoke(capsys, "materialize", "--k", "2", "--s", "4",
                            "--trace", str(trace_path), "--out", str(out))
        assert code == 0
        code, _, _ = invoke(capsys, "verify", str(out), "--k", "2",
                            "--max-occ", "4", "--solve")
        assert code == 0

    def test_deep_trace_builds_and_refutes(self, capsys, tmp_path):
        # 3,000 nested composes, then a finish that expands the chain
        # twice: far deeper than the recursion limit, and still each
        # reference gets its own copy, in the recursive expansion's order
        lines = ["0 AXIOM", "1 SPLIT 0"]
        lines += [f"{i} COMPOSE 0 {i - 1}" for i in range(2, 3000)]
        lines += ["3000 COMPOSE 2999 2999", "FINAL 3000"]
        trace_path = tmp_path / "deep.txt"
        trace_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "deep.cnf"
        code, text, _ = invoke(capsys, "materialize", "--k", "2", "--s", "3",
                               "--trace", str(trace_path), "--out", str(out))
        assert code == 0
        assert text.splitlines()[2:4] == ["n=5999", "m=6000"]
        # recorded from the recursive expansion under a raised limit
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "131de215fe9c95a75c72d3b001e78259837e9b3aad2a445f89c9e714674a63c0")
        code, text, _ = invoke(capsys, "verify", str(out), "--k", "2",
                               "--max-occ", "3", "--solve")
        assert code == 0
        assert "solver = UNSAT" in text.splitlines()

    def test_literal_trace_overflowing_cap_is_violation(self, capsys, tmp_path):
        trace_path = tmp_path / "lit.txt"
        invoke(capsys, "f2", "--k", "4", "--paper-literal",
               "--emit-trace", str(trace_path))
        code, _, err = invoke(capsys, "materialize", "--k", "4", "--s", "7",
                              "--trace", str(trace_path), "--out",
                              str(tmp_path / "x.cnf"))
        assert code == 1
        assert "error:" in err

    def test_malformed_trace_is_usage_error(self, capsys, tmp_path):
        trace_path = tmp_path / "bad.txt"
        trace_path.write_text("0 FROB\nFINAL 0\n")
        code, _, err = invoke(capsys, "materialize", "--k", "2", "--s", "4",
                              "--trace", str(trace_path), "--out", "-")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag,message", [("--k", "k must be positive"),
                                              ("--s", "s must be positive")])
    @pytest.mark.parametrize("with_trace", [False, True])
    def test_nonpositive_k_or_s_is_usage_error(self, capsys, tmp_path, flag,
                                               message, with_trace):
        # the same exit and message whether or not a trace is given
        values = {"--k": "2", "--s": "4", flag: "0"}
        argv = ["materialize", "--k", values["--k"], "--s", values["--s"],
                "--out", str(tmp_path / "x.cnf")]
        if with_trace:
            trace_path = tmp_path / "chain.txt"
            trace_path.write_text("0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\nFINAL 2\n")
            argv += ["--trace", str(trace_path)]
        code, text, err = invoke(capsys, *argv)
        assert (code, text) == (2, "")
        assert f"error: {message}" in err
        assert not (tmp_path / "x.cnf").exists()


class TestTables:
    def test_f2_table_contents(self, capsys, tmp_path):
        out = tmp_path / "f2.csv"
        code, text, _ = invoke(capsys, "f2-table", "--k-from", "1",
                               "--k-to", "6", "--out", str(out))
        assert code == 0
        assert text == str(out) + "\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "k,f2,f2_norm,line_a,line_b,line_d"
        assert lines[3] == "3,4,1.5,0.367879,8.7889,1.02248"
        assert len(lines) == 7

    def test_f2_table_jobs_do_not_change_bytes(self, capsys, tmp_path):
        serial = tmp_path / "a.csv"
        parallel = tmp_path / "b.csv"
        invoke(capsys, "f2-table", "--k-from", "1", "--k-to", "10",
               "--out", str(serial))
        invoke(capsys, "f2-table", "--k-from", "1", "--k-to", "10",
               "--out", str(parallel), "--jobs", "2")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_bounds_table_contents(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, _, _ = invoke(capsys, "bounds", "--k-from", "3", "--k-to", "6",
                            "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("k,lll_lower,lemma1_s,lemma1_l,"
                            "lemma2_s,lemma2_l,line_a,line_b,line_d")
        assert lines[1] == bounds_csv_row(bounds_row(3))

    def test_bounds_csv_pinned(self, capsys):
        # the whole bounds table for k = 1..200, frozen from an earlier
        # run; bounds_row picks each column's l
        code, text, _ = invoke(capsys, "bounds", "--k-from", "1",
                               "--k-to", "200", "--out", "-")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "cf5b4765e28baacf103448ca9176e1129e1ab33935629a13b5b951c76b2cabbd"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_is_usage_error(self, capsys, tmp_path, jobs):
        out = tmp_path / "f2.csv"
        code, text, err = invoke(capsys, "f2-table", "--k-from", "1",
                                 "--k-to", "4", "--out", str(out),
                                 "--jobs", jobs)
        assert (code, text) == (2, "")
        assert "error: jobs must be positive" in err
        assert not out.exists()

    def test_bad_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "f2-table", "--k-from", "5",
                              "--k-to", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        code, _, err = invoke(capsys, "bounds", "--k-from", "0",
                              "--k-to", "4", "--out", str(tmp_path / "y.csv"))
        assert code == 2


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert invoke(capsys, "f2")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        pairs = []
        for name in ("a", "b"):
            cnf = tmp_path / f"{name}.cnf"
            trace = tmp_path / f"{name}.txt"
            csv = tmp_path / f"{name}.csv"
            invoke(capsys, "construct", "--method", "lemma2", "--k", "4",
                   "--l", "1", "--out", str(cnf))
            invoke(capsys, "f2", "--k", "5", "--emit-trace", str(trace))
            invoke(capsys, "f2-table", "--k-from", "1", "--k-to", "8",
                   "--out", str(csv))
            pairs.append((cnf.read_bytes(), trace.read_bytes(),
                          csv.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_module_entry_in_uninstalled_checkout(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "kcnf", "f2", "--k", "5"],
                              capture_output=True, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stdout) == (0, b"14\n")

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        # a reader that stops early, like `| head -1`, is no usage error
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kcnf", "f2-table", "--k-from", "1",
             "--k-to", "200", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
            env=env)
        assert proc.stdout.readline() == b"k,f2,f2_norm,line_a,line_b,line_d\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")

    def test_closed_stdout_without_descriptor(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["f2", "--k", "3"]) == 1
        assert capsys.readouterr().err == ""

    def test_console_script_entry(self, tmp_path):
        # run the declared target as the generated `kcnf` script would,
        # whether or not the package is installed
        root = Path(__file__).resolve().parents[1]
        text = (root / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^\[project\.scripts\][^\[]*?'
                           r'^kcnf\s*=\s*"([\w.]+):(\w+)"', text, re.M)
        assert target, "pyproject.toml declares no kcnf script"
        module, func = target.groups()
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.exit({func}())",
             "f2", "--k", "3"],
            capture_output=True, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stdout) == (0, b"4\n")
