"""Command-line front end, exercised end to end through main()."""

import csv
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cdlim
from cdlim import harness
from cdlim.cli import build_parser, main
from cdlim.credit import CreditKernel
from cdlim.graph import SocialGraph, generate_ic_actions, write_action_log
from cdlim.harness import CSV_SCHEMA


def _write_f1(d):
    """The anchor instance's graph, action log and gamma table, in ``d``."""
    d.mkdir(exist_ok=True)
    (d / "graph.txt").write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    (d / "actions.txt").write_text("0 0 1\n1 0 2\n2 0 3\n", encoding="utf-8")
    (d / "gamma.txt").write_text("0 1 0 0.5\n1 2 0 0.4\n0 2 0 0.3\n", encoding="utf-8")
    return d


@pytest.fixture
def f1_files(tmp_path):
    return _write_f1(tmp_path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        rows = list(csv.reader(fh))
    return first, rows


def _base_args(d):
    return ["--graph", str(d / "graph.txt"), "--actions", str(d / "actions.txt"),
            "--targets", "0", "--scheme", "explicit",
            "--gamma-table", str(d / "gamma.txt")]


NEVER_ACTS = "error: no target user performs any action: nothing to limit\n"


def _never_acting_target_args(d):
    """Add node 3, which performs no action, to the graph in ``d`` and
    return problem flags that target it alone."""
    (d / "graph.txt").write_text("0 1\n1 2\n0 2\n3 0\n", encoding="utf-8")
    args = _base_args(d)
    args[args.index("--targets") + 1] = "3"
    return args


def _must_not_run(*args):
    raise AssertionError("a method ran on targets that never act")


def _run_cli(*args):
    """``python -m cdlim.cli`` in a fresh interpreter, output captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(cdlim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "cdlim.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, check=False)


class TestBil:
    def test_k2(self, f1_files, capsys):
        out = f1_files / "bil.csv"
        rc = main(["bil", *_base_args(f1_files), "-k", "2", "--out", str(out)])
        assert rc == 0
        assert "delta=1" in capsys.readouterr().out
        schema, rows = _read_csv(out)
        assert schema == f"# schema={CSV_SCHEMA}"
        assert rows[0] == ["step", "edge", "marginal", "cumulativeDelta", "DIpercent"]
        assert rows[1][1] == "0->1" and rows[2][1] == "0->2"
        assert float(rows[2][4]) == pytest.approx(50.0)

    def test_lazy_and_prune_flags(self, f1_files, capsys):
        # Greedy is always lazy and never prunes: both flags are gone.
        for flag in ("--lazy", "--prune"):
            with pytest.raises(SystemExit) as exc:
                main(["bil", *_base_args(f1_files), "-k", "2", flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_budget_below_one(self, f1_files, capsys, k):
        assert main(["bil", *_base_args(f1_files), "-k", k]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 1" in err
        assert len(err.splitlines()) == 1

    def test_budget_error(self, f1_files, capsys):
        rc = main(["bil", *_base_args(f1_files), "-k", "5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_candidates_file(self, f1_files):
        cand = f1_files / "cand.txt"
        cand.write_text("0 2\n1 2\n", encoding="utf-8")
        out = f1_files / "bil3.csv"
        rc = main(["bil", *_base_args(f1_files), "-k", "1",
                   "--candidates", str(cand), "--out", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        assert rows[1][1] == "0->2"

    @pytest.mark.parametrize("text, message", [
        ("0 2\n0 1 2\n", "{}:2: expected 'u v', got '0 1 2'"),
        ("# edges\n0 x\n", "{}:2: non-integer token 'x'"),
        ("# edges\n\n  0 2\n0 1 2\n", "{}:4: expected 'u v', got '0 1 2'"),
        ("# edges\n\n  0 2\n 0 x\n", "{}:4: non-integer token 'x'"),
    ])
    def test_bad_candidates_line(self, f1_files, capsys, text, message):
        cand = f1_files / "cand.txt"
        cand.write_text(text, encoding="utf-8")
        assert main(["bil", *_base_args(f1_files), "-k", "1", "--candidates", str(cand)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(cand)}\n"

    @pytest.mark.parametrize("line, message", [
        ("20 30 1.5", "gamma 1.5 outside [0, 1]"),
        ("20 30 x", "non-numeric gamma 'x'"),
        ("20 3o 0.5", "non-integer token '3o'"),
        ("20 40 0.5", "unknown node id 40"),
    ])
    def test_bad_gamma_table_line(self, f1_files, capsys, line, message):
        # Labels 10, 20, 30 are dense ids 0, 1, 2: the error names the file
        # line, not an edge in dense ids.
        (f1_files / "graph.txt").write_text("10 20\n20 30\n10 30\n", encoding="utf-8")
        (f1_files / "actions.txt").write_text("10 0 1\n20 0 2\n30 0 3\n", encoding="utf-8")
        gamma = f1_files / "gamma.txt"
        gamma.write_text(f"10 20 0.5\n{line}\n10 30 0.3\n", encoding="utf-8")
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = "10"
        assert main(["bil", *args, "-k", "1"]) == 1
        assert capsys.readouterr().err == f"error: {gamma}:2: {message}\n"

    def test_non_integer_target(self, f1_files, capsys):
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = "0,a"
        assert main(["bil", *args, "-k", "1"]) == 1
        assert capsys.readouterr().err == "error: --targets: non-integer token 'a'\n"
        tfile = f1_files / "targets.txt"
        tfile.write_text("0\n1.5\n", encoding="utf-8")
        args[args.index("--targets") + 1] = str(tfile)
        assert main(["bil", *args, "-k", "1"]) == 1
        assert capsys.readouterr().err == f"error: {tfile}: non-integer token '1.5'\n"

    def test_target_that_never_acts(self, f1_files, capsys):
        args = _never_acting_target_args(f1_files)
        assert main(["bil", *args, "-k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert err == NEVER_ACTS
        assert main(["grr", *args, "-k", "1", "-b", "1"]) == 1

    def test_unknown_target_label(self, f1_files, capsys):
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = "0,9"
        assert main(["bil", *args, "-k", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --targets: unknown node id 9\n"

    def test_unknown_label_in_targets_file(self, f1_files, capsys):
        tfile = f1_files / "targets.txt"
        tfile.write_text("0\n9\n", encoding="utf-8")
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = str(tfile)
        assert main(["bil", *args, "-k", "1"]) == 1
        assert capsys.readouterr().err == f"error: {tfile}: unknown node id 9\n"

    def test_unknown_label_in_candidates_file(self, f1_files, capsys):
        cfile = f1_files / "cands.txt"
        cfile.write_text("0 1\n# comment\n1 9\n", encoding="utf-8")
        assert main(["bil", *_base_args(f1_files), "--candidates", str(cfile), "-k", "1"]) == 1
        assert capsys.readouterr().err == f"error: {cfile}:3: unknown node id 9\n"

    def test_self_loop_then_unknown_user_in_a_shell(self, f1_files):
        # One stderr line: the self-loop warning goes with the error.
        (f1_files / "graph.txt").write_text("0 1\n1 2\n0 2\n2 2\n", encoding="utf-8")
        log = f1_files / "actions.txt"
        log.write_text("0 0 1\n7 0 2\n", encoding="utf-8")
        got = _run_cli("bil", *_base_args(f1_files), "-k", "1")
        assert (got.returncode, got.stderr) == (1, f"error: {log}:2: unknown user id 7\n")

    def test_candidate_not_in_graph(self, f1_files, capsys):
        cfile = f1_files / "cands.txt"
        cfile.write_text("0 1\n2 0\n", encoding="utf-8")
        for command in (["bil", "-k", "1"], ["ilm", "-b", "1"]):
            assert main([command[0], *_base_args(f1_files), "--candidates", str(cfile),
                         *command[1:]]) == 1
            assert capsys.readouterr().err == f"error: {cfile}:2: edge 2->0 is not in the graph\n"

    def test_three_column_gamma_table(self, f1_files, capsys):
        (f1_files / "gamma.txt").write_text("0 1 0.5\n1 2 0.4\n0 2 0.3\n",
                                            encoding="utf-8")
        assert main(["bil", *_base_args(f1_files), "-k", "2"]) == 0
        assert "delta=1 " in capsys.readouterr().out

    def test_targets_file(self, f1_files):
        tfile = f1_files / "targets.txt"
        tfile.write_text("0\n", encoding="utf-8")
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = str(tfile)
        assert main(["bil", *args, "-k", "1"]) == 0

    def test_targets_file_comments_and_blank_lines(self, f1_files, capsys):
        # Read like every other input file: '#' lines and blank lines are skipped.
        tfile = f1_files / "targets.txt"
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = str(tfile)
        tfile.write_text("0\n", encoding="utf-8")
        assert main(["bil", *args, "-k", "1"]) == 0
        plain = capsys.readouterr().out
        tfile.write_text("# targets\n\n  0  \n# end\n", encoding="utf-8")
        assert main(["bil", *args, "-k", "1"]) == 0
        assert capsys.readouterr().out == plain

    def test_targets_file_without_ids(self, f1_files, capsys, monkeypatch):
        # Rejected where it is read, not as targets that never act.
        tfile = f1_files / "targets.txt"
        tfile.write_text("# targets\r\n\n# none yet\n", encoding="utf-8")
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = str(tfile)
        monkeypatch.setattr(harness, "sigma_before", _must_not_run)
        for command in (["bil", "-k", "1"], ["ilm", "-b", "1"]):
            assert main([command[0], *args, *command[1:]]) == 1
            assert capsys.readouterr().err == f"error: --targets: {tfile} holds no target ids\n"

    @pytest.mark.parametrize("scheme", [[], ["--scheme", "uniform"], ["--scheme", "learned"]])
    def test_gamma_table_needs_the_explicit_scheme(self, f1_files, capsys, scheme):
        # Otherwise the table would be read, checked and then ignored.
        args = [*_base_args(f1_files)[:6], *scheme, "--gamma-table",
                str(f1_files / "gamma.txt")]
        name = scheme[1] if scheme else "uniform"
        for command in (["bil", "-k", "1"], ["grr", "-k", "1", "-b", "1"], ["ilm", "-b", "1"],
                        ["baseline", "--method", "random", "-k", "1"]):
            assert main([command[0], *args, *command[1:]]) == 1
            assert capsys.readouterr().err == (
                f"error: --gamma-table needs --scheme explicit, not --scheme {name}\n")

    def test_explicit_scheme_needs_a_gamma_table(self, f1_files, capsys):
        args = _base_args(f1_files)[:8]
        assert args[-2:] == ["--scheme", "explicit"]
        assert main(["bil", *args, "-k", "1"]) == 1
        assert capsys.readouterr().err == "error: --scheme explicit needs --gamma-table\n"

    def test_gamma_table_flag_error_in_a_shell(self, f1_files):
        # One stderr line and exit 1, before any input is read: the graph
        # file is missing.
        (f1_files / "graph.txt").unlink()
        args = _base_args(f1_files)
        got = _run_cli("bil", *args[:6], "--gamma-table", args[-1], "-k", "1")
        assert (got.returncode, got.stdout) == (1, "")
        assert got.stderr == "error: --gamma-table needs --scheme explicit, not --scheme uniform\n"


class TestGrr:
    def test_bound(self, f1_files):
        out = f1_files / "grr.csv"
        rc = main(["grr", *_base_args(f1_files), "-k", "2", "-b", "1",
                   "--out", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        heads = [row[1].split("->")[1] for row in rows[1:]]
        assert len(heads) == len(set(heads))

    def test_prune_rejected(self, f1_files, capsys):
        for flag in ("--prune", "--lazy"):
            with pytest.raises(SystemExit) as exc:
                main(["grr", *_base_args(f1_files), "-k", "2", "-b", "1", flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("b", ["0", "-1"])
    def test_bound_below_one(self, f1_files, capsys, b):
        assert main(["grr", *_base_args(f1_files), "-k", "1", "-b", b]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "per-node bound" in err
        assert len(err.splitlines()) == 1


class TestIlm:
    def test_randomized(self, f1_files, capsys):
        out = f1_files / "ilm.csv"
        rc = main(["ilm", *_base_args(f1_files), "-b", "1", "--tau", "30",
                   "--seed", "3", "--trials", "20", "--verbose", "--out", str(out)])
        assert rc == 0
        assert "delta=" in capsys.readouterr().out
        _, rows = _read_csv(out)
        kinds = {row[0] for row in rows[1:]}
        assert {"y", "removed", "solution", "trial"} <= kinds

    def test_exact_y_does_not_depend_on_seed(self, f1_files):
        # The weights are exact: y is the same at every seed, which drives
        # only the rounding.
        ys = []
        for seed in ("1", "2"):
            out = f1_files / f"ilm-exact-{seed}.csv"
            rc = main(["ilm", *_base_args(f1_files), "-b", "1", "--tau", "30",
                       "--seed", seed, "--out", str(out)])
            assert rc == 0
            _, rows = _read_csv(out)
            ys.append([row for row in rows[1:] if row[0] == "y"])
        assert ys[0] == ys[1] and len(ys[0]) == 3

    def test_bad_tau_is_an_error(self, f1_files, capsys):
        rc = main(["ilm", *_base_args(f1_files), "-b", "1", "--tau", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: tau=0 must be at least 1\n"

    def test_samples_flag(self, f1_files, capsys):
        # The weights are always exact: the sampled path's flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["ilm", *_base_args(f1_files), "-b", "1", "--samples", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err

    def test_swap(self, f1_files):
        out = f1_files / "ilm2.csv"
        rc = main(["ilm", *_base_args(f1_files), "-b", "1", "--tau", "30",
                   "--seed", "3", "--rounding", "swap", "--out", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        removed = [row[1] for row in rows[1:] if row[0] == "removed"]
        heads = [edge.split("->")[1] for edge in removed]
        assert len(heads) == len(set(heads))


class TestBaselineCmd:
    def test_high_degree(self, f1_files, capsys):
        rc = main(["baseline", *_base_args(f1_files), "--method", "high-degree",
                   "-k", "2", "--out", str(f1_files / "hd.csv")])
        assert rc == 0
        assert "high-degree" in capsys.readouterr().out

    def test_high_degree_csv_text(self, f1_files, monkeypatch):
        # A fixed clock makes wall_ms 12.5 and eval_ms 25.0, so the whole
        # file is pinned, down to the blank b column and the seed.
        ticks = iter([1.0, 1.0125, 2.0, 2.025])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        out = f1_files / "hd.csv"
        assert main(["baseline", *_base_args(f1_files), "--method", "high-degree",
                     "-k", "2", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"# schema=cdlim-results-v2\n"
            b"method,k,b,seed,delta,di_percent,top3_share,wall_ms,eval_ms\r\n"
            b"high-degree,2,,7,1,50.000000,100.000,12.5,25.0\r\n")

    def test_random(self, f1_files):
        rc = main(["baseline", *_base_args(f1_files), "--method", "random",
                   "-k", "1", "--seed", "5"])
        assert rc == 0

    def test_zero_k_is_an_error(self, f1_files, capsys):
        for method in ("high-degree", "random"):
            rc = main(["baseline", *_base_args(f1_files), "--method", method, "-k", "0"])
            assert rc == 1, method
            assert capsys.readouterr().err == "error: k=0 must be at least 1\n", method

    def test_target_that_never_acts(self, f1_files, capsys, monkeypatch):
        # The same one-line error as bil, raised before the baseline runs.
        args = _never_acting_target_args(f1_files)
        monkeypatch.setattr(harness, "run_method", _must_not_run)
        for method in ("high-degree", "random"):
            assert main(["baseline", *args, "--method", method, "-k", "1"]) == 1, method
            assert capsys.readouterr().err == NEVER_ACTS, method


class TestGen:
    def test_gen_then_bil(self, tmp_path, capsys):
        g = tmp_path / "graph.txt"
        g.write_text("".join(f"{u} {u + 1}\n" for u in range(10)), encoding="utf-8")
        out = tmp_path / "actions.txt"
        rc = main(["gen", "--graph", str(g), "--out", str(out),
                   "--num-actions", "20", "--seeds-per-action", "1",
                   "--edge-prob", "0.8", "--seed", "11"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(["bil", "--graph", str(g), "--actions", str(out),
                   "--targets", "0,1,2", "-k", "1"])
        assert rc == 0

    @pytest.mark.parametrize("num_actions", ["0", "-2"])
    def test_num_actions_below_one(self, tmp_path, capsys, num_actions):
        g = tmp_path / "graph.txt"
        g.write_text("0 1\n", encoding="utf-8")
        out = tmp_path / "actions.txt"
        assert main(["gen", "--graph", str(g), "--out", str(out),
                     "--num-actions", num_actions]) == 1
        assert capsys.readouterr().err == (
            f"error: num_actions {num_actions} must be at least 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# no edges\n", "4 4\n"])
    def test_graph_without_edges(self, tmp_path, capsys, text):
        g = tmp_path / "graph.txt"
        g.write_text(text, encoding="utf-8")
        out = tmp_path / "actions.txt"
        assert main(["gen", "--graph", str(g), "--out", str(out), "--num-actions", "3"]) == 1
        assert capsys.readouterr().err == f"error: {g}: the graph has no edges\n"
        assert not out.exists()

    def test_graph_of_one_self_loop_in_a_shell(self, tmp_path):
        # The dropped-self-loop warning is held while the command runs and
        # dropped with the error, so stderr is the one 'error:' line. Run in
        # a subprocess: pytest's log capture hides the handler that prints it.
        g = tmp_path / "graph.txt"
        g.write_text("4 4\n", encoding="utf-8")
        out = tmp_path / "actions.txt"
        got = _run_cli("gen", "--graph", g, "--out", out, "--num-actions", "3")
        assert (got.returncode, got.stderr) == (1, f"error: {g}: the graph has no edges\n")
        assert not out.exists()

    def test_self_loop_warning_kept_on_success(self, tmp_path):
        g = tmp_path / "graph.txt"
        g.write_text("0 1\n1 1\n", encoding="utf-8")
        got = _run_cli("gen", "--graph", g, "--out", tmp_path / "actions.txt",
                       "--num-actions", "3")
        assert (got.returncode, got.stderr) == (0, f"{g}: dropped 1 self-loop(s)\n")

    def test_gen_deterministic(self, tmp_path):
        g = tmp_path / "graph.txt"
        g.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["gen", "--graph", str(g), "--out", str(out),
                  "--num-actions", "5", "--edge-prob", "0.5", "--seed", "2"])
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


class TestReport:
    def test_report_and_verify(self, f1_files):
        cfg = f1_files / "cfg.txt"
        cfg.write_text(f"graph={f1_files / 'graph.txt'}\n"
                       f"actions={f1_files / 'actions.txt'}\n"
                       "methods=greedy,random\nk=1,2\ntargets=0\nseed=4\n",
                       encoding="utf-8")
        out = f1_files / "report.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 5  # header + 4 cells

    def _run_verify(self, d, methods, capsys):
        """``cdlim verify`` on the f1 files with ``methods`` at k=1,2 and
        b=1: its exit code and its standard-error lines."""
        cfg = d / "cfg.txt"
        cfg.write_text(f"graph={d / 'graph.txt'}\nactions={d / 'actions.txt'}\n"
                       f"methods={methods}\nk=1,2\nb=1\ntargets=0\n", encoding="utf-8")
        rc = main(["verify", "--config", str(cfg)])
        return rc, capsys.readouterr().err.splitlines()

    def test_verify_checks_the_solvers_gains(self, f1_files, capsys, monkeypatch):
        # A kernel whose marginals are off (by 1.5 on edges with an odd
        # tail, 0.5 on the rest) picks edges whose from-scratch delta is
        # right, so only the gains greedy reports can show it.
        marginal = CreditKernel.marginal
        monkeypatch.setattr(CreditKernel, "marginal",
                            lambda self, e: marginal(self, e) * (1.5 if e[0] % 2 else 0.5))
        rc, err = self._run_verify(f1_files, "greedy,grr", capsys)
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: verification mismatch for greedy k=1:")

    def test_verify_recomputes_the_kept_maps(self, f1_files, capsys, monkeypatch):
        # The influence before removal fills the kept from-scratch SC maps;
        # overwriting them then skews every sum read from them, delta_set
        # on the same DAG tuple included. High-degree claims no delta, so
        # only verify's own recomputation can show it.
        sigma_before = harness.sigma_before

        def overwrite_kept_maps(dags, X):
            sigma_before(dags, X)
            for sc in dags.target.base:
                for u in sc:
                    sc[u] *= 2.0
            return sigma_before(dags, X)

        monkeypatch.setattr(harness, "sigma_before", overwrite_kept_maps)
        rc, err = self._run_verify(f1_files, "high-degree", capsys)
        assert rc == 1
        assert len(err) == 1 and err[0].startswith(
            "error: verification mismatch for high-degree k=1:")

    def test_target_that_never_acts(self, f1_files, capsys, monkeypatch):
        # One whole-graph influence pass before the grid, so no cell runs.
        _never_acting_target_args(f1_files)
        cfg = f1_files / "cfg.txt"
        cfg.write_text(f"graph={f1_files / 'graph.txt'}\n"
                       f"actions={f1_files / 'actions.txt'}\n"
                       "methods=greedy,high-degree\nk=1\ntargets=3\n",
                       encoding="utf-8")
        monkeypatch.setattr(harness, "run_method", _must_not_run)
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg)]) == 1, command
            assert capsys.readouterr().err == NEVER_ACTS, command

    def test_missing_graph(self, f1_files, capsys):
        cfg = f1_files / "cfg.txt"
        cfg.write_text("graph=/nope/missing.txt\nactions=a\nmethods=greedy\n",
                       encoding="utf-8")
        assert main(["report", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_commands_and_report_solve_one_problem(self, tmp_path, capsys):
        # A small chokepoint: targets 0-2 feed relays 3 and 4, which fan
        # out over a random background. bil, grr and the high-degree
        # baseline print the delta and DI of report's rows for the same
        # k, b and targets, since both front ends load one problem.
        rng = random.Random(5)
        n = 40
        edges = {(x, r) for x in range(3) for r in (3, 4)}
        edges |= {(r, v) for r in (3, 4) for v in rng.sample(range(5, n), 8)}
        while len(edges) < 160:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        graph = SocialGraph(n, sorted(edges))
        (tmp_path / "graph.txt").write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)),
                                            encoding="utf-8")
        write_action_log(generate_ic_actions(graph, 80, 1, 0.3, seed=5),
                         tmp_path / "actions.txt")
        problem = ["--graph", str(tmp_path / "graph.txt"), "--actions",
                   str(tmp_path / "actions.txt"), "--targets", "0,1,2"]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={tmp_path / 'graph.txt'}\nactions={tmp_path / 'actions.txt'}\n"
                       "methods=greedy,grr,high-degree\nk=1,3,6\nb=2\ntargets=0,1,2\n",
                       encoding="utf-8")
        reports = harness.run_experiment(str(cfg))
        assert len(reports) == 9
        commands = {"greedy": ["bil"], "grr": ["grr", "-b", "2"],
                    "high-degree": ["baseline", "--method", "high-degree"]}
        for rep in reports:
            assert main([commands[rep.method][0], *problem, *commands[rep.method][1:],
                         "-k", str(rep.k)]) == 0
            prefix = "high-degree: " if rep.method == "high-degree" else ""
            assert capsys.readouterr().out == (
                f"{prefix}delta={rep.delta:.9g} di={rep.di_percent:.4f}%\n"), rep


@pytest.mark.parametrize("argv, message", [
    (["ilm", "-b", "1", "--tau", "0"], "tau=0 must be at least 1"),
    (["ilm", "-b", "1", "--trials", "0"], "trials=0 must be at least 1"),
    # Swap rounding draws one set, but a bad --trials is still an error.
    (["ilm", "-b", "1", "--trials", "-2", "--rounding", "swap"], "trials=-2 must be at least 1"),
    (["ilm", "-b", "0"], "per-node bound b=0 must be at least 1"),
    (["grr", "-k", "1", "-b", "0"], "per-node bound b=0 must be at least 1"),
    (["grr", "-k", "0", "-b", "1"], "budget k=0 must be at least 1"),
    (["bil", "-k", "0"], "budget k=0 must be at least 1"),
    (["baseline", "--method", "random", "-k", "0"], "k=0 must be at least 1"),
], ids=["ilm-tau", "ilm-trials", "ilm-swap-trials", "ilm-b", "grr-b", "grr-k",
        "bil-k", "baseline-k"])
def test_flags_are_checked_before_any_input_is_read(tmp_path, capsys, argv, message):
    # No input file exists, so a flag checked only after loading (or after
    # solving) would report the missing graph instead.
    missing = ["--graph", str(tmp_path / "graph.txt"), "--actions", str(tmp_path / "actions.txt"),
               "--targets", "0"]
    assert main([*argv, *missing]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--num-actions", "0"], "num_actions 0 must be at least 1"),
    (["--num-actions", "3", "--seeds-per-action", "0"], "seeds_per_action 0 must be at least 1"),
    (["--num-actions", "3", "--edge-prob", "2"], "edge probability 2.0 outside [0, 1]"),
    (["--num-actions", "3", "--edge-prob", "-0.5"], "edge probability -0.5 outside [0, 1]"),
], ids=["num-actions", "seeds-per-action", "edge-prob-high", "edge-prob-low"])
def test_gen_flags_are_checked_before_the_graph_is_read(tmp_path, capsys, argv, message):
    # The graph file does not exist, so a flag checked only after loading
    # would report the missing graph instead.
    rc = main(["gen", "--graph", str(tmp_path / "graph.txt"), "--out", str(tmp_path / "out.txt"),
               *argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.txt").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every `cdlim` command in the README's shell blocks, continuations joined."""
    commands, in_sh = [], False
    for line in README.read_text(encoding="utf-8").replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("cdlim "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"gen", "bil", "grr", "ilm", "baseline",
                                              "report", "verify"}
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # Each example runs in its own copy of the f1 files, under the names the
    # README uses, so that gen's output does not feed the later examples.
    for i, argv in enumerate(_readme_commands()):
        d = _write_f1(tmp_path / str(i))
        (d / "experiment.cfg").write_text(
            "graph=graph.txt\nactions=actions.txt\nmethods=greedy,high-degree\n"
            "k=1,2\ntargets=0\n", encoding="utf-8")
        monkeypatch.chdir(d)
        rc = main(argv)
        assert rc == 0, (argv, capsys.readouterr().err)


def test_readme_library_block_runs(capsys):
    # The block imports from the package root, so it also guards the
    # names cdlim/__init__.py exports.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "3.0\n[(0, 1), (0, 2)] 2.0\n"
