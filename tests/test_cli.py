"""Command-line front end, exercised end to end through main()."""

import csv
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from cdlim import harness
from cdlim.cli import build_parser, main
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
        (f1_files / "graph.txt").write_text("0 1\n1 2\n0 2\n3 0\n", encoding="utf-8")
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = "3"
        assert main(["bil", *args, "-k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert main(["grr", *args, "-k", "1", "-b", "1"]) == 1

    def test_unknown_target_label(self, f1_files, capsys):
        args = _base_args(f1_files)
        args[args.index("--targets") + 1] = "0,9"
        assert main(["bil", *args, "-k", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown node id 9\n"

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
                   "--samples", "10", "--seed", "3", "--trials", "20",
                   "--verbose", "--out", str(out)])
        assert rc == 0
        assert "delta=" in capsys.readouterr().out
        _, rows = _read_csv(out)
        kinds = {row[0] for row in rows[1:]}
        assert {"y", "removed", "solution", "trial"} <= kinds

    def test_swap(self, f1_files):
        out = f1_files / "ilm2.csv"
        rc = main(["ilm", *_base_args(f1_files), "-b", "1", "--tau", "30",
                   "--samples", "10", "--seed", "3", "--rounding", "swap",
                   "--out", str(out)])
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
            assert capsys.readouterr().err == "error: k must be >= 1\n", method


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

    def test_missing_graph(self, f1_files, capsys):
        cfg = f1_files / "cfg.txt"
        cfg.write_text("graph=/nope/missing.txt\nactions=a\nmethods=greedy\n",
                       encoding="utf-8")
        assert main(["report", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


def _readme_commands():
    """Every `cdlim` command in the README's shell blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands, in_sh = [], False
    for line in text.replace("\\\n", " ").splitlines():
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
