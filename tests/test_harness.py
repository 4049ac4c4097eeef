"""Experiment harness: metric, baselines, candidate sets, concentration,
config parsing, and grid runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlim import harness
from cdlim.cli import main
from cdlim.graph import (ActionLog, SocialGraph, build_all_dags,
                         generate_ic_actions, write_action_log)
from cdlim.harness import (CSV_COLUMNS, CSV_SCHEMA, Problem, baseline_high_degree,
                           baseline_random, concentration_report,
                           default_candidates, di_metric, parse_config,
                           pick_targets, run_experiment, run_method,
                           sigma_before, write_reports_csv)
from conftest import make_f1

TOL = 1e-9


class TestDiMetric:
    def test_half(self):
        assert di_metric(2.0, 1.0) == 50.0

    def test_no_change(self):
        assert di_metric(3.7, 3.7) == 0.0

    def test_total(self):
        assert di_metric(2.0, 0.0) == 100.0

    def test_nonpositive_before(self):
        with pytest.raises(ValueError):
            di_metric(0.0, 0.0)


class TestDefaultCandidates:
    def test_f1_all(self, f1):
        assert default_candidates(f1.dags) == set(f1.C)

    def test_unrealized_social_edge_excluded(self):
        # (1, 0) exists socially but violates the time order in every action
        g = SocialGraph(2, [(0, 1), (1, 0)])
        log = ActionLog([(0, 0, 1), (1, 0, 2)])
        dags = build_all_dags(g, log)
        assert default_candidates(dags) == {(0, 1)}

    def test_empty_log(self):
        assert default_candidates([]) == set()


class TestBaselines:
    def test_high_degree_f1(self, f1):
        got = baseline_high_degree(f1.graph, f1.X, 2)
        assert got == [(0, 1), (0, 2)]  # equal degrees, id order

    def test_high_degree_no_outgoing(self):
        g = SocialGraph(3, [(0, 1), (1, 2)])
        assert baseline_high_degree(g, {2}, 2) == []

    def test_high_degree_exhaustion(self, f1):
        got = baseline_high_degree(f1.graph, f1.X, 10)
        assert sorted(got) == [(0, 1), (0, 2)]

    def test_random_full(self, f1):
        assert sorted(baseline_random(f1.C, 3, random.Random(0))) == f1.C

    def test_random_rejects_k_below_one(self, f1):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k={k} must be at least 1$"):
                baseline_random(f1.C, k, random.Random(0))

    def test_random_reproducible(self, f1):
        a = baseline_random(f1.C, 2, random.Random(9))
        b = baseline_random(f1.C, 2, random.Random(9))
        assert a == b

    def test_random_over_budget(self, f1):
        with pytest.raises(ValueError):
            baseline_random(f1.C, 4, random.Random(0))

    def test_random_counts_each_candidate_once(self, f1):
        # A repeated candidate is drawn at most once and counts once in |C|.
        for seed in range(10):
            for k in (2, 3):
                got = baseline_random(f1.C + f1.C, k, random.Random(seed))
                assert len(set(got)) == k, (seed, got)
        with pytest.raises(ValueError, match=r"^k=4 exceeds \|C\|=3$"):
            baseline_random(f1.C + f1.C, 4, random.Random(0))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
    st.integers(1, 2 * n))))
def test_high_degree_matches_edge_list_reference(case):
    # Non-targets ranked by in-degree plus out-degree, both counted on the
    # loop-free, duplicate-free edge list, ties by id; the edges from the
    # targets into them, in that order, cut at k.
    n, pairs, X, k = case
    edges = {(u, v) for u, v in pairs if u != v}
    out_degree = {v: sum(u == v for u, _ in edges) for v in range(n)}
    in_degree = {v: sum(w == v for _, w in edges) for v in range(n)}
    ranked = sorted(set(range(n)) - X, key=lambda v: (-(out_degree[v] + in_degree[v]), v))
    want = [(x, v) for v in ranked for x in sorted(X) if (x, v) in edges][:k]
    assert baseline_high_degree(SocialGraph(n, pairs), X, k) == want


class TestConcentration:
    def test_single_head(self):
        assert concentration_report([(0, 9), (1, 9), (2, 9)]) == 100.0

    def test_spread(self):
        B = [(0, v) for v in range(1, 51)]
        assert abs(concentration_report(B) - 6.0) < TOL

    def test_f1_solution(self):
        assert concentration_report([(0, 1), (0, 2)]) == 100.0

    def test_empty(self):
        with pytest.raises(ValueError):
            concentration_report([])


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\ngraph=g.txt\nk=10,20\n", encoding="utf-8")
        assert parse_config(str(path)) == {"graph": "g.txt", "k": "10,20"}

    def test_malformed(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("graph g.txt\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            parse_config(str(path))
        path.write_text("# grid\n\n  k=10\n graph g.txt\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            parse_config(str(path))
        assert str(exc.value) == f"{path}:4: expected key=value, got 'graph g.txt'"


class TestPickTargets:
    def test_top_actions_pool(self):
        counts = {u: 10 - u for u in range(10)}
        got = pick_targets(counts, 3, random.Random(0), pool_size=3)
        assert got <= {0, 1, 2}

    def test_uniform(self):
        counts = {u: 1 for u in range(10)}
        got = pick_targets(counts, 4, random.Random(0), sampler="uniform")
        assert len(got) == 4

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            pick_targets({0: 1}, 1, random.Random(0), sampler="bogus")


def _must_not_call(*args):
    raise AssertionError("called after the run was rejected")


def _bench_files(tmp_path, n=30, num_actions=40, seed=3):
    rng = random.Random(seed)
    edges = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
                   - {(u, u) for u in range(n)})
    graph = SocialGraph(n, edges)
    log = generate_ic_actions(graph, num_actions, 2, 0.4, seed=seed)
    gpath = tmp_path / "graph.txt"
    gpath.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    apath = tmp_path / "actions.txt"
    write_action_log(log, apath)
    return str(gpath), str(apath), graph, log


class TestRunExperiment:
    def test_grid_size_and_verify(self, tmp_path):
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\n"
                       "methods=greedy,high-degree,random\nk=2,3,4\n"
                       "target_size=3\nseed=1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        reports = run_experiment(str(cfg), out_path=str(out), verify=True)
        assert len(reports) == 9
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# schema={CSV_SCHEMA}"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 11

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("actions=a.txt\nmethods=greedy\n", encoding="utf-8")
        with pytest.raises(ValueError, match="graph"):
            run_experiment(str(cfg))

    def test_di_matches_scratch_recompute(self, f1):
        from cdlim.credit import sigma_cd_scratch
        problem = Problem(f1.graph, f1.dags, f1.X, f1.C, sigma_before(f1.dags, f1.X))
        rep = run_method("greedy", problem, 2, None, 0)
        before = sigma_cd_scratch(f1.dags, f1.X)
        after = sigma_cd_scratch(f1.dags, f1.X, removed=frozenset(rep.edges))
        assert abs(rep.di_percent - di_metric(before, after)) < 1e-6
        assert abs(rep.di_percent - 50.0) < 1e-6

    def test_unknown_method(self, f1):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("bogus", Problem(f1.graph, f1.dags, f1.X, f1.C, 1.0), 1, None, 0)

    def test_grr_needs_bound(self, f1, tmp_path, capsys):
        with pytest.raises(ValueError, match="per-node bound b"):
            run_method("grr", Problem(f1.graph, f1.dags, f1.X, f1.C, 1.0), 1, None, 0)
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\nmethods=grr\nk=2\n",
                       encoding="utf-8")
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "per-node bound b" in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("lines, message", [
        ("methods=greedy,grr\nk=1,2\n", "key 'methods': method 'grr' needs a per-node bound b"),
        ("methods=greedy,\nk=1\n", "key 'methods': empty method name in 'greedy,'"),
        ("methods=greedy,bogus\nk=1\n", "key 'methods': unknown method 'bogus'"),
        ("methods=greedy\nk=\n", "key 'k': no values"),
        ("methods=greedy\nk=2,0\n", "key 'k': value 0 is below 1"),
        ("methods=greedy,grr\nk=1\nb=0\n", "key 'b': value 0 is below 1"),
        ("methods=greedy\ntargest=0\n", "unknown key 'targest'"),
        ("methods=greedy\nscheme=normalized-learned\n",
         "key 'scheme': unknown credit scheme 'normalized-learned'"),
        ("methods=greedy\nscheme=explicit\n",
         "key 'scheme': credit scheme 'explicit' needs a gamma table, which a config "
         "cannot name"),
        ("methods=greedy\ntarget_sampler=bogus\n",
         "key 'target_sampler': unknown target sampler 'bogus'"),
        ("methods=greedy\ntarget_size=0\n", "key 'target_size': value 0 is below 1"),
        ("methods=greedy\ntarget_pool=-3\n", "key 'target_pool': value -3 is below 1"),
        # The last value of a repeated key would otherwise win silently.
        ("methods=greedy\ntargets=0\ntargets=5\n", "key 'targets': set again on line 5"),
    ])
    def test_config_is_checked_before_any_cell(self, tmp_path, capsys, monkeypatch, lines,
                                               message):
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\n{lines}", encoding="utf-8")
        cells = []
        monkeypatch.setattr(harness, "load_graph", _must_not_call)
        monkeypatch.setattr(harness, "run_method", lambda *args: cells.append(args[0]))
        out = tmp_path / "out.csv"
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize("method, over, message", [
        ("greedy", 0, "must be smaller than |C|={c} for method 'greedy'"),
        ("random", 1, "exceeds |C|={c} for method 'random'"),
    ])
    def test_k_beyond_candidates_is_rejected_before_any_cell(self, tmp_path, capsys,
                                                             monkeypatch, method, over,
                                                             message):
        gpath, apath, graph, log = _bench_files(tmp_path)
        c = len(default_candidates(build_all_dags(graph, log)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\ntarget_size=3\n"
                       f"methods=high-degree,{method}\nk=1,{c + over}\n", encoding="utf-8")
        cells = []
        monkeypatch.setattr(harness, "run_method", lambda *args: cells.append(args[0]))
        out = tmp_path / "out.csv"
        want = f"error: {cfg}: key 'k': value {c + over} {message.format(c=c)}\n"
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == want
        assert cells == [] and not out.exists()
        # One edge less is the largest budget the method takes.
        cfg.write_text(f"graph={gpath}\nactions={apath}\ntarget_size=3\n"
                       f"methods=high-degree,{method}\nk=1,{c + over - 1}\n", encoding="utf-8")
        run_experiment(str(cfg))
        assert cells == ["high-degree", "high-degree", method, method]

    @pytest.mark.parametrize("line, key, token", [
        ("k=2,abc", "k", "abc"),
        ("seed=x", "seed", "x"),
        ("b=two", "b", "two"),
        ("target_size=3.5", "target_size", "3.5"),
        ("target_pool=many", "target_pool", "many"),
        ("targets=0, a", "targets", "a"),
    ])
    def test_non_integer_value_names_file_and_key(self, tmp_path, capsys, line, key, token):
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\nmethods=grr\n{line}\n",
                       encoding="utf-8")
        want = f"{cfg}: key {key!r}: non-integer token {token!r}"
        with pytest.raises(ValueError) as exc:
            run_experiment(str(cfg))
        assert str(exc.value) == want
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize("line", ["targets=", "targets= , "])
    def test_targets_without_ids_is_rejected_before_any_input(self, tmp_path, capsys,
                                                               monkeypatch, line):
        # An empty list would otherwise end in "no target user performs any
        # action", after the inputs are read.
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\nmethods=greedy\n{line}\n",
                       encoding="utf-8")
        monkeypatch.setattr(harness, "load_graph", _must_not_call)
        out = tmp_path / "out.csv"
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}: key 'targets': no values\n"
        assert not out.exists()

    def test_unknown_target_label_names_file_and_key(self, tmp_path, capsys, monkeypatch):
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\nmethods=greedy\ntargets=0,99\n",
                       encoding="utf-8")
        monkeypatch.setattr(harness, "run_method", _must_not_call)
        out = tmp_path / "out.csv"
        for command in ("report", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}: key 'targets': unknown node id 99\n")
        assert not out.exists()

    def test_unknown_scheme(self, tmp_path, capsys):
        gpath, apath, _, _ = _bench_files(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"graph={gpath}\nactions={apath}\nmethods=greedy\n"
                       "scheme=normalized-learned\n", encoding="utf-8")
        assert main(["report", "--config", str(cfg)]) == 1
        assert "unknown credit scheme 'normalized-learned'" in capsys.readouterr().err

    def test_grr_respects_bound(self, tmp_path):
        gpath, apath, graph, log = _bench_files(tmp_path)
        dags = build_all_dags(graph, log)
        from cdlim.harness import default_candidates as dc
        C = sorted(dc(dags))
        X = {C[0][0]}
        rep = run_method("grr", Problem(graph, dags, X, C, sigma_before(dags, X)),
                         min(6, len(C) - 1), 1, 0)
        heads = [v for (_, v) in rep.edges]
        assert len(heads) == len(set(heads))


def test_write_reports_csv_blank_optionals(tmp_path):
    from cdlim.harness import ExperimentReport
    rep = ExperimentReport(method="random", k=2, b=None, seed=None, delta=0.5,
                           di_percent=25.0, top3_share=100.0, wall_ms=1.0)
    out = tmp_path / "r.csv"
    write_reports_csv([rep], out)
    body = out.read_text(encoding="utf-8").splitlines()[2]
    assert body.startswith("random,2,,,")
