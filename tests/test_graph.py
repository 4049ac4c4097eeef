"""Graph and action-log ingestion, DAG construction, credit schemes, and
synthetic cascade generation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlim.graph import (ActionDag, ActionLog, SocialGraph, build_all_dags, generate_ic_actions,
                         load_action_log, load_gamma_table, load_graph, write_action_log)
from conftest import make_f1, random_instance
from reference import with_gamma


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadGraph:
    def test_basic(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n1 2\n0 2\n"))
        assert g.n == 3
        assert g.m == 3

    def test_self_loop_dropped(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 0\n"))
        assert g.m == 0
        assert g.dropped_self_loops == 1

    def test_duplicate_edge(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n0 1\n"))
        assert g.m == 1

    def test_comments_and_labels(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "# header\n10 20\n"))
        assert g.n == 2
        assert g.has_edge(g.id_of(10), g.id_of(20))

    def test_bad_token_reports_line(self, tmp_path):
        path = _write(tmp_path / "g.txt", "0 1\nzap 2\n")
        with pytest.raises(ValueError, match=":2"):
            load_graph(path)

    def test_round_trip_sparse_labels(self, tmp_path):
        text = "# header\n\n900 7\n  7 42 \n# mid comment\n42 42\n900 42\n\n7 42\n3 900\n"
        g = load_graph(_write(tmp_path / "g.txt", text))
        assert g.labels == [3, 7, 42, 900]
        assert g.dropped_self_loops == 1
        got = sorted((g.labels[u], g.labels[v]) for u in range(g.n) for v in g.out_nbrs[u])
        assert got == [(3, 900), (7, 42), (900, 7), (900, 42)]
        assert g.m == 4
        assert g.out_nbrs == [[3], [2], [], [1, 2]]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))))
def test_social_graph_matches_edge_set_reference(case):
    n, pairs = case
    g = SocialGraph(n, pairs)
    ref = {(u, v) for u, v in pairs if u != v}
    for u in range(n):
        assert g.out_nbrs[u] == sorted({v for x, v in ref if x == u})
    assert g.m == len(ref)
    assert g.dropped_self_loops == sum(u == v for u, v in pairs)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == ((u, v) in ref)


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (3, 0), (0, 3), (-1, -1), (3, 3)])
def test_social_graph_rejects_ids_outside_range(edge):
    with pytest.raises(ValueError) as exc:
        SocialGraph(3, [(0, 1), edge])
    assert str(exc.value) == f"edge {edge} has a node id outside 0..2"


def test_social_graph_rejects_labels_of_another_length():
    # One label for three nodes would fail only when node 2 is reported.
    with pytest.raises(ValueError) as exc:
        SocialGraph(3, [(0, 1), (1, 2)], labels=[10])
    assert str(exc.value) == "1 labels for 3 nodes"


def test_social_graph_rejects_a_repeated_label():
    # A repeated label would lose node 0's label to node 1.
    with pytest.raises(ValueError) as exc:
        SocialGraph(2, [(0, 1)], labels=[7, 7])
    assert str(exc.value) == "label 7 is given to more than one node"


class TestActionLog:
    def test_grouping(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n"))
        log = load_action_log(_write(tmp_path / "a.txt", "0 7 1\n1 7 2\n"), g)
        assert log.by_action == {7: {0: 1, 1: 2}}
        assert log.counts == {0: 1, 1: 1}

    def test_earliest_wins(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n"))
        log = load_action_log(_write(tmp_path / "a.txt", "0 7 5\n0 7 1\n"), g)
        assert log.by_action == {7: {0: 1}}
        text = "# log\n\n  0 7 1\n1 7 2\n0 7 5\n0 8 4\n0 8 3\n"
        log = load_action_log(_write(tmp_path / "a.txt", text), g)
        assert log.by_action == {7: {0: 1, 1: 2}, 8: {0: 3}}
        assert log.counts == {0: 2, 1: 1}

    def test_empty(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n"))
        log = load_action_log(_write(tmp_path / "a.txt", ""), g)
        assert len(log) == 0
        assert log.actions() == []

    def test_unknown_user(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n"))
        with pytest.raises(ValueError, match="unknown user"):
            load_action_log(_write(tmp_path / "a.txt", "9 7 1\n"), g)

    def test_negative_time(self, tmp_path):
        g = load_graph(_write(tmp_path / "g.txt", "0 1\n"))
        with pytest.raises(ValueError, match="negative time"):
            load_action_log(_write(tmp_path / "a.txt", "0 7 -1\n"), g)

    def test_roundtrip(self, tmp_path):
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 1, 0)])
        path = tmp_path / "out.txt"
        write_action_log(log, path)
        g = SocialGraph(3, [(0, 1), (1, 2)])
        assert load_action_log(str(path), g).tuples == log.tuples


def _one_dag(graph, log, scheme="uniform"):
    """The DAG of a log's only action, built by :func:`build_all_dags`."""
    (dag,) = build_all_dags(graph, log, scheme)
    return dag


class TestBuildActionDag:
    def test_f1_all_edges(self):
        inst = make_f1()
        dag = _one_dag(inst.graph, inst.log)
        assert set(dag.gamma) == {(0, 1), (1, 2), (0, 2)}

    def test_equal_times_no_edge(self):
        g = SocialGraph(2, [(0, 1)])
        log = ActionLog([(0, 0, 3), (1, 0, 3)])
        dag = _one_dag(g, log)
        assert not dag.gamma

    def test_isolated_performer(self):
        g = SocialGraph(3, [(0, 1)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 1)])
        dag = _one_dag(g, log)
        assert 2 in dag.nodes
        assert dag.in_edges[2] == () and dag.out_edges[2] == ()

    def test_times_strictly_increase_along_edges(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                                if u != v and rng.random() < 0.4])
            log = ActionLog([(u, 0, rng.randint(0, 4)) for u in range(n)])
            dag = _one_dag(g, log)
            for (u, v) in dag.gamma:
                assert dag.times[u] < dag.times[v]

    def test_matches_brute_force_rule(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                                if u != v and rng.random() < 0.4])
            performers = {u: rng.randint(0, 4) for u in range(n) if rng.random() < 0.7}
            if not performers:
                continue
            log = ActionLog([(u, 0, t) for u, t in performers.items()])
            dag = _one_dag(g, log)
            expect = {(u, v) for u in performers for v in performers
                      if g.has_edge(u, v) and performers[u] < performers[v]}
            assert set(dag.gamma) == expect

    def test_edge_lists_hold_every_edge_once_in_pass_order(self):
        # in_edges[u] in the topological order of the tails, out_edges[u] by
        # ascending head id: the order in which the credit passes sum terms.
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                                if u != v and rng.random() < 0.4])
            log = ActionLog([(u, 0, rng.randint(0, 4)) for u in range(n)])
            dag = _one_dag(g, log)
            pos = {u: i for i, u in enumerate(dag.nodes)}
            assert sorted(dag.in_edges) == sorted(dag.out_edges) == sorted(dag.nodes)
            for u in dag.nodes:
                assert all(e[1] == u for e in dag.in_edges[u])
                assert all(e[0] == u for e in dag.out_edges[u])
                assert [pos[e[0]] for e in dag.in_edges[u]] == sorted(pos[e[0]] for e in dag.in_edges[u])
                assert [e[1] for e in dag.out_edges[u]] == sorted(e[1] for e in dag.out_edges[u])
            flat_in = [e for u in dag.nodes for e in dag.in_edges[u]]
            flat_out = [e for u in dag.nodes for e in dag.out_edges[u]]
            assert flat_out == list(dag.gamma)
            assert sorted(flat_in) == sorted(dag.gamma)


@pytest.mark.parametrize("scheme", ["uniform", "learned", "explicit"])
def test_gamma_keys_are_the_edge_list_tuples(scheme):
    # The credit passes look gamma up with the tuples of in_edges and
    # out_edges, so every scheme must key gamma by those very objects.
    rng = random.Random(9)
    n = 9
    g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < 0.4])
    log = ActionLog([(u, a, rng.randint(0, 4)) for a in range(4) for u in range(n)
                     if rng.random() < 0.8])
    table = ({(u, v): rng.random() for u in range(n) for v in g.out_nbrs[u]}
             if scheme == "explicit" else None)
    dags = build_all_dags(g, log, scheme, table=table)
    assert sum(len(dag.gamma) for dag in dags) > 20
    for dag in dags:
        keys = list(dag.gamma)
        for edges in (dag.in_edges, dag.out_edges):
            listed = [e for u in dag.nodes for e in edges[u]]
            assert sorted(map(id, listed)) == sorted(map(id, keys))


class TestAssignDirectCredits:
    def test_explicit_copy(self):
        inst = make_f1()
        assert inst.dags[0].gamma == {(0, 1): 0.5, (1, 2): 0.4, (0, 2): 0.3}

    def test_uniform_two_parents(self):
        g = SocialGraph(3, [(0, 2), (1, 2)])
        log = ActionLog([(0, 0, 1), (1, 0, 1), (2, 0, 2)])
        dag = _one_dag(g, log, "uniform")
        assert dag.gamma == {(0, 2): 0.5, (1, 2): 0.5}

    def test_uniform_single_parent(self):
        g = SocialGraph(2, [(0, 1)])
        log = ActionLog([(0, 0, 1), (1, 0, 2)])
        dag = _one_dag(g, log, "uniform")
        assert dag.gamma == {(0, 1): 1.0}

    def test_uniform_incoming_sums_to_one(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(3, 8)
            g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                                if u != v and rng.random() < 0.5])
            log = ActionLog([(u, 0, rng.randint(0, 3)) for u in range(n)])
            dag = _one_dag(g, log, "uniform")
            for u in dag.nodes:
                if dag.in_edges[u]:
                    total = sum(dag.gamma[e] for e in dag.in_edges[u])
                    assert abs(total - 1.0) < 1e-12

    def test_explicit_missing_edge(self):
        inst = make_f1()
        with pytest.raises(ValueError, match="missing edge"):
            build_all_dags(inst.graph, inst.log, "explicit", table={(0, 1): 0.5})

    def test_explicit_out_of_range(self):
        inst = make_f1()
        table = {(0, 1): 1.5, (1, 2): 0.4, (0, 2): 0.3}
        with pytest.raises(ValueError, match="outside"):
            build_all_dags(inst.graph, inst.log, "explicit", table=table)

    def test_learned_normalized(self):
        g = SocialGraph(3, [(0, 2), (1, 2)])
        log = ActionLog([(0, 0, 1), (1, 0, 1), (2, 0, 2),
                         (0, 1, 1), (2, 1, 2)])
        dags = build_all_dags(g, log, "learned")
        for dag in dags:
            for u in dag.nodes:
                incoming = sum(dag.gamma[e] for e in dag.in_edges[u])
                assert incoming <= 1.0 + 1e-12
        # edge (0,2) propagates in both actions 0 receives: raw = 2/2 = 1
        counts = propagation_counts(g, log)
        assert counts[(0, 2)] == 2 and counts[(1, 2)] == 1

    def test_learned_normalization_sums_left_to_right(self):
        # Head 3 receives from 0, 1 and 2 in action 0, with raw credits
        # 1/1, 1/3 and 1/1 (user 1 also acts alone in actions 1 and 2).
        # Their left-to-right sum exceeds 1 and differs from the exactly
        # rounded one, which a compensated sum (the builtin sum on Python
        # 3.12+) returns, so the credits would depend on the interpreter.
        g = SocialGraph(4, [(0, 3), (1, 3), (2, 3)])
        log = ActionLog([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (1, 1, 0), (1, 2, 0)])
        raw = [1.0, 1 / 3, 1.0]
        total = (raw[0] + raw[1]) + raw[2]
        assert total > 1.0 and total != math.fsum(raw)
        dag = build_all_dags(g, log, "learned")[0]
        assert dag.in_edges[3] == ((0, 3), (1, 3), (2, 3))
        assert [dag.gamma[e] for e in dag.in_edges[3]] == [r * (1.0 / total) for r in raw]

    def test_unknown_scheme(self):
        inst = make_f1()
        with pytest.raises(ValueError, match="unknown credit scheme"):
            build_all_dags(inst.graph, inst.log, "bogus")

    def test_per_action_table_through_build_all_dags(self):
        g = SocialGraph(2, [(0, 1)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 2), (0, 2, 1), (1, 2, 2)])
        table = {(0, 1, 0): 0.25, (0, 1, 1): 0.75}
        with pytest.raises(ValueError, match=r"gamma table missing edge \(0, 1\) for action 2"):
            build_all_dags(g, log, "explicit", table=table)
        table[(0, 1, 2)] = 0.5
        dags = build_all_dags(g, log, "explicit", table=table)
        assert [dag.gamma for dag in dags] == [{(0, 1): 0.25}, {(0, 1): 0.75}, {(0, 1): 0.5}]


# --- the two-step build that build_all_dags replaced, kept as a reference ---

def _reference_dag(graph, actionlog, action):
    """The DAG of one action with zero credits, edge lists as lists."""
    times = actionlog.by_action[action]
    nodes = sorted(times, key=lambda u: (times[u], u))
    in_edges = {u: [] for u in nodes}
    out_edges = {u: [] for u in nodes}
    gamma = {}
    for u in nodes:
        tu = times[u]
        for v in graph.out_nbrs[u]:
            tv = times.get(v)
            if tv is not None and tu < tv:
                e = (u, v)
                out_edges[u].append(e)
                in_edges[v].append(e)
                gamma[e] = 0.0
    return ActionDag(action, nodes, times, in_edges, out_edges, gamma)


def propagation_counts(graph, actionlog):
    """Count, per social edge (v, u), the actions that propagated v -> u,
    from a second scan of every performer's out-neighbours."""
    counts = {}
    for times in actionlog.by_action.values():
        for v, tv in times.items():
            for u in graph.out_nbrs[v]:
                tu = times.get(u)
                if tu is not None and tv < tu:
                    counts[(v, u)] = counts.get((v, u), 0) + 1
    return counts


def _reference_credits(dag, scheme, table, actionlog, prop_counts):
    """A copy of ``dag`` with its credits in a second, new dict."""
    gamma = {}
    if scheme == "uniform":
        for e in dag.gamma:
            gamma[e] = 1.0 / len(dag.in_edges[e[1]])
    elif scheme == "learned":
        raw = {e: prop_counts.get(e, 0) / actionlog.counts[e[0]] for e in dag.gamma}
        for u in dag.nodes:
            incoming = dag.in_edges[u]
            total = 0.0
            for e in incoming:  # left to right, as the library sums
                total += raw[e]
            scale = 1.0 / total if total > 1.0 else 1.0
            for e in incoming:
                gamma[e] = raw[e] * scale
    else:
        for e in dag.gamma:
            gamma[e] = table[e]
    return with_gamma(dag, gamma)


def _reference_build(graph, actionlog, scheme, table=None):
    counts = propagation_counts(graph, actionlog) if scheme == "learned" else None
    dags = []
    for a in actionlog.actions():
        tab = table
        if table and len(next(iter(table))) == 3:
            tab = {(u, v): g for (u, v, b), g in table.items() if b == a}
        dags.append(_reference_credits(_reference_dag(graph, actionlog, a), scheme, tab,
                                       actionlog, counts))
    return dags


def _random_credit_case(rng, scheme):
    n = rng.randint(2, 12)
    g = SocialGraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < 0.35])
    log = ActionLog([(u, a, rng.randint(0, 5)) for a in range(rng.randint(1, 6))
                     for u in range(n) if rng.random() < 0.7])
    table = None
    if scheme == "explicit":
        table = {(u, v): rng.random() for u in range(n) for v in g.out_nbrs[u]}
    elif scheme == "explicit-per-action":
        table = {(u, v, a): rng.random() for a in log.actions()
                 for u in range(n) for v in g.out_nbrs[u]}
    return g, log, table


def _assert_same_dag(dag, ref):
    assert dag.action == ref.action and dag.nodes == ref.nodes and dag.times is ref.times
    for new_lists, ref_lists in ((dag.in_edges, ref.in_edges), (dag.out_edges, ref.out_edges)):
        assert list(new_lists) == list(ref_lists)
        for u, edges in new_lists.items():
            assert type(edges) is tuple and list(edges) == ref_lists[u]
    # Bit-equal credits, keyed in the same order.
    assert ([(e, g.hex()) for e, g in dag.gamma.items()]
            == [(e, g.hex()) for e, g in ref.gamma.items()])


@pytest.mark.parametrize("scheme", ["uniform", "learned", "explicit", "explicit-per-action"])
def test_build_all_dags_equals_the_two_step_reference(scheme):
    lib_scheme = scheme.split("-")[0]
    for seed in range(40):
        rng = random.Random(seed)
        g, log, table = _random_credit_case(rng, scheme)
        dags = build_all_dags(g, log, lib_scheme, table=table)
        ref = _reference_build(g, log, lib_scheme, table)
        assert len(dags) == len(ref)
        one = {}
        for dag, want in zip(dags, ref):
            _assert_same_dag(dag, want)
            for edges in (*dag.in_edges.values(), *dag.out_edges.values(), dag.gamma):
                for e in edges:
                    assert one.setdefault(e, e) is e, (seed, e)


def test_dags_share_the_log_times():
    inst = make_f1()
    log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3), (1, 1, 0), (2, 1, 4)])
    dags = build_all_dags(inst.graph, log, "uniform")
    assert [dag.action for dag in dags] == [0, 1]
    for dag in dags:
        assert dag.times is log.by_action[dag.action]


class TestGenerateIC:
    def test_prob_zero_only_seeds(self):
        g = SocialGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        log = generate_ic_actions(g, 10, 2, 0.0, seed=1)
        for a in log.actions():
            times = log.by_action[a]
            assert len(times) == 2
            assert all(t == 0 for t in times.values())

    def test_prob_one_reaches_exactly_reachable(self):
        g = SocialGraph(4, [(0, 1), (1, 2)])  # node 3 unreachable
        saw_seed_zero = False
        for seed in range(30):
            log = generate_ic_actions(g, 1, 1, 1.0, seed=seed)
            times = log.by_action[0]
            root = min(times, key=times.get)
            reach = {root}
            frontier = [root]
            while frontier:
                nxt = [v for u in frontier for v in g.out_nbrs[u] if v not in reach]
                reach.update(nxt)
                frontier = nxt
            assert set(times) == reach
            if root == 0:
                saw_seed_zero = True
                assert times == {0: 0, 1: 1, 2: 2}
        assert saw_seed_zero

    def test_round_index_times_on_triangle(self):
        # with probability 1 and seed node 0 on the F1 graph, both neighbors
        # activate in round 1
        g = SocialGraph(3, [(0, 1), (1, 2), (0, 2)])
        for seed in range(30):
            log = generate_ic_actions(g, 1, 1, 1.0, seed=seed)
            times = log.by_action[0]
            if min(times, key=times.get) == 0:
                assert times == {0: 0, 1: 1, 2: 1}
                return
        pytest.fail("never sampled node 0 as the seed")

    def test_deterministic(self):
        g = SocialGraph(6, [(u, v) for u in range(6) for v in range(6) if u != v])
        a = generate_ic_actions(g, 5, 2, 0.4, seed=42)
        b = generate_ic_actions(g, 5, 2, 0.4, seed=42)
        assert a.tuples == b.tuples

    def test_too_many_seeds(self):
        g = SocialGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            generate_ic_actions(g, 1, 3, 0.5, seed=0)

    @pytest.mark.parametrize("num_actions", [0, -2])
    def test_num_actions_below_one(self, num_actions):
        # Zero or fewer actions would give an empty log, which no solver
        # can use.
        g = SocialGraph(2, [(0, 1)])
        with pytest.raises(ValueError) as exc:
            generate_ic_actions(g, num_actions, 1, 0.5, seed=0)
        assert str(exc.value) == f"num_actions {num_actions} must be at least 1"


def test_load_gamma_table(tmp_path):
    g = SocialGraph(3, [(0, 1), (1, 2)])
    path = tmp_path / "gamma.txt"
    path.write_text("0 1 0 0.5\n1 2 0 0.25\n", encoding="utf-8")
    table = load_gamma_table(str(path), g)
    assert table == {(0, 1, 0): 0.5, (1, 2, 0): 0.25}


def test_load_gamma_table_three_columns(tmp_path):
    g = SocialGraph(3, [(0, 1), (1, 2)])
    path = tmp_path / "gamma.txt"
    path.write_text("# shared by every action\n0 1 0.5\n1 2 0.25\n", encoding="utf-8")
    assert load_gamma_table(str(path), g) == {(0, 1): 0.5, (1, 2): 0.25}


def test_load_gamma_table_rejects_mixed_forms(tmp_path):
    g = SocialGraph(3, [(0, 1), (1, 2)])
    path = tmp_path / "gamma.txt"
    path.write_text("0 1 0.5\n1 2 0 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: 4-column line in a 3-column table"):
        load_gamma_table(str(path), g)


@pytest.mark.parametrize("line, message", [
    ("x 1 0.5", "non-integer token 'x'"),
    ("0 1 7.5 0.5", "non-integer token '7.5'"),
    ("0 1 half", "non-numeric gamma 'half'"),
    ("0 9 0.5", "unknown node id 9"),
    ("0 1 1.5", "gamma 1.5 outside [0, 1]"),
    ("0 1 -0.25", "gamma -0.25 outside [0, 1]"),
    ("0 1 nan", "gamma nan outside [0, 1]"),
])
def test_load_gamma_table_errors_name_the_line(tmp_path, line, message):
    g = SocialGraph(3, [(0, 1), (1, 2)])
    path = tmp_path / "gamma.txt"
    width = len(line.split())
    first = "1 2 0.25" if width == 3 else "1 2 0 0.25"
    path.write_text(f"# table\n\n  {first}\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_gamma_table(str(path), g)
    assert str(exc.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("loader, text", [
    ("graph", "0 1\n1 b\n"),
    ("actions", "0 7 1\n1 7 b\n"),
    ("graph", "# header\n\n  0 1\n  1 b \n"),
    ("actions", "# header\n\n  0 7 1\n  1 7 b \n"),
])
def test_non_integer_token_names_the_line(tmp_path, loader, text):
    g = SocialGraph(2, [(0, 1)])
    path = _write(tmp_path / "in.txt", text)
    lines = text.splitlines()
    with pytest.raises(ValueError) as exc:
        load_graph(path) if loader == "graph" else load_action_log(path, g)
    assert str(exc.value) == f"{path}:{len(lines)}: non-integer token in {lines[-1].strip()!r}"


def test_unknown_label_is_value_error():
    g = SocialGraph(2, [(0, 1)], labels=[10, 20])
    with pytest.raises(ValueError, match="unknown node id 30"):
        g.id_of(30)


def test_directly_built_graph_resolves_labels(tmp_path):
    # The label map is built on first use for a graph built directly, and
    # handed over by load_graph, which remapped the edges with it.
    g = SocialGraph(3, [(0, 1), (1, 2)], labels=[30, 10, 20])
    assert [g.id_of(lab) for lab in (30, 10, 20)] == [0, 1, 2]
    assert SocialGraph(3, []).id_of(2) == 2
    loaded = load_graph(_write(tmp_path / "g.txt", "30 10\n10 20\n"))
    assert "_id_of" in vars(loaded)
    assert [loaded.id_of(lab) for lab in (10, 20, 30)] == [0, 1, 2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 5)),
                min_size=1, max_size=30))
def test_action_log_invariants(tuples):
    log = ActionLog(tuples)
    seen = set()
    for u, a, t in log.tuples:
        assert (u, a) not in seen
        seen.add((u, a))
    for u, cnt in log.counts.items():
        assert cnt >= 1
        assert cnt == sum(u in times for times in log.by_action.values())
