"""Command line front end.

Subcommands: gen, bil, grr, ilm, baseline, report, verify.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import contgreedy, harness, rounding
from .credit import delta_set, sigma_cd_scratch
from .graph import (_int_token, build_all_dags, generate_ic_actions, load_action_log,
                    load_gamma_table, load_graph, write_action_log)
from .greedy import greedy_bil


def _parse_targets(raw, graph):
    if os.path.exists(raw):
        with open(raw, "r", encoding="utf-8") as fh:
            labels = [_int_token(tok, raw) for tok in fh.read().split()]
    else:
        labels = [_int_token(tok, "--targets") for tok in raw.split(",")]
    return {graph.id_of(t) for t in labels}


def _parse_candidates(raw, graph):
    edges = set()
    with open(raw, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{raw}:{lineno}: expected 'u v', got {line!r}")
            u, v = (_int_token(tok, f"{raw}:{lineno}") for tok in parts)
            edges.add((graph.id_of(u), graph.id_of(v)))
    return edges


def _load_problem(args):
    graph = load_graph(args.graph)
    actionlog = load_action_log(args.actions, graph)
    table = load_gamma_table(args.gamma_table, graph) if getattr(args, "gamma_table", None) else None
    dags = build_all_dags(graph, actionlog, args.scheme, table=table)
    X = _parse_targets(args.targets, graph)
    C = (_parse_candidates(args.candidates, graph) if args.candidates
         else harness.default_candidates(dags))
    return graph, actionlog, dags, X, sorted(C)


def _sigma_before(dags, X, counts):
    """Influence of the targets before any removal: the DI denominator."""
    before = sigma_cd_scratch(dags, X, counts)
    if before <= 0.0:
        raise ValueError("no target user performs any action: nothing to limit")
    return before


def _add_problem_flags(sub, scheme=True):
    sub.add_argument("--graph", required=True)
    sub.add_argument("--actions", required=True)
    sub.add_argument("--targets", required=True, help="file of ids or comma-separated ids")
    sub.add_argument("--candidates", help="file of 'u v' edges; default: edges of any action graph")
    if scheme:
        sub.add_argument("--scheme", default="uniform", choices=["uniform", "learned", "explicit"])
        sub.add_argument("--gamma-table",
                         help="explicit gamma file: 'u v gamma' or 'u v action gamma' lines")


def cmd_gen(args):
    graph = load_graph(args.graph)
    actionlog = generate_ic_actions(graph, args.num_actions, args.seeds_per_action,
                                    args.edge_prob, seed=args.seed)
    write_action_log(actionlog, args.out, labels=graph.labels)
    print(f"wrote {len(actionlog)} tuples across {len(actionlog.actions())} actions to {args.out}")


def cmd_bil(args, per_node_bound=None):
    graph, actionlog, dags, X, C = _load_problem(args)
    counts = actionlog.counts
    before = _sigma_before(dags, X, counts)
    sol = greedy_bil(dags, X, args.k, C, counts=counts, per_node_bound=per_node_bound)
    labels = graph.labels
    rows = []
    cum = 0.0
    for step, (e, gain) in enumerate(zip(sol.edges, sol.gain_per_step), start=1):
        cum += gain
        rows.append([step, f"{labels[e[0]]}->{labels[e[1]]}", f"{gain:.9g}",
                     f"{cum:.9g}", f"{100.0 * cum / before:.6f}"])
    if args.out:
        harness.write_csv(args.out, ["step", "edge", "marginal", "cumulativeDelta", "DIpercent"],
                          rows)
    print(f"delta={sol.total_delta:.9g} di={100.0 * sol.total_delta / before:.4f}%")


def cmd_grr(args):
    cmd_bil(args, per_node_bound=args.b)


def cmd_ilm(args):
    graph, actionlog, dags, X, C = _load_problem(args)
    counts = actionlog.counts
    before = _sigma_before(dags, X, counts)
    config = contgreedy.CGConfig(tau=args.tau, s=args.samples, seed=args.seed)
    frac = contgreedy.continuous_greedy(dags, X, C, args.b, config, counts=counts)
    frac.check(args.b)
    rng = random.Random(args.seed)
    if args.rounding == "swap":
        B = sorted(rounding.swap_round(frac.y, C, args.b, rng))
        delta = delta_set(dags, X, B, counts=counts)
        trial_deltas = []
    else:
        rounded = rounding.randomized_round(frac.y, C, args.b, args.trials, rng,
                                            lambda B: delta_set(dags, X, B, counts=counts))
        B, delta, trial_deltas = sorted(rounded.edges), rounded.delta, rounded.trial_deltas
    labels = graph.labels
    rows = [["y", f"{labels[e[0]]}->{labels[e[1]]}", f"{frac.y[e]:.9g}", "", ""] for e in C]
    rows += [["removed", f"{labels[e[0]]}->{labels[e[1]]}", "", "", ""] for e in B]
    rows.append(["solution", "", f"{delta:.9g}", "", f"{100.0 * delta / before:.6f}"])
    if args.verbose:
        rows += [["trial", str(i), f"{d:.9g}", "", ""] for i, d in enumerate(trial_deltas)]
    if args.out:
        harness.write_csv(args.out, ["kind", "edge", "value", "cumulativeDelta", "DIpercent"], rows)
    print(f"removed {len(B)} edges, delta={delta:.9g}, di={100.0 * delta / before:.4f}%")


def cmd_baseline(args):
    graph, actionlog, dags, X, C = _load_problem(args)
    counts = actionlog.counts
    rep = harness.run_method(args.method, graph, dags, counts, X, C, args.k, None, args.seed)
    if args.out:
        harness.write_reports_csv([rep], args.out)
    print(f"{args.method}: delta={rep.delta:.9g} di={rep.di_percent:.4f}%")


def cmd_report(args, verify=False):
    reports = harness.run_experiment(args.config, out_path=args.out, verify=verify)
    for r in reports:
        print(f"{r.method} k={r.k} delta={r.delta:.6g} di={r.di_percent:.3f}% "
              f"top3={r.top3_share:.1f}% wall={r.wall_ms:.0f}ms eval={r.eval_ms:.0f}ms")


def cmd_verify(args):
    cmd_report(args, verify=True)


def build_parser():
    parser = argparse.ArgumentParser(prog="cdlim",
                                     description="Influence limitation via edge removal "
                                                 "from propagation traces")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic IC action log")
    gen.add_argument("--graph", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--num-actions", type=int, required=True)
    gen.add_argument("--seeds-per-action", type=int, default=1)
    gen.add_argument("--edge-prob", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    bil = subs.add_parser("bil", help="budgeted greedy edge removal")
    _add_problem_flags(bil)
    bil.add_argument("-k", type=int, required=True)
    bil.add_argument("--out")
    bil.set_defaults(func=cmd_bil)

    grr = subs.add_parser("grr", help="greedy with a per-node removal bound")
    _add_problem_flags(grr)
    grr.add_argument("-k", type=int, required=True)
    grr.add_argument("-b", type=int, required=True)
    grr.add_argument("--out")
    grr.set_defaults(func=cmd_grr)

    ilm = subs.add_parser("ilm", help="continuous greedy + rounding")
    _add_problem_flags(ilm)
    ilm.add_argument("-b", type=int, required=True)
    ilm.add_argument("--tau", type=int, default=100)
    ilm.add_argument("--samples", type=int, default=20)
    ilm.add_argument("--seed", type=int, default=0)
    ilm.add_argument("--rounding", choices=["randomized", "swap"], default="randomized")
    ilm.add_argument("--trials", type=int, default=50,
                     help="trials of best-of-trials rounding; applies to --rounding "
                          "randomized only (swap rounding draws one set)")
    ilm.add_argument("--verbose", action="store_true")
    ilm.add_argument("--out")
    ilm.set_defaults(func=cmd_ilm)

    base = subs.add_parser("baseline", help="high-degree or random baseline")
    _add_problem_flags(base)
    base.add_argument("--method", choices=["high-degree", "random"], required=True)
    base.add_argument("-k", type=int, required=True)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--out")
    base.set_defaults(func=cmd_baseline)

    rep = subs.add_parser("report", help="run a config-driven experiment grid")
    rep.add_argument("--config", required=True)
    rep.add_argument("--out")
    rep.set_defaults(func=cmd_report)

    ver = subs.add_parser("verify", help="experiment grid with delta cross-checks")
    ver.add_argument("--config", required=True)
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
