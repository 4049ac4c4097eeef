"""Command line front end.

Subcommands: gen, bil, grr, ilm, baseline, report, verify.
"""

from __future__ import annotations

import argparse
import logging.handlers
import random
import sys

from . import contgreedy, harness, rounding
from .credit import delta_set
from .graph import check_ic_params, generate_ic_actions, load_graph, write_action_log
from .greedy import check_budget, greedy_bil


def _load_problem(args) -> harness.Problem:
    if args.gamma_table is not None and args.scheme != "explicit":
        raise ValueError(f"--gamma-table needs --scheme explicit, not --scheme {args.scheme}")
    if args.scheme == "explicit" and not args.gamma_table:
        raise ValueError("--scheme explicit needs --gamma-table")
    return harness.load_problem(args.graph, args.actions,
                                lambda graph, _: harness.parse_targets(args.targets, graph),
                                args.scheme, args.gamma_table, args.candidates)


def _add_problem_flags(sub):
    sub.add_argument("--graph", required=True)
    sub.add_argument("--actions", required=True)
    sub.add_argument("--targets", required=True, help="file of ids or comma-separated ids")
    sub.add_argument("--candidates", help="file of 'u v' edges; default: edges of any action graph")
    sub.add_argument("--scheme", default="uniform", choices=["uniform", "learned", "explicit"])
    sub.add_argument("--gamma-table",
                     help="explicit gamma file: 'u v gamma' or 'u v action gamma' lines")
    sub.add_argument("--out")


def cmd_gen(args):
    check_ic_params(args.num_actions, args.seeds_per_action, args.edge_prob)
    graph = load_graph(args.graph)
    if graph.m == 0:
        raise ValueError(f"{args.graph}: the graph has no edges")
    actionlog = generate_ic_actions(graph, args.num_actions, args.seeds_per_action,
                                    args.edge_prob, seed=args.seed)
    write_action_log(actionlog, args.out, labels=graph.labels)
    print(f"wrote {len(actionlog)} tuples across {len(actionlog.actions())} actions to {args.out}")


def cmd_bil(args):
    check_budget(args.k, args.b)
    p = _load_problem(args)
    sol = greedy_bil(p.dags, p.X, args.k, p.C, per_node_bound=args.b)
    labels = p.graph.labels
    rows = []
    cum = 0.0
    for step, (e, gain) in enumerate(zip(sol.edges, sol.gain_per_step), start=1):
        cum += gain
        rows.append([step, f"{labels[e[0]]}->{labels[e[1]]}", f"{gain:.9g}",
                     f"{cum:.9g}", f"{100.0 * cum / p.before:.6f}"])
    if args.out:
        harness.write_csv(args.out, ["step", "edge", "marginal", "cumulativeDelta", "DIpercent"],
                          rows)
    print(f"delta={sol.total_delta:.9g} di={100.0 * sol.total_delta / p.before:.4f}%")


def cmd_ilm(args):
    config = contgreedy.CGConfig(tau=args.tau)
    rounding.check_bound(args.b)
    rounding.check_trials(args.trials)
    p = _load_problem(args)
    frac = contgreedy.continuous_greedy(p.dags, p.X, p.C, args.b, config)
    frac.check(args.b)
    rng = random.Random(args.seed)
    if args.rounding == "swap":
        B = sorted(rounding.swap_round(frac.y, p.C, args.b, rng))
        delta = delta_set(p.dags, p.X, B)
        trial_deltas = []
    else:
        rounded = rounding.randomized_round(frac.y, p.C, args.b, args.trials, rng,
                                            lambda B: delta_set(p.dags, p.X, B))
        B, delta, trial_deltas = sorted(rounded.edges), rounded.delta, rounded.trial_deltas
    labels = p.graph.labels
    rows = [["y", f"{labels[e[0]]}->{labels[e[1]]}", f"{frac.y[e]:.9g}", "", ""] for e in p.C]
    rows += [["removed", f"{labels[e[0]]}->{labels[e[1]]}", "", "", ""] for e in B]
    rows.append(["solution", "", f"{delta:.9g}", "", f"{100.0 * delta / p.before:.6f}"])
    if args.verbose:
        rows += [["trial", str(i), f"{d:.9g}", "", ""] for i, d in enumerate(trial_deltas)]
    if args.out:
        harness.write_csv(args.out, ["kind", "edge", "value", "cumulativeDelta", "DIpercent"], rows)
    print(f"removed {len(B)} edges, delta={delta:.9g}, di={100.0 * delta / p.before:.4f}%")


def cmd_baseline(args):
    harness.check_k(args.k)
    rep = harness.run_method(args.method, _load_problem(args), args.k, None, args.seed)
    if args.out:
        harness.write_reports_csv([rep], args.out)
    print(f"{args.method}: delta={rep.delta:.9g} di={rep.di_percent:.4f}%")


def cmd_report(args):
    reports = harness.run_experiment(args.config, out_path=args.out, verify=args.verify)
    for r in reports:
        print(f"{r.method} k={r.k} delta={r.delta:.6g} di={r.di_percent:.3f}% "
              f"top3={r.top3_share:.1f}% wall={r.wall_ms:.0f}ms eval={r.eval_ms:.0f}ms")


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
    bil.set_defaults(func=cmd_bil, b=None)

    grr = subs.add_parser("grr", help="greedy with a per-node removal bound")
    _add_problem_flags(grr)
    grr.add_argument("-k", type=int, required=True)
    grr.add_argument("-b", type=int, required=True)
    grr.set_defaults(func=cmd_bil)

    ilm = subs.add_parser("ilm", help="continuous greedy + rounding")
    _add_problem_flags(ilm)
    ilm.add_argument("-b", type=int, required=True)
    ilm.add_argument("--tau", type=int, default=100)
    ilm.add_argument("--seed", type=int, default=0,
                     help="seeds the rounding; the continuous-greedy weights are exact")
    ilm.add_argument("--rounding", choices=["randomized", "swap"], default="randomized")
    ilm.add_argument("--trials", type=int, default=50,
                     help="trials of best-of-trials rounding; applies to --rounding "
                          "randomized only (swap rounding draws one set)")
    ilm.add_argument("--verbose", action="store_true")
    ilm.set_defaults(func=cmd_ilm)

    base = subs.add_parser("baseline", help="high-degree or random baseline")
    _add_problem_flags(base)
    base.add_argument("--method", choices=["high-degree", "random"], required=True)
    base.add_argument("-k", type=int, required=True)
    base.add_argument("--seed", type=int, default=0)
    base.set_defaults(func=cmd_baseline)

    for name, verify, text in (("report", False, "run a config-driven experiment grid"),
                               ("verify", True, "experiment grid with delta cross-checks")):
        rep = subs.add_parser(name, help=text)
        rep.add_argument("--config", required=True)
        rep.add_argument("--out")
        rep.set_defaults(func=cmd_report, verify=verify)

    return parser


def main(argv=None):
    """Run one subcommand. The library's log records are held until it ends:
    handled as usual if it succeeds, dropped if it ends in its one
    ``error:`` line."""
    args = build_parser().parse_args(argv)
    lib = logging.getLogger("cdlim")
    held = logging.handlers.BufferingHandler(capacity=sys.maxsize)  # never flushes itself
    lib.addHandler(held)
    propagate, lib.propagate = lib.propagate, False
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        lib.removeHandler(held)
        lib.propagate = propagate
    for record in held.buffer:
        lib.handle(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
