"""Data-driven influence limitation via edge removal.

Computes user influence from propagation traces with the credit
distribution model and selects edge deletions that minimize a target
set's influence under a global budget or a per-node bound.
"""

from .contgreedy import (CGConfig, FractionalSolution, cg_weights, continuous_greedy,
                         empirical_total_curvature, multilinear_exact)
from .credit import (CreditStore, compute_credit_store, compute_mc, delta_set,
                     kappa, oracle_set_credit, oracle_total_credit, remove_edge,
                     sigma_cd, sigma_cd_scratch)
from .graph import (ActionDag, ActionDags, ActionLog, SocialGraph, assign_direct_credits,
                    build_action_dag, build_all_dags, generate_ic_actions,
                    load_action_log, load_graph)
from .greedy import Solution, greedy_bil
from .harness import (ExperimentReport, baseline_high_degree, baseline_random,
                      concentration_report, default_candidates, di_metric,
                      run_experiment)
from .rounding import (chernoff_epsilon, feasible, max_weight_independent,
                       randomized_round, swap_round)

__version__ = "0.1.0"
