"""Data-driven influence limitation via edge removal.

Computes user influence from propagation traces with the credit
distribution model and selects edge deletions that minimize a target
set's influence under a global budget or a per-node bound.
"""

from .contgreedy import CGConfig, FractionalSolution, continuous_greedy
from .credit import delta_set, sigma_cd_scratch
from .graph import (ActionDag, ActionDags, ActionLog, SocialGraph, build_all_dags,
                    default_candidates, generate_ic_actions, load_action_log, load_graph)
from .greedy import Solution, greedy_bil
from .harness import (ExperimentReport, baseline_high_degree, baseline_random,
                      concentration_report, di_metric, run_experiment)
from .rounding import max_weight_independent, randomized_round, swap_round

__version__ = "0.1.0"
