"""Experiment drivers that regenerate the paper's evaluation (Section 5).

One module per experiment family:

* :mod:`~repro.experiments.static_env` — Figures 7-8 (static convergence).
* :mod:`~repro.experiments.dynamic_env` — Figures 9-10 (churning system),
  plus the Section 5.2 index-caching study.
* :mod:`~repro.experiments.depth_sweep` — Figures 11-12 (depth/overhead).
* :mod:`~repro.experiments.opt_rate` — Figures 13-16 (gain/penalty).
* :mod:`~repro.experiments.paper_example` — Figures 5-6 / Tables 1-2.
"""

from .dynamic_env import DynamicConfig, run_dynamic_experiment
from .setup import ScenarioConfig, build_scenario
from .static_env import run_static_experiment

__all__ = [
    "ScenarioConfig",
    "build_scenario",
    "run_static_experiment",
    "DynamicConfig",
    "run_dynamic_experiment",
]
