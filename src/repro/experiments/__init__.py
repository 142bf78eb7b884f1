"""Experiment drivers that regenerate the paper's evaluation (Section 5).

One module per experiment family:

* :mod:`~repro.experiments.static_env` — Figures 7-8 (static convergence).
* :mod:`~repro.experiments.dynamic_env` — Figures 9-10 (churning system),
  plus the Section 5.2 index-caching study.
* :mod:`~repro.experiments.depth_sweep` — Figures 11-12 (depth/overhead).
* :mod:`~repro.experiments.opt_rate` — Figures 13-16 (gain/penalty).
* :mod:`~repro.experiments.paper_example` — Figures 5-6 / Tables 1-2.
"""

from .ascii_plot import line_chart, sparkline
from .depth_sweep import DepthSweepConfig, DepthSweepResult, run_depth_sweep
from .dynamic_env import DynamicConfig, DynamicSeries, run_dynamic_experiment
from .opt_rate import (
    PAPER_R_VALUES_C4,
    PAPER_R_VALUES_C10,
    REPRO_R_VALUES,
    minimal_depths_table,
    rate_vs_depth,
    rate_vs_frequency_ratio,
)
from .paper_example import (
    PEER_NAMES,
    ExampleWalkthrough,
    build_example_overlay,
    run_walkthrough,
)
from .reporting import format_percent, format_series, format_table
from .results_io import load_result, save_result
from .setup import Scenario, ScenarioConfig, build_scenario, repro_scale
from .static_env import StaticSeries, measure_queries, run_static_experiment

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "repro_scale",
    "StaticSeries",
    "measure_queries",
    "run_static_experiment",
    "DynamicConfig",
    "DynamicSeries",
    "run_dynamic_experiment",
    "DepthSweepConfig",
    "DepthSweepResult",
    "run_depth_sweep",
    "rate_vs_depth",
    "rate_vs_frequency_ratio",
    "minimal_depths_table",
    "PAPER_R_VALUES_C10",
    "PAPER_R_VALUES_C4",
    "REPRO_R_VALUES",
    "PEER_NAMES",
    "ExampleWalkthrough",
    "build_example_overlay",
    "run_walkthrough",
    "format_table",
    "format_series",
    "format_percent",
    "sparkline",
    "line_chart",
    "save_result",
    "load_result",
]
