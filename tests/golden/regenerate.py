"""Record the golden figures of the paper-default scenario.

``paper_default.json`` holds, as ``float.hex``, every figure of one static
run (10 ACE steps) and one dynamic run with churn (600 queries) at the
paper default: 160 peers on 1,200 underlay nodes, exact delays.  A second
dynamic run, ``dynamic_landmark``, repeats the churned one under the
``landmark:8`` oracle, whose estimates put link costs on the 2^-11 grid the
paper-scale benchmark workloads run on.
``tests/golden/test_golden.py`` recomputes them and compares the files bit
for bit.  A change that moves a figure on purpose rewrites the file with::

    PYTHONPATH=src python tests/golden/regenerate.py

and says in CHANGES.md why it moved; the JSON diff is the review.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict

from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment

GOLDEN = Path(__file__).with_name("paper_default.json")

CONFIG = ScenarioConfig(
    physical_nodes=1200, peers=160, avg_degree=6.0, seed=1, oracle="exact"
)
LANDMARK = dataclasses.replace(CONFIG, oracle="landmark:8")
DYNAMIC = DynamicConfig(total_queries=600, window=100)


def _hexed(series: object) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name, value in dataclasses.asdict(series).items():
        if isinstance(value, float):
            out[name] = value.hex()
        elif isinstance(value, list):
            out[name] = [v.hex() if isinstance(v, float) else v for v in value]
        else:
            out[name] = value
    return out


def figures() -> Dict[str, Dict[str, object]]:
    """Every golden figure, computed by the code as it stands."""
    static = run_static_experiment(build_scenario(CONFIG), steps=10)
    dynamic = run_dynamic_experiment(build_scenario(CONFIG), DYNAMIC)
    landmark = run_dynamic_experiment(build_scenario(LANDMARK), DYNAMIC)
    return {
        "static": _hexed(static),
        "dynamic": _hexed(dynamic),
        "dynamic_landmark": _hexed(landmark),
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(figures(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
