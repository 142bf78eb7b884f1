"""The figure table: every row's shape predicates hold at laptop scale.

``python -m repro figures`` runs all 23 rows in CI; tier-1 runs the rows
that are cheap at laptop scale (about 14 s together on a 2-core box).
"""

import dataclasses
import io

import pytest

from repro.cli import main
from repro.experiments import figures
from repro.experiments.figures import FIGURES

#: Rows tier-1 leaves to ``repro figures``, with their measured seconds at
#: laptop scale on a 2-core box (one inline worker).
SLOW = {
    # The depth sweep, shared by Figs 11-16 and adaptive depth: 193 s.
    "fig11_reduction_vs_depth",
    "fig12_overhead_vs_depth",
    "fig13_optrate_vs_depth_c10",
    "fig14_optrate_vs_depth_c4",
    "fig15_optrate_vs_r_c10",
    "fig16_optrate_vs_r_c4",
    "adaptive_depth",
    # The three dynamic arms, shared by Figs 9-10 and index caching: 17 s.
    "fig09_dynamic_traffic",
    "fig10_dynamic_response",
    "text_index_caching",
    # Six churned runs: 19 s.
    "sensitivity_churn",
}


def test_table_keeps_every_row_and_predicate():
    names = [row.name for row in FIGURES]
    assert len(names) == len(set(names)) == 23
    assert SLOW <= set(names)
    assert sum(len(row.predicates) for row in FIGURES) == 71


@pytest.mark.parametrize(
    "row", [row for row in FIGURES if row.name not in SLOW], ids=lambda row: row.name
)
def test_row_predicates_hold(row):
    values = row.produce()
    assert all(block.strip() for block in row.render(values))
    assert row.failures(values) == []


def test_failing_predicate_exits_nonzero_naming_row_and_predicate(monkeypatch):
    walk = next(row for row in FIGURES if row.name == "table1_table2")
    broken = dataclasses.replace(
        walk, predicates=walk.predicates + ("assert blind.total_cost < h2.total_cost",)
    )
    monkeypatch.setattr(figures, "FIGURES", (broken,))
    out = io.StringIO()
    assert main(["figures", "table1_table2"], out=out) == 1
    assert "FAILED table1_table2: assert blind.total_cost < h2.total_cost" in out.getvalue()
    assert out.getvalue().count("FAILED") == 1
