"""The paper-default figures, bit for bit against the checked-in golden."""

import json

from tests.golden.regenerate import GOLDEN, figures


def test_paper_default_figures_match_the_golden():
    # On a mismatch, rerun tests/golden/regenerate.py and review the diff.
    assert figures() == json.loads(GOLDEN.read_text())
