"""The paper-default figures and the generated worlds, bit for bit against
the checked-in goldens."""

import json

from tests.golden.regenerate import GOLDEN, WORLDS, figures, worlds


def test_paper_default_figures_match_the_golden():
    # On a mismatch, rerun tests/golden/regenerate.py and review the diff.
    assert figures() == json.loads(GOLDEN.read_text())


def test_generated_worlds_match_the_golden():
    # Underlays and overlays from every generator, digested link by link.
    assert worlds() == json.loads(WORLDS.read_text())
