"""The committed fixture files must stay in lockstep with the programmatic
builders and reproduce their headline numbers."""
import json
import math
from pathlib import Path

from pairfunc.barcodes import build_merge_forest, elder_lifetimes, shield_membership
from pairfunc.fixtures import (
    POISSON_TREE_FIGURE_LIFETIMES,
    SNOWFLAKE_KERNEL,
    poisson_tree_figure_configuration,
    snowflake_configuration,
)
from pairfunc.graphs import build_edges, crossing_number_direct
from pairfunc.process import dump_configuration, load_configuration

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_tree_figure_file_matches_builder():
    cfg = load_configuration((FIXTURES / "poisson_tree_figure.txt").read_text())
    assert cfg == poisson_tree_figure_configuration()
    lifetimes = {b.owner: b.lifetime for b in elder_lifetimes(build_merge_forest(cfg)).bars}
    for owner, expected in POISSON_TREE_FIGURE_LIFETIMES.items():
        assert lifetimes[owner] == expected


def test_snowflake_file_matches_builder():
    cfg = load_configuration((FIXTURES / "snowflake.txt").read_text())
    assert cfg == snowflake_configuration()
    assert crossing_number_direct(build_edges(cfg, SNOWFLAKE_KERNEL)) == 3


def test_shield_file_is_member_with_insertions():
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    cfg = load_configuration(rec["configuration"])
    center = tuple(rec["box_center"])
    assert shield_membership(cfg, center)
    assert len(rec["insertions"]) >= 1
    inner_lo = [c - 2.0 for c in center]
    inner_hi = [c + 2.0 for c in center]
    for x in rec["insertions"]:
        assert all(lo <= v <= hi for v, lo, hi in zip(x, inner_lo, inner_hi))


def test_dumps_round_trip_byte_for_byte():
    for name in ("poisson_tree_figure.txt", "snowflake.txt"):
        text = (FIXTURES / name).read_text()
        assert dump_configuration(load_configuration(text)) == text
