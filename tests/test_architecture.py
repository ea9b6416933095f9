"""Layering: only divset reads the ball layout of a divergence set.

Every other module gets balls through ``DivergenceSet.balls``; the
bitmap, its per-prime views and the per-prime decoders stay private to
the module that builds them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylmax"
LAYOUT = {"good_by_q", "bits"}
DECODERS = {"rows", "ball_list"}


def _layout_uses(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            yield f"{path.name}:{node.lineno} reads .{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DECODERS:
            yield f"{path.name}:{node.lineno} calls .{node.func.attr}()"


def test_only_divset_reads_the_ball_layout():
    assert list(_layout_uses(SRC / "divset.py"))  # the scan sees the owner's own uses
    leaks = [use for path in sorted(SRC.glob("*.py")) if path.name != "divset.py"
             for use in _layout_uses(path)]
    assert leaks == []
