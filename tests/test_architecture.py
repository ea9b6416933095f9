"""Layering: each decision has one home.

- Only divset reads the ball layout of a divergence set. Every other
  module gets balls through ``DivergenceSet.balls`` or ``ball_blocks``;
  the bitmap ``bits``, its per-prime offsets ``start``, the per-prime
  view ``mask(q)`` and ``ball_list`` stay private to the module that
  builds them. Inside divset, only the allocator, the accessors, the
  decoder and the overlap walk name ``bits`` or ``start``.
- Only weyl splits a symbol into its axis parts (``weyl.axis_tables``)
  and reads the factors of a Weyl table (``WeylTable.factors``); other
  modules read ``values`` or go through ``good_set``.
- Only ``divset.measure`` picks a measure method: no call passes one
  as a literal.
- Only numtheory solves lattice lines: no other module takes a modular
  inverse (``pow(x, -1, m)``).
- Every function, class, constant and method in src has a reader in
  src: code only the tests call does not stay.
"""

import ast
import shutil
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylmax"
LAYOUT = {"bits", "start"}
LAYOUT_READERS = {"_empty_set", "mask", "ball_count", "primes", "ball_blocks", "overlap_edges"}
DECODERS = {"mask", "ball_list"}
AXIS_SPLIT = {"axis_parts", "distinct_parts"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def _called_name(node):
    """The name a call is made through, bare or as an attribute."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
    return None


def _layout_uses(path):
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            yield f"{path.name}:{node.lineno} reads .{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DECODERS:
            yield f"{path.name}:{node.lineno} calls .{node.func.attr}()"


def _axis_split_calls(path):
    for node in _nodes(path):
        if _called_name(node) in AXIS_SPLIT:
            yield f"{path.name}:{node.lineno} calls {_called_name(node)}()"


def _factor_reads(path):
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr == "factors":
            yield f"{path.name}:{node.lineno} reads .factors"


def _literal_measure_methods(path):
    for node in _nodes(path):
        if _called_name(node) != "measure":
            continue
        method = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "method"]
        if any(isinstance(arg, ast.Constant) and arg.value is not None for arg in method):
            yield f"{path.name}:{node.lineno} passes a measure method literal"


def _modular_inverses(path):
    for node in _nodes(path):
        if _called_name(node) == "pow" and len(node.args) == 3 and isinstance(node.args[1], ast.UnaryOp) \
                and isinstance(node.args[1].op, ast.USub):  # ast keeps -1 as USub(1)
            yield f"{path.name}:{node.lineno} takes a modular inverse"


def _uses_outside(owner, uses):
    assert list(uses(SRC / owner))  # the scan sees the owner's own uses
    return [use for path in sorted(SRC.glob("*.py")) if path.name != owner for use in uses(path)]


def test_only_divset_reads_the_ball_layout():
    assert _uses_outside("divset.py", _layout_uses) == []


def _layout_readers(path):
    """The functions and methods of a module that read ``bits`` or
    ``start``, as an attribute or a local name."""
    return {fn.name for fn in _nodes(path) if isinstance(fn, ast.FunctionDef) and any(
        isinstance(node, ast.Attribute) and node.attr in LAYOUT
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in LAYOUT
        for node in ast.walk(fn))}


def test_divset_reads_the_layout_in_few_places():
    # a change of layout (a bit-packed bitmap, say) touches these functions only
    assert _layout_readers(SRC / "divset.py") == LAYOUT_READERS


def test_only_weyl_splits_symbols_into_axis_parts():
    assert _uses_outside("weyl.py", _axis_split_calls) == []


def test_only_weyl_reads_table_factors():
    assert _uses_outside("weyl.py", _factor_reads) == []


def test_no_src_call_picks_a_measure_method(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('divset.measure(x, "exact")\nmeasure(x, method="montecarlo")\nmeasure(x, None)\n')
    assert len(list(_literal_measure_methods(probe))) == 2
    found = [use for path in sorted(SRC.glob("*.py")) for use in _literal_measure_methods(path)]
    assert found == []


def test_only_numtheory_takes_modular_inverses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("pow(a, -1, m)\npow(a, -k, m)\npow(a, 2, m)\npow(a, -1)\n")
    assert len(list(_modular_inverses(probe))) == 2
    assert _uses_outside("numtheory.py", _modular_inverses) == []


# Definitions in src that no src code reads, each with why it stays.
NO_SRC_READER = {
    "divset.DivergenceSet.ball_list": "perfbench/tracer.py wraps it and counts its calls",
    "weyl.GoodSet.members": "perfbench/tracer.py counts its rows; goes with the benchmark refresh (ROADMAP item 4)",
}


def _reads(node):
    """Every name node reads: loaded names and attributes, and the names
    of ``from ... import`` statements."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _definitions(tree, module):
    """(dotted name, bare name, node) of each module-level function, class
    and constant and each method; dunders, which Python calls itself, and
    the cmd_* handlers, which cli.dispatch finds through globals(), left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{module}.{target.id}", target.id, node


def _unread_definitions(src):
    """Dotted names of the definitions in src whose name is read nowhere
    in src outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    return [dotted for module, tree in trees.items() for dotted, name, node in _definitions(tree, module)
            if not name.startswith("cmd_") and reads[name] == Counter(_reads(node))[name]]


def test_every_src_name_has_a_src_reader(tmp_path):
    probe = tmp_path / "weylmax"
    shutil.copytree(SRC, probe)
    with open(probe / "decomp.py", "a") as fh:
        fh.write("\n\ndef only_tests_call_this(z):\n    return only_tests_call_this(z)\n")
    assert _unread_definitions(probe) == ["decomp.only_tests_call_this", *NO_SRC_READER]
    assert _unread_definitions(SRC) == list(NO_SRC_READER)
