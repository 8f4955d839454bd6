"""The derived graph's single writers, read off the package's syntax tree.

The back-edge rule is written once: only `DerivedGraph.back_edges` calls
`has_slack`, and every other reader asks it for the list or its length.
Alpha has one writer: `DualState.__init__` creates the list and only
`DerivedGraph.rebuild_preferred` stores its elements.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "budget_flow"


def enclosing(tree: ast.AST):
    """Yield `(qualname, node)` for every node, qualname naming the innermost
    class and function around it, as `Class.method`, or '' at module level."""
    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = names + [child.name]
            else:
                inner = names
            yield ".".join(inner), child
            yield from visit(child, inner)
    yield from visit(tree, [])


def writers(source: str) -> dict[str, set[str]]:
    """Where `source` calls `has_slack`, stores an element of an `alpha`
    attribute (`x.alpha[k] = ...`, augmented too) and binds an `alpha`
    attribute (`x.alpha = ...`)."""
    found = {"has_slack": set(), "alpha element": set(), "alpha list": set()}
    for where, node in enclosing(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "has_slack":
                found["has_slack"].add(where)
        elif isinstance(getattr(node, "ctx", None), ast.Store):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "alpha"):
                found["alpha element"].add(where)
            elif isinstance(node, ast.Attribute) and node.attr == "alpha":
                found["alpha list"].add(where)
    return found


def package_writers() -> dict[str, set[str]]:
    found = {"has_slack": set(), "alpha element": set(), "alpha list": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for kind, places in writers(path.read_text()).items():
            found[kind] |= {f"{path.stem}:{where}" for where in places}
    return found


def test_the_back_edge_rule_and_alpha_each_have_one_writer():
    assert package_writers() == {
        "has_slack": {"derived_graph:DerivedGraph.back_edges"},
        "alpha element": {"derived_graph:DerivedGraph.rebuild_preferred"},
        "alpha list": {"state:DualState.__init__"},
    }


def test_the_check_sees_a_second_writer():
    source = (
        "class Graph:\n"
        "    def count(self, e):\n"
        "        return self.dual.has_slack(e)\n"
        "    def bump(self, i):\n"
        "        self.dual.alpha[i] += 1\n"
        "def reset(dual, n):\n"
        "    dual.alpha = [0] * n\n"
        "    alpha = dual.alpha\n"
        "    alpha[0] = alpha[0]\n"  # through a local name: not an attribute, not counted
    )
    assert writers(source) == {
        "has_slack": {"Graph.count"}, "alpha element": {"Graph.bump"}, "alpha list": {"reset"},
    }
