"""Every private top-level function or class of the package is read by the
package's code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coloredsym"


def test_every_private_definition_is_referenced_outside_itself():
    # a private function or class that no code names but its own body is a
    # dead core, or a layer whose one caller was folded into it; names are
    # read from the syntax tree, so a mention in a docstring or comment
    # does not count, and neither does an import that nothing reads
    statements = [
        (path.name, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    # the names each top-level statement's code reads
    reads = [
        {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for _, stmt in statements
    ]
    unread = [
        f"{module}:{stmt.name}"
        for i, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert unread == []
