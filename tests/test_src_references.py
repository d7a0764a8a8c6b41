"""Library code feeds a task: every public module-level function and class
in src/robinspectra is named by some other src code.  A name that only
tests reach belongs in the tests, and a mention in a docstring is no use."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "robinspectra"


def _names(node):
    """The names a statement reads, as variables or attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_used_in_src():
    statements = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    uses = [(stmt, _names(stmt)) for _, stmt in statements]
    unused = [
        f"{module}:{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in uses if other is not stmt)
    ]
    assert not unused, f"reached from no other src code: {unused}"
