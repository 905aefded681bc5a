import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boolbruhat"


def test_library_has_no_assert_statements():
    """Checks in the library raise explicitly, so `python -O` keeps them."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
