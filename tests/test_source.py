import ast
import re
from collections import Counter
from pathlib import Path

from boolbruhat import verify

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


def test_every_top_level_name_is_read_somewhere():
    """Each top-level function, class or assigned name of the library occurs
    at least twice, as a whole word, across the library, the tests and the
    benchmark: once where it is defined and once where it is read."""
    root = SRC.parents[1]
    text = "\n".join(
        path.read_text()
        for folder in (SRC, root / "tests", root / "bench")
        for path in sorted(folder.glob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(
                    t.id for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)
                )
    unread = sorted(
        name for name in names
        if not (name.startswith("__") and name.endswith("__")) and words[name] < 2
    )
    assert names and unread == []


def test_every_verify_check_is_a_registered_sweep():
    """An undecorated check_* would return a bare list and be missing from
    the CLI's registry."""
    checks = {
        name for name, value in vars(verify).items()
        if name.startswith("check_") and getattr(value, "__module__", None) == verify.__name__
    }
    assert checks == {check.__name__ for check in verify.THEOREM_CHECKS.values()}
    assert len(checks) == 15
    for check in verify.THEOREM_CHECKS.values():
        assert isinstance(check(1), verify.Sweep)
