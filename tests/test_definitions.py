"""Static checks of the source tree that need no linter."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/mixshare/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_name_is_defined_twice(path):
    # a second def or class of one name silently replaces the first, so the first is dead code
    seen, twice = set(), []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                twice.append(f"{node.name} (line {node.lineno})")
            seen.add(node.name)
    assert not twice, f"defined more than once in {path.name}: {', '.join(twice)}"
