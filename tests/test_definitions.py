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


BUFFERS = {"_log_w", "_births", "_means", "_covs", "_cov_x", "_cov_xt", "_scratch", "_k"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/mixshare/*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_mixture_reads_its_buffers(path):
    # FixedShareMixture owns its buffers: the package reads them off self alone, and the
    # round writes them through FixedShareMixture.update; tests may still read them
    foreign = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in BUFFERS
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert not foreign, f"mixture buffers read off another object in {path.name}: {', '.join(foreign)}"
