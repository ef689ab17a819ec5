"""Every third-party import in the tree is declared in requirements-dev.txt.

CI installs only ``requirements-dev.txt``, so an import that is not listed
there works on a machine that happens to have the package and fails on a
fresh runner.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", "tools")


def _normalise(name):
    return re.sub(r"[-_.]+", "_", name).lower()


def _declared():
    names = set()
    for line in (ROOT / "requirements-dev.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(_normalise(re.match(r"[A-Za-z0-9_.\-]+", line).group(0)))
    return names


def _imported():
    """Top-level module name → the first file importing it."""
    modules = {}
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    found = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found = [node.module]
                else:
                    continue
                for name in found:
                    modules.setdefault(name.split(".")[0], path.relative_to(ROOT))
    return modules


def _local():
    """Names that resolve to a module or package in the tree itself."""
    names = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            names.add(path.stem)
            names.update(parent.name for parent in path.relative_to(ROOT).parents)
    return names


def test_third_party_imports_are_declared():
    ignored = set(sys.stdlib_module_names) | {"repro"} | _local()
    declared = _declared()
    missing = {
        name: str(path)
        for name, path in _imported().items()
        if name not in ignored and _normalise(name) not in declared
    }
    assert missing == {}
