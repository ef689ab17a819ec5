"""Layering lint: the algorithm packages must not import the serving shell.

The packages of ``src/repro`` sit in two layers.  The algorithm layer
(``relational``, ``semiring``, ``sketches``, ``discovery``, ``privacy``,
``ml``, ``core``) is the paper's platform; the shell layer (``obs``,
``serving``, ``persist``, ``faults``) wraps it with tracing, serving,
durable state and fault injection.  A module may import its own layer or
a lower one.  An import from a higher layer fails the check unless
:data:`ALLOWED` lists it.  ``ALLOWED`` holds the upward imports that
exist today and may only shrink: an entry whose import is gone fails the
check too, so deleting an import also deletes its entry.

Imports inside functions count, since they load the shell all the same.
Packages in neither layer (``agents``, ``causal``, ``baselines``,
``datasets``, ``experiments``) are not checked.

Run locally::

    python tools/check_layers.py
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Lowest layer first; a module may import only its own layer or lower.
LAYERS = (
    ("relational", "semiring", "sketches", "discovery", "privacy", "ml", "core"),
    ("obs", "serving", "persist", "faults"),
)

#: Today's upward imports, as (file under ``src/repro``, imported module).
ALLOWED = {
    ("core/platform.py", "repro.obs"),
    ("core/platform.py", "repro.persist"),
    ("core/platform.py", "repro.serving.fingerprint"),
    ("core/platform.py", "repro.serving.sharded"),
    ("discovery/index.py", "repro.obs"),
}


def layer_of(module: str) -> int | None:
    """The layer index of a ``repro.<package>...`` module, else ``None``."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    for index, packages in enumerate(LAYERS):
        if parts[1] in packages:
            return index
    return None


def imported_modules(tree: ast.AST, package: list[str]):
    """Yield ``(line, module)`` for every import in ``tree``.

    ``package`` is the dotted package of the importing module, split into
    parts, so relative imports resolve to absolute names.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            if module == "repro":
                # ``from repro import serving`` names the package itself.
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, module


def upward_imports(root: Path) -> list[tuple[str, int, str]]:
    """``(file, line, module)`` for every import from a higher layer."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        package = ["repro", *relative.split("/")[:-1]]
        own = layer_of(".".join(package))
        if own is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module in imported_modules(tree, package):
            target = layer_of(module)
            if target is not None and target > own:
                found.append((relative, line, module))
    return found


def check(root: Path, allowed: set[tuple[str, str]] = ALLOWED) -> list[str]:
    """Problems found under ``root`` (the ``repro`` package directory)."""
    problems = []
    seen = set()
    for relative, line, module in upward_imports(root):
        seen.add((relative, module))
        if (relative, module) not in allowed:
            problems.append(f"{relative}:{line}: imports {module} from a higher layer")
    for relative, module in sorted(allowed - seen):
        problems.append(
            f"{relative}: allow-list entry for {module} matches no import; "
            f"delete the entry"
        )
    return problems


def main() -> int:
    problems = check(REPO_ROOT / "src" / "repro")
    if problems:
        print("Layer check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"Layer check passed ({len(ALLOWED)} allowed upward imports).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
