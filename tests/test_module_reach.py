"""Every ``src/repro`` module is reached from a job.

Walks the ``import``/``from`` statements of ``jobs/*.py`` with ``ast`` and
follows them transitively through ``src/repro``. A module no job reaches is
code no table, figure or claim depends on.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``repro.oracle`` is the DuckDB test oracle: only tests import it, by design,
#: to check the production metrics against an independent SQL engine.
EXEMPT = {"repro.oracle"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _imported_names(path: Path):
    """Dotted names a file imports; ``from m import x`` yields ``m`` and ``m.x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def reached_from_jobs() -> set[str]:
    reached: set[str] = set()
    todo = sorted((ROOT / "jobs").glob("*.py"))
    while todo:
        for name in _imported_names(todo.pop()):
            parts = name.split(".")
            # Importing a.b.c also imports the packages a and a.b.
            for i in range(1, len(parts) + 1):
                mod = ".".join(parts[:i])
                if mod in MODULES and mod not in reached:
                    reached.add(mod)
                    todo.append(MODULES[mod])
    return reached


def test_every_module_is_reached_from_a_job():
    unreached = sorted(set(MODULES) - EXEMPT - reached_from_jobs())
    assert not unreached, f"modules no job imports: {unreached}"
