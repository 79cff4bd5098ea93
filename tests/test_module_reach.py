"""Every ``src/repro`` module, function, class and method is reached from a job.

The module test walks the ``import``/``from`` statements of ``jobs/*.py``
with ``ast`` and follows them transitively through ``src/repro``. The
function test follows identifiers instead of imports (see
:func:`unreached_definitions`). Code no job reaches is code no table, figure
or claim depends on.
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


# -- function level -------------------------------------------------------------


def _identifiers(nodes):
    """Every name a piece of code can use: names, attributes, imported names."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1]


def _definitions():
    """Split the non-exempt ``src/repro`` modules into checked definitions
    and code that always runs.

    A checked definition is ``(qualified name, name, nodes)``: a top-level
    function or class, or a public method that is not a property. The rest of
    a class body (private methods, properties, class attributes) belongs to
    the class. Module-level statements run on import, so they always run.
    """
    defs, always = [], []
    for mod, path in MODULES.items():
        if mod in EXEMPT:
            continue
        short = mod.rsplit(".", 1)[-1]
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{short}.{node.name}", node.name, [node]))
            elif isinstance(node, ast.ClassDef):
                own = []
                for item in node.body:
                    public_method = (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                        and not any(
                            isinstance(d, ast.Name) and d.id == "property"
                            for d in item.decorator_list
                        )
                    )
                    if public_method:
                        defs.append((f"{node.name}.{item.name}", item.name, [item]))
                    else:
                        own.append(item)
                defs.append((node.name, node.name, own + node.bases + node.decorator_list))
            else:
                always.append(node)
    return defs, always


def unreached_definitions() -> list[str]:
    """Definitions whose name no job reaches, by a name-level fixpoint.

    Starts from every identifier in ``jobs/*.py`` and in the module-level code
    of ``src/repro``; each definition whose name is reached adds the
    identifiers of its body. Matching is by name only, so a definition counts
    as reached when any reached code uses its name.
    """
    defs, always = _definitions()
    jobs = [ast.parse(p.read_text()) for p in sorted((ROOT / "jobs").glob("*.py"))]
    reached = set(_identifiers(jobs + always))
    pending = defs
    while True:
        hit = [d for d in pending if d[1] in reached]
        if not hit:
            break
        pending = [d for d in pending if d[1] not in reached]
        for _, _, body in hit:
            reached.update(_identifiers(body))
    return sorted(qual for qual, _, _ in pending)


def test_every_function_is_reached_from_a_job():
    unreached = unreached_definitions()
    assert not unreached, f"functions, classes or methods no job reaches: {unreached}"
