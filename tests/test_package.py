"""The public surface: each module's __all__ declares it, the root re-exports it."""

import ast
import importlib
from pathlib import Path

import teachlab

MODULES = ("bounds", "classical", "concepts", "errors", "experiments", "johnson",
           "ncteach", "rng", "tournaments")


def test_root_exports_exactly_the_module_surfaces():
    declared = [name for mod in MODULES
                for name in importlib.import_module(f"teachlab.{mod}").__all__]
    assert len(declared) == len(set(declared)) == 90
    assert sorted(teachlab.__all__) == sorted(declared)


def test_every_exported_name_is_its_modules_own_object():
    for mod in MODULES:
        module = importlib.import_module(f"teachlab.{mod}")
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, (mod, name)
            assert getattr(teachlab, name) is obj, (mod, name)


def test_mask64_stays_in_rng_only():
    from teachlab.rng import MASK64

    assert MASK64 == (1 << 64) - 1
    assert "MASK64" not in teachlab.__all__
    assert not hasattr(teachlab, "MASK64")


def test_every_imported_name_is_used():
    # an import that its module never reads is left over from deleted code
    for path in sorted(Path(teachlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_only_errors_reads_the_search_budget():
    # every search charges its steps to a step meter; the read policy, the
    # deadline and its hand-over to pool workers stay inside errors
    private = {"_WORK_PER_READ", "_deadline", "_resume_budget"}
    for path in sorted(Path(teachlab.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not private & {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "check_budget", (path.name, node.lineno)


def test_every_private_function_is_referenced():
    # a private function or class that nothing else reads is left over from
    # deleted code; each top-level statement's reads are kept apart, so a
    # definition does not count as a read of itself
    private, reads = [], []
    for path in sorted(Path(teachlab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                private.append((path.name, node))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names |= {alias.name for alias in sub.names}
            reads.append((node, names))
    assert private
    unread = [(mod, node.name) for mod, node in private
              if not any(node.name in names for other, names in reads if other is not node)]
    assert not unread
