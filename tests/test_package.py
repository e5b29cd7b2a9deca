"""The public surface: each module's __all__ declares it, the root re-exports it,
and it refuses bad arguments with a ValueError that says what was wrong."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import teachlab
from teachlab import (
    Concept,
    KSetFamily,
    Tournament,
    agrees_on,
    bound_report,
    chernoff_bound,
    claim_scan,
    complement_family,
    corollary_d2_bound,
    improved_factor,
    johnson_adjacent,
    linear_tournament,
    max_class_search,
    narrow_clique_free,
    narrow_cliques,
    pattern_report,
    tau_estimate,
)

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


def test_no_function_calls_itself():
    # every search loops over explicit state, so no input depth meets
    # Python's recursion limit
    for path in sorted(Path(teachlab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        assert name != fn.name, (path.name, fn.name, node.lineno)


_PAIR = KSetFamily(2, 1, frozenset({frozenset({1})}))
_FULL = KSetFamily(2, 2, frozenset({frozenset({1, 2})}))

# each call and the whole message of the ValueError it raises
REFUSED = {
    "improved_factor": (lambda: improved_factor(0), "need d >= 1"),
    "corollary_d2_bound": (lambda: corollary_d2_bound(1), "need n >= 2"),
    "chernoff_bound": (lambda: chernoff_bound(0.5, 0, 0.1), "need m >= 1"),
    "bound_report": (lambda: bound_report(3, 0), "need 1 <= d <= n, got d=0, n=3"),
    "Concept-domain": (lambda: Concept(0, 0), "domain size must be at least 1"),
    "Concept-mask": (lambda: Concept(2, 4), "membership mask does not fit the domain"),
    "Concept.label": (lambda: Concept(2, 1).label(0), "instance 0 outside domain 1..2"),
    "agrees_on": (lambda: agrees_on(Concept(2, 1), Concept(3, 1), []),
                  "concepts are defined over different domain sizes"),
    "KSetFamily-k": (lambda: KSetFamily(3, 0, frozenset()), "need 1 <= k <= n, got k=0, n=3"),
    "KSetFamily-size": (lambda: KSetFamily(3, 2, frozenset({frozenset({1})})),
                        "member [1] does not have size 2"),
    "KSetFamily-domain": (lambda: KSetFamily(3, 1, frozenset({frozenset({4})})),
                          "instance 4 outside domain 1..3"),
    "johnson_adjacent": (lambda: johnson_adjacent({1, 2}, {1}),
                         "Johnson adjacency needs equal-size sets"),
    "narrow_cliques": (lambda: next(narrow_cliques(3, 3)), "need 1 <= k < n, got k=3, n=3"),
    "narrow_clique_free": (lambda: narrow_clique_free(_PAIR, 0), "need t >= 1"),
    "complement_family": (lambda: complement_family(_FULL), "complement members would be empty"),
    "claim_scan": (lambda: claim_scan(1), "need limit >= 2"),
    "pattern_report": (lambda: pattern_report(linear_tournament(3), 4), "need 0 <= k <= n, got k=4"),
    "max_class_search": (lambda: max_class_search(2, 0), "need 1 <= d <= n, got d=0, n=2"),
    "tau_estimate": (lambda: tau_estimate(4, 0, 1), "need at least one trial"),
    "Tournament": (lambda: Tournament(2, 2), "orientation bits do not fit the pair count"),
}


@pytest.mark.parametrize("call", sorted(REFUSED))
def test_bad_arguments_are_refused_with_their_reason(call):
    fn, message = REFUSED[call]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn()
