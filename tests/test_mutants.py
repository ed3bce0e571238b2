"""The named mutants of tests/mutants.py stay applicable as the code
moves: each fragment occurs exactly once in src/, in the file the
mutant names, each named test is defined, every module has a mutant,
and every guard has an entry in GUARDS.  Running the mutants is a
separate command (python tests/mutants.py)."""

import ast
import re
from functools import cache

import pytest

from mutants import GUARDS, MUTANTS, PACKAGE, ROOT

GUARD_EXCEPTIONS = {"VerificationError", "_table_error"}


def _raised_name(exc):
    """The name a raise statement raises: ``X`` of ``raise X(...)``."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


@cache
def guards():
    """Every guard of src/ as "file:function:k" (see mutants.GUARDS),
    mapped to its line, and the line span of every function and class,
    by (file, qualified name)."""
    lines, spans = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = {}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = ".".join(scope + (child.name,))
                    spans[path.name, name] = (child.lineno, child.end_lineno)
                    visit(child, scope + (child.name,))
                    continue
                if (isinstance(child, ast.Raise)
                        and _raised_name(child.exc) in GUARD_EXCEPTIONS):
                    found.setdefault(".".join(scope), []).append(child.lineno)
                visit(child, scope)

        visit(ast.parse(path.read_text()), ())
        for scope, at in found.items():
            for k, line in enumerate(sorted(at), start=1):
                lines[f"{path.name}:{scope}:{k}"] = line
    return lines, spans


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


def test_every_module_has_a_mutant():
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert modules - {m.file for m in MUTANTS} == set()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_fragment_occurs_once_in_src(mutant):
    counts = {path.name: path.read_text().count(mutant.fragment)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.replacement != mutant.fragment


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_are_defined(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *scope = test.split("::")
        source = (ROOT / path).read_text()
        *classes, func = scope
        for cls in classes:
            assert re.search(rf"^class {cls}\b", source, re.M), test
        name = func.split("[")[0]
        assert re.search(rf"^\s*def {name}\(", source, re.M), test


def test_every_guard_has_an_entry():
    lines, _ = guards()
    assert set(lines) - set(GUARDS) == set(), "guards without an entry"
    assert set(GUARDS) - set(lines) == set(), "entries without a guard"


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_entry_names_its_mutant_or_a_reason(guard):
    entry = GUARDS[guard]
    if entry.startswith("equivalent: "):
        assert entry.removeprefix("equivalent: ").strip()
        return
    mutant = {m.name: m for m in MUTANTS}[entry]
    lines, spans = guards()
    file, scope, _ = guard.split(":")
    assert mutant.file == file
    text = (PACKAGE / file).read_text()
    at = text[:text.index(mutant.fragment)].count("\n") + 1
    start, end = spans[file, scope]
    assert start <= at <= lines[guard] <= end
    # No other guard of the function lies between the fragment and this one.
    prefix = f"{file}:{scope}:"
    assert not [g for g, line in lines.items()
                if g.startswith(prefix) and at <= line < lines[guard]]
