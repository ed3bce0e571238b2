"""The named mutants of tests/mutants.py stay applicable as the code
moves: each fragment occurs exactly once in src/, in the file the
mutant names, and each named test is defined.  Running the mutants is
a separate command (python tests/mutants.py)."""

import re

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


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
