"""Every top-level definition of src/ is reached from a command, and
each label and group type has one producer.

A name-based walk over the AST: it starts from every top-level
definition of ``cli`` and follows each name or attribute that a reached
definition mentions to the top-level definitions of that name in any
module.  A definition that the walk never reaches is dead code unless
``UNREACHED`` names it with the reason it stays.  An entry of
``UNREACHED`` that the walk reaches, or that names no definition, is
stale and fails too.

``PRODUCERS`` names the one top-level function of src/ that may call
each type by name; a call anywhere else fails.
"""

import ast

from mutants import PACKAGE

UNREACHED = {
    "stab_lambda": "perfbench's kinva_sample pool filter reads its order",
    "_canonical_structure": "perfbench's make_reference.py groups labels "
                            "by it",
    "_parts_from_label": "the concrete path from a label, the tests' oracle "
                         "for the key path",
    "nu_lambda": "the concrete path, the tests' oracle for the key path",
    "k_lambda": "the concrete path, the tests' oracle for the key path",
    "SubgroupPresentation": "what the concrete path returns",
    "build_VdI": "waits for the extension suite (ROADMAP Direction 21)",
    "extension_obstruction": "waits for the extension suite (ROADMAP "
                             "Direction 21)",
}

# Each type's one producer, or None: FiniteGroup.generate builds its
# groups as cls(...), so src/ calls FiniteGroup(...) nowhere.
PRODUCERS = {
    "LeviLabel": "enumerate_labels",
    "CharLabel": "enumerate_char_labels",
    "FiniteGroup": None,
}


def definitions():
    """Every top-level def, class and assigned name of src/ (dunder
    names aside), as name -> [(file, node), ...]."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for target in targets
                         for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, []).append((path.name, node))
    return defs


def mentioned(node):
    """The names and attribute names anywhere in ``node``."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def reached(defs):
    todo = [name for name, where in defs.items()
            if any(file == "cli.py" for file, _ in where)]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, node in defs[name]:
            todo.extend(mentioned(node) & defs.keys() - seen)
    return seen


def test_every_definition_is_reached_or_listed():
    defs = definitions()
    assert set(defs) - reached(defs) - set(UNREACHED) == set()


def test_no_stale_entry():
    defs = definitions()
    assert set(UNREACHED) - set(defs) == set(), "entries naming nothing"
    assert set(UNREACHED) & reached(defs) == set(), "entries now reached"
    assert all(reason.strip() for reason in UNREACHED.values())


def test_walk_follows_names_across_modules():
    # kinva reaches cliff's key path, and through it signedperm's
    # closure on image tuples.
    assert {"_kinva_key", "_build_K", "_closure_images",
            "centralizer_type"} <= reached(definitions())


def constructor_calls():
    """(type, file, enclosing top-level definition) for every call of a
    type of ``PRODUCERS`` by name or attribute in src/."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in PRODUCERS:
                    calls.append((name, path.name, getattr(top, "name", None)))
    return calls


def test_each_type_has_one_producer():
    calls = constructor_calls()
    assert [call for call in calls if PRODUCERS[call[0]] != call[2]] == []
    assert {name for name, _, _ in calls} == {"LeviLabel", "CharLabel"}
