"""Every public function, class and method in the package has a program caller.

A name counts as called when some module of ``src/nexusopt`` other than
``__init__.py`` refers to it, as a Name or an Attribute, outside the name's
own definition. Tests do not count. The names below are the only exceptions;
each one leaves this list when it gains a caller, so the list only shrinks.
"""

import ast
import pathlib

import nexusopt

KEEP_WITHOUT_CALLER = {
    "first_order_transfer": "ROADMAP item 5 moves the transfer claim into validate",
    "flatness_closeness_bound": "ROADMAP item 5 moves the flatness/closeness expansion (A10) into validate",
    "gamma2_coefficient_from_enumeration": "ROADMAP item 5 moves the dot variant's scale pathology (A11) into validate",
    "lipschitz_constants": "ROADMAP item 4 derives the third-order error bound from L1 and L2",
    "taskset_to_json": "writes the task-set format that problem.kind = custom_taskset_file reads",
    "ExperimentConfig.to_text": "writes the config format that load_config reads",
    "alignment_pair_direction": "the test reference for the pair term that the oracles docstring defines",
}


def public_definitions(trees):
    """(qualified name, bare name, definition node) for each public top-level
    function and class, and each public method of those classes."""
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node.name, node
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                            yield f"{node.name}.{sub.name}", sub.name, sub


def references(trees):
    """name -> ids of the Name and Attribute nodes that refer to it, outside __init__.py."""
    refs = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
    return refs


def test_every_public_name_has_a_program_caller():
    src = pathlib.Path(nexusopt.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    refs = references(trees)
    uncalled = set()
    for qual, name, definition in public_definitions(trees):
        inside = {id(n) for n in ast.walk(definition)}
        if all(ref in inside for ref in refs.get(name, [])):
            uncalled.add(qual)
    no_caller = sorted(uncalled - KEEP_WITHOUT_CALLER.keys())
    assert not no_caller, f"public names with no program caller: {no_caller}"
    gained = sorted(KEEP_WITHOUT_CALLER.keys() - uncalled)
    assert not gained, f"listed names that gained a caller or are gone, take them off the list: {gained}"
