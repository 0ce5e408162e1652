"""Every public name in the package has a program caller, and every parameter
with a default is set by one.

A name counts as called when some module of ``src/nexusopt`` other than
``__init__.py`` refers to it outside the name's own definition. A top-level
function or class is referred to by a loaded Name, a ``from ... import``
alias or a ``<module>.<name>`` attribute; a field or an attribute of the same
spelling does not count. A method is referred to by any Attribute of its
name. Tests do not count. The names below are the only exceptions; each one
leaves this list when it gains a caller, so the list only shrinks.

A parameter with a default, of any function or method, counts as set when
some call in ``src/nexusopt`` to a function or method of that name passes it,
by keyword, by position or through ``*``/``**``; a call to a class counts for
its ``__init__``. A default that no call changes is a constant, and the code
says so. Functions on ``KEEP_WITHOUT_CALLER`` are skipped, and
``KEEP_UNSET_DEFAULTS`` lists the other exceptions, each with its reason; it
too only shrinks.
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
    """(top-level refs, method refs): each maps a name to the ids of the nodes
    that refer to it, outside __init__.py."""
    modules = {path.stem for path in trees}
    top_level, methods = {}, {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                top_level.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    top_level.setdefault(alias.name, []).append(id(alias))
            elif isinstance(node, ast.Attribute):
                methods.setdefault(node.attr, []).append(id(node))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    top_level.setdefault(node.attr, []).append(id(node))
    return top_level, methods


def package_trees():
    src = pathlib.Path(nexusopt.__file__).parent
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}


def test_every_public_name_has_a_program_caller():
    trees = package_trees()
    top_level, methods = references(trees)
    uncalled = set()
    for qual, name, definition in public_definitions(trees):
        refs = methods if "." in qual else top_level
        inside = {id(n) for n in ast.walk(definition)}
        if all(ref in inside for ref in refs.get(name, [])):
            uncalled.add(qual)
    no_caller = sorted(uncalled - KEEP_WITHOUT_CALLER.keys())
    assert not no_caller, f"public names with no program caller: {no_caller}"
    gained = sorted(KEEP_WITHOUT_CALLER.keys() - uncalled)
    assert not gained, f"listed names that gained a caller or are gone, take them off the list: {gained}"


KEEP_UNSET_DEFAULTS = {
    "main(argv)": "the console script calls main() with no arguments; tests pass argv",
    "check_second_order(gamma_override)": "_run_suite reaches it as _SUITE_FNS[name], the table the "
    "benchmark's suite spans wrap, so no call names it",
}


def defaulted_parameters(trees):
    """(qualified name, callee name, index, parameter) for each parameter with a
    default of each function and method; a call passes it as its index-th
    positional argument (None for keyword-only), or by the parameter's name."""
    for tree in trees.values():
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            qual = f"{cls.name}.{node.name}" if cls else node.name
            callee = cls.name if node.name == "__init__" else node.name
            bound = cls is not None and not any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for index, arg in enumerate(positional[first:], first - bound):
                yield qual, callee, index, arg.arg
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield qual, callee, None, arg.arg


def passes(call, index, param):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and index < len(call.args)


def test_every_defaulted_parameter_is_set_by_a_program_call():
    trees = package_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = {
        f"{qual}({param})"
        for qual, callee, index, param in defaulted_parameters(trees)
        if qual not in KEEP_WITHOUT_CALLER and not any(passes(c, index, param) for c in calls.get(callee, []))
    }
    never_set = sorted(unset - KEEP_UNSET_DEFAULTS.keys())
    assert not never_set, f"parameters no program call sets, make them constants: {never_set}"
    now_set = sorted(KEEP_UNSET_DEFAULTS.keys() - unset)
    assert not now_set, f"listed parameters that a call now sets or that are gone, take them off the list: {now_set}"
