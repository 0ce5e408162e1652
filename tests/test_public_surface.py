"""Every public name in the package has a program caller, every parameter with
a default is set by one, and every field of a dataclass or NamedTuple is read
by the program and, when it has a default, set by it. The rules of the field
checks are in the comment above them.

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

Every exception class defined in ``errors.py`` is named by an ``except``
clause, alone or in a tuple, in some module of ``src/nexusopt``: a failure
that no caller handles by its class raises the nearest base class that one
does, with a message that says what went wrong. Every attribute that such a
class's ``__init__`` sets on ``self`` is read, as ``name.attribute`` inside an
``except ... as name`` clause, in some module other than ``errors.py``; the
exceptions are on ``KEEP_UNREAD_FIELDS`` below.
"""

import ast
import pathlib

import nexusopt

KEEP_WITHOUT_CALLER = {
    "taskset_to_json": "writes the task-set format that problem.kind = custom_taskset_file reads",
    "ExperimentConfig.to_text": "writes the config format that load_config reads",
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


def exception_classes(trees):
    errors = next(tree for path, tree in trees.items() if path.name == "errors.py")
    return [node for node in errors.body if isinstance(node, ast.ClassDef)]


def test_every_exception_class_is_named_by_an_except_clause():
    trees = package_trees()
    defined = {node.name for node in exception_classes(trees)}
    caught = set()
    for tree in trees.values():
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught |= {getattr(node, "id", None) or getattr(node, "attr", None) for node in types}
    uncaught = sorted(defined - caught)
    assert not uncaught, f"exception classes no except clause names, raise their nearest caught base: {uncaught}"


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


# Fields of dataclasses and NamedTuples. A field of class C counts as read when
# some Attribute of its name is loaded outside C's __post_init__, which only
# validates, in a module of src/nexusopt that defines C or imports C by name: a
# read in another method of C counts, and so does a read of another field or
# method of the same spelling in such a module, but not one in a module that
# never names C. Every field of a class defined in a module that calls asdict
# or astuple counts as read, as validate's CheckResult goes whole into its
# report, and so does every field of a class whose own body calls fields(), as
# MetricsRow.to_csv writes each field as a column. A field
# with a default counts as set when a call to its class (or to cls inside it)
# passes it by position, by keyword or through */**, a replace or _replace call
# passes it by keyword, or an Attribute of its name is assigned outside its
# class's __post_init__; a default_factory field also counts as set when a
# method is called on an Attribute of its name, as record.rows.append(row)
# fills a list. The list of unread fields, exception attributes included, gives
# its reasons and only shrinks; every defaulted field is set today, so that
# check has no list.
KEEP_UNREAD_FIELDS = {
    "RunRecord.final_theta": "read only by tests (A7 and the harness tests)",
}


def record_classes(trees):
    """(module tree, class node, field nodes) for each dataclass and NamedTuple."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
                getattr(b, "id", None) == "NamedTuple" for b in node.bases
            ):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                yield tree, node, fields


def field_keywords(field):
    value = field.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return {k.arg for k in value.keywords}
    return set() if value is None else {"default"}


def post_init_ids(cls):
    return {id(n) for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for n in ast.walk(f)}


def attribute_nodes(trees, ctx):
    """Attribute name -> ids of the Attribute nodes of that name in the given context."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
                out.setdefault(node.attr, set()).add(id(node))
    return out


def imported_names(tree):
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_fields(trees):
    loads = {id(tree): attribute_nodes({path: tree}, ast.Load) for path, tree in trees.items()}
    imports = {id(tree): imported_names(tree) for tree in trees.values()}
    unread = set()
    for tree, cls, fields in record_classes(trees):
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("asdict", "astuple") for n in ast.walk(tree)):
            continue
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "fields" for n in ast.walk(cls)):
            continue
        readers = [loads[key] for key, names in imports.items() if key == id(tree) or cls.name in names]
        validating = post_init_ids(cls)
        for field in fields:
            if not set().union(*(r.get(field.target.id, set()) for r in readers)) - validating:
                unread.add(f"{cls.name}.{field.target.id}")
    return unread


def unset_field_defaults(trees):
    stores = attribute_nodes(trees, ast.Store)
    calls, filled = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(getattr(node.func, "id", None) or getattr(node.func, "attr", None), []).append(node)
                if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Attribute):
                    filled.add(node.func.value.attr)
    unset = set()
    for _, cls, fields in record_classes(trees):
        inside = {id(n) for n in ast.walk(cls)}
        constructors = calls.get(cls.name, []) + [c for c in calls.get("cls", []) if id(c) in inside]
        renewals = calls.get("replace", []) + calls.get("_replace", [])
        validating = post_init_ids(cls)
        for index, field in enumerate(fields):
            name, keywords = field.target.id, field_keywords(field)
            if not keywords & {"default", "default_factory"}:
                continue
            if "default_factory" in keywords and name in filled:
                continue
            if any(passes(c, index, name) for c in constructors) or any(passes(c, None, name) for c in renewals):
                continue
            if stores.get(name, set()) - validating:
                continue
            unset.add(f"{cls.name}.{name}")
    return unset


def kept_unread(trees, exceptions: bool):
    """The KEEP_UNREAD_FIELDS entries of exception classes, or of the other classes."""
    names = {cls.name for cls in exception_classes(trees)}
    return {qual for qual in KEEP_UNREAD_FIELDS if (qual.split(".")[0] in names) == exceptions}


def assert_read_but_kept(unread, kept):
    never_read = sorted(unread - kept)
    assert not never_read, f"fields no program code reads, delete them: {never_read}"
    now_read = sorted(kept - unread)
    assert not now_read, f"listed fields that the program now reads or that are gone, take them off the list: {now_read}"


def test_every_record_field_is_read_by_the_program():
    trees = package_trees()
    assert_read_but_kept(unread_fields(trees), kept_unread(trees, exceptions=False))


def unread_exception_attributes(trees):
    """Class.attribute for each attribute that an exception class's __init__
    sets on self and no except clause outside errors.py reads from its name."""
    read = set()
    for path, tree in trees.items():
        if path.name == "errors.py":
            continue
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.name is not None:
                read |= {
                    node.attr for node in ast.walk(handler)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) == handler.name
                }
    unread = set()
    for cls in exception_classes(trees):
        for init in (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"):
            for node in ast.walk(init):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr not in read:
                    if getattr(node.value, "id", None) == "self":  # self.attr = ...
                        unread.add(f"{cls.name}.{node.attr}")
    return unread


def test_every_exception_attribute_is_read_by_the_program():
    trees = package_trees()
    assert_read_but_kept(unread_exception_attributes(trees), kept_unread(trees, exceptions=True))


def test_every_defaulted_record_field_is_set_by_the_program():
    never_set = sorted(unset_field_defaults(package_trees()))
    assert not never_set, f"defaulted fields no program code sets, make them constants: {never_set}"
