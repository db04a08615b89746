"""Static checks on the package source (no linter is required)."""

import ast
import importlib
import inspect
import pathlib

import compactfix

SOURCES = sorted(pathlib.Path(compactfix.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
# the code that the program's own entry points run: the package (its
# __init__ only re-exports), the demos and the benchmark harness
READERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted(ROOT.glob("demos/*.py"))
           + [p for p in sorted(ROOT.glob("perfbench/*.py"))
              if not p.name.startswith("test_")])
# the code that calls the package: the readers above and the tests
CALLERS = READERS + sorted(ROOT.glob("perfbench/test_*.py")) \
    + sorted(ROOT.glob("tests/*.py"))
# definitions and fields that stay although no reader above reads them,
# and why
UNREAD_ALLOWED = {
    "load_grid_function": "it reads back the solve's solution.csv",
    "FaceLimitError.face": "an exception payload, kept for a caller that "
                           "recovers from the fault: the face whose limit "
                           "failed",
    "QuadratureError.last_estimate": "an exception payload, kept for a "
                                     "caller that recovers from the fault: "
                                     "the last panel level's values",
}
# names that one site of the package calls, and why: one ladder certifies
# every limit at infinity, kappa_limit's and the grid faces' alike
ONE_SITE = {
    "LimitResult": "compactify.ball_ladders builds every ladder's result",
    "classify_ladder": "compactify.ball_ladders classifies every ladder",
}
# the fields behind WeightedGridFunction.infinity: only funcspace reads or
# writes them, and apply_T marks an image's faces due through
# WeightedGridFunction.faces_on_read
PRIVATE_FACE_FIELDS = ("_infinity", "_faces_due")
# span labels that perfbench/run.py's layer_values reads although they name
# no function of the package, and why
PERFBENCH_LABELS_ALLOWED = {
    "greenop.nl_eval": "the tracer's label for the problem's nl.eval, "
                       "which it wraps when a problem is loaded",
    "greenop.adaptive_quadrature": "no such function exists, so the "
                                   "benchmark's adaptive_quadrature calls "
                                   "and seconds read 0",
    "funcspace.quotient_derivative": "the weighted space is order 0 and the "
                                     "function is gone, so the benchmark's "
                                     "quotient_derivative calls and calls "
                                     "per profile read 0",
}


def _unused_imports(path):
    """Names a module imports but never reads; a name listed in the
    module's __all__ counts as read (a re-export)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    assert len(SOURCES) >= 8
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, unused


def test_unused_import_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "leftover.py"
    mod.write_text("import json\nimport math\nfrom os import path, sep\n"
                   "__all__ = ['sep']\nprint(math.pi)\n")
    assert _unused_imports(mod) == ["leftover.py:1 json",
                                    "leftover.py:3 path"]


def _newer_grammar(paths, version=(3, 10)):
    """The "file name: message" of each file in paths that does not parse
    with the grammar of Python version, by default 3.10, the floor of
    pyproject's requires-python.  ast's feature_version checks grammar
    only, not the library a file calls."""
    out = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=version)
        except SyntaxError as err:
            out.append(f"{path.name}: {err.msg}")
    return out


def test_every_python_file_parses_at_the_requires_python_floor():
    paths = [p for d in ("src", "tests", "perfbench", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > len(SOURCES)
    newer = _newer_grammar(paths)
    assert not newer, newer


def test_grammar_check_sees_a_newer_construct(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert _newer_grammar([mod]) == [
        "mod.py: Exception groups are only supported in Python 3.11 and "
        "greater"]
    assert _newer_grammar([mod], (3, 11)) == []


def _is_dunder(name):
    """A name such as __all__ or __init__, which no reader needs to read."""
    return name.startswith("__") and name.endswith("__")


def _self_fields(cls):
    """(line, name) of each assignment of a public attribute on self in a
    class's methods."""
    return [(node.lineno, node.attr) for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and not node.attr.startswith("_")]


def _definitions(path):
    """(line, name, field) of the functions and classes a module defines at
    its top level, public or private, of its private top-level constants
    (names bound by a plain or annotated assignment), of the public methods
    of its public classes (field False) and of those classes' fields:
    class-body ones, annotated or plainly assigned, dunder names aside, and
    the public attributes their methods assign on self (field True, named
    Class.field, once per name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out.extend((node.lineno, t.id, False) for t in targets
                       if isinstance(t, ast.Name) and t.id.startswith("_")
                       and not _is_dunder(t.id))
        elif isinstance(node, kinds) and not _is_dunder(node.name):
            out.append((node.lineno, node.name, False))
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")):
                out.extend((m.lineno, m.name, False) for m in node.body
                           if isinstance(m, kinds)
                           and not m.name.startswith("_"))
                body = [(m.lineno, t.id) for m in node.body
                        if isinstance(m, (ast.Assign, ast.AnnAssign))
                        for t in (m.targets if isinstance(m, ast.Assign)
                                  else [m.target])
                        if isinstance(t, ast.Name) and not _is_dunder(t.id)]
                first = {}
                for line, name in sorted(body + _self_fields(node)):
                    first.setdefault(name, line)
                out.extend((line, f"{node.name}.{name}", True)
                           for name, line in first.items())
    return out


def _read_names(path):
    """(names, fields) a module reads.  names: names it does not only bind,
    attributes, and string constants that are identifiers (a harness that
    looks a method up by its name).  fields: attributes it loads and those
    identifier strings, so a field that is only assigned is not read."""
    names, fields = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                fields.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            names.add(node.value)
            fields.add(node.value)
    return names, fields


def _unread_definitions(sources, readers):
    """The definitions and fields of sources (_definitions) that no reader
    reads, as "module:line name" entries; a field matches by its own
    name."""
    reads = [_read_names(path) for path in readers]
    names = set().union(*(n for n, _ in reads))
    fields = set().union(*(f for _, f in reads))
    return sorted(f"{path.name}:{line} {name}" for path in sources
                  for line, name, field in _definitions(path)
                  if (name.partition(".")[2] not in fields if field
                      else name not in names))


def test_every_public_definition_has_a_reader_outside_tests():
    unread = _unread_definitions(SOURCES, READERS)
    assert sorted(entry.split()[1] for entry in unread) \
        == sorted(UNREAD_ALLOWED), unread


def test_unread_definition_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    pass\n\n\ndef unread():\n    pass\n\n\n"
                   "class Box:\n    def size(self):\n        pass\n\n"
                   "    def spare(self):\n        pass\n\n"
                   "    def _private(self):\n        pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import Box, used\nused()\n"
                      "getattr(Box(), 'size')()\n")
    assert _unread_definitions([mod], [reader]) == ["mod.py:13 spare",
                                                   "mod.py:5 unread"]


def test_unread_private_definition_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("__all__ = ['run']\n_LIMIT = 3\n_SPARE = 4\n"
                   "_TABLE: dict = {}\n\n\n"
                   "def _helper():\n    return _LIMIT\n\n\n"
                   "def _unused():\n    pass\n\n\n"
                   "class _Box:\n    pass\n\n\n"
                   "def run():\n    return _helper()\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import run\nrun()\n")
    # a module reads its own private names, but binding one does not read
    # it; a dunder name is no definition
    assert _unread_definitions([mod], [mod, reader]) == [
        "mod.py:11 _unused", "mod.py:15 _Box", "mod.py:3 _SPARE",
        "mod.py:4 _TABLE"]


def test_unread_field_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n\n\n@dataclass\n"
                   "class Box:\n    size: int\n    spare: int = 0\n")
    reader = tmp_path / "reader.py"
    # assigning a field does not read it
    reader.write_text("from mod import Box\nbox = Box(1)\nbox.spare = 2\n"
                      "print(box.size)\n")
    assert _unread_definitions([mod], [reader]) == ["mod.py:7 Box.spare"]


def test_unread_class_attribute_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class Box:\n    __slots__ = ()\n    size = 1\n"
                   "    spare = lid = 0\n\n\n"
                   "class _Crate:\n    spare = 0\n")
    reader = tmp_path / "reader.py"
    # a class attribute is read by its name, as a field is; a dunder name
    # and a private class's attributes are no definitions
    reader.write_text("from mod import Box\nprint(Box.size)\nBox.lid = 2\n")
    assert _unread_definitions([mod], [reader]) == [
        "mod.py:4 Box.lid", "mod.py:4 Box.spare", "mod.py:7 _Crate"]


def test_unread_self_attribute_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class Box:\n    size = 0\n\n"
                   "    def __init__(self, size):\n"
                   "        self.size = size\n        self.spare = 0\n"
                   "        self._cache = None\n\n"
                   "    def fill(self):\n        self.lid, self.spare = 1, 2\n"
                   "\n\nclass _Crate:\n    def __init__(self):\n"
                   "        self.spare = 0\n")
    reader = tmp_path / "reader.py"
    # an attribute assigned on self is a field, found once at its first
    # assignment; a private one and a private class's are no definitions
    reader.write_text("from mod import Box\nbox = Box(1)\nbox.fill()\n"
                      "print(box.size)\nbox.lid = 3\n")
    assert _unread_definitions([mod], [reader]) == [
        "mod.py:10 Box.lid", "mod.py:13 _Crate", "mod.py:6 Box.spare"]


def _defaulted_parameters(path):
    """(line, function, parameter, position) of each parameter with a
    default of the public functions a module defines at its top level and
    of the public methods of its public classes.  position is the index of
    the argument that a positional call fills, not counting self or cls,
    or None for a keyword-only parameter."""
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, funcs) and not node.name.startswith("_"):
            found.append((node, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            # every method takes self or cls first; none is static
            found.extend((m, True) for m in node.body
                         if isinstance(m, funcs)
                         and not m.name.startswith("_"))
    out = []
    for fn, bound in found:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out.extend((fn.lineno, fn.name, arg.arg, i - bound)
                   for i, arg in enumerate(positional) if i >= first)
        out.extend((fn.lineno, fn.name, arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None)
    return out


def _called_name(call):
    """The name a call node calls, plainly or as an attribute, or None."""
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _passed_arguments(paths):
    """Called name -> what its calls pass: the positions they fill, the
    keywords they name, and "*" or "**" when one unpacks arguments."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            got = passed.setdefault(_called_name(node), set())
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            got.update(range(len(plain)))
            if len(plain) < len(node.args):
                got.add("*")
            got.update("**" if kw.arg is None else kw.arg
                       for kw in node.keywords)
    return passed


def _unset_parameters(sources, callers):
    """The defaulted parameters of the public functions and methods of
    sources that no call in callers passes, by keyword, by position or
    through *args or **kwargs, as "module:line function(parameter)"
    entries; a call matches a function by its name."""
    passed = _passed_arguments(callers)
    out = []
    for path in sources:
        for line, fn, param, pos in _defaulted_parameters(path):
            got = passed.get(fn, set())
            if not ({param, "**"} & got
                    or pos is not None and ({pos, "*"} & got)):
                out.append(f"{path.name}:{line} {fn}({param})")
    return sorted(out)


def test_every_defaulted_parameter_is_set_by_some_call():
    # a setting that only tests change is one value in use: a constant
    unset = _unset_parameters(SOURCES, READERS)
    assert unset == [], unset


def test_unset_parameter_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def scale(x, factor=2.0, offset=0.0):\n"
                   "    return factor * x + offset\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import scale\nscale(1.0, 3.0)\n")
    assert _unset_parameters([mod], [reader]) == ["mod.py:1 scale(offset)"]


def _traced_methods(tracer_path):
    """The (module, class, method) entries that perfbench's tracer wraps
    on their class (METHODS), read from its syntax tree."""
    tracer = ast.parse(tracer_path.read_text(), filename=str(tracer_path))
    return next(ast.literal_eval(node.value) for node in tracer.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS"
                        for t in node.targets))


def _perfbench_labels(tracer_path, run_path):
    """The span labels that perfbench's harness relies on: those of the
    methods its tracer wraps on their class (METHODS) and those that
    run.py's layer_values reads from busy, calls or self_s, without a
    labeller's "[...]" suffix.  Both files are read as syntax trees."""
    labels = {".".join(entry) for entry in _traced_methods(tracer_path)}
    run = ast.parse(run_path.read_text(), filename=str(run_path))
    fn = next(node for node in ast.walk(run)
              if isinstance(node, ast.FunctionDef)
              and node.name == "layer_values")
    # labels bound to a local name first, as op_apply is
    consts = {t.id: node.value.value for node in ast.walk(fn)
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant)
              for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("busy", "calls", "self_s")):
            key = node.slice
            label = (key.value if isinstance(key, ast.Constant)
                     else consts[key.id])
            labels.add(label.partition("[")[0])
    return labels


def _resolves(label):
    """Whether "layer.function" names a function that compactfix.layer
    defines, or "layer.Class.method" a method in the class's own
    namespace, which is where the tracer wraps them."""
    layer, _, rest = label.partition(".")
    try:
        mod = importlib.import_module(f"compactfix.{layer}")
    except ImportError:
        return False
    owner, _, name = rest.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        return (isinstance(cls, type)
                and inspect.isfunction(vars(cls).get(name)))
    fn = getattr(mod, name, None)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def _unresolved_perfbench_labels(tracer_path, run_path):
    return sorted(label for label in _perfbench_labels(tracer_path, run_path)
                  if not _resolves(label))


def test_perfbench_reads_functions_that_exist():
    unresolved = _unresolved_perfbench_labels(ROOT / "perfbench/tracer.py",
                                              ROOT / "perfbench/run.py")
    assert unresolved == sorted(PERFBENCH_LABELS_ALLOWED), unresolved


def test_perfbench_label_check_sees_a_missing_name(tmp_path):
    tracer = tmp_path / "tracer.py"
    tracer.write_text(
        'METHODS = (("funcspace", "WeightedGridFunction", "quotient"),\n'
        '           ("funcspace", "WeightedGridFunction", "ndim"),\n'
        '           ("greenop", "Missing", "apply"))\n')
    run = tmp_path / "run.py"
    run.write_text(
        "def layer_values(t):\n"
        "    busy, calls, self_s = t, t, t\n"
        '    op = "funcspace.gamma[x]"\n'
        '    return (busy["solver.picard_solve"] + calls[op]\n'
        '            + self_s["funcspace.gone"] + calls["cli.np"]\n'
        '            + t["points"]["greenop.eval"])\n')
    # a property is not a function, and numpy is not defined in cli
    assert _unresolved_perfbench_labels(tracer, run) == [
        "cli.np", "funcspace.WeightedGridFunction.ndim", "funcspace.gone",
        "greenop.Missing.apply"]


def _call_sites(paths, name):
    """The "module:line" sites in paths that call name, plainly or as an
    attribute, in line order."""
    sites = sorted((path.name, node.lineno) for path in paths
                   for node in ast.walk(ast.parse(path.read_text(),
                                                  filename=str(path)))
                   if isinstance(node, ast.Call)
                   and _called_name(node) == name)
    return [f"{module}:{line}" for module, line in sites]


def test_one_site_builds_and_classifies_every_ladder():
    for name in ONE_SITE:
        sites = _call_sites(SOURCES, name)
        assert len(sites) == 1, (name, sites)


def test_call_site_check_sees_a_second_ladder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from compactify import LimitResult, classify_ladder\n"
                   "\n\n"
                   "def one(osc):\n"
                   "    return LimitResult(classify_ladder(osc, 0.1), None, "
                   "osc)\n\n\n"
                   "def two(osc, compactify):\n"
                   "    return compactify.LimitResult('no_limit', None, osc)\n")
    assert _call_sites([mod], "LimitResult") == ["mod.py:5", "mod.py:9"]
    assert _call_sites([mod], "classify_ladder") == ["mod.py:5"]


def _uncalled_traced_methods(tracer_path, sources):
    """The methods of the tracer's METHODS that no call in sources calls,
    as "module.Class.method"; a call of the class calls its __init__."""
    return sorted(f"{mod}.{cls}.{meth}"
                  for mod, cls, meth in _traced_methods(tracer_path)
                  if not _call_sites(sources,
                                     cls if meth == "__init__" else meth))


def test_the_package_calls_every_traced_method():
    # a wrapped method that the program never calls reads 0 in every
    # benchmark layer that counts it
    uncalled = _uncalled_traced_methods(ROOT / "perfbench/tracer.py",
                                        SOURCES)
    assert not uncalled, uncalled


def test_traced_method_check_sees_an_uncalled_method(tmp_path):
    tracer = tmp_path / "tracer.py"
    tracer.write_text('METHODS = (("mod", "Box", "__init__"),\n'
                      '           ("mod", "Box", "size"),\n'
                      '           ("mod", "Box", "spare"),\n'
                      '           ("mod", "Unbuilt", "__init__"))\n')
    mod = tmp_path / "mod.py"
    mod.write_text("class Box:\n    def size(self):\n        return 1\n\n"
                   "    def spare(self):\n        return 2\n\n\n"
                   "class Unbuilt:\n    pass\n\n\n"
                   "print(Box().size())\n")
    assert _uncalled_traced_methods(tracer, [mod]) == ["mod.Box.spare",
                                                       "mod.Unbuilt.__init__"]


def _gc_sites(paths):
    """The "module:line scope" sites in paths that reach the gc module: a
    read of the name gc, an import of gc under another name or of names
    from it, and the string "gc" (an import by name).  scope is the
    top-level definition the site sits in, or "<module>".  A plain
    "import gc" only binds the name, so it is no site."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            scope = getattr(top, "name", "<module>")
            sites.extend(
                (path.name, node.lineno, scope) for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == "gc"
                or isinstance(node, ast.ImportFrom) and node.module == "gc"
                or isinstance(node, ast.Import)
                and any(a.name == "gc" and a.asname for a in node.names)
                or isinstance(node, ast.Constant) and node.value == "gc")
    return [f"{module}:{line} {scope}"
            for module, line, scope in sorted(sites)]


def test_only_cli_main_reaches_the_garbage_collector():
    # main freezes the heap of a CLI call; library callers (the crosscheck
    # worker, the demos, "import compactfix") keep normal collection
    sites = _gc_sites(SOURCES)
    assert sites and all(site.startswith("cli.py:")
                         and site.endswith(" main") for site in sites), sites


def test_gc_site_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import gc\nimport gc as g\nfrom gc import collect\n\n\n"
                   "def main():\n    gc.freeze()\n\n\n"
                   "def helper():\n    __import__('gc').disable()\n\n\n"
                   "gc.collect()\n")
    assert _gc_sites([mod]) == ["mod.py:2 <module>", "mod.py:3 <module>",
                                "mod.py:7 main", "mod.py:11 helper",
                                "mod.py:14 <module>"]


def _private_face_sites(paths):
    """The "module:line" sites in paths that read or write an attribute
    named in PRIVATE_FACE_FIELDS, in line order."""
    sites = sorted((path.name, node.lineno) for path in paths
                   for node in ast.walk(ast.parse(path.read_text(),
                                                  filename=str(path)))
                   if isinstance(node, ast.Attribute)
                   and node.attr in PRIVATE_FACE_FIELDS)
    return [f"{module}:{line}" for module, line in sites]


def test_only_funcspace_touches_the_private_face_fields():
    # greenop, the demos, perfbench and the tests go through infinity and
    # faces_on_read, so the faces' due mark has one owner
    sites = _private_face_sites(CALLERS)
    assert sites and all(site.startswith("funcspace.py:")
                         for site in sites), sites


def test_private_face_field_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def mark(image):\n    image._faces_due = True\n"
                   "    return image._infinity.get('axis0:inf'), "
                   "image.infinity\n\n\n"
                   "def drop(image, _infinity):\n"
                   "    del image._infinity['axis0:inf']\n"
                   "    return _infinity\n")
    assert _private_face_sites([mod]) == ["mod.py:2", "mod.py:3", "mod.py:7"]
