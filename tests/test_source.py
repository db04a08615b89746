"""Static checks on the package source (no linter is required)."""

import ast
import pathlib

import compactfix

SOURCES = sorted(pathlib.Path(compactfix.__file__).parent.glob("*.py"))


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
