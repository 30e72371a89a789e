"""The package's public surface and its modules' imports."""

import ast
import importlib
import pathlib
import re

import conebessel


def test_export_list_resolves():
    names = conebessel.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(conebessel, name)]
    assert not missing, missing


def test_modules_import_only_what_they_use():
    # a name a module imports and never reads is a leftover of a deletion
    src = pathlib.Path(conebessel.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_readme_module_table_names_only_what_exists():
    readme = pathlib.Path(conebessel.__file__).parents[2] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Modules", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", table, re.M)
    assert len(rows) >= 7, rows
    missing = []
    for row in rows:
        module = importlib.import_module(f"conebessel.{row[0]}")
        for span in re.findall(r"`([^`]*)`", row[1]):
            name = re.match(r"\w*", span).group()
            if "_" in name and not hasattr(module, name):
                missing.append(f"{row[0]}.{name}")
    assert not missing, missing
