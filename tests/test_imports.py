"""Module boundaries: no agentdag module imports another one's private names,
and none imports a third-party package other than PyYAML.

A private name shared across modules is a second copy of one module's
internals waiting to happen; anything another module needs gets a public name.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import agentdag

PACKAGE_ROOT = Path(agentdag.__file__).parent


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "agentdag"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                source = "." * node.level + (node.module or "")
                found.append(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: "
                             f"{alias.name} from {source}")
    return found


def test_modules_are_found():
    assert len(list(PACKAGE_ROOT.rglob("*.py"))) > 10


def test_no_module_imports_a_private_name_from_another():
    offenders = [hit for path in sorted(PACKAGE_ROOT.rglob("*.py"))
                 for hit in private_imports(path)]
    assert offenders == []


# The package runs on the standard library and PyYAML alone.
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"yaml", "agentdag"}


def third_party_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in ALLOWED_TOP_LEVEL:
                found.append(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: {name}")
    return found


def test_only_the_stdlib_and_yaml_are_imported():
    offenders = [hit for path in sorted(PACKAGE_ROOT.rglob("*.py"))
                 for hit in third_party_imports(path)]
    assert offenders == []


# One codec path: topology YAML is read and written only in dsl, and the
# config file is read only in config.
YAML_CODEC_CALLS = {"load", "safe_load", "dump", "safe_dump"}
YAML_CODEC_MODULES = {"dsl.py", "config.py"}


def yaml_codec_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in YAML_CODEC_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "yaml"):
            found.append(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: yaml.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
            found.extend(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: from yaml import {a.name}"
                         for a in node.names if a.name in YAML_CODEC_CALLS | {"*"})
    return found


def test_yaml_is_read_and_written_only_in_dsl_and_config():
    offenders = [hit for path in sorted(PACKAGE_ROOT.rglob("*.py"))
                 if str(path.relative_to(PACKAGE_ROOT)) not in YAML_CODEC_MODULES
                 for hit in yaml_codec_uses(path)]
    assert offenders == []
    assert yaml_codec_uses(PACKAGE_ROOT / "dsl.py")  # the check sees real uses


# perfbench's traced mode replaces ``sandbox.subprocess`` with a namespace
# that holds only these two names.
SANDBOX_SUBPROCESS_NAMES = {"run", "TimeoutExpired"}


def test_the_sandbox_reaches_subprocess_only_through_run_and_timeout_expired():
    tree = ast.parse((PACKAGE_ROOT / "adapters" / "sandbox.py").read_text(encoding="utf-8"))
    attributes = [node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "subprocess"]
    bare_names = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "subprocess"]
    from_imports = [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "subprocess"]
    assert attributes and set(attributes) <= SANDBOX_SUBPROCESS_NAMES
    assert len(bare_names) == len(attributes)  # never passed around whole
    assert from_imports == []


# What the judge harness may import. A harness no longer starts once per
# candidate, but every test forked from it still inherits each module it
# loaded, with the module's state, so the rule stays. ``signal`` pulls in
# ``enum``; ``random`` would be seeded once and give every test the same
# stream. ``_signal`` is the builtin under ``signal``; the harness uses it
# only to restore default signal handling before it execs a command.
HARNESS_IMPORTS = {"marshal", "os", "resource", "select", "sys", "time", "_signal"}


def test_the_judge_harness_imports_only_light_modules():
    from agentdag.adapters.sandbox import _HARNESS

    imported = set()
    for node in ast.walk(ast.parse(_HARNESS)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Name) and node.id in {"__import__", "importlib"}:
            imported.add(node.id)
    assert {"marshal", "os"} <= imported <= HARNESS_IMPORTS
    assert not imported & {"signal", "enum", "random"}
