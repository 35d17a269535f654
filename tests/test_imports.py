"""Module boundaries: no agentdag module imports another one's private names,
and none imports a third-party package other than PyYAML. Package names load
on first use, and a command loads only the modules it needs.

A private name shared across modules is a second copy of one module's
internals waiting to happen; anything another module needs gets a public name.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import agentdag
import agentdag.adapters
from agentdag import cli, dsl
from agentdag.adapters import ScriptedPolicy, ScriptedRoleBackend
from agentdag.config import RunConfig
from agentdag.orchestrator import EpisodeRunner
from agentdag.problem import ProblemSpec, TestCase
from agentdag.verdicts import ExecOutcome, TestResult, Verdict

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


# One reader per document format: JSON is decoded only in jsonio, and YAML
# (topologies and the run config) is read and written only in dsl.
YAML_CODEC_CALLS = {"load", "safe_load", "dump", "safe_dump"}
JSON_DECODE_CALLS = {"load", "loads"}


def codec_uses(path: Path, module: str, calls: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in calls
                and isinstance(node.value, ast.Name) and node.value.id == module):
            found.append(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: {module}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            found.extend(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: "
                         f"from {module} import {a.name}"
                         for a in node.names if a.name in calls | {"*"})
    return found


def codec_uses_outside(home: str, module: str, calls: set[str]) -> list[str]:
    return [hit for path in sorted(PACKAGE_ROOT.rglob("*.py"))
            if str(path.relative_to(PACKAGE_ROOT)) != home
            for hit in codec_uses(path, module, calls)]


def importers_of(module: str) -> list[str]:
    return [str(path.relative_to(PACKAGE_ROOT)) for path in sorted(PACKAGE_ROOT.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import) and module in (a.name for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module)]


def test_yaml_is_read_and_written_only_in_dsl():
    assert codec_uses_outside("dsl.py", "yaml", YAML_CODEC_CALLS) == []
    assert importers_of("yaml") == ["dsl.py"]
    assert codec_uses(PACKAGE_ROOT / "dsl.py", "yaml", YAML_CODEC_CALLS)  # the check sees real uses


def test_json_is_decoded_only_in_jsonio():
    assert codec_uses_outside("jsonio.py", "json", JSON_DECODE_CALLS) == []
    assert codec_uses(PACKAGE_ROOT / "jsonio.py", "json", JSON_DECODE_CALLS)
    assert codec_uses_outside("jsonio.py", "json", {"dumps"})  # the check sees other modules


# PyYAML's libyaml classes exist only where PyYAML was built with libyaml, and
# read some texts otherwise than the pure ones; naming them would make what a
# text means depend on how PyYAML was built.
LIBYAML_NAMES = {"CSafeLoader", "CSafeDumper"}


def libyaml_names(source: str) -> list[int]:
    """The lines of ``source`` that name a libyaml class: as a name, an
    attribute, an import or a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant):
            names = [node.value]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [node.lineno for name in names if name in LIBYAML_NAMES]
    return sorted(found)


def test_no_module_names_pyyamls_libyaml_classes():
    offenders = [f"{path.relative_to(PACKAGE_ROOT)}:{line}"
                 for path in sorted(PACKAGE_ROOT.rglob("*.py"))
                 for line in libyaml_names(path.read_text(encoding="utf-8"))]
    assert offenders == []
    assert libyaml_names("from yaml import CSafeDumper\nL = yaml.CSafeLoader\n"
                         "D = getattr(yaml, 'CSafeDumper', None)\nCSafeLoader\n") == [1, 2, 3, 4]


# The package has one way to start a process: the judge spawns its harness,
# and every compile step, test and corpus validator runs in a process that a
# harness forks and, unless it runs a Python file itself, execs. No module
# imports a second launcher or calls another of ``os``'s.
LAUNCHER_MODULES = {"subprocess", "multiprocessing", "pty"}
OS_LAUNCHERS = ("system", "popen", "spawn", "fork", "exec", "posix_spawn")


def process_launches(source: str) -> list[str]:
    """The launcher modules that ``source`` imports and the ``os`` functions
    that start a process which it names, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
            if node.module == "os":
                found.update(f"os.{alias.name}" for alias in node.names
                             if alias.name.startswith(OS_LAUNCHERS))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os" and node.attr.startswith(OS_LAUNCHERS)):
            found.add(f"os.{node.attr}")
            continue
        else:
            continue
        found.update(name for name in modules if name.split(".")[0] in LAUNCHER_MODULES)
    return sorted(found)


def test_only_the_judge_starts_processes():
    launches = {str(path.relative_to(PACKAGE_ROOT)): process_launches(path.read_text("utf-8"))
                for path in sorted(PACKAGE_ROOT.rglob("*.py"))}
    assert {name: found for name, found in launches.items() if found} == {
        "adapters/_harness.py": ["os.execvp", "os.fork"],
        "adapters/sandbox.py": ["os.posix_spawn"],
    }
    # The check sees each kind of launch.
    assert process_launches(
        "import subprocess, multiprocessing.pool\nfrom pty import spawn\n"
        "from os import system, forkpty\nos.popen('x')\nos.spawnlp(0, 'x')\n"
        "os.POSIX_SPAWN_DUP2\n") == [
            "multiprocessing.pool", "os.forkpty", "os.popen", "os.spawnlp", "os.system", "pty",
            "subprocess"]


# What the judge harness may import. A harness no longer starts once per
# candidate, but every test forked from it still inherits each module it
# loaded, with the module's state, so the rule stays. ``signal`` pulls in
# ``enum``; ``random`` would be seeded once and give every test the same
# stream. ``_signal`` is the builtin under ``signal``; the harness uses it
# only to restore default signal handling before it execs a command.
# ``builtins``, loaded in every interpreter before any code runs, is where it
# binds ``exit`` and ``quit``.
HARNESS_IMPORTS = {"builtins", "marshal", "os", "resource", "select", "sys", "time", "_signal"}


def test_the_judge_harness_imports_only_light_modules():
    # The harness runs by path under -I, with no package on sys.path: an
    # import of agentdag, or a relative one, would fail there.
    tree = ast.parse((PACKAGE_ROOT / "adapters" / "_harness.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name) and node.id in {"__import__", "importlib"}:
            imported.add(node.id)
    assert not [name for name in imported if name.startswith((".", "agentdag"))]
    assert {"marshal", "os"} <= imported <= HARNESS_IMPORTS
    assert not imported & {"signal", "enum", "random"}


# -- lazy package exports -------------------------------------------------------

PACKAGES = [agentdag, agentdag.adapters]


def submodules(package) -> list:
    root = Path(package.__file__).parent
    return [importlib.import_module(f"{package.__name__}.{path.stem}")
            for path in sorted(root.glob("*.py")) if path.stem != "__init__"]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_export_is_the_object_its_module_binds(package):
    modules = submodules(package)
    assert package.__all__
    for name in package.__all__:
        value = getattr(package, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders, f"{package.__name__}.{name} is bound by none of its submodules"
        assert all(vars(module)[name] is value for module in holders), name


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= namespace.keys()


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


def modules_loaded_by(body: str) -> tuple[object, set[str]]:
    """Run ``body`` in a fresh interpreter; return its ``result`` and the
    modules loaded by the end.

    ``-S`` skips site hooks, which in some environments import modules such
    as ``tempfile`` before any of our code runs and would hide them here.
    """
    script = f"import sys\nresult = None\n{body}\nprint(repr((result, list(sys.modules))))\n"
    path = os.pathsep.join([str(PACKAGE_ROOT.parent), str(Path(yaml.__file__).parent.parent)])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    result, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    return result, set(modules)


def test_importing_the_package_loads_no_submodule():
    names, modules = modules_loaded_by("import agentdag, agentdag.adapters\n"
                                       "result = dir(agentdag), dir(agentdag.adapters)")
    assert {m for m in modules if m.startswith("agentdag.")} == {"agentdag.adapters"}
    assert set(agentdag.__all__) <= set(names[0])
    assert set(agentdag.adapters.__all__) <= set(names[1])


def test_from_import_still_reaches_submodules():
    kinds, modules = modules_loaded_by(
        "from agentdag import cli, jsonio, dsl, orchestrator\n"
        "from agentdag.adapters import sandbox\n"
        "result = [type(m).__name__ for m in (cli, jsonio, dsl, orchestrator, sandbox)]")
    assert kinds == ["module"] * 5
    assert "agentdag.adapters.sandbox" in modules


def test_importing_the_orchestrator_starts_no_thread():
    result, _ = modules_loaded_by("import threading\nfrom agentdag import orchestrator\n"
                                  "result = threading.active_count(), orchestrator._pool_owned")
    assert result == (1, (0, None))


# What `validate` and `corpus filter` must start without: the episode engine,
# the judge, the remote transport, the configuration, problems and verdicts,
# the modules they bring in, and PyYAML while every text is in the plain form.
NOT_FOR_VALIDATE_OR_CORPUS = {
    "agentdag.orchestrator", "agentdag.rewards", "agentdag.adapters.remote",
    "agentdag.adapters.sandbox", "agentdag.adapters.scripted", "concurrent.futures",
    "urllib.request", "http.client", "subprocess", "tempfile", "statistics", "fractions",
    "hashlib", "yaml", "agentdag.config", "agentdag.adapters.base", "agentdag.problem",
    "agentdag.verdicts",
}

VALID_TOPOLOGY = """\
difficulty: 1
steps:
  - agents:
      - id: planner
        role: planning
        ref: []
"""


@pytest.mark.parametrize("command", ["validate", "corpus filter"])
def test_a_command_loads_only_what_it_uses(command, tmp_path):
    topology = tmp_path / "topology.yaml"
    topology.write_text(VALID_TOPOLOGY, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(
        {"id": "r1", "problem_id": "p", "yaml_text": VALID_TOPOLOGY}) + "\n", encoding="utf-8")
    argv = {"validate": ["validate", str(topology)],
            "corpus filter": ["corpus", "filter", str(corpus), str(tmp_path / "out.jsonl")]}
    code, modules = modules_loaded_by(
        f"from agentdag.cli import main\nresult = main({argv[command]!r})")
    assert code == 0
    assert "agentdag.dsl" in modules  # the command really ran
    assert modules & NOT_FOR_VALIDATE_OR_CORPUS == set()


def test_a_validator_runs_on_the_judge_harness_without_subprocess(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(
        {"id": "r1", "problem_id": "p", "yaml_text": VALID_TOPOLOGY}) + "\n", encoding="utf-8")
    argv = ["corpus", "filter", str(corpus), str(tmp_path / "out.jsonl"), "--validator",
            "/bin/true"]
    code, modules = modules_loaded_by(f"from agentdag.cli import main\nresult = main({argv!r})")
    assert code == 0
    assert "subprocess" not in modules
    assert "agentdag.adapters.sandbox" in modules  # the validator really ran there

# Texts the plain reader declines: PyYAML reads them, with the classes and
# details it always gave.
NOT_PLAIN = {
    "difficulty: [\n": ("YAML_PARSE_ERROR", "while parsing a flow node"),
    VALID_TOPOLOGY.replace("- id: planner\n        role: planning\n        ref: []",
                           "- {id: planner, role: planning, ref: []}"): ("ok", None),
}


@pytest.mark.parametrize("text", NOT_PLAIN, ids=["parse error", "flow mapping agent"])
def test_validate_loads_pyyaml_for_a_text_outside_the_plain_form(text, tmp_path):
    topology = tmp_path / "topology.yaml"
    topology.write_text(text, encoding="utf-8")
    body = ("import contextlib, io, json\nfrom agentdag.cli import main\nout = io.StringIO()\n"
            f"with contextlib.redirect_stdout(out):\n    main(['validate', {str(topology)!r}])\n"
            "result = json.loads(out.getvalue())")
    payload, modules = modules_loaded_by(body)
    assert (payload["class"], payload["detail"]) == NOT_PLAIN[text]
    assert "yaml" in modules
    assert modules & NOT_FOR_VALIDATE_OR_CORPUS == {"yaml"}


def test_the_first_pyyaml_use_from_many_threads_builds_one_loader():
    # Eight threads classify texts outside the plain form at once, in a
    # process that has not loaded PyYAML: each must import it, or wait for it.
    texts = [f"difficulty: {value}\nsteps: []\n" for value in
             ("[", "{a: 1", "'x", "01", "~", "[1, 2]", "!!str 1", "*alias")]
    assert not any(map(dsl._read_plain, texts))
    body = (f"import threading\nfrom agentdag import dsl\ntexts = {texts!r}\n"
            "assert 'yaml' not in sys.modules\nsys.setswitchinterval(1e-6)\n"
            "results, start = [None] * len(texts), threading.Barrier(len(texts))\n"
            "def classify(i):\n"
            "    start.wait()\n"
            "    r = dsl.check_yaml(texts[i])\n"
            "    results[i] = (r.error_class.value, r.detail)\n"
            "threads = [threading.Thread(target=classify, args=(i,)) for i in range(len(texts))]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(30)\n"
            "import yaml\n"
            "result = results, [c.__qualname__ for c in yaml.SafeLoader.__subclasses__()\n"
            "                   if c.__module__ == 'agentdag.dsl']")
    (results, loaders), _ = modules_loaded_by(body)
    sequential = [(r.error_class.value, r.detail) for r in map(dsl.check_yaml, texts)]
    assert results == sequential
    assert len(set(results)) > 3  # the texts reach different outcomes
    assert len(loaders) == 1


# The names perfbench's traced runs (``perfbench/run.py --trace 1`` and
# ``perfbench/cli_traced.py``) replace on these modules to time a layer. A
# replacement times anything only while the module's own code calls the name
# through its module global, so each must stay one.
TRACED_NAMES = {
    "orchestrator": ("to_yaml", "check_topology", "decode_topology", "density_scores",
                     "turn_reward", "trajectory_return", "render_history_prompt",
                     "build_observation", "extract_code"),
    "dsl": ("parse_topology", "validate_logic"),
    "cli": ("read_corpus", "filter_corpus", "write_corpus"),
    "corpus": ("parse_topology", "validate_logic", "canonicalize", "decode_topology",
               "density_scores", "read_jsonl"),
    "jsonio": ("dumps",),
}


def recording(calls: set, key: str, fn):
    def wrapper(*args, **kwargs):
        calls.add(key)
        return fn(*args, **kwargs)
    return wrapper


class WrongAnswers:
    """A judge that finds every candidate wrong, so each turn is rendered back."""

    def execute(self, source, language, tests, *, time_limit_ms, memory_limit_mb):
        return ExecOutcome(verdict=Verdict.WRONG_ANSWER, logs="test 0: wrong",
                           per_test=(TestResult(index=0, status=Verdict.WRONG_ANSWER),))


def test_every_name_a_traced_run_replaces_is_called_through_its_module(monkeypatch, tmp_path,
                                                                        capsys):
    calls: set[str] = set()
    for module_name, names in TRACED_NAMES.items():
        module = importlib.import_module(f"agentdag.{module_name}")
        for name in names:
            monkeypatch.setattr(module, name, recording(calls, f"{module_name}.{name}",
                                                        getattr(module, name)))
    topology = VALID_TOPOLOGY + ("  - agents:\n      - id: coder\n        role: coding\n"
                                 "        ref: [planner]\n")
    policy = ScriptedPolicy([f"```yaml\n{topology}```"] * 2)
    problem = ProblemSpec(id="p", description="print 1",
                          tests=(TestCase(input="", expected_output="1\n"),),
                          time_limit_ms=1000, memory_limit_mb=64)
    result = EpisodeRunner(policy, ScriptedRoleBackend(solutions={"*": ["print(2)"]}),
                           WrongAnswers(), RunConfig(max_turns=2)).run(problem)
    assert [turn.outcome.verdict for turn in result.trajectory.turns] \
        == [Verdict.WRONG_ANSWER] * 2
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(
        {"id": "r1", "problem_id": "p", "yaml_text": VALID_TOPOLOGY}) + "\n", encoding="utf-8")
    assert cli.main(["corpus", "filter", str(corpus), str(tmp_path / "out.jsonl")]) == 0
    capsys.readouterr()
    assert calls == {f"{module}.{name}" for module, names in TRACED_NAMES.items()
                     for name in names}


# Modules on the episode hot path import everything at module level, so no
# import cost lands inside a timed episode.
HOT_PATH_MODULES = ("orchestrator.py", "dsl.py", "graph.py", "rewards.py", "jsonio.py",
                    "adapters/sandbox.py")


def function_level_imports(path: Path) -> list[str]:
    """``PATH:LINE: MODULE`` for each import inside a function of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.update(f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}: {name}"
                         for node in ast.walk(function)
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                                      else ["." * node.level + (node.module or "")]))
    return sorted(found)


def test_hot_path_modules_import_nothing_inside_functions():
    offenders = [hit for name in HOT_PATH_MODULES
                 for hit in function_level_imports(PACKAGE_ROOT / name)]
    # The one exception: dsl imports PyYAML the first time a text or document
    # outside the plain form needs it, so that a command given plain texts
    # never loads it. An episode pays it once per process, not once per turn.
    lazy = [hit for hit in offenders if hit.startswith("dsl.py:") and hit.endswith(": yaml")]
    assert len(lazy) == 1 and offenders == lazy
    assert function_level_imports(PACKAGE_ROOT / "cli.py")  # the check sees real uses
