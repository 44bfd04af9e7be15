"""What each CLI stage loads, what the package may import at all, which of
its functions write files, that every public module-level function and
class has a user outside the unit tests and every public method a read,
that every function reads each of its parameters, and that the stages
record every config key.

Every stage runs in a fresh interpreter, so each module it imports, and
numpy, is paid for on every run. The package registers its submodules
lazily and a stage loads only the ones it uses.
"""

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import typovec
from typovec.cli import STAGES, main
from typovec.config import INPUT_FILES, PipelineConfig
from typovec.corpus import load_registry
from typovec.typology import load_features, write_knn_vectors
from typovec.vectors import LangVector, save_vectors

ENV = {**os.environ, "PYTHONPATH": str(Path(typovec.__file__).resolve().parents[1])}

# Runs one stage, then prints its exit code, whether numpy is loaded and
# which typovec modules have run (a module not yet loaded is a lazy stub).
STAGE_SNIPPET = """
import json, sys, types
from typovec.cli import main
code = main(["--config", sys.argv[1], sys.argv[2]])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "loaded": sorted(name for name, module in sys.modules.items()
                                   if name.startswith("typovec.") and type(module) is types.ModuleType)}))
"""

MODEL_MODULES = {"typovec.models", "typovec.autograd", "typovec.training", "typovec.predict"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic suite plus hand-written upstream outputs for ``predict``
    and ``report``; each stage under test runs only in its child."""
    root = tmp_path_factory.mktemp("stages")
    cfg = root / "cfg.txt"
    cfg.write_text(f"workdir={root / 'work'}\nseed=5\nsynth_langs=8\nsynth_sentences=6\n"
                   "synth_lexicon=10\nnum_merges=10\nn_folds=4\nmethods=MTVec\n", encoding="utf-8")
    assert main(["--config", str(cfg), "synth"]) == 0
    work = root / "work"
    matrix = load_features(work / "features.csv", load_registry(work / "registry.tsv"))
    rng = np.random.default_rng(5)
    write_knn_vectors(work / "knn_vectors.tsv", matrix,
                      {lang: rng.random(len(matrix.features)) for lang in matrix.languages})
    save_vectors(work / "vectors_MTVec.tsv",
                 [LangVector(lang, "MTVec", rng.standard_normal(4)) for lang in matrix.languages])
    (work / "report.tsv").write_text(
        "method\tcategory\taux\taccuracy\n"
        + "".join(f"{m}\tsyntax\t{aux}\t{acc}\n" for m, acc in (("None", 50.0), ("MTBoth", 75.0))
                  for aux in ("-Aux", "+Aux")), encoding="utf-8")
    (work / "feature_accuracy.tsv").write_text(
        "method\taux\tfeature\taccuracy\n"
        "None\t-Aux\tS_OBJECT_BEFORE_VERB\t50.0\nMTBoth\t-Aux\tS_OBJECT_BEFORE_VERB\t75.0\n",
        encoding="utf-8")
    return cfg


def run_stage_in_child(cfg: Path, stage: str) -> dict:
    out = subprocess.run([sys.executable, "-c", STAGE_SNIPPET, str(cfg), stage], env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_report_stage_loads_no_numpy(workdir):
    result = run_stage_in_child(workdir, "report")
    assert result["code"] == 0
    assert (workdir.parent / "work" / "table_gains.md").is_file()
    assert "typovec.report" in result["loaded"]
    assert not result["numpy"]


@pytest.mark.parametrize("stage, module, unloaded", [
    ("baseline", "typovec.typology", MODEL_MODULES),
    ("bpe-learn", "typovec.bpe", MODEL_MODULES),
    ("predict", "typovec.predict", {"typovec.models", "typovec.training", "typovec.bpe"}),
])
def test_stage_leaves_model_code_unloaded(workdir, stage, module, unloaded):
    result = run_stage_in_child(workdir, stage)
    assert result["code"] == 0
    assert module in result["loaded"]
    assert not unloaded & set(result["loaded"])


def test_cli_import_registers_every_submodule_and_loads_few():
    # perfbench's tracer wraps the typovec modules it finds in sys.modules
    script = ("import json, sys, types, typovec.cli\n"
              "names = sorted(n for n in sys.modules if n.startswith('typovec.'))\n"
              "loaded = [n for n in names if type(sys.modules[n]) is types.ModuleType]\n"
              "print(json.dumps([names, loaded]))\n")
    out = subprocess.run([sys.executable, "-c", script], env=ENV, check=True,
                         capture_output=True, text=True, timeout=60)
    registered, loaded = json.loads(out.stdout)
    names = {path.stem for path in Path(typovec.__file__).parent.glob("*.py")} - {"__init__"}
    assert registered == sorted(f"typovec.{name}" for name in names)
    assert loaded == ["typovec.cli", "typovec.config", "typovec.corpus"]


def test_module_entry_point_runs_cli_once():
    # a lazily registered typovec.cli would make runpy warn and run the module twice
    out = subprocess.run([sys.executable, "-m", "typovec.cli", "--help"], env=ENV,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_imported_third_party_modules_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "typovec").glob("*.py")):
        # ast.walk reaches the imports inside functions too
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_")
                for requirement in project["dependencies"]}
    assert imported - set(sys.stdlib_module_names) - {"typovec"} == declared


# The functions that may open a file to write: the one text writer, the
# binary checkpoint and the lock file.
WRITERS = {("corpus", "write_records"), ("checkpoint", "save_checkpoint"), ("cli", "_workdir_lock")}


def _opens_to_write(node: ast.AST) -> bool:
    """A call of ``open`` in a mode that is not a read-only constant, or of
    ``.write_text`` or ``.write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in ("write_text", "write_bytes")
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_only_the_writers_open_files_to_write():
    found = set()
    for path in sorted(Path(typovec.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            found |= {(path.stem, getattr(top, "name", None), node.lineno)
                      for node in ast.walk(top) if _opens_to_write(node)}
    outside = sorted(site for site in found if site[:2] not in WRITERS)
    assert not outside, f"(module, top-level name, line) of files opened to write: {outside}"
    assert {site[:2] for site in found} == WRITERS


def _aliases(tree: ast.AST) -> dict[str, str]:
    """Each name that an import in ``tree`` binds, mapped to the dotted path it names."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as x" binds x to a.b
                bound = alias.name if alias.asname else alias.name.partition(".")[0]
                aliases[alias.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{_source(node)}.{alias.name}"
    return aliases


def _source(node: ast.ImportFrom) -> str:
    """The absolute name of the module that ``from ... import`` reads."""
    return node.module if node.level == 0 else ".".join(filter(None, ("typovec", node.module)))


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted path that an expression names through an alias, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value, aliases)):
        return f"{base}.{node.attr}"
    return None


def _references(path: Path, module: str | None) -> set[tuple[str, str]]:
    """The (module, name) pairs that ``path`` refers to: each name imported from a
    module, each attribute read on an alias of a module (``ag.f``, ``vectors.f``)
    and, when ``path`` is the file of ``module``, each name it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = _aliases(tree)
    found = {(_source(node), alias.name)
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    found |= {(module, node.id) for node in ast.walk(tree) if isinstance(node, ast.Name) and module}
    found |= {(base, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and (base := _dotted(node.value, aliases))}
    return found


def _calls_and_values(path: Path, module: str | None):
    """The calls and the function values in ``path`` of functions named as
    :func:`_references` names them. Calls: (module, function, argument) for
    each argument of each call, but not of a module's call of a function in
    that function's own body: the position of a positional argument, the
    name of a keyword one, and "*" or "**" for an unpacked sequence or
    mapping, which may pass any parameter. Values: (module, name) of each
    name read other than as the function of a call (a function passed as an
    argument), whose calls cannot be resolved."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = _aliases(tree)
    if module:  # the module's own functions, called by their bare names
        aliases = {**{node.id: f"{module}.{node.id}" for node in ast.walk(tree) if isinstance(node, ast.Name)},
                   **aliases}
    calls, values = set(), set()
    for top in tree.body:
        own = f"{module}.{top.name}" if module and isinstance(top, ast.FunctionDef) else None
        callees = set()
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            callees.add(call.func)
            target = _dotted(call.func, aliases)
            if not target or target == own:
                continue
            module_name, _, name = target.rpartition(".")
            for i, arg in enumerate(call.args):
                calls.add((module_name, name, "*" if isinstance(arg, ast.Starred) else i))
            calls |= {(module_name, name, kw.arg or "**") for kw in call.keywords}
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and node not in callees:
                if target := _dotted(node, aliases):
                    values.add(tuple(target.rsplit(".", 1)))
    return calls, values


def _outside_unit_tests():
    """(path, module) of each Python file outside the unit tests: the package,
    the demos, the benchmark, the tools and the acceptance tests; ``module`` is
    the package module a file is, or None."""
    root = Path(__file__).resolve().parents[1]
    package = Path(typovec.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        hidden = any(part.startswith(".") for part in parts)
        if not (hidden or (parts[0] == "tests" and path.name != "test_acceptance.py")):
            yield path, f"typovec.{path.stem}" if path.parent == package else None


def _definitions():
    """(module, node) of each module-level function or class of the package."""
    for path in sorted(Path(typovec.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                yield f"typovec.{path.stem}", top


def test_every_public_name_is_used_outside_the_unit_tests():
    # a public function or class that only unit tests call is code no stage, demo,
    # benchmark or acceptance criterion needs
    defined = {(module, top.name) for module, top in _definitions() if not top.name.startswith("_")}
    referenced = set().union(*(_references(path, module) for path, module in _outside_unit_tests()))
    unused = sorted(f"{module}.{name}" for module, name in defined - referenced)
    assert not unused, f"public names that only unit tests use: {unused}"


def test_every_public_method_is_read_outside_the_unit_tests():
    # matched by name: a public method or property of a package class that no
    # attribute read outside the unit tests names is code that only unit tests reach
    read = {node.attr for path, _ in _outside_unit_tests()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = sorted(f"{module}.{top.name}.{node.name}"
                    for module, top in _definitions() if isinstance(top, ast.ClassDef)
                    for node in top.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.name not in read)
    assert not unused, f"public methods that only unit tests read: {unused}"


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    # a default that every caller but the unit tests leaves alone is a branch
    # that no stage, demo, benchmark or acceptance criterion runs; a function's
    # calls of itself do not count, and a private function passed as a value
    # is left out, since its calls cannot be resolved
    passed, values = (set().union(*found) for found in
                      zip(*(_calls_and_values(path, module) for path, module in _outside_unit_tests())))
    unpassed = []
    for module, top in _definitions():
        if not isinstance(top, ast.FunctionDef) or (top.name.startswith("_") and (module, top.name) in values):
            continue
        args = top.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        # each defaulted parameter, and the ways a call can pass it
        ways = {arg.arg: (arg.arg, i, "*", "**") for i, arg in enumerate(positional) if i >= first}
        ways |= {arg.arg: (arg.arg, "**") for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                 if default is not None}
        unpassed += [f"{module}.{top.name}({name})" for name, by in ways.items()
                     if not any((module, top.name, way) in passed for way in by)]
    assert not unpassed, f"defaulted parameters that only unit tests pass: {unpassed}"


def test_every_parameter_is_read_by_its_function():
    # a parameter that its function never reads is an argument that every caller
    # passes for nothing. self, cls and "_"-prefixed names are left out, and so,
    # as above, is a private function passed as a value: a stage body takes the
    # arguments that the driver passes every stage
    values = set().union(*(_calls_and_values(path, module)[1] for path, module in _outside_unit_tests()))
    unread = []
    for module, top in _definitions():
        if isinstance(top, ast.ClassDef):
            functions = [(f"{top.name}.{node.name}", node) for node in top.body if isinstance(node, ast.FunctionDef)]
        elif not (top.name.startswith("_") and (module, top.name) in values):
            functions = [(top.name, top)]
        else:
            continue
        for name, node in functions:
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{name}({p.arg})" for p in params
                       if p.arg not in ("self", "cls") and not p.arg.startswith("_") and p.arg not in read]
    assert not unread, f"parameters that their functions never read: {unread}"


def test_every_config_key_is_a_stage_param():
    # a stage reruns when a param in its manifest changes, so a key that no stage
    # records could change an artifact and leave every stage up to date; the work
    # dir and the input files are recorded by path and hash, not as params
    keys = {f.name for f in fields(PipelineConfig)} - {"workdir", *INPUT_FILES}
    params = {param for stage in STAGES.values() for param in stage.params}
    assert not keys - params, f"config keys that no stage records: {sorted(keys - params)}"
    assert not params - keys, f"stage params that are not config keys: {sorted(params - keys)}"
