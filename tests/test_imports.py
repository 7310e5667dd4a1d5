"""Every imported name in the package and the tests is used, and every
function and class of the package is referenced."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/dimerlab/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import of ``tree`` that nothing reads.  A name in
    ``__all__`` counts as read, and ``from __future__`` binds none."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from a.b import c, d\n__all__ = ['d']\nprint(system)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "c")]


def dimerlab_imports(tree: ast.Module) -> list:
    """(line, module, name) of every ``from dimerlab... import name`` in
    ``tree``, those inside functions included."""
    return [(node.lineno, node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.partition(".")[0] == "dimerlab" for alias in node.names]


def unresolved(module: str, name: str) -> bool:
    """Whether ``from module import name`` fails: no attribute and no submodule."""
    if hasattr(importlib.import_module(module), name):
        return False
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return True
    return False


@pytest.mark.parametrize("path", sorted(ROOT.glob("perfbench/*.py")), ids=lambda p: p.name)
def test_every_name_the_benchmark_imports_exists(path):
    # the benchmark imports from the package inside its functions, so a
    # renamed or removed name would fail a benchmark run, not an import
    found = dimerlab_imports(ast.parse(path.read_text(), str(path)))
    assert [(line, module, name) for line, module, name in found if unresolved(module, name)] == []


def test_the_import_scan_sees_a_missing_name():
    tree = ast.parse("def f():\n    from dimerlab.graphs import RngSeed, gone\n"
                     "    from dimerlab import cli\n    from spans import Tracer\n")
    found = dimerlab_imports(tree)
    assert found == [(2, "dimerlab.graphs", "RngSeed"), (2, "dimerlab.graphs", "gone"), (3, "dimerlab", "cli")]
    assert [name for _, module, name in found if unresolved(module, name)] == ["gone"]


# the traced names that the benchmark may miss: both are listed as stale in
# ROADMAP item 7 (one moved to tests/oracle.py, the other is gone)
STALE_TARGETS = {"transfer:batch_scalar_log_z", "sampler:observables"}


def trace_targets(tree: ast.Module) -> list:
    """The keys of the ``TARGETS`` dict that ``tree`` assigns."""
    return [ast.literal_eval(key) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
            for key in node.value.keys]


def untraceable(target: str) -> bool:
    """Whether the benchmark's tracer would find no ``module:qualname``
    target in the package: no function of the module by that name, or no
    method defined on the class of ``Class.method``."""
    module, _, qual = target.partition(":")
    owner, _, name = qual.rpartition(".")
    mod = importlib.import_module(f"dimerlab.{module}")
    if owner:
        cls = getattr(mod, owner, None)
        return not (isinstance(cls, type) and name in vars(cls))
    return not callable(getattr(mod, name, None))


def test_every_traced_name_exists():
    # the tracer records a target it cannot find and times nothing for it,
    # so a renamed function or method would read 0 in its per-layer metric
    # instead of failing a run
    targets = trace_targets(ast.parse((ROOT / "perfbench" / "layers.py").read_text()))
    assert "sampler:GibbsSampler.draw_states" in targets
    assert {target for target in targets if untraceable(target)} <= STALE_TARGETS


def test_the_trace_scan_sees_a_missing_target():
    tree = ast.parse("TARGETS = {'sampler:GibbsSampler.draw_states': None, 'sampler:GibbsSampler.gone': None,"
                     " 'transfer:move_terms': f, 'transfer:gone': None}\nOTHER = {'cli:gone': None}\n")
    targets = trace_targets(tree)
    assert targets == ["sampler:GibbsSampler.draw_states", "sampler:GibbsSampler.gone", "transfer:move_terms",
                       "transfer:gone"]
    assert [target for target in targets if untraceable(target)] == ["sampler:GibbsSampler.gone", "transfer:gone"]


def callers(tree: ast.Module, names) -> dict:
    """Each of ``names`` -> the sorted top-level definitions of ``tree``
    ("<module>" for any other statement) that call it, by its name or as
    an attribute; nested functions count as their top-level definition."""
    found = {name: set() for name in names}
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in found:
                    found[name].add(owner)
    return {name: sorted(owners) for name, owners in found.items()}


# what only the batch map of experiments.py does: draw a batch of weights,
# build its tables, fork
MAP_ONLY = ("_draw_weight_batch", "batch_tables", "_in_processes")


def test_only_the_batch_map_draws_builds_and_forks():
    # a disorder loop that drew, built or forked on its own would bring
    # back its own batches, its own split and its own refusals
    tree = ast.parse((ROOT / "src" / "dimerlab" / "experiments.py").read_text())
    assert callers(tree, MAP_ONLY) == {name: ["_map_batches"] for name in MAP_ONLY}


def test_the_caller_scan_sees_a_second_caller():
    tree = ast.parse("def _map_batches(cfg):\n    def part(p):\n"
                     "        return batch_tables(g, *_draw_weight_batch(g, cfg, s))\n"
                     "    return _in_processes(part, 2)\n"
                     "def loop(cfg):\n    return [transfer.batch_tables(g, *w) for w in ws]\n"
                     "CHECK = lambda cfg: _in_processes(cfg, 1)\n")
    assert callers(tree, MAP_ONLY) == {"_draw_weight_batch": ["_map_batches"],
                                       "batch_tables": ["_map_batches", "loop"],
                                       "_in_processes": ["<module>", "_map_batches"]}


def readers(paths, name: str) -> list:
    """"module:definition" of each top-level definition of the files
    ``paths`` that calls ``name`` (``callers``), sorted."""
    return sorted(f"{p.stem}:{owner}" for p in paths
                  for owner in callers(ast.parse(p.read_text(), str(p)), [name])[name])


def test_only_the_sampler_reads_the_backward_terms():
    # one reader of move_terms: the draws and the ground state are one
    # backward walk in two arithmetics, not a walk per consumer
    assert readers(PACKAGE, "move_terms") == ["sampler:GibbsSampler"]


def test_the_reader_scan_sees_a_second_caller(tmp_path):
    (tmp_path / "sampler.py").write_text("class GibbsSampler:\n    def __init__(self, t):\n"
                                         "        self.v = move_terms(t, LOG)\n")
    (tmp_path / "groundstate.py").write_text("from . import transfer\ndef max_weight(t):\n"
                                             "    return transfer.move_terms(t, MAX)\n")
    assert readers(sorted(tmp_path.glob("*.py")), "move_terms") == ["groundstate:max_weight",
                                                                     "sampler:GibbsSampler"]


MODULES = {p.stem for p in PACKAGE} - {"__init__"}


def definitions(tree: ast.Module) -> list:
    """(line, name, module level?, node) of every function and class that
    ``tree`` defines, methods and nested functions included; dunder methods
    are exempt."""
    top = {id(node) for node in tree.body}
    return sorted(((node.lineno, node.name, id(node) in top, node) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))),
                  key=lambda d: d[:2])


def _dimerlab_modules(tree: ast.Module) -> set:
    """The names that ``tree`` binds to dimerlab modules."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "dimerlab" or node.level and not node.module):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name in MODULES)
    return modules


def references(tree: ast.AST, modules: set | None = None) -> tuple:
    """What ``tree`` reads: (names, attributes), each counted.  ``names``
    holds every Name, every import alias (the last part of a dotted one)
    and every attribute read off a name bound to a dimerlab module
    (``modules``, by default those that ``tree`` binds), as ``cli`` in
    ``from dimerlab import cli; cli.main()``; ``attributes`` every
    attribute read off anything.  A definition is none of these."""
    if modules is None:
        modules = _dimerlab_modules(tree)
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names, attrs


def unreferenced(sources, readers) -> list:
    """(file, line, name) of each function and class of ``sources`` that no
    reader refers to outside the definition's own body: one at module level
    by a name (see ``references``), a method or nested function by a name
    or any attribute."""
    names, attrs = Counter(), Counter()
    for p in readers:
        n, a = references(ast.parse(p.read_text(), str(p)))
        names += n
        attrs += a
    dead = []
    for p in sources:
        tree = ast.parse(p.read_text(), str(p))
        modules = _dimerlab_modules(tree)
        for line, name, top, node in definitions(tree):
            # what the definition reads of itself does not reach it
            own_names, own_attrs = references(node, modules) if p in readers else (Counter(), Counter())
            seen = (names - own_names)[name] + (0 if top else (attrs - own_attrs)[name])
            if not seen:
                dead.append((p.name, line, name))
    return dead


def test_every_definition_is_referenced():
    # a function or class of the package that nothing in the package, the
    # tests or the benchmark refers to is dead code
    assert unreferenced(PACKAGE, [*SOURCES, *ROOT.glob("perfbench/*.py")]) == []


def test_every_definition_is_reached_without_the_tests():
    # the package holds what a command or the benchmark reaches: a function
    # or class that only the tests (or a re-export in __init__) refer to
    # belongs in the tests, as an oracle, or nowhere
    readers = [p for p in PACKAGE if p.name != "__init__.py"]
    assert unreferenced(PACKAGE, [*readers, *ROOT.glob("perfbench/*.py")]) == []


def test_the_scan_sees_a_dead_definition(tmp_path):
    source = tmp_path / "transfer.py"
    source.write_text("from m import imported\nclass K:\n    def __init__(self): pass\n"
                      "    def method(self): pass\n    def dead(self): pass\n"
                      "    def recur(self): return self.recur()\n"
                      "def called(): pass\ndef unused(): pass\ndef resolve(msgs): pass\n"
                      "def sweep(): pass\ncalled(); K().method()\n")
    # a module-level function is not reached by an attribute of the same
    # name read off something else, as Path.resolve is; an attribute of an
    # imported dimerlab module reaches it; a method that only its own body
    # reads is not reached
    reader = tmp_path / "reader.py"
    reader.write_text("import pkg.imported_too\nfrom pathlib import Path\n"
                      "from dimerlab import transfer\nPath(__file__).resolve()\ntransfer.sweep()\n")
    dead = [name for _, _, name in unreferenced([source], [source, reader])]
    assert dead == ["dead", "recur", "unused", "resolve"]
    names, _ = references(ast.parse(source.read_text() + reader.read_text()))
    assert {"imported", "imported_too", "sweep"} <= names.keys() and "resolve" not in names


# every command at toy sizes in one interpreter; the experiment runs the four
# checks (clt on 30 replicas, drift on two rungs, functionals on spectra at
# N = 16, brownian on pooled Gibbs draws), so every statistic of the report
# and the Jacobi spectrum are computed
RUNTIME_SCRIPT = """
import json, sys
from pathlib import Path
from dimerlab.cli import main

tmp = Path(sys.argv[1])
inst = ["--n", "4", "--h", "2", "--vertex", "normal(0,1)", "--edge", "normal(0,1)"]
cfg = tmp / "c.cfg"
cfg.write_text("[graph]\\nfiber = path(2)\\n[ladder]\\nn = 4, 8\\nreplicas = 30\\nseed = 1\\n"
               "with_spectrum = true\\nheight_envs = 2\\ngibbs_samples = 50\\nt_grid = 0, 0.5, 1\\n")
codes = [main(argv) for argv in (
    ["sample", *inst, "--count", "10", "--out", str(tmp / "sample")],
    ["ground", *inst, "--betas", "1,2", "--out", str(tmp / "ground")],
    ["exact", *inst, "--out", str(tmp / "exact")],
    ["spectrum", *inst, "--out", str(tmp / "spectrum")],
    ["jacobi", "--n", "16", "--h", "1", "--vertex", "normal(0,1)", "--out", str(tmp / "jacobi")],
    ["experiment", "--config", str(cfg), "--out", str(tmp / "run"),
     "--checks", "clt,drift,functionals,brownian"],
    ["plot", "--csv", str(tmp / "run" / "replicas.csv"), "--svg", str(tmp / "x.svg"),
     "--kind", "hist"],
)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_imports_scipy(tmp_path):
    # the runtime needs numpy alone: scipy is a test oracle, not a dependency
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", RUNTIME_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["scipy"] == []
    # the experiment's gated checks may fail at 30 replicas; the rest succeed
    assert result["codes"][:5] == [0] * 5 and result["codes"][5] in (0, 1) and result["codes"][6] == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert {"clt", "linear_growth", "functionals", "brownian"} <= report.keys()
    assert len(json.loads((tmp_path / "jacobi" / "jacobi.json").read_text())["eigenvalues"]) == 16
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert sorted(manifest["versions"]) == ["dimerlab", "numpy", "python"]
