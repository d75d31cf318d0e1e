"""The program surface that the README, scripts/ and perfbench/ rely on.

perfbench/ has its own suite, which tier-1 does not run; these tests keep
the entry points it spans and the matrix reads it makes from disappearing
unnoticed.  They read perfbench/ and scripts/ and edit neither.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polyharm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
NIL_QUERY = workloads.AnsatzQuery("nil", tuple(workloads.monomial_basis("nil", 2)), 1)


def _documented_api() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    return {name for b in bullets for name in re.findall(r"`([A-Za-z_]\w*)`", b)}


def test_readme_python_api_lists_the_package_names():
    # dir() of a fresh import: the oracle names are served on first access,
    # so only the package's __dir__ lists them before that, and listing
    # them must not load numpy
    listing = "import sys, polyharm; print(dir(polyharm), 'numpy' in sys.modules)"
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", listing], capture_output=True, text=True,
                          env=env, check=True)
    names, numpy_loaded = proc.stdout.rsplit(" ", 1)
    public = {
        name
        for name in ast.literal_eval(names)
        if not name.startswith("_") and not isinstance(getattr(polyharm, name), types.ModuleType)
    }
    assert _documented_api() == public
    assert numpy_loaded.strip() == "False"


def test_names_used_by_scripts_and_perfbench_are_documented():
    documented = _documented_api()
    for script in SCRIPTS:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("polyharm"):
                for alias in node.names:
                    if (node.module, alias.name) != ("polyharm.cli", "main"):
                        assert alias.name in documented, (script.name, alias.name)
    for path in (ROOT / "perfbench").rglob("*.py"):
        for name in re.findall(r"\bph\.([A-Za-z_]\w*)", path.read_text()):
            if not isinstance(getattr(polyharm, name), types.ModuleType):
                assert name in documented, (path.name, name)


def test_every_traced_entry_point_exists():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_a_small_ansatz_op_passes_the_benchmark_check():
    # the check copies the matrix to floats through ExactMatrix.at
    geometries = workloads.build_geometries("ansatz")
    output = workloads.run_ansatz(geometries, NIL_QUERY)
    assert workloads.check_ansatz(geometries, NIL_QUERY, output) == []


def test_a_traced_ansatz_op_counts_matrix_entries():
    # the tracer counts nonzeros through ExactMatrix.entries
    geometries = workloads.build_geometries("ansatz")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root(workloads.run_ansatz, geometries, NIL_QUERY)
    finally:
        tracer.uninstall()
    assert tracer.counts["linalg.entries"] > 0
    assert tracer.counts["linalg.nonzero"] > 0


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(script):
    spec = importlib.util.spec_from_file_location(f"_script_{script.stem}", script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
