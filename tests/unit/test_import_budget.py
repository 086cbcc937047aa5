"""The serving path imports what it uses.

A process that runs the end-to-end benchmark's program (log -> engine ->
store -> overlay) imports exactly the ``repro`` names that
``benchmarks/e2e/pipeline.py`` imports, read here from its source.  It
must not pay for the facade, the offload simulator, analytics, privacy,
the apps or the tracking stack, nor for scipy and networkx, which only
those import, nor for the autoscaler, the region placement or the CEP
operator, which no job on that path uses: ``repro``, ``repro.vision``,
``repro.chaos`` and ``repro.streaming`` re-export lazily.  The
re-exports themselves stay whole: every name in those
packages' ``__all__`` resolves and is listed by ``dir()``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PIPELINE = ROOT / "benchmarks" / "e2e" / "pipeline.py"

#: ``repro`` modules the benchmark's program loaded when this was set
#: (57), with no headroom: a new module on the serving path raises it
MODULE_BUDGET = 57
#: modules only what the serving path does not run imports
NOT_LOADED = ("scipy", "networkx", "repro.core", "repro.offload",
              "repro.simnet", "repro.analytics", "repro.privacy",
              "repro.apps", "repro.vision.flow", "repro.vision.features",
              "repro.streaming.autoscale", "repro.streaming.placement",
              "repro.streaming.cep")
LAZY_PACKAGES = ("repro", "repro.vision", "repro.chaos", "repro.streaming")


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def _pipeline_imports():
    """The ``from repro... import ...`` statements of the pipeline."""
    tree = ast.parse(PIPELINE.read_text())
    return [ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"]


def test_the_pipeline_imports_the_serving_path_only():
    imports = _pipeline_imports()
    assert len(imports) > 5, imports
    loaded = _run("\n".join(imports + [
        "import sys",
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('repro', 'scipy', 'networkx')))"]))
    offenders = [m for m in loaded
                 if any(m == top or m.startswith(top + ".")
                        for top in NOT_LOADED)]
    assert offenders == []
    assert len(loaded) <= MODULE_BUDGET, loaded


def test_the_facade_and_a_subpackage_resolve_from_a_bare_import():
    assert _run("from repro import ARBigDataPipeline\n"
                "import repro\n"
                "print(ARBigDataPipeline.__name__,"
                " repro.store.TieredStore.__name__)") == [
        "ARBigDataPipeline", "TieredStore"]


def test_every_lazy_export_resolves_and_is_listed():
    for name in LAZY_PACKAGES:
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, (name, export)
            assert export in listed, (name, export)


def test_an_unknown_name_is_an_attribute_error():
    import repro.vision

    assert not hasattr(repro.vision, "no_such_export")
