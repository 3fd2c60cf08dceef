"""Import cost: a process loads only the layers it uses.

Each check runs in a fresh interpreter, since this one has imported most
of the package already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: ``repro`` and every subpackage; each initialiser exports lazily.
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.glob("repro/**/__init__.py")
)


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def loaded_after(imports: str, candidates) -> list:
    """Which of ``candidates`` are in ``sys.modules`` after ``imports``."""
    return json.loads(run_python(
        f"import json, sys\n{imports}\n"
        f"print(json.dumps(sorted(m for m in {sorted(candidates)!r} if m in sys.modules)))\n"
    ))


def export_table(package: str) -> dict:
    """The defining-module table ``package``'s initialiser hands to
    ``lazy_exports``."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if getattr(node.value.func, "id", None) == "lazy_exports":
                return ast.literal_eval(node.value.args[1])
    raise AssertionError(f"{init} does not call lazy_exports")


def test_layers_do_not_import_the_experiment_harness():
    # What a benchmark child imports.  Package initialisers import
    # nothing eagerly, so neither the harness (the runner, every baseline
    # and networkx, ~13 MiB of peak RSS) nor the dashboard's HTTP stack,
    # the exporters, the fault injector or the probes come along.
    unwanted = (
        "http.server", "ssl", "email", "socketserver", "networkx",
        "repro.obs.dashboard", "repro.obs.export", "repro.obs.profiler",
        "repro.obs.sampler", "repro.obs.instrument", "repro.obs.registry",
        "repro.verify.faults", "repro.trace.capture",
        "repro.workload.probes", "repro.workload.traffic",
        "repro.metrics.collect", "repro.metrics.energy", "repro.metrics.health",
        "repro.phy.fading", "repro.tables",
        "repro.topology", "repro.experiments", "repro.baselines",
    )
    assert loaded_after(
        "import repro.net.api, repro.workload.flows, repro.obs.store,"
        " repro.verify.invariants, repro.trace.events",
        unwanted,
    ) == []


def test_cli_loads_the_graph_layer_only_for_plan():
    assert loaded_after("import repro.cli", ("networkx", "repro.topology.graphs")) == []


@pytest.mark.parametrize("modules_first", [False, True], ids=["cold", "after-module-import"])
def test_every_export_resolves_to_its_defining_module(modules_first):
    # A direct import of a defining module first (``from
    # repro.experiments.ascii_plot import ...``) must not change what the
    # package name resolves to.
    tables = {package: export_table(package) for package in PACKAGES}
    assert set(PACKAGES) >= {"repro", "repro.net", "repro.obs", "repro.phy"}
    checked = json.loads(run_python(
        "import importlib, json\n"
        # Submodules stay reachable as attributes, as when the
        # initialisers imported them.
        "import repro\n"
        "assert repro.net.api.MeshNetwork is repro.MeshNetwork\n"
        f"tables = {tables!r}\n"
        f"if {modules_first}:\n"
        "    for table in tables.values():\n"
        "        for module in table:\n"
        "            importlib.import_module(module)\n"
        "checked = []\n"
        "for package, table in tables.items():\n"
        "    for module, names in table.items():\n"
        "        for name in names:\n"
        "            scope = {}\n"
        "            exec(f'from {package} import {name}', scope)\n"
        "            assert scope[name] is getattr(importlib.import_module(module), name), name\n"
        "            pkg = importlib.import_module(package)\n"
        "            assert name in pkg.__all__ and name in dir(pkg), name\n"
        "            checked.append(f'{package}.{name}')\n"
        "print(json.dumps(checked))\n"
    ))
    exported = {f"{p}.{name}" for p in PACKAGES for name in importlib.import_module(p).__all__}
    assert set(checked) == exported - {"repro.__version__"}
