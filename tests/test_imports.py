"""Import cost: the simulation layers must not load the experiment harness."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_layers_do_not_import_the_experiment_harness():
    # repro.experiments pulls in the runner, every baseline protocol and
    # networkx (~13 MiB of peak RSS); the flow engine, the event store
    # and the invariant checker need none of it.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import repro.workload.flows, repro.obs.store, repro.verify.invariants\n"
        "print(sorted(m for m in ('networkx', 'repro.experiments', 'repro.baselines')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

