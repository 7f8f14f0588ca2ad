"""The benchmark's correctness check (perfbench/workload.py) passes in tier-1.

Every solve of the ``locking_sweep`` workload must match its recorded value
in ``perfbench/expected.json``, or the workload's ``ok_share`` drops.  This
runs the workload's set-up and one pass with the workload module itself,
loaded read-only, so a library change that breaks the check fails here.
"""

import importlib.util
import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workload(monkeypatch):
    # workload.py imports its sibling tracer.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                  PERFBENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    had_tracer = "tracer" in sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def test_locking_sweep_passes_its_expected_values(monkeypatch):
    workload = load_workload(monkeypatch)
    expected = workload.load_expected()["locking_sweep"]
    setup_solves, one_pass = workload.locking_sweep(random.Random(0), record=True)
    solves = setup_solves + one_pass()
    cases = {case for _, parts in solves if parts is not None for case, _ in parts}
    assert cases == set(expected)
    failed = [name for name, parts in solves if not workload.passed(parts, expected)]
    assert not failed
