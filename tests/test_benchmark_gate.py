"""The benchmark's correctness check (perfbench/workload.py) passes in tier-1.

Every solve of a workload must match its recorded value in
``perfbench/expected.json``, or the workload's ``ok_share`` drops.  This runs
the workloads' set-up and, for ``locking_sweep`` and ``green_newton``, one
pass with the workload module itself, loaded read-only, so a library change
that breaks the check fails here.  ``thickness_scan`` runs its set-up only:
its warm-up solve builds and solves the 512-element hyperboloid model, while
its pass of 19 thicknesses would take seconds.
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


def measured(solves):
    """The cases that the solves measured."""
    return {case for _, parts in solves if parts is not None for case, _ in parts}


def failures(workload, expected, solves):
    return [name for name, parts in solves if not workload.passed(parts, expected)]


def test_locking_sweep_passes_its_expected_values(monkeypatch):
    workload = load_workload(monkeypatch)
    expected = workload.load_expected()["locking_sweep"]
    setup_solves, one_pass = workload.locking_sweep(random.Random(0), record=True)
    solves = setup_solves + one_pass()
    assert measured(solves) == set(expected)
    assert not failures(workload, expected, solves)


def test_green_newton_passes_its_expected_values(monkeypatch):
    workload = load_workload(monkeypatch)
    expected = workload.load_expected()["green_newton"]
    setup_solves, one_pass = workload.green_newton(random.Random(0), record=True)
    solves = setup_solves + one_pass()
    assert measured(solves) == set(expected)
    assert not failures(workload, expected, solves)


def test_thickness_scan_warmup_passes_its_expected_value(monkeypatch):
    workload = load_workload(monkeypatch)
    expected = workload.load_expected()["thickness_scan"]
    setup_solves, _ = workload.thickness_scan(random.Random(0), record=True)
    assert measured(setup_solves) == {"warmup/t=0.1"}
    assert not failures(workload, expected, setup_solves)
