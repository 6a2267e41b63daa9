"""Tests of the benchmark's own logic: output checks, names, seeds, spans."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from reference import REFERENCE_S, at_reference_speed
from tracing import PER_LAYER, Patches, StepperMeter, Tracer

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_general_run(a=0.5, theta=1.0, n_steps=150):
    """A general-kernel beam on 8 elements; returns (kernel, grid, states)."""
    from memfem.volterra import TimeGrid

    kernel = workloads.general_kernel(a, theta)
    grid = TimeGrid(T=1.5, n_steps=n_steps)
    states = []
    workloads.general_problem(kernel, 8).run(
        grid, collect=lambda n, t, u, p: states.append((u.copy(), p.copy())))
    return kernel, grid, states


def feed(check, states):
    for n, (u, p) in enumerate(states):
        check(n, 0.0, u, p)
    return check


def test_factor_check_accepts_stepper_solution():
    kernel, grid, states = small_general_run()
    check = feed(workloads.FactorCheck(workloads.scalar_factor(kernel, grid)),
                 states)
    assert check.ok
    assert check.steps == grid.n_steps + 1
    assert check.max_rel < 1e-13


@pytest.mark.parametrize("which", ["u", "p"])
def test_factor_check_rejects_perturbed_solution(which):
    kernel, grid, states = small_general_run()
    u, p = states[77]
    states[77] = (u * (1 + 1e-9), p) if which == "u" else (u, p * (1 + 1e-9))
    check = feed(workloads.FactorCheck(workloads.scalar_factor(kernel, grid)),
                 states)
    assert not check.ok
    assert check.max_rel > workloads.FACTOR_RTOL


def test_factor_check_rejects_missing_steps():
    kernel, grid, states = small_general_run()
    check = feed(workloads.FactorCheck(workloads.scalar_factor(kernel, grid)),
                 states[:-1])
    assert not check.ok


def test_names_match_pattern_and_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER


def test_general_kernel_every_seed_passes_gate_and_varies():
    from memfem.volterra import BlockSaddleSystem, TimeGrid, step_gammas

    grid = TimeGrid(T=workloads.GENERAL_T, n_steps=workloads.GENERAL_STEPS)
    for seed in range(1000):
        a, theta = workloads.general_params(seed)
        assert workloads.GENERAL_A_RANGE[0] <= a <= workloads.GENERAL_A_RANGE[1]
        kernel = workloads.general_kernel(a, theta)
        diag = kernel.eval(grid.times, grid.times)
        assert np.max(np.abs(diag)) <= kernel.bound
        # every step has its own k(t,t), so no two steps share an LU
        assert np.unique(diag).size == diag.size
        system = BlockSaddleSystem(np.eye(2), np.array([[1.0, 0.0]]), k3=kernel)
        worst = int(np.argmax(np.abs(diag[1:]))) + 1
        step_gammas(system, grid, worst)  # raises beyond the gate


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [[0, -1, "volterra.run", 0.0, 10.0],
                    [1, 0, "volterra.step", 1.0, 6.0],
                    [2, 1, "sparsela.solve", 2.0, 5.0],
                    [3, -1, "sparsela.solve", 20.0, 21.0]]
    lay = tracer.layers()
    assert lay["volterra.run"] == [1, 10.0, 5.0, 5.0]
    assert lay["volterra.step"] == [1, 5.0, 2.0, 2.0]
    # the second solve is outside the stepping loop
    assert lay["sparsela.solve"] == [2, 4.0, 4.0, 3.0]


def test_reference_speed_divides_each_piece_by_its_probes():
    assert at_reference_speed([1.0, 2.0], [REFERENCE_S] * 3) == pytest.approx(3.0)
    # a host twice as slow around the second piece only
    assert at_reference_speed([1.0, 2.0], [REFERENCE_S, REFERENCE_S,
                                           3 * REFERENCE_S]) \
        == pytest.approx(1.0 + 2.0 / 2.0)
    with pytest.raises(ValueError):
        at_reference_speed([1.0, 2.0], [REFERENCE_S] * 2)


def test_meter_probes_between_steps_and_leaves_probes_out():
    import memfem.cli  # noqa: F401  holds calls the meter probes around

    calls = []

    def probe():
        calls.append(1)
        return REFERENCE_S

    n_steps = 40
    meter = StepperMeter(probe, every=0.0)
    patches = Patches()
    meter.install(patches)
    try:
        meter.begin()
        small_general_run(n_steps=n_steps)
        wall = meter.end()
    finally:
        patches.undo()
    # one probe before the run, one at every step, one after the run
    assert len(meter.probes) == len(calls) == n_steps + 3
    assert len(meter.pieces) == len(meter.probes) - 1
    assert wall == pytest.approx(sum(meter.pieces))
    assert 0.0 < meter.seconds < wall
    assert at_reference_speed(meter.pieces, meter.probes) == pytest.approx(wall)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "general_kernel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
