"""The benchmark's wrappers still fit memfem's public calls.

``benchmark/tracing.py`` patches memfem's names from outside and calls
through them with the arguments memfem passes, so a signature change
that breaks a wrapper would otherwise show only when the benchmark runs.
"""

import io
import sys
from pathlib import Path

import numpy as np

import memfem.cli as cli
from memfem import MemoryKernel, PronySLS, beam_kernel, volterra
from memfem.beam import BeamProblem, joined_profile
from memfem.volterra import TimeGrid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
from tracing import TRACED, Patches, StepperMeter, Tracer  # noqa: E402


def memfem_attributes() -> dict:
    """Every attribute of the memfem modules and of the classes that
    ``TRACED`` reaches into."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "memfem":
            out.update({(name, k): v for k, v in vars(mod).items()})
    for module_name, path in TRACED.values():
        *outer, _ = path.split(".")
        if outer:
            cls = getattr(sys.modules[module_name], outer[0])
            out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_and_meter_wrap_three_runs(tmp_path):
    laplace = cli.load_config(None, overrides=[
        'problem="laplace"', "levels=[2,4]", "T=0.05", "n_steps=10",
        f'output_dir="{tmp_path}"'])
    certificate = cli.load_config(None, overrides=[
        "n_elements=4", "T=0.1", "n_steps=10", f'output_dir="{tmp_path}"'])
    general = MemoryKernel.from_callable(
        lambda t, s: -np.exp(-(np.asarray(t, float) - np.asarray(s, float)))
        * (1.0 + 0.5 * np.sin(t)), bound=1.5)

    before = memfem_attributes()
    meter, tracer, patches = StepperMeter(), Tracer(), Patches()
    meter.install(patches)
    tracer.install(patches)
    try:
        cli.run_study(laplace)
        cli.emit_certificate(certificate, stream=io.StringIO())
        BeamProblem(joined_profile(d=0.001), 8, general, 1.0, np.exp,
                    None).run(TimeGrid(T=0.5, n_steps=100))
    finally:
        patches.undo()
    after = memfem_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    names = {span[2] for span in tracer.spans}
    assert {"volterra.step", "volterra.history_sum", "beam.beam_rhs",
            "sparsela.kernel_ellipticity", "cli.norms_add",
            "laplace_mem.on_step", "beam.on_step", "cli.on_step"} <= names
    # the certificate steps its own system and adds its run norms once per
    # block, inside that run: its 11 nodes are one block
    adds = [span for span in tracer.spans if span[2] == "cli.norms_add"]
    assert len(adds) == 1
    observer = tracer.spans[adds[0][1]]
    assert observer[2] == "cli.on_step"
    assert tracer.spans[observer[1]][2] == "volterra.run"
    metrics = tracer.metrics(meter)
    # a step solves one block: the two Laplace levels and the certificate
    # take their 11 nodes in one block each, the general run its 101 nodes
    # in blocks of 64 and 37, the second after one history sum
    assert metrics["volterra.step_count"] == 3 * 1 + 2
    assert metrics["volterra.history_count"] == 1
    assert meter.dof_steps > 0
    # the general kernel stores no states of u or p: its history is its
    # q rows, one coefficient a node on the one load vector
    assert metrics["volterra.history_peak_bytes"] == 0


def test_meter_probes_a_blocked_run_once_per_block():
    # the benchmark divides its times by probes it takes through the first
    # load callback; a blocked run asks that callback once per block, so
    # each block gives one probe, besides those before and after the run
    calls = []

    def probe():
        calls.append(1)
        return 0.0

    prob = BeamProblem(joined_profile(d=0.001), 8,
                       beam_kernel(PronySLS(1.0, 1.0, 1.0)), 1.0, np.exp, None)
    meter, patches = StepperMeter(probe=probe, every=0.0), Patches()
    meter.install(patches)
    try:
        meter.begin()
        _, stepper = prob.run(TimeGrid(T=2.0, n_steps=300))
        meter.end()
    finally:
        patches.undo()
    assert stepper.width == 64 and stepper.n_done == 301
    blocks = 5                                  # 4 x 64 + 45 nodes
    assert len(calls) == len(meter.probes) == blocks + 2
    assert len(meter.pieces) == blocks + 1


def test_a_traced_study_steps_the_blocks_of_an_untraced_one(tmp_path,
                                                           monkeypatch):
    # the per-layer numbers must describe the program that wall_s times.
    # The tracer calls VolterraStepper.run with four arguments and wraps
    # on_step in a plain function, so the stepper learns at construction
    # that the study reads no states: level 40 (n = 8,080, 8 nodes a
    # block with states) steps its 101 nodes as 64 and 37, as level 4 does
    cfg = cli.load_config(None, overrides=[
        'problem="laplace"', "levels=[4,40]", "T=0.05", "n_steps=100",
        f'output_dir="{tmp_path}"'])
    untraced, step = [], volterra.step

    def counted(*args):
        untraced.append(args[2][1].shape[1])    # C of the block load f
        return step(*args)

    with monkeypatch.context() as patched:
        patched.setattr(volterra, "step", counted)
        cli.run_study(cfg)
    tracer, patches = Tracer(), Patches()
    tracer.install(patches)
    try:
        cli.run_study(cfg)
    finally:
        patches.undo()
    assert untraced == [64, 37] * 2
    assert sum(span[2] == "volterra.step" for span in tracer.spans) == 4
