"""Timing wrappers around memfem's public calls, spans and per-layer metrics.

The benchmark never edits memfem.  It replaces module and class
attributes with wrappers for the length of one run and restores them
afterwards:

* ``StepperMeter`` wraps ``VolterraStepper.run`` in every run, traced or
  not, and adds up the time spent stepping and the dof-steps done there.
  In untraced runs it also pauses the run about every half second to
  time a fixed piece of reference work (``reference.py``): at a step,
  through the load callback the stepper calls once per step, or around a
  long call in ``MILESTONES``.
* ``Tracer`` wraps every call listed in ``TRACED`` and keeps one span per
  call, ``[id, parent id, name, start, end]``, in memory.  Self times are
  derived from the spans after the run: a span's duration minus the
  durations of its direct children.

A function is patched in every ``memfem`` module that holds it, because
the modules import each other's functions by name
(``volterra.factorize_saddle`` is ``sparsela.factorize_saddle``).
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path) of the public call it times
TRACED = {
    "sparsela.solve": ("memfem.sparsela", "SaddleFactorization.solve"),
    "sparsela.factor": ("memfem.sparsela", "factorize_saddle"),
    "sparsela.kernel_ellipticity": ("memfem.sparsela", "kernel_ellipticity"),
    "sparsela.infsup_estimate": ("memfem.sparsela", "infsup_estimate"),
    "sparsela.operator_norm_estimate": ("memfem.sparsela",
                                        "operator_norm_estimate"),
    "cli.operator_norm_b": ("memfem.cli", "operator_norm_b"),
    "cli.norms_add": ("memfem.cli", "RunNorms.add"),
    "cli.emit_report": ("memfem.cli", "emit_report"),
    "volterra.run": ("memfem.volterra", "VolterraStepper.run"),
    "volterra.step": ("memfem.volterra", "step"),
    "volterra.step_gammas": ("memfem.volterra", "step_gammas"),
    "volterra.history_sum": ("memfem.volterra", "history_sum"),
    "mesh.structured_unit_square": ("memfem.mesh", "structured_unit_square"),
    "mesh.uniform_mesh1d": ("memfem.mesh", "uniform_mesh1d"),
    "laplace_mem.rt0_space": ("memfem.laplace_mem", "RT0Space.__init__"),
    "laplace_mem.assemble_rt0_mass": ("memfem.laplace_mem", "assemble_rt0_mass"),
    "laplace_mem.assemble_rt0_div": ("memfem.laplace_mem", "assemble_rt0_div"),
    "laplace_mem.gram_hdiv": ("memfem.laplace_mem", "gram_hdiv"),
    "laplace_mem.gram_p0": ("memfem.laplace_mem", "gram_p0"),
    "laplace_mem.rhs": ("memfem.laplace_mem", "LaplaceProblem.rhs"),
    "beam.assemble_beam_a": ("memfem.beam", "assemble_beam_a"),
    "beam.assemble_beam_b": ("memfem.beam", "assemble_beam_b"),
    "beam.beam_rhs": ("memfem.beam", "beam_rhs"),
    "beam.beam_gram_v": ("memfem.beam", "beam_gram_v"),
    "beam.beam_gram_q": ("memfem.beam", "beam_gram_q"),
    "beam.rhs": ("memfem.beam", "BeamProblem.rhs"),
    "beam.exact_reference": ("memfem.beam", "beam_exact_reference"),
    "kernels.creep_factor": ("memfem.kernels", "creep_factor"),
}

# long calls outside the stepper runs that StepperMeter may probe around
MILESTONES = [TRACED[name] for name in (
    "sparsela.kernel_ellipticity", "sparsela.infsup_estimate",
    "sparsela.operator_norm_estimate", "cli.operator_norm_b",
    "cli.emit_report", "beam.exact_reference")]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("sparsela.solve_s", "s", "lower"),
    ("sparsela.solve_count", "count", "lower"),
    ("sparsela.factor_s", "s", "lower"),
    ("sparsela.factor_count", "count", "lower"),
    ("sparsela.factor_reuse", "ratio", "higher"),
    ("sparsela.lu_nnz", "count", "lower"),
    ("sparsela.estimate_s", "s", "lower"),
    ("cli.norm_b_s", "s", "lower"),
    ("cli.norms_s", "s", "lower"),
    ("volterra.run_s", "s", "lower"),
    ("volterra.step_count", "count", "lower"),
    ("volterra.step_self_s", "s", "lower"),
    ("volterra.gammas_s", "s", "lower"),
    ("volterra.history_s", "s", "lower"),
    ("volterra.history_count", "count", "lower"),
    ("volterra.history_peak_bytes", "bytes", "lower"),
    ("volterra.solve_share", "ratio", "higher"),
    ("laplace_mem.accumulate_s", "s", "lower"),
    ("laplace_mem.rhs_s", "s", "lower"),
    ("beam.accumulate_s", "s", "lower"),
    ("beam.rhs_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("laplace_mem.assemble_s", "s", "lower"),
    ("beam.assemble_s", "s", "lower"),
    ("beam.reference_s", "s", "lower"),
    ("kernels.creep_s", "s", "lower"),
    ("report.emit_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) for a dotted attribute path."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr, orig = _resolve(module_name, path)
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            # also every other memfem module that imported the function
            targets += [(mod, name) for mod_name, mod in list(sys.modules.items())
                        if mod_name.split(".")[0] == "memfem" and mod is not owner
                        for name, value in list(vars(mod).items())
                        if value is orig]
        for obj, name in targets:
            self._undo.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


class StepperMeter:
    """Time spent in ``VolterraStepper.run``, the dof-steps done there and,
    given a ``probe``, reference work run between pieces of the run.

    ``begin`` and ``end`` bracket a run.  With a probe, the run is cut
    into ``pieces`` where memfem lets the benchmark in (at a step of a
    stepper run, around a call in ``MILESTONES``) once the current piece
    is ``every`` seconds long, and ``probes`` holds the probe's seconds
    before the first piece, between pieces and after the last.  Time in
    probes is left out of ``seconds`` and of the run's work.
    """

    def __init__(self, probe=None, every: float = 0.5):
        self.probe = probe
        self.every = every
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0
        self.dof_steps = 0
        self.history_peak_bytes = 0
        self.pieces: list[float] = []
        self.probes: list[float] = []
        self._since = 0.0

    def begin(self) -> None:
        if self.probe is not None:
            self.probes.append(self.probe())
        self._since = perf_counter()

    def end(self) -> float:
        """Close the last piece; returns the run's seconds of work."""
        self.pieces.append(perf_counter() - self._since)
        if self.probe is not None:
            self.probes.append(self.probe())
        return sum(self.pieces)

    def maybe_probe(self) -> float:
        """Probe if the current piece is long enough; returns the pause."""
        now = perf_counter()
        if now - self._since < self.every:
            return 0.0
        self.pieces.append(now - self._since)
        self.probes.append(self.probe())
        self._since = perf_counter()
        return self._since - now

    def install(self, patches: Patches) -> None:
        probing = self.probe is not None

        def make_run(orig):
            def run(stepper, f_of_t, g_of_t, on_step=None):
                paused = 0.0

                def load(t):
                    nonlocal paused
                    paused += self.maybe_probe()
                    return f_of_t(t)

                start = perf_counter()
                try:
                    return orig(stepper, load if probing else f_of_t, g_of_t,
                                on_step)
                finally:
                    self.seconds += perf_counter() - start - paused
                    system = stepper.sys
                    self.dof_steps += (system.n_v + system.n_q) * stepper.n_done
                    self.history_peak_bytes = max(
                        self.history_peak_bytes, _history_bytes(stepper.hist))
            return run

        patches.replace("memfem.volterra", "VolterraStepper.run", make_run)
        if not probing:
            return

        def make_milestone(orig):
            def call(*args, **kwargs):
                self.maybe_probe()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.maybe_probe()
            return call

        for module_name, path in MILESTONES:
            patches.replace(module_name, path, make_milestone)


def _history_bytes(hist) -> int:
    """Computed bytes of the stored history vectors (0 when not stored)."""
    if not getattr(hist, "store_full", False):
        return 0
    return sum(x.nbytes for which in ("u", "p") for x in hist.vectors(which))


class Tracer:
    """In-memory spans around the calls in ``TRACED`` plus two counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.lu_nnz = 0
        self.report_bytes = 0
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
        return traced

    def install(self, patches: Patches) -> None:
        for name, (module_name, path) in TRACED.items():
            patches.replace(module_name, path,
                            functools.partial(self._make, name))

    def _make(self, name: str, orig):
        traced = self.span(name, orig)
        if name == "volterra.run":
            def run(stepper, f_of_t, g_of_t, on_step=None):
                if on_step is not None:
                    layer = on_step.__module__.rpartition(".")[2]
                    on_step = self.span(f"{layer}.on_step", on_step)
                return traced(stepper, f_of_t, g_of_t, on_step)
            return run
        if name == "sparsela.factor":
            def factor(*args, **kwargs):
                fact = traced(*args, **kwargs)
                # nnz(L + U) of the SuperLU object the factorization wraps
                self.lu_nnz += getattr(getattr(fact, "_lu", None), "nnz", 0)
                return fact
            return factor
        if name == "cli.emit_report":
            def emit(*args, **kwargs):
                paths = traced(*args, **kwargs)
                self.report_bytes += sum(Path(p).stat().st_size
                                         for p in paths.values())
                return paths
            return emit
        return traced

    def layers(self) -> dict:
        """Per span name: [count, inclusive seconds, self seconds, in-run self]."""
        child = [0.0] * len(self.spans)
        in_run = [False] * len(self.spans)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
            in_run[sid] = name == "volterra.run" or (parent >= 0 and in_run[parent])
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for sid, parent, name, start, end in self.spans:
            row = out[name]
            own = end - start - child[sid]
            row[0] += 1
            row[1] += end - start
            row[2] += own
            if in_run[sid]:
                row[3] += own
        return out

    def metrics(self, meter: StepperMeter) -> dict:
        """Every per-layer metric except ``trace.overhead_frac``.

        ``_s`` metrics are self times, except ``volterra.run_s``,
        ``beam.reference_s``, ``kernels.creep_s`` and ``report.emit_s``,
        which include their callees.  ``accumulate_s`` is the self time of
        the ``on_step`` observer of ``LaplaceProblem.run`` or
        ``BeamProblem.run``.  Computed, not measured: ``sparsela.lu_nnz``
        (entries SuperLU stores, summed over the factorizations) and
        ``volterra.history_peak_bytes`` (stored history vectors of the
        largest stepper).
        """
        lay = self.layers()

        def count(name):
            return lay[name][0] if name in lay else 0

        def total(name):
            return lay[name][1] if name in lay else 0.0

        def own(*names):
            return sum(lay[n][2] for n in names if n in lay)

        solves = count("sparsela.solve")
        run_s = total("volterra.run")
        solve_in_run = lay["sparsela.solve"][3] if "sparsela.solve" in lay else 0.0
        return {
            "sparsela.solve_s": own("sparsela.solve"),
            "sparsela.solve_count": solves,
            "sparsela.factor_s": own("sparsela.factor"),
            "sparsela.factor_count": count("sparsela.factor"),
            "sparsela.factor_reuse":
                1.0 - count("sparsela.factor") / solves if solves else 0.0,
            "sparsela.lu_nnz": self.lu_nnz,
            "sparsela.estimate_s": own("sparsela.kernel_ellipticity",
                                       "sparsela.infsup_estimate",
                                       "sparsela.operator_norm_estimate"),
            "cli.norm_b_s": own("cli.operator_norm_b"),
            "cli.norms_s": own("cli.norms_add"),
            "volterra.run_s": run_s,
            "volterra.step_count": count("volterra.step"),
            "volterra.step_self_s": own("volterra.step"),
            "volterra.gammas_s": own("volterra.step_gammas"),
            "volterra.history_s": own("volterra.history_sum"),
            "volterra.history_count": count("volterra.history_sum"),
            "volterra.history_peak_bytes": meter.history_peak_bytes,
            "volterra.solve_share": solve_in_run / run_s if run_s else 0.0,
            "laplace_mem.accumulate_s": own("laplace_mem.on_step"),
            "laplace_mem.rhs_s": own("laplace_mem.rhs"),
            "beam.accumulate_s": own("beam.on_step"),
            "beam.rhs_s": own("beam.rhs"),
            "mesh.build_s": own("mesh.structured_unit_square",
                                "mesh.uniform_mesh1d"),
            "laplace_mem.assemble_s": own(
                "laplace_mem.rt0_space", "laplace_mem.assemble_rt0_mass",
                "laplace_mem.assemble_rt0_div", "laplace_mem.gram_hdiv",
                "laplace_mem.gram_p0"),
            "beam.assemble_s": own("beam.assemble_beam_a", "beam.assemble_beam_b",
                                   "beam.beam_rhs", "beam.beam_gram_v",
                                   "beam.beam_gram_q"),
            "beam.reference_s": total("beam.exact_reference"),
            "kernels.creep_s": total("kernels.creep_factor"),
            "report.emit_s": total("cli.emit_report"),
            "report.bytes": self.report_bytes,
        }

    def write_csv(self, path: Path, origin: float) -> None:
        """Spans as ``id,parent,name,start_s,end_s`` relative to ``origin``."""
        lines = ["id,parent,name,start_s,end_s"]
        lines += [f"{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}"
                  for sid, parent, name, start, end in self.spans]
        path.write_text("\n".join(lines) + "\n")
