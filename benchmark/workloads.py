"""The benchmark's workloads: fixed inputs, set-up, one checked run.

Every workload drives memfem through the calls a user makes: the two
studies through ``cli.run_study`` and ``cli.emit_report`` (what
``memfem convergence`` does), the certificate through
``cli.emit_certificate``, and the general-kernel run through
``beam.BeamProblem``.  memfem modules are imported inside the functions,
because the set-up measurement re-imports the package.

Each run returns an ``Outcome``: named pass/fail checks (any failure
fails the run) and information that is recorded but not checked.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# relative tolerance against the values recorded at the seed commit
RECORDED_RTOL = 1e-9
# relative tolerance of the scalar-factor identity x_n = s_n x_0
FACTOR_RTOL = 1e-12

LAPLACE_STUDY = ['problem="laplace"', 'kernel={"type": "fickian"}',
                 "delta=0.01", "T=1.0", "n_steps=2000", "levels=[8,16,32,64]"]
BEAM_PAPER = ['problem="beam"', 'profile="joined"', "d=0.001", "nu=0.35",
              f"ks={json.dumps(5.0 / 6.0)}", "T=15.0", "n_steps=5000",
              "levels=[20,40,80,160]", "ref_factor=64",
              'kernel={"type": "sls", "k1": 1.0, "k2": 1.0, "eta2": 1.0}']
CERTIFICATE = ['problem="laplace"', 'kernel={"type": "fickian"}', "delta=0.01",
               "m=24", "T=1.0", "n_steps=2000", "estimators=true"]

# acceptance rate windows: criterion 1 (Laplace) and criterion 3 (joined
# beam), which the beam meets at the paper's dt = 0.003
LAPLACE_WINDOWS = {("sigma", "e0"): (0.90, 1.05), ("u", "e0"): (0.90, 1.05)}
BEAM_WINDOWS = {("M", "e0"): (1.85, 2.10), ("V", "e0"): (1.85, 2.10),
                ("M", "e1"): (0.90, 1.05), ("V", "e1"): (0.90, 1.05),
                ("w", "e0"): (0.90, 1.10), ("beta", "e0"): (0.90, 1.10)}

# general_kernel: joined beam, SLS kernel times (1 + a sin(t + theta))
GENERAL_N, GENERAL_T, GENERAL_STEPS = 80, 15.0, 1500
GENERAL_A_RANGE = (0.25, 0.75)


@dataclass
class Outcome:
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _expected(workload: str) -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {})


def _close(value: float, recorded: float) -> bool:
    return math.isfinite(value) and \
        abs(value - recorded) <= RECORDED_RTOL * abs(recorded)


def _match_recorded(outcome: Outcome, workload: str, values: dict) -> None:
    recorded = _expected(workload)
    missing = sorted(set(values) ^ set(recorded))
    outcome.checks["recorded values present"] = not missing
    bad = [k for k in values if k in recorded
           and not all(map(_close, values[k], recorded[k]))]
    outcome.checks[f"values within {RECORDED_RTOL:g} of recorded"] = not bad
    if missing or bad:
        outcome.info["mismatch"] = {"missing": missing, "differ": bad}


# ---------------------------------------------------------------------------
# the two convergence studies
# ---------------------------------------------------------------------------

def study_setup(cfg: dict) -> None:
    """Every level's mesh and assembly, plus the beam's oracle reference."""
    from memfem import beam, cli
    from memfem.volterra import TimeGrid

    build = cli.build_beam_problem if cfg["problem"] == "beam" \
        else cli.build_laplace_problem
    probs = [build(cfg, level) for level in cfg["levels"]]
    if cfg["problem"] == "beam":
        coarse = probs[0]
        beam.beam_exact_reference(
            coarse.cfg, coarse.f_space, coarse.g_space,
            TimeGrid(T=float(cfg["T"]), n_steps=int(cfg["n_steps"])),
            coarse.kernel, e0=coarse.e0,
            n_ref=int(cfg["ref_factor"]) * max(cfg["levels"]))


def study_values(report) -> dict:
    """Every reported error, keyed ``field.norm``, one value per level."""
    return {f"{name}.{norm}": [row.errors[name][norm] for row in report.rows]
            for name in report.fields for norm in report.norms(name)}


def study_run(workload: str, windows: dict) -> Callable:
    def run(cfg: dict, span) -> Outcome:
        from memfem import cli

        report = cli.run_study(cfg)
        paths = cli.emit_report(report, cfg)
        out = Outcome()
        _match_recorded(out, workload, study_values(report))
        for (name, norm), (lo, hi) in windows.items():
            rates = report.rate_list(name, norm)
            out.checks[f"r{norm[-1]}({name}) in [{lo}, {hi}]"] = \
                bool(rates) and all(lo <= r <= hi for r in rates)
            out.info[f"r{norm[-1]}({name})"] = rates
        out.info["csv_sha256"] = hashlib.sha256(
            Path(paths["csv"]).read_bytes()).hexdigest()
        return out
    return run


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def certificate_setup(cfg: dict) -> None:
    from memfem import cli, laplace_mem

    prob = cli.build_laplace_problem(cfg, int(cfg["m"]))
    laplace_mem.gram_hdiv(prob.space)
    laplace_mem.gram_p0(prob.space)


def certificate_values(cert: dict) -> dict:
    """Estimates and constants of a certificate, each a one-item list."""
    values = {k: [cert[k]] for k in ("alpha0", "beta", "norm_a", "norm_b")}
    for group in ("stability", "error"):
        consts = cert[group]
        names = ("c1", "c2", "c3", "c4") if group == "stability" \
            else ("c1u", "c1p", "c2u", "c2p")
        values.update({f"{group}.{n}": [getattr(consts, n)] for n in names})
    return values


def certificate_run(cfg: dict, span) -> Outcome:
    from memfem import cli

    cert = cli.emit_certificate(cfg, stream=io.StringIO())
    out = Outcome()
    out.checks["slack >= 0"] = math.isfinite(cert["slack"]) and cert["slack"] >= 0.0
    _match_recorded(out, "certificate", certificate_values(cert))
    out.info["slack"] = cert["slack"]
    return out


# ---------------------------------------------------------------------------
# general (non-convolution) kernel
# ---------------------------------------------------------------------------

def general_params(seed: int) -> tuple:
    """(a, theta) of the general kernel, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(*GENERAL_A_RANGE)), float(rng.uniform(0.0, 2 * math.pi))


def general_kernel(a: float, theta: float):
    """SLS kernel c e^{-r(t-s)} times (1 + a sin(t + theta)), bound |c|(1+a)."""
    from memfem import MemoryKernel, PronySLS, beam_kernel

    base = beam_kernel(PronySLS(k1=1.0, k2=1.0, eta2=1.0))
    c, rate = base.c, base.rate

    def k(t, s):
        t = np.asarray(t, float)
        return c * np.exp(-rate * (t - np.asarray(s, float))) \
            * (1.0 + a * np.sin(t + theta))

    return MemoryKernel.from_callable(k, bound=abs(c) * (1.0 + a))


def scalar_factor(kernel, grid) -> np.ndarray:
    """Scalar trapezoid recurrence s_n on the stepper's grid.

    With only the constraint row loaded by a fixed vector and the kernel
    on that row, the stepper's solution is exactly x_n = s_n x_0 with
    s_0 = 1 and (1 - dt/2 k(t_n,t_n)) s_n = 1 + sum_{j<n} w_nj k(t_n,t_j) s_j.
    """
    times, dt = grid.times, grid.dt
    s = np.empty(grid.n_steps + 1)
    s[0] = 1.0
    for n in range(1, grid.n_steps + 1):
        w = np.full(n, dt)
        w[0] = 0.5 * dt
        k_row = np.asarray(kernel.eval(times[n], times[:n]), float)
        s[n] = (1.0 + np.dot(w * k_row, s[:n])) \
            / (1.0 - 0.5 * dt * float(kernel.eval(times[n], times[n])))
    return s


class FactorCheck:
    """Step observer: largest relative deviation of x_n from s_n x_0."""

    def __init__(self, s: np.ndarray):
        self.s = s
        self.steps = 0
        self.max_rel = 0.0
        self._x0 = None

    def __call__(self, n, t, u, p):
        x = np.concatenate([u, p])
        if n == 0:
            self._x0 = x
        dev = np.max(np.abs(x - self.s[n] * self._x0)) / np.max(np.abs(x))
        self.max_rel = max(self.max_rel, float(dev))
        self.steps += 1

    @property
    def ok(self) -> bool:
        return self.steps == len(self.s) and self.max_rel <= FACTOR_RTOL


def general_problem(kernel, n_elements: int = GENERAL_N):
    from memfem import beam

    return beam.BeamProblem(beam.joined_profile(d=0.001), n_elements, kernel,
                            1.0, np.exp, None)


def general_setup(cfg: dict) -> None:
    general_problem(general_kernel(cfg["a"], cfg["theta"]))


def general_run(cfg: dict, span) -> Outcome:
    from memfem.volterra import TimeGrid

    kernel = general_kernel(cfg["a"], cfg["theta"])
    grid = TimeGrid(T=GENERAL_T, n_steps=GENERAL_STEPS)
    check = FactorCheck(scalar_factor(kernel, grid))
    general_problem(kernel).run(grid, collect=span("bench.check", check))
    out = Outcome()
    out.checks[f"x_n = s_n x_0 to {FACTOR_RTOL:g} at every step"] = check.ok
    out.info.update(steps_checked=check.steps, max_rel=check.max_rel)
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def protocol(overrides: list) -> Callable:
    """Config of a fixed protocol given as ``memfem --set`` overrides."""
    def config(seed: int, out_dir: Path) -> dict:
        from memfem import cli

        return cli.load_config(None, overrides=overrides
                               + [f"output_dir={json.dumps(str(out_dir))}"])
    return config


def general_config(seed: int, out_dir: Path) -> dict:
    a, theta = general_params(seed)
    return {"a": a, "theta": theta}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable    # (seed, output dir) -> the run's inputs
    setup: Callable
    run: Callable
    seeded: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("laplace_study",
             "acceptance criterion 1: Laplace with memory at levels 8-64, "
             "2000 steps; the only large KKT (n = 20,608); solve and error "
             "accumulation each take about half",
             protocol(LAPLACE_STUDY), study_setup,
             study_run("laplace_study", LAPLACE_WINDOWS)),
    Workload("beam_paper",
             "joined beam at paper scale (levels 20-160, 5000 steps); small "
             "KKT, so per-step Python overhead, O(N^2) time-grid rebuilds and "
             "the oracle reference dominate",
             protocol(BEAM_PAPER), study_setup,
             study_run("beam_paper", BEAM_WINDOWS)),
    Workload("general_kernel",
             "non-convolution kernel from the seed: a new LU every step and "
             "the direct history sum, the paths the other workloads bypass",
             general_config, general_setup, general_run, seeded=True),
    Workload("certificate",
             "Laplace certificate, m = 24, T = 1: the dense estimators and run "
             "norms; the default beam certificate (T = 15) dies with an "
             "OverflowError, exit 1",
             protocol(CERTIFICATE), certificate_setup, certificate_run),
)}
