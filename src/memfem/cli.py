"""Command line driver: single runs, convergence studies, stability
certificates, and audits of a run against its kernels in direct form.

Configuration is a single JSON document; individual keys can be
overridden on the command line with ``--set key=value`` (dotted paths
reach into the kernel block, values parsed as JSON when possible).

Exit codes: 0 success, 2 configuration error, 3 solver or estimator
failure, a violated certificate bound or an audit deviation above
1e-12, 4 time-step stability gate violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import beam as beam_mod
from . import laplace_mem as laplace_mod
from .errors import (
    ConfigError,
    EstimatorError,
    MemfemError,
    OracleError,
    SaddleSolverError,
    StabilityGateError,
)
from .kernels import MemoryKernel, PronySLS, beam_kernel
from .report import ConvergenceReport, LevelRow, render_csv, render_markdown, render_svg
from .sparsela import (infsup_estimate, kernel_ellipticity, operator_norm_b,
                       operator_norm_estimate)
from .volterra import (L1NormAccumulator, TimeGrid, VolterraStepper, audit,
                       dense_load, error_constants, stability_constants)

__all__ = ["main", "load_config", "run_study", "emit_report", "emit_certificate"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GATE = 4
AUDIT_TOL = 1e-12       # the largest relative deviation an audit passes


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path=None, overrides=(), paper_scale: bool = False) -> dict:
    """Merge defaults, the JSON document, and --set overrides."""
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    def effective(key, default):
        value = doc.get(key, default)
        for item in overrides:
            if item.startswith(f"{key}="):
                value = _parse_value(item.partition("=")[2])
        return value

    problem = effective("problem", "beam")
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r} (beam or laplace)")
    driver = PROBLEMS[problem]
    cfg = {"problem": problem, "output_dir": "out", "emit_svg": False,
           **json.loads(json.dumps(driver.defaults))}
    kernel_given = "kernel" in doc or any(o.startswith("kernel") for o in overrides)
    if problem == "beam" and effective("profile", "joined") == "smooth" \
            and not kernel_given:
        # printed relaxation modulus E(t) = 0.5 (1 + e^{-t}): dE/dt/E(0)
        cfg["kernel"] = {"type": "custom_exp", "c": -0.5, "rate": 1.0, "e0": 1.0}
    cfg.update(doc)
    if paper_scale:
        cfg.update(driver.full_scale)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        target = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through scalar key {part!r}")
        target[parts[-1]] = _parse_value(raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    def need(key, types, positive=False):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
        val = cfg[key]
        if not isinstance(val, types) or isinstance(val, bool):
            raise ConfigError(f"config key {key!r} has wrong type {type(val).__name__}")
        if positive and not val > 0:
            raise ConfigError(f"config key {key!r} must be positive, got {val}")
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"config key {key!r} must be finite")

    need("T", (int, float), positive=True)
    need("n_steps", int, positive=True)
    if not isinstance(cfg.get("output_dir", "out"), str):
        raise ConfigError("config key 'output_dir' must be a path string")
    if not isinstance(cfg.get("emit_svg", False), bool):
        raise ConfigError("config key 'emit_svg' must be true or false")
    levels = cfg.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ConfigError("config key 'levels' must be a non-empty list")
    if any(not isinstance(l, int) or isinstance(l, bool) or l < 1
           for l in levels):
        raise ConfigError("mesh levels must be positive integers")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("mesh levels must be strictly refining")
    kernel = cfg.get("kernel")
    if not isinstance(kernel, dict) or "type" not in kernel:
        raise ConfigError("config key 'kernel' must be an object with a type")
    if kernel["type"] not in ("sls", "fickian", "custom_exp", "none"):
        raise ConfigError(f"unknown kernel type {kernel['type']!r}")
    if "delta" in kernel:
        raise ConfigError("the kernel block takes no 'delta': the laplace "
                          "problem's memory is set by the top-level 'delta'")
    if cfg["problem"] == "beam":
        need("d", (int, float), positive=True)
        need("nu", (int, float))
        need("ks", (int, float), positive=True)
        need("n_elements", int, positive=True)
        if cfg.get("profile") not in ("joined", "smooth"):
            raise ConfigError(f"unknown beam profile {cfg.get('profile')!r}")
    else:
        need("delta", (int, float), positive=True)
        need("m", int, positive=True)
        probe = cfg.get("probe")
        if probe is not None:
            # the comparisons also reject NaN and infinities
            if (not isinstance(probe, list) or len(probe) != 2
                    or not all(isinstance(c, (int, float))
                               and not isinstance(c, bool) and 0 <= c <= 1
                               for c in probe)):
                raise ConfigError(
                    f"probe must be a point of the unit square, got {probe!r}")


def config_hash(cfg: dict) -> str:
    payload = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def build_kernel(cfg: dict):
    """Memory kernel and E(0) divisor of the beam from the kernel block."""
    spec = cfg["kernel"]
    kind = spec["type"]
    if kind == "none":
        return None, 1.0
    for key in ("k1", "k2", "eta2", "c", "rate", "e0"):
        if isinstance(spec.get(key), bool):     # float(True) reads 1.0
            raise ConfigError(f"kernel key {key!r} must be a number")
    if kind == "sls":
        try:
            sls = PronySLS(k1=float(spec.get("k1", 1.0)),
                           k2=float(spec.get("k2", 1.0)),
                           eta2=float(spec.get("eta2", 1.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return beam_kernel(sls), sls.e0
    if kind == "custom_exp":
        for key in ("c", "rate"):
            if key not in spec:
                raise ConfigError(f"custom_exp kernel needs key {key!r}")
        try:
            kern = MemoryKernel.exp_convolution(float(spec["c"]),
                                                float(spec["rate"]))
            e0 = float(spec.get("e0", 1.0))
            if not 0.0 < e0 < math.inf:
                raise ValueError(f"e0={e0!r} must be positive and finite")
            return kern, e0
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad custom_exp kernel: {exc}") from exc
    raise ConfigError("fickian kernels apply to the laplace problem")


def build_beam_problem(cfg: dict, n_elements: int):
    try:
        if cfg["profile"] == "joined":
            bc = beam_mod.joined_profile(d=float(cfg["d"]), nu=float(cfg["nu"]),
                                         ks=float(cfg["ks"]))
        else:
            bc = beam_mod.smooth_profile(nu=float(cfg["nu"]), ks=float(cfg["ks"]))
        kernel, e0 = build_kernel(cfg)
        return beam_mod.BeamProblem(bc, n_elements, kernel, e0, np.exp, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_laplace_problem(cfg: dict, m: int):
    if cfg["kernel"]["type"] not in ("fickian", "none"):
        raise ConfigError(
            "the laplace driver's manufactured data supports kernel types "
            f"'fickian' and 'none', got {cfg['kernel']['type']!r}")
    delta = None if cfg["kernel"]["type"] == "none" else float(cfg["delta"])
    return laplace_mod.LaplaceProblem(m, delta)


class Driver(NamedTuple):
    """How the CLI builds a problem, and the problem's configuration."""

    build: Callable     # (cfg, mesh size) -> problem
    size: str           # config key of the single-run mesh size
    defaults: dict      # desk-scale defaults
    full_scale: dict    # the paper's full-scale protocol


PROBLEMS = {
    "beam": Driver(build_beam_problem, "n_elements", {
        "profile": "joined", "d": 0.001, "nu": 0.35, "ks": 5.0 / 6.0,
        "T": 15.0, "n_steps": 1500, "n_elements": 40,
        "levels": [20, 40, 80, 160],
        "kernel": {"type": "sls", "k1": 1.0, "k2": 1.0, "eta2": 1.0}},
        {"T": 15.0, "n_steps": 5000}),
    "laplace": Driver(build_laplace_problem, "m", {
        "delta": 0.01, "T": 1.0, "n_steps": 2000, "m": 32,
        "levels": [8, 16, 32, 64], "probe": [0.5, 0.5],
        "kernel": {"type": "fickian"}},
        {"T": 4.5, "n_steps": 3000}),
}


class RunNorms:
    """Trapezoid-in-time L1 norms of a run: solution and dual load data.

    ``add`` is the stepper's observer, and ``states`` the
    :class:`~memfem.volterra.L1NormAccumulator` of ``u`` in the V Gram and
    ``p`` in the Q Gram that it feeds.  ``add_load`` takes the constraint
    row's block loads (arrays or pairs) in node order, as the stepper
    requests them.  The Q Gram must be diagonal, as both drivers' are.
    """

    def __init__(self, gram_v, gram_q, grid: TimeGrid):
        gram_q = sp.csr_matrix(gram_q)
        self._gq_diag = gram_q.diagonal()
        if abs(gram_q - sp.diags(self._gq_diag)).max() != 0.0:
            raise ValueError("RunNorms needs a diagonal Q Gram")
        n_v, n_q = gram_v.shape[0], len(self._gq_diag)
        eye = sp.identity(n_v + n_q, format="csr")
        self.states = L1NormAccumulator(grid, np.zeros_like, {
            ("u", "V"): (eye[:n_v], sp.csr_matrix(gram_v), np.zeros(n_v)),
            ("p", "Q"): (eye[n_v:], self._gq_diag, np.zeros(n_q))})
        self.weights = grid.weights
        self.g_dual_l1 = 0.0
        self._loads = 0

    def add(self, n: int, times, u, p, basis):
        self.states.add(n, u, p, basis)

    def add_load(self, g):
        g = dense_load(g)
        w = self.weights[self._loads:self._loads + g.shape[1]]
        self._loads += g.shape[1]
        self.g_dual_l1 += w @ np.sqrt(
            np.einsum("ij,ij->j", g, g / self._gq_diag[:, None]))


def _single_problem(cfg: dict):
    driver = PROBLEMS[cfg["problem"]]
    return driver.build(cfg, int(cfg[driver.size]))


def run_study(cfg: dict) -> ConvergenceReport:
    """Assemble, step, and measure every mesh level of the study against
    the oracle of the coarsest level."""
    grid = TimeGrid(T=float(cfg["T"]), n_steps=int(cfg["n_steps"]))
    levels = cfg["levels"]
    build = PROBLEMS[cfg["problem"]].build
    coarse = build(cfg, levels[0])
    reference = coarse.reference(grid, levels[-1])
    rows = []

    def report():
        return ConvergenceReport(fields=coarse.FIELDS, rows=rows,
                                 problem=cfg["problem"],
                                 config_hash=config_hash(cfg))

    for level in levels:
        try:
            prob = coarse if level == levels[0] else build(cfg, level)
            errors, _ = prob.run(grid, reference=reference)
            rows.append(LevelRow(dofs=prob.dofs, h=prob.h, errors=errors))
        except MemfemError as exc:
            if rows:
                emit_report(report(), cfg, suffix="_partial")
            raise type(exc)(f"level {level}: {exc}") from exc
    return report()


def _write_outputs(cfg: dict, texts: dict) -> Path:
    """Write ``{file name: text}`` into the output directory, creating it;
    returns the directory.  Failing to write is a configuration error."""
    out_dir = Path(cfg.get("output_dir", "out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return out_dir


def emit_report(report: ConvergenceReport, cfg: dict, suffix: str = ""):
    """Write CSV and Markdown (and optionally SVG); returns the paths."""
    base = f"{report.problem}_convergence{suffix}"
    texts = {"csv": render_csv(report), "md": render_markdown(report)}
    if cfg.get("emit_svg"):
        texts["svg"] = render_svg(report)
    out_dir = _write_outputs(
        cfg, {f"{base}.{ext}": text for ext, text in texts.items()})
    return {ext: out_dir / f"{base}.{ext}" for ext in texts}


def emit_certificate(cfg: dict, stream=None) -> dict:
    """Run one level, estimate the constants, and check the bound.

    Returns a dict with the estimates, the constants, the measured
    discrete norms, and the inequality slack (nonnegative when the
    stability bound holds for the run).
    """
    stream = stream or sys.stdout
    grid = TimeGrid(T=float(cfg["T"]), n_steps=int(cfg["n_steps"]))
    prob = _single_problem(cfg)
    gram_v, gram_q = prob.grams()
    system = prob.system
    alpha0 = kernel_ellipticity(system.a, system.b, gram_v)
    beta = infsup_estimate(gram_v, gram_q, system.b)
    norm_a = operator_norm_estimate(system.a, gram_v)
    null_dim = system.n_v - system.n_q

    # constants first: a bound that overflows fails before the run
    kern = prob.kernel
    c_k = kern.bound if kern is not None else 0.0
    T = grid.T
    stab = stability_constants(alpha0, beta, norm_a, c_k1=0.0, c_k2=0.0,
                               c_k3=c_k, c_ktilde=c_k, T=T)
    norm_b = operator_norm_b(system.b, gram_v, gram_q)
    err = error_constants(alpha0, beta, norm_a, norm_b, c_k1=0.0, c_k2=0.0,
                          c_k3=c_k, c_ktilde=c_k, T=T)

    norms = RunNorms(gram_v, gram_q, grid)

    def measured_load(times):
        # the dual norms take each load block as the stepper requests it
        g = prob.rhs(times)
        norms.add_load(g)
        return g

    VolterraStepper(system, grid).run(system.zero_load, measured_load,
                                      on_step=norms.add)

    f_dual_l1 = 0.0     # f is zero_load: both drivers load only row 2
    run = norms.states.result()
    u_l1, p_l1 = run["u"]["V"], run["p"]["Q"]
    lhs = u_l1 + p_l1
    rhs = (stab.c1 + stab.c3) * f_dual_l1 \
        + (stab.c2 + stab.c4) * norms.g_dual_l1
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise EstimatorError(
            f"the run norms are not finite (lhs={lhs:.6e}, rhs={rhs:.6e}): "
            "no bound was checked")
    slack = rhs - lhs

    print(f"stability certificate: {cfg['problem']} "
          f"(T={T:g}, n_steps={grid.n_steps})", file=stream)
    print(f"  estimates: alpha0={alpha0:.6e} beta={beta:.6e} "
          f"norm_a={norm_a:.6e} norm_b={norm_b:.6e} C_k={c_k:.6e}",
          file=stream)
    print(f"  null(B) dimension: {null_dim}", file=stream)
    print(f"  constants: C1={stab.c1:.6e} C2={stab.c2:.6e} "
          f"C3={stab.c3:.6e} C4={stab.c4:.6e}", file=stream)
    print(f"  starred:   C1*={err.c1s:.6e} C2*={err.c2s:.6e} "
          f"C3*={err.c3s:.6e} C4*={err.c4s:.6e}", file=stream)
    print(f"  error:     C1u={err.c1u:.6e} C1p={err.c1p:.6e} "
          f"C2u={err.c2u:.6e} C2p={err.c2p:.6e}", file=stream)
    print(f"  norms: |u|_L1(V)={u_l1:.6e} |p|_L1(Q)={p_l1:.6e} "
          f"|f|_L1(V')={f_dual_l1:.6e} |g|_L1(Q')={norms.g_dual_l1:.6e}",
          file=stream)
    print(f"  bound: lhs={lhs:.6e} rhs={rhs:.6e} slack={slack:.6e} "
          f"({'OK' if slack >= 0 else 'VIOLATED'})", file=stream)
    return {"alpha0": alpha0, "beta": beta, "norm_a": norm_a,
            "norm_b": norm_b, "c_k": c_k, "stability": stab, "error": err,
            "lhs": lhs, "rhs": rhs, "slack": slack, "null_dim": null_dim}


def _cmd_run(cfg: dict) -> int:
    grid = TimeGrid(T=float(cfg["T"]), n_steps=int(cfg["n_steps"]))
    write = functools.partial(_write_outputs, cfg)
    print(_single_problem(cfg).write_run(grid, cfg, write))
    return EXIT_OK


def _cmd_convergence(cfg: dict) -> int:
    report = run_study(cfg)
    paths = emit_report(report, cfg)
    print(render_markdown(report))
    print(f"report written to {paths['csv']}")
    return EXIT_OK


def _cmd_certificate(cfg: dict) -> int:
    import io
    buf = io.StringIO()
    out = emit_certificate(cfg, stream=buf)
    text = buf.getvalue()
    sys.stdout.write(text)
    _write_outputs(cfg, {"certificate.txt": text})
    return EXIT_OK if out["slack"] >= 0.0 else EXIT_SOLVER


def _cmd_audit(cfg: dict) -> int:
    grid = TimeGrid(T=float(cfg["T"]), n_steps=int(cfg["n_steps"]))
    prob = _single_problem(cfg)
    steps, deviation = audit(prob.system, grid, prob.system.zero_load,
                             prob.rhs)
    print(f"audited {steps} steps: max relative deviation between "
          f"recurrence and direct-form states = {deviation:.3e}")
    return EXIT_OK if deviation <= AUDIT_TOL else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memfem",
        description="Mixed finite elements for saddle-point Volterra systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "single simulation with probe/field CSV output"),
            ("convergence", "mesh refinement study and rate report"),
            ("certificate", "stability constants and bound check"),
            ("audit", "compare a run with its kernels in direct form; "
                      "exit 3 above a relative deviation of 1e-12")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a configuration key")
        cmd.add_argument("--paper-scale", action="store_true",
                         help="full-scale experiment protocols instead of "
                              "the desk-scale defaults")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "convergence": _cmd_convergence,
                "certificate": _cmd_certificate, "audit": _cmd_audit}
    try:
        cfg = load_config(args.config, overrides=args.set,
                          paper_scale=args.paper_scale)
        if args.command != "audit":
            # an unwritable output directory fails before any work
            _write_outputs(cfg, {})
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityGateError as exc:
        print(f"stability gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (SaddleSolverError, EstimatorError, OracleError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
