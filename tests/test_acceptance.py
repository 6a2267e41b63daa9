"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the convergence tables.  The heavy studies (criteria 1-6) are shared
through session-scoped fixtures; the whole suite stays inside the
stated runtime budgets on a desktop-class machine.
"""

import io
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.integrate

from memfem import beam as beam_mod
from memfem import laplace_mem as laplace_mod
from memfem.cli import emit_certificate, load_config, run_study
from memfem.kernels import (
    MemoryKernel,
    PronySLS,
    beam_kernel,
    creep_factor,
)
from memfem.sparsela import infsup_estimate, kernel_ellipticity
from memfem.volterra import TimeGrid, audit, dense_load

EXP_LOAD = lambda x: np.exp(x)


def gate(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def fmt_rates(rates):
    return "[" + ", ".join(f"{r:.3f}" for r in rates) + "]"


# ---------------------------------------------------------------------------
# shared studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def laplace_study():
    cfg = load_config(None, overrides=['problem="laplace"'])
    assert cfg["levels"] == [8, 16, 32, 64]
    assert cfg["T"] == 1.0 and cfg["n_steps"] == 2000 and cfg["delta"] == 0.01
    started = time.perf_counter()
    report = run_study(cfg)
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="session")
def laplace_probe_run():
    grid = TimeGrid(T=1.0, n_steps=2000)
    prob = laplace_mod.LaplaceProblem(32, delta=0.01)
    cell = laplace_mod.probe_cell_index(prob.m, (0.5, 0.5))
    probe = np.empty(grid.n_steps + 1)

    def read_probe(n, t, sig, u):
        probe[n] = u[cell]

    prob.run(grid, collect=read_probe)
    return grid, prob, probe


def beam_study(profile):
    overrides = ['levels=[20,40,80,160]']
    if profile == "smooth":
        overrides.append('profile="smooth"')
    cfg = load_config(None, overrides=overrides)
    assert cfg["T"] == 15.0 and cfg["n_steps"] == 1500  # dt = 0.01
    assert cfg["d"] == 0.001
    started = time.perf_counter()
    report = run_study(cfg)
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="session")
def beam_joined_study():
    return beam_study("joined")


@pytest.fixture(scope="session")
def beam_smooth_study():
    return beam_study("smooth")


def in_window(rates, lo, hi):
    return all(lo <= r <= hi for r in rates)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_laplace_rates(laplace_study):
    report, elapsed = laplace_study
    r_sigma = report.rate_list("sigma", "e0")
    r_u = report.rate_list("u", "e0")
    detail = (f"r0(sigma)={fmt_rates(r_sigma)} r0(u)={fmt_rates(r_u)} "
              f"runtime={elapsed:.0f}s")
    ok = (in_window(r_sigma, 0.90, 1.05) and in_window(r_u, 0.90, 1.05)
          and elapsed < 180.0)
    gate("1 (laplace rates)", ok, detail)


def test_criterion_2_laplace_probe(laplace_probe_run, tmp_path):
    grid, prob, probe = laplace_probe_run
    exact = 0.0625 * np.cos(grid.times)
    dev = float(np.max(np.abs(probe - exact)))
    envelope = 5.0 * (prob.h ** 2 + grid.dt)
    lines = ["t,u_h,u_exact"] + [
        "%.6e,%.6e,%.6e" % (t, probe[n], exact[n])
        for n, t in enumerate(grid.times)]
    (tmp_path / "probe.csv").write_text("\n".join(lines) + "\n")
    gate("2 (laplace probe)", dev <= envelope,
         f"max|u_h(0.5,0.5,t) - 0.0625 cos t| = {dev:.3e} <= {envelope:.3e}")


def beam_rate_gates(report):
    r0_m = report.rate_list("M", "e0")
    r0_v = report.rate_list("V", "e0")
    r1_m = report.rate_list("M", "e1")
    r1_v = report.rate_list("V", "e1")
    r0_w = report.rate_list("w", "e0")
    r0_b = report.rate_list("beta", "e0")
    checks = {
        "r0(M) in [1.85,2.10]": in_window(r0_m, 1.85, 2.10),
        "r0(V) in [1.85,2.10]": in_window(r0_v, 1.85, 2.10),
        "r1(M) in [0.90,1.05]": in_window(r1_m, 0.90, 1.05),
        "r1(V) in [0.90,1.05]": in_window(r1_v, 0.90, 1.05),
        "r0(w) in [0.90,1.10]": in_window(r0_w, 0.90, 1.10),
        "r0(beta) in [0.90,1.10]": in_window(r0_b, 0.90, 1.10),
    }
    detail = (f"r0(M)={fmt_rates(r0_m)} r0(V)={fmt_rates(r0_v)} "
              f"r1(M)={fmt_rates(r1_m)} r1(V)={fmt_rates(r1_v)} "
              f"r0(w)={fmt_rates(r0_w)} r0(beta)={fmt_rates(r0_b)}")
    return checks, detail


def test_criterion_3_beam_joined_rates(beam_joined_study):
    report, elapsed = beam_joined_study
    checks, detail = beam_rate_gates(report)
    checks[f"runtime {elapsed:.0f}s < 300s"] = elapsed < 300.0
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        # supporting evidence: the identical pipeline at the original
        # experiment's step size (dt = 0.003) sits comfortably inside
        # every window; the desk-scale dt = 0.01 pinned by this
        # criterion leaves a trapezoid time bias that pushes the V
        # rates just above 2.10
        cfg = load_config(None, overrides=['levels=[20,40,80,160]',
                                           'n_steps=5000'])
        fine = run_study(cfg)
        _, fine_detail = beam_rate_gates(fine)
        print(f"  [evidence] dt=0.003 protocol: {fine_detail}")
    gate("3 (beam joined rates)", not failed,
         detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_beam_smooth_rates(beam_smooth_study):
    report, elapsed = beam_smooth_study
    checks, detail = beam_rate_gates(report)
    checks[f"runtime {elapsed:.0f}s < 300s"] = elapsed < 300.0
    failed = [name for name, ok in checks.items() if not ok]
    gate("4 (beam smooth rates)", not failed,
         detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_5_locking_freeness():
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    grid = TimeGrid(T=15.0, n_steps=1500)
    rel = {}
    for d in (1e-1, 1e-2, 1e-3, 1e-4):
        cfg = beam_mod.joined_profile(d=d)
        ref = beam_mod.beam_exact_reference(cfg, EXP_LOAD, None, grid, kern,
                                            n_ref=64 * 40)
        mesh = beam_mod.beam_mesh(cfg, 40)
        norms = beam_mod.beam_reference_norms(ref, grid, mesh)
        prob = beam_mod.BeamProblem(cfg, 40, kern, 1.0, EXP_LOAD, None)
        errs, _ = prob.run(grid, reference=ref)
        rel[d] = {(f, n): errs[f][n] / norms[f][n]
                  for f in errs for n in errs[f]}
    worst = 0.0
    worst_key = None
    for key in rel[1e-1]:
        vals = [rel[d][key] for d in (1e-1, 1e-2, 1e-3, 1e-4)]
        spread = max(vals) / min(vals) - 1.0
        if spread > worst:
            worst, worst_key = spread, key
    gate("5 (locking-freeness)", worst < 0.10,
         f"worst pairwise relative-error variation {100 * worst:.2f}% "
         f"on {worst_key} across d in {{1e-1..1e-4}} at n=40")


def test_criterion_6_weak_norm_consequence(beam_joined_study,
                                           beam_smooth_study):
    ok = True
    details = []
    for label, (report, _) in (("joined", beam_joined_study),
                               ("smooth", beam_smooth_study)):
        r0 = report.rate_list("M", "e0")
        r1 = report.rate_list("M", "e1")
        ok = ok and in_window(r0, 1.85, 2.10) and in_window(r1, 0.90, 1.05)
        details.append(f"{label}: r0(M)={fmt_rates(r0)} r1(M)={fmt_rates(r1)}")
    gate("6 (rate-2 vs rate-1 consequence)", ok, "; ".join(details))


def test_criterion_7_oracle_gates():
    # creep oracle residual and closed form
    grid = TimeGrid(T=5.0, n_steps=500)
    phi = creep_factor(beam_kernel(PronySLS(1.0, 1.0, 1.0)), grid)
    ok_res = phi.residual < 1e-10
    exact = 2.0 / 3.0 + np.exp(-3.0 * grid.times) / 3.0
    dev_closed = float(np.max(np.abs(phi.samples - exact)))
    # independent high-resolution quadrature oracle for the same kernel
    k = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    wrapped = MemoryKernel.from_callable(k.eval, bound=k.bound)
    phi_quad = creep_factor(wrapped, grid)
    dev_quad = float(np.max(np.abs(phi.samples - phi_quad.samples)))
    # manufactured-load memory integral against adaptive quadrature
    man = laplace_mod.ManufacturedSolution(0.01)
    worst_integral = 0.0
    for t in (0.1, 0.7, 1.0):
        ref, quad_err = scipy.integrate.quad(
            lambda v: math.exp(-v) * math.cos(t - 0.01 * v),
            0.0, 100.0 * t, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert quad_err < 1e-12
        worst_integral = max(worst_integral,
                             abs(float(man.memory_integral(t)) - ref))
    ok = (ok_res and dev_closed < 1e-8 and dev_quad < 1e-8
          and worst_integral < 1e-12)
    gate("7 (oracle gates)", ok,
         f"creep residual={phi.residual:.2e}, closed-form dev={dev_closed:.2e}, "
         f"quadrature dev={dev_quad:.2e}, memory-integral dev={worst_integral:.2e}")


def test_criterion_8_structural_properties():
    details = []

    # zero-kernel reduction for both drivers
    worst_zero = 0.0
    grid = TimeGrid(T=0.5, n_steps=10)
    lp = laplace_mod.LaplaceProblem(4, delta=None)
    fact = lp.system.saddle
    states = []
    lp.run(grid, collect=lambda n, t, s, u: states.append((t, s, u)))
    for t, sig, u in states:
        sig_ref, u_ref = fact.solve(dense_load(lp.system.zero_load([t]))[:, 0],
                                    dense_load(lp.rhs([t]))[:, 0])
        scale = max(np.max(np.abs(sig_ref)), np.max(np.abs(u_ref)))
        worst_zero = max(worst_zero,
                         np.max(np.abs(sig - sig_ref)) / scale,
                         np.max(np.abs(u - u_ref)) / scale)
    bp = beam_mod.BeamProblem(beam_mod.joined_profile(0.001), 8, None, 1.0,
                              EXP_LOAD, None)
    bfact = bp.system.saddle
    bstates = []
    bp.run(grid, collect=lambda n, t, u, p: bstates.append((t, u, p)))
    for t, u, p in bstates:
        u_ref, p_ref = bfact.solve(dense_load(bp.system.zero_load([t]))[:, 0],
                                   dense_load(bp.rhs([t]))[:, 0])
        scale = max(np.max(np.abs(u_ref)), np.max(np.abs(p_ref)))
        worst_zero = max(worst_zero,
                         np.max(np.abs(u - u_ref)) / scale,
                         np.max(np.abs(p - p_ref)) / scale)
    details.append(f"zero-kernel dev={worst_zero:.2e}")
    ok = worst_zero <= 1e-12

    # the blocked run against its kernel in direct form over 200 steps
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    prob = beam_mod.BeamProblem(beam_mod.joined_profile(0.001), 20, kern,
                                1.0, EXP_LOAD, None)
    steps, deviation = audit(prob.system, TimeGrid(T=2.0, n_steps=200),
                             prob.system.zero_load, prob.rhs)
    details.append(f"audit dev={deviation:.2e} over {steps} steps")
    ok = ok and steps >= 200 and deviation <= 1e-12

    # inf-sup and ellipticity stability across three refinements
    for driver, levels in (("beam", (8, 16, 32)), ("laplace", (4, 8, 16))):
        betas, alphas = [], []
        for level in levels:
            if driver == "beam":
                cfgb = beam_mod.joined_profile(0.001)
                mesh = beam_mod.beam_mesh(cfgb, level)
                a = beam_mod.assemble_beam_a(cfgb, mesh)
                b = beam_mod.assemble_beam_b(mesh)
                gv = beam_mod.beam_gram_v(mesh)
                gq = beam_mod.beam_gram_q(mesh)
            else:
                lpp = laplace_mod.LaplaceProblem(level, delta=0.01)
                a, b = lpp.system.a, lpp.system.b
                gv = laplace_mod.gram_hdiv(lpp.space)
                gq = laplace_mod.gram_p0(lpp.space)
            betas.append(infsup_estimate(gv, gq, b))
            alphas.append(kernel_ellipticity(a, b, gv))
            if driver == "beam":
                ok = ok and b.shape[1] - b.shape[0] == 2
        spread_b = max(betas) / min(betas) - 1.0
        spread_a = max(alphas) / min(alphas) - 1.0
        details.append(f"{driver}: beta spread {100 * spread_b:.2f}%, "
                       f"alpha spread {100 * spread_a:.2f}%")
        ok = ok and spread_b < 0.10 and spread_a < 0.10
    details.append("beam null(B) dim = 2")

    gate("8 (structural properties)", ok, "; ".join(details))


def test_criterion_9_certificate_slack():
    slacks = []
    for overrides in (
            ['problem="laplace"', "m=8", "n_steps=500", "T=1.0"],
            ["n_elements=20", "n_steps=100", "T=1.0"],
            ['profile="smooth"', "n_elements=20", "n_steps=100", "T=1.0"]):
        cfg = load_config(None, overrides=overrides)
        out = emit_certificate(cfg, stream=io.StringIO())
        slacks.append(out["slack"])
    ok = all(np.isfinite(s) and s >= 0.0 for s in slacks)
    gate("9 (certificate slack)", ok,
         "slacks = " + ", ".join(f"{s:.3e}" for s in slacks))


def test_criterion_10_stability_gate_exit_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "memfem", "run", "--set", 'problem="laplace"',
         "--set", "m=4", "--set", "T=0.9", "--set", "n_steps=30",
         "--set", f'output_dir="{tmp_path}"'],
        capture_output=True, text=True)
    ok = proc.returncode == 4 and "dt too large" in proc.stderr \
        and "2/C_k" in proc.stderr
    gate("10 (stability gate exit code)", ok,
         f"exit={proc.returncode}, message={proc.stderr.strip()!r}")
