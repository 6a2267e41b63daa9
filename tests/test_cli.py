import json
import math
import subprocess
import sys

import numpy as np
import pytest

from memfem.cli import (
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_OK,
    EXIT_SOLVER,
    PROBLEMS,
    build_kernel,
    config_hash,
    emit_certificate,
    emit_report,
    load_config,
    run_study,
)
from memfem.errors import ConfigError, SaddleSolverError
from memfem.volterra import TimeGrid


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "memfem", *args],
                          capture_output=True, text=True)
    return proc


def small_laplace(tmp_path, **extra):
    cfg = {"problem": "laplace", "T": 0.05, "n_steps": 50, "m": 4,
           "levels": [2, 4], "output_dir": str(tmp_path)}
    cfg.update(extra)
    return cfg


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "laplace", "m": 8}))
    cfg = load_config(path, overrides=["n_steps=123", "kernel.type=\"none\""])
    assert cfg["m"] == 8
    assert cfg["delta"] == 0.01          # default preserved
    assert cfg["n_steps"] == 123
    assert cfg["kernel"]["type"] == "none"


def test_load_config_paper_scale():
    cfg = load_config(None, overrides=["problem=\"laplace\""], paper_scale=True)
    assert cfg["T"] == 4.5 and cfg["n_steps"] == 3000
    beam = load_config(None, paper_scale=True)
    assert beam["n_steps"] == 5000


def test_smooth_profile_default_kernel(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "beam", "profile": "smooth"}))
    cfg = load_config(path)
    assert cfg["kernel"]["type"] == "custom_exp"
    assert cfg["kernel"]["c"] == -0.5 and cfg["kernel"]["rate"] == 1.0


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["levels=[8,4]"])      # not refining
    with pytest.raises(ConfigError):
        load_config(None, overrides=["T=-1"])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["kernel.type=\"weird\""])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["problem=\"heat\""])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["profile=\"taper\""])
    for bools in ('levels=[true,2]', 'levels=[1,true]', 'probe=[true,0.5]',
                  'probe=[0.5,false]'):
        # JSON booleans are ints to Python; no level or coordinate is one
        with pytest.raises(ConfigError):
            load_config(None, overrides=['problem="laplace"', bools])


def test_config_hash_deterministic():
    a = load_config(None)
    b = load_config(None)
    assert config_hash(a) == config_hash(b)
    c = load_config(None, overrides=["d=0.01"])
    assert config_hash(a) != config_hash(c)


def test_build_kernel_variants():
    cfg = load_config(None)
    kern, e0 = build_kernel(cfg)
    assert kern.is_exp and e0 == 1.0
    cfg["kernel"] = {"type": "none"}
    assert build_kernel(cfg) == (None, 1.0)
    cfg["kernel"] = {"type": "custom_exp", "c": -0.5, "rate": 1.0}
    kern, e0 = build_kernel(cfg)
    assert kern.c == -0.5 and e0 == 1.0
    cfg["kernel"] = {"type": "custom_exp"}
    with pytest.raises(ConfigError):
        build_kernel(cfg)
    for k1 in (-1.0, None, [1], {"a": 1}):
        cfg["kernel"] = {"type": "sls", "k1": k1}
        with pytest.raises(ConfigError):
            build_kernel(cfg)
    cfg["kernel"] = {"type": "custom_exp", "c": 1.0, "rate": -2.0}
    with pytest.raises(ConfigError):
        build_kernel(cfg)
    # JSON booleans are refused, not read as 1.0 and 0.0
    for kind, key in [("sls", "k1"), ("sls", "k2"), ("sls", "eta2"),
                      ("custom_exp", "c"), ("custom_exp", "rate"),
                      ("custom_exp", "e0")]:
        for flag in (True, False):
            cfg["kernel"] = {"type": kind, "c": -0.5, "rate": 1.0, key: flag}
            with pytest.raises(ConfigError, match=f"kernel key '{key}'"):
                build_kernel(cfg)
    for bad in ({"rate": math.nan}, {"c": math.nan}, {"rate": math.inf},
                {"c": -math.inf}, {"e0": 0.0}, {"e0": math.nan},
                {"e0": -1.0}, {"e0": math.inf}):
        cfg["kernel"] = {"type": "custom_exp", "c": -0.5, "rate": 1.0, **bad}
        with pytest.raises(ConfigError, match="custom_exp"):
            build_kernel(cfg)


def test_cli_bad_custom_exp_is_config_error(tmp_path, capsys):
    # a bad kernel parameter (the cases are in test_build_kernel_variants)
    # is refused before any solve instead of failing in one
    from memfem.cli import main
    kernel = '{"type":"custom_exp","c":-0.5,"rate":NaN}'
    code = main(["run", "--set", "n_elements=4", "--set", "n_steps=10",
                 "--set", "T=0.1", "--set", f"kernel={kernel}",
                 "--set", f'output_dir="{tmp_path}"'])
    assert code == EXIT_CONFIG
    assert "bad custom_exp kernel" in capsys.readouterr().err


def test_laplace_rejects_foreign_kernels():
    from memfem.cli import build_laplace_problem
    cfg = load_config(None, overrides=[
        'problem="laplace"', 'kernel={"type":"sls","k1":1,"k2":1,"eta2":1}'])
    with pytest.raises(ConfigError, match="fickian"):
        build_laplace_problem(cfg, 4)


def test_run_study_and_report_determinism(tmp_path):
    cfg = small_laplace(tmp_path)
    cfg = {**load_config(None, overrides=["problem=\"laplace\""]), **cfg}
    report_a = run_study(cfg)
    report_b = run_study(cfg)
    from memfem.report import render_csv
    assert render_csv(report_a).encode() == render_csv(report_b).encode()
    paths = emit_report(report_a, cfg)
    assert paths["csv"].exists() and paths["md"].exists()
    text = paths["csv"].read_text()
    assert text.splitlines()[0] == "DOF,h,e0_sigma,r0_sigma,e0_u,r0_u"


def test_run_study_single_level_has_empty_rates(tmp_path):
    cfg = load_config(None, overrides=[
        'problem="laplace"', "levels=[4]", "T=0.05", "n_steps=50",
        f'output_dir="{tmp_path}"'])
    report = run_study(cfg)
    assert report.rate_list("sigma", "e0") == []
    from memfem.report import render_csv
    lines = render_csv(report).strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == "--"


def test_run_study_flushes_partial_results(tmp_path):
    # level 5 violates the joined-profile parity rule after level 4 has
    # completed; the partial report must land on disk before the raise
    cfg = load_config(None, overrides=[
        "levels=[4,5]", "n_steps=10", "T=0.1", f'output_dir="{tmp_path}"'])
    with pytest.raises(ConfigError, match="level 5"):
        run_study(cfg)
    partial = tmp_path / "beam_convergence_partial.csv"
    assert partial.exists()
    assert len(partial.read_text().strip().splitlines()) == 2


def test_run_study_beam_fields(tmp_path):
    cfg = load_config(None, overrides=[
        "levels=[4,8]", "n_steps=40", "T=0.5", f"output_dir=\"{tmp_path}\""])
    report = run_study(cfg)
    assert report.fields == ("M", "V", "w", "beta")
    assert [row.dofs for row in report.rows] == [10, 18]
    assert report.rate_list("M", "e0")   # defined from the second row


def test_cli_exit_code_ok(tmp_path):
    proc = run_cli("run", "--set", "problem=\"laplace\"", "--set", "m=4",
                   "--set", "T=0.05", "--set", "n_steps=50",
                   "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_OK
    assert (tmp_path / "probe.csv").exists()
    header = (tmp_path / "probe.csv").read_text().splitlines()[0]
    assert header == "t,u_h,u_exact"


@pytest.mark.parametrize("problem", ["laplace", "beam"])
def test_cli_run_outputs_match_collected_states(tmp_path, problem):
    # memfem run writes what a collect observer sees: the probe cell's u
    # at every step (laplace), the final fields (beam)
    from memfem.cli import build_beam_problem, build_laplace_problem, main
    from memfem.laplace_mem import probe_cell_index

    overrides = [f'problem="{problem}"', "m=4", "n_elements=6", "T=0.2",
                 "n_steps=12", f'output_dir="{tmp_path}"']
    assert main(["run", *(a for o in overrides for a in ("--set", o))]) == EXIT_OK
    cfg = load_config(None, overrides=overrides)
    grid = TimeGrid(T=0.2, n_steps=12)
    if problem == "laplace":
        prob = build_laplace_problem(cfg, 4)
    else:
        prob = build_beam_problem(cfg, 6)
    states = []
    prob.run(grid, collect=lambda n, t, u, p: states.append((t, u.copy(), p.copy())))
    assert len(states) == grid.n_steps + 1

    def read(name):
        return (tmp_path / name).read_text().splitlines()

    if problem == "laplace":
        probe = read("probe.csv")
        assert probe[0] == "t,u_h,u_exact"
        assert len(probe) == grid.n_steps + 2
        px, py = cfg["probe"]
        cell = probe_cell_index(4, (px, py))
        assert probe[1:] == ["%.6e,%.6e,%.6e" % (t, p[cell], prob.manufactured.u(px, py, t))
                             for t, _, p in states]
        return
    _, u, p = states[-1]
    n = prob.mesh.n_elements
    nodes = prob.mesh.nodes
    nodal, cells = read("beam_nodal.csv"), read("beam_cells.csv")
    assert nodal[0] == "x,M,V" and len(nodal) == n + 2
    assert cells[0] == "x,beta,w" and len(cells) == n + 1
    assert nodal[1:] == ["%.6e,%.6e,%.6e" % (nodes[i], u[i], u[n + 1 + i])
                         for i in range(n + 1)]
    assert cells[1:] == ["%.6e,%.6e,%.6e" % (0.5 * (nodes[i] + nodes[i + 1]),
                                             p[i], p[n + i]) for i in range(n)]


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_driver_protocol(tmp_path, problem):
    # each problem answers what the CLI asks of it: the report fields, a
    # study oracle built once on the coarsest level, and the run output
    cfg = load_config(None, overrides=[
        f'problem="{problem}"', "levels=[4,8]", "m=4", "n_elements=4",
        "T=0.2", "n_steps=20", f'output_dir="{tmp_path}"'])
    build = PROBLEMS[problem].build
    grid = TimeGrid(T=0.2, n_steps=20)
    coarse = build(cfg, 4)
    reference = coarse.reference(grid, 8)
    report = run_study(cfg)
    assert report.fields == coarse.FIELDS
    for level, row in zip((4, 8), report.rows):
        errors, _ = build(cfg, level).run(grid, reference=reference)
        assert set(errors) == set(coarse.FIELDS)
        assert all(math.isfinite(v) and v > 0.0
                   for norms in errors.values() for v in norms.values())
        assert row.errors == errors

    written = {}

    def write(texts):
        written.update(texts)
        return tmp_path

    text = coarse.write_run(grid, cfg, write)
    assert set(written) == {"laplace": {"probe.csv"},
                            "beam": {"beam_nodal.csv", "beam_cells.csv"}}[problem]
    assert str(tmp_path) in text


def test_cli_exit_code_config_error():
    proc = run_cli("run", "--set", "delta=-1", "--set", "problem=\"laplace\"")
    assert proc.returncode == EXIT_CONFIG
    assert "configuration error" in proc.stderr


@pytest.mark.parametrize("command, problem, override", [
    ("certificate", "beam", "kernel.k1=null"),
    ("certificate", "beam", "kernel.k1=[1]"),
    ("run", "beam", "kernel.k1=true"),
    ("run", "beam", 'kernel={"type":"custom_exp","c":true,"rate":1}'),
    ("convergence", "laplace", "levels=[true,2]"),
    ("run", "laplace", "output_dir=5"),
    ("run", "beam", "output_dir=null"),
    ("convergence", "laplace", 'emit_svg="no"'),
    ("convergence", "laplace", "emit_svg=1")])
def test_cli_wrong_json_types_are_config_errors(tmp_path, command, problem,
                                                override):
    proc = run_cli(command, "--set", f'problem="{problem}"', "--set", "m=4",
                   "--set", "n_elements=4", "--set", "n_steps=10",
                   "--set", "T=0.1", "--set", f'output_dir="{tmp_path}"',
                   "--set", override)
    assert proc.returncode == EXIT_CONFIG
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("delta", ["0.5", "-1"])
def test_cli_kernel_delta_is_config_error(capsys, delta):
    # the Laplace memory is the top-level delta, so a kernel-block delta
    # is refused instead of ignored
    from memfem.cli import main
    code = main(["run", "--set", 'problem="laplace"', "--set", "m=4",
                 "--set", "n_steps=20", "--set", "T=0.2",
                 "--set", f"kernel.delta={delta}"])
    assert code == EXIT_CONFIG
    assert "top-level 'delta'" in capsys.readouterr().err


def test_beam_kernel_none_keeps_other_kernel_keys():
    from memfem.cli import build_beam_problem
    cfg = load_config(None, overrides=['kernel.type="none"'])
    assert cfg["kernel"] == {"type": "none", "k1": 1.0, "k2": 1.0, "eta2": 1.0}
    assert build_beam_problem(cfg, 4).kernel is None


def test_cli_fickian_kernel_on_beam_is_config_error(capsys):
    from memfem.cli import main
    code = main(["run", "--set", 'kernel={"type": "fickian"}',
                 "--set", "n_elements=4", "--set", "n_steps=10"])
    assert code == EXIT_CONFIG
    assert "laplace problem" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "certificate", "convergence"])
def test_cli_unwritable_output_dir_is_config_error(tmp_path, capsys,
                                                   monkeypatch, command):
    # the output directory is checked before any estimate or step
    import memfem.cli as cli
    from memfem.volterra import VolterraStepper

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory check")

    monkeypatch.setattr(VolterraStepper, "run", no_work)
    monkeypatch.setattr(cli, "kernel_ellipticity", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main([command, "--set", 'problem="laplace"', "--set", "m=2",
                     "--set", "levels=[2]", "--set", "n_steps=10",
                     "--set", "T=0.1",
                     "--set", f'output_dir="{blocker / "out"}"'])
    assert code == EXIT_CONFIG
    assert "cannot write to" in capsys.readouterr().err


@pytest.mark.parametrize("probe", ["[2,0.5]", "[-0.1,0.5]", "[0.5,NaN]",
                                   "[Infinity,0.5]", "[true,0.5]"])
def test_cli_probe_outside_unit_square_is_config_error(probe):
    from memfem.cli import main
    code = main(["run", "--set", 'problem="laplace"', "--set", f"probe={probe}"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("probe", ["[0,0]", "[1,1]"])
def test_cli_probe_at_corner_runs(tmp_path, probe):
    from memfem.cli import main
    code = main(["run", "--set", 'problem="laplace"', "--set", "m=4",
                 "--set", "T=0.05", "--set", "n_steps=50",
                 "--set", f"probe={probe}", "--set", f'output_dir="{tmp_path}"'])
    assert code == EXIT_OK
    assert len((tmp_path / "probe.csv").read_text().splitlines()) == 52


def test_cli_exit_code_stability_gate(tmp_path):
    # dt = 0.03 >= 2 delta at delta = 0.01: documented rejection
    proc = run_cli("run", "--set", "problem=\"laplace\"", "--set", "m=2",
                   "--set", "T=0.3", "--set", "n_steps=10",
                   "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_GATE
    assert "dt too large" in proc.stderr
    assert "2/C_k" in proc.stderr


def test_cli_solver_failure_mapping(monkeypatch, tmp_path):
    # documented mapping of solver failures to exit code 3
    import memfem.cli as cli

    def boom(cfg):
        raise SaddleSolverError("synthetic failure")

    monkeypatch.setitem(cli.__dict__, "_cmd_run", boom)
    monkeypatch.setattr(cli, "load_config", lambda *a, **k: {
        "problem": "beam", "output_dir": str(tmp_path)})
    code = cli.main(["run"])
    assert code == 3


def test_cli_beam_certificate_overflow_exits_3(tmp_path):
    # the default beam certificate (T = 15) on a small mesh: e^{T D}
    # overflows, reported as an estimator failure, not a crash
    proc = run_cli("certificate", "--set", "problem=\"beam\"",
                   "--set", "n_elements=4", "--set", "n_steps=150",
                   "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_SOLVER
    assert "overflows at this horizon" in proc.stderr
    assert "T*D = " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_certificate_with_non_finite_norms_exits_3(tmp_path):
    # loads scaled by 1/E(0) = 1e300 overflow the run norms: no bound is
    # checked, so the certificate fails instead of printing a verdict
    proc = run_cli("certificate", "--set",
                   'kernel={"type": "sls", "k1": 1e-300, "k2": 1, "eta2": 1}',
                   "--set", "n_elements=2", "--set", "T=0.1",
                   "--set", "n_steps=4", "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_SOLVER
    assert proc.stderr.startswith("solver failure: the run norms are not "
                                  "finite (lhs=inf, rhs=inf)")
    assert "VIOLATED" not in proc.stdout
    assert not (tmp_path / "certificate.txt").exists()


def test_cli_audit_subcommand(tmp_path):
    proc = run_cli("audit", "--set", "n_elements=8", "--set", "n_steps=60",
                   "--set", "T=1.0", "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_OK
    assert "max relative deviation" in proc.stdout


@pytest.mark.parametrize("problem", ["beam", "laplace"])
def test_cli_audit_deviation_within_bound(tmp_path, capsys, problem):
    # the run, blocked as studies step it, must agree with the same
    # kernels in direct form to the audit's bound
    from memfem.cli import main

    code = main(["audit", "--set", f'problem="{problem}"', "--set", "m=4",
                 "--set", "n_elements=8", "--set", "n_steps=60",
                 "--set", "T=0.5", "--set", f'output_dir="{tmp_path}"'])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "audited 60 steps" in out
    assert float(out.rsplit("=", 1)[1]) <= 1e-12


def test_cli_audit_exits_3_when_the_direct_form_disagrees(tmp_path, capsys,
                                                         monkeypatch):
    # an eval 1e-9 off its (c, rate): the recurrence and the direct sums
    # read different kernels, and the audit fails
    import memfem.cli as cli
    from memfem.kernels import MemoryKernel

    def off_kernel(cfg):
        c, rate = -0.5, 1.0
        return MemoryKernel(eval=lambda t, s: (1.0 + 1e-9) * c * np.exp(
            -rate * (np.asarray(t) - np.asarray(s))), bound=0.5, c=c,
            rate=rate), 1.0

    monkeypatch.setattr(cli, "build_kernel", off_kernel)
    code = cli.main(["audit", "--set", "n_elements=8", "--set", "n_steps=60",
                     "--set", "T=2.0", "--set", f'output_dir="{tmp_path}"'])
    assert code == EXIT_SOLVER
    out = capsys.readouterr().out
    assert "audited 60 steps" in out
    assert float(out.rsplit("=", 1)[1]) > 1e-12


def test_cli_convergence_subcommand(tmp_path):
    proc = run_cli("convergence", "--set", "problem=\"laplace\"",
                   "--set", "levels=[2,4]", "--set", "T=0.05",
                   "--set", "n_steps=50", "--set", "emit_svg=true",
                   "--set", f"output_dir=\"{tmp_path}\"")
    assert proc.returncode == EXIT_OK
    assert (tmp_path / "laplace_convergence.csv").exists()
    assert (tmp_path / "laplace_convergence.svg").exists()


def test_certificate_inprocess(tmp_path):
    import io
    cfg = load_config(None, overrides=[
        "n_elements=8", "n_steps=50", "T=0.5", f"output_dir=\"{tmp_path}\""])
    out = emit_certificate(cfg, stream=io.StringIO())
    assert out["slack"] >= 0.0
    assert out["null_dim"] == 2
    assert np.isfinite(out["rhs"])


def test_certificate_fine_beam_inprocess():
    # the sparse estimators reach the study's finest beam level
    import io
    cfg = load_config(None, overrides=["n_elements=160", "n_steps=50", "T=0.5"])
    stream = io.StringIO()
    out = emit_certificate(cfg, stream=stream)
    assert out["slack"] >= 0.0
    assert "  null(B) dimension: 2\n" in stream.getvalue()


def test_certificate_laplace_m64_inprocess():
    # no estimator is dense any more, so the finest study level certifies
    import io
    cfg = load_config(None, overrides=[
        'problem="laplace"', "m=64", "T=0.05", "n_steps=10"])
    stream = io.StringIO()
    out = emit_certificate(cfg, stream=stream)
    assert out["slack"] >= 0.0
    assert "  null(B) dimension: 4224\n" in stream.getvalue()
    assert 0.99999 < out["norm_b"] < 1.0


@pytest.mark.parametrize("driver, size", [("laplace", "m=4"),
                                          ("beam", "n_elements=8")])
def test_certificate_evaluates_load_once_per_block(monkeypatch, driver, size):
    # the run norms reuse the load block the stepper received: one call
    # per block of 64 nodes, whose nodes together are the grid's
    import io

    from memfem.beam import BeamProblem
    from memfem.laplace_mem import LaplaceProblem

    cls = LaplaceProblem if driver == "laplace" else BeamProblem
    rhs = cls.rhs
    calls = []

    def counted(self, times):
        calls.append(times.copy())
        return rhs(self, times)

    monkeypatch.setattr(cls, "rhs", counted)
    cfg = load_config(None, overrides=[f'problem="{driver}"', size,
                                       "T=0.5", "n_steps=150"])
    out = emit_certificate(cfg, stream=io.StringIO())
    assert [len(times) for times in calls] == [64, 64, 23]
    assert np.array_equal(np.concatenate(calls),
                          TimeGrid(T=0.5, n_steps=150).times)
    assert out["slack"] >= 0.0


def test_certificate_monotone_in_horizon(tmp_path):
    import io
    outs = []
    for T in (0.5, 1.0):
        cfg = load_config(None, overrides=[
            "n_elements=8", "n_steps=50", f"T={T}",
            f"output_dir=\"{tmp_path}\""])
        outs.append(emit_certificate(cfg, stream=io.StringIO()))
    for key in ("c1", "c2", "c3", "c4"):
        assert getattr(outs[1]["stability"], key) >= getattr(outs[0]["stability"], key)


@pytest.mark.parametrize("width", [1, 3, 22])
def test_run_norms_blocks_give_the_per_node_formula(width):
    # the stepper hands RunNorms.add and add_load blocks of its width
    # (these without a basis); every width must give
    # sum_n w_n sqrt(x_n . G x_n) and the dual
    # sum_n w_n sqrt(g_n . Gq^-1 g_n) as the nodes would one by one
    import scipy.sparse as sp

    from memfem.cli import RunNorms

    rng = np.random.default_rng(width)
    grid = TimeGrid(T=1.0, n_steps=43)
    m = rng.standard_normal((9, 9))
    gram_v = m @ m.T + 9.0 * np.eye(9)
    gram_q = rng.uniform(0.5, 2.0, 5)
    u = rng.standard_normal((9, 44))
    p = rng.standard_normal((5, 44))
    g = rng.standard_normal((5, 44))
    norms = RunNorms(gram_v, sp.diags(gram_q), grid)
    for n in range(0, 44, width):
        block = slice(n, n + width)
        norms.add(n, grid.times[block], u[:, block], p[:, block], None)
        norms.add_load(g[:, block])
    run = norms.states.result()

    w = grid.weights
    u_l1 = sum(w[n] * math.sqrt(u[:, n] @ gram_v @ u[:, n]) for n in range(44))
    p_l1 = sum(w[n] * math.sqrt(p[:, n] @ (gram_q * p[:, n]))
               for n in range(44))
    assert run["u"]["V"] == pytest.approx(u_l1, rel=1e-15, abs=0.0)
    assert run["p"]["Q"] == pytest.approx(p_l1, rel=1e-15, abs=0.0)
    g_l1 = sum(w[n] * math.sqrt(g[:, n] @ (g[:, n] / gram_q))
               for n in range(44))
    assert norms.g_dual_l1 == pytest.approx(g_l1, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("rank", [1, 2])
def test_run_norms_of_a_pair_are_those_of_its_array(rank):
    # a pair (V, C) has its dual norms from C and the Gram V^T Gq^-1 V,
    # formed per block: the same sum as of the array V C, summed in
    # another order
    import scipy.sparse as sp

    from memfem.cli import RunNorms

    rng = np.random.default_rng(rank)
    grid = TimeGrid(T=1.0, n_steps=43)
    gram_q = rng.uniform(0.5, 2.0, 5)
    v, c = rng.standard_normal((5, rank)), rng.standard_normal((rank, 44))
    pairs, arrays = (RunNorms(sp.identity(3), sp.diags(gram_q), grid)
                     for _ in range(2))
    for n in range(0, 44, 22):
        pairs.add_load((v, c[:, n:n + 22]))
        arrays.add_load(v @ c[:, n:n + 22])
    assert pairs.g_dual_l1 == pytest.approx(arrays.g_dual_l1, rel=1e-14,
                                            abs=0.0)


def test_run_norms_refuse_a_non_diagonal_q_gram():
    import scipy.sparse as sp

    from memfem.cli import RunNorms

    gram_q = sp.csr_matrix([[2.0, 0.5], [0.5, 2.0]])
    with pytest.raises(ValueError, match="diagonal Q Gram"):
        RunNorms(sp.identity(3), gram_q, TimeGrid(T=1.0, n_steps=4))


# sha256 of render_csv for two small studies: the report CSVs are
# documented as byte-stable, so a change to any reported digit fails here
REPORT_DIGESTS = {
    "laplace": ({"problem": "laplace", "levels": [4, 8, 16], "T": 0.5,
                 "n_steps": 50},
                "5eeafa4967b6174bad12785d8105daecd4826bcda27fb47a14806c4abf7840f7"),
    "beam": ({"problem": "beam", "profile": "joined", "levels": [4, 8, 16],
              "T": 1.0, "n_steps": 100},
             "16bf7865f2a82406f6217c34b0a514ec0630b6f8f00b04d2b00704d63c1f129c"),
}


@pytest.mark.parametrize("problem", sorted(REPORT_DIGESTS))
def test_report_csv_bytes_are_pinned(problem):
    import hashlib
    from memfem.report import render_csv
    overrides, digest = REPORT_DIGESTS[problem]
    cfg = load_config(None, overrides=[f"problem={json.dumps(problem)}"])
    cfg.update(overrides)
    text = render_csv(run_study(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# sha256 of two small certificate texts (150 steps, three blocks): every
# printed estimate, constant and run norm is pinned to its %.6e digits
CERTIFICATE_DIGESTS = {
    "laplace": ({"problem": "laplace", "m": 4, "T": 0.5, "n_steps": 150},
                "072362901933977f2f24084f9bb7c8dc087f13d1bdb25c5ee18c0fac4d8f5e41"),
    "beam": ({"problem": "beam", "n_elements": 8, "T": 0.5, "n_steps": 150},
             "25da478fb695b3eb6b7a05c1f943243e0c5c3a952a97d762bf48437998a241e5"),
}


@pytest.mark.parametrize("problem", sorted(CERTIFICATE_DIGESTS))
def test_certificate_text_bytes_are_pinned(problem):
    import hashlib
    import io
    overrides, digest = CERTIFICATE_DIGESTS[problem]
    cfg = load_config(None, overrides=[f"problem={json.dumps(problem)}"])
    cfg.update(overrides)
    stream = io.StringIO()
    emit_certificate(cfg, stream=stream)
    text = stream.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
