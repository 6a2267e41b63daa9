# %% [markdown]
# # Non-fickian flow: RT0 x P0 convergence and the center probe
#
# The Laplace problem with memory uses the manufactured solution
# u = cos(t) x(1-x) y(1-y) and the kernel (1/delta) e^{-(t-s)/delta}.
# First-order convergence of both fields is the expected behavior of
# the lowest-order Raviart-Thomas pair.

# %%
import numpy as np

from memfem.cli import emit_report, load_config, run_study
from memfem.report import render_markdown

cfg = load_config(None, overrides=[
    'problem="laplace"',
    "levels=[4,8,16,32]",
    "T=0.5",
    "n_steps=1000",
    "emit_svg=true",
    'output_dir="demo_out"',
])
report = run_study(cfg)
print(render_markdown(report))
paths = emit_report(report, cfg)
print("written:", ", ".join(str(p) for p in paths.values()))

# %% [markdown]
# The cell value at the center tracks 0.0625 cos t: the envelope below
# is dominated by the mesh term, not the time step.

# %%
from memfem.laplace_mem import LaplaceProblem, probe_cell_index
from memfem.volterra import TimeGrid

grid = TimeGrid(T=0.5, n_steps=1000)
prob = LaplaceProblem(16, delta=0.01)
cell = probe_cell_index(prob.m, (0.5, 0.5))
probe = []
prob.run(grid, collect=lambda n, t, sigma, u: probe.append(u[cell]))
exact = 0.0625 * np.cos(grid.times)
print(f"max |u_h(0.5,0.5,t) - 0.0625 cos t| = "
      f"{np.max(np.abs(probe - exact)):.3e}")
print(f"envelope 5(h^2 + dt) = {5 * (prob.h ** 2 + grid.dt):.3e}")

# %% [markdown]
# Pushing the step size past the stability gate dt < 2 delta is
# rejected with a diagnostic rather than producing a bad run.

# %%
from memfem.errors import StabilityGateError

try:
    prob.run(TimeGrid(T=0.5, n_steps=10))
except StabilityGateError as exc:
    print("rejected as expected:", exc)
