"""A fixed piece of reference work that measures how fast the host runs.

The benchmark shares a few cores of a host with other tenants, and their
load slows every process by up to 2x for seconds to minutes at a time.
``ReferenceWork`` is a fixed mix of what memfem spends its time on.
About half is a Python loop that builds a sparse matrix, solves with a
small SuperLU factor, stacks small numpy vectors and keeps a history, as
the beam's step loop does; the rest is solves with a SuperLU factor
larger than the cache, as the Laplace solves are, and a dense LAPACK
eigensolve, as the certificate's estimators are.  It uses numpy and
scipy alone, so no change to memfem changes its time, only the host's
load does.

The benchmark runs it around every set-up and run, and about every
``PROBE_EVERY_S`` within a run.  ``at_reference_speed`` divides the time
of each stretch of work by the mean slowdown of the probes on either side
of it, the probe's time against ``REFERENCE_S``.  Over five runs on the
measured host, the spread (interquartile range over median) of a
workload's time fell from 0.12-0.14 as measured to 0.04-0.05 at the
reference speed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the fastest the probe ran on the measured host (Xeon, 2 vCPUs)
REFERENCE_S = 0.007
# longest stretch of a run between two probes, where the run lets the
# benchmark in: at every step of a stepper run and around long calls
PROBE_EVERY_S = 0.5


class ReferenceWork:
    """Calling it does the fixed work once and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # a Python loop over a small tridiagonal system
        n = self.n = 300
        self.loops = 25
        self.main = 2.0 + rng.random(n)
        self.off = -np.ones(n - 1)
        self.b = rng.random(n)
        inner = np.arange(1, n - 1)
        self.rows = np.concatenate([[0, 0], np.repeat(inner, 3), [n - 1, n - 1]])
        self.cols = np.concatenate([[0, 1], (inner[:, None] + [-1, 0, 1]).ravel(),
                                    [n - 2, n - 1]])
        self.dense = rng.random((96, 96))
        self.stream = rng.random(200_000)
        # solves with the SuperLU factor of a 2-D Laplacian, 110 x 110
        # nodes, whose factors do not fit in cache
        one = sp.diags([-np.ones(109), 2.0 * np.ones(110), -np.ones(109)],
                       [-1, 0, 1])
        self.big = spla.splu((sp.kron(one, sp.eye(110))
                              + sp.kron(sp.eye(110), one)).tocsc())
        self.rhs = rng.random(110 * 110)
        # a dense symmetric eigenproblem (LAPACK)
        sym = rng.random((120, 120))
        self.sym = sym + sym.T

    def __call__(self) -> float:
        start = perf_counter()
        n = self.n
        lu = spla.splu(sp.diags([self.off, self.main, self.off], [-1, 0, 1],
                                format="csc"))
        ones = np.ones(self.rows.size)
        x, hist, acc = self.b, [], 0.0
        for _ in range(self.loops):
            y = lu.solve(x)
            z = sp.csr_matrix((ones, (self.rows, self.cols)), shape=(n, n)) @ y
            x = np.concatenate([0.5 * z[: n // 2], 0.25 * y[n // 2:]]) + 0.1 * self.b
            hist.append(x)
            acc += math.exp(-1e-3 * float(np.linalg.norm(x)))
            acc += sum(float(v) for v in x[:20])
        acc += float(np.sum(np.stack(hist) @ self.b))
        acc += float((self.dense @ self.dense)[0, 0])
        acc += float(np.dot(self.stream, self.stream))
        x = self.big.solve(self.rhs)
        x = self.big.solve(x / np.linalg.norm(x))
        acc += float(x[0]) + float(np.linalg.eigvalsh(self.sym)[0])
        self.checksum = acc
        return perf_counter() - start


def at_reference_speed(pieces, probes) -> float:
    """Seconds the pieces of work would take at the reference speed.

    ``probes`` has one more entry than ``pieces``: probe ``i`` ran just
    before piece ``i`` and probe ``i + 1`` just after it.
    """
    if len(probes) != len(pieces) + 1:
        raise ValueError("need one probe before and after every piece")
    return sum(piece * 2.0 * REFERENCE_S / (before + after)
               for piece, before, after in zip(pieces, probes, probes[1:]))
