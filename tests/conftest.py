"""Shared test set-up.

pyproject's pytest ``pythonpath`` puts ``src`` on this process's import
path; the tests that run ``python -m memfem`` in a subprocess get it
through ``PYTHONPATH``.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def _memfem_importable_in_subprocesses():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield
