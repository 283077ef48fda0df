from pathlib import Path

import pytest

import quasilogic
from quasilogic import hilbert

DATA_DIR = Path(quasilogic.__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def tilted_example():
    """Two-level (state, A, B) whose logical joint table has a -0.1 cell.

    state = (|0> - 3|1>)/sqrt(10), A = |0><0|, B = |+><+|.
    """
    return hilbert.worked_example()
