from pathlib import Path

import pytest

import quasilogic
from quasilogic import hilbert, verify

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


def sampled_triples(dims: tuple[int, ...], trials_per_dim: int, seed: int):
    """(dim, state, question_a, question_b) per trial of ``verify``, sliced from its stacks."""
    for dim, states, questions_a, questions_b in verify._sampled_stacks(dims, trials_per_dim, seed):
        for rho, a, b in zip(states, questions_a, questions_b):
            yield dim, hilbert.DensityState(rho), hilbert.Projector(a), hilbert.Projector(b)
