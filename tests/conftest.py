from pathlib import Path

import numpy as np
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


# single draws: member 0 of a one-member stack of a hilbert sampler on default_rng(seed)


def seeded_state(dim: int, purity: str, seed: int) -> hilbert.DensityState:
    return hilbert.DensityState(hilbert.sample_states(dim, [purity], np.random.default_rng(seed))[0])


def seeded_projector(dim: int, rank: int, seed: int) -> hilbert.Projector:
    return hilbert.Projector(hilbert.sample_projectors(dim, [rank], np.random.default_rng(seed))[0])


def seeded_hermitian(dim: int, seed: int) -> np.ndarray:
    return hilbert.sample_hermitians(dim, 1, np.random.default_rng(seed))[0]


def seeded_basis(dim: int, seed: int) -> np.ndarray:
    return hilbert.sample_orthonormal_bases(dim, 1, np.random.default_rng(seed))[0]


def seeded_commuting_triple(dim: int, seed: int):
    rho, a, b = hilbert.sample_commuting_triples(dim, 1, np.random.default_rng(seed))
    return hilbert.DensityState(rho[0]), hilbert.Projector(a[0]), hilbert.Projector(b[0])
