import tracemalloc
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
            yield dim, rho, a, b


# single draws: member 0 of a one-member stack of a hilbert sampler on default_rng(seed)


def seeded_state(dim: int, purity: str, seed: int) -> np.ndarray:
    return hilbert.sample_states(dim, [purity], np.random.default_rng(seed))[0]


def seeded_projector(dim: int, rank: int, seed: int) -> np.ndarray:
    return hilbert.sample_projectors(dim, [rank], np.random.default_rng(seed))[0]


def seeded_hermitian(dim: int, seed: int) -> np.ndarray:
    return hilbert.sample_hermitians(dim, 1, np.random.default_rng(seed))[0]


def seeded_basis(dim: int, seed: int) -> np.ndarray:
    return hilbert.sample_orthonormal_bases(dim, 1, np.random.default_rng(seed))[0]


def seeded_commuting_triple(dim: int, seed: int):
    rho, a, b = hilbert.sample_commuting_triples(dim, 1, np.random.default_rng(seed))
    return rho[0], a[0], b[0]


def traced_peak(function, *args) -> int:
    """The tracemalloc peak, in bytes, of one call: what it allocates beyond what is live.

    numpy's first use of a routine (LAPACK's, for one) allocates once; call the
    function untraced on a small input first where that would count.
    """
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
