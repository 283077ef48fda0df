"""Hilbert-space semantics tests.

Frozen expected values for the tilted two-level example were derived by hand
with dense matrix arithmetic (and re-checked against independent trace
evaluation in these tests); sweep tests assert the operational/algebraic
route agreement that the module is built around.
"""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (reference_hermitian, sampled_triples, seeded_basis, seeded_commuting_triple,
                      seeded_hermitian, seeded_projector, seeded_state, traced_peak)
from quasilogic import hilbert, jordan, logic, verify
from quasilogic.errors import (
    BadDimensionError,
    BadRankError,
    DimensionMismatchError,
    IdentityCheckError,
    IncompleteBasisError,
    NonFiniteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    NotPositiveSemidefiniteError,
    TraceNotOneError,
    QuasilogicError,
    ZeroPostSelectionError,
    ZeroProbabilityBranchError,
)

ATOL = 1e-12


def proj(*diag):
    return hilbert.validate_projector(np.diag([float(x) for x in diag]))


def state(*diag):
    return hilbert.validate_density(np.diag([complex(x) for x in diag]))


class TestValidation:
    def test_identity_is_a_projector(self):
        p = hilbert.validate_projector(np.eye(3))
        assert round(p.trace().real) == 3

    def test_diag_projector(self):
        assert round(proj(1, 0).trace().real) == 1

    def test_half_identity_rejected(self):
        with pytest.raises(NotIdempotentError) as err:
            hilbert.validate_projector(np.diag([0.5, 0.5]))
        assert err.value.residual > 0.2

    def test_non_hermitian_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            hilbert.validate_projector(m)

    def test_never_repairs(self):
        nearly = np.diag([1.0, 1e-6])
        with pytest.raises(NotIdempotentError):
            hilbert.validate_projector(nearly)

    def test_dimension_caps(self):
        with pytest.raises(BadDimensionError):
            hilbert.validate_projector(np.eye(1))
        with pytest.raises(BadDimensionError):
            hilbert.validate_projector(np.eye(65))

    def test_density_checks(self):
        with pytest.raises(TraceNotOneError):
            hilbert.validate_density(np.diag([0.7, 0.7]))
        with pytest.raises(NotPositiveSemidefiniteError):
            hilbert.validate_density(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan],
                             ids=["nan", "inf", "-inf", "imaginary-nan"])
    @pytest.mark.parametrize("call", [
        lambda m, v: hilbert.validate_projector(m),
        lambda m, v: hilbert.validate_density(m),
        lambda m, v: hilbert.rank_one_projector(v),
        lambda m, v: hilbert.rank_one_projectors(np.stack([[1.0, 0.0], v])),
        lambda m, v: hilbert.kd_distribution(state(0.5, 0.5), [v, [0.0, 1.0]], np.eye(2)),
        lambda m, v: hilbert.kd_distribution(state(0.5, 0.5), np.eye(2), [[1.0, 0.0], v]),
        lambda m, v: hilbert.operator_norm(m),
        lambda m, v: hilbert.operator_norm(np.stack([np.eye(2), m])),
        lambda m, v: jordan.idempotency_residuals(m),
        lambda m, v: jordan.xor_symmetry_residuals(m, np.eye(2)),
        lambda m, v: jordan.xor_symmetry_residuals(np.eye(2), m),
        lambda m, v: jordan.formal_reality_residuals(np.eye(2), m),
        lambda m, v: jordan.jordan_product(m, np.eye(2)),
        lambda m, v: jordan.jordan_product(np.eye(2), m),
    ], ids=["validate_projector", "validate_density", "rank_one_projector",
            "rank_one_projectors", "kd_basis_a", "kd_basis_b", "operator_norm",
            "operator_norm_stack", "idempotency_residuals", "xor_symmetry_residuals_a",
            "xor_symmetry_residuals_b", "formal_reality_residuals", "jordan_product",
            "jordan_product_second"])
    def test_non_finite_entry_is_rejected_before_any_arithmetic(self, call, bad):
        m = np.array([[0.5, bad], [bad, 0.5]])
        v = np.array([1.0, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="NaN or infinite entry"):
                call(m, v)

    def test_residual_kernel_on_a_nan_matrix_raises_before_the_solve(self):
        """The spectral norm raises the package's error, not LAPACK's ``LinAlgError``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="NaN or infinite entry"):
                jordan.xor_symmetry_residuals(np.full((2, 2), np.nan), np.eye(2))

    @pytest.mark.parametrize("call, error", [
        (lambda: hilbert.validate_projector(np.diag([1e200, 0.0])), NotIdempotentError),
        (lambda: hilbert.validate_projector(np.diag([1e200, 1e200])), NotIdempotentError),
        (lambda: hilbert.validate_density(np.array([[0.5, 1.7e308], [1.7e308, 0.5]])),
         NotPositiveSemidefiniteError),
        (lambda: hilbert.validate_projector(np.array([[1.0, 1.7e308], [-1.7e308, 0.0]])),
         NotHermitianError),
        (lambda: hilbert.kd_distribution(state(0.5, 0.5), [[1e200, 1e200j], [0.0, 1.0]], np.eye(2)),
         NotOrthonormalError),
        (lambda: jordan.jordan_product(1e200 * np.eye(2), 1e200 * np.eye(2)), QuasilogicError),
        (lambda: jordan.idempotency_residuals(1e200 * np.eye(2)), QuasilogicError),
        (lambda: jordan.xor_symmetry_residuals(1e200 * np.eye(2), np.eye(2)), QuasilogicError),
        (lambda: jordan.formal_reality_residuals(1e200 * np.eye(2), np.eye(2)), QuasilogicError),
    ], ids=["overflowing square", "overflowing diagonal", "overflowing state",
            "overflowing hermiticity residual", "overflowing gram matrix",
            "overflowing jordan product", "overflowing idempotency defects",
            "overflowing xor defects", "overflowing sum of squares"])
    def test_finite_input_whose_checks_overflow_is_rejected(self, call, error):
        """A residual that overflows to NaN or inf fails its check, and warns of nothing.

        The error is of exactly the expected type: an overflowed jordan kernel raises the
        base :class:`QuasilogicError`, never :class:`NonFiniteError`, which names a
        non-finite input."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                call()
        assert type(exc.value) is error
        if error is QuasilogicError:
            assert "overflowed" in str(exc.value)

    @pytest.mark.parametrize("order", ["overflow last", "overflow first"])
    def test_overflowing_member_is_rejected_in_any_block(self, monkeypatch, order):
        members = [np.diag([1.0, 0.0]), np.diag([1e200, 0.0])]
        if order == "overflow first":
            members.reverse()
        monkeypatch.setattr(hilbert, "_BLOCK_ENTRIES", 4)  # one member per block
        for validate in (hilbert._validated_projectors, hilbert._validated_densities):
            with pytest.raises(QuasilogicError):
                validate(np.array(members, dtype=complex), hilbert.DEFAULT_TOL)

    @pytest.mark.parametrize("vector, ray", [
        ([1e300, 1e300], [1.0, 1.0]), ([1e-170, 0.0], [1.0, 0.0]), ([3e-200j, -4e-200], [3j, -4.0]),
    ], ids=["overflow", "underflow", "complex underflow"])
    def test_rank_one_projector_rescales_extreme_vectors(self, vector, ray):
        expected = hilbert.rank_one_projector(np.array(ray))
        assert np.array_equal(hilbert.rank_one_projector(np.array(vector)), expected)
        # the other rows of a stack keep their bits
        stack = hilbert.rank_one_projectors(np.array([vector, [0.6, 0.8j]]))
        assert np.array_equal(stack[0], expected)
        assert np.array_equal(stack[1], hilbert.rank_one_projector(np.array([0.6, 0.8j])))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_one_projectors_are_projectors_to_rounding(self, data):
        """Any finite nonzero vectors, of any magnitude, give projectors without validation."""
        dim = data.draw(st.integers(min_value=2, max_value=64), label="dim")
        entries = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2 * dim, max_size=2 * dim).filter(any)
        rows = np.array(data.draw(st.lists(entries, min_size=1, max_size=3), label="rows"))
        for member in hilbert.rank_one_projectors(rows[:, :dim] + 1j * rows[:, dim:]):
            hilbert.validate_projector(member)
            assert hilbert.operator_norm(member - member.conj().T) <= 1e-13
            assert hilbert.operator_norm(member @ member - member) <= 1e-13

    @pytest.mark.parametrize("vector, expected", [
        ([0.0, 2.225073858507203e-309j], [[0, 0], [0, 1]]),
        ([5e-324, 5e-324j], [[0.5, -0.5j], [0.5j, 0.5]]),
    ])
    def test_subnormal_vectors_are_rescaled_without_overflow(self, vector, expected):
        # dividing by a subnormal scale as a complex number overflowed to inf and NaN
        member = hilbert.rank_one_projectors(np.array([vector]))[0]
        assert_allclose(member, np.array(expected, dtype=complex), rtol=0, atol=1e-15)
        hilbert.validate_projector(member)

    @pytest.mark.parametrize("vectors", [[[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    def test_zero_vector_has_no_ray(self, vectors):
        with pytest.raises(BadRankError, match="zero vector"):
            hilbert.rank_one_projectors(np.array(vectors))
        with pytest.raises(BadRankError, match="zero vector"):
            hilbert.rank_one_projector(np.array(vectors[-1]))

    def test_matrices_are_read_only(self):
        p = proj(1, 0)
        with pytest.raises(ValueError):
            p[0, 0] = 5.0


class TestComplement:
    def test_diagonal(self):
        assert_allclose(hilbert.complement_projector(proj(1, 0)), np.diag([0.0, 1.0]))

    def test_identity_gives_zero(self):
        c = hilbert.complement_projector(hilbert.validate_projector(np.eye(2)))
        assert_allclose(c, np.zeros((2, 2)))

    def test_plus_goes_to_minus(self):
        plus = hilbert.rank_one_projector(np.array([1.0, 1.0]))
        minus = hilbert.rank_one_projector(np.array([1.0, -1.0]))
        assert_allclose(hilbert.complement_projector(plus), minus, atol=ATOL)

    def test_sums_to_identity(self):
        p = seeded_projector(5, 2, 3)
        total = p + hilbert.complement_projector(p)
        assert_allclose(total, np.eye(5), atol=ATOL)


class TestSampling:
    def test_state_deterministic(self):
        s1 = seeded_state(2, "pure", 7)
        s2 = seeded_state(2, "pure", 7)
        assert_allclose(s1, s2)

    def test_projector_rank_is_trace(self):
        p = seeded_projector(4, 2, 1)
        assert abs(p.trace().real - 2.0) < ATOL

    def test_state_psd(self):
        for seed in range(5):
            s = seeded_state(6, "mixed", seed)
            assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            seeded_projector(3, 0, 0)
        with pytest.raises(BadRankError):
            seeded_projector(3, 3, 0)

    def test_pure_state_is_rank_one(self):
        s = seeded_state(4, "pure", 11)
        eigenvalues = np.sort(np.linalg.eigvalsh(s))
        assert abs(eigenvalues[-1] - 1.0) < 1e-10

    def test_orthonormal_basis(self):
        basis = seeded_basis(4, 2)
        assert_allclose(basis.conj() @ basis.T, np.eye(4), atol=ATOL)


class TestBornProbability:
    def test_aligned(self):
        assert hilbert.born_probability(state(1, 0), proj(1, 0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert hilbert.born_probability(state(1, 0), proj(0, 1)) == pytest.approx(0.0, abs=ATOL)

    def test_tilted_example(self, tilted_example):
        rho, a, _ = tilted_example
        assert hilbert.born_probability(rho, a) == pytest.approx(0.1, abs=ATOL)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hilbert.born_probability(state(1, 0), hilbert.validate_projector(np.eye(3)))

    def test_clamp_is_display_only(self):
        assert hilbert.clamp_probability(-1e-15) == 0.0
        assert hilbert.clamp_probability(1.0 + 1e-15) == 1.0


class TestLuedersUpdate:
    def test_eigenstate_unchanged(self):
        prob, post = hilbert.lueders_update(state(1, 0), proj(1, 0), "selective_yes")
        assert prob == pytest.approx(1.0)
        assert_allclose(post, np.diag([1.0, 0.0]), atol=ATOL)

    def test_zero_branch_raises(self):
        with pytest.raises(ZeroProbabilityBranchError):
            hilbert.lueders_update(state(1, 0), proj(0, 1), "selective_yes")

    def test_selective_no_is_complement_branch(self):
        prob, post = hilbert.lueders_update(state(0.25, 0.75), proj(1, 0), "selective_no")
        assert prob == pytest.approx(0.75)
        assert_allclose(post, np.diag([0.0, 1.0]), atol=ATOL)

    def test_nonselective_decoheres_plus_state(self):
        plus = hilbert.rank_one_projector(np.array([1.0, 1.0]))
        rho = hilbert.validate_density(plus)
        prob, post = hilbert.lueders_update(rho, proj(1, 0), "nonselective")
        assert prob == 1.0
        assert_allclose(post, np.diag([0.5, 0.5]), atol=ATOL)

    def test_post_state_valid_for_random_inputs(self):
        rho = seeded_state(5, "mixed", 8)
        p = seeded_projector(5, 2, 9)
        for mode in ("selective_yes", "selective_no", "nonselective"):
            _, post = hilbert.lueders_update(rho, p, mode)
            assert abs(post.trace().real - 1.0) < 1e-10


class TestSequentialProbability:
    def test_repeated_question(self):
        rho = seeded_state(3, "mixed", 4)
        p = seeded_projector(3, 1, 5)
        assert hilbert.sequential_probability(rho, p, p) == pytest.approx(
            hilbert.born_probability(rho, p), abs=ATOL
        )

    def test_tilted_example(self, tilted_example):
        rho, a, b = tilted_example
        assert hilbert.sequential_probability(rho, a, b) == pytest.approx(0.05, abs=ATOL)

    def test_orthogonal_support(self):
        assert hilbert.sequential_probability(state(0, 1), proj(1, 0), proj(1, 0)) == pytest.approx(
            0.0, abs=ATOL
        )

    def test_factorises_through_selective_update(self, tilted_example):
        rho, a, b = tilted_example
        prob, post = hilbert.lueders_update(rho, a, "selective_yes")
        assert hilbert.sequential_probability(rho, a, b) == pytest.approx(
            prob * hilbert.born_probability(post, b), abs=ATOL
        )


class TestLogicalJoint:
    def test_question_with_itself_is_born(self):
        rho = seeded_state(4, "mixed", 14)
        p = seeded_projector(4, 2, 15)
        for method in ("operational", "jordan"):
            assert hilbert.logical_joint(rho, p, p, method) == pytest.approx(
                hilbert.born_probability(rho, p), abs=ATOL
            )

    def test_tilted_example_negative(self, tilted_example):
        rho, a, b = tilted_example
        assert hilbert.logical_joint(rho, a, b, "operational") == pytest.approx(-0.1, abs=ATOL)
        assert hilbert.logical_joint(rho, a, b, "jordan") == pytest.approx(-0.1, abs=ATOL)

    def test_commuting_questions_give_classical_joint(self):
        rho = state(0.3, 0.7)
        assert hilbert.logical_joint(rho, proj(1, 0), proj(0, 1)) == pytest.approx(0.0, abs=ATOL)
        assert hilbert.logical_joint(rho, proj(1, 0), proj(1, 0)) == pytest.approx(0.3, abs=ATOL)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_methods_agree_and_equal_re_trace(self, dim):
        for trial in range(25):
            seed = 1000 * dim + trial
            rho = seeded_state(dim, "mixed" if trial % 2 else "pure", seed)
            a = seeded_projector(dim, 1 + trial % (dim - 1), seed + 1)
            b = seeded_projector(dim, 1 + (trial + 1) % (dim - 1), seed + 2)
            operational = hilbert.logical_joint(rho, a, b, "operational")
            algebraic = hilbert.logical_joint(rho, a, b, "jordan")
            re_trace = np.trace(rho @ a @ b).real
            assert operational == pytest.approx(algebraic, abs=1e-10)
            assert operational == pytest.approx(re_trace, abs=1e-10)

    def test_order_symmetry(self):
        rho = seeded_state(5, "mixed", 21)
        a = seeded_projector(5, 2, 22)
        b = seeded_projector(5, 3, 23)
        assert hilbert.logical_joint(rho, a, b) == pytest.approx(
            hilbert.logical_joint(rho, b, a), abs=1e-10
        )


class TestXorExpectation:
    def test_question_with_itself(self):
        rho = seeded_state(3, "mixed", 31)
        p = seeded_projector(3, 1, 32)
        assert hilbert.xor_expectation(rho, p, p) == pytest.approx(0.0, abs=ATOL)

    def test_orthogonal_rank_one_pair(self):
        rho = seeded_state(2, "mixed", 33)
        assert hilbert.xor_expectation(rho, proj(1, 0), proj(0, 1)) == pytest.approx(1.0, abs=ATOL)

    def test_tilted_example(self, tilted_example):
        rho, a, b = tilted_example
        expected = 0.1 + 0.2 - 2 * (-0.1)
        for method in ("operational", "mapped_operator"):
            assert hilbert.xor_expectation(rho, a, b, method) == pytest.approx(
                expected, abs=ATOL
            )

    def test_methods_agree_and_are_order_symmetric(self):
        rho = seeded_state(6, "mixed", 34)
        a = seeded_projector(6, 2, 35)
        b = seeded_projector(6, 4, 36)
        forward = hilbert.xor_expectation(rho, a, b, "operational")
        assert forward == pytest.approx(
            hilbert.xor_expectation(rho, a, b, "mapped_operator"), abs=1e-10
        )
        assert forward == pytest.approx(
            hilbert.xor_expectation(rho, b, a, "operational"), abs=1e-10
        )


class TestQuasiProbTable:
    def test_commuting_pair_is_classical(self):
        table = hilbert.quasi_prob_table(state(0.3, 0.7), proj(1, 0), proj(0, 1))
        assert table.cells[(1, 1)] == pytest.approx(0.0, abs=ATOL)
        assert table.cells[(1, 0)] == pytest.approx(0.3, abs=ATOL)
        assert table.cells[(0, 1)] == pytest.approx(0.7, abs=ATOL)
        assert table.cells[(0, 0)] == pytest.approx(0.0, abs=ATOL)

    def test_tilted_example_cells(self, tilted_example):
        table = hilbert.quasi_prob_table(*tilted_example)
        assert table.cells[(1, 1)] == pytest.approx(-0.1, abs=ATOL)
        assert table.cells[(1, 0)] == pytest.approx(0.2, abs=ATOL)
        assert table.cells[(0, 1)] == pytest.approx(0.3, abs=ATOL)
        assert table.cells[(0, 0)] == pytest.approx(0.6, abs=ATOL)

    def test_normalisation_and_marginals(self):
        rho = seeded_state(4, "mixed", 41)
        a = seeded_projector(4, 2, 42)
        b = seeded_projector(4, 1, 43)
        table = hilbert.quasi_prob_table(rho, a, b)
        assert table.total() == pytest.approx(1.0, abs=1e-10)
        cells = table.cells
        assert cells[(1, 1)] + cells[(1, 0)] == pytest.approx(
            hilbert.born_probability(rho, a), abs=1e-10)
        assert cells[(1, 1)] + cells[(0, 1)] == pytest.approx(
            hilbert.born_probability(rho, b), abs=1e-10)

    def test_nan_residual_is_left_to_the_caller_at_infinite_tol(self):
        """So that ``verify`` reports a NaN marginality residual as a failed check."""
        rho, a, b = hilbert.worked_example()
        a = np.array(a)
        a[0, 1] = np.nan
        cells, _, _ = hilbert.quasi_prob_tables(rho, a, b, "jordan", tol=np.inf)
        assert np.isnan(cells).any()
        with pytest.raises(IdentityCheckError):
            hilbert.quasi_prob_tables(rho, a, b, "jordan")


class TestKdDistribution:
    def test_eigenbasis_gives_diagonal_spectrum(self):
        rho = seeded_state(3, "mixed", 51)
        eigenvalues, vectors = np.linalg.eigh(rho)
        basis = list(vectors.T)
        table = hilbert.kd_distribution(rho, basis, basis)
        assert_allclose(np.diag(table).real, eigenvalues, atol=1e-10)
        assert_allclose(table - np.diag(np.diag(table)), np.zeros_like(table), atol=1e-10)

    def test_tilted_example_cell(self, tilted_example):
        rho, _, _ = tilted_example
        basis_a = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        basis_b = [
            np.array([1.0, 1.0]) / np.sqrt(2),
            np.array([1.0, -1.0]) / np.sqrt(2),
        ]
        table = hilbert.kd_distribution(rho, basis_a, basis_b)
        assert table[0, 0].real == pytest.approx(-0.1, abs=ATOL)

    def test_sums_to_one(self):
        rho = seeded_state(5, "mixed", 52)
        basis_a = seeded_basis(5, 53)
        basis_b = seeded_basis(5, 54)
        total = hilbert.kd_distribution(rho, basis_a, basis_b).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_real_parts_are_logical_joints(self):
        rho = seeded_state(3, "mixed", 55)
        basis_a = seeded_basis(3, 56)
        basis_b = seeded_basis(3, 57)
        table = hilbert.kd_distribution(rho, basis_a, basis_b)
        for i in range(3):
            for j in range(3):
                pa = hilbert.rank_one_projector(basis_a[i])
                pb = hilbert.rank_one_projector(basis_b[j])
                assert table[i, j].real == pytest.approx(
                    hilbert.logical_joint(rho, pa, pb, "jordan"), abs=1e-10
                )

    def test_rejects_bad_bases(self):
        rho = seeded_state(3, "mixed", 58)
        incomplete = seeded_basis(3, 59)[:2]
        with pytest.raises(IncompleteBasisError):
            hilbert.kd_distribution(rho, incomplete, incomplete)
        skewed = [np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0]) / np.sqrt(2), np.array([0, 0, 1.0])]
        with pytest.raises(NotOrthonormalError):
            hilbert.kd_distribution(rho, skewed, skewed)

    @pytest.mark.parametrize("ragged", [[np.ones(2), np.ones(3)], [[1, 0], [0, 1, 0]]],
                             ids=["arrays", "lists"])
    def test_ragged_basis_names_the_basis_and_the_length(self, ragged):
        rho = seeded_state(2, "mixed", 3)
        with pytest.raises(IncompleteBasisError, match="basis_a: vectors have length 3, expected 2"):
            hilbert.kd_distribution(rho, ragged, np.eye(2))
        with pytest.raises(IncompleteBasisError, match="basis_b: vectors have length 3, expected 2"):
            hilbert.kd_distribution(rho, np.eye(2), ragged)

    @pytest.mark.parametrize("malformed", [[[1, 0], [0, [1]]], [[1, 0], ["a", 1]]],
                             ids=["nested", "string"])
    def test_malformed_basis_vector_names_the_basis_and_the_vector(self, malformed):
        rho = seeded_state(2, "mixed", 3)
        with pytest.raises(IncompleteBasisError, match="basis_a: vector 1 is not a list of numbers"):
            hilbert.kd_distribution(rho, malformed, np.eye(2))
        with pytest.raises(IncompleteBasisError, match="basis_b: vector 1 is not a list of numbers"):
            hilbert.kd_distribution(rho, np.eye(2), malformed)


class TestWeakValue:
    def test_trivial_post_selection_is_born(self):
        rho = seeded_state(3, "mixed", 61)
        a = seeded_projector(3, 1, 62)
        wv = hilbert.weak_value(rho, a, hilbert.validate_projector(np.eye(3)))
        assert wv.real == pytest.approx(hilbert.born_probability(rho, a), abs=ATOL)
        assert wv.imag == pytest.approx(0.0, abs=ATOL)

    def test_tilted_example_outside_spectrum(self, tilted_example):
        rho, a, b = tilted_example
        wv = hilbert.weak_value(rho, a, b)
        assert wv.real == pytest.approx(-0.5, abs=ATOL)

    def test_commuting_case_within_spectrum(self):
        wv = hilbert.weak_value(state(0.3, 0.7), proj(1, 0), proj(1, 0))
        assert 0.0 <= wv.real <= 1.0

    def test_zero_post_selection(self):
        with pytest.raises(ZeroPostSelectionError):
            hilbert.weak_value(state(1, 0), proj(1, 0), proj(0, 1))

    def test_stacks_are_rejected_naming_the_shapes(self, tilted_example):
        rho, a, b = tilted_example
        one_member = rho[None]
        posts = np.stack([b, np.eye(2) - b])
        for args, shapes in (((one_member, a, b), "[(1, 2, 2), (2, 2), (2, 2)]"),
                             ((rho, a, posts), "[(2, 2), (2, 2), (2, 2, 2)]")):
            with pytest.raises(DimensionMismatchError, match=re.escape(shapes)):
                hilbert.weak_value(*args)

    def test_single_operand_kernels_reject_stacks_naming_the_shapes(self):
        rho, a, b = hilbert.worked_example()
        twice = {name: np.stack([op] * 2) for name, op in (("rho", rho), ("a", a), ("b", b))}
        for call, shapes in (
            (lambda: hilbert.model_sequential_probabilities(twice["rho"], a, b),
             "[(2, 2, 2), (2, 2), (2, 2)]"),
            (lambda: hilbert.model_sequential_probabilities(rho, a, twice["b"]),
             "[(2, 2), (2, 2), (2, 2, 2)]"),
            (lambda: hilbert.min_cell_over_states(twice["a"], b), "[(2, 2, 2), (2, 2)]"),
            (lambda: hilbert.min_cell_over_states(a, twice["b"][:1]), "[(2, 2), (1, 2, 2)]"),
        ):
            with pytest.raises(DimensionMismatchError, match=re.escape(shapes)):
                call()


class TestNegativity:
    def test_fixed_example(self, tilted_example):
        value, cell = hilbert.quasi_prob_table(*tilted_example, "jordan").min_cell()
        assert value == pytest.approx(-0.1, abs=ATOL)
        assert cell == (1, 1)
        # over all states its four cells tie at (1 - √2)/4; the first in logic.CELLS is named
        _, a, b = tilted_example
        lowest = hilbert.min_cells_over_states(a, b).tolist()
        assert lowest == [lowest[0]] * 4
        assert lowest[0] == pytest.approx((1 - np.sqrt(2)) / 4, abs=ATOL)
        assert hilbert.min_cell_over_states(a, b) == (lowest[0], (0, 0))

    def test_commuting_triples_stay_nonnegative(self):
        for seed in range(50):
            rho, a, b = seeded_commuting_triple(2 + seed % 5, seed)
            value, _ = hilbert.quasi_prob_table(rho, a, b, "jordan").min_cell()
            assert value >= -1e-12


class TestOrderDependence:
    def test_sequential_depends_on_order_logical_does_not(self, tilted_example):
        rho, a, b = tilted_example
        seq_gap = abs(
            hilbert.sequential_probability(rho, a, b)
            - hilbert.sequential_probability(rho, b, a)
        )
        joint_gap = abs(
            hilbert.logical_joint(rho, a, b) - hilbert.logical_joint(rho, b, a)
        )
        assert seq_gap > 0.01
        assert joint_gap <= 1e-10


class TestModelBridge:
    def test_distributions_normalise_and_marginalise(self, tilted_example):
        rho, a, b = tilted_example
        p_ab, p_ba = hilbert.model_sequential_probabilities(rho, a, b)
        assert sum(p_ab.values()) == pytest.approx(1.0, abs=ATOL)
        assert sum(p_ba.values()) == pytest.approx(1.0, abs=ATOL)
        assert p_ab[(1, 1)] + p_ab[(1, 0)] == pytest.approx(0.1, abs=ATOL)
        assert p_ba[(1, 1)] + p_ba[(1, 0)] == pytest.approx(0.2, abs=ATOL)


def from_json(data: dict) -> np.ndarray:
    """The matrix a :func:`hilbert.matrix_to_json` dict holds."""
    m = np.asarray(data["re"]) + 1j * np.asarray(data["im"])
    assert m.shape == (data["dim"], data["dim"])
    return m


class TestSerialization:
    def test_matrix_round_trip(self):
        m = seeded_hermitian(4, 71) + 1j * 0  # complex dtype
        data = hilbert.matrix_to_json(m)
        text = json.dumps(data)
        assert np.array_equal(from_json(json.loads(text)), m)

    def test_state_round_trip_revalidates(self):
        rho = seeded_state(3, "mixed", 72)
        recovered = hilbert.validate_density(from_json(hilbert.matrix_to_json(rho)))
        assert_allclose(recovered, rho)

    def test_shape_errors(self):
        """A stack is a :class:`DimensionMismatchError`, like every one-matrix form's;
        any other array that is no square matrix stays a :class:`BadDimensionError`."""
        for bad in (np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 3, 3))):
            with pytest.raises(BadDimensionError):
                hilbert.matrix_to_json(bad)
        with pytest.raises(DimensionMismatchError):
            hilbert.matrix_to_json(np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# stacked sampling and validation against reference code that draws one
# member at a time from the same generator

stack_dims = st.integers(min_value=2, max_value=8)
stack_seeds = st.integers(min_value=0, max_value=2**32)


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def reference_state(dim, purity, rng):
    if purity == "pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
    else:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= rho.trace().real
    return (rho + rho.conj().T) / 2


def reference_states(dim, purities, rng):
    """Member i of purity purities[i]; the pure members are drawn first, then the mixed ones."""
    states = {}
    for purity in ("pure", "mixed"):
        for i, p in enumerate(purities):
            if p == purity:
                states[i] = reference_state(dim, purity, rng)
    return [states[i] for i in range(len(purities))]


def reference_projector(dim, rank, rng):
    """QQᴴ of a d × k Gaussian's reduced QR, k = min(rank, d - rank), or I - QQᴴ where k < rank."""
    width = min(rank, dim - rank)
    q, _ = np.linalg.qr(complex_gaussian(rng, (dim, width)))
    p = q @ q.conj().T
    if width < rank:
        p = np.eye(dim) - p
    return (p + p.conj().T) / 2


def reference_triples(dim, trials, seed):
    """Verify's triples of one dimension, drawn one member at a time from its two streams:
    every rank, then each question's Gaussian frame in trial order, A's before B's."""
    rng = np.random.default_rng([seed, verify._QUESTIONS, dim])
    ranks = [[int(rng.integers(1, dim)) for _ in range(trials)] for _ in "ab"]
    questions_a, questions_b = ([reference_projector(dim, r, rng) for r in rs] for rs in ranks)
    states = reference_states(dim, ["pure" if t % 2 == 0 else "mixed" for t in range(trials)],
                              np.random.default_rng([seed, verify._STATES, dim]))
    yield from zip(states, questions_a, questions_b)


class TestStackedSampling:
    @given(stack_dims, stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_states_equal_per_key_draws(self, dim, seed):
        purities = ["pure", "mixed", "mixed", "pure", "mixed"]
        stack = hilbert.sample_states(dim, purities, np.random.default_rng(seed))
        assert stack.shape == (5, dim, dim) and not stack.flags.writeable
        references = reference_states(dim, purities, np.random.default_rng(seed))
        for member, reference in zip(stack, references):
            assert np.array_equal(member, reference)

    @given(stack_dims, stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_projectors_equal_per_key_draws(self, dim, seed):
        ranks = [1 + (seed + i) % (dim - 1) for i in range(6)]
        stack = hilbert.sample_projectors(dim, ranks, np.random.default_rng(seed))
        assert not stack.flags.writeable
        rng = np.random.default_rng(seed)
        for member, rank in zip(stack, ranks):
            assert np.array_equal(member, reference_projector(dim, rank, rng))

    @pytest.mark.parametrize("sample, reference", [
        (hilbert.sample_hermitians, reference_hermitian),
        (hilbert.sample_orthonormal_bases, lambda dim, rng: haar_unitary(rng, dim).T),
    ], ids=["hermitians", "orthonormal_bases"])
    @given(stack_dims, stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_members_and_norms_equal_per_matrix(self, sample, reference, dim, seed):
        stack = sample(dim, 7, np.random.default_rng(seed))
        norms = hilbert.operator_norm(stack)
        assert norms.shape == (7,)
        rng = np.random.default_rng(seed)
        for member, norm in zip(stack, norms):
            assert np.array_equal(member, reference(dim, rng))
            assert norm == hilbert.operator_norm(member) == float(np.linalg.norm(member, 2))

    @given(stack_dims, st.integers(min_value=1, max_value=9), stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_verify_sampler_equals_per_trial_loop(self, dim, trials, seed):
        stacked = list(sampled_triples((dim,), trials, seed))
        assert len(stacked) == trials
        for (d, rho, a, b), (rho_ref, a_ref, b_ref) in zip(
            stacked, reference_triples(dim, trials, seed)
        ):
            assert d == dim
            assert np.array_equal(rho, rho_ref)
            assert np.array_equal(a, a_ref)
            assert np.array_equal(b, b_ref)

    def test_stack_validation_reports_worst_member(self):
        stack = np.array(hilbert.sample_projectors(3, [1, 2, 1, 2], np.random.default_rng(1)))
        stack[1, 0, 2] += 1e-6
        stack[3, 1, 0] += 1e-8
        worst = hilbert.operator_norm(stack[1] - stack[1].conj().T)
        with pytest.raises(NotHermitianError) as exc:
            hilbert._validated_projectors(stack, hilbert.DEFAULT_TOL)
        assert exc.value.residual == worst

    def test_stack_density_validation_matches_scalar_errors(self):
        stack = np.array([np.diag([0.5, 0.5]), np.diag([1.5, -0.5])], dtype=complex)
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            hilbert._validated_densities(stack, hilbert.DEFAULT_TOL)
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)
        with pytest.raises(TraceNotOneError):
            hilbert._validated_densities(
                np.array([np.diag([0.5, 0.5]), np.diag([0.7, 0.7])], dtype=complex),
                hilbert.DEFAULT_TOL,
            )

    def test_exactly_hermitian_residual_is_zero(self):
        stack = hilbert.sample_hermitians(4, 2, np.random.default_rng(1))
        assert hilbert._hermitian(stack, 0.0) is stack  # the guard passes even at tol 0

    def test_bad_rank_in_stack_rejected(self):
        with pytest.raises(BadRankError):
            hilbert.sample_projectors(3, [1, 3], np.random.default_rng(0))

    def test_bad_purity_in_stack_rejected(self):
        with pytest.raises(ValueError):
            hilbert.sample_states(3, ["pure", "thermal"], np.random.default_rng(0))

    @given(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 64]), st.integers(1, 4), stack_seeds)
    @settings(max_examples=40, deadline=None)
    def test_sampled_stacks_pass_validation(self, dim, n, seed):
        """The samplers validate nothing, so their states and questions are checked here."""
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, dim, size=n)
        rho, a, b = hilbert.sample_commuting_triples(dim, n, rng)
        for states in (hilbert.sample_states(dim, ["pure", "mixed"] * n, rng), rho):
            hilbert._validated_densities(states, hilbert.DEFAULT_TOL)
        for questions in (hilbert.sample_projectors(dim, ranks, rng), a, b):
            hilbert._validated_projectors(questions, hilbert.DEFAULT_TOL)


SAMPLERS = {
    "states": lambda dim, rng: hilbert.sample_states(dim, ["pure", "mixed"], rng),
    "projectors": lambda dim, rng: hilbert.sample_projectors(dim, [1, 1], rng),
    "hermitians": lambda dim, rng: hilbert.sample_hermitians(dim, 2, rng),
    "orthonormal_bases": lambda dim, rng: hilbert.sample_orthonormal_bases(dim, 2, rng),
    "commuting_triples": lambda dim, rng: hilbert.sample_commuting_triples(dim, 2, rng),
}


@pytest.mark.parametrize("dim, error", [
    (1, BadDimensionError), (65, BadDimensionError),
    (True, TypeError), (2.5, TypeError), ("3", TypeError),
], ids=["1", "65", "True", "2.5", "'3'"])
@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS.keys())
def test_samplers_reject_a_dimension_before_drawing(sample, dim, error):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match="dimension"):
        sample(dim, rng)
    assert rng.bit_generator.state == state


@given(stack_dims, st.integers(min_value=0, max_value=9), stack_seeds)
@settings(max_examples=25, deadline=None)
def test_samplers_draw_only_the_parameters_they_use(dim, n, seed):
    """A Hermitian matrix has d² real parameters, and a rank-r projector's frame 2·d·min(r, d - r):
    each sampler leaves its generator where drawing that many normals leaves a twin."""
    ranks = np.random.default_rng(seed).integers(1, dim, size=n)
    for sample, count in (
        (lambda rng: hilbert.sample_hermitians(dim, n, rng), n * dim**2),
        (lambda rng: hilbert.sample_projectors(dim, ranks, rng),
         sum(2 * dim * min(rank, dim - rank) for rank in ranks.tolist())),
    ):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        sample(rng)
        twin.standard_normal(count)
        assert rng.bit_generator.state == twin.bit_generator.state


MOMENT_MEMBERS = 20_000
MOMENT_STANDARD_ERRORS = 5


def assert_moments(samples, expected):
    """Each column mean of ``samples``, (n, k), is within ``MOMENT_STANDARD_ERRORS`` standard
    errors of ``expected``; a column without spread must equal it."""
    samples = samples.reshape(len(samples), -1)
    error = samples.std(axis=0) / np.sqrt(len(samples))
    gap = np.abs(samples.mean(axis=0) - np.reshape(expected, -1))
    assert (gap <= MOMENT_STANDARD_ERRORS * error).all(), (gap / error).max()


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_sampled_moments_match_their_closed_forms(dim):
    """Hermitian: E H = 0, E H_ii² = 1 and E (Re H_ij)² = E (Im H_ij)² = ½ for i ≠ j, the
    variances of (M + Mᴴ)/2 for a standard complex Gaussian M.  Rank-r projector, Haar-random:
    E P = (r/d) I, E |P_ij|² = β for i ≠ j and E P_ii² = r/d - β(d - 1), β = r(d-r)/(d(d²-1)),
    for every rank on both sides of d/2, so that the complement I - QQᴴ is covered."""
    rng = np.random.default_rng([2026, dim])
    off = ~np.eye(dim, dtype=bool)
    h = hilbert.sample_hermitians(dim, MOMENT_MEMBERS, rng)
    assert_moments(h.view(float), np.zeros(2 * dim * dim))
    assert_moments(np.diagonal(h.real, axis1=1, axis2=2) ** 2, np.ones(dim))
    assert_moments(h.real[:, off] ** 2, np.full(dim * dim - dim, 0.5))
    assert_moments(h.imag[:, off] ** 2, np.full(dim * dim - dim, 0.5))
    del h
    ranks = np.arange(MOMENT_MEMBERS) % (dim - 1) + 1
    p = hilbert.sample_projectors(dim, ranks, rng)
    for rank in range(1, dim):
        members = p[ranks == rank]
        beta = rank * (dim - rank) / (dim * (dim**2 - 1))
        assert_moments(members.view(float), (rank / dim * np.eye(dim)).astype(complex).view(float))
        assert_moments(np.abs(members[:, off]) ** 2, np.full(dim * dim - dim, beta))
        assert_moments(np.diagonal(members.real, axis1=1, axis2=2) ** 2,
                       np.full(dim, rank / dim - beta * (dim - 1)))


def test_samplers_call_no_validator(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sampler validated its own stack")

    monkeypatch.setattr(hilbert, "_validated_densities", refuse)
    monkeypatch.setattr(hilbert, "_validated_projectors", refuse)
    for sample in SAMPLERS.values():
        sample(3, np.random.default_rng(0))


# working memory: a sampler's result is built in place of the Gaussians it draws

# every sampler at d = 32 on n members; the last draws every state mixed
WORKING_MEMORY_SAMPLERS = {
    "hermitians": (lambda n, rng: hilbert.sample_hermitians(32, n, rng), 1),
    "projectors": (lambda n, rng: hilbert.sample_projectors(32, np.arange(n) % 31 + 1, rng), 1),
    "states": (lambda n, rng: hilbert.sample_states(32, ["pure", "mixed"] * (n // 2), rng), 1),
    "orthonormal_bases": (lambda n, rng: hilbert.sample_orthonormal_bases(32, n, rng), 1),
    "commuting_triples": (lambda n, rng: hilbert.sample_commuting_triples(32, n, rng), 3),
    "mixed states": (lambda n, rng: hilbert.sample_states(32, ["mixed"] * n, rng), 1),
}
STACK_BYTES = 512 * 32 * 32 * np.dtype(np.complex128).itemsize  # U, one sampled stack
# numpy's cast buffer (8192 complex items), boolean masks and index lists
SLACK_BYTES = STACK_BYTES // 10


@pytest.mark.parametrize("sampler", WORKING_MEMORY_SAMPLERS)
def test_sampler_peaks_at_its_result_plus_one_stack(sampler):
    """The Gaussians are drawn whole and the result built in place of them, block by block:
    at 0.17.0 a one-stack sampler peaked at 3 U (hermitians, states) or 4 U (projectors),
    and the commuting triples at 10 U."""
    sample, stacks = WORKING_MEMORY_SAMPLERS[sampler]
    sample(2, np.random.default_rng(5))
    peak = traced_peak(sample, 512, np.random.default_rng(5))
    assert peak <= (stacks + 1) * STACK_BYTES + SLACK_BYTES


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("sampler", WORKING_MEMORY_SAMPLERS)
def test_samplers_are_bit_for_bit_at_any_block_size(monkeypatch, sampler, members):
    """Each member is built alone, so blocks of one or three members give the same bits."""
    sample = WORKING_MEMORY_SAMPLERS[sampler][0]
    whole = sample(40, np.random.default_rng(9))
    monkeypatch.setattr(hilbert, "_BLOCK_ENTRIES", members * 32 * 32)
    cut = sample(40, np.random.default_rng(9))
    for expected, got in zip(*(m if isinstance(m, tuple) else (m,) for m in (whole, cut))):
        assert got.tobytes() == expected.tobytes() and got.strides == expected.strides


# ---------------------------------------------------------------------------
# stacked kernels against the per-triple reference code


def reference_re_trace(m):
    return float(np.trace(m).real)


def reference_lueders(rho, p, mode):
    """Unvalidated (probability, post-state) of the per-matrix Lüders update."""
    eye = np.eye(len(p))
    if mode == "nonselective":
        post = p @ rho @ p + (eye - p) @ rho @ (eye - p)
        return 1.0, (post + post.conj().T) / 2
    proj = p if mode == "selective_yes" else eye - p
    branch = proj @ rho @ proj
    probability = float(branch.trace().real)
    post = branch / probability
    return probability, (post + post.conj().T) / 2


def reference_joint(rho, a, b, method):
    if method == "jordan":
        # Re Tr((rho∘A) B) = Re Σᵢⱼ (rho∘A)ᵢⱼ Bⱼᵢ, one dot product of rho∘A and Bᵀ flattened
        return float(np.dot(((rho @ a + a @ rho) / 2).ravel(), b.T.ravel()).real)
    seq = reference_re_trace(b @ a @ rho @ a)
    _, disturbed = reference_lueders(rho, a, "nonselective")
    return seq + (reference_re_trace(rho @ b) - reference_re_trace(disturbed @ b)) / 2


def reference_xor(rho, a, b, method):
    eye = np.eye(len(a))
    abar, bbar = eye - a, eye - b
    if method == "operational":
        return reference_re_trace(bbar @ a @ rho @ a) + reference_re_trace(b @ abar @ rho @ abar)
    return reference_re_trace(rho @ (a @ bbar @ a + abar @ b @ abar))


def reference_cells(rho, a, b, method):
    eye = np.eye(len(a))
    firsts, seconds = {1: a, 0: eye - a}, {1: b, 0: eye - b}
    return [reference_joint(rho, firsts[i], seconds[j], method) for i, j in logic.CELLS]


def reference_commuting_triples(dim, n, rng):
    """(states, questions A, questions B) of n members: every unitary, then every
    member's Dirichlet eigenvalues, then the 0/1 diagonals of A and then of B,
    each drawn for all members and the all-0 and all-1 rows redrawn in rounds."""
    unitaries = [haar_unitary(rng, dim) for _ in range(n)]
    probs = [rng.dirichlet(np.ones(dim)) for _ in range(n)]

    def patterns():
        rows = [rng.integers(0, 2, size=dim) for _ in range(n)]
        while True:
            improper = [i for i, row in enumerate(rows) if not 0 < row.sum() < dim]
            if not improper:
                return [row.astype(float) for row in rows]
            for i in improper:
                rows[i] = rng.integers(0, 2, size=dim)

    out = []
    for diagonals in (probs, patterns(), patterns()):
        ms = [u @ np.diag(d.astype(complex)) @ u.conj().T for u, d in zip(unitaries, diagonals)]
        out.append([(m + m.conj().T) / 2 for m in ms])
    return out


def sampled_stack(dim, trials, seed):
    (_, rho, a, b), = verify._sampled_stacks((dim,), trials, seed)
    return rho, a, b


stack_trials = st.integers(min_value=1, max_value=12)
block_members = st.integers(min_value=1, max_value=5)


class TestStackedKernels:
    @given(stack_dims, stack_trials, stack_seeds, block_members)
    @settings(max_examples=25, deadline=None)
    def test_lueders_updates_equal_per_triple(self, dim, trials, seed, members):
        rho, a, _ = sampled_stack(dim, trials, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "_BLOCK_ENTRIES", members * dim * dim)
            for mode in ("nonselective", "selective_yes", "selective_no"):
                probabilities, posts = hilbert.lueders_updates(rho, a, mode)
                assert posts.shape == rho.shape and not posts.flags.writeable
                for r, p, probability, post in zip(rho, a, probabilities, posts):
                    ref_probability, ref_post = reference_lueders(r, p, mode)
                    assert probability == ref_probability
                    assert np.array_equal(post, ref_post)
                    scalar = hilbert.lueders_update(r, p, mode)
                    assert scalar[0] == probability
                    assert np.array_equal(scalar[1], post)

    @given(stack_dims, stack_trials, stack_seeds, block_members)
    @settings(max_examples=25, deadline=None)
    def test_joint_xor_and_tables_equal_per_triple(self, dim, trials, seed, members):
        rho, a, b = sampled_stack(dim, trials, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "_BLOCK_ENTRIES", members * dim * dim)
            for method in ("operational", "jordan"):
                joints = hilbert.logical_joints(rho, a, b, method)
                cells, pa, pb = hilbert.quasi_prob_tables(rho, a, b, method)
                assert joints.shape == (trials,) and cells.shape == (trials, 4)
                for i, (r, p, q) in enumerate(zip(rho, a, b)):
                    assert joints[i] == reference_joint(r, p, q, method)
                    assert cells[i].tolist() == reference_cells(r, p, q, method)
                    assert pa[i] == reference_re_trace(r @ p)
                    assert pb[i] == reference_re_trace(r @ q)
                    objects = r, p, q
                    assert hilbert.logical_joint(*objects, method) == joints[i]
                    table = hilbert.quasi_prob_table(*objects, method)
                    assert list(table.cells.values()) == cells[i].tolist()
            # one projector against a stack
            joints = hilbert.logical_joints(rho[0], a[0], b, "jordan")
            assert joints.tolist() == [reference_joint(rho[0], a[0], q, "jordan") for q in b]
            for method in ("operational", "mapped_operator"):
                xors = hilbert.xor_expectations(rho, a, b, method)
                for i, (r, p, q) in enumerate(zip(rho, a, b)):
                    assert xors[i] == reference_xor(r, p, q, method)
            sequential = hilbert.sequential_probabilities(rho, a, b)
            born = hilbert.born_probabilities(rho, b)
            for i, (r, p, q) in enumerate(zip(rho, a, b)):
                assert sequential[i] == reference_re_trace(q @ p @ r @ p)
                assert born[i] == reference_re_trace(r @ q)

    @given(st.integers(min_value=2, max_value=5), stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_commuting_triples_equal_per_seed(self, dim, seed):
        stacks = hilbert.sample_commuting_triples(dim, 6, np.random.default_rng(seed))
        references = reference_commuting_triples(dim, 6, np.random.default_rng(seed))
        for stack, refs in zip(stacks, references):
            assert not stack.flags.writeable
            for member, ref in zip(stack, refs):
                assert np.array_equal(member, ref)

    @given(stack_dims, st.integers(min_value=1, max_value=6), stack_seeds)
    @settings(max_examples=25, deadline=None)
    def test_rank_one_projectors_equal_per_vector(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        stack = hilbert.rank_one_projectors(vectors)
        for v, member in zip(vectors, stack):
            unit = v / np.linalg.norm(v)
            assert np.array_equal(member, np.outer(unit, unit.conj()))
            assert np.array_equal(hilbert.rank_one_projector(v), member)

    def test_bad_post_state_in_stack_reports_worst_member(self, monkeypatch):
        # not states: the disturbed "states" keep these diagonals, two of them negative
        rho = np.array([np.diag(d) for d in ([0.5, 0.5], [1.3, -0.3], [1.1, -0.1], [1.0, 0.0])],
                       dtype=complex)
        p = proj(1, 0)
        monkeypatch.setattr(hilbert, "_BLOCK_ENTRIES", 4)  # one member per block
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            hilbert.lueders_updates(rho, p, "nonselective")
        assert exc.value.min_eigenvalue == pytest.approx(-0.3, abs=1e-15)
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            hilbert.logical_joints(rho, p, proj(0, 1), "operational")
        assert exc.value.min_eigenvalue == pytest.approx(-0.3, abs=1e-15)

    @pytest.mark.parametrize("validator", ["_validated_projectors", "_validated_densities"])
    def test_blockwise_validation_reports_worst_member(self, monkeypatch, validator):
        stack = np.array(hilbert.sample_projectors(3, [1, 1, 1, 1], np.random.default_rng(1)))
        stack[1, 0, 2] += 1e-8
        stack[3, 1, 0] += 1e-6
        worst = hilbert.operator_norm(stack[3] - stack[3].conj().T)
        monkeypatch.setattr(hilbert, "_BLOCK_ENTRIES", 9)  # one member per block
        with pytest.raises(NotHermitianError) as exc:
            getattr(hilbert, validator)(stack, hilbert.DEFAULT_TOL)
        assert exc.value.residual == worst

    def test_zero_branch_in_stack_reports_smallest_probability(self):
        rho = np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), np.diag([0.9, 0.1])],
                       dtype=complex)
        with pytest.raises(ZeroProbabilityBranchError) as exc:
            hilbert.lueders_updates(rho, proj(0, 1), "selective_yes")
        assert exc.value.probability == 0.0

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hilbert.logical_joints(np.eye(2) / 2, np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatchError):
            hilbert.born_probabilities(np.eye(2) / 2, np.ones((2, 3)))


def operand(kind, dim, rng):
    """A state, projector, Hermitian or PSD matrix of dimension ``dim``."""
    if kind == "state":
        return hilbert.sample_states(dim, ["mixed"], rng)[0]
    if kind == "projector":
        return hilbert.sample_projectors(dim, [int(rng.integers(1, dim))], rng)[0]
    h = hilbert.sample_hermitians(dim, 1, rng)[0]
    return h if kind == "hermitian" else h @ h


class TestJordanTraceForm:
    @given(st.integers(min_value=2, max_value=64), stack_seeds,
           st.sampled_from(["state", "hermitian", "psd"]),
           st.sampled_from(["projector", "hermitian", "psd"]),
           st.sampled_from(["projector", "hermitian", "psd"]))
    @settings(max_examples=40, deadline=None)
    def test_within_rounding_of_the_product_form(self, dim, seed, rho_kind, a_kind, b_kind):
        """Tr((rho∘A) B) is within 16·d·eps·‖rho‖‖A‖‖B‖ of Re Tr(rho (AB + BA)/2)."""
        rng = np.random.default_rng(seed)
        rho, a, b = (np.stack([operand(kind, dim, rng) for _ in range(2)])
                     for kind in (rho_kind, a_kind, b_kind))
        rho_norm, a_norm, b_norm = (hilbert.operator_norm(m) for m in (rho, a, b))
        scale = 16 * dim * np.finfo(float).eps

        def product_form(rho, a, b):
            return np.trace(rho @ ((a @ b + b @ a) / 2), axis1=-2, axis2=-1).real

        joints = hilbert.logical_joints(rho, a, b, "jordan")
        assert np.all(np.abs(joints - product_form(rho, a, b))
                      <= scale * rho_norm * a_norm * b_norm)
        # rho∘A formed once against a stack of B
        joints = hilbert.logical_joints(rho[0], a[0], b, "jordan")
        assert np.all(np.abs(joints - product_form(rho[0], a[0], b))
                      <= scale * rho_norm[0] * a_norm[0] * b_norm)


def member_innermost(stack):
    """The same (n, d, d) values laid out with the member axis innermost in memory."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1)).transpose(2, 0, 1)


def joint_rows(rho, a, b):
    """The table of Jordan-route joints, one ``logical_joints`` call per question of ``a``."""
    return np.stack([hilbert.logical_joints(rho, question, b, "jordan") for question in a])


def kd_operands(dim, seed):
    """kd's state and rank-one question stacks, built as the command builds them."""
    rho = seeded_state(dim, "mixed", seed)
    return rho, *(hilbert.rank_one_projectors(seeded_basis(dim, seed + k)) for k in (1, 2))


class TestLogicalJointTable:
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5), stack_seeds, st.booleans(), block_members)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_row_loop_and_the_operational_route(
            self, dim, n_a, extra, seed, innermost, members):
        """Within 16·d·eps of the per-row loop (rho a state, every question a projector,
        so every operator norm is at most 1), and within 1e-10 of the operational route."""
        n_b = n_a + extra
        rng = np.random.default_rng(seed)
        rho = hilbert.sample_states(dim, ["mixed"], rng)[0]
        a, b = (hilbert.sample_projectors(dim, rng.integers(1, dim, size=n), rng)
                for n in (n_a, n_b))
        if innermost:
            a, b = member_innermost(a), member_innermost(b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "_BLOCK_ENTRIES", members * dim * dim)
            table = hilbert.logical_joint_table(rho, a, b)
            transposed = hilbert.logical_joint_table(rho, b, a)
        assert table.shape == (n_a, n_b) and transposed.shape == (n_b, n_a)
        rounding = 16 * dim * np.finfo(float).eps
        assert np.abs(table - joint_rows(rho, a, b)).max() <= rounding
        operational = hilbert.logical_joints(
            rho, np.repeat(a, n_b, axis=0), np.tile(b, (n_a, 1, 1)), "operational")
        assert np.abs(table - operational.reshape(n_a, n_b)).max() <= 1e-10
        # the joint is order-symmetric
        assert np.abs(table - transposed.T).max() <= 2 * rounding

    @given(st.sampled_from([2, 3, 8, 24, 48, 64]), st.integers(min_value=2, max_value=4),
           stack_seeds, block_members)
    @settings(max_examples=40, deadline=None)
    def test_block_size_moves_no_bits_on_member_innermost_stacks(self, dim, n, seed, members):
        """On stacks whose member axis is innermost in memory, the ``jordan`` route is the same
        bit for bit however ``_blockwise`` cuts them: each joint is one dot product of its
        own members, memberwise and with one rho∘A against a stack of B alike."""
        rng = np.random.default_rng(seed)
        rho = member_innermost(hilbert.sample_states(dim, ["mixed"] * n, rng))
        a, b = (member_innermost(hilbert.sample_projectors(dim, rng.integers(1, dim, size=n), rng))
                for _ in "ab")
        whole, cut = n * dim * dim, members * dim * dim

        def joints(entries, *operands):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hilbert, "_BLOCK_ENTRIES", entries)
                return hilbert.logical_joints(*operands, "jordan")

        for operands in ((rho, a, b), (rho[0], a, b), (rho, a[0], b), (rho[0], a[0], b)):
            assert np.array_equal(joints(cut, *operands), joints(whole, *operands))

    @given(st.sampled_from([2, 3, 8, 24, 48, 64]), st.integers(min_value=1, max_value=4),
           stack_seeds, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_jordan_path_agrees_with_the_einsum_contraction(self, dim, n, seed, innermost):
        """Memberwise, one rho∘A against a stack, and tabled, each ``jordan`` joint is within
        16·d·eps of einsum's Re Σᵢⱼ (rho∘A)ᵢⱼ Bⱼᵢ, which shares no arithmetic with the
        per-pair dot products (rho a state, every question a projector, so every operator
        norm is at most 1), on C-contiguous and on member-innermost stacks."""
        rng = np.random.default_rng(seed)
        rho = hilbert.sample_states(dim, ["mixed"] * n, rng)
        a, b = (hilbert.sample_projectors(dim, rng.integers(1, dim, size=n), rng) for _ in "ab")
        if innermost:
            rho, a, b = map(member_innermost, (rho, a, b))
        rounding = 16 * dim * np.finfo(float).eps

        def contraction(rho, a, b):
            return np.einsum("...ij,...ji->...", (rho @ a + a @ rho) / 2, b).real

        for joints, expected in [
            (hilbert.logical_joints(rho, a, b, "jordan"), contraction(rho, a, b)),
            (hilbert.logical_joints(rho[0], a[0], b, "jordan"), contraction(rho[0], a[0], b)),
            (hilbert.logical_joint_table(rho[0], a, b), contraction(rho[0], a[:, None], b)),
        ]:
            assert joints.shape == expected.shape
            assert np.abs(joints - expected).max() <= rounding

    @pytest.mark.parametrize("seed", [0, 5, 123456789])
    @pytest.mark.parametrize("dim", [2, 3, 24, 36, 48, 64])
    def test_equals_the_row_loop_bit_for_bit_on_kd_stacks(self, dim, seed):
        rho, a, b = kd_operands(dim, seed)
        assert np.array_equal(hilbert.logical_joint_table(rho, a, b), joint_rows(rho, a, b))

    def test_a_matrix_is_a_one_row_table(self):
        rho, a, b = kd_operands(3, 1)
        table = hilbert.logical_joint_table(rho, a[1], b)
        assert table.shape == (1, 3)
        assert table[0].tolist() == hilbert.logical_joints(rho, a[1], b, "jordan").tolist()

    @pytest.mark.parametrize("rho, a, b", [
        (np.stack([np.eye(2) / 2] * 2), np.eye(2)[None], np.eye(2)[None]),
        (np.eye(2) / 2, np.eye(3)[None], np.eye(2)[None]),
        (np.eye(2) / 2, np.eye(2)[None], np.eye(3)[None]),
        (np.eye(2) / 2, np.eye(2)[None], np.ones((2, 3))),
    ], ids=["stacked state", "a of another d", "b of another d", "non-square b"])
    def test_rejects_mismatched_operands(self, rho, a, b):
        with pytest.raises(DimensionMismatchError):
            hilbert.logical_joint_table(rho, a, b)

    def test_peak_memory_stays_below_three_stacks(self):
        """At d = 64 the temporaries are one Bᵀ copy (4 MB) and one block of rho∘A;
        a (d², d, d) product stack would take 268 MB."""
        dim = 64
        rho, a, b = kd_operands(dim, 42)
        tracemalloc.start()
        try:
            hilbert.logical_joint_table(rho, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * dim**3 * np.dtype(np.complex128).itemsize


class TestNormGate:
    """Pass/fail checks read the Frobenius norm first and decide as the spectral norm does."""

    @given(st.integers(min_value=2, max_value=64), stack_seeds,
           st.floats(min_value=-1e-11, max_value=1e-11), st.sampled_from([1e-12, 1e-10, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_decides_as_the_spectral_norm(self, dim, seed, offset, tol):
        # rank one, where the two norms are equal, and a full-rank member below tol
        rng = np.random.default_rng(seed)
        u, v = hilbert._complex_gaussians(rng, 2, (dim,))
        rank_one = np.outer(u, v.conj())
        full = hilbert._complex_gaussians(rng, 1, (dim, dim))[0]
        stack = np.stack([rank_one * (tol * (1 + offset) / hilbert.operator_norm(rank_one)),
                          full * (tol / 2 / hilbert.operator_norm(full))])
        spectral = float(hilbert.operator_norm(stack).max())
        gate = hilbert._gate_norm(stack, tol)
        assert (gate > tol) == (spectral > tol)
        if spectral > tol:
            assert gate == spectral

    @staticmethod
    def residuals(scale):
        """(operand, residual matrix) of each gated check, the residual of spectral norm
        ``scale``·tol and of Frobenius norm 2 or √2 times that."""
        c = scale * hilbert.DEFAULT_TOL
        delta = -0.5 + np.sqrt(0.25 + c)  # δ(1 + δ) = c
        skewed = np.diag([0.25] * 4) + 0.5j * c * np.diag([1.0, -1.0, 1.0, -1.0])
        stretched = np.diag([1.0 + delta, 1.0 + delta, 0.0, 0.0])
        basis = np.sqrt(1.0 + c) * np.eye(4, dtype=complex)
        a, b = np.diag([1.0 + delta, 0.0, 1.0 + delta, 0.0]), np.diag([1.0, 0.0, 1.0, 0.0])
        return {
            "hermitian": (skewed, skewed - skewed.conj().T),
            "idempotent": (stretched, stretched @ stretched - stretched),
            "orthonormal": (basis, basis.conj() @ basis.T - np.eye(4)),
            "xor": ((a, b), hilbert._mapped_xor(a, b) - hilbert._xor_expansion(a, b)),
        }

    def check(self, site, operand):
        tol = hilbert.DEFAULT_TOL
        if site == "hermitian":
            return hilbert.validate_density(operand, tol)
        if site == "idempotent":
            return hilbert.validate_projector(operand, tol)
        if site == "orthonormal":
            return hilbert.kd_distribution(hilbert.validate_density(np.eye(4) / 4),
                                           operand, operand, tol)
        return hilbert.xor_expectations(np.eye(4) / 4, *operand, "mapped_operator", tol)

    @pytest.mark.parametrize("site", ["hermitian", "idempotent", "orthonormal", "xor"])
    def test_spectral_within_tol_passes_beyond_frobenius(self, site):
        operand, residual = self.residuals(0.9)[site]
        assert hilbert.operator_norm(residual) <= hilbert.DEFAULT_TOL
        assert np.linalg.norm(residual) > hilbert.DEFAULT_TOL
        self.check(site, operand)

    @pytest.mark.parametrize("site, error", [
        ("hermitian", NotHermitianError), ("idempotent", NotIdempotentError),
        ("orthonormal", NotOrthonormalError), ("xor", ArithmeticError),
    ])
    def test_spectral_just_beyond_tol_raises_its_value(self, site, error):
        operand, residual = self.residuals(1 + 1e-4)[site]
        spectral = hilbert.operator_norm(residual)
        assert spectral > hilbert.DEFAULT_TOL
        with pytest.raises(error) as exc:
            self.check(site, operand)
        if site == "xor":
            assert str(exc.value) == (
                f"mapped XOR operator deviates from its symmetric expansion by {spectral:.3e}")
        else:
            assert exc.value.residual == spectral

    def test_messages_unchanged(self):
        with pytest.raises(NotHermitianError) as exc:
            hilbert.validate_projector(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert str(exc.value) == "hermiticity residual 1.000e+00 exceeds tol 1.000e-10"
        with pytest.raises(NotIdempotentError) as exc:
            hilbert.validate_projector(np.diag([0.5, 0.5]))
        assert str(exc.value) == "idempotency residual 2.500e-01 exceeds tol 1.000e-10"


def unpruned_worst_norm(m):
    return hilbert._worst(hilbert.operator_norm(m))


def reduction_outcome(reduce, m):
    """``reduce(m)`` in hex digits, which tell -0.0 from 0.0, or what it raised."""
    try:
        return reduce(m).hex()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def norm_stacks(draw):
    """(n, d, d) stacks: Gaussian members of spread scales, all zeros (either sign), one
    outlier among zeros, a decoy whose largest Gram bound is not the largest norm, or
    Gaussian members among zero members, subnormal members or one NaN or inf entry."""
    dim = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 64]))
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["gaussian", "zeros", "outlier", "decoy", "zero members",
                                 "subnormal members", "non-finite member"]))
    scale = draw(st.sampled_from([1.0, 1e-13, 1e-158, 1e-170, 1e150, 1e-310]))
    rng = np.random.default_rng(draw(stack_seeds))
    m = complex_gaussian(rng, (n, dim, dim)) * 10 ** rng.uniform(-3, 0, (n, 1, 1))
    if kind == "zero members":
        m[rng.random(n) < 0.5] = 0
    if kind == "subnormal members":  # at scale 1, entries near 1e-310 among normal members
        m[rng.random(n) < 0.5] *= 1e-310
    if kind == "non-finite member" and n:
        m[rng.integers(n), rng.integers(dim), rng.integers(dim)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    if kind in ("zeros", "outlier", "decoy"):
        m = np.zeros_like(m) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "outlier" and n:
        m[rng.integers(n)] = complex_gaussian(rng, (dim, dim))
    if kind == "decoy" and n >= 2:
        # c·I has σ₁ = c and Gram bound c·d^¼ > 1.1c, the norm and bound of diag(1.1c, 0, ...)
        first, second = rng.choice(n, 2, replace=False)
        m[first] = np.eye(dim)
        m[second, 0, 0] = 1.1
    with np.errstate(invalid="ignore"):  # inf·0 in a product with an infinite member
        return m * scale


class TestWorstNorm:
    """The pruned worst spectral norm equals the unpruned reduction, bit for bit."""

    @given(norm_stacks())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_unpruned_reduction(self, m):
        if np.isfinite(m).all():
            assert (reduction_outcome(hilbert._worst_norm, m)
                    == reduction_outcome(unpruned_worst_norm, m))
        else:  # the solve refuses the stack; the largest Frobenius norm is NaN or inf
            assert reduction_outcome(unpruned_worst_norm, m)[0] is NonFiniteError
            assert reduction_outcome(hilbert._worst_norm, m) == (
                "nan" if np.isnan(m).any() else "inf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_members_end_as_unpruned(self, bad):
        """A NaN or inf entry in a stack, a one-member stack or a matrix gives the largest
        Frobenius norm, NaN or inf, where the singular-value solve would raise."""
        m = complex_gaussian(np.random.default_rng(4), (9, 3, 3))
        m[5, 1, 2] = bad
        expected = "nan" if np.isnan(bad) else "inf"
        for operand in (m, m[5:6], m[5]):
            assert reduction_outcome(unpruned_worst_norm, operand)[0] is NonFiniteError
            assert reduction_outcome(hilbert._worst_norm, operand) == expected


# ---------------------------------------------------------------------------
# the library boundary: every public hilbert and jordan name on every operand class

SAMPLER = "a sampler: takes a dimension, member counts or kinds, and a Generator"
# each public name (with its route, where it has two): its call on operands (rho, a, b),
# or why it takes no matrix operand; a kernel with one question takes b, the misfit below
BOUNDARY = {
    "hilbert.DEFAULT_TOL": "a constant",
    "hilbert.MAX_DIM": "a constant",
    "hilbert.QuasiProbTable": "a class of table cells and marginals",
    "hilbert.operator_norm": lambda rho, a, b: hilbert.operator_norm(a),
    "hilbert.validate_projector": "a validator: checks outside input and returns a read-only copy",
    "hilbert.validate_density": "a validator: checks outside input and returns a read-only copy",
    "hilbert.complement_projector": lambda rho, a, b: hilbert.complement_projector(a),
    "hilbert.rank_one_projector": "takes a vector, not a matrix",
    "hilbert.rank_one_projectors": "takes an (n, d) array of vectors, not matrices",
    "hilbert.sample_states": SAMPLER,
    "hilbert.sample_projectors": SAMPLER,
    "hilbert.sample_hermitians": SAMPLER,
    "hilbert.sample_orthonormal_bases": SAMPLER,
    "hilbert.sample_commuting_triples": SAMPLER,
    "hilbert.born_probability": lambda rho, a, b: hilbert.born_probability(rho, a),
    "hilbert.born_probabilities": lambda rho, a, b: hilbert.born_probabilities(rho, b),
    "hilbert.clamp_probability": "takes one probability, a float",
    "hilbert.lueders_update": lambda rho, a, b: hilbert.lueders_update(rho, a, "nonselective"),
    "hilbert.lueders_updates": lambda rho, a, b: hilbert.lueders_updates(rho, b, "selective_yes"),
    "hilbert.sequential_probability": hilbert.sequential_probability,
    "hilbert.sequential_probabilities": hilbert.sequential_probabilities,
    "hilbert.nonselective_state": lambda rho, a, b: hilbert.nonselective_state(rho, a),
    "hilbert.logical_joint": hilbert.logical_joint,
    "hilbert.logical_joints operational":
        lambda rho, a, b: hilbert.logical_joints(rho, a, b, "operational"),
    "hilbert.logical_joints jordan": lambda rho, a, b: hilbert.logical_joints(rho, a, b, "jordan"),
    "hilbert.logical_joint_table": hilbert.logical_joint_table,
    "hilbert.xor_expectation": lambda rho, a, b: hilbert.xor_expectation(
        rho, a, b, "mapped_operator"),
    "hilbert.xor_expectations operational":
        lambda rho, a, b: hilbert.xor_expectations(rho, a, b, "operational"),
    "hilbert.xor_expectations mapped_operator":
        lambda rho, a, b: hilbert.xor_expectations(rho, a, b, "mapped_operator"),
    "hilbert.quasi_prob_table": lambda rho, a, b: hilbert.quasi_prob_table(rho, a, b, "jordan"),
    "hilbert.quasi_prob_tables operational":
        lambda rho, a, b: hilbert.quasi_prob_tables(rho, a, b, "operational"),
    "hilbert.quasi_prob_tables jordan":
        lambda rho, a, b: hilbert.quasi_prob_tables(rho, a, b, "jordan"),
    "hilbert.table_marginality_residuals": "takes table cells and marginals, not matrices",
    "hilbert.kd_distribution": lambda rho, a, b: hilbert.kd_distribution(
        rho, np.eye(2), [[1.0, 1.0], [1.0, -1.0]] / np.sqrt(2)),
    "hilbert.weak_value": hilbert.weak_value,
    "hilbert.worked_example": "takes no argument",
    "hilbert.min_cell_over_states": lambda rho, a, b: hilbert.min_cell_over_states(a, b),
    "hilbert.min_cells_over_states": lambda rho, a, b: hilbert.min_cells_over_states(a, b),
    "hilbert.model_sequential_probabilities": hilbert.model_sequential_probabilities,
    "hilbert.matrix_to_json": lambda rho, a, b: hilbert.matrix_to_json(rho),
    "jordan.jordan_product": lambda rho, a, b: jordan.jordan_product(a, b),
    "jordan.idempotency_residuals": lambda rho, a, b: jordan.idempotency_residuals(a),
    "jordan.formal_reality_residuals": lambda rho, a, b: jordan.formal_reality_residuals(a, b),
    "jordan.xor_symmetry_residuals": lambda rho, a, b: jordan.xor_symmetry_residuals(a, b),
}

STACKED_KERNELS = [name for name in BOUNDARY if name.partition(" ")[0] in (
    "hilbert.born_probabilities", "hilbert.lueders_updates", "hilbert.sequential_probabilities",
    "hilbert.logical_joints", "hilbert.xor_expectations", "hilbert.quasi_prob_tables",
    "hilbert.min_cells_over_states", "jordan.jordan_product", "jordan.formal_reality_residuals",
    "jordan.xor_symmetry_residuals")]
"""The kernels that broadcast two or more matrix operands under one shape rule."""


IDENTITY_CHECKS = ["hilbert.quasi_prob_table", "hilbert.quasi_prob_tables operational",
                   "hilbert.quasi_prob_tables jordan", "hilbert.xor_expectation",
                   "hilbert.xor_expectations mapped_operator"]
"""The rows whose result must meet an identity (table marginality, the mapped XOR
expansion), which a NaN operand fails."""


NON_NUMERIC = {"non-numeric string": "x", "non-numeric ragged list": [[1, 2], [3]],
               "non-numeric object": object()}


def operand_class(kind):
    """The worked example's (rho, a, b) as one operand class.  Two classes put b out of
    line: "mixed d" at d = 3, and "stack lengths 3 and 5" in a longer stack than rho's and
    a's; "NaN entry" puts a NaN in every operand; "non-projector" makes a diag(0.7, 0.2)
    and "non-state" makes rho diag(0.9, 0.4); a "non-numeric" class makes every operand a
    string, a ragged list or an ``object()``."""
    raw = list(hilbert.worked_example())
    if kind in NON_NUMERIC:
        return [NON_NUMERIC[kind]] * 3
    if kind == "non-projector":
        return raw[0], np.diag([0.7, 0.2]), raw[2]
    if kind == "non-state":
        return np.diag([0.9, 0.4]), raw[1], raw[2]
    if kind == "one-member stack":
        return [m[None] for m in raw]
    if kind == "two-member stack":
        return [np.stack([m, m]) for m in raw]
    if kind == "mixed d":
        return raw[0], raw[1], np.diag([1.0, 0.0, 0.0])
    if kind == "stack lengths 3 and 5":
        return [np.stack([m] * n) for m, n in zip(raw, (3, 3, 5))]
    if kind == "NaN entry":
        return [np.where(np.eye(2) == 1, m, np.nan) for m in raw]
    return raw


@pytest.mark.parametrize("misfit", ["mixed d", "stack lengths 3 and 5"])
@pytest.mark.parametrize("kernel", STACKED_KERNELS)
def test_stacked_kernels_share_one_shape_rule(kernel, misfit):
    with pytest.raises(DimensionMismatchError):
        BOUNDARY[kernel](*operand_class(misfit))


def test_every_public_hilbert_and_jordan_name_has_a_boundary_row():
    public = {f"{layer.__name__.rpartition('.')[2]}.{name}"
              for layer in (hilbert, jordan) for name in layer.__all__}
    assert sorted(public ^ {name.partition(" ")[0] for name in BOUNDARY}) == []


@pytest.mark.parametrize("kind", ["raw d x d", "one-member stack", "two-member stack",
                                  "mixed d", "NaN entry", "non-projector", "non-state",
                                  *NON_NUMERIC])
@pytest.mark.parametrize("name", [name for name, row in BOUNDARY.items() if callable(row)])
def test_every_operand_class_returns_or_raises_a_package_error(name, kind):
    """A public function returns, or raises a :class:`QuasilogicError`, on every operand
    class; any other exception fails the test.  An identity check raises on a NaN, and
    every function raises on a non-numeric operand."""
    if kind == "NaN entry" and name in IDENTITY_CHECKS or kind in NON_NUMERIC:
        with pytest.raises(QuasilogicError):
            BOUNDARY[name](*operand_class(kind))
        return
    try:
        BOUNDARY[name](*operand_class(kind))
    except QuasilogicError:
        pass


@pytest.mark.parametrize("validate", [hilbert.validate_projector, hilbert.validate_density])
def test_validators_raise_a_package_error_on_a_stack_or_a_non_numeric_operand(validate):
    """The validators read their operand through ``_check_square``, as ``matrix_to_json``
    does: a stack is a :class:`DimensionMismatchError`, like every one-matrix form's, and
    an operand that is not an array of numbers a :class:`BadDimensionError`."""
    with pytest.raises(DimensionMismatchError):
        validate(np.stack([np.eye(2)] * 2))
    for operand in NON_NUMERIC.values():
        with pytest.raises(BadDimensionError, match="expected a square matrix of numbers"):
            validate(operand)


# ---------------------------------------------------------------------------
# exact negativity: the minimum cell over all states


def question_stacks(max_pairs=12):
    """Two (n, d, d) question stacks of any ranks, n from 1 to ``max_pairs``, from one generator."""
    @st.composite
    def stacks(draw):
        dim, n = draw(stack_dims), draw(st.integers(1, max_pairs))
        ranks = draw(st.lists(st.integers(1, dim - 1), min_size=2 * n, max_size=2 * n))
        rng = np.random.default_rng(draw(stack_seeds))
        return (hilbert.sample_projectors(dim, ranks[:n], rng),
                hilbert.sample_projectors(dim, ranks[n:], rng))
    return stacks()


def question_pairs():
    """One pair of questions: the one-pair :func:`question_stacks`."""
    return question_stacks(1).map(lambda ab: tuple(q[0] for q in ab))


class TestMinCellOverStates:
    @given(question_pairs())
    @settings(max_examples=60, deadline=None)
    def test_never_below_minus_one_eighth(self, pair):
        a, b = pair
        value, cell = hilbert.min_cell_over_states(a, b)
        assert value >= -1 / 8 - 1e-12
        # the lowest eigenvalue of that cell's Jordan product, attained by its eigenvector
        firsts = {1: a, 0: hilbert.complement_projector(a)}
        seconds = {1: b, 0: hilbert.complement_projector(b)}
        lowest = {
            (i, j): np.linalg.eigvalsh(jordan.jordan_product(firsts[i], seconds[j]))[0]
            for i, j in logic.CELLS
        }
        assert value == pytest.approx(min(lowest.values()), abs=1e-12)
        _, vectors = np.linalg.eigh(jordan.jordan_product(firsts[cell[0]], seconds[cell[1]]))
        witness = hilbert.validate_density(np.outer(vectors[:, 0], vectors[:, 0].conj()))
        table = hilbert.quasi_prob_table(witness, a, b, "jordan")
        assert table.cells[cell] == pytest.approx(value, abs=1e-12)

    def test_member_with_non_finite_products_gives_nan_cells(self):
        rng = np.random.default_rng(8)
        a, b = (np.array(hilbert.sample_projectors(3, [1, 2, 1], rng)) for _ in "ab")
        a[1, 0, 2] = np.nan
        lowest = hilbert.min_cells_over_states(a, b)
        assert np.isnan(lowest[1]).all()
        rest = hilbert.min_cells_over_states(a[[0, 2]], b[[0, 2]])
        assert lowest[[0, 2]].tolist() == rest.tolist()

    def test_overlap_one_half_attains_minus_one_eighth(self):
        a = proj(1, 0)
        b = hilbert.rank_one_projector(np.array([0.5, np.sqrt(3) / 2]))
        value, _ = hilbert.min_cell_over_states(a, b)
        assert abs(value - (-1 / 8)) <= 1e-12

    @given(question_stacks(), block_members)
    @settings(max_examples=40, deadline=None)
    def test_stacked_form_equals_scalar_and_per_cell_eigvalsh(self, stacks, members):
        a, b = stacks
        dim = a.shape[-1]
        with pytest.MonkeyPatch.context() as mp:
            # blocks of `members` pairs, so most examples cross a block boundary
            mp.setattr(hilbert, "_BLOCK_ENTRIES", members * dim * dim)
            lowest = hilbert.min_cells_over_states(a, b)
            scalars = [hilbert.min_cell_over_states(p, q) for p, q in zip(a, b)]
            broadcast = hilbert.min_cells_over_states(a[0], b)
        assert lowest.shape == (len(a), 4)
        cells = list(logic.CELLS)
        for i, (p, q) in enumerate(zip(a, b)):
            firsts, seconds = {1: p, 0: np.eye(dim) - p}, {1: q, 0: np.eye(dim) - q}
            reference = [np.linalg.eigvalsh(jordan.jordan_product(firsts[x], seconds[y]))[0]
                         for x, y in cells]
            assert lowest[i].tolist() == reference
            k = int(np.argmin(reference))
            assert scalars[i] == (reference[k], cells[k])
            assert broadcast[i].tolist() == hilbert.min_cells_over_states(a[0], q).tolist()

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_equals_the_principal_angle_oracle(self, dim):
        """Each cell's minimum from the principal angles of its two subspaces, with no eigvalsh.

        For subspaces with orthonormal frames F and G, the space splits into the
        intersections (eigenvalues 1 and 0 of the Jordan product of their projectors) and
        planes where the projectors meet at a principal angle of cosine c, a singular value
        of FᴴG; there the product has eigenvalues c(c ± 1)/2 (P. R. Halmos, "Two
        subspaces", Trans. AMS 144, 1969).  For proper projectors a zero eigenvalue exists
        whenever every c is 0 or 1, so the minimum is min over c of c(c − 1)/2.  Cell (i, j)
        takes F and G from the first r or the last d − r columns of the unitaries that
        build A and B.

        Tolerance 16·d·u (u = 2⁻⁵³): the frames are orthonormal to O(d·u) (Householder
        QR); the products FFᴴ, 1 − A, A_i∘B_j and FᴴG add O(d·u) at norm ≤ 1; eigvalsh
        and the SVD are backward stable, each value within a small multiple of d·u; and
        c ↦ c(c − 1)/2 has slope at most 1/2 on [0, 1].  The largest difference seen on
        7,000 pairs at d = 2-8 was 2.6·d·u.
        """
        rng = np.random.default_rng([17, dim])
        frames, questions = [], []
        for _ in range(200):
            u, v = haar_unitary(rng, dim), haar_unitary(rng, dim)
            r, s = (int(k) for k in rng.integers(1, dim, size=2))
            frames.append(({1: u[:, :r], 0: u[:, r:]}, {1: v[:, :s], 0: v[:, s:]}))
            questions.append([f[1] @ f[1].conj().T for f in frames[-1]])
        a, b = (np.array(stack) for stack in zip(*questions))
        lowest = hilbert.min_cells_over_states((a + a.conj().swapaxes(1, 2)) / 2,
                                               (b + b.conj().swapaxes(1, 2)) / 2)
        oracle = [[min(c * (c - 1) / 2 for c in np.linalg.svd(fa[i].conj().T @ fb[j],
                                                               compute_uv=False))
                   for i, j in logic.CELLS] for fa, fb in frames]
        assert np.abs(lowest - oracle).max() <= 16 * dim * 2**-53

    def test_non_projector_breaks_the_floor_and_fails_the_check(self):
        """B = 1.2 |b><b| is no question: at overlap 1/2 its (1, 1) floor is -1.2/8 = -0.15."""
        a = proj(1, 0)[None]
        b = 1.2 * hilbert.rank_one_projector(np.array([0.5, np.sqrt(3) / 2]))[None]
        lowest = hilbert.min_cells_over_states(a, b)
        assert lowest[0, logic.CELLS.index((1, 1))] == pytest.approx(-0.15, abs=1e-12)
        assert lowest.min() < -0.15  # the (0, 0) cell, since 1 - B is no question either
        check = verify._negativity_floor([(2, lowest)], (2,), hilbert.DEFAULT_TOL)
        assert check.name == "hilbert.negativity_search_floor"
        assert not check.passed and check.failure_kind == "violation"
        assert check.residual == -1 / 8 - lowest.min()
        assert "min cell over states -0.214575 at d=2, pair 0, cell (0, 0)" in check.detail
        # the projector it scales stays within the floor
        scaled = hilbert.min_cells_over_states(a, b / 1.2)
        assert verify._negativity_floor([(2, scaled)], (2,), hilbert.DEFAULT_TOL).passed
