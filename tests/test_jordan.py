"""Tests for the symmetrised-product algebra checks."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import reference_hermitian, seeded_hermitian, seeded_projector
from quasilogic import hilbert, jordan, verify
from quasilogic.errors import DimensionMismatchError, NotHermitianError

ATOL = 1e-12

dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=10_000)


def proj(*diag):
    return hilbert.validate_projector(np.diag([float(x) for x in diag]))


class TestJordanProduct:
    def test_projector_squares_to_itself(self):
        p = proj(1, 0)
        assert_allclose(jordan.jordan_product(p, p), p, atol=ATOL)

    def test_identity_is_unit(self):
        y = seeded_hermitian(3, 1)
        assert_allclose(jordan.jordan_product(np.eye(3), y), y, atol=ATOL)

    def test_hand_expanded_example(self):
        x = proj(1, 0)
        y = hilbert.rank_one_projector(np.array([1.0, 1.0]))
        expected = np.array([[0.5, 0.25], [0.25, 0.0]])
        assert_allclose(jordan.jordan_product(x, y), expected, atol=ATOL)

    @given(dims, seeds)
    @settings(max_examples=50, deadline=None)
    def test_commutative_and_hermitian(self, dim, seed):
        x = seeded_hermitian(dim, seed)
        y = seeded_hermitian(dim, seed + 1)
        xy = jordan.jordan_product(x, y)
        assert_allclose(xy, jordan.jordan_product(y, x), atol=ATOL)
        assert hilbert.operator_norm(xy - xy.conj().T) <= ATOL

    @given(dims, seeds)
    @settings(max_examples=30, deadline=None)
    def test_power_associativity(self, dim, seed):
        x = seeded_hermitian(dim, seed)
        xx = jordan.jordan_product(x, x)
        left = jordan.jordan_product(xx, x)
        right = jordan.jordan_product(x, xx)
        assert hilbert.operator_norm(left - right) <= 1e-10 * max(
            1.0, hilbert.operator_norm(x) ** 3
        )

    def test_non_associative_in_general(self):
        # (x ∘ y) ∘ z != x ∘ (y ∘ z) for generic inputs
        x = seeded_hermitian(3, 5)
        y = seeded_hermitian(3, 6)
        z = seeded_hermitian(3, 7)
        left = jordan.jordan_product(jordan.jordan_product(x, y), z)
        right = jordan.jordan_product(x, jordan.jordan_product(y, z))
        assert hilbert.operator_norm(left - right) > 1e-6

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            jordan.jordan_product(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatchError):
            jordan.jordan_product(np.eye(2), np.eye(3))


class TestConjunctionImage:
    """The product of two questions, the operator image of their logical conjunction."""

    def test_identity_second_question(self):
        a = seeded_projector(4, 2, 11)
        i = hilbert.validate_projector(np.eye(4))
        assert_allclose(jordan.jordan_product(a, i), a, atol=ATOL)

    def test_commuting_projectors_reduce_to_product(self):
        a, b = proj(1, 1, 0), proj(0, 1, 1)
        assert_allclose(jordan.jordan_product(a, b), a @ b, atol=ATOL)

    @given(dims, seeds)
    @settings(max_examples=40, deadline=None)
    def test_operator_marginality(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = seeded_projector(dim, int(rng.integers(1, dim)), seed)
        b = seeded_projector(dim, int(rng.integers(1, dim)), seed + 1)
        abar = hilbert.complement_projector(a)
        bbar = hilbert.complement_projector(b)
        left = jordan.jordan_product(a, b) + jordan.jordan_product(a, bbar)
        assert hilbert.operator_norm(left - a) <= 1e-10
        right = jordan.jordan_product(a, b) + jordan.jordan_product(abar, b)
        assert hilbert.operator_norm(right - b) <= 1e-10


class TestIdempotencyTransfer:
    def test_projector_passes(self):
        cubic, square = jordan.idempotency_residuals(proj(1, 1, 0))
        assert cubic <= 1e-12 and square <= hilbert.DEFAULT_TOL

    def test_random_rank_k_projector_passes(self):
        residuals = jordan.idempotency_residuals(seeded_projector(6, 3, 21))
        assert max(residuals) <= hilbert.DEFAULT_TOL

    def test_near_projector_fails_with_residual(self):
        perturbed = np.diag([1.0, 0.0]) + 1e-3 * np.diag([1.0, -1.0])
        cubic, square = jordan.idempotency_residuals(perturbed)
        assert max(cubic, square) > 1e-10
        assert square == pytest.approx(1e-3, rel=0.1)


class TestPrunedSuiteChecks:
    """A bad member among 200 fails its jordan-suite check with the unpruned residual."""

    @pytest.mark.parametrize("check", ["idempotency_transfer", "xor_operator_symmetry"])
    def test_one_bad_member_fails_with_its_exact_residual(self, check, monkeypatch):
        rng = np.random.default_rng(5)
        a, b = (np.array(hilbert.sample_projectors(4, ranks, rng))
                for ranks in rng.integers(1, 4, size=(2, 200)))
        if check == "idempotency_transfer":
            a[137] *= 1.001
            residuals = jordan.idempotency_residuals(a)
        else:
            b[137] = np.diag([0.5, 0.2, 1.0, 0.0])
            residuals = jordan.xor_symmetry_residuals(a, b)
        reality = verify.FormalRealitySweep(1, [], np.inf, 0)
        monkeypatch.setattr(verify, "_sampled_questions", lambda dim, trials, seed: (a, b))
        results = verify.jordan_suite((4,), 200, reality=reality)
        result, = (r for r in results if r.name == f"jordan.{check}")
        assert result.failure_kind == "violation"
        assert result.residual == max(float(r.max()) for r in residuals)


def violated(residual, scale, tol=hilbert.DEFAULT_TOL):
    """The sweep's verdict on one pair: a vanishing residual at a nonzero input scale."""
    return residual <= tol and scale > tol


class TestFormalReality:
    def test_zero_inputs_consistent(self):
        residual, scale = jordan.formal_reality_residuals(np.zeros((2, 2)), np.zeros((2, 2)))
        assert residual == scale == 0.0
        assert not violated(residual, scale)

    def test_signed_matrix_still_positive_square(self):
        residual, scale = jordan.formal_reality_residuals(np.diag([1.0, -1.0]), np.zeros((2, 2)))
        assert residual == pytest.approx(1.0) and scale == pytest.approx(1.0)
        assert not violated(residual, scale)

    @given(dims, seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_never_violate(self, dim, seed):
        x = seeded_hermitian(dim, seed)
        y = seeded_hermitian(dim, seed + 1)
        residual, scale = jordan.formal_reality_residuals(x, y)
        assert not violated(residual, scale)
        floor = 0.01 * max(
            hilbert.operator_norm(x) ** 2, hilbert.operator_norm(y) ** 2
        )
        assert residual > floor


class TestXorOperatorSymmetry:
    def test_commuting_pair(self):
        swap, *expansions = jordan.xor_symmetry_residuals(proj(1, 1, 0), proj(0, 1, 1))
        assert swap <= 1e-12
        assert max(expansions) <= hilbert.DEFAULT_TOL

    def test_hand_example_is_half_identity(self):
        a = proj(1, 0)
        b = hilbert.rank_one_projector(np.array([1.0, 1.0]))
        abar = hilbert.complement_projector(a)
        bbar = hilbert.complement_projector(b)
        forward = a @ bbar @ a + abar @ b @ abar
        assert_allclose(forward, np.eye(2) / 2, atol=ATOL)
        assert max(jordan.xor_symmetry_residuals(a, b)) <= hilbert.DEFAULT_TOL

    @given(dims, seeds)
    @settings(max_examples=50, deadline=None)
    def test_random_pairs(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = seeded_projector(dim, int(rng.integers(1, dim)), seed)
        b = seeded_projector(dim, int(rng.integers(1, dim)), seed + 1)
        swap, expansion_ab, expansion_ba = jordan.xor_symmetry_residuals(a, b)
        assert swap <= 1e-10
        assert expansion_ab <= 1e-10
        assert expansion_ba <= 1e-10


# ---------------------------------------------------------------------------
# stacked kernels against per-matrix numpy and a per-pair loop


def spectral(m):
    return float(np.linalg.norm(m, 2))


def largest_eigenvalue_magnitude(m):
    """max |λ| of a Hermitian matrix, which is max(−λ_min, λ_max) bit for bit."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def projector_stack(dim, seed, n=5):
    ranks = [1 + (seed + i) % (dim - 1) for i in range(n)]
    return hilbert.sample_projectors(dim, ranks, np.random.default_rng(seed))


class TestStackedKernels:
    @given(dims, seeds)
    @settings(max_examples=25, deadline=None)
    def test_products_and_formal_reality_equal_per_matrix(self, dim, seed):
        rng = np.random.default_rng(seed)
        x = hilbert.sample_hermitians(dim, 6, rng)
        y = hilbert.sample_hermitians(dim, 6, rng)
        products = jordan.jordan_product(x, y)
        residual, scale = jordan.formal_reality_residuals(x, y)
        for i in range(6):
            xi, yi = x[i], y[i]
            assert np.array_equal(products[i], (xi @ yi + yi @ xi) / 2)
            assert np.array_equal(products[i], jordan.jordan_product(xi, yi))
            squares = (xi @ xi + xi @ xi) / 2 + (yi @ yi + yi @ yi) / 2
            assert residual[i] == largest_eigenvalue_magnitude(squares)
            assert scale[i] == max(largest_eigenvalue_magnitude(m) for m in (xi, yi))
            assert jordan.formal_reality_residuals(xi, yi) == (residual[i], scale[i])

    @given(dims, seeds)
    @settings(max_examples=25, deadline=None)
    def test_projector_kernels_equal_per_matrix(self, dim, seed):
        a = projector_stack(dim, seed)
        b = projector_stack(dim, seed + 1)
        cubic, square = jordan.idempotency_residuals(a)
        swap, expansion_ab, expansion_ba = jordan.xor_symmetry_residuals(a, b)
        identity = np.eye(dim)
        for i in range(len(a)):
            ai, bi = a[i], b[i]
            assert cubic[i] == spectral(ai @ ai @ ai - ai)
            assert square[i] == spectral(ai @ ai - ai)
            abar, bbar = identity - ai, identity - bi
            forward = ai @ bbar @ ai + abar @ bi @ abar
            backward = bi @ abar @ bi + bbar @ ai @ bbar
            expansion = ai + bi - ai @ bi - bi @ ai
            assert swap[i] == spectral(forward - backward)
            assert expansion_ab[i] == spectral(forward - expansion)
            assert expansion_ba[i] == spectral(backward - expansion)
            pair = jordan.xor_symmetry_residuals(ai, bi)
            assert pair == (swap[i], expansion_ab[i], expansion_ba[i])

    def test_one_non_hermitian_member_raises_worst_residual(self):
        stack = np.array(hilbert.sample_hermitians(3, 5, np.random.default_rng(0)))
        stack[3, 0, 1] += 1e-6
        stack[1, 2, 0] += 1e-8
        worst = spectral(stack[3] - stack[3].conj().T)
        for call in (
            lambda: jordan.jordan_product(stack, np.eye(3)[None].repeat(5, axis=0)),
            lambda: jordan.formal_reality_residuals(stack, stack),
            lambda: jordan.idempotency_residuals(stack),
        ):
            with pytest.raises(NotHermitianError) as exc:
                call()
            assert exc.value.residual == worst

    def test_stack_length_mismatch_rejected(self):
        x = hilbert.sample_hermitians(2, 3, np.random.default_rng(1))
        with pytest.raises(DimensionMismatchError):
            jordan.jordan_product(x, x[:2])

    def test_matrix_broadcasts_against_stack(self):
        xs = hilbert.sample_hermitians(3, 4, np.random.default_rng(2))
        y = seeded_hermitian(3, 3)
        for products in (jordan.jordan_product(xs, y), jordan.jordan_product(xs, y[None])):
            assert products.shape == xs.shape
            for x, product in zip(xs, products):
                assert_allclose(product, jordan.jordan_product(x, y), atol=ATOL)
        residuals, scales = jordan.formal_reality_residuals(xs, y)
        assert residuals.shape == scales.shape == (4,)

    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=30) | st.integers(min_value=200, max_value=400),
           seeds)
    @settings(max_examples=20, deadline=None)
    def test_sweep_equals_per_pair_probe_loop(self, dim, trials, seed):
        sweep = verify.jordan_sweep_report((dim,), trials, seed)
        # trials + 1 matrices drawn one at a time from the sweep's stream; pair t is (t, t + 1)
        rng = np.random.default_rng([seed, verify._SWEEP, dim])
        matrices = [reference_hermitian(dim, rng) for _ in range(trials + 1)]
        assert sweep == per_pair_sweep(matrices, seed)
        assert sweep.violations == 0
        # Weyl: λ_max(x² + y²) >= max(||x||², ||y||²), so every exact ratio is at least 100.
        # With u = 2^-53, the computed squares are within d·γ_d·||x||² of x² in norm (γ_d ≈ du),
        # and each eigenvalue within 8du of the exact one relative to its matrix norm, so the
        # computed ratio is off by at most about (2d² + 24d + 3)u ≈ 1e-13 relative at d <= 16.
        assert sweep.min_ratio >= 100 * (1 - 1e-12)

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("planted", ["ties", "violations", "decoy", "tiny", "huge"])
    def test_planted_pairs_equal_per_pair_probe_loop(self, monkeypatch, planted, dim):
        matrices = hilbert.sample_hermitians(dim, 301, np.random.default_rng(dim))
        if planted == "ties":
            # x = diag(1, 0, ...) and y = diag(0, 1, ...): ||x² + y²|| = 1 at scale 1, so
            # ratio exactly 100, the least any pair can have
            matrices[100:201] = np.diag(np.eye(dim)[0])
            matrices[101:201:2] = np.diag(np.eye(dim)[1])
        elif planted == "violations":
            # residuals near 1e-12, below tol = 1e-10, at scales near 1e-6, above it
            matrices[100:201] *= 1e-6
        elif planted == "decoy":
            # a full-rank residual of 200 at pair 150 beside a rank-one residual of 199 at pair 190
            matrices[150:152] = 10 * np.diag([1.0] + [0.99] * (dim - 1))
            matrices[190:192] = 10 * np.sqrt(199 / 200) * np.diag(np.eye(dim)[0])
        else:
            # fourth powers that underflow or overflow, so that no matrix bounds its norm
            matrices *= 1e-80 if planted == "tiny" else 1e75
        monkeypatch.setattr(hilbert, "sample_hermitians", lambda *args: matrices)
        sweep = verify.jordan_sweep_report((dim,), 300, seed=3)
        assert sweep == per_pair_sweep(list(matrices), seed=3)
        assert (sweep.min_ratio == 100.0) == (planted == "ties")
        assert (sweep.violations == 100) == (planted == "violations")

    @given(st.integers(min_value=24, max_value=64), st.integers(min_value=1, max_value=40), seeds)
    @settings(max_examples=5, deadline=None)
    def test_large_dimension_sweep_equals_per_pair_probe_loop(self, dim, trials, seed):
        # equality only: the Weyl rounding bound of the test above holds at d <= 16
        matrices = hilbert.sample_hermitians(dim, trials + 1, verify._stream(seed, verify._SWEEP, dim))
        assert verify.jordan_sweep_report((dim,), trials, seed) == per_pair_sweep(list(matrices), seed)

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=6), seeds,
           st.sampled_from([1.0, 1e-60, 1e-30, 1e30, 1e60]))
    @settings(max_examples=40, deadline=None)
    def test_power_bounds_hold(self, dim, n, seed, scale):
        """Each bound the sweep prunes with is at least the computed ||x||², finite at scale 1."""
        x = scale * hilbert.sample_hermitians(dim, n, np.random.default_rng(seed))
        norms_squared = np.array([float(norm) ** 2 for norm in jordan._hermitian_norm(x)])
        power = x @ x
        for m in (1, 2, 4):
            with np.errstate(all="ignore"):
                power = power @ power  # (x²)^(2m)
                _, bounds = verify._power_bounds(verify._frobenius(power), np.inf, m)
            assert (bounds >= norms_squared).all()
            assert np.isfinite(bounds).all() or scale != 1.0

    @pytest.mark.parametrize("scale", [1e-80, 1e75])
    def test_matrices_without_power_bounds_are_solved(self, monkeypatch, hermitian_solves, scale):
        """Where x⁴ underflows or overflows the bound is infinite: a stack of such matrices is
        solved whole, and a run of them among ordinary ones gives the per-pair sweep."""
        matrices = hilbert.sample_hermitians(4, 51, np.random.default_rng(0))
        monkeypatch.setattr(hilbert, "sample_hermitians", lambda *args: matrices)
        matrices[20:31] *= scale
        assert verify.jordan_sweep_report((4,), 50, seed=0) == per_pair_sweep(list(matrices), 0)
        matrices[:20] *= scale
        matrices[31:] *= scale
        hermitian_solves.clear()
        sweep = verify.jordan_sweep_report((4,), 50, seed=0)
        assert sum(hermitian_solves) == 50 + 51
        assert sweep == per_pair_sweep(list(matrices), 0)

    def test_zero_matrices_are_consistent_without_a_ratio(self, monkeypatch):
        monkeypatch.setattr(hilbert, "sample_hermitians",
                            lambda dim, n, rng: np.zeros((n, dim, dim), dtype=complex))
        sweep = verify.jordan_sweep_report((2, 3), 5)
        assert (sweep.min_ratio, sweep.violations) == (np.inf, 0)
        assert [(r["max_residual"], r["verdict"]) for r in sweep.records] == [(0.0, "consistent")] * 2

    def test_a_zero_pair_leaves_the_minimum_ratio_to_the_other_pairs(self, monkeypatch):
        matrices = hilbert.sample_hermitians(3, 301, np.random.default_rng(3))
        matrices[150:152] = 0
        monkeypatch.setattr(hilbert, "sample_hermitians", lambda *args: matrices)
        sweep = verify.jordan_sweep_report((3,), 300, seed=0)
        # every pair but (150, 151), from the two chains on either side of it
        others = [per_pair_sweep(list(chain), 0) for chain in (matrices[:151], matrices[151:])]
        assert sweep.min_ratio == min(other.min_ratio for other in others)
        assert sweep.violations == 0

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=1, max_value=6), seeds,
           st.sampled_from([1.0, 1e-100, 1e100]))
    @settings(max_examples=40, deadline=None)
    def test_eigenvalue_norm_equals_the_singular_value_norm(self, dim, n, seed, scale):
        """The formal-reality norm max(−λ_min, λ_max) against the largest singular value,
        on Hermitian stacks and on the positive semidefinite sums of their squares.

        LAPACK puts each computed value within p(d)·u·||M|| of the exact norm, p a modestly
        growing function of d (LAPACK Users' Guide, sections 4.7 and 4.9); with p(d) = 8d
        for each, the two agree within 16du relative (at most 19u on d = 64 samples).
        """
        x = scale * hilbert.sample_hermitians(dim, n + 1, np.random.default_rng(seed))
        squares = x @ x
        for m in (x, jordan._formal_reality_sums(squares[:-1], squares[1:])):
            eigen, singular = jordan._hermitian_norm(m), hilbert.operator_norm(m)
            assert (np.abs(eigen - singular) <= 16 * dim * 2**-53 * singular).all()


PLANTS = ["none", "zeros", "tiny", "huge", "near_tol", "nan", "ties"]


def plant(matrices, kind, start, stop):
    """``matrices`` with ``kind`` planted in members start to stop - 1."""
    matrices = np.array(matrices)
    dim = matrices.shape[-1]
    if kind == "zeros":
        matrices[start:stop] = 0
    elif kind in ("tiny", "huge"):
        # fourth powers and sums whose norms underflow or overflow, so that they bound nothing
        matrices[start:stop] *= 1e-80 if kind == "tiny" else 1e75
    elif kind == "near_tol":
        # ||x||² = tol = 1e-10 at member start: residuals on either side of tol, at scales
        # above it, whose verdicts the bounds settle only near the end
        matrices[start:stop] *= 1e-5 / np.linalg.norm(matrices[start], 2)
    elif kind == "nan":
        matrices[start, 0, 0] = np.nan
    elif kind == "ties":
        # diag(1, 0, ...) beside diag(0, 1, ...): ratio exactly 100, the least any pair can have
        matrices[start:stop] = np.diag(np.eye(dim)[0])
        matrices[start + 1:stop:2] = np.diag(np.eye(dim)[1])
    return matrices


def per_pair_sweeps(stacks, seed):
    """The sweep over the dimensions of ``stacks`` (dim -> matrices) from :func:`per_pair_sweep`
    on each run of pairs with a nonzero floor; a pair of zero matrices has residual 0 and no
    ratio, and a dimension with a NaN matrix NaN residuals, all violated."""
    records, ratios, violations, nan = [], [], 0, float("nan")
    for dim, matrices in stacks.items():
        n = len(matrices) - 1
        if not np.isfinite(matrices).all():
            records.append({"dim": dim, "trials": n, "seed": seed, "max_residual": nan,
                            "min_residual": nan, "verdict": "violated"})
            ratios.append(nan)
            violations += n
            continue
        zero = [not matrices[t].any() and not matrices[t + 1].any() for t in range(n)]
        cuts = [-1] + [t for t in range(n) if zero[t]] + [n]
        runs = [per_pair_sweep(list(matrices[a + 1:b + 1]), seed)
                for a, b in zip(cuts, cuts[1:]) if b > a + 1]
        residuals = [r.records[0][key] for r in runs for key in ("max_residual", "min_residual")]
        residuals += [0.0] * any(zero)
        violated = sum(r.violations for r in runs)
        records.append({"dim": dim, "trials": n, "seed": seed, "max_residual": max(residuals),
                        "min_residual": min(residuals),
                        "verdict": "violated" if violated else "consistent"})
        ratios.append(min((r.min_ratio for r in runs), default=np.inf))
        violations += violated
    least = nan if any(math.isnan(r) for r in ratios) else min(ratios)
    return verify.FormalRealitySweep(n, records, least, violations)


def comparable(sweep):
    """``sweep`` with each NaN replaced by a string, so that equal sweeps compare equal."""
    def value(v):
        return "nan" if isinstance(v, float) and math.isnan(v) else v
    return (sweep.trials_per_dim, [{k: value(v) for k, v in r.items()} for r in sweep.records],
            value(sweep.min_ratio), sweep.violations)


def sweep_of(monkeypatch, stacks, seed):
    """``verify.jordan_sweep_report`` over the dimensions of ``stacks`` (dim -> matrices)."""
    with monkeypatch.context() as patched:
        patched.setattr(hilbert, "sample_hermitians", lambda dim, n, rng: stacks[dim])
        return verify.jordan_sweep_report(tuple(stacks), len(next(iter(stacks.values()))) - 1, seed)


class TestPrunedSweep:
    """The pruned sweep against the per-pair loop, bit for bit, on planted inputs."""

    @given(st.data(), st.lists(dims, min_size=1, max_size=3, unique=True),
           st.integers(min_value=1, max_value=30) | st.integers(min_value=500, max_value=700),
           seeds)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pruned_sweep_equals_per_pair_probe_loop(self, monkeypatch, data, sweep_dims,
                                                     trials, seed):
        stacks = {}
        for dim in sweep_dims:
            start = data.draw(st.integers(min_value=0, max_value=trials), label="start")
            stop = data.draw(st.integers(min_value=start + 1, max_value=trials + 1), label="stop")
            kind = data.draw(st.sampled_from(PLANTS), label=f"plant at d={dim}")
            stacks[dim] = plant(hilbert.sample_hermitians(dim, trials + 1,
                                                          np.random.default_rng([seed, dim])),
                                kind, start, stop)
        sweep = sweep_of(monkeypatch, stacks, seed)
        assert comparable(sweep) == comparable(per_pair_sweeps(stacks, seed))

    def test_bounded_zero_matrices_are_consistent_without_a_ratio(self, monkeypatch):
        """As ``test_zero_matrices_are_consistent_without_a_ratio``, at 600 pairs, where the
        sweep bounds its sums before it solves any."""
        stacks = {dim: np.zeros((601, dim, dim), dtype=complex) for dim in (3, 8)}
        sweep = sweep_of(monkeypatch, stacks, 0)
        assert sweep == per_pair_sweeps(stacks, 0)
        assert (sweep.min_ratio, sweep.violations) == (np.inf, 0)

    @pytest.mark.parametrize("least_at", [0, 1, 2])
    def test_least_ratio_in_any_dimension(self, monkeypatch, least_at):
        """Ties planted in an earlier, a middle or a later dimension hold the least ratio, 100,
        which the dimensions before reach and those after are pruned against."""
        stacks = {dim: hilbert.sample_hermitians(dim, 601, np.random.default_rng(dim))
                  for dim in (2, 5, 8)}
        tied = list(stacks)[least_at]
        stacks[tied] = plant(stacks[tied], "ties", 300, 311)
        sweep = sweep_of(monkeypatch, stacks, 0)
        assert sweep == per_pair_sweeps(stacks, 0)
        assert sweep.min_ratio == 100.0


def per_pair_sweep(matrices, seed):
    """The sweep of one dimension over ``matrices`` as a per-pair loop of the public kernels."""
    residuals, ratios, violations = [], [], 0
    for x, y in zip(matrices, matrices[1:]):
        residual, scale = jordan.formal_reality_residuals(x, y)
        floor = 0.01 * scale ** 2
        residuals.append(residual)
        ratios.append(residual / floor)
        violations += violated(residual, scale)
    return verify.FormalRealitySweep(len(residuals), [{
        "dim": len(matrices[0]),
        "trials": len(residuals),
        "seed": seed,
        "max_residual": max(residuals),
        "min_residual": min(residuals),
        "verdict": "violated" if violations else "consistent",
    }], min(ratios), violations)
