import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rockrelax.errors import InvalidInputError
from rockrelax.reweight import (
    FEAS_TOL,
    GAMMA_FLOOR_SCALE,
    KKT_BLOCK,
    PARTITION_TOL,
    ReweightConfig,
    WeightShift,
    auto_tune_gamma,
    blend_weights,
    check_kkt,
    partition_losses,
    reweight_objective,
    solve_reweight,
    tv_distance,
)


def random_shift(rng, n):
    """A random feasible shift: a probability vector minus uniform."""
    p = rng.dirichlet(np.ones(n))
    return WeightShift(p - 1.0 / n)


def _scan_oracle(c, c_prime):
    """Reference auto_tune_gamma: scan distinct losses from the top, partitioning at each.

    A candidate ell is accepted when partition_losses(c, ell - c_min) prunes
    enough; the minimum itself (gamma 0) is never a candidate.
    """
    c = np.asarray(c, dtype=float)
    c_min = float(c.min())
    floor = GAMMA_FLOOR_SCALE * max(1.0, abs(c_min))
    for ell in np.unique(c)[::-1]:
        gamma = float(ell) - c_min
        if gamma > 0 and partition_losses(c, gamma).pruned_fraction >= c_prime - FEAS_TOL:
            return gamma
    return floor


def _check_kkt_oracle(c, u, gamma, tol=1e-9):
    """Reference check_kkt: one coordinate at a time, same tolerances and precedence."""
    c = np.asarray(c, dtype=float)
    if not u.is_feasible(tol=max(FEAS_TOL, tol)):
        return False
    n = u.n
    lam = float(c.min()) + 0.5 * gamma
    for ui, ci in zip(u.shifts, c):
        if abs(ui + 1.0 / n) <= tol:
            ok = lam <= ci - 0.5 * gamma + tol
        elif abs(ui) <= tol:
            ok = ci - 0.5 * gamma - tol <= lam <= ci + 0.5 * gamma + tol
        elif ui > 0:
            ok = abs(lam - (ci + 0.5 * gamma)) <= tol
        else:
            ok = abs(lam - (ci - 0.5 * gamma)) <= tol
        if not ok:
            return False
    return True


def _partition_oracle(c, gamma):
    """The former four-way partition_losses, each set gathered from arange(N).

    i_mid holds losses strictly between the breakpoints and i_big losses
    within PARTITION_TOL of c_min + gamma; both keep their weight.
    """
    c = np.asarray(c, dtype=float)
    c_min = float(c.min())
    upper = c_min + gamma
    is_min = c <= c_min + PARTITION_TOL
    is_big = (~is_min) & (np.abs(c - upper) <= PARTITION_TOL)
    is_chi = (~is_min) & (~is_big) & (c > upper)
    is_mid = ~(is_min | is_big | is_chi)
    idx = np.arange(c.size)
    return {"c_min": c_min, "gamma": float(gamma), "i_min": idx[is_min],
            "i_mid": idx[is_mid], "i_big": idx[is_big], "chi": idx[is_chi]}


def _kept(part):
    """Indices outside i_min and chi: the samples whose weight the closed form leaves alone."""
    return np.setdiff1d(np.arange(part.n), np.concatenate([part.i_min, part.chi]))


# Loss vectors of length 1..60: arbitrary floats, or small integers with many ties.
loss_vectors = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60),
).map(np.array)
# Small integers nudged by offsets at and around PARTITION_TOL (1e-9): distinct
# values that the partition treats as tied to a breakpoint.
NEAR_TIE_OFFSETS = (0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 3e-9, -5e-10)
near_tied_vectors = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(NEAR_TIE_OFFSETS)), min_size=1, max_size=40,
).map(lambda pairs: np.array([a + d for a, d in pairs]))
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


# Offsets at, inside and just outside PARTITION_TOL (1e-9) on either side.
BREAKPOINT_OFFSETS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9)


@st.composite
def losses_near_breakpoints(draw):
    """(c, gamma) with tie-heavy losses on or within +-PARTITION_TOL of c_min and c_min + gamma.

    Losses also sit halfway between the breakpoints and beyond the upper
    one, so every set can be empty or not.
    """
    gamma = draw(st.sampled_from([2e-9, 0.5, 1.0, 2.5]))
    base = draw(st.sampled_from([0.0, 3.0, -7.0, 1e3]))
    anchors = (0.0, gamma, 0.5 * gamma, 2.0 * gamma)
    pairs = draw(st.lists(st.tuples(st.sampled_from(anchors), st.sampled_from(BREAKPOINT_OFFSETS)),
                          min_size=1, max_size=40))
    return np.array([base + a + d for a, d in pairs]), gamma


class TestPartition:
    @given(st.one_of(losses_near_breakpoints(),
                     st.tuples(loss_vectors, st.floats(1e-3, 10.0))))
    @example((np.array([5.0]), 1.0))  # one loss: three empty sets
    @example((np.array([0.0, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 2.0]), 1.0))
    @settings(max_examples=1000, deadline=None)
    def test_index_sets_equal_arange_oracle(self, case):
        c, gamma = case
        got, want = partition_losses(c, gamma), _partition_oracle(c, gamma)
        assert (got.c_min, got.gamma) == (want["c_min"], want["gamma"])
        assert got.n == sum(want[name].size for name in ("i_min", "i_mid", "i_big", "chi"))
        for name in ("i_min", "chi"):
            a, b = getattr(got, name), want[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        np.testing.assert_array_equal(_kept(got), np.union1d(want["i_mid"], want["i_big"]))

    def test_four_way_example(self):
        part = partition_losses([1, 2, 5, 9], 3.0)
        assert part.c_min == 1 and part.n == 4
        assert part.i_min.tolist() == [0]
        assert part.chi.tolist() == [2, 3]
        assert _kept(part).tolist() == [1]

    def test_constant_losses_all_min(self):
        part = partition_losses([7, 7, 7], 0.5)
        assert part.n == 3
        assert part.i_min.tolist() == [0, 1, 2]
        assert part.chi.size == 0

    def test_boundary_lands_in_big(self):
        # a loss on the upper breakpoint is neither minimal nor pruned
        part = partition_losses([0.0, 2.0], 2.0)
        assert part.i_min.tolist() == [0]
        assert part.chi.size == 0
        assert _kept(part).tolist() == [1]

    def test_partitions_all_indices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = rng.uniform(0, 10, size=rng.integers(1, 20))
            gamma = rng.uniform(0.1, 5)
            part = partition_losses(c, gamma)
            assert part.n == c.size
            assert np.intersect1d(part.i_min, part.chi).size == 0
            assert np.all(c[part.i_min] <= part.c_min + PARTITION_TOL)
            assert np.all(c[part.chi] - (part.c_min + gamma) > PARTITION_TOL)
            kept = c[_kept(part)]
            assert np.all((kept > part.c_min + PARTITION_TOL)
                          & (kept - (part.c_min + gamma) <= PARTITION_TOL))

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0, 5, size=12)
        gamma = 1.3
        base = partition_losses(c, gamma)
        for alpha, beta in [(2.0, 0.0), (0.5, 3.0), (7.0, -1.0)]:
            other = partition_losses(alpha * c + beta, alpha * gamma)
            assert other.n == base.n
            assert other.i_min.tolist() == base.i_min.tolist()
            assert other.chi.tolist() == base.chi.tolist()

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            partition_losses([], 1.0)
        with pytest.raises(InvalidInputError):
            partition_losses([1.0, np.nan], 1.0)
        with pytest.raises(InvalidInputError):
            partition_losses([1.0], 0.0)


class TestSolveReweight:
    def test_worked_example(self):
        u = solve_reweight([1, 2, 5, 9], 3.0)
        np.testing.assert_allclose(u.shifts, [0.5, 0.0, -0.25, -0.25])
        assert reweight_objective([1, 2, 5, 9], u, 3.0) == pytest.approx(2.75, abs=1e-12)

    def test_constant_losses_no_reweighting(self):
        for gamma in (0.1, 1.0, 10.0):
            u = solve_reweight([7, 7, 7], gamma)
            assert np.all(u.shifts == 0)
            assert reweight_objective([7, 7, 7], u, gamma) == pytest.approx(7.0)

    def test_pruned_mass_split_over_minima(self):
        u = solve_reweight([0, 0, 10], 1.0)
        np.testing.assert_allclose(u.shifts, [1 / 6, 1 / 6, -1 / 3])
        np.testing.assert_allclose(u.weights(), [0.5, 0.5, 0.0])

    def test_noop_when_spread_below_gamma(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.uniform(0, 1, size=8)
            gamma = (c.max() - c.min()) + 0.1
            assert np.all(solve_reweight(c, gamma).shifts == 0)

    def test_pruning_exactness(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.uniform(0, 10, size=10)
            gamma = rng.uniform(0.5, 5)
            u = solve_reweight(c, gamma)
            part = partition_losses(c, gamma)
            assert np.all(u.shifts[part.chi] == -1.0 / c.size)
            assert np.all(u.shifts[_kept(part)] == 0.0)

    def test_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = rng.uniform(0, 10, size=rng.integers(2, 15))
            u = solve_reweight(c, rng.uniform(0.1, 5))
            assert u.is_feasible()


class TestBlend:
    def test_mu_one_returns_u_star(self):
        rng = np.random.default_rng(5)
        u_prev, u_star = random_shift(rng, 6), random_shift(rng, 6)
        out = blend_weights(u_prev, u_star, 1.0)
        np.testing.assert_array_equal(out.shifts, u_star.shifts)

    def test_halfway_blend(self):
        u_prev = WeightShift.zero(4)
        u_star = WeightShift(np.array([0.5, 0.0, -0.25, -0.25]))
        out = blend_weights(u_prev, u_star, 0.5)
        np.testing.assert_allclose(out.shifts, [0.25, 0.0, -0.125, -0.125])

    @given(st.integers(2, 10), st.floats(0.01, 1.0), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_blend_stays_feasible(self, n, mu, seed):
        rng = np.random.default_rng(seed)
        out = blend_weights(random_shift(rng, n), random_shift(rng, n), mu)
        assert abs(out.shifts.sum()) <= 1e-12 * n
        assert np.all(out.shifts >= -1.0 / n - 1e-12)

    def test_mu_one_equals_the_blend_arithmetic(self):
        # returning u_star at mu = 1 changes no bit of what the arithmetic gives
        rng = np.random.default_rng(6)
        c = rng.exponential(size=500)
        u_star = WeightShift.from_partition(partition_losses(c, auto_tune_gamma(c, 0.4)))
        u_prev = random_shift(rng, 500)
        arithmetic = 1.0 * u_star.shifts + (1.0 - 1.0) * u_prev.shifts
        out = blend_weights(u_prev, u_star, 1.0).shifts
        assert out.tobytes() == arithmetic.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            blend_weights(WeightShift.zero(3), WeightShift.zero(4), 0.5)

    def test_length_mismatch_at_mu_one(self):
        with pytest.raises(InvalidInputError, match="length mismatch"):
            blend_weights(WeightShift.zero(3), WeightShift.zero(4), 1.0)

    @pytest.mark.parametrize("mu", [0.0, 1.5, float("nan")])
    def test_mu_outside_unit_interval(self, mu):
        with pytest.raises(InvalidInputError, match="mu must lie"):
            blend_weights(WeightShift.zero(3), WeightShift.zero(3), mu)


class TestAutoTune:
    def test_quantile_example(self):
        c = np.arange(1, 9, dtype=float)
        gamma = auto_tune_gamma(c, 0.25)
        assert gamma == 5.0
        part = partition_losses(c, gamma)
        assert part.chi.tolist() == [6, 7]
        assert part.pruned_fraction == 0.25

    def test_zero_estimate(self):
        c = np.array([2.0, 4.0, 9.0])
        assert auto_tune_gamma(c, 0.0) == pytest.approx(7.0)
        assert partition_losses(c, 7.0).chi.size == 0

    def test_degenerate_returns_floor(self):
        gamma = auto_tune_gamma([5.0, 5.0, 5.0, 5.0], 0.5)
        assert 0 < gamma < 1e-6
        assert partition_losses([5.0, 5.0, 5.0, 5.0], gamma).pruned_fraction == 0.0

    def test_guarantee_pruned_fraction(self):
        rng = np.random.default_rng(6)
        for c_prime in (0.1, 0.25, 0.5):
            for _ in range(100):
                c = rng.uniform(0, 10, size=rng.integers(4, 40))
                if np.unique(c).size < c.size:
                    continue
                gamma = auto_tune_gamma(c, c_prime)
                assert partition_losses(c, gamma).pruned_fraction >= c_prime

    def test_rejects_bad_estimate(self):
        with pytest.raises(InvalidInputError):
            auto_tune_gamma([1.0, 2.0], 1.5)

    @given(st.one_of(loss_vectors, near_tied_vectors), fractions)
    @settings(max_examples=1000, deadline=None)
    def test_matches_scan_oracle_exactly(self, c, c_prime):
        assert auto_tune_gamma(c, c_prime) == _scan_oracle(c, c_prime)

    def test_near_tie_above_threshold_counts_as_kept(self):
        # 1 + 5e-10 is within PARTITION_TOL of the breakpoint 1, so gamma = 1
        # would prune only the loss 2; the tie moves ell below it
        c = np.array([0.0, 1.0, 1.0 + 5e-10, 2.0])
        gamma = auto_tune_gamma(c, 0.5)
        assert partition_losses(c, gamma).pruned_fraction >= 0.5
        assert gamma == GAMMA_FLOOR_SCALE

    @given(near_tied_vectors, st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_guarantee_on_near_ties(self, c, share):
        # ask for a share of what the smallest gamma (the floor) prunes, so
        # the request can always be met
        floor = GAMMA_FLOOR_SCALE * max(1.0, abs(float(c.min())))
        c_prime = share * partition_losses(c, floor).pruned_fraction
        gamma = auto_tune_gamma(c, c_prime)
        assert partition_losses(c, gamma).pruned_fraction >= c_prime - FEAS_TOL

    def test_guarantee_at_one_million(self):
        rng = np.random.default_rng(16)
        c = rng.exponential(size=10**6)
        for losses in (c, np.round(c, 2)):
            gamma = auto_tune_gamma(losses, 0.6)
            assert partition_losses(losses, gamma).pruned_fraction >= 0.6


class TestObjectiveAndTv:
    def test_zero_shift_gives_mean(self):
        c = np.array([3.0, 5.0, 7.0])
        assert reweight_objective(c, WeightShift.zero(3), 2.0) == pytest.approx(5.0)

    def test_tv_of_solution_equals_pruned_fraction(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.uniform(0, 10, size=rng.integers(2, 12))
            gamma = rng.uniform(0.1, 5)
            u = solve_reweight(c, gamma)
            part = partition_losses(c, gamma)
            assert tv_distance(u) == pytest.approx(part.chi.size / c.size, abs=1e-12)

    def test_pruned_fraction_equals_tv_example(self):
        u = solve_reweight([1, 2, 5, 9], 3.0)
        assert tv_distance(u) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            reweight_objective([1.0, 2.0], WeightShift.zero(3), 1.0)


class TestKkt:
    def test_certifies_closed_form(self):
        assert check_kkt([1, 2, 5, 9], solve_reweight([1, 2, 5, 9], 3.0), 3.0)

    def test_zero_shift_in_wide_band(self):
        assert check_kkt([1.0, 2.0], WeightShift.zero(2), 5.0)

    def test_rejects_mass_toward_high_loss(self):
        u = WeightShift(np.array([-0.5, 0.5]))
        assert not check_kkt([1.0, 9.0], u, 3.0)

    def test_rejects_infeasible(self):
        assert not check_kkt([1.0, 2.0], WeightShift(np.array([1.0, 0.5])), 1.0)

    @pytest.mark.parametrize("where", [0, KKT_BLOCK - 1, KKT_BLOCK, 3 * KKT_BLOCK + 4])
    def test_matches_loop_oracle_across_blocks(self, where):
        rng = np.random.default_rng(17)
        c = rng.exponential(size=3 * KKT_BLOCK + 5)
        gamma = auto_tune_gamma(c, 0.6)
        u = solve_reweight(c, gamma)
        assert check_kkt(c, u, gamma) and _check_kkt_oracle(c, u, gamma)
        # Move coordinate `where` off the saturated or zero case; the
        # minimum-loss coordinate absorbs the change and stays positive.
        assert where != np.argmin(c)
        shifts = u.shifts.copy()
        delta = 0.5 / c.size if shifts[where] < 0 else -0.5 / c.size
        shifts[where] += delta
        shifts[np.argmin(c)] -= delta
        broken = WeightShift(shifts)
        assert not check_kkt(c, broken, gamma)
        assert not _check_kkt_oracle(c, broken, gamma)

    @given(loss_vectors, st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle_on_solutions_and_zero(self, c, gamma):
        for u in (solve_reweight(c, gamma), WeightShift.zero(c.size)):
            assert check_kkt(c, u, gamma) == _check_kkt_oracle(c, u, gamma)

    @given(loss_vectors.filter(lambda c: c.size >= 2), st.floats(1e-3, 10.0), st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_loop_oracle_on_boundary_perturbations(self, c, gamma, data):
        """Mass moved between two coordinates by amounts around the classification tolerance."""
        i, j = data.draw(st.lists(st.integers(0, c.size - 1), min_size=2, max_size=2,
                                  unique=True))
        gap = c[i] - c.min()
        if gap > 1e-8 and data.draw(st.booleans()):
            # put c_i on (or within the tolerance of) the breakpoint c_min + gamma
            gamma = gap + data.draw(st.sampled_from([0.0, 0.5e-9, -0.5e-9]))
        u = solve_reweight(c, gamma).shifts.copy()
        boundary = data.draw(st.sampled_from([-1.0 / c.size, 0.0]))  # saturated or zero
        offset = data.draw(st.sampled_from([0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9]))
        moved = boundary + offset - u[i]
        u[i] += moved
        u[j] -= moved
        shift = WeightShift(u)
        assert check_kkt(c, shift, gamma) == _check_kkt_oracle(c, shift, gamma)


class TestConfig:
    def test_validation(self):
        ReweightConfig(gamma=0.4, mu=0.5)
        ReweightConfig(gamma=1.0, mu=1.0, contamination_estimate=0.2)
        with pytest.raises(InvalidInputError):
            ReweightConfig(gamma=0.0)
        with pytest.raises(InvalidInputError):
            ReweightConfig(mu=0.0)
        with pytest.raises(InvalidInputError):
            ReweightConfig(contamination_estimate=1.5)
