import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import bdtr

import vaxgame as vg
from vaxgame import game
from vaxgame.game import (DRAW_BLOCK_ROWS, EAGER, WAIT_AND_WATCH,
                          ConstructionError, FunctionStrategy,
                          NotMixedRegimeError, XiModel, _mixed_root,
                          bisect_decreasing, final_gamma_draws,
                          mutate_strategy, p_from_gamma, p_from_gamma_vec)

EPS = np.finfo(float).eps


def perfect_cfg(m=3, t=3, c_v=1.0, c_i=5.0, c=2.0, z_bar=2, g0=0.0):
    """Known side-effect cost from day one: every estimate equals c."""
    return vg.InfluencerGameConfig(m=m, t_horizon=t, c_v=c_v, c_i=c_i,
                                   c_se_1=c, xi=XiModel(c), z_bar=z_bar,
                                   g0=g0)


def fig_cfg(z_bar, g0=0.0):
    return vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                   c_se_1=3.0, xi=XiModel(5.0, 2.0),
                                   z_bar=z_bar, g0=g0)


class TestGamma:
    def test_terminal_identity(self):
        cfg = perfect_cfg(c=3.7)
        assert vg.gamma(cfg.t_horizon, 11.3, cfg) == pytest.approx(11.3)

    def test_linear_blend(self):
        cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                      c_se_1=3.0, xi=XiModel(5.0), z_bar=40)
        assert vg.gamma(19, 3.0, cfg) == pytest.approx(3.1)

    def test_tower_property_by_sampling(self):
        cfg = fig_cfg(40)
        rng = np.random.default_rng(5)
        t, c = 7, 4.2
        T = cfg.t_horizon
        xi = cfg.xi.sample(rng, 200_000)
        c_next = (t * c + xi) / (t + 1)
        gam_next = ((t + 1) / T) * c_next + ((T - t - 1) / T) * cfg.e_xi
        se = np.std(gam_next) / math.sqrt(len(xi))
        assert abs(np.mean(gam_next) - vg.gamma(t, c, cfg)) < 3 * se + 1e-12


class TestBinomCdf:
    def test_full_support(self):
        for p in (0.0, 0.3, 1.0):
            assert vg.binom_cdf(5, 5, p) == 1.0

    def test_point_mass_at_top(self):
        assert vg.binom_cdf(4, 2, 1.0) == 0.0

    def test_enumeration_oracle_two_trials(self):
        # enumerate the four outcomes of two fair coins
        want = sum(0.5 * 0.5 for bits in itertools.product([0, 1], repeat=2)
                   if sum(bits) <= 1)
        assert vg.binom_cdf(2, 1, 0.5) == pytest.approx(want)
        assert want == 0.75

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            l = rng.integers(1, 45)
            m = rng.integers(0, l)
            p = rng.random()
            direct = sum(math.comb(l, k) * p ** k * (1 - p) ** (l - k)
                         for k in range(m + 1))
            assert vg.binom_cdf(int(l), int(m), p) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(l=st.integers(1, 60), p=st.floats(0.0, 1.0))
    def test_monotone_in_threshold(self, l, p):
        vals = [vg.binom_cdf(l, m, p) for m in range(-1, l + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestCountChecks:
    # counts at the binomial entry points are integers (numpy integers are
    # taken, bool is not) in range, and a probability is not NaN; each
    # call below used to truncate or pass its bad input without a word
    CFG = perfect_cfg()

    @pytest.mark.parametrize("call,name", [
        (lambda cfg: vg.p_star(1.5, 3, 0.1), "k"),
        (lambda cfg: vg.p_star(True, 3, 0.1), "k"),
        (lambda cfg: vg.p_star(2, 3.5, 0.1), "m"),
        (lambda cfg: vg.solve_mixed_probability(-1, 0.5, 0.0, cfg), "z"),
        (lambda cfg: vg.solve_mixed_probability(1.5, 0.5, 0.0, cfg), "z"),
        (lambda cfg: vg.solve_mixed_probability(True, 0.5, 0.0, cfg), "z"),
        (lambda cfg: vg.ne_outcome_probability(0, 0.5, 1.5, cfg), "z_bar"),
        (lambda cfg: vg.ne_outcome_probability(0, 0.5, True, cfg), "z_bar"),
        (lambda cfg: vg.binom_cdf(3.5, 1, 0.5), "l"),
        (lambda cfg: vg.binom_cdf(3, 1.5, 0.5), "m"),
        (lambda cfg: vg.binom_cdf(3, True, 0.5), "m"),
        (lambda cfg: vg.binom_cdf(3, 1, math.nan), "p"),
        (lambda cfg: vg.binom_cdf(3, 1, np.array([0.5, math.nan])), "p"),
    ], ids=["p_star-k-1.5", "p_star-k-True", "p_star-m-3.5", "mixed-z--1",
            "mixed-z-1.5", "mixed-z-True", "outcome-zbar-1.5",
            "outcome-zbar-True", "cdf-l-3.5", "cdf-m-1.5", "cdf-m-True",
            "cdf-p-nan", "cdf-p-array-nan"])
    def test_bad_count_or_probability_is_refused(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call(self.CFG)

    def test_numpy_integers_are_counts(self):
        cfg = self.CFG
        assert vg.p_star(np.int64(2), np.int32(3), 0.1) == vg.p_star(2, 3, 0.1)
        assert (vg.binom_cdf(np.int64(3), np.int64(1), 0.5)
                == vg.binom_cdf(3, 1, 0.5))
        assert (vg.ne_outcome_probability(0.0, 0.5, np.int64(1), cfg)
                == vg.ne_outcome_probability(0.0, 0.5, 1, cfg))


class TestCdfTable:
    # Row j of the one-pass table of l trials carries at most 5j + 1
    # roundings: pmf_0 = (1-p)^l once; p/(1-p) once (1 - p is exact on the
    # grid k/4096) but used in j steps; per step the ratio (l-j+1)/j and
    # two products; and the j additions of the running sum. The terms are
    # positive and normal for l <= 85, so each rounding is within 2^-53
    # relative, and j <= l - 1 gives 5l - 4. (5l + 2) 2^-53 leaves six for
    # bdtr's own error; the running minimum only lowers a value to one
    # taken at a smaller p, whose exact tail is larger, so it stays inside
    @settings(max_examples=100, deadline=None)
    @given(l=st.integers(1, 85), data=st.data())
    def test_rows_match_scipy(self, l, data):
        j = data.draw(st.integers(0, l - 1))
        p, f, f_up, p_down = game._cdf_grid(l, j)
        want = bdtr(j, l, p)
        assert np.all(np.abs(f - want)[1:-1]
                      <= (5 * l + 2) * 2.0 ** -53 * want[1:-1])
        assert f[0] == 1.0 and f[-1] == 0.0
        assert np.all(np.diff(f) <= 0.0)
        for k in (j - 1, j + 1):
            if 0 <= k < l:
                assert np.all((game._cdf_grid(l, k)[1] - f) * (k - j) >= 0.0)
        assert np.array_equal(f_up[::-1], f)
        assert np.array_equal(p_down[::-1], p)

    @pytest.mark.parametrize("j", [0, 43, 85])
    def test_past_85_trials_the_row_is_scipys(self, j):
        # (1-p)^86 at p = 1 - 2^-12 is 2^-1032, below the normal range
        p, f, _, _ = game._cdf_grid(86, j)
        assert np.array_equal(f, bdtr(j, 86, p))


class TestMixedProbability:
    def test_closed_form_two_opponents(self):
        # F_2(1; p) = 1 - p^2 = 0.75  =>  p = 0.5
        cfg = perfect_cfg(m=3, t=2, c_v=1.0, c_i=4.0, c=2.0, z_bar=2)
        assert vg.gamma(1, 2.0, cfg) == pytest.approx(2.0)
        p = vg.solve_mixed_probability(0, 2.0, 0.0, cfg)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_interior_targets(self):
        cfg = perfect_cfg(m=3, t=2, c_v=1.0, c_i=4.0, c=2.0, z_bar=2)
        with pytest.raises(NotMixedRegimeError):
            vg.solve_mixed_probability(0, 2.0, 10.0, cfg)   # target <= 0
        with pytest.raises(NotMixedRegimeError):
            vg.solve_mixed_probability(0, 50.0, 0.0, cfg)   # target >= 1

    def test_residuals_against_cdf(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m = int(rng.integers(2, 40))
            z_bar = int(rng.integers(1, m))
            z = int(rng.integers(0, z_bar))
            w = rng.uniform(1e-6, 1 - 1e-6)
            p = _mixed_root(w, m - 1 - z, z_bar - 1 - z)
            assert abs(vg.binom_cdf(m - 1 - z, z_bar - 1 - z, p) - w) < 1e-10

    @pytest.mark.parametrize("atol,rtol", [(1e-12, 0.0), (1e-3, 0.0),
                                           (0.0, 1e-10)])
    def test_bisection_keeps_bracket_and_tolerance(self, atol, rtol):
        seen = []

        def f(x):
            seen.append(x)
            return 10.0 - x ** 3, 0.0

        root = bisect_decreasing(f, 2.0, 0.0, 5.0, atol=atol, rtol=rtol)
        assert root == pytest.approx(2.0, abs=max(atol, rtol * 2.0) + 1e-15)
        assert all(0.0 < x < 5.0 for x in seen)
        assert len(seen) <= 200

    @pytest.mark.parametrize("atol,rtol", [(1e-12, 0.0), (0.0, 1e-10)])
    def test_newton_keeps_bracket_and_tolerance(self, atol, rtol):
        seen = []

        def f(x):
            seen.append(x)
            return 10.0 - x ** 3, -3.0 * x ** 2

        root = bisect_decreasing(f, 2.0, 0.0, 5.0, atol=atol, rtol=rtol)
        assert root == pytest.approx(2.0, abs=max(atol, rtol * 2.0) + 1e-15)
        assert all(0.0 < x < 5.0 for x in seen)
        # quadratic convergence: bisection needs about 42 halvings here
        assert len(seen) <= 10
        assert root == seen[-1]

    def test_newton_halves_where_the_slope_gives_no_step(self):
        # a flat piece (no step at all), a gentle one (a step far out of the
        # bracket) and a steep one holding the root 2 + 0.49/10
        seen = []

        def f(x):
            seen.append(x)
            if x < 1.0:
                return 1.0, 0.0
            if x < 2.0:
                return 1.0 - 0.01 * (x - 1.0), -0.01
            return 0.99 - 10.0 * (x - 2.0), -10.0

        root = bisect_decreasing(f, 0.5, -3.0, 3.0, atol=1e-12)
        assert root == pytest.approx(2.049, abs=1e-12)
        assert seen[:3] == [0.0, 1.5, 2.25]
        assert all(-3.0 < x < 3.0 for x in seen) and len(seen) <= 6

    def test_open_upper_end_probes_within_the_reach(self):
        # from x0 = 1 the upper end is open: a flat piece gives Newton no
        # step, so the doubling probes 0.5 + 2^k take over and close it at
        # 8.5; a target never met returns nan with no x past the reach
        # 0.5 + 2^59
        seen = []

        def f(x):
            seen.append(x)
            if x < 6.0:
                return 1.0, 0.0
            return max(1.0 - (x - 6.0), -1.0), (-1.0 if x < 8.0 else 0.0)

        root = bisect_decreasing(f, 0.5, 0.5, math.inf, atol=1e-12,
                                 x0=1.0, step=1.0)
        assert root == pytest.approx(6.5, abs=1e-12)
        assert seen[:4] == [1.0, 1.5, 2.5, 4.5] and seen[4] == 8.5
        seen.clear()
        assert math.isnan(bisect_decreasing(
            lambda x: (seen.append(x) or 1.0, 0.0), 0.5, 0.5, math.inf,
            atol=1e-12, x0=1e300, step=1.0))
        assert seen == [0.5 + 2.0 ** k for k in range(60)]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 85), data=st.data(),
           w=st.floats(1e-12, 1 - 1e-12))
    def test_newton_root_matches_bisection(self, n, data, w):
        # q bisects bdtr itself, apart from the finder. Both stop within
        # 1e-17 of a root of the computed cdf, which is known to about
        # n eps relative; that error moves the root by itself over the
        # slope n pmf_{n-1}(k; q)
        k = data.draw(st.integers(0, n - 1))
        lo, hi = 0.0, 1.0
        for _ in range(200):
            q = 0.5 * (lo + hi)
            if not lo < q < hi:
                break
            if bdtr(k, n, q) > w:
                lo = q
            else:
                hi = q
            if hi - lo <= 1e-17:
                q = 0.5 * (lo + hi)
                break
        p = _mixed_root(w, n, k)
        slope = n * float(game._boost_binom_pmf(k, n - 1, q))
        bound = 2e-17 + 4 * math.ulp(q) + (n * EPS * w / slope if slope > 0
                                            else math.inf)
        assert abs(p - q) <= bound

    def test_root_approaches_one_as_target_vanishes(self):
        ps = [_mixed_root(w, 9, 4) for w in (1e-2, 1e-4, 1e-8)]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert ps[-1] > 0.99


def plain_bisection(f, target, lo, hi, atol, rtol, step):
    """The evaluated x and the result of the finder's contract for f' = 0,
    written as a loop of its own: doubling probes lo + step 2^k close an
    open upper end (nan once PROBES are spent), then halving, which stops
    at a bracket of at most max(atol, rtol |x|) or one the midpoint no
    longer splits, and returns the midpoint."""
    xs, base = [], lo
    while len(xs) < 200:
        if hi == math.inf:
            if len(xs) == game.PROBES:
                return xs, math.nan
            x = base + step * 2.0 ** len(xs)
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return xs, x
        xs.append(x)
        if f(x)[0] > target:
            lo = x
        else:
            hi = x
        if hi - lo <= max(atol, rtol * abs(x)):
            break
    return xs, 0.5 * (lo + hi)


@st.composite
def monotone_problems(draw):
    """A continuous non-increasing piecewise-linear f, flat outside its
    knots, with a target and a bracket [lo, hi] around its root: hi is
    finite or open (with a probe step), and an open end may hold a target
    that f never meets. f(x) returns (f(x), slope), the slope being that
    of the piece holding x, or 0 when the finder gets no slope."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n - 1,
                         max_size=n - 1))
    drops = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                          min_size=n - 1, max_size=n - 1))
    assume(sum(drops) > 0.0)
    x = [draw(st.floats(-50.0, 50.0))]
    v = [draw(st.floats(-10.0, 10.0))]
    for gap, drop in zip(gaps, drops):
        x.append(x[-1] + gap)
        v.append(v[-1] - drop)
    slopes = [(b - a) / (xb - xa) for a, b, xa, xb in zip(v, v[1:], x, x[1:])]
    with_slope = draw(st.booleans())
    open_end = draw(st.booleans())
    never_met = open_end and draw(st.booleans())
    if never_met:
        target = v[-1] - draw(st.floats(1e-3, 5.0))
    else:
        target = draw(st.one_of(st.sampled_from(v[1:]),
                                st.floats(v[-1], v[0], exclude_max=True)))
    assume(target < v[0])

    def f(t):
        i = int(np.searchsorted(x, t, side="right")) - 1
        if i < 0:
            return v[0], 0.0
        if i >= n - 1:
            return v[-1], 0.0
        # clamped so that rounding keeps f non-increasing across a knot
        return (max(v[i + 1], v[i] + (t - x[i]) * slopes[i]),
                slopes[i] if with_slope else 0.0)

    lo = x[0] - draw(st.floats(0.0, 10.0))
    hi = math.inf if open_end else x[-1] + draw(st.floats(0.0, 10.0))
    step = draw(st.floats(0.01, 10.0)) if open_end else None
    atol = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    rtol = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    x0 = None
    if with_slope and draw(st.booleans()):
        x0 = draw(st.floats(lo, x[-1] + 20.0 if open_end else hi,
                            exclude_min=True, exclude_max=not open_end))
    return dict(f=f, target=target, lo=lo, hi=hi, atol=atol, rtol=rtol,
                step=step, x0=x0, knots=(x, v), steepest=max(map(abs, slopes)),
                with_slope=with_slope, never_met=never_met)


class TestRootFinder:
    @settings(max_examples=400, deadline=None)
    @given(prob=monotone_problems())
    def test_one_finder_keeps_its_contract(self, prob):
        seen = []

        def f(t):
            seen.append(t)
            return prob["f"](t)

        lo, hi, step = prob["lo"], prob["hi"], prob["step"]
        target, atol, rtol = prob["target"], prob["atol"], prob["rtol"]
        root = bisect_decreasing(f, target, lo, hi, atol=atol, rtol=rtol,
                                 x0=prob["x0"], step=step)
        reach = hi if hi < math.inf else lo + step * 2.0 ** (game.PROBES - 1)
        assert all(lo < t < hi and t <= reach for t in seen)
        if prob["never_met"]:
            assert math.isnan(root)
        if not prob["with_slope"]:
            xs, want = plain_bisection(prob["f"], target, lo, hi, atol, rtol,
                                       step)
            assert seen == xs
            assert root == want or math.isnan(root) and math.isnan(want)
            return
        if prob["never_met"]:
            return
        # Some root lies within tol = max(atol, rtol |x|) of the result,
        # widened by what rounding f can move the root by: eps (|f| +
        # |target|) over the gentlest slope, plus the result's own ulps. A
        # Newton step of at most tol cannot cross a knot whose value is not
        # the target but within tol of it times the slope (checked below),
        # so the step ends on the piece that holds the root.
        x, v = prob["knots"]
        tol = max(atol, rtol * abs(root))
        assume(all(vk == target or abs(vk - target) > 4 * prob["steepest"]
                   * tol for vk in v))
        gentlest = min(abs((b - a) / (xb - xa))
                       for a, b, xa, xb in zip(v, v[1:], x, x[1:]) if b < a)
        slack = (8 * EPS * (max(map(abs, v)) + abs(target)) / gentlest
                 + 4 * math.ulp(root))
        t = (1 + 1e-9) * tol + slack
        assert prob["f"](root - t)[0] >= target >= prob["f"](root + t)[0]


class TestStageActionSets:
    def test_threshold_reached_forces_waiting(self):
        cfg = perfect_cfg()
        strat = vg.build_special_strategy(cfg)
        aset = strat.action_set(2, 2, 2.0)
        assert aset.pure == (0.0,) and not aset.mixed

    def test_final_epoch_cases(self):
        # q = C_v + Gamma - g against 0 and C_i
        cfg = perfect_cfg(m=3, t=3, c_v=1.0, c_i=5.0, c=2.0, z_bar=2, g0=0.0)
        strat = vg.build_special_strategy(cfg)
        assert strat.action_set(2, 0, 2.0).mixed  # 0 < 3 < 5
        cfg_hi = perfect_cfg(g0=10.0)             # q = -7 <= 0
        assert vg.build_special_strategy(cfg_hi).action_set(2, 0, 2.0).pure == (1.0,)
        cfg_lo = perfect_cfg(c_i=2.5)             # q = 3 >= C_i
        assert vg.build_special_strategy(cfg_lo).action_set(2, 0, 2.0).pure == (0.0,)

    def test_waiting_always_available_before_final_epoch(self):
        for z_bar in (2, 3):
            for g0 in (0.0, 2.0, 10.0):
                cfg = perfect_cfg(m=3, t=4, z_bar=z_bar, g0=g0)
                strat = vg.build_special_strategy(cfg)
                for z in range(3):
                    aset = strat.action_set(1, z, 2.0)
                    assert aset.contains(0.0)

    def test_all_or_nothing_tie_allows_interval(self):
        # z_bar = m and q exactly C_i
        cfg = perfect_cfg(m=3, t=3, c_v=1.0, c_i=3.0, c=2.0, z_bar=3, g0=0.0)
        aset = vg.build_special_strategy(cfg).action_set(2, 0, 2.0)
        assert aset.full_interval


class TestSpecialStrategy:
    def test_wait_and_watch_defers(self):
        cfg = fig_cfg(20, g0=1.0)
        strat = vg.build_special_strategy(cfg, WAIT_AND_WATCH)
        for t in range(1, 19):
            assert strat.decision(t, 0, 3.0) == 0.0
        assert 0.0 < strat.decision(19, 0, 4.9) < 1.0

    def test_final_epoch_value_formula(self):
        cfg = perfect_cfg(m=3, t=3, c_v=1.0, c_i=5.0, c=2.0, z_bar=2, g0=0.5)
        strat = vg.build_special_strategy(cfg)
        want = min(1.0 + 2.0 - 0.5, 5.0)
        assert strat.value(2, 0, 2.0) == pytest.approx(want)
        assert strat.value(2, 2, 2.0) == 0.0

    def test_threshold_states_never_vaccinate(self):
        for selector in (WAIT_AND_WATCH, EAGER):
            cfg = perfect_cfg(m=4, t=4, z_bar=2, g0=3.0)
            strat = vg.build_special_strategy(cfg, selector)
            for t in (1, 2, 3):
                for z in (2, 3):
                    assert strat.decision(t, z, 2.0) == 0.0

    def test_equilibrium_utility_bound(self):
        for g0 in (0.0, 1.0, 4.0):
            cfg = perfect_cfg(m=3, t=3, z_bar=2, g0=g0)
            strat = vg.build_special_strategy(cfg)
            bound = cfg.c_v + vg.gamma(1, cfg.c_se_1, cfg) - g0
            assert strat.value(1, 0, cfg.c_se_1) <= bound + 1e-12

    def test_custom_selector_validated(self):
        cfg = perfect_cfg(c_i=2.5)  # final-epoch set is {0}
        strat = vg.build_special_strategy(cfg, lambda t, x, a: 0.7)
        with pytest.raises(ConstructionError):
            strat.decision(2, 0, 2.0)

    def test_wait_and_watch_has_minimal_utility(self):
        # discrete data spreads the final estimate; early vaccination at an
        # indifferent stage forfeits the option value of the cap at C_i
        cfg = vg.InfluencerGameConfig(m=3, t_horizon=3, c_v=1.0, c_i=1.0,
                                      c_se_1=5.0, z_bar=2, g0=6.0,
                                      xi=XiModel(5.0, values=(0.0, 10.0),
                                                 probs=(0.5, 0.5)))
        waw = vg.build_special_strategy(cfg, WAIT_AND_WATCH)
        v_w = waw.value(1, 0, cfg.c_se_1)

        def prefer_one(t, x, aset):
            return 1.0 if aset.contains(1.0) else (
                aset.mixed[0] if aset.mixed else aset.pure[0])

        def prefer_mixed(t, x, aset):
            if aset.mixed:
                return aset.mixed[0]
            return 0.0 if aset.contains(0.0) else aset.pure[0]

        rivals = [vg.build_special_strategy(cfg, EAGER),
                  vg.build_special_strategy(cfg, prefer_one),
                  vg.build_special_strategy(cfg, prefer_mixed)]
        for rival in rivals:
            assert v_w <= rival.value(1, 0, cfg.c_se_1) + 1e-9
            assert vg.verify_symmetric_ne(rival, cfg).passed
        assert v_w < rivals[0].value(1, 0, cfg.c_se_1) - 1e-9
        assert vg.verify_symmetric_ne(waw, cfg).passed


class TestVerification:
    def test_special_strategy_passes(self):
        cfg = perfect_cfg(m=3, t=3, z_bar=2, g0=0.0)
        strat = vg.build_special_strategy(cfg)
        check = vg.verify_symmetric_ne(strat, cfg, tol=1e-9)
        assert check.passed
        assert check.vaccinated_value_error < 1e-10

    def test_flipped_final_decision_fails(self):
        cfg = perfect_cfg(m=3, t=3, c_i=2.5, z_bar=2, g0=0.0)  # P_{T-1} = {0}
        strat = vg.build_special_strategy(cfg)
        bad = mutate_strategy(strat, lambda t, z, c: t == 2 and z < 2, 1.0)
        check = vg.verify_symmetric_ne(bad, cfg)
        assert not check.passed
        assert check.worst_gain > 1e-6

    def test_all_zero_fails_under_dominant_incentive(self):
        cfg = perfect_cfg(m=3, t=3, z_bar=2,
                          g0=1.0 + 2.0 + 5.0 + 1.0)  # g0 > C_v + Gamma + C_i
        allzero = FunctionStrategy(cfg, lambda t, z, c: 0.0)
        check = vg.verify_symmetric_ne(allzero, cfg)
        assert not check.passed

    def test_continuous_model_rejected(self):
        cfg = fig_cfg(40)
        strat = FunctionStrategy(cfg, lambda t, z, c: 0.0)
        with pytest.raises(ValueError):
            vg.verify_symmetric_ne(strat, cfg)


class TestOutcomeProbability:
    def test_saturated_regimes(self):
        cfg = perfect_cfg(m=3, t=2, c_v=1.0, c_i=4.0, c=2.0, z_bar=2)
        # Gamma - g <= -C_v
        assert vg.ne_outcome_probability(3.5, 2.0, 2, cfg) == 1.0
        # Gamma - g >= C_i - C_v
        assert vg.ne_outcome_probability(-1.5, 2.0, 2, cfg) == 0.0

    def test_interior_closed_form(self):
        cfg = perfect_cfg(m=3, t=2, c_v=1.0, c_i=4.0, c=2.0, z_bar=2)
        assert vg.ne_outcome_probability(0.0, 2.0, 2, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_all_or_nothing_with_tie_toward_waiting(self):
        cfg = perfect_cfg(m=3, t=2, c_v=1.0, c_i=4.0, c=2.0, z_bar=3)
        assert p_from_gamma(0.5, 2.0, 3, cfg) == 1.0   # 1 - 0.5 + 2 < 4
        assert p_from_gamma(-1.0, 2.0, 3, cfg) == 0.0  # 1 + 1 + 2 = 4 tie
        assert p_from_gamma(-2.0, 2.0, 3, cfg) == 0.0

    def test_monotone_in_incentive_and_estimate(self):
        cfg = fig_cfg(20)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = rng.uniform(-1, 8)
            c = rng.uniform(0, 10)
            dg = rng.uniform(0, 2)
            dc = rng.uniform(0, 2)
            p0 = vg.ne_outcome_probability(g, c, 20, cfg)
            p_gu = vg.ne_outcome_probability(g + dg, c, 20, cfg)
            p_cu = vg.ne_outcome_probability(g, c + dc, 20, cfg)
            assert p_gu >= p0 - 1e-12
            assert p_cu <= p0 + 1e-12
            if 0.0 < p0 < 1.0 and dg > 1e-9:
                assert p_gu > p0
            if 0.0 < p0 < 1.0 and dc > 1e-9 and p_cu > 0.0:
                assert p_cu < p0

    @settings(max_examples=60, deadline=None)
    @given(z_bar=st.integers(1, 40), g=st.floats(-2.0, 10.0),
           dg=st.floats(0.0, 3.0), gam=st.floats(0.0, 12.0),
           dgam=st.floats(0.0, 3.0))
    def test_vectorized_monotone_in_incentive_and_estimate(self, z_bar, g, dg,
                                                           gam, dgam):
        cfg = fig_cfg(z_bar)
        gams = np.array([gam, gam + dgam])
        p = p_from_gamma_vec(g, gams, z_bar, cfg)
        assert p[1] <= p[0]
        assert np.all(p_from_gamma_vec(g + dg, gams, z_bar, cfg) >= p)

    def test_vectorized_matches_scalar(self):
        cfg = fig_cfg(20)
        gams = np.linspace(2.0, 9.0, 200)
        vec = p_from_gamma_vec(1.3, gams, 20, cfg)
        sca = np.array([p_from_gamma(1.3, g, 20, cfg) for g in gams])
        assert np.max(np.abs(vec - sca)) < 1e-6


class TestSampling:
    def test_path_matches_running_average_identity(self):
        cfg = fig_cfg(40)
        path = vg.sample_cost_path(cfg, seed=21)
        for t in range(1, cfg.t_horizon):
            want = (cfg.c_se_1 + path.xi[:t - 1].sum()) / t
            assert path.c[t - 1] == pytest.approx(want, abs=1e-12)

    def test_degenerate_data_gives_deterministic_path(self):
        cfg = vg.InfluencerGameConfig(m=5, t_horizon=6, c_v=1.0, c_i=5.0,
                                      c_se_1=3.0, xi=XiModel(2.0), z_bar=3)
        path = vg.sample_cost_path(cfg, seed=0)
        for t in range(1, 6):
            assert path.c[t - 1] == pytest.approx((3.0 + (t - 1) * 2.0) / t)

    def test_huge_incentive_vaccinates_everybody(self):
        cfg = fig_cfg(20, g0=100.0)
        zs = vg.sample_z_t(100.0, cfg, seed=2, size=200)
        assert np.all(zs == cfg.m)

    def test_reproducible(self):
        cfg = fig_cfg(20, g0=1.0)
        a = vg.sample_z_t(1.0, cfg, seed=3, size=500)
        b = vg.sample_z_t(1.0, cfg, seed=3, size=500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("t,c", [(1, None), (4, 1.5), (18, 7.0), (19, 2.0)])
    def test_final_gamma_draws_average_to_gamma(self, t, c):
        # E[Gamma_{T-1} | C_t = c] = Gamma_t(c): the estimate is a martingale
        cfg = fig_cfg(40)
        draws = final_gamma_draws(cfg, np.random.default_rng(8), 40_000, t, c)
        want = vg.gamma(t, cfg.c_se_1 if c is None else c, cfg)
        se = np.std(draws) / math.sqrt(len(draws))
        assert abs(np.mean(draws) - want) <= 4 * se + 1e-12

    def test_sampler_and_z_t_share_the_draw(self):
        cfg = fig_cfg(20, g0=1.0)
        smp = vg.ExpectationSampler(n_samples=500, seed=3)
        rng = np.random.default_rng(3)
        draws = final_gamma_draws(cfg, rng, 500)
        # the sampler keeps its draws sorted; sample_z_t keeps draw order
        assert np.array_equal(smp.gamma_draws(cfg), np.sort(draws))
        ps = p_from_gamma_vec(1.0, draws, cfg.z_bar, cfg)
        assert np.array_equal(vg.sample_z_t(1.0, cfg, seed=3, size=500),
                              rng.binomial(cfg.m, ps))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.sampled_from([0, 1, 7, DRAW_BLOCK_ROWS - 1,
                                        DRAW_BLOCK_ROWS, DRAW_BLOCK_ROWS + 1,
                                        20_000]),
                       st.integers(1, 3 * DRAW_BLOCK_ROWS)),
           family=st.sampled_from(["normal", "normal_atom", "point",
                                   "point_atom", "discrete"]),
           sigma2=st.floats(0.01, 10.0), xi_mean=st.floats(0.1, 10.0),
           p0=st.floats(0.01, 0.9), t=st.integers(1, 19))
    def test_in_place_fill_equals_sampled_blocks(self, seed, n, family,
                                                 sigma2, xi_mean, p0, t):
        # every law's in-place block fill against the (n, T-1-t) data
        # written out with plain numpy calls: without an atom at zero the
        # row blocks consume the stream as one draw of the matrix does;
        # with one, each block of DRAW_BLOCK_ROWS rows draws its normals
        # and then its mask
        law = {"normal": dict(sigma2=sigma2),
               "normal_atom": dict(sigma2=sigma2, p0=p0),
               "point": dict(),
               "point_atom": dict(p0=p0),
               "discrete": dict(values=(0.0, 2.0, 7.5),
                                probs=(0.2, 0.5, 0.3))}[family]
        cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                      c_se_1=3.0, xi=XiModel(xi_mean, **law),
                                      z_bar=20)
        rng = np.random.default_rng(seed)
        shape = (n, 19 - t)
        if family == "discrete":
            x = rng.choice(np.array([0.0, 2.0, 7.5]), shape,
                           p=np.array([0.2, 0.5, 0.3]))
        else:
            blocks = [np.empty((0, shape[1]))]
            for start in range(0, n, DRAW_BLOCK_ROWS):
                rows = (min(n - start, DRAW_BLOCK_ROWS), shape[1])
                if family.startswith("normal"):
                    x = np.maximum(
                        rng.normal(xi_mean, math.sqrt(sigma2), rows), 0)
                else:
                    x = np.full(rows, xi_mean)
                if family.endswith("atom"):
                    x = np.where(rng.random(rows) < p0, 0, x)
                blocks.append(x)
            x = np.concatenate(blocks)
        c_final = (t * cfg.c_se_1 + x.sum(axis=1)) / 19
        want = (19 / 20) * c_final + cfg.e_xi / 20
        got_rng = np.random.default_rng(seed)
        got = final_gamma_draws(cfg, got_rng, n, t)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == rng.bit_generator.state

    def test_atom_fill_memory_is_bounded_by_one_block(self):
        # a law with an atom at zero fills in the same blocks as one
        # without; its extra peak is one block's uniforms and their mask
        peaks = []
        for p0 in (0.0, 0.3):
            cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0,
                                          c_i=5.0, c_se_1=3.0,
                                          xi=XiModel(5.0, 2.0, p0), z_bar=20)
            tracemalloc.start()
            try:
                final_gamma_draws(cfg, np.random.default_rng(1), 100_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # float64 uniforms and a bool mask for each of 8192 x 18 entries
        assert peaks[1] - peaks[0] <= DRAW_BLOCK_ROWS * 18 * (8 + 1)

    def test_martingale_of_terminal_estimate(self):
        cfg = fig_cfg(40)
        rng = np.random.default_rng(17)
        t, c = 5, 3.4
        xi = cfg.xi.sample(rng, 150_000)
        gnext = ((t + 1) / 20) * ((t * c + xi) / (t + 1)) + ((20 - t - 1) / 20) * cfg.e_xi
        se = np.std(gnext) / math.sqrt(len(xi))
        assert abs(np.mean(gnext) - vg.gamma(t, c, cfg)) < 3 * se


class TestXiModel:
    def test_config_builds_its_law_once(self):
        # the config holds the one XiModel it was given, checked when the
        # model was built; replacing another field keeps that model, and
        # a replaced law is checked as it is built
        xi = XiModel(5.0, 2.0, 0.1)
        cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                      c_se_1=3.0, xi=xi, z_bar=20)
        assert cfg.xi is xi
        assert cfg.e_xi == xi.mean
        assert dataclasses.replace(cfg, z_bar=3).xi is xi
        with pytest.raises(ValueError, match="^sigma2 must be"):
            dataclasses.replace(cfg, xi=dataclasses.replace(xi, sigma2=-1.0))

    @pytest.mark.parametrize("seq", [list, np.array], ids=["list", "array"])
    def test_discrete_law_from_any_sequence(self, seq):
        # values and probs are kept as tuples of floats: a law given as a
        # list or an array equals and hashes as the tuple law (the
        # sampler's draw cache keys on it), draws the same values and
        # gives the same Monte Carlo solve
        law = XiModel(0.0, values=seq([1.0, 3.0]), probs=seq([0.5, 0.5]))
        tup = XiModel(0.0, values=(1.0, 3.0), probs=(0.5, 0.5))
        assert law == tup and hash(law) == hash(tup)
        assert np.array_equal(law.sample(np.random.default_rng(3), 500),
                              tup.sample(np.random.default_rng(3), 500))
        sols = []
        for xi in (law, tup):
            cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0,
                                          c_i=5.0, c_se_1=3.0, xi=xi,
                                          z_bar=20)
            smp = vg.ExpectationSampler(n_samples=2_000, seed=1)
            sol = vg.solve_optimal_incentive(
                20, vg.LeaderProblem(0.05, cfg, smp))
            sols.append((sol.g_star, sol.u_star, sol.np_at_g))
        assert sols[0] == sols[1]

    def test_truncated_mean_formula(self):
        rng = np.random.default_rng(23)
        model = XiModel(mean_param=1.0, sigma2=4.0)
        draws = model.sample(rng, 400_000)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - model.mean) < 4 * se

    def test_zero_atom(self):
        model = XiModel(mean_param=5.0, sigma2=1.0, p0=0.4)
        rng = np.random.default_rng(2)
        draws = model.sample(rng, 100_000)
        assert abs((draws == 0.0).mean() - 0.4) < 0.01
        assert abs(draws.mean() - model.mean) < 0.02

    def test_discrete_nodes_exact(self):
        model = XiModel(mean_param=0.0, values=(0.0, 4.0), probs=(0.25, 0.75))
        v, w = model.nodes()
        assert np.allclose(v, [0.0, 4.0]) and np.allclose(w, [0.25, 0.75])
        assert model.mean == pytest.approx(3.0)


def test_agent_state_validation():
    vg.AgentState("S", 0, 1.0)
    with pytest.raises(ValueError):
        vg.AgentState("X", 0, 1.0)


def test_config_requires_positive_data_mean():
    with pytest.raises(ValueError, match="^xi must have a positive mean"):
        vg.InfluencerGameConfig(m=3, t_horizon=3, c_v=1.0, c_i=5.0,
                                c_se_1=2.0, xi=XiModel(0.0), z_bar=2)


@pytest.mark.parametrize("bad", [dict(c_v=math.nan), dict(c_v=math.inf),
                                 dict(c_i=math.nan), dict(c_i=-math.inf),
                                 dict(c_i=0.0), dict(c_i=-1.0)])
def test_config_rejects_bad_costs(bad):
    kw = dict(m=3, t_horizon=3, c_v=1.0, c_i=5.0, c_se_1=2.0,
              xi=XiModel(2.0), z_bar=2)
    with pytest.raises(ValueError):
        vg.InfluencerGameConfig(**{**kw, **bad})


@pytest.mark.parametrize("field,value", [
    ("m", 2.5), ("m", True), ("t_horizon", 20.5), ("t_horizon", True),
    ("z_bar", 1.5), ("z_bar", True), ("c_se_1", math.nan),
    ("c_se_1", math.inf), ("xi", 2.0), ("xi", None), ("xi", True),
    ("g0", math.nan), ("g0", -math.inf),
    ("incentives", (1.0, math.nan)), ("incentives", (math.inf, 0.0)),
])
def test_config_rejects_bad_field(field, value):
    kw = dict(m=3, t_horizon=3, c_v=1.0, c_i=5.0, c_se_1=2.0,
              xi=XiModel(2.0), z_bar=2)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        vg.InfluencerGameConfig(**{**kw, field: value})


def test_config_takes_numpy_integers():
    cfg = vg.InfluencerGameConfig(m=np.int64(3), t_horizon=np.int32(3),
                                  c_v=1.0, c_i=5.0, c_se_1=2.0,
                                  xi=XiModel(2.0), z_bar=np.int64(2))
    assert (cfg.m, cfg.t_horizon, cfg.z_bar) == (3, 3, 2)


@pytest.mark.parametrize("probs", [(1.5, -0.5), (-0.25, 1.25)])
def test_xi_model_rejects_probs_outside_unit_interval(probs):
    with pytest.raises(ValueError):
        XiModel(1.0, values=(0.0, 2.0), probs=probs)


@pytest.mark.parametrize("values,probs,field", [
    ((), (), "values"), ((0.0, 2.0), (1.0,), "values"),
    ((0.0,), (0.5, 0.5), "values"), ((0.0, math.inf), (0.5, 0.5), "values"),
    ((0.0, math.nan), (0.5, 0.5), "values"),
    ((0.0, 2.0), (0.5, math.nan), "probs"),
    ((0.0, 2.0), (math.inf, 0.5), "probs")])
def test_xi_model_rejects_bad_support(values, probs, field):
    with pytest.raises(ValueError, match=field):
        XiModel(1.0, values=values, probs=probs)


@pytest.mark.parametrize("kw,field", [
    (dict(mean_param=math.nan, sigma2=1.0), "mean_param"),
    (dict(mean_param=math.inf), "mean_param"),
    (dict(mean_param=1.0, sigma2=math.inf), "sigma2"),
    (dict(mean_param=1.0, sigma2=math.nan), "sigma2"),
    (dict(mean_param=1.0, p0=math.nan), "p0")])
def test_xi_model_rejects_non_finite_parameters(kw, field):
    with pytest.raises(ValueError, match=field):
        XiModel(**kw)


@pytest.mark.parametrize("kw,point", [
    (dict(sigma2=0.0), True), (dict(sigma2=0.0, p0=0.3), False),
    (dict(sigma2=2.0), False), (dict(values=(3.0,), probs=(1.0,)), True),
    (dict(values=(0.0, 3.0), probs=(0.5, 0.5)), False)])
def test_point_mass_rule(kw, point):
    # a point law is one node; perfect information is exact just there
    model = XiModel(2.0, **kw)
    assert model.is_point is point
    assert (len(model.nodes()[0]) == 1) is point


@pytest.mark.parametrize("build", [
    lambda: XiModel(2.0, values=(3.0,), probs=(1.0,), p0=0.3),
    lambda: vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                    c_se_1=3.0, z_bar=20,
                                    xi=XiModel(5.0, values=(0.0, 4.0),
                                               probs=(0.5, 0.5), p0=0.9))],
    ids=["point", "config"])
def test_zero_atom_with_support_rejected(build):
    # a discrete law draws from its support alone, so an atom p0 beside it
    # would be dropped without a word; the support lists a zero atom itself
    with pytest.raises(ValueError, match="^p0 must be 0"):
        build()


def test_binomial_pmf_is_scipy_stats_pmf():
    # the stage sets and the DP verifier read the pmf from scipy.special,
    # bit for bit the values of scipy.stats.binom.pmf
    from scipy.stats import binom
    for n in (0, 1, 2, 7, 39):
        ys = np.arange(n + 1)
        for p in (0.0, 1e-300, 0.013, 0.5, 0.731, 1.0 - 1e-16, 1.0):
            assert np.array_equal(game.binom_pmf(ys, n, p),
                                  binom.pmf(ys, n, p))


def test_config_incentive_override():
    cfg = vg.InfluencerGameConfig(m=3, t_horizon=3, c_v=1.0, c_i=5.0,
                                  c_se_1=2.0, xi=XiModel(2.0), z_bar=2,
                                  incentives=(1.5, 0.5))
    assert cfg.g(0) == 1.5 and cfg.g(1) == 0.5 and cfg.g(2) == 0.0
    plain = vg.InfluencerGameConfig(m=3, t_horizon=3, c_v=1.0, c_i=5.0,
                                    c_se_1=2.0, xi=XiModel(2.0), z_bar=2,
                                    g0=1.0)
    assert plain.g(0) == plain.g(1) == 1.0 and plain.g(2) == 0.0
