import dataclasses
import functools
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame import game, leader
from vaxgame.cli import FIG_GAME
from vaxgame.game import (_cdf_grid, binom_cdf_vec_interp, bisect_decreasing,
                          p_from_gamma_vec)
from vaxgame.leader import JointDesignError, c_infinity, g_floor, l_values


def game_cfg(z_bar, sigma2=2.0, xi_mean=5.0, **kw):
    base = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0,
                xi=vg.XiModel(xi_mean, sigma2), z_bar=z_bar)
    base.update(kw)
    return vg.InfluencerGameConfig(**base)


def mc_problem(delta, z_bar, sigma2=2.0, n=60_000, seed=7, **kw):
    cfg = game_cfg(z_bar, sigma2=sigma2, **kw)
    smp = vg.ExpectationSampler(n_samples=n, seed=seed)
    return vg.LeaderProblem(delta, cfg, smp)


def pi_problem(delta, z_bar, **kw):
    cfg = game_cfg(z_bar, sigma2=0.0, **kw)
    return vg.LeaderProblem(delta, cfg, vg.ExpectationSampler())


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestObjectiveAndConstraint:
    def test_saturating_incentive(self):
        prob = mc_problem(0.05, 20)
        g = 60.0  # beyond C_v + max Gamma
        assert vg.non_eradication_probability(g, 20, prob) == 0.0
        assert vg.expected_incentive_cost(g, 20, prob) == pytest.approx(40 * g)

    def test_perfect_info_single_threshold_matches_power_form(self):
        prob = pi_problem(0.1, 1)
        gam = c_infinity(prob.cfg)
        for g in (2.0, 3.5, 5.0):
            p = game.p_from_gamma(g, gam, 1, prob.cfg)
            want = (1.0 - p) ** 40
            assert vg.non_eradication_probability(g, 1, prob) == pytest.approx(want, rel=1e-12)

    def test_free_constraint_gives_zero_incentive(self):
        # C_i > C_v + Gamma and z_bar = M: everyone vaccinates unpaid
        prob = pi_problem(0.05, 40, c_se_1=1.0, xi_mean=1.0, c_i=5.0)
        sol = vg.solve_optimal_incentive(40, prob)
        assert sol.g_star == 0.0 and sol.u_star == 0.0 and not sol.binding
        assert vg.non_eradication_probability(0.0, 40, prob) == 0.0


class TestSolveOptimalIncentive:
    def test_loose_tolerance_needs_no_incentive(self):
        # infection dear enough that unpaid mixing already clears 1 - delta
        prob = mc_problem(0.999, 1, c_i=20.0)
        sol = vg.solve_optimal_incentive(1, prob)
        assert sol.g_star == 0.0 and not sol.binding

    def test_each_incentive_evaluated_once(self, monkeypatch):
        seen = []
        orig = leader.non_eradication_probability

        def spy(g, z_bar, problem, **kw):
            seen.append(g)
            return orig(g, z_bar, problem, **kw)

        monkeypatch.setattr(leader, "non_eradication_probability", spy)
        for zb, prob in [(1, mc_problem(0.999, 1, c_i=20.0)),
                         (1, mc_problem(0.05, 1, n=20_000)),
                         (20, mc_problem(0.05, 20, n=20_000)),
                         (40, mc_problem(0.05, 40, n=20_000))]:
            seen.clear()
            vg.solve_optimal_incentive(zb, prob)
            assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("z_bar", [20, 40])
    def test_solve_frees_draws_without_the_cycle_collector(self, z_bar):
        # a sweep solves one fresh 1e5-draw sampler per point: a reference
        # cycle through the solve would hold each point's draws until the
        # cycle collector ran
        prob = mc_problem(0.05, z_bar, n=1_000)
        ref = weakref.ref(prob.sampler)
        gc.disable()
        try:
            assert vg.solve_optimal_incentive(z_bar, prob).binding
            del prob
            assert ref() is None
        finally:
            gc.enable()

    def test_root_residual_small(self):
        for zb, delta in [(1, 0.05), (20, 0.01), (40, 0.05), (39, 0.001)]:
            prob = mc_problem(delta, zb, n=100_000)
            sol = vg.solve_optimal_incentive(zb, prob)
            ci = prob.sampler.ci_halfwidth(delta)
            assert abs(sol.np_at_g - delta) < max(1e-6, ci)

    def test_single_threshold_charges_most(self):
        prob = mc_problem(0.05, 1, n=60_000)
        g1 = vg.solve_optimal_incentive(1, prob).g_star
        for zb in (2, 5, 20, 39, 40):
            sol = vg.solve_optimal_incentive(zb, dataclasses.replace(
                prob, cfg=game_cfg(zb)))
            assert g1 > sol.g_star

    def test_extremes_minimize_cost(self):
        rows = vg.compare_across_zbar(
            mc_problem(0.05, 1, n=50_000), [1, 5, 10, 20, 30, 39, 40],
            [0.01, 0.05, 0.1])
        for delta in (0.01, 0.05, 0.1):
            sub = [r for r in rows if r.delta == delta]
            best = min(sub, key=lambda r: r.u_star)
            assert best.z_bar in (1, 40)
            assert best.argmin

    def test_cost_increases_with_incentive_inside_feasible_range(self):
        prob = mc_problem(0.05, 20)
        gs = np.linspace(4.0, 6.5, 12)
        us = [vg.expected_incentive_cost(g, 20, prob) for g in gs]
        assert np.all(np.diff(us) > 0)

    def test_per_sample_monotone_constraint(self):
        prob = mc_problem(0.05, 20, n=20_000)
        cfg = prob.cfg
        gams = prob.sampler.gamma_draws(cfg)
        lo = g_floor(cfg)
        hi = cfg.c_v + gams.max() - 1e-9
        prev = None
        for g in np.linspace(lo + 1e-9, hi, 25):
            vals = binom_cdf_vec_interp(cfg.m, 19, p_from_gamma_vec(g, gams, 20, cfg))
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
                assert vals.mean() < prev.mean()
            prev = vals


EPS = np.finfo(float).eps


def full_np(g, z_bar, problem):
    """N_P(g) as the mean over every draw, without slicing."""
    cfg = problem.cfg
    ps = p_from_gamma_vec(g, problem.sampler.gamma_draws(cfg), z_bar, cfg)
    return float(np.mean(binom_cdf_vec_interp(cfg.m, z_bar - 1, ps)))


def bisection_solve(z_bar, problem, np_fn=full_np):
    """(g*, U*) from np_fn, by default the full-array N_P, bisected on the
    bracket the doubling search from g_floor builds. The loop is this
    test's own, apart from game.bisect_decreasing: it halves until the
    bracket is at most 1e-12 max(1, |hi|) wide, or its midpoint no longer
    splits it, and returns the midpoint."""
    cfg, delta = problem.cfg, problem.delta
    assert np_fn(0.0, z_bar, problem) > delta
    lo = g_floor(cfg)
    step = max(cfg.c_i, 1.0)
    while np_fn(lo + step, z_bar, problem) >= delta:
        step *= 2.0
    hi = lo + step
    for _ in range(200):
        g = 0.5 * (lo + hi)
        if not lo < g < hi:
            break
        if np_fn(g, z_bar, problem) > delta:
            lo = g
        else:
            hi = g
        if hi - lo <= 1e-12 or hi - lo <= 1e-12 * abs(hi):
            g = 0.5 * (lo + hi)
            break
    return g, vg.expected_incentive_cost(g, z_bar, problem)


def rounding_bound(g, problem, w_k, v_k):
    """How far a sum of the monotone table (w_k, v_k) over the draws may
    sit from the per-draw mean: n eps for the sums, plus, for each mixed
    draw, the change of the table across the interval of w it may be read
    at. Rounding moves the per-draw w = (C_v + Gamma - g)/C_i and a knot's
    Gamma each by up to 1.5 eps (C_i + |C_v| + |Gamma| + |g|)/C_i in w, and
    a draw in a segment narrower than that may be read anywhere in the
    segment; 4 eps (...)/C_i either side of w covers the two roundings and
    the segment. Near w = 0 and 1 the table of p changes by up to 1e12 per
    unit of w, and a small C_i widens the interval."""
    cfg = problem.cfg
    n = problem.sampler.n_samples
    gams = problem.sampler.gamma_draws(cfg)
    w = (cfg.c_v + gams - g) / cfg.c_i
    mixed = (w > 0.0) & (w < 1.0)
    w, gams = w[mixed], gams[mixed]
    dw = 4 * EPS * (cfg.c_i + abs(cfg.c_v) + np.abs(gams) + abs(g)) / cfg.c_i
    change = np.abs(np.interp(w + dw, w_k, v_k) - np.interp(w - dw, w_k, v_k))
    return n * EPS + float(np.sum(change)) / n


def _reference_tabled_sum(w, v, sv, g, cfg, draws, lo, hi):
    """The tabled sum and its slope in one function, as the library had it
    before the knot search was split from the per-table dot products: the
    oracle the split sums must equal to the bit."""
    if lo == hi:
        return 0.0, 0.0
    gams, sums, center = draws.gams, draws.sums, draws.center
    knots = cfg.c_i * w - cfg.c_v + g
    a = max(int(np.searchsorted(knots, gams[lo], side="right")) - 1, 0)
    b = min(int(np.searchsorted(knots, gams[hi - 1], side="right")),
            len(knots) - 1)
    knots, v, sv = knots[a:b + 1], v[a:b + 1], sv[a:b]
    pos = lo + np.searchsorted(gams[lo:hi], knots)
    cnt = np.diff(pos)
    offsets = np.clip(
        sums[pos[1:]] - sums[pos[:-1]] - cnt * (knots[:-1] - center),
        0.0, cnt * (cfg.c_i * np.diff(w[a:b + 1])))
    total = float(np.dot(cnt, v[:-1]) + np.dot(sv, offsets) / cfg.c_i)
    return (total + v[0] * (pos[0] - lo) + v[-1] * (hi - pos[-1]),
            -float(np.dot(cnt, sv)) / cfg.c_i)


def reference_sums(g, z_bar, problem):
    """(N_P, N_P', E[p]) for z_bar < M from _reference_tabled_sum, one
    search of the knots per table."""
    cfg = problem.cfg
    draws = problem.sampler.draws(cfg)
    n = len(draws.gams)
    lo, hi = leader._mixed_run(g, draws.gams, cfg)
    w, p, f, sp, sf, _ = leader._knot_tables(cfg.m, z_bar)
    total, slope = _reference_tabled_sum(w, f, sf, g, cfg, draws, lo, hi)
    p_sum = _reference_tabled_sum(w, p, sp, g, cfg, draws, lo, hi)[0]
    return (total + (n - hi)) / n, slope / n, (lo + p_sum) / n


N_SLICED = 20_000
SMALL_PROBLEMS = {zb: mc_problem(0.05, zb, n=2_000) for zb in (1, 20, 39, 40)}


class TestSlicedConstraint:
    @pytest.mark.parametrize("z_bar", [1, 20, 39, 40])
    def test_matches_full_array_mean(self, z_bar):
        prob = mc_problem(0.05, z_bar, n=N_SLICED)
        cfg = prob.cfg
        gams = prob.sampler.gamma_draws(cfg)
        assert np.all(np.diff(gams) >= 0.0)
        edges = gams[[0, 1, N_SLICED // 2, N_SLICED - 2, N_SLICED - 1]]
        # g = Gamma_k + C_v puts draw k at w = 0, g = Gamma_k + C_v - C_i
        # at w = 1: the two ends of the mixed run
        gs = np.concatenate([np.linspace(0.0, 12.0, 49), edges + cfg.c_v,
                             edges + cfg.c_v - cfg.c_i])
        for g in gs:
            got = vg.non_eradication_probability(g, z_bar, prob)
            want = full_np(g, z_bar, prob)
            if z_bar == cfg.m:
                assert got == want
            else:
                assert abs(got - want) <= N_SLICED * EPS

    @pytest.mark.parametrize("z_bar", [1, 20, 39])
    @pytest.mark.parametrize("delta", [0.01, 0.1])
    def test_newton_root_matches_bisection(self, z_bar, delta):
        prob = mc_problem(delta, z_bar, n=N_SLICED)
        sol = vg.solve_optimal_incentive(z_bar, prob)
        g, u = bisection_solve(z_bar, prob)
        assert sol.binding
        assert sol.g_star == pytest.approx(g, rel=1e-11)
        assert sol.u_star == pytest.approx(u, rel=1e-11)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1),
           z_bar=st.integers(1, 39), g=st.floats(0.0, 12.0))
    def test_slope_matches_central_difference(self, n, seed, z_bar, g):
        # N_P is linear in g until some draw's w = (C_v + Gamma - g)/C_i
        # crosses a knot w_k (0 and 1 among them), so a central difference
        # over h = d/4, d the distance in g to the nearest crossing, is the
        # slope up to the rounding of the two N_P: each within n eps at the
        # fig preset (see test_tabled_sums_match_per_draw_means)
        prob = mc_problem(0.05, z_bar, n=n, seed=seed)
        cfg = prob.cfg
        w_k = _cdf_grid(cfg.m - 1, z_bar - 1)[2]
        w = (cfg.c_v + prob.sampler.gamma_draws(cfg) - g) / cfg.c_i
        i = np.clip(np.searchsorted(w_k, w), 1, len(w_k) - 1)
        d = cfg.c_i * float(np.min(np.minimum(np.abs(w - w_k[i - 1]),
                                              np.abs(w_k[i] - w))))
        assume(d > 0.0)
        h = d / 4
        value, slope = vg.non_eradication_probability(g, z_bar, prob,
                                                      with_slope=True)
        assert value == vg.non_eradication_probability(g, z_bar, prob)
        up = vg.non_eradication_probability(g + h, z_bar, prob)
        down = vg.non_eradication_probability(g - h, z_bar, prob)
        assert slope <= 0.0
        assert abs((up - down) / (2 * h) - slope) <= n * EPS / h

    def test_newton_evaluations_per_solve(self, monkeypatch):
        # the fig-1 grid's z_bar < M solves on draw set 0: every N_P
        # evaluation, with or without the slope, bracket and root alike,
        # and every search of the knots into the full 1e5 draws. N_P(0) is
        # decided by the count and the quantile start saves one Newton
        # iterate: 118 such searches before either, 76 with both
        calls, searches = [], []
        orig = leader.non_eradication_probability
        orig_search = leader._knot_search

        def spy(*args, **kw):
            calls.append(kw.get("with_slope", False))
            return orig(*args, **kw)

        def search_spy(g, z_bar, cfg, draws):
            searches.append(len(draws.gams))
            return orig_search(g, z_bar, cfg, draws)

        monkeypatch.setattr(leader, "non_eradication_probability", spy)
        monkeypatch.setattr(leader, "_knot_search", search_spy)
        smp = vg.ExpectationSampler(n_samples=100_000, seed=0)
        solves = 0
        for delta in (0.01, 0.05, 0.1):
            for z_bar in (1, 2, 5, 10, 20, 30, 39):
                cfg = vg.InfluencerGameConfig(z_bar=z_bar, **FIG_GAME)
                sol = vg.solve_optimal_incentive(
                    z_bar, vg.LeaderProblem(delta, cfg, smp))
                assert sol.binding
                solves += 1
        assert len(calls) / solves <= 7
        assert all(calls)
        assert searches.count(100_000) <= 76

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(1e-3, 0.999), z_bar=st.integers(1, 39))
    def test_small_n_root_matches_bisection(self, n, seed, delta, z_bar):
        # every n, n = 1 included, takes the tabled N_P; the oracle bisects
        # that same N_P, so the check is on the root finder alone.
        # U* is the cost at g*, bit for bit: at small n, U(g) can be steep
        # enough (g U'/U up to about 80) that two roots 1e-12 apart, within
        # either finder's tolerance, give costs 2e-11 apart
        prob = mc_problem(delta, z_bar, n=n, seed=seed)
        sol = vg.solve_optimal_incentive(z_bar, prob)
        assert sol.binding == (
            vg.non_eradication_probability(0.0, z_bar, prob) > delta)
        if sol.binding:
            g, _ = bisection_solve(z_bar, prob, vg.non_eradication_probability)
            assert sol.g_star == pytest.approx(g, rel=1e-11)
            assert sol.u_star == vg.expected_incentive_cost(sol.g_star, z_bar,
                                                            prob)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(1e-3, 0.999), z_bar=st.integers(1, 39),
           costs=st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 20.0)))
    def test_count_decision_and_quantile_start_keep_the_root(
            self, n, seed, delta, z_bar, costs):
        # the solve decides N_P(0) > delta from the draws with w >= 1 and
        # starts Newton one step past the one-point root; the reference
        # evaluates N_P(0) in full and starts at the one-point root. Each
        # side ends within its Newton tolerance 1e-12 max(1, g*) of the root
        prob = mc_problem(delta, z_bar, n=n, seed=seed, c_v=costs[0],
                          c_i=costs[1])
        cfg, draws = prob.cfg, prob.sampler.draws(prob.cfg)

        def np_and_slope(g):
            return vg.non_eradication_probability(g, z_bar, prob,
                                                  with_slope=True)

        binding = np_and_slope(0.0)[0] > delta
        if leader._binding_by_count(draws, prob):
            assert binding
        sol = vg.solve_optimal_incentive(z_bar, prob)
        assert sol.binding == binding
        if binding:
            g = bisect_decreasing(np_and_slope, delta, g_floor(cfg), math.inf,
                                  atol=1e-12, rtol=1e-12,
                                  x0=leader._one_point_root(z_bar, prob,
                                                            draws),
                                  step=max(cfg.c_i, 1.0))
            assert abs(sol.g_star - g) <= 2e-12 * max(1.0, g)
        else:
            assert sol.g_star == 0.0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 2000), seed=st.integers(0, 2**32 - 1),
           z_bar=st.integers(1, 39), g_free=st.floats(0.0, 12.0),
           at=st.floats(0.0, 1.0, exclude_max=True),
           costs=st.one_of(st.just((1.0, 5.0)),
                           st.tuples(st.floats(0.0, 10.0),
                                     st.floats(0.01, 20.0))))
    # a draw on a steep segment of p's table near w = 1, where only the
    # clipped segment sums hold the bound; and sums of one segment that
    # lose too much to cancellation unless the prefix sums are centered
    @example(n=138, seed=1, z_bar=6, g_free=0.0, at=0.75,
             costs=(1.129830488522662, 1.5651566049448058))
    @example(n=76, seed=175, z_bar=1, g_free=0.0, at=0.828125,
             costs=(0.0, 1.0))
    # a draw at w = 1 up to rounding where C_i = 0.01 makes the difference
    # of the rounded knots eight times the segment's width: clipped to that
    # difference, the draw read as p = -0.000996
    @example(n=128, seed=134, z_bar=7, g_free=0.0, at=0.25,
             costs=(0.3569537147305233, 0.01))
    def test_tabled_sums_match_per_draw_means(self, n, seed, z_bar, g_free,
                                              at, costs):
        # g = Gamma_k + C_v puts draw k on the clamp w = 0 and g = Gamma_k
        # + C_v - C_i on w = 1 (up to rounding), the ends of the mixed run.
        # Other (C_v, C_i) than the fig preset's round the run's ends past
        # the table's end knots, where the end values must fill in. At the
        # preset N_P holds to n eps; elsewhere, and for E[p] everywhere,
        # the rounding of w can move a draw further (see rounding_bound)
        prob = mc_problem(0.05, z_bar, n=n, seed=seed, c_v=costs[0],
                          c_i=costs[1])
        cfg = prob.cfg
        gams = prob.sampler.gamma_draws(cfg)
        _, _, w_k, p_k = _cdf_grid(cfg.m - 1, z_bar - 1)
        f_k = _cdf_grid(cfg.m, z_bar - 1)[2]
        k = int(at * n)
        for g in (g_free, gams[k] + cfg.c_v, gams[k] + cfg.c_v - cfg.c_i):
            got = vg.non_eradication_probability(g, z_bar, prob)
            tol = (n * EPS if costs == (1.0, 5.0)
                   else rounding_bound(g, prob, w_k, f_k))
            assert abs(got - full_np(g, z_bar, prob)) <= tol
            got = leader._p_expectation(g, z_bar, prob)
            want = float(np.mean(p_from_gamma_vec(g, gams, z_bar, cfg)))
            assert abs(got - want) <= rounding_bound(g, prob, w_k, p_k)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           z_bar=st.integers(1, 39), g=st.floats(0.0, 12.0),
           at=st.floats(0.0, 1.0, exclude_max=True),
           costs=st.one_of(st.just((1.0, 5.0)),
                           st.tuples(st.floats(0.0, 10.0),
                                     st.floats(0.01, 20.0))))
    # segments where the clip to [0, cnt_k C_i dw_k] binds, at each end
    @example(n=138, seed=1, z_bar=6, g=0.0, at=0.75,
             costs=(1.129830488522662, 1.5651566049448058))
    @example(n=76, seed=175, z_bar=1, g=0.0, at=0.828125, costs=(0.0, 1.0))
    def test_split_sums_equal_the_reference(self, n, seed, z_bar, g, at,
                                            costs):
        # one knot search shared by the tables of F and p, then a dot
        # product per table: N_P, N_P' and E[p] are the one-function sums
        # of the reference to the bit, also when E[p] reuses the search
        # that N_P made. g = Gamma_k + C_v and Gamma_k + C_v - C_i put draw
        # k at the ends of the mixed run (see
        # test_tabled_sums_match_per_draw_means)
        prob = mc_problem(0.05, z_bar, n=n, seed=seed, c_v=costs[0],
                          c_i=costs[1])
        cfg = prob.cfg
        gams = prob.sampler.gamma_draws(cfg)
        k = int(at * n)
        for x in (g, gams[k] + cfg.c_v, gams[k] + cfg.c_v - cfg.c_i):
            searches = {}
            value, slope = vg.non_eradication_probability(
                x, z_bar, prob, with_slope=True, _searches=searches)
            want = reference_sums(x, z_bar, prob)
            assert (value, slope,
                    leader._p_expectation(x, z_bar, prob)) == want
            assert leader._p_expectation(x, z_bar, prob,
                                         searches[x]) == want[2]

    @pytest.mark.parametrize("z_bar", [1, 20, 39])
    def test_one_knot_search_per_evaluation(self, z_bar, monkeypatch):
        # a binding solve searches the knots of the 64 mid-quantile draws
        # once, at the one-point root, for its Newton start; then the full
        # draws once per N_P evaluation, and E[p(g*)] reuses the search of
        # the evaluation at g*. The draws with w >= 1 already decide N_P(0)
        # > delta, so Newton's first iterate is the quantile start
        calls = []
        for name in ("non_eradication_probability", "_knot_search"):
            def spy(g, *args, _orig=getattr(leader, name), _name=name, **kw):
                size = (len(args[2].gams) if _name == "_knot_search"
                        else None)
                calls.append((_name, g, size))
                return _orig(g, *args, **kw)

            monkeypatch.setattr(leader, name, spy)
        prob = mc_problem(0.05, z_bar, n=20_000)
        sol = vg.solve_optimal_incentive(z_bar, prob)
        names = [name for name, _, _ in calls]
        gs = [g for name, g, _ in calls
              if name == "non_eradication_probability"]
        assert sol.binding and gs
        assert names == (["_knot_search"]
                         + ["non_eradication_probability",
                            "_knot_search"] * len(gs))
        cfg = prob.cfg
        draws = prob.sampler.draws(cfg)
        g0 = leader._one_point_root(z_bar, prob, draws)
        assert calls[0] == ("_knot_search", g0, 64)
        assert all(size == 20_000 for _, _, size in calls[2::2])
        lo, step = g_floor(cfg), max(cfg.c_i, 1.0)
        start = leader._quantile_start(z_bar, prob, draws, lo,
                                       lo + step * 2 ** 59)
        assert gs[0] == start != g0

    def test_mixed_solve_makes_no_per_draw_pass(self, monkeypatch):
        # a z_bar < M solve sums knot tables over the prefix sums of the
        # draws; neither N_P nor E[p] hands the draws to the per-draw path
        calls = []
        for name in ("p_from_gamma_vec", "binom_cdf_vec_interp"):
            def spy(*args, _orig=getattr(game, name), _name=name):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(leader, name, spy)
            monkeypatch.setattr(game, name, spy)
        smp = vg.ExpectationSampler(n_samples=100_000, seed=0)
        for delta in (0.01, 0.05, 0.1):
            for z_bar in (1, 10, 39):
                cfg = vg.InfluencerGameConfig(z_bar=z_bar, **FIG_GAME)
                sol = vg.solve_optimal_incentive(
                    z_bar, vg.LeaderProblem(delta, cfg, smp))
                assert sol.binding
        assert calls == []

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1])
    def test_all_threshold_bit_equal_to_bisection(self, delta):
        prob = mc_problem(delta, 40, n=N_SLICED)
        sol = vg.solve_optimal_incentive(40, prob)
        assert (sol.g_star, sol.u_star) == bisection_solve(40, prob)

    @settings(max_examples=40, deadline=None)
    @given(z_bar=st.sampled_from([1, 20, 39, 40]), g=st.floats(0.0, 12.0),
           dg=st.floats(0.0, 2.0))
    def test_non_increasing_in_incentive(self, z_bar, g, dg):
        # up to the rounding of a sum of n terms
        prob = SMALL_PROBLEMS[z_bar]
        n = prob.sampler.n_samples
        assert (vg.non_eradication_probability(g + dg, z_bar, prob)
                <= vg.non_eradication_probability(g, z_bar, prob) + n * EPS)


class TestTableBuilds:
    def test_import_and_set_up_build_no_table(self):
        # the binomial and knot tables are built at a solve's first
        # evaluation: importing the package, filling a draw set and building
        # the problems of every threshold builds none of them
        code = (
            "import vaxgame as vg\n"
            "from vaxgame import game, leader\n"
            "from vaxgame.cli import FIG_GAME\n"
            "smp = vg.ExpectationSampler(n_samples=1000, seed=0)\n"
            "cfgs = [vg.InfluencerGameConfig(z_bar=z, **FIG_GAME)\n"
            "        for z in range(1, 41)]\n"
            "probs = [vg.LeaderProblem(0.05, cfg, smp) for cfg in cfgs]\n"
            "smp.gamma_draws(cfgs[0])\n"
            "print([f.cache_info().currsize for f in (\n"
            "    game._cdf_rows, game._bdtr_grid, leader._knot_tables,\n"
            "    leader._cost_knots)])\n")
        src = str(Path(vg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0]"

    def test_fig1_solves_build_two_passes_and_no_scipy_row(self,
                                                             monkeypatch):
        # every z_bar < M solve of the fig-1 grid reads rows of the one-pass
        # tables of M - 1 = 39 and M = 40 trials, each built once, and asks
        # scipy for no 4,097-point row
        sizes = []

        def spy(k, n, p, _orig=game.bdtr):
            sizes.append(np.size(p))
            return _orig(k, n, p)

        monkeypatch.setattr(game, "bdtr", spy)
        for cache in (game._cdf_rows, game._bdtr_grid, leader._knot_tables,
                      leader._cost_knots):
            cache.cache_clear()
        smp = vg.ExpectationSampler(n_samples=2_000, seed=0)
        for z_bar in range(1, 40):
            cfg = vg.InfluencerGameConfig(z_bar=z_bar, **FIG_GAME)
            vg.solve_optimal_incentive(z_bar, vg.LeaderProblem(0.05, cfg, smp))
        assert game.CDF_TABLE_POINTS not in sizes
        info = game._cdf_rows.cache_info()
        assert (info.misses, info.currsize) == (2, 2)


class TestUnbracketedRoot:
    @pytest.mark.parametrize("z_bar", [1, 20, 40])
    def test_no_evaluation_past_the_doubling_reach(self, z_bar, monkeypatch):
        # a data mean of 1e300 puts the one-point root near 1e300, far past
        # the reach g_floor + max(C_i, 1) 2^59 of the doubling probes: were
        # the start not capped there, the solve would return it. The spy
        # also sees every split of the draws into runs, the count that
        # decides N_P(0) > delta for z_bar < M among them
        seen = []
        for name in ("non_eradication_probability", "_mixed_run"):
            def spy(g, *args, _orig=getattr(leader, name), **kw):
                seen.append(g)
                return _orig(g, *args, **kw)

            monkeypatch.setattr(leader, name, spy)
        prob = mc_problem(0.05, z_bar, n=1_000, xi_mean=1e300)
        cfg = prob.cfg
        reach = g_floor(cfg) + max(cfg.c_i, 1.0) * 2 ** 59
        assert leader._one_point_root(min(z_bar, 39), prob,
                                      prob.sampler.draws(cfg)) > 10 * reach
        with pytest.raises(leader.BracketingError,
                           match=r"^N_P stayed above delta=0\.05 up to g=\S"):
            vg.solve_optimal_incentive(z_bar, prob)
        assert seen and max(seen) <= reach


class TestInputChecks:
    @pytest.mark.parametrize("make", [mc_problem, pi_problem])
    @pytest.mark.parametrize("z_bar", [0, -1, 41, 1.5, True, 40.0])
    def test_zbar_outside_range_rejected(self, make, z_bar):
        # an integer in 1..m only: a fraction, a flag or a whole float is
        # refused as an out-of-range count is, by every public function
        prob = make(0.05, 20)
        for call in (vg.solve_optimal_incentive,
                     functools.partial(vg.non_eradication_probability, 5.0),
                     functools.partial(vg.expected_incentive_cost, 5.0)):
            with pytest.raises(ValueError, match="z_bar"):
                call(z_bar, prob)

    @pytest.mark.parametrize("kw", [dict(n_samples=0), dict(n_samples=-5),
                                    dict(n_samples=None), dict(seed="0"),
                                    dict(n_samples=1.5), dict(n_samples=True),
                                    dict(n_samples=np.float64(10.0)),
                                    dict(seed=-1), dict(seed=1.5),
                                    dict(seed=False), dict(seed=None)])
    def test_sampler_rejects_bad_settings(self, kw):
        # when it is built, not at its first fill, naming the field
        with pytest.raises(ValueError, match=next(iter(kw))):
            vg.ExpectationSampler(**kw)

    def test_sampler_takes_numpy_integers(self):
        smp = vg.ExpectationSampler(n_samples=np.int64(10), seed=np.uint8(3))
        assert len(smp.gamma_draws(game_cfg(20))) == 10

    def test_cached_sorted_draws_build_one_key(self, monkeypatch):
        # a miss fills inside gamma_draws, adding one _cache entry there
        # (the draw-fill span the benchmark's tracer records); a hit is one
        # key and one lookup; a solve looks the draw set up once for itself
        # and once for E[p(g*)], besides one lookup per N_P evaluation
        prob = mc_problem(0.05, 20, n=100)
        smp = prob.sampler
        keys, fills, evals = [0], [], [0]
        smp_cls = vg.ExpectationSampler
        key, gamma_draws = smp_cls._key, smp_cls.gamma_draws
        np_eval = leader.non_eradication_probability

        def counting_key(sampler, cfg):
            keys[0] += 1
            return key(sampler, cfg)

        def counting_draws(sampler, cfg):
            before = len(sampler._cache)
            out = gamma_draws(sampler, cfg)
            fills.append(len(sampler._cache) - before)
            return out

        def counting_np(*args, **kw):
            evals[0] += 1
            return np_eval(*args, **kw)

        monkeypatch.setattr(smp_cls, "_key", counting_key)
        monkeypatch.setattr(smp_cls, "gamma_draws", counting_draws)
        monkeypatch.setattr(leader, "non_eradication_probability",
                            counting_np)
        first = smp.draws(prob.cfg)
        assert fills == [1] and len(smp._cache) == 1
        assert smp._cache[key(smp, prob.cfg)] is first
        keys[0] = 0
        for _ in range(5):
            assert smp.draws(prob.cfg) is first
        assert keys[0] == 5 and fills == [1]
        keys[0] = 0
        assert vg.solve_optimal_incentive(20, prob).binding
        assert keys[0] == evals[0] + 2 and fills == [1]

    def test_cached_draws_are_read_only(self):
        # a write to the draws would leave their prefix sums stale, and so
        # would one to the quantile subset
        prob = mc_problem(0.05, 20, n=100)
        draws = prob.sampler.draws(prob.cfg)
        sub = draws.quantiles
        for arr in (prob.sampler.gamma_draws(prob.cfg), draws.gams,
                    draws.sums, sub.gams, sub.sums):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            draws.center = 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_draw_set_holds_the_sorted_draws_and_their_sums(self, n, seed):
        # bit for bit: the sorted draws of the seed, the centred prefix
        # sums, and the 64 mid-quantile draws with sums of their own
        cfg = game_cfg(20)
        draws = vg.ExpectationSampler(n_samples=n, seed=seed).draws(cfg)

        def centred_sums(x, center):
            return np.concatenate(([0.0], np.cumsum(x - center)))

        gams = np.sort(game.final_gamma_draws(cfg, np.random.default_rng(seed),
                                              n))
        assert np.array_equal(draws.gams, gams)
        assert draws.center == gams[n // 2]
        assert np.array_equal(draws.sums, centred_sums(gams, draws.center))
        sub = draws.quantiles
        want = gams[leader._MID_QUANTILES * n // 128]
        assert len(want) == 64 and np.array_equal(sub.gams, want)
        assert sub.center == draws.center
        assert np.array_equal(sub.sums, centred_sums(want, draws.center))
        assert sub.quantiles is None

    def test_samplers_compare_by_their_settings(self):
        # the draw cache takes no part in ==, repr or __init__: filled or
        # not, samplers and problems of equal settings are equal
        a = vg.ExpectationSampler(n_samples=100, seed=0)
        b = vg.ExpectationSampler(n_samples=100, seed=0)
        cfg = game_cfg(20)
        assert a == b
        a.draws(cfg)
        assert a == b
        b.draws(cfg)
        assert a == b and a != vg.ExpectationSampler(n_samples=100, seed=1)
        assert vg.LeaderProblem(0.05, cfg, a) == vg.LeaderProblem(0.05, cfg, b)
        assert "_cache" not in repr(a)
        with pytest.raises(TypeError, match="_cache"):
            vg.ExpectationSampler(_cache={})


class TestPerfectInformation:
    def test_three_agent_closed_form(self):
        # p* = 1 - delta^(1/3) = 0.5, g* = C_v + Gamma - C_i F_2(0; p*)
        prob = pi_problem(0.125, 1, m=3, t_horizon=2, c_se_1=2.0, xi_mean=2.0,
                          c_v=1.0, c_i=5.0)
        assert c_infinity(prob.cfg) == pytest.approx(2.0)
        sol = vg.perfect_info_solution(1, prob)
        assert sol.p_expectation == pytest.approx(0.5, abs=1e-12)
        assert sol.g_star == pytest.approx(1.75, abs=1e-12)
        assert sol.u_star == pytest.approx(2.625, abs=1e-12)
        # independent oracle: bisection on (1-p)^3 = delta
        p_oracle = bisect(lambda p: (1 - p) ** 3 - 0.125, 0.0, 1.0)
        assert sol.p_expectation == pytest.approx(p_oracle, abs=1e-10)

    def test_mid_threshold_against_cubic_oracle(self):
        # F_3(1; p) = (1-p)^3 + 3 p (1-p)^2 = 0.5 has the symmetric root 1/2
        p_oracle = bisect(lambda p: (1 - p) ** 3 + 3 * p * (1 - p) ** 2 - 0.5,
                          0.0, 1.0)
        assert p_oracle == pytest.approx(0.5, abs=1e-10)
        assert vg.p_star(2, 3, 0.5) == pytest.approx(p_oracle, abs=1e-10)

    def test_closed_form_single_threshold_formula(self):
        for m, delta in [(3, 0.125), (40, 0.05), (17, 0.01)]:
            prob = pi_problem(delta, 1, m=m)
            gam = c_infinity(prob.cfg)
            sol = vg.perfect_info_solution(1, prob)
            g_closed = 1.0 + gam - 5.0 * delta ** ((m - 1) / m)
            u_closed = m * g_closed * (1 - delta ** (1 / m))
            assert sol.g_star == pytest.approx(g_closed, abs=1e-9)
            assert sol.u_star == pytest.approx(u_closed, abs=1e-9)

    def test_all_threshold_eps_optimizer(self):
        prob = pi_problem(0.05, 40)
        sol = vg.perfect_info_solution(40, prob)
        assert sol.epsilon == 1e-6
        gam = c_infinity(prob.cfg)
        assert sol.g_star == pytest.approx(1.0 + gam - 5.0 + 1e-6, abs=1e-12)
        assert sol.u_star_raw == pytest.approx(40 * (1.0 + gam - 5.0), abs=1e-9)

    def test_dispatched_from_generic_solver(self):
        prob = pi_problem(0.05, 7)
        assert vg.solve_optimal_incentive(7, prob).g_star == pytest.approx(
            vg.perfect_info_solution(7, prob).g_star)

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from([
               (dict(sigma2=0.0), True),
               (dict(values=(3.5,), probs=(1.0,)), True),
               (dict(sigma2=1.5), False),
               (dict(sigma2=0.0, p0=0.3), False),
               (dict(values=(1.0, 6.0), probs=(0.5, 0.5)), False)]),
           n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           z_bar=st.sampled_from((1, 20, 39, 40)),
           delta=st.sampled_from((0.01, 0.05, 0.2)))
    def test_the_law_alone_picks_the_closed_forms(self, law, n, seed, z_bar,
                                                  delta):
        # whatever the sampler: a point law is solved by the closed forms
        # and draws nothing, and every other law on the sampler's draws
        kw, point = law
        cfg = game_cfg(z_bar, xi=vg.XiModel(5.0, **kw))
        prob = vg.LeaderProblem(delta, cfg,
                                vg.ExpectationSampler(n_samples=n, seed=seed))
        assert cfg.xi.is_point is point
        sol = vg.solve_optimal_incentive(z_bar, prob)
        assert (sol.mode == leader.PERFECT_INFO) is point
        if point:
            assert sol.to_dict() == vg.perfect_info_solution(
                z_bar, prob).to_dict()
            assert not prob.sampler._cache
            with pytest.raises(ValueError, match="point law"):
                vg.non_eradication_probability(sol.g_star, z_bar, prob,
                                               with_slope=True)
        else:
            assert sol.mode == leader.MONTE_CARLO
            assert len(prob.sampler._cache) == 1


class TestPStar:
    def test_single_count_closed_form(self):
        for m, delta in [(5, 0.3), (40, 0.01)]:
            assert vg.p_star(1, m, delta) == pytest.approx(
                1 - delta ** (1 / m), abs=1e-12)

    def test_strictly_increasing_in_count(self):
        for m in (5, 17, 40):
            for delta in (0.001, 0.05, 0.3):
                ps = [vg.p_star(k, m, delta) for k in range(1, m + 1)]
                assert all(0 < p < 1 for p in ps)
                assert all(b > a for a, b in zip(ps, ps[1:]))

    def test_vanishing_as_tolerance_fills(self):
        assert vg.p_star(1, 40, 1 - 1e-9) < 1e-6

    def test_residuals(self):
        for m, k, delta in [(40, 13, 0.07), (11, 5, 0.4), (25, 24, 0.002)]:
            p = vg.p_star(k, m, delta)
            assert vg.binom_cdf(m, k - 1, p) == pytest.approx(delta, abs=1e-12)


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_leader_mc_references():
    # the benchmark's accuracy gate: every recorded fig-1 solve (16 draw
    # sets of 1e5, 24 (delta, z_bar) each) within rel_tol (floor 1)
    refs = json.loads(REFERENCES.read_text())
    tol = refs["rel_tol"]
    for draw_set, rows in refs["leader_mc"].items():
        smp = vg.ExpectationSampler(n_samples=100_000, seed=int(draw_set))
        for delta, z_bar, g_ref, u_ref, binding_ref in rows:
            cfg = vg.InfluencerGameConfig(z_bar=z_bar, **FIG_GAME)
            sol = vg.solve_optimal_incentive(
                z_bar, vg.LeaderProblem(delta, cfg, smp))
            where = (draw_set, delta, z_bar)
            assert sol.binding == binding_ref, where
            assert abs(sol.g_star - g_ref) <= tol * max(1.0, abs(g_ref)), where
            assert abs(sol.u_star - u_ref) <= tol * max(1.0, abs(u_ref)), where


def _design_inputs():
    return (vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5),
            vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5,
                               s=0.2))


@pytest.mark.parametrize("call,field", [
    (lambda d, c: vg.construct_eps_vaccine_optimal_nu(17, math.inf, c, d, 40),
     "eps"),
    (lambda d, c: vg.construct_eps_vaccine_optimal_nu(17, math.nan, c, d, 40),
     "eps"),
    (lambda d, c: vg.construct_eps_vaccine_optimal_nu(17, 0.0, c, d, 40),
     "eps"),
    (lambda d, c: vg.vaccine_optimal_k(c, d, 40.0), "m"),
    (lambda d, c: vg.vaccine_optimal_k(c, d, True), "m"),
    (lambda d, c: vg.construct_eps_vaccine_optimal_nu(17, 1e-3, c, d, 40.0),
     "m"),
    (lambda d, c: vg.construct_eps_vaccine_optimal_nu(1, 1e-3, c, d, True),
     "m"),
    (lambda d, c: vg.incentive_optimal_exists(c, d, 40.0), "m"),
    (lambda d, c: vg.incentive_optimal_exists(c, d, True), "m"),
    (lambda d, c: vg.construct_incentive_optimal_nu(c, d, 40.0), "m"),
    (lambda d, c: vg.construct_incentive_optimal_nu(c, d, False), "m"),
    (lambda d, c: vg.LeaderProblem(0.05, None, vg.ExpectationSampler()),
     "cfg"),
    (lambda d, c: vg.LeaderProblem(0.05, game_cfg(20), None), "sampler"),
    (lambda d, c: vg.LeaderProblem(0.05, vg.ExpectationSampler(),
                                   game_cfg(20)), "cfg")],
    ids=["eps-inf", "eps-nan", "eps-zero", "k-float", "k-bool",
         "eps-design-float", "eps-design-bool", "exists-float",
         "exists-bool", "io-design-float", "io-design-bool",
         "problem-cfg", "problem-sampler", "problem-swapped"])
def test_leader_layer_rejects_bad_inputs(call, field):
    # when called or built, with a ValueError naming the field
    with pytest.raises(ValueError, match=f"^{field} must"):
        call(*_design_inputs())


def test_joint_design_takes_numpy_integers():
    dis, costs = _design_inputs()
    assert (vg.vaccine_optimal_k(costs, dis, np.int64(40))
            == vg.vaccine_optimal_k(costs, dis, 40))
    assert (vg.incentive_optimal_exists(costs, dis, np.int32(40))
            == vg.incentive_optimal_exists(costs, dis, 40))


def theta_costs(s=0.5):
    return vg.PublicCostModel(c_v1=6.0, c_v2=2.0, c_v2_bar=15.0, c_i=50.0, s=s)


def fig5_costs(s):
    return vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5, s=s)


def disease_from_theta(theta_star, r=5.0, b=2.0):
    rho = 1.0 / (1.0 - theta_star)
    return vg.DiseaseParams(lam=rho * (r + b), r=r, b=b, d=b / 4)


class TestJointDesign:
    def test_reference_model_scan(self):
        # theta* = 0.5 puts the capped side-effect term at c_v2/theta* = 4,
        # L_k = -0.1 (40 - k); brute-force inequality scan pins k = 17
        dis = disease_from_theta(0.5)
        costs = theta_costs(0.5)
        k, table = vg.vaccine_optimal_k(costs, dis, 40)
        for kk in range(41):
            assert table[kk] == pytest.approx(-0.1 * (40 - kk), abs=1e-12)
        hits = [kk for kk in range(1, 41)
                if costs.c_v1 - costs.c_f(kk) <= table[kk]
                and costs.c_v1 - costs.c_f(kk - 1) > table[kk - 1]]
        assert hits == [17]
        assert k == 17

    def test_enormous_first_step_insecurity(self):
        dis = disease_from_theta(0.5)
        table = (0.0,) + tuple(1000.0 + z for z in range(40))
        costs = vg.PublicCostModel(c_v1=6.0, c_v2=2.0, c_v2_bar=15.0,
                                   c_i=50.0, c_f_table=table)
        k, _ = vg.vaccine_optimal_k(costs, dis, 40)
        assert k == 1

    def test_flat_outside_middle_band(self):
        thetas = np.round(np.arange(0.05, 0.96, 0.01), 4)
        ks = [vg.vaccine_optimal_k(theta_costs(0.5), disease_from_theta(t), 40)[0]
              for t in thetas]
        lo_plateau = {k for t, k in zip(thetas, ks) if t <= 0.1}
        hi_plateau = {k for t, k in zip(thetas, ks) if t >= 0.9}
        assert len(lo_plateau) == 1 and len(hi_plateau) == 1
        assert min(hi_plateau) < max(lo_plateau)

    def test_unique_on_random_models(self):
        rng = np.random.default_rng(19)
        found = 0
        while found < 200:
            m = int(rng.integers(3, 60))
            s = float(rng.uniform(0.05, 3.0))
            costs = vg.PublicCostModel(
                c_v1=float(rng.uniform(0.05, 3.0)),
                c_v2=float(rng.uniform(0.01, 5.0)),
                c_v2_bar=float(rng.uniform(1.0, 50.0)),
                c_i=float(rng.uniform(0.1, 10.0)), s=s)
            dis = disease_from_theta(float(rng.uniform(0.05, 0.95)))
            if not costs.influence_sufficient(m):
                continue
            k, _ = vg.vaccine_optimal_k(costs, dis, m)  # raises unless unique
            assert 1 <= k <= m
            found += 1

    def test_construction_reaches_target_regime(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        costs = fig5_costs(0.2)
        k, _ = vg.vaccine_optimal_k(costs, dis, 40)
        for eps in (1e-2, 1e-3):
            design = vg.construct_eps_vaccine_optimal_nu(k, eps, costs, dis, 40)
            assert design.k_star == k
            # the basic rate sits just under b rho theta* = 5.5
            assert 5.5 - eps < design.nu_eps.nu_b < 5.5
            assert dis.theta_star < design.psi_e_achieved <= dis.theta_star + eps
            assert vg.eradication_threshold(design.nu_eps, costs, dis, 40) == k

    def test_extra_rate_collapses_with_eps(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        costs = fig5_costs(0.2)
        k, _ = vg.vaccine_optimal_k(costs, dis, 40)
        slacks = []
        for eps in (1e-2, 1e-3, 1e-4):
            nu = vg.construct_eps_vaccine_optimal_nu(k, eps, costs, dis, 40).nu_eps
            slacks.append(nu.nu_e - (dis.b * dis.rho - nu.nu_b / dis.theta_star))
        assert all(s > 0 for s in slacks)
        assert all(b < a for a, b in zip(slacks, slacks[1:]))

    def test_mismatched_target_errors(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        costs = fig5_costs(0.2)
        with pytest.raises(JointDesignError):
            vg.construct_eps_vaccine_optimal_nu(40, 1e-3, costs, dis, 40)


class TestIncentiveOptimality:
    def test_low_sensitivity_allows_both(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        assert vg.incentive_optimal_exists(fig5_costs(0.06), dis, 40)

    def test_constructed_policy_pins_threshold_at_m(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        for s in (0.02, 0.05, 0.06):
            costs = fig5_costs(s)
            nu = vg.construct_incentive_optimal_nu(costs, dis, 40)
            assert vg.is_admissible(nu, dis)
            assert vg.eradication_threshold(nu, costs, dis, 40) == 40

    def test_construction_refused_when_absent(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        with pytest.raises(JointDesignError):
            vg.construct_incentive_optimal_nu(fig5_costs(0.2), dis, 40)

    def test_high_sensitivity_blocks_it(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        assert not vg.incentive_optimal_exists(fig5_costs(0.2), dis, 40)

    def test_minimal_influence_trivially_qualifies(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        table = (0.0,) * 40 + (1.0,)
        costs = vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, c_f_table=table)
        assert vg.incentive_optimal_exists(costs, dis, 40)


class TestVarianceLimit:
    def test_convergence_toward_perfect_info(self):
        gs0 = {}
        for zb in (1, 20):
            gs0[zb] = vg.perfect_info_solution(zb, pi_problem(0.05, zb)).g_star
        diffs = {1: [], 20: []}
        for sigma2 in (1e-1, 1e-2, 1e-3, 1e-4):
            for zb in (1, 20):
                prob = mc_problem(0.05, zb, sigma2=sigma2, n=100_000, seed=29)
                g = vg.solve_optimal_incentive(zb, prob).g_star
                diffs[zb].append(abs(g - gs0[zb]))
        for zb in (1, 20):
            seq = diffs[zb]
            assert seq[-1] <= 0.05
            assert all(b <= a + 0.01 for a, b in zip(seq, seq[1:]))


def test_l_table_uses_capped_side_effect_term():
    dis = disease_from_theta(0.9)   # c_v2/theta* = 2.22 < 15
    tab = l_values(theta_costs(0.5), dis, 40)
    a = 2.0 / 0.9
    lim = (5.0 + 2.0) / (5.0 + 4.0) * 50.0
    for k in (0, 10, 40):
        assert tab[k] == pytest.approx(
            min(-a * (40 - k) / 40, lim - 15.0 * (40 - k) / 40), rel=1e-12)
