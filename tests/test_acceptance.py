"""Acceptance gate: one test per shipped guarantee, each printing a
pass/fail line with its runtime. Run with  pytest tests/test_acceptance.py -v -s
"""
import dataclasses
import math
import time

import numpy as np
import pytest

import vaxgame as vg
from vaxgame.epidemic import _field
from vaxgame.game import (WAIT_AND_WATCH, binom_cdf_vec_interp, p_from_gamma,
                          p_from_gamma_vec)
from vaxgame.leader import JointDesignError, c_infinity, g_floor

FIG_DISEASE = dict(lam=15.0, r=2.0, b=2.0, d=0.5)


def fig_cfg(z_bar, sigma2=2.0, **kw):
    base = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0,
                xi=vg.XiModel(5.0, sigma2), z_bar=z_bar)
    base.update(kw)
    return vg.InfluencerGameConfig(**base)


def fig5_costs(s):
    return vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5, s=s)


class Stopwatch:
    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget = number, label, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"[{status}] criterion {self.number:02d} {self.label} "
              f"({dt:.1f}s / budget {self.budget:.0f}s)")
        assert dt < self.budget, f"criterion {self.number} over budget: {dt:.1f}s"
        return False


def test_c01_perfect_info_closed_form_equivalence():
    rng = np.random.default_rng(101)
    with Stopwatch(1, "closed-form equivalence at z_bar=1", 5.0):
        for _ in range(200):
            m = int(rng.integers(2, 41))
            delta = float(rng.uniform(1e-3, 0.3))
            c_v = float(rng.uniform(0.2, 2.0))
            gam = float(rng.uniform(1.0, 6.0))
            c_i = float(rng.uniform(0.5, c_v + gam - 1e-3))
            cfg = vg.InfluencerGameConfig(m=m, t_horizon=20, c_v=c_v, c_i=c_i,
                                          c_se_1=gam, xi=vg.XiModel(gam), z_bar=1)
            gexact = c_infinity(cfg)
            prob = vg.LeaderProblem(delta, cfg, vg.ExpectationSampler())

            def np_at(g):
                return vg.non_eradication_probability(g, 1, prob)

            lo, hi = c_v + gexact - c_i, c_v + gexact
            assert np_at(lo) >= delta >= np_at(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np_at(mid) > delta:
                    lo = mid
                else:
                    hi = mid
            g_bisect = 0.5 * (lo + hi)
            g_closed = c_v + gexact - c_i * delta ** ((m - 1) / m)
            assert abs(g_bisect - g_closed) < 1e-9


def _row_draw(rng, row):
    """Random parameters satisfying one stability-condition row, kept away
    from the degenerate corners so contraction rates stay bounded."""
    while True:
        r = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.5, 4.0))
        d = float(rng.uniform(0.0, 0.7)) * b
        rho = float(rng.uniform(1.3, 6.0))
        dis = vg.DiseaseParams(lam=rho * (r + b), r=r, b=b, d=d)
        theta_star = dis.theta_star
        if row == "non_vaccinating":
            nu = vg.VaRatePolicy(float(rng.uniform(0.2, 6.0)),
                                 float(rng.uniform(0.0, 4.0)))
            beta = vg.ResponseParams(float(rng.uniform(0.05, 0.85))
                                     * b * rho / nu.nu_b)
            return dis, nu, beta
        if row == "eradicating":
            nu_b = float(rng.uniform(0.2, 6.0))
            gap0 = b * rho - nu_b / theta_star
            nu = vg.VaRatePolicy(nu_b, max(gap0, 0.0) + float(rng.uniform(0.5, 4.0)))
            psi_e = vg.psi_eradicating(nu, b)
            if psi_e < theta_star + 0.03:
                continue
            beta = vg.ResponseParams(float(rng.uniform(1.2, 4.0)) / psi_e)
            return dis, nu, beta
        # co-occurring: 0 <= nu_e < b rho - nu_b/theta*, beta psi_o > 1
        nu_b = float(rng.uniform(0.1, 3.0))
        gap0 = b * rho - nu_b / theta_star
        if gap0 < 0.3:
            continue
        nu = vg.VaRatePolicy(nu_b, float(rng.uniform(0.0, 0.85)) * gap0)
        psi_o = vg.psi_co_occurring(nu, dis)
        if not 0.02 < psi_o < theta_star - 0.02:
            continue
        beta = vg.ResponseParams(float(rng.uniform(1.2, 4.0)) / psi_o)
        return dis, nu, beta


def test_c02_attractor_residuals_and_return():
    rng = np.random.default_rng(202)
    with Stopwatch(2, "attractor residuals and perturbed return", 60.0):
        for row in ("non_vaccinating", "eradicating", "co_occurring"):
            for _ in range(500):
                dis, nu, beta = _row_draw(rng, row)
                att = vg.candidate_attractors(dis, nu, beta)
                cand = getattr(att, row)
                assert cand is not None and cand.active, (row, dis, nu, beta)
                res = _field(dis, nu, beta)(cand.theta, cand.psi,
                                            cand.eta)[:3]
                assert np.max(np.abs(res)) < 1e-10

            # integration budget: re-draw and integrate a perturbed start
            for _ in range(500):
                dis, nu, beta = _row_draw(rng, row)
                cand = getattr(vg.candidate_attractors(dis, nu, beta), row)
                vec = rng.normal(size=2)
                vec *= 1e-2 / np.linalg.norm(vec)
                theta0 = min(max(cand.theta + vec[0], 1e-4), 0.98)
                psi0 = min(max(cand.psi + vec[1], 1e-4), 0.98 - theta0)
                out = vg.integrate_to_equilibrium(
                    vg.OdeState(theta0, psi0, cand.eta), dis, nu, beta,
                    horizon=400.0)
                dist = max(abs(out.limit.theta - cand.theta),
                           abs(out.limit.psi - cand.psi),
                           abs(out.limit.eta - cand.eta))
                assert dist < 1e-4, (row, dist, dis, nu, beta)


def test_c03_jump_process_tracks_ode():
    dis = vg.DiseaseParams(**FIG_DISEASE)
    nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
    er = vg.candidate_attractors(dis, nu, beta).eradicating
    n0 = 100_000
    v0, i0 = int(0.80 * n0), int(0.03 * n0)
    with Stopwatch(3, "embedded chain vs ODE sup-distance", 120.0):
        hits = 0
        for seed in (1, 2, 3):
            traj = vg.simulate_jump_process((n0 - v0 - i0, v0, i0, n0), dis,
                                            nu, beta, seed=seed,
                                            n_events=700_000, eta0=er.eta,
                                            record_every=700)
            _, sup = vg.matched_ode(traj, dis, nu, beta)
            if sup < 0.02:
                hits += 1
        assert hits >= 2, f"only {hits}/3 seeds within 0.02"


def test_c04_threshold_characterization_exhaustive():
    dis = vg.DiseaseParams(**FIG_DISEASE)
    fixed_nu = vg.VaRatePolicy(5.0, 0.7)
    with Stopwatch(4, "eradication threshold iff certainty", 30.0):
        for s in np.round(np.arange(0.05, 0.501, 0.05), 3):
            costs = fig5_costs(float(s))
            for nu in (fixed_nu,):
                zbar = vg.eradication_threshold(nu, costs, dis, 40)
                for z in range(41):
                    got = vg.classify_esss(z, nu, costs, dis,
                                           40).eradication_conditional
                    assert got == (1 if z >= zbar else 0)
            # the near-minimal designed policy must agree with its target
            k = vg.vaccine_optimal_k(costs, dis, 40)
            design = vg.construct_eps_vaccine_optimal_nu(k, 1e-3, costs, dis, 40)
            zbar = vg.eradication_threshold(design.nu_eps, costs, dis, 40)
            assert zbar == k
            for z in range(41):
                got = vg.classify_esss(z, design.nu_eps, costs, dis,
                                       40).eradication_conditional
                assert got == (1 if z >= k else 0)


def _ne_instances():
    """Perfect-information M=3, T=3 instances spanning the final-epoch
    regimes: forced vaccination, forced waiting, interior mixing, the
    above-threshold freeze, and the all-or-nothing branch with its tie."""
    mk = lambda **kw: vg.InfluencerGameConfig(
        m=3, t_horizon=3, c_se_1=2.0, xi=vg.XiModel(2.0), **kw)
    return [
        ("zb2 forced vaccinate", mk(c_v=1.0, c_i=5.0, z_bar=2, g0=10.0), 0.0),
        ("zb2 forced wait", mk(c_v=1.0, c_i=2.5, z_bar=2, g0=0.0), 1.0),
        ("zb2 interior mix", mk(c_v=1.0, c_i=5.0, z_bar=2, g0=0.5), 1.0),
        ("zb1 interior mix", mk(c_v=1.0, c_i=5.0, z_bar=1, g0=1.0), 1.0),
        ("zbM forced vaccinate", mk(c_v=1.0, c_i=5.0, z_bar=3, g0=0.0), 0.0),
        ("zbM forced wait", mk(c_v=1.0, c_i=2.5, z_bar=3, g0=0.0), 1.0),
        ("zbM tie", mk(c_v=1.0, c_i=3.0, z_bar=3,
                       incentives=(0.0, 1.0, 2.5)), 0.0),
        ("zbM high incentive", mk(c_v=1.0, c_i=5.0, z_bar=3, g0=2.0), 0.0),
    ]


def test_c05_ne_oracle_on_small_instances():
    with Stopwatch(5, "equilibrium oracle pass / mutation fail", 10.0):
        for label, cfg, flip_to in _ne_instances():
            strat = vg.SpecialStrategy(cfg, WAIT_AND_WATCH)
            check = vg.verify_symmetric_ne(strat.decision, cfg)
            assert check.passed, (label, check.worst_gain, check.worst_state)
            assert check.vaccinated_value_error < 1e-9, label

            def bad(t, z, c):
                if label == "zbM tie":
                    # final-epoch set at z=0 is the whole interval; deviate
                    # at the z=1 state where the incentive forces vaccination
                    flip, p = t == 2 and z == 1, 0.0
                else:
                    flip, p = t == 2 and z < cfg.z_bar, flip_to
                return p if flip else strat.decision(t, z, c)

            check = vg.verify_symmetric_ne(bad, cfg)
            assert not check.passed, label
            assert check.worst_gain > 1e-9, label


def test_c06_monotonicity_suite():
    rng = np.random.default_rng(606)
    with Stopwatch(6, "equilibrium probability and constraint monotone", 60.0):
        for z_bar in (1, 20, 39, 40):
            cfg = fig_cfg(z_bar)
            for _ in range(1000):
                g = float(rng.uniform(-1.0, 8.0))
                c = float(rng.uniform(0.0, 10.0))
                dg = float(rng.uniform(1e-4, 2.0))
                dc = float(rng.uniform(1e-4, 2.0))
                p0 = vg.ne_outcome_probability(g, c, cfg)
                pg = vg.ne_outcome_probability(g + dg, c, cfg)
                pc = vg.ne_outcome_probability(g, c + dc, cfg)
                assert pg >= p0 - 1e-12
                assert pc <= p0 + 1e-12
                if z_bar < 40 and 0.0 < p0 < 1.0:
                    assert pg > p0
                    if pc > 0.0:
                        assert pc < p0

        # constraint: per-sample non-increasing, mean strictly decreasing
        # on the stretch where the empirical constraint is still positive
        for z_bar in (1, 20, 40):
            cfg = fig_cfg(z_bar)
            smp = vg.ExpectationSampler(n_samples=50_000, seed=66)
            gams = smp.gamma_draws(cfg).gams
            lo = g_floor(cfg) + 1e-6
            hi = cfg.c_v + float(gams.max()) - 1e-6
            if z_bar == cfg.m:
                hi -= cfg.c_i
            prev = None
            for g in np.linspace(lo, hi, 40):
                ps = p_from_gamma_vec(g, gams, cfg)
                vals = binom_cdf_vec_interp(cfg.m, z_bar - 1, ps)
                if prev is not None:
                    assert int(np.sum(vals > prev + 1e-12)) == 0
                    assert vals.mean() < prev.mean()
                prev = vals


def test_c07_crossover_in_delta():
    with Stopwatch(7, "cost crossover between extreme thresholds", 180.0):
        smp = vg.ExpectationSampler(n_samples=100_000, seed=77)

        def costs_at(delta):
            u1 = vg.solve_optimal_incentive(
                1, vg.LeaderProblem(delta, fig_cfg(1), smp)).u_star
            uM = vg.solve_optimal_incentive(
                40, vg.LeaderProblem(delta, fig_cfg(40), smp)).u_star
            return u1, uM

        u1_lo, uM_lo = costs_at(0.05)
        assert uM_lo < u1_lo, (u1_lo, uM_lo)
        u1_hi, uM_hi = costs_at(0.10)
        assert u1_hi < uM_hi, (u1_hi, uM_hi)

        crossover = None
        prev_sign = uM_lo < u1_lo
        for delta in np.arange(0.03, 0.1201, 0.01):
            u1, uM = costs_at(float(delta))
            if crossover is None and not (uM < u1) == prev_sign:
                crossover = float(delta)
        assert crossover is not None and 0.03 <= crossover <= 0.12


def test_c08_incentive_gap_at_small_delta():
    with Stopwatch(8, "threshold gap approaches infection cost", 120.0):
        smp = vg.ExpectationSampler(n_samples=100_000, seed=88)
        delta = 1e-3
        g_m = vg.solve_optimal_incentive(
            40, vg.LeaderProblem(delta, fig_cfg(40), smp)).g_star
        gap = min(
            vg.solve_optimal_incentive(
                zb, vg.LeaderProblem(delta, fig_cfg(zb), smp)).g_star - g_m
            for zb in range(1, 40))
        c_i = 5.0
        assert 0.5 * c_i <= gap <= 1.5 * c_i, gap


def test_c09_variance_to_zero_convergence():
    with Stopwatch(9, "small-variance solutions match closed forms", 60.0):
        delta = 0.05
        smp = vg.ExpectationSampler(n_samples=100_000, seed=99)
        for zb in (1, 20, 39):
            g_mc = vg.solve_optimal_incentive(
                zb, vg.LeaderProblem(delta, fig_cfg(zb, sigma2=1e-4), smp)).g_star
            g_pi = vg.perfect_info_solution(
                vg.LeaderProblem(delta, fig_cfg(zb, sigma2=0.0), smp)).g_star
            assert abs(g_mc - g_pi) <= 0.05, (zb, g_mc, g_pi)
        g_mc = vg.solve_optimal_incentive(
            40, vg.LeaderProblem(delta, fig_cfg(40, sigma2=1e-4), smp)).g_star
        gam = c_infinity(fig_cfg(40, sigma2=0.0))
        assert abs(g_mc - (1.0 + gam - 5.0)) <= 0.05


def test_c10_joint_design():
    rng = np.random.default_rng(1010)
    dis_fig = vg.DiseaseParams(**FIG_DISEASE)
    with Stopwatch(10, "unique target count and near-minimal supply", 60.0):
        found = 0
        while found < 200:
            m = int(rng.integers(3, 60))
            costs = vg.PublicCostModel(
                c_v1=float(rng.uniform(0.05, 3.0)),
                c_v2=float(rng.uniform(0.01, 5.0)),
                c_v2_bar=float(rng.uniform(1.0, 50.0)),
                c_i=float(rng.uniform(0.1, 10.0)),
                s=float(rng.uniform(0.05, 3.0)))
            theta = float(rng.uniform(0.05, 0.95))
            rho = 1.0 / (1.0 - theta)
            dis = vg.DiseaseParams(lam=rho * 4.0, r=2.0, b=2.0, d=0.5)
            if not costs.influence_sufficient(m):
                continue
            k = vg.vaccine_optimal_k(costs, dis, m)  # raises unless unique
            found += 1

        for s in (0.1, 0.2, 0.35):
            costs = fig5_costs(s)
            k = vg.vaccine_optimal_k(costs, dis_fig, 40)
            for eps in (1e-2, 1e-3):
                design = vg.construct_eps_vaccine_optimal_nu(
                    k, eps, costs, dis_fig, 40)
                ts = dis_fig.theta_star
                assert ts < design.psi_e_achieved <= ts + eps
                assert vg.eradication_threshold(
                    design.nu_eps, costs, dis_fig, 40) == k

        # flat below the cap switch at theta* = c_v2/c_v2_bar = 2/15 and
        # flat again once the theta*-dependence of the crossing saturates
        thetas = np.round(np.arange(0.05, 0.96, 0.02), 3)
        costs = vg.PublicCostModel(c_v1=6.0, c_v2=2.0, c_v2_bar=15.0,
                                   c_i=50.0, s=0.5)
        ks = []
        for theta in thetas:
            rho = 1.0 / (1.0 - float(theta))
            dis = vg.DiseaseParams(lam=rho * 7.0, r=5.0, b=2.0, d=0.5)
            ks.append(vg.vaccine_optimal_k(costs, dis, 40))
        assert len({k for t, k in zip(thetas, ks) if t <= 0.13}) == 1
        assert len({k for t, k in zip(thetas, ks) if t >= 0.86}) == 1
        assert len(set(ks)) > 1


def _incentive_optimal_built(costs, dis) -> bool:
    """Whether the threshold-at-M design exists at M = 40: whether
    construct_incentive_optimal_nu returns it."""
    try:
        vg.construct_incentive_optimal_nu(costs, dis, 40)
    except JointDesignError:
        return False
    return True


def test_c11_incentive_optimality_boundary():
    dis = vg.DiseaseParams(**FIG_DISEASE)
    with Stopwatch(11, "incentive-optimal regime boundary in s", 10.0):
        grid = np.round(np.arange(0.03, 0.1001, 0.001), 4)
        flags = [_incentive_optimal_built(fig5_costs(float(s)), dis)
                 for s in grid]
        # one downward flip, inside [0.05, 0.08]
        flips = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
                 if flags[i] != flags[i + 1]]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert flags[0] and not flags[-1]
        assert 0.05 <= lo <= 0.08 and 0.05 <= hi <= 0.08
