"""Cross-layer consistency: supply design, incentive pricing, equilibrium
sampling, and the population dynamics all tell the same story."""
import math

import numpy as np

import vaxgame as vg


def test_design_price_sample_and_eradicate():
    dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
    costs = vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5,
                               s=0.2)
    nu = vg.VaRatePolicy(8.0, 3.0)
    assert vg.is_admissible(nu, dis)

    # stability layer: threshold and certainty above it
    z_bar = vg.eradication_threshold(nu, costs, dis, 40)
    rep = vg.classify_esss(z_bar, nu, costs, dis, 40)
    assert "eradicating" in rep.esss_set
    assert rep.eradication_conditional == 1

    # leader layer: price the incentive for that threshold
    delta = 0.05
    cfg = vg.InfluencerGameConfig(m=40, t_horizon=20, c_v=1.0, c_i=5.0,
                                  c_se_1=3.0, xi=vg.XiModel(5.0, 2.0),
                                  z_bar=z_bar)
    smp = vg.ExpectationSampler(n_samples=50_000, seed=41)
    sol = vg.solve_optimal_incentive(z_bar, vg.LeaderProblem(delta, cfg, smp))
    assert sol.np_at_g <= delta + smp.ci_halfwidth(delta)

    # game layer: sampled outcomes clear the threshold at rate ~ 1 - delta
    n = 40_000
    zs, _ = vg.sample_z_t(sol.g_star, cfg, seed=17, size=n)
    coverage = float(np.mean(zs >= z_bar))
    ci = 4.0 * math.sqrt(delta * (1 - delta) / n)
    assert abs(coverage - (1.0 - delta)) < ci + 0.003

    # population layer: a crowd response admissible for the eradicating
    # limit actually carries the dynamics there
    att = vg.candidate_attractors(dis, nu, vg.ResponseParams(2.0))
    er = att.eradicating
    assert er.active
    out = vg.integrate_to_equilibrium(
        vg.OdeState(0.05, er.psi - 0.05, er.eta), dis, nu,
        vg.ResponseParams(2.0))
    assert out.converged
    assert out.limit.theta < 1e-6
    assert abs(out.limit.psi - er.psi) < 1e-6

    # near-minimal design keeps the same guarantees with the least
    # vaccinated fraction
    k = vg.vaccine_optimal_k(costs, dis, 40)
    design = vg.construct_eps_vaccine_optimal_nu(k, 1e-3, costs, dis, 40)
    assert vg.eradication_threshold(design.nu_eps, costs, dis, 40) == k
    assert dis.theta_star < design.psi_e_achieved <= dis.theta_star + 1e-3
    assert design.psi_e_achieved < er.psi
