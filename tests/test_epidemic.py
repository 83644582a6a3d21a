import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45

import vaxgame as vg
from vaxgame.epidemic import (_field, _newton_distance, _stable_inverse,
                              total_event_rate)

from test_acceptance import _row_draw


def fig5_disease(d=0.5):
    return vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=d)


class TestOdeRhs:
    def test_origin_is_equilibrium_of_infection_and_vaccination(self):
        dis = fig5_disease()
        rhs = vg.ode_rhs(vg.OdeState(0.0, 0.0, 0.3), dis,
                         vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0))
        assert rhs[0] == 0.0
        assert rhs[1] == 0.0

    def test_endemic_point_kills_theta_flow(self):
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0)
        st = vg.OdeState(dis.theta_star, 0.0, 0.2)
        rhs = vg.ode_rhs(st, dis, nu, beta)
        assert rhs[0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_derivative_vector(self):
        # independent longhand evaluation, term by term
        lam, r, b, d = 15.0, 2.0, 2.0, 0.5
        nu_b, nu_e, beta = 1.0, 1.0, 2.0
        theta, psi, eta = 0.1, 0.2, 0.3
        phi = 1.0 - theta - psi
        rho = lam / (r + b)
        varrho = b + d + lam * theta * phi + (nu_b + nu_e * psi) * phi + r * theta
        accept = min(1.0, beta * psi)
        want_theta = theta * lam / (eta * varrho) * (phi - 1.0 / rho)
        want_psi = (phi * accept * (nu_b + nu_e * psi) - b * psi) / (eta * varrho)
        want_eta = (b - d) / varrho - eta

        rhs = vg.ode_rhs(vg.OdeState(theta, psi, eta),
                         vg.DiseaseParams(lam, r, b, d),
                         vg.VaRatePolicy(nu_b, nu_e), vg.ResponseParams(beta))
        assert rhs == pytest.approx([want_theta, want_psi, want_eta], rel=1e-14)
        # frozen values from the longhand arithmetic
        assert rhs[0] == pytest.approx(0.47204066811910678, rel=1e-12)
        assert rhs[1] == pytest.approx(-0.046477850399418, rel=1e-12)
        assert rhs[2] == pytest.approx(0.026797385620915, rel=1e-12)

    def test_nonfinite_state_rejected(self):
        dis = fig5_disease()
        with pytest.raises(ValueError):
            vg.OdeState(math.nan, 0.0, 1.0)


class TestCandidates:
    def test_psi_e_zero_extra_rate(self):
        assert vg.psi_eradicating(vg.VaRatePolicy(2.0, 0.0), 2.0) == pytest.approx(0.5)

    def test_psi_e_quadratic_branch(self):
        # b + nu_b - nu_e = 0, so psi_e = sqrt(8)/4
        got = vg.psi_eradicating(vg.VaRatePolicy(1.0, 2.0), 1.0)
        assert got == pytest.approx(math.sqrt(8.0) / 4.0, rel=1e-14)

    def test_psi_e_solves_its_quadratic(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nu_b, nu_e, b = rng.uniform(0.01, 10, 3)
            nu = vg.VaRatePolicy(nu_b, nu_e)
            p = vg.psi_eradicating(nu, b)
            assert abs((1 - p) * nu.rate(p) - b * p) < 1e-10
            assert 0.0 < p < 1.0

    def test_subcritical_leaves_only_self_eradication(self):
        dis = vg.DiseaseParams(lam=1.5, r=2.0, b=2.0, d=0.5)
        att = vg.candidate_attractors(dis, vg.VaRatePolicy(1.0, 0.5),
                                      vg.ResponseParams(1.0))
        active = att.active()
        assert set(active) <= {"self_eradicating"}
        assert "self_eradicating" in active
        assert active["self_eradicating"].eta == pytest.approx(1.5 / 3.5)

    def test_eradicating_and_co_occurring_mutually_exclusive(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lam = rng.uniform(5, 25)
            r, b = rng.uniform(0.5, 5), rng.uniform(0.5, 5)
            dis = vg.DiseaseParams(lam=lam, r=r, b=b, d=0.2 * b)
            if dis.rho <= 1:
                continue
            nu = vg.VaRatePolicy(rng.uniform(0, 10), rng.uniform(0, 10))
            att = vg.candidate_attractors(dis, nu, vg.ResponseParams(rng.uniform(0, 12)))
            active = att.active()
            assert not ({"eradicating", "co_occurring"} <= set(active))

    def test_active_candidates_are_equilibria(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            lam = rng.uniform(5, 30)
            r, b = rng.uniform(0.5, 5), rng.uniform(0.5, 5)
            d = rng.uniform(0, 0.8) * b
            dis = vg.DiseaseParams(lam=lam, r=r, b=b, d=d)
            nu = vg.VaRatePolicy(rng.uniform(0.1, 10), rng.uniform(0, 10))
            beta = vg.ResponseParams(rng.uniform(0, 12))
            att = vg.candidate_attractors(dis, nu, beta)
            for cand in att.active().values():
                res = vg.ode_rhs(cand.state(), dis, nu, beta)
                assert np.max(np.abs(res)) < 1e-10
                checked += 1


class TestIntegration:
    def test_converges_to_endemic_point(self):
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0)
        att = vg.candidate_attractors(dis, nu, beta)
        nv = att.non_vaccinating
        assert beta.beta < dis.b * dis.rho / nu.nu_b
        res = vg.integrate_to_equilibrium(
            vg.OdeState(nv.theta - 0.01, 0.008, nv.eta + 0.02), dis, nu, beta)
        assert res.converged
        assert res.limit.theta == pytest.approx(nv.theta, abs=1e-6)
        assert res.limit.psi == pytest.approx(0.0, abs=1e-6)
        assert res.limit.eta == pytest.approx(nv.eta, abs=1e-6)

    def test_converges_to_eradicating_point(self):
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
        att = vg.candidate_attractors(dis, nu, beta)
        er = att.eradicating
        assert er.active
        res = vg.integrate_to_equilibrium(
            vg.OdeState(0.01, er.psi - 0.01, er.eta), dis, nu, beta)
        assert res.converged
        assert res.limit.theta == pytest.approx(0.0, abs=1e-6)
        assert res.limit.psi == pytest.approx(er.psi, abs=1e-6)

    def test_subcritical_dies_out_from_origin_neighborhood(self):
        dis = vg.DiseaseParams(lam=1.5, r=2.0, b=2.0, d=0.5)
        nu, beta = vg.VaRatePolicy(1.0, 0.0), vg.ResponseParams(1.0)
        res = vg.integrate_to_equilibrium(vg.OdeState(0.02, 0.02, 0.5),
                                          dis, nu, beta)
        assert res.converged
        assert res.limit.theta == pytest.approx(0.0, abs=1e-6)
        assert res.limit.psi == pytest.approx(0.0, abs=1e-6)
        assert res.limit.eta == pytest.approx((2 - 0.5) / (2 + 0.5 + 1), abs=1e-6)

    def test_horizon_overrun_reports_not_raises(self):
        dis = fig5_disease()
        res = vg.integrate_to_equilibrium(
            vg.OdeState(0.3, 0.1, 0.2), dis, vg.VaRatePolicy(1.0, 1.0),
            vg.ResponseParams(2.0), horizon=0.5)
        assert not res.converged
        assert "horizon" in res.message

    def test_simplex_preserved_from_random_starts(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            lam = rng.uniform(3, 25)
            r, b = rng.uniform(0.5, 5), rng.uniform(0.5, 5)
            dis = vg.DiseaseParams(lam=lam, r=r, b=b, d=rng.uniform(0, 0.8) * b)
            if dis.rho > 1 and rng.random() < 0.5:
                # half the endemic draws carry an admissible supply policy
                nu_b = rng.uniform(0.1, 8)
                nu = vg.VaRatePolicy(nu_b, max(dis.b * dis.rho
                                               - nu_b / dis.theta_star, 0.0)
                                     + rng.uniform(0.01, 4))
            else:
                nu = vg.VaRatePolicy(rng.uniform(0, 8), rng.uniform(0, 8))
            beta = vg.ResponseParams(rng.uniform(0, 10))
            theta0 = rng.uniform(0, 1)
            psi0 = rng.uniform(0, 1 - theta0)
            res = vg.integrate_to_equilibrium(
                vg.OdeState(theta0, psi0, rng.uniform(0.05, 1.0)),
                dis, nu, beta, horizon=15.0)
            th, ps = res.states[:, 0], res.states[:, 1]
            assert np.all(th >= -1e-9) and np.all(ps >= -1e-9)
            assert np.all(th + ps <= 1.0 + 1e-6)

    @pytest.mark.parametrize("kw", [
        dict(horizon=-1.0), dict(horizon=math.inf), dict(horizon=math.nan),
        dict(tol=0.0), dict(tol=-1e-8), dict(rtol=0.0), dict(rtol=math.nan),
    ])
    def test_bad_arguments_rejected(self, kw):
        with pytest.raises(ValueError):
            vg.integrate_to_equilibrium(
                vg.OdeState(0.1, 0.1, 0.3), fig5_disease(),
                vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0), **kw)

    def test_zero_horizon_is_the_start(self):
        res = vg.integrate_to_equilibrium(
            vg.OdeState(0.1, 0.2, 0.3), fig5_disease(),
            vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0), horizon=0.0)
        assert list(res.t) == [0.0]
        assert res.states.tolist() == [[0.1, 0.2, 0.3]]
        assert not res.converged

    def test_matches_scipy_rk45(self):
        # scipy's RK45 on the same drift is the reference: same tableau,
        # controller and first step, so over a horizon too short for
        # the convergence rule the end states agree to rounding
        rng = np.random.default_rng(202)
        for row in ("non_vaccinating", "eradicating", "co_occurring"):
            for _ in range(10):
                dis, nu, beta = _row_draw(rng, row)
                cand = getattr(vg.candidate_attractors(dis, nu, beta), row)
                vec = rng.normal(size=2)
                vec *= 1e-2 / np.linalg.norm(vec)
                theta0 = min(max(cand.theta + vec[0], 1e-4), 0.98)
                psi0 = min(max(cand.psi + vec[1], 1e-4), 0.98 - theta0)
                init = vg.OdeState(theta0, psi0, cand.eta)
                f = _field(dis, nu, beta)
                ref = RK45(lambda t, y: f(*y)[:3], 0.0, init.as_array(),
                           t_bound=2.0, rtol=1e-9, atol=1e-12, max_step=1.0)
                while ref.status == "running":
                    ref.step()
                out = vg.integrate_to_equilibrium(init, dis, nu, beta,
                                                  horizon=2.0)
                assert not out.converged and out.t[-1] == 2.0
                assert np.max(np.abs(out.states[-1] - ref.y)) < 1e-8

    def test_stiff_return_is_certified(self):
        # a seed-202 non-vaccinating draw whose stiff mode (eigenvalue
        # -59) keeps the rhs near 3e-8 at the attractor: a 100-step
        # rhs < tol window never closed and ran 7,197 steps to the horizon
        dis = vg.DiseaseParams(lam=24.907497223799215, r=3.4260895027703056,
                               b=0.83298828491058, d=0.48476674868617964)
        nu = vg.VaRatePolicy(3.2282514695585807, 3.0047937862508594)
        beta = vg.ResponseParams(0.8153271464794994)
        cand = vg.candidate_attractors(dis, nu, beta).non_vaccinating
        res = vg.integrate_to_equilibrium(
            vg.OdeState(0.8383889045945071, 0.003453554388760014,
                        0.04225574974629487), dis, nu, beta, horizon=400.0)
        assert res.converged and "certificate" in res.message
        assert len(res.t) - 1 < 1000
        assert max(abs(res.limit.theta - cand.theta),
                   abs(res.limit.psi - cand.psi),
                   abs(res.limit.eta - cand.eta)) < 1e-6

    def test_co_occurring_return_is_certified_within_tol(self):
        # a seed-202 co-occurring draw whose rhs stays below tol for 100
        # steps while the state is still 2.95e-8 from the attractor, so a
        # small rhs alone would stop the run past tol
        dis = vg.DiseaseParams(lam=5.381213888399635, r=0.5468451121114096,
                               b=1.6395128543621509, d=0.932981229287166)
        nu = vg.VaRatePolicy(1.810831932086028, 0.811826216261104)
        beta = vg.ResponseParams(2.3951268704197513)
        cands = vg.candidate_attractors(dis, nu, beta)
        assert list(cands.active()) == ["co_occurring"]
        cand = cands.co_occurring
        res = vg.integrate_to_equilibrium(
            vg.OdeState(0.038416988153923505, 0.5693846908245738,
                        0.1973104440637278), dis, nu, beta, horizon=400.0)
        assert res.converged and "certificate" in res.message
        assert max(abs(res.limit.theta - cand.theta),
                   abs(res.limit.psi - cand.psi),
                   abs(res.limit.eta - cand.eta)) < 1e-8

    def test_non_hyperbolic_point_is_not_converged(self):
        # rho = 1 without vaccination: theta decays like -c*theta^2, so the
        # Jacobian's theta eigenvalue vanishes with theta and the Newton
        # distance (about theta/2) stays far above tol; the rhs is below tol
        # from the start, but the run is not called converged at
        # theta = 5e-5 when the equilibrium is theta = 0
        dis = vg.DiseaseParams(lam=4.0, r=2.0, b=2.0, d=0.5)
        nu = vg.VaRatePolicy(0.0, 0.0)
        theta0 = 5e-5
        eta0 = (dis.b - dis.d) / total_event_rate(theta0, 0.0, dis, nu)
        res = vg.integrate_to_equilibrium(vg.OdeState(theta0, 0.0, eta0),
                                          dis, nu, vg.ResponseParams(0.0))
        assert not res.converged
        assert res.t[-1] == 600.0 and "horizon 600.0 exceeded" in res.message
        assert res.limit.theta > 1e-5


def test_newton_distance_on_linear_fields():
    # for f(y) = A (y - y*) the central differences are exact, so the
    # distance is max|y - y*| when every eigenvalue of A has Re < 0; for
    # any other A there is no stable inverse
    rng = np.random.default_rng(5)
    stable = 0
    for _ in range(2000):
        a = rng.normal(size=(3, 3)) * rng.uniform(0.1, 50.0)
        y_star = rng.uniform(0.0, 1.0, 3)
        y = y_star + rng.normal(size=3) * 1e-6

        def f(*v):
            return tuple(a @ (np.array(v) - y_star))

        inv = _stable_inverse(f, tuple(y))
        if np.linalg.eigvals(a).real.max() < 0.0:
            stable += 1
            assert _newton_distance(inv, f(*y)) == pytest.approx(
                np.max(np.abs(y - y_star)), rel=1e-6)
        else:
            assert inv is None
    assert 100 < stable < 1900


class TestPsiEProperties:
    def test_continuity_at_vanishing_extra_rate(self):
        for nu_b, b in [(1.0, 2.0), (4.0, 1.0), (0.3, 0.7)]:
            lim = nu_b / (b + nu_b)
            got = vg.psi_eradicating(vg.VaRatePolicy(nu_b, 1e-6), b)
            assert abs(got - lim) < 1e-4

    def test_monotone_in_both_rates(self):
        b = 2.0
        grid = np.linspace(0.2, 8.0, 12)
        for nu_e in grid:
            vals = [vg.psi_eradicating(vg.VaRatePolicy(nu_b, nu_e), b)
                    for nu_b in grid]
            assert np.all(np.diff(vals) > 0)
        for nu_b in grid:
            vals = [vg.psi_eradicating(vg.VaRatePolicy(nu_b, nu_e), b)
                    for nu_e in grid]
            assert np.all(np.diff(vals) > 0)


def _reference_chain(initial_counts, disease, nu, beta, seed, n_events,
                     eta0=None, record_every=1):
    """The per-event loop of `simulate_jump_process` before it moved to float
    counts and a clock summed per block: integer counts, the clock and the
    record test on every event. The oracle the current loop must equal."""
    s, v, i, n = (int(x) for x in initial_counts)
    rng = np.random.default_rng(seed)

    if eta0 is None:
        eta0 = float(n)
    k = max(int(round(n / eta0)) - 1, 0)

    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta
    t = 0.0
    rec_t = [0.0]
    rec_theta = [i / n]
    rec_psi = [v / n]
    rec_eta = [n / (1 + k)]
    extinct = False

    chunk = 16384
    uniforms = rng.random(chunk).tolist()
    u_pos = 0

    for step in range(n_events):
        if u_pos + 2 > chunk:
            uniforms = rng.random(chunk).tolist()
            u_pos = 0
        psi = v / n
        # cumulative rates of infection, recovery, birth and death; the
        # rest of the total is vaccine offers at rate (nu_b + nu_e*psi)*S
        c_inf = lam * s * i / n
        c_rec = c_inf + r * i
        c_birth = c_rec + b * n
        c_death = c_birth + d * n
        total = c_death + (nu_b + nu_e * psi) * s

        u = uniforms[u_pos] * total
        u_pos += 1
        if u < c_inf:
            s -= 1
            i += 1
        elif u < c_rec:
            # recovered individuals rejoin the susceptible pool
            i -= 1
            s += 1
        elif u < c_birth:
            s += 1
            n += 1
        elif u < c_death:
            u2 = uniforms[u_pos] * n
            u_pos += 1
            if u2 < s:
                s -= 1
            elif u2 < s + v:
                v -= 1
            else:
                i -= 1
            n -= 1
        else:
            accept = bt * psi
            if uniforms[u_pos] < (accept if accept < 1.0 else 1.0):
                s -= 1
                v += 1
            u_pos += 1

        k += 1
        t += 1.0 / (1 + k)
        if n == 0:
            extinct = True
            break
        if (step + 1) % record_every == 0:
            rec_t.append(t)
            rec_theta.append(i / n)
            rec_psi.append(v / n)
            rec_eta.append(n / (1 + k))

    if extinct:
        rec_t.append(t)
        rec_theta.append(0.0)
        rec_psi.append(0.0)
        rec_eta.append(0.0)

    return vg.JumpTrajectory(np.array(rec_t), np.array(rec_theta),
                             np.array(rec_psi), np.array(rec_eta),
                             extinct=extinct,
                             events=step + 1 if extinct else n_events,
                             seed=seed)


# near-critical birth/death from N0 = 20: dies out at event 15,240, after
# the first uniform refill and on an event that is a multiple of 40
_LATE_EXTINCTION = dict(counts=(16, 2, 2), rates=(0.5, 5.0, 0.5, 0.998),
                        supply=(0.1, 0.0), beta=0.5, eta0=None,
                        record_every=40, n_events=25_000, seed=39)


@settings(max_examples=100, deadline=None)
@given(counts=st.tuples(st.integers(0, 30), st.integers(0, 30),
                        st.integers(0, 30)).filter(lambda c: sum(c) > 0),
       rates=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 5.0),
                       st.floats(0.1, 3.0), st.floats(0.0, 0.999)),
       supply=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 5.0)),
       beta=st.floats(0.0, 2.0),
       eta0=st.none() | st.floats(0.05, 50.0),
       record_every=st.integers(1, 50),
       n_events=st.integers(0, 25_000),
       seed=st.integers(0, 2 ** 32 - 1))
@example(**_LATE_EXTINCTION)
@example(counts=(800, 100, 100), rates=(15.0, 2.0, 2.0, 0.25),
         supply=(2.0, 1.0), beta=0.3, eta0=250.0, record_every=13,
         n_events=25_000, seed=3)
def test_chain_equals_per_event_reference(counts, rates, supply, beta, eta0,
                                          record_every, n_events, seed):
    # beta < 1 declines some offers at every psi; 25,000 events cross the
    # 16,384-uniform refill; small counts with d near b die out mid-block
    s, v, i = counts
    lam, r, b, d_frac = rates
    args = ((s, v, i, s + v + i), vg.DiseaseParams(lam, r, b, d_frac * b),
            vg.VaRatePolicy(*supply), vg.ResponseParams(beta))
    kw = dict(seed=seed, n_events=n_events, eta0=eta0,
              record_every=record_every)
    got = vg.simulate_jump_process(*args, **kw)
    want = _reference_chain(*args, **kw)
    for name in ("t", "theta", "psi", "eta"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.extinct, got.events) == (want.extinct, want.events)


class TestJumpProcess:
    def test_no_spontaneous_infection(self):
        dis = fig5_disease()
        traj = vg.simulate_jump_process((900, 100, 0, 1000), dis,
                                        vg.VaRatePolicy(1.0, 0.0),
                                        vg.ResponseParams(2.0), seed=0,
                                        n_events=20000)
        assert np.all(traj.theta == 0.0)

    def test_zero_acceptance_keeps_vaccinated_count(self):
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.0)
        traj = vg.simulate_jump_process((700, 200, 100, 1000), dis,
                                        vg.VaRatePolicy(2.0, 1.0),
                                        vg.ResponseParams(0.0), seed=1,
                                        n_events=30000, record_every=1)
        # psi = V/N with V frozen: only births move it, downward
        assert np.all(np.diff(traj.psi) <= 1e-15)

    def test_reproducible_from_seed(self):
        dis = fig5_disease()
        args = ((800, 100, 100, 1000), dis, vg.VaRatePolicy(2.0, 1.0),
                vg.ResponseParams(1.5))
        a = vg.simulate_jump_process(*args, seed=9, n_events=5000)
        b = vg.simulate_jump_process(*args, seed=9, n_events=5000)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.psi, b.psi)

    def test_frozen_trajectory(self):
        # recorded from the event loop before it moved to Python-list
        # uniforms and local rates; the arithmetic order and the uniforms
        # consumed are unchanged, so every recorded value is too
        traj = vg.simulate_jump_process((800, 100, 100, 1000), fig5_disease(),
                                        vg.VaRatePolicy(2.0, 1.0),
                                        vg.ResponseParams(1.5), seed=9,
                                        n_events=5000)
        assert len(traj.t) == 5001 and traj.t[-1] == 8.094708812992438
        assert (traj.theta[-1], traj.psi[-1], traj.eta[-1]) == (
            1257 / 2016, 154 / 2016, 2016 / 5001)
        assert math.fsum(traj.theta) == 2082.1432967051837
        assert math.fsum(traj.psi) == 465.68837366096614
        assert math.fsum(traj.eta) == 10229.76317947173

    def test_counts_must_stay_exact_as_floats(self):
        dis, nu, beta = (fig5_disease(), vg.VaRatePolicy(2.0, 1.0),
                         vg.ResponseParams(1.5))
        big = 2 ** 53
        with pytest.raises(ValueError, match="2\\*\\*53"):
            vg.simulate_jump_process((big, 0, 0, big), dis, nu, beta,
                                     seed=0, n_events=0)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            vg.simulate_jump_process((big - 10, 0, 0, big - 10), dis, nu,
                                     beta, seed=0, n_events=10)
        # one event fewer keeps N below 2**53 however the chain moves
        traj = vg.simulate_jump_process((big - 10, 0, 0, big - 10), dis, nu,
                                        beta, seed=0, n_events=9)
        assert traj.events == 9 and not traj.extinct
        # the clock index k0 ~ N0/eta0 is held to the same bound
        with pytest.raises(ValueError, match="2\\*\\*53"):
            vg.simulate_jump_process((800, 100, 100, 1000), dis, nu, beta,
                                     seed=0, n_events=10, eta0=1e-300)
        for eta0 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta0"):
                vg.simulate_jump_process((800, 100, 100, 1000), dis, nu,
                                         beta, seed=0, n_events=10, eta0=eta0)

    def test_memory_does_not_grow_with_n_events(self):
        # the working set is the 16,384-uniform chunk (two of them while
        # one replaces the other, about 1.2 MB traced) and a block's clock;
        # nothing may be sized by n_events
        runs = [
            # 25,000 events take more than one chunk of uniforms
            ((160, 800, 40, 1000), fig5_disease(), vg.VaRatePolicy(8.0, 3.0),
             vg.ResponseParams(2.0), 25_000, 250),
            # dies out after 7 events, so an array sized by the 5e6 events
            # asked for would be all that grows
            ((2, 1, 2, 5), vg.DiseaseParams(lam=0.5, r=5.0, b=0.5, d=0.499),
             vg.VaRatePolicy(0.1, 0.0), vg.ResponseParams(0.5), 5_000_000, 7),
        ]
        for counts, dis, nu, beta, events, every in runs:
            tracemalloc.start()
            try:
                traj = vg.simulate_jump_process(counts, dis, nu, beta, seed=4,
                                                n_events=events,
                                                record_every=every)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.t) < 110
            assert peak < 1.5e6, (events, peak)

    def test_counts_stay_nonnegative_and_extinction_flags(self):
        # near-critical birth/death walk from a tiny population hits zero
        dis = vg.DiseaseParams(lam=0.5, r=5.0, b=0.5, d=0.499)
        traj = vg.simulate_jump_process((2, 1, 2, 5), dis,
                                        vg.VaRatePolicy(0.1, 0.0),
                                        vg.ResponseParams(0.5), seed=4,
                                        n_events=300000, record_every=1)
        assert np.all(traj.theta >= 0) and np.all(traj.psi >= 0)
        assert traj.extinct

    def test_tracks_ode_near_eradicating_attractor(self):
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
        er = vg.candidate_attractors(dis, nu, beta).eradicating
        n0 = 50_000
        v0 = int(0.8 * n0)
        i0 = int(0.03 * n0)
        traj = vg.simulate_jump_process((n0 - v0 - i0, v0, i0, n0), dis, nu,
                                        beta, seed=2, n_events=300_000,
                                        eta0=er.eta, record_every=300)
        sol, sup = vg.matched_ode(traj, dis, nu, beta)
        assert sup < 0.03

        # reference: the ODE started by hand at the chain's clock index
        k0 = max(int(round(n0 / er.eta)) - 1, 0)
        init = vg.OdeState(i0 / n0, v0 / n0, n0 / (1 + k0))
        ref = vg.integrate_to_equilibrium(init, dis, nu, beta,
                                          horizon=float(traj.t[-1]) + 1e-9)
        th = np.interp(traj.t, ref.t, ref.states[:, 0])
        ps = np.interp(traj.t, ref.t, ref.states[:, 1])
        ref_sup = max(np.max(np.abs(th - traj.theta)),
                      np.max(np.abs(ps - traj.psi)))
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.states, ref.states)
        assert sup == ref_sup

    def test_sup_distance_shrinks_like_inverse_root_n0(self):
        # density-dependent limit (Kurtz 1970): the chain's fluctuations
        # about the ODE over a fixed horizon scale like N0^(-1/2), so each
        # 4x step in N0 halves the mean sup-distance. 7*N0 events span the
        # same ODE time at every N0 (about ln(1 + 7*eta0)).
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
        er = vg.candidate_attractors(dis, nu, beta).eradicating
        stats = []
        for n0 in (2_500, 10_000, 40_000):
            v0, i0 = int(0.80 * n0), int(0.03 * n0)
            events = 7 * n0
            sups = [vg.matched_ode(vg.simulate_jump_process(
                        (n0 - v0 - i0, v0, i0, n0), dis, nu, beta, seed=seed,
                        n_events=events, eta0=er.eta,
                        record_every=events // 1000), dis, nu, beta)[1]
                    for seed in range(1, 9)]
            stats.append((np.mean(sups),
                          np.std(sups, ddof=1) / math.sqrt(len(sups))))
        for (m_small, se_small), (m_big, se_big) in zip(stats, stats[1:]):
            ratio = m_small / m_big
            # delta-method standard error of a ratio of independent means
            se = ratio * math.hypot(se_small / m_small, se_big / m_big)
            assert abs(ratio - 2.0) < 3.0 * se, (stats, ratio, se)


def test_zero_events_gives_initial_point():
    args = ((800, 100, 100, 1000), fig5_disease(), vg.VaRatePolicy(2.0, 1.0),
            vg.ResponseParams(1.5))
    traj = vg.simulate_jump_process(*args, seed=0, n_events=0, eta0=250.0)
    assert traj.events == 0 and not traj.extinct
    assert list(traj.t) == [0.0]
    assert list(traj.theta) == [0.1] and list(traj.psi) == [0.1]
    assert list(traj.eta) == [250.0]
    with pytest.raises(ValueError):
        vg.simulate_jump_process(*args, seed=0, n_events=-1)
    with pytest.raises(ValueError):
        vg.simulate_jump_process(*args, seed=0, n_events=10, record_every=0)


def test_trajectory_csv_roundtrip(tmp_path):
    dis = fig5_disease()
    nu, beta = vg.VaRatePolicy(2.0, 1.0), vg.ResponseParams(1.5)
    ode = vg.integrate_to_equilibrium(vg.OdeState(0.1, 0.1, 0.3), dis, nu,
                                      beta, horizon=5.0)
    jump = vg.simulate_jump_process((800, 100, 100, 1000), dis, nu, beta,
                                    seed=0, n_events=500)
    out = tmp_path / "traj.csv"
    vg.export_trajectory_csv(out, ode=ode, jump=jump)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,theta,psi,eta,source"
    sources = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert sources == {"ode", "jump"}


def test_event_rate_matches_component_sum():
    dis = fig5_disease()
    nu = vg.VaRatePolicy(1.5, 0.7)
    theta, psi = 0.2, 0.3
    phi = 0.5
    want = (dis.b + dis.d + dis.lam * theta * phi
            + (1.5 + 0.7 * psi) * phi + dis.r * theta)
    assert total_event_rate(theta, psi, dis, nu) == pytest.approx(want)
