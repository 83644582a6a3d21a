import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45

import vaxgame as vg
from vaxgame import epidemic
from vaxgame.epidemic import _field, _initial_step, _rms, total_event_rate

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
        # the convergence rule the end states agree to rounding. The
        # stepper is run through the path route matched_ode takes, which
        # makes no basin attempt: the basin certificate would stop most
        # of these runs before t = 2
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
                out = epidemic._integrate(init, dis, nu, beta, 2.0,
                                          basin=False)
                assert not out.converged and out.t[-1] == 2.0
                assert np.max(np.abs(out.states[-1] - ref.y)) < 1e-8

    def test_stiff_return_is_certified(self):
        # a seed-202 non-vaccinating draw whose stiff mode (eigenvalue
        # -59) keeps the rhs near 3e-8 at the attractor: a 100-step
        # rhs < 1e-8 window never closed and ran 7,197 steps to the horizon
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
        # a seed-202 co-occurring draw whose rhs stays below 1e-8 for 100
        # steps while the state is still 2.95e-8 from the attractor, so a
        # small rhs alone would stop the run past 1e-8
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
        # distance (about theta/2) stays far above 1e-8; the rhs is below 1e-8
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


def _reference_field(disease, nu, beta):
    """`_field` as written before the flat loop, with the builtin min."""
    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    inv_rho = 1.0 / disease.rho
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta

    def f(theta, psi, eta):
        phi = 1.0 - theta - psi
        supply = nu_b + nu_e * psi
        varrho = b + d + lam * theta * phi + supply * phi + r * theta
        scale = 1.0 / (eta * varrho)
        return (theta * lam * scale * (phi - inv_rho),
                scale * (phi * min(1.0, bt * psi) * supply - b * psi),
                (b - d) / varrho - eta,
                varrho)

    return f


def _reference_dopri_step(f, y, k, h):
    """One Dormand-Prince step over tuples, as the stepper was written
    before it became one flat loop."""
    E = epidemic
    y0, y1, y2 = y
    a0, a1, a2 = k
    b0, b1, b2, _ = f(y0 + E._A21 * a0 * h, y1 + E._A21 * a1 * h,
                      y2 + E._A21 * a2 * h)
    c0, c1, c2, _ = f(y0 + (E._A31 * a0 + E._A32 * b0) * h,
                      y1 + (E._A31 * a1 + E._A32 * b1) * h,
                      y2 + (E._A31 * a2 + E._A32 * b2) * h)
    d0, d1, d2, _ = f(y0 + (E._A41 * a0 + E._A42 * b0 + E._A43 * c0) * h,
                      y1 + (E._A41 * a1 + E._A42 * b1 + E._A43 * c1) * h,
                      y2 + (E._A41 * a2 + E._A42 * b2 + E._A43 * c2) * h)
    e0, e1, e2, _ = f(
        y0 + (E._A51 * a0 + E._A52 * b0 + E._A53 * c0 + E._A54 * d0) * h,
        y1 + (E._A51 * a1 + E._A52 * b1 + E._A53 * c1 + E._A54 * d1) * h,
        y2 + (E._A51 * a2 + E._A52 * b2 + E._A53 * c2 + E._A54 * d2) * h)
    g0, g1, g2, _ = f(
        y0 + (E._A61 * a0 + E._A62 * b0 + E._A63 * c0 + E._A64 * d0
              + E._A65 * e0) * h,
        y1 + (E._A61 * a1 + E._A62 * b1 + E._A63 * c1 + E._A64 * d1
              + E._A65 * e1) * h,
        y2 + (E._A61 * a2 + E._A62 * b2 + E._A63 * c2 + E._A64 * d2
              + E._A65 * e2) * h)
    n0 = y0 + h * (E._B1 * a0 + E._B3 * c0 + E._B4 * d0 + E._B5 * e0
                   + E._B6 * g0)
    n1 = y1 + h * (E._B1 * a1 + E._B3 * c1 + E._B4 * d1 + E._B5 * e1
                   + E._B6 * g1)
    n2 = y2 + h * (E._B1 * a2 + E._B3 * c2 + E._B4 * d2 + E._B5 * e2
                   + E._B6 * g2)
    l0, l1, l2, _ = f(n0, n1, n2)
    err = _rms(
        (E._E1 * a0 + E._E3 * c0 + E._E4 * d0 + E._E5 * e0 + E._E6 * g0
         + E._E7 * l0) * h / (E._ATOL + max(abs(y0), abs(n0)) * E._RTOL),
        (E._E1 * a1 + E._E3 * c1 + E._E4 * d1 + E._E5 * e1 + E._E6 * g1
         + E._E7 * l1) * h / (E._ATOL + max(abs(y1), abs(n1)) * E._RTOL),
        (E._E1 * a2 + E._E3 * c2 + E._E4 * d2 + E._E5 * e2 + E._E6 * g2
         + E._E7 * l2) * h / (E._ATOL + max(abs(y2), abs(n2)) * E._RTOL))
    return (n0, n1, n2), (l0, l1, l2), err


def _reference_accepted_step(f, t, y, k, h_abs, horizon):
    """Retried steps with scipy RK45's controller; None once the step
    falls below ten units in the last place of t."""
    E = epidemic
    min_step = 10 * (math.nextafter(t, math.inf) - t)
    if h_abs > E._MAX_STEP:
        h_abs = E._MAX_STEP
    elif h_abs < min_step:
        h_abs = min_step
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, horizon)
        h = t_new - t
        y_new, k_new, err = _reference_dopri_step(f, y, k, h)
        if err < 1.0:
            factor = (E._MAX_FACTOR if err == 0.0 else
                      min(E._MAX_FACTOR, E._SAFETY * err ** E._ERROR_EXPONENT))
            if rejected:
                factor = min(1.0, factor)
            return t_new, y_new, k_new, h * factor
        h_abs = h * max(E._MIN_FACTOR, E._SAFETY * err ** E._ERROR_EXPONENT)
        rejected = True
    return None


# The Jacobian certificate the library stopped at before the basin attempt
# became its one stop decision, kept as an independent oracle: a run under
# it ends once a fresh central-difference Jacobian with every eigenvalue in
# the open left half-plane puts the Newton distance below _TOL.
_TOL = 1e-8
_JAC_STEP = float(np.finfo(float).eps) ** (1 / 3)


def _stable_inverse(f, y):
    """Inverse of the central-difference Jacobian J of the drift at y, as
    three rows, or None unless every eigenvalue of J has a negative real
    part: the Routh-Hurwitz criterion on the characteristic polynomial
    l^3 + p2 l^2 + p1 l + p0 (all roots in the open left half-plane iff
    p2 > 0, p0 > 0 and p2 p1 > p0), and the adjugate over the determinant.
    """
    cols = []
    for j in range(3):
        up, down = list(y), list(y)
        up[j] += _JAC_STEP * max(1.0, abs(y[j]))
        down[j] -= _JAC_STEP * max(1.0, abs(y[j]))
        fu, fd, w = f(*up), f(*down), up[j] - down[j]
        cols.append(((fu[0] - fd[0]) / w, (fu[1] - fd[1]) / w,
                     (fu[2] - fd[2]) / w))
    (j11, j21, j31), (j12, j22, j32), (j13, j23, j33) = cols
    c11, c12, c13 = (j22 * j33 - j23 * j32, j23 * j31 - j21 * j33,
                     j21 * j32 - j22 * j31)
    det = j11 * c11 + j12 * c12 + j13 * c13
    p2 = -(j11 + j22 + j33)
    p1 = (j11 * j22 - j12 * j21) + (j11 * j33 - j13 * j31) + c11
    if not (p2 > 0.0 and -det > 0.0 and p2 * p1 > -det):
        return None
    return ((c11 / det, (j13 * j32 - j12 * j33) / det,
             (j12 * j23 - j13 * j22) / det),
            (c12 / det, (j11 * j33 - j13 * j31) / det,
             (j13 * j21 - j11 * j23) / det),
            (c13 / det, (j12 * j31 - j11 * j32) / det,
             (j11 * j22 - j12 * j21) / det))


def _newton_distance(inv, fy):
    """max |J^-1 f(y)| for inv = J^-1: near a hyperbolic stable equilibrium
    y* the Newton step estimates y - y*, however stiff the other modes."""
    return max(abs(row[0] * fy[0] + row[1] * fy[1] + row[2] * fy[2])
               for row in inv)


def _reference_integrate(init, disease, nu, beta, horizon):
    """The run under the Jacobian certificate, as three functions over
    tuples: it steps until a fresh stable Jacobian puts the Newton distance
    below _TOL (once the rhs is below 1e-6, with the last stable Jacobian
    screening each step). Returns t, states, converged and the message."""
    f = _reference_field(disease, nu, beta)
    t, y = 0.0, (float(init.theta), float(init.psi), float(init.eta))
    ts, ys = [t], [y]
    converged = False
    msg = f"horizon {horizon} exceeded"
    k = f(*y)[:3]
    h_abs = _initial_step(f, y, k, horizon) if horizon > 0.0 else 0.0
    inv = None
    while t < horizon:
        step = _reference_accepted_step(f, t, y, k, h_abs, horizon)
        if step is None:
            msg = f"step size collapsed at t = {t:.6g}"
            break
        t, y, k, h_abs = step
        ts.append(t)
        ys.append(y)
        if max(abs(k[0]), abs(k[1]), abs(k[2])) >= 1e-6:
            inv = None
            continue
        if inv is None or _newton_distance(inv, k) < _TOL:
            inv = _stable_inverse(f, y)
            dist = math.inf if inv is None else _newton_distance(inv, k)
            if dist < _TOL:
                converged = True
                msg = f"converged: Newton distance {dist:.3g} < {_TOL}"
                break
    return np.array(ts), np.array(ys), converged, msg


def _reference_path(init, disease, nu, beta, horizon):
    """The stepper alone, over tuples, to the horizon or a step size
    collapse: the path `matched_ode` takes. Returns t, states and the
    message."""
    f = _reference_field(disease, nu, beta)
    t, y = 0.0, (float(init.theta), float(init.psi), float(init.eta))
    ts, ys = [t], [y]
    msg = (f"horizon {horizon} exceeded without a certified or located "
           "stable equilibrium")
    k = f(*y)[:3]
    h_abs = _initial_step(f, y, k, horizon) if horizon > 0.0 else 0.0
    while t < horizon:
        step = _reference_accepted_step(f, t, y, k, h_abs, horizon)
        if step is None:
            msg = f"step size collapsed at t = {t:.6g}"
            break
        t, y, k, h_abs = step
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys), msg


@st.composite
def _perturbed_returns(draw):
    """A start 1e-2 off an active candidate of one stability row, drawn as
    c02 draws it."""
    row = draw(st.sampled_from(("non_vaccinating", "eradicating",
                                "co_occurring")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dis, nu, beta = _row_draw(rng, row)
    cand = getattr(vg.candidate_attractors(dis, nu, beta), row)
    vec = rng.normal(size=2)
    vec *= 1e-2 / np.linalg.norm(vec)
    theta0 = min(max(cand.theta + vec[0], 1e-4), 0.98)
    psi0 = min(max(cand.psi + vec[1], 1e-4), 0.98 - theta0)
    return vg.OdeState(theta0, psi0, cand.eta), dis, nu, beta


@st.composite
def _kink_returns(draw):
    """An eradicating return on the kink beta psi* = 1: the fig-5 disease,
    nu = (8, 3) and beta psi_e - 1 = +-10^U with U in [-13, -2], from a
    start 1e-2 off (0, psi_e) drawn as c02 draws it."""
    dis, nu = fig5_disease(), vg.VaRatePolicy(8.0, 3.0)
    psi_e = vg.psi_eradicating(nu, dis.b)
    gap = (draw(st.sampled_from((-1.0, 1.0)))
           * 10.0 ** draw(st.floats(-13.0, -2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.normal(size=2)
    vec *= 1e-2 / np.linalg.norm(vec)
    theta0 = min(max(vec[0], 1e-4), 0.98)
    psi0 = min(max(psi_e + vec[1], 1e-4), 0.98 - theta0)
    eta = (dis.b - dis.d) / total_event_rate(0.0, psi_e, dis, nu)
    return (vg.OdeState(theta0, psi0, eta), dis, nu,
            vg.ResponseParams((1.0 + gap) / psi_e))


def _tiny_eta_start(eta):
    return (vg.OdeState(0.1, 0.1, eta), fig5_disease(),
            vg.VaRatePolicy(1.0, 1.0), vg.ResponseParams(2.0))


@settings(max_examples=100, deadline=None)
@given(case=_perturbed_returns(), horizon=st.sampled_from((0.0, 2.0, 400.0)))
@example(case=_tiny_eta_start(1e-300), horizon=400.0)
@example(case=_tiny_eta_start(5e-324), horizon=400.0)
# far below the attractor's eta a step fails the error test by more than
# (0.9/0.2)^5, so the retry takes the 0.2 floor of the step factor
@example(case=_tiny_eta_start(1e-3), horizon=400.0)
def test_flat_loop_equals_three_function_reference(case, horizon):
    # the path route (no basin attempt, no stop rule) equals the reference
    # stepper to the bit, up to the horizon; the public run follows the
    # same path until a basin attempt stops it, and on these returns only
    # the certificate does, never the located stop
    init, dis, nu, beta = case
    path = epidemic._integrate(init, dis, nu, beta, horizon, basin=False)
    t, states, msg = _reference_path(init, dis, nu, beta, horizon)
    assert np.array_equal(path.t, t)
    assert np.array_equal(path.states, states)
    assert (path.converged, path.message) == (False, msg)
    assert (path.limit.theta, path.limit.psi, path.limit.eta) == (
        max(states[-1][0], 0.0), max(states[-1][1], 0.0), states[-1][2])
    got = vg.integrate_to_equilibrium(init, dis, nu, beta, horizon=horizon)
    n = len(got.t)
    assert np.array_equal(got.t, t[:n])
    assert np.array_equal(got.states, states[:n])
    if got.converged:
        assert "basin certificate" in got.message and horizon > 0.0
    else:
        assert n == len(t)
        assert got.message == msg and got.limit == path.limit


@settings(max_examples=100, deadline=None)
@given(case=_perturbed_returns(), horizon=st.sampled_from((2.0, 400.0)))
@example(case=_tiny_eta_start(1e-300), horizon=400.0)
@example(case=_tiny_eta_start(5e-324), horizon=400.0)
@example(case=_tiny_eta_start(1e-3), horizon=400.0)
def test_stop_is_on_a_prefix_of_the_old_rule(case, horizon):
    # the Jacobian rule, which steps until the flow itself brings the
    # Newton distance below 1e-8, is _reference_integrate; the basin
    # attempt may only stop it earlier, and lands on the equilibrium itself
    init, dis, nu, beta = case
    got = vg.integrate_to_equilibrium(init, dis, nu, beta, horizon=horizon)
    t, states, converged, _ = _reference_integrate(init, dis, nu, beta,
                                                   horizon)
    n = len(got.t)
    assert n <= len(t)
    assert np.array_equal(got.t, t[:n])
    assert np.array_equal(got.states, states[:n])
    assert got.converged or not converged
    if got.converged:
        lim = got.limit.as_array()
        assert min(np.max(np.abs(lim - cand.state().as_array()))
                   for cand in vg.candidate_attractors(
                       dis, nu, beta).active().values()) < 1e-10


@settings(max_examples=100, deadline=None)
@given(case=_kink_returns())
def test_kink_returns_converge_where_the_old_rule_does(case):
    # no ellipsoid clears the kink of min(1, beta psi), so many of these
    # returns end at the located stop. Every one converges, and the
    # Jacobian rule run from the same start lands within 2e-8 of the limit
    # (it stops at a Newton distance below 1e-8); above the kink the limit
    # is the closed-form eradicating point
    init, dis, nu, beta = case
    got = vg.integrate_to_equilibrium(init, dis, nu, beta)
    assert got.converged
    _, states, converged, _ = _reference_integrate(init, dis, nu, beta,
                                                   600.0)
    assert converged
    lim = got.limit.as_array()
    assert np.max(np.abs(states[-1] - lim)) < 2e-8
    psi_e = vg.psi_eradicating(nu, dis.b)
    if beta.beta * psi_e > 1.0:
        assert np.max(np.abs(lim - (0.0, psi_e, init.eta))) < 1e-10


def test_tiny_eta_start_is_certified():
    # h0 = 0.01 d0 / d1 underflows to 0 here; the first step is then the
    # minimum step, and the run still reaches the basin certificate after
    # 120 steps (the Jacobian rule of _reference_integrate takes 1732)
    res = vg.integrate_to_equilibrium(*_tiny_eta_start(1e-300))
    assert res.converged and "basin certificate" in res.message
    assert len(res.t) - 1 == 120


def test_vanishing_eta_start_reports_step_collapse():
    # at eta = 5e-324 even the minimum step fails the error test
    res = vg.integrate_to_equilibrium(*_tiny_eta_start(5e-324))
    assert not res.converged
    assert res.message == "step size collapsed at t = 0"
    assert list(res.t) == [0.0]


def test_counts_match_a_counting_spy(monkeypatch):
    # one c02 attractor return: every drift evaluation goes through the
    # spied f. The basin certificate ends the public run; the path route,
    # which has no stop rule, runs on to the horizon
    evals = [0]
    field = epidemic._field

    def counting(field):
        def counting_field(*params):
            f = field(*params)

            def spy(*y):
                evals[0] += 1
                return f(*y)

            return spy

        return counting_field

    rng = np.random.default_rng(202)
    dis, nu, beta = _row_draw(rng, "eradicating")
    cand = vg.candidate_attractors(dis, nu, beta).eradicating
    start = vg.OdeState(cand.theta + 6e-3, cand.psi - 8e-3, cand.eta)
    monkeypatch.setattr(epidemic, "_field", counting(field))
    res = vg.integrate_to_equilibrium(start, dis, nu, beta, horizon=400.0)
    assert res.converged and "basin certificate" in res.message
    assert res.rhs_evals == evals[0]
    # two to start, six per step tried and one for the limit's eta; a
    # basin attempt evaluates no drift, only the planar polynomial
    assert res.rhs_evals % 6 == 3
    assert res.rhs_evals >= 3 + 6 * (len(res.t) - 1)
    basin_evals = res.rhs_evals
    evals[0] = 0
    res = epidemic._integrate(start, dis, nu, beta, 400.0, basin=False)
    assert not res.converged and res.t[-1] == 400.0
    assert basin_evals < res.rhs_evals == evals[0]
    assert res.rhs_evals % 6 == 2
    assert res.rhs_evals >= 2 + 6 * (len(res.t) - 1)
    # a zero horizon evaluates the drift at the start only
    evals[0] = 0
    res = vg.integrate_to_equilibrium(start, dis, nu, beta, horizon=0.0)
    assert res.rhs_evals == evals[0] == 1
    # the Jacobian rule, which steps on until the flow brings the Newton
    # distance below 1e-8, spends more on the same return
    evals[0] = 0
    monkeypatch.setattr(sys.modules[__name__], "_reference_field",
                        counting(_reference_field))
    _, _, converged, _ = _reference_integrate(start, dis, nu, beta, 400.0)
    assert converged and basin_evals < evals[0]


def test_located_stop_refuses_a_far_newton_point(monkeypatch):
    # non-vaccinating and eradicating points are both stable here. The
    # located stop takes a state within 1e-6 of a Newton point with a
    # stable planar Jacobian, and none farther: a run near the
    # non-vaccinating point whose every attempt locates the eradicating
    # one is never stopped, and follows the path route to the horizon
    dis = fig5_disease()
    nu, beta = vg.VaRatePolicy(1.0, 20.0), vg.ResponseParams(2.0)
    att = vg.candidate_attractors(dis, nu, beta)
    assert list(att.active()) == ["non_vaccinating", "eradicating"]
    nv, er = att.non_vaccinating, att.eradicating
    centre = (er.theta, er.psi)
    basin = epidemic._basin
    _, _, located = basin(dis, nu, beta)
    assert located(centre, (er.theta + 9e-7, er.psi - 9e-7))
    assert not located(centre, (er.theta + 2e-6, er.psi))
    assert not located(centre, (er.theta, er.psi - 2e-6))
    assert not located(centre, (nv.theta, nv.psi))

    def locating_elsewhere(*params):
        _, certify, located = basin(*params)
        return (lambda theta, psi: centre), certify, located

    monkeypatch.setattr(epidemic, "_basin", locating_elsewhere)
    start = vg.OdeState(nv.theta - 0.01, 0.005, nv.eta)
    res = vg.integrate_to_equilibrium(start, dis, nu, beta)
    path = epidemic._integrate(start, dis, nu, beta, 600.0, basin=False)
    assert not res.converged and "horizon 600.0 exceeded" in res.message
    assert np.array_equal(res.t, path.t)
    assert np.array_equal(res.states, path.states)
    assert np.max(np.abs(res.states[-1][:2] - (nv.theta, nv.psi))) < 1e-8


def test_located_stop_needs_a_stable_point_and_a_small_drift():
    dis, nu = fig5_disease(), vg.VaRatePolicy(8.0, 3.0)
    # vaccination invades the non-vaccinating point here, a saddle of the
    # planar field (det Dg < 0). 1e-7 off it the drift is tiny and Newton
    # lands on it, but the run must leave it for the eradicating point
    beta = vg.ResponseParams(2.0)
    att = vg.candidate_attractors(dis, nu, beta)
    assert list(att.active()) == ["eradicating"]
    nv, er = att.non_vaccinating, att.eradicating
    res = vg.integrate_to_equilibrium(vg.OdeState(nv.theta, 1e-7, nv.eta),
                                      dis, nu, beta)
    assert res.converged
    assert np.max(np.abs(res.limit.as_array()
                         - er.state().as_array())) < 1e-10
    # on the kink, 5e-7 off the eradicating point with a small eta, the
    # drift is still 1.9e-5: the located stop waits until it is below 1e-6
    psi_e = vg.psi_eradicating(nu, dis.b)
    beta = vg.ResponseParams((1.0 + 1e-9) / psi_e)
    start = vg.OdeState(5e-7, psi_e - 5e-7, 1e-2)
    assert max(np.abs(vg.ode_rhs(start, dis, nu, beta)[:2])) > 1e-5
    res = vg.integrate_to_equilibrium(start, dis, nu, beta)
    assert res.converged and "located" in res.message and len(res.t) > 1
    assert max(np.abs(vg.ode_rhs(vg.OdeState(*res.states[-1]), dis, nu,
                                 beta)[:2])) < 1e-6
    assert np.max(np.abs(res.limit.as_array()[:2] - (0.0, psi_e))) < 1e-10


@settings(max_examples=100, deadline=None)
@given(case=_perturbed_returns())
@example(case=_tiny_eta_start(1e-300))
@example(case=_tiny_eta_start(1e-3))
def test_basin_stop_is_where_the_old_rule_converges(case):
    # from the state a basin certificate starts at, the Jacobian rule
    # converges to the certified limit within twice 1e-8, since it stops
    # once its Newton distance (the first-order estimate of |y - y*|) is
    # below 1e-8
    init, dis, nu, beta = case
    got = vg.integrate_to_equilibrium(init, dis, nu, beta, horizon=400.0)
    if "basin certificate" not in got.message:
        return
    assert got.converged
    start = vg.OdeState(*got.states[-1])
    _, states, converged, _ = _reference_integrate(start, dis, nu, beta,
                                                   400.0)
    assert converged
    assert np.max(np.abs(states[-1] - got.limit.as_array())) < 2 * _TOL


def test_basin_refuses_an_ellipsoid_reaching_the_other_attractor():
    # both the non-vaccinating and the eradicating point are stable here;
    # an ellipsoid around one through the other would hold two equilibria
    dis = fig5_disease()
    nu, beta = vg.VaRatePolicy(1.0, 20.0), vg.ResponseParams(2.0)
    att = vg.candidate_attractors(dis, nu, beta)
    assert list(att.active()) == ["non_vaccinating", "eradicating"]
    nv, er = (att.non_vaccinating.theta, att.non_vaccinating.psi), (
        att.eradicating.theta, att.eradicating.psi)
    _, certify, _ = epidemic._basin(dis, nu, beta)
    assert not certify(nv, er)
    assert not certify(er, nv)
    # near either point the certificate holds
    assert certify(nv, (nv[0] - 3e-3, 1.5e-3))
    assert certify(er, (3e-3, er[1] - 3e-3))


def test_basin_refuses_a_box_straddling_the_kink():
    # beta psi* = 1 + 1e-6: min(1, beta psi) has its kink 8.4e-7 below
    # psi*, where the psi-row of Dg jumps by phi beta s. A box reaching
    # past the kink is refused; the same offsets at beta psi* = 2 are not
    dis, nu = fig5_disease(), vg.VaRatePolicy(8.0, 3.0)
    psi_e = vg.psi_eradicating(nu, dis.b)
    offsets = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8)
    # a point 1e-6 or more below psi* puts the box past the kink; at 1e-8
    # the box stays above it. Away from the kink only the ellipsoid
    # through the farthest point is too large
    for scale, want in ((2.0, [False] + [True] * 5),
                        (1.0 + 1e-6, [False] * 5 + [True])):
        beta = vg.ResponseParams(scale / psi_e)
        er = vg.candidate_attractors(dis, nu, beta).eradicating
        assert er.active
        _, certify, _ = epidemic._basin(dis, nu, beta)
        assert [certify((er.theta, er.psi), (off, er.psi - off))
                for off in offsets] == want
    # and the run still reaches the eradicating point, at the located
    # stop, where the Jacobian rule converges too
    start = vg.OdeState(0.01, er.psi - 0.01, er.eta)
    res = vg.integrate_to_equilibrium(start, dis, nu, beta)
    _, states, converged, _ = _reference_integrate(start, dis, nu, beta,
                                                   600.0)
    assert converged and res.converged and "located" in res.message
    assert np.max(np.abs(res.limit.as_array()
                         - er.state().as_array())) < 1e-10
    assert np.max(np.abs(res.limit.as_array() - states[-1])) < 2 * _TOL


def test_basin_refuses_the_non_hyperbolic_point():
    # rho = 1 without vaccination: Dg at the origin is singular, and near
    # it Newton only halves theta; no ellipsoid is certified
    dis = vg.DiseaseParams(lam=4.0, r=2.0, b=2.0, d=0.5)
    locate, certify, _ = epidemic._basin(dis, vg.VaRatePolicy(0.0, 0.0),
                                            vg.ResponseParams(0.0))
    point = (5e-5, 0.0)
    assert not certify((0.0, 0.0), point)
    assert not certify(locate(*point), point)


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
        # a count that is not an integer value is rejected, not truncated
        for counts in ((2.5, 0, 0, 2.5), (math.inf, 0, 0, math.inf)):
            with pytest.raises(ValueError, match="integer"):
                vg.simulate_jump_process(counts, dis, nu, beta, seed=0,
                                         n_events=10)

    def test_memory_does_not_grow_with_n_events(self):
        # the working set is one 16,384-uniform chunk (the spent one is
        # released before the next is drawn; about 0.73 MB traced) and a
        # block's clock; nothing may be sized by n_events
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
            assert peak < 1.0e6, (events, peak)

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

        # reference: the ODE's path route, started by hand at the chain's
        # clock index (the public run could stop at a basin attempt before
        # the chain's last time)
        k0 = max(int(round(n0 / er.eta)) - 1, 0)
        init = vg.OdeState(i0 / n0, v0 / n0, n0 / (1 + k0))
        ref = epidemic._integrate(init, dis, nu, beta,
                                  float(traj.t[-1]) + 1e-9, basin=False)
        th = np.interp(traj.t, ref.t, ref.states[:, 0])
        ps = np.interp(traj.t, ref.t, ref.states[:, 1])
        ref_sup = max(np.max(np.abs(th - traj.theta)),
                      np.max(np.abs(ps - traj.psi)))
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.states, ref.states)
        assert sup == ref_sup

    def test_matched_ode_keeps_the_path_to_the_horizon(self):
        # a chain started next to the eradicating attractor: the basin
        # certificate closes the public run at its start, while matched_ode
        # follows the ODE to the chain's last time
        dis = fig5_disease()
        nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
        er = vg.candidate_attractors(dis, nu, beta).eradicating
        n0 = 20_000
        v0, i0 = int(round(er.psi * n0)), 20
        traj = vg.simulate_jump_process((n0 - v0 - i0, v0, i0, n0), dis, nu,
                                        beta, seed=1, n_events=20_000,
                                        eta0=er.eta, record_every=100)
        sol, _ = vg.matched_ode(traj, dis, nu, beta)
        horizon = float(traj.t[-1]) + 1e-9
        assert sol.t[-1] == horizon and not sol.converged
        start = vg.OdeState(traj.theta[0], traj.psi[0], traj.eta[0])
        res = vg.integrate_to_equilibrium(start, dis, nu, beta,
                                          horizon=horizon)
        assert list(res.t) == [0.0] and "basin certificate" in res.message

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
