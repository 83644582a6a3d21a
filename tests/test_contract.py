"""Input contract of the exported input dataclasses: a bad field fails when
the object is built, with an InvalidInput (a ValueError) whose message names
the field."""
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame import cli, ess, game, leader
from vaxgame.params import (MAX_DAYS, MAX_DRAWS, MAX_INFLUENCERS, MAX_RATE,
                            SCALE_MAX, require_finite)

NAN, INF = math.nan, math.inf
# the bad values each kind of field must refuse; bool is refused everywhere
# a number is asked for, so a flag cannot pass for a rate or a count
REAL = (NAN, INF, -INF, True)
NONNEG = REAL + (-1,)
FRACTION = NONNEG + (2.5,)
INTEGER = (NAN, INF, -INF, 2.5, True, -1)
# just past a budget or a scale, never an allocation of that size
COST = REAL + (2 * SCALE_MAX, -2 * SCALE_MAX)
RATE = NONNEG + (2 * MAX_RATE,)

_GAME = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0,
             xi=vg.XiModel(5.0, 2.0), z_bar=2)
_COSTS = dict(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5)


def _leader(**kw):
    base = dict(delta=0.05, cfg=vg.InfluencerGameConfig(**_GAME),
                sampler=vg.ExpectationSampler(n_samples=10))
    return vg.LeaderProblem(**dict(base, **kw))


def _game_law(**law):
    # the game built around an XiModel of these law fields, so that the law
    # the game carries is held to the XiModel contract, for each shape of law
    return vg.InfluencerGameConfig(**dict(_GAME, xi=vg.XiModel(**law)))


_NORMAL = dict(mean_param=5.0, sigma2=2.0)
_DISCRETE = dict(mean_param=0.0, values=(1.0, 3.0), probs=(0.5, 0.5))

# (constructor, valid keywords, field, bad values); a tuple-valued field
# gets each bad value as its last entry, and for cfg and sampler every
# number is of the wrong type; xi, the game's law, is one XiModel, whose
# own fields have rows of their own, bare and inside the game
_TABLE = [
    *[(vg.DiseaseParams, dict(lam=15.0, r=2.0, b=2.0, d=0.5), name,
       RATE + (0.0, 0.9 / MAX_RATE)) for name in ("lam", "r", "b")],
    (vg.DiseaseParams, dict(lam=15.0, r=2.0, b=2.0, d=0.5), "d",
     RATE + (2.5,)),
    *[(vg.VaRatePolicy, dict(nu_b=1.0, nu_e=1.0), name, RATE)
      for name in ("nu_b", "nu_e")],
    (vg.ResponseParams, dict(beta=2.0), "beta", COST + (-1,)),
    *[(vg.PublicCostModel, dict(_COSTS, s=0.2), name, COST + (-1,))
      for name in ("c_v1", "c_v2", "c_v2_bar", "c_i", "s")],
    (vg.PublicCostModel, dict(_COSTS, c_f_table=(0.0, 1.0, 2.0)),
     "c_f_table", NONNEG),
    *[(vg.OdeState, dict(theta=0.1, psi=0.2, eta=0.3), name, FRACTION)
      for name in ("theta", "psi")],
    (vg.OdeState, dict(theta=0.1, psi=0.2, eta=0.3), "eta", NONNEG),
    (vg.XiModel, _NORMAL, "mean_param", COST),
    (vg.XiModel, _NORMAL, "sigma2", COST + (-1,)),
    (vg.XiModel, _NORMAL, "p0", FRACTION),
    # a discrete law lists an atom at zero as a support point
    (vg.XiModel, _DISCRETE, "p0", FRACTION + (0.5,)),
    (vg.XiModel, _DISCRETE, "values", NONNEG),
    (vg.XiModel, _DISCRETE, "probs", FRACTION),
    *[(_game_law, _NORMAL, name, bads) for name, bads in
      (("mean_param", REAL), ("sigma2", NONNEG), ("p0", FRACTION))],
    *[(_game_law, _DISCRETE, name, bads) for name, bads in
      (("values", NONNEG), ("probs", FRACTION))],
    (vg.InfluencerGameConfig, _GAME, "m", INTEGER + (MAX_INFLUENCERS + 1,)),
    (vg.InfluencerGameConfig, _GAME, "t_horizon", INTEGER + (MAX_DAYS + 1,)),
    (vg.InfluencerGameConfig, _GAME, "z_bar", INTEGER),
    *[(vg.InfluencerGameConfig, _GAME, name, COST)
      for name in ("c_v", "g0")],
    *[(vg.InfluencerGameConfig, _GAME, name, COST + (-1,))
      for name in ("c_i", "c_se_1")],
    (vg.InfluencerGameConfig, _GAME, "xi",
     (5.0, True, None, vg.XiModel(-1.0))),
    (vg.InfluencerGameConfig, dict(_GAME, incentives=(1.0, 2.0)),
     "incentives", REAL),
    (vg.ExpectationSampler, dict(n_samples=10), "n_samples",
     INTEGER + (MAX_DRAWS + 1,)),
    (vg.ExpectationSampler, dict(n_samples=10), "seed", INTEGER),
    (_leader, {}, "delta", FRACTION),
    *[(_leader, {}, name, INTEGER) for name in ("cfg", "sampler")],
]
CASES = [(make, base, name, bad) for make, base, name, bads in _TABLE
         for bad in bads]


@pytest.mark.parametrize("make, base, name, bads", _TABLE,
                         ids=["xi_" * (make is _game_law) + name
                              for make, _, name, _ in _TABLE])
def test_table_starts_from_valid_objects(make, base, name, bads):
    make(**base)


@settings(max_examples=4 * len(CASES), deadline=None)
@given(case=st.sampled_from(CASES))
def test_bad_field_is_refused_by_name(case):
    make, base, name, bad = case
    value = base.get(name)
    if isinstance(value, tuple):
        bad = value[:-1] + (bad,)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        make(**dict(base, **{name: bad}))


def test_every_public_field_has_a_row():
    # a field that is added to or renamed in a constructor cannot skip the
    # contract; _leader builds a LeaderProblem, _game_law an XiModel's fields
    cls_of = {_leader: vg.LeaderProblem, _game_law: vg.XiModel}
    rows = {(cls_of.get(make, make), name) for make, _, name, _ in _TABLE}
    fields = {(cls, f.name) for cls in {cls for cls, _ in rows}
              for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    assert rows == fields


def test_objects_take_their_budgets_and_scales():
    # the largest sizes and magnitudes are still taken; nothing is drawn
    vg.InfluencerGameConfig(**dict(_GAME, m=MAX_INFLUENCERS,
                                   t_horizon=MAX_DAYS,
                                   xi=vg.XiModel(SCALE_MAX, SCALE_MAX)))
    vg.ExpectationSampler(n_samples=MAX_DRAWS)
    vg.DiseaseParams(lam=MAX_RATE, r=1 / MAX_RATE, b=1 / MAX_RATE)
    vg.VaRatePolicy(MAX_RATE, MAX_RATE)
    vg.PublicCostModel(**dict(_COSTS, c_i=SCALE_MAX), s=SCALE_MAX)


_DIS = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
_NU = vg.VaRatePolicy(5.0, 0.7)
_PUBLIC = vg.PublicCostModel(**_COSTS, s=0.2)
_GAME_CFG = vg.InfluencerGameConfig(**_GAME)
_START = dict(disease=_DIS, nu=_NU, beta=vg.ResponseParams(2.0), seed=0,
              n_events=10)
# the fig game at z_bar 20, whose wait-and-watch strategy answers any state
# of it, and a small finite game whose stage sets read a value function
_FIG_CFG = vg.InfluencerGameConfig(**dict(_GAME, z_bar=20, g0=1.0))
_WAIT = vg.SpecialStrategy(_FIG_CFG)
_SMALL_CFG = vg.InfluencerGameConfig(m=3, t_horizon=4, c_v=1.0, c_i=5.0,
                                     c_se_1=2.0, xi=vg.XiModel(2.0), z_bar=2)
_POINT = _leader(cfg=vg.InfluencerGameConfig(**dict(_GAME,
                                                    xi=vg.XiModel(5.0))))


# refusals the command line names by their flag, so each message starts
# with the field or argument at fault; a size just past its budget is
# refused before any array of that size is built
_REFUSALS = [
    (lambda: vg.DiseaseParams(0.0, 2.0, 2.0), "lam"),
    (lambda: vg.DiseaseParams(15.0, 2.0, 2.0, 3.0), "d"),
    (lambda: vg.classify_esss(0, _NU, _PUBLIC, _DIS, 0), "m"),
    (lambda: vg.classify_esss(0, _NU, _PUBLIC, vg.DiseaseParams(1.0, 2.0, 2.0),
                              MAX_INFLUENCERS + 1), "m"),
    (lambda: vg.classify_esss(5, _NU, _PUBLIC, _DIS, 4), "z"),
    # below rho = 1 no gap is evaluated, so only the count check refuses
    (lambda: vg.classify_esss(-1, _NU, _PUBLIC,
                              vg.DiseaseParams(1.0, 2.0, 2.0), 4), "z"),
    (lambda: ess.eradication_threshold(_NU, _PUBLIC, _DIS, -1), "m"),
    # m = 0 is refused by its range, before the influence check
    (lambda: ess.eradication_threshold(_NU, _PUBLIC, _DIS, 0), "m"),
    (lambda: leader.vaccine_optimal_k(_PUBLIC, vg.DiseaseParams(1.0, 2.0, 2.0),
                                      40), "disease"),
    (lambda: game.final_gamma_draws(_GAME_CFG, None, MAX_DRAWS + 1), "size"),
    (lambda: vg.sample_z_t(1.0, _GAME_CFG, seed=0, size=0), "size"),
    (lambda: vg.sample_z_t(1.0, _GAME_CFG, seed=-1), "seed"),
    (lambda: vg.sample_cost_path(_GAME_CFG, seed=-1), "seed"),
    (lambda: vg.simulate_jump_process((0, 0, 2 ** 53, 2 ** 53), **dict(
        _START, n_events=0)), "initial_counts"),
    (lambda: vg.simulate_jump_process((900, 0, 100, 1000), **dict(
        _START, n_events=2 ** 53)), "n_events"),
    # 1000 / 1e-308 is inf, refused before int() would overflow on it
    (lambda: vg.simulate_jump_process((900, 0, 100, 1000), **_START,
                                      eta0=1e-308), "eta0"),
    (lambda: vg.simulate_jump_process((900, 0, 100, 1000), **dict(
        _START, seed=-1)), "seed"),
    # g_0 is the first entry of incentives, so a g0 beside them is refused
    (lambda: vg.InfluencerGameConfig(**dict(_GAME, g0=1.0,
                                            incentives=(0.0, 0.5))), "g0"),
    (lambda: vg.InfluencerGameConfig(**dict(_GAME, incentives=(1.0,))),
     "incentives"),
    # a finite law is its support alone, with no normal part to scale
    (lambda: vg.XiModel(5.0, 2.0, values=(1.0,), probs=(1.0,)), "sigma2"),
    (lambda: ess.eradication_threshold(vg.VaRatePolicy(5.0, 0.0), _PUBLIC,
                                       _DIS, 40), "nu"),
    (lambda: ess.eradication_threshold(_NU, _PUBLIC,
                                       vg.DiseaseParams(1.0, 2.0, 2.0), 40),
     "disease"),
    (lambda: vg.PublicCostModel(**_COSTS, c_f_table=5), "c_f_table"),
    # a dip that a comparison two entries apart would miss
    (lambda: vg.PublicCostModel(**_COSTS, c_f_table=(0.0, 2.0, 1.0, 3.0)),
     "c_f_table"),
    (lambda: vg.DiseaseParams(1.0, 2.0, 2.0).theta_star, "theta_star"),
    # the CLI's --var takes only SWEEP_VARS; a library caller can pass any
    (lambda: cli.ScenarioConfig("m", (1.0,), _DIS, _NU, _PUBLIC, _GAME_CFG,
                                0.05, Path("out")), "sweep_var"),
    # a theta_star or s point is solved at its design's k*, where
    # incentives listed for the game's own z_bar do not apply
    *[(lambda var=var, v=v: cli.ScenarioConfig(
        var, (v,), _DIS, _NU, _PUBLIC,
        dataclasses.replace(_GAME_CFG, incentives=(0.0, 1.0)), 0.05,
        Path("out")), "game_cfg") for var, v in (("s", 0.1),
                                                 ("theta_star", 0.5))],
    # a strategy answers only states of its game: values at epochs 1..T,
    # decisions and stage sets at 1..T-1, counts 0..m, finite estimates
    (lambda: _WAIT.value(0, 0, 3.0), "t"),
    (lambda: _WAIT.value(-5, 0, 3.0), "t"),
    (lambda: _WAIT.value(2.5, 0, 3.0), "t"),
    (lambda: _WAIT.value(19, 41, 3.0), "z"),
    (lambda: _WAIT.value(19, 0, INF), "c"),
    (lambda: _WAIT.decision(20, 0, 3.0), "t"),
    (lambda: _WAIT.decision(19, -1, 3.0), "z"),
    (lambda: _WAIT.decision(19, 0, NAN), "c"),
    (lambda: _WAIT.action_set(19, 0, INF), "c"),
    (lambda: vg.stage_action_set(2, -1, 2.0, lambda z, c: 0.0, _SMALL_CFG),
     "z"),
    (lambda: vg.stage_action_set(4, 0, 2.0, lambda z, c: 0.0, _SMALL_CFG),
     "t"),
    (lambda: vg.stage_action_set(3, 0, NAN, lambda z, c: 0.0, _SMALL_CFG),
     "c"),
    (lambda: vg.gamma(2.5, 3.0, _FIG_CFG), "t"),
    (lambda: vg.gamma(2, NAN, _FIG_CFG), "c"),
    (lambda: vg.ne_outcome_probability(NAN, 3.0, _FIG_CFG), "g"),
    (lambda: vg.ne_outcome_probability(1.0, NAN, _FIG_CFG), "c"),
    (lambda: vg.sample_z_t(NAN, _FIG_CFG, 0, 5), "g"),
    # the leader's evaluators, on a Monte Carlo and on a point law
    *[(lambda g=g: vg.non_eradication_probability(g, 2, _leader()), "g")
      for g in (NAN, -INF)],
    *[(lambda g=g: vg.non_eradication_probability(g, 2, _POINT), "g")
      for g in (NAN, -INF)],
    *[(lambda g=g: vg.expected_incentive_cost(g, _leader()), "g")
      for g in (NAN, -INF)],
    # refusals that read after their field, where they once stood alone
    (lambda: vg.PublicCostModel(**_COSTS, s=0.2, c_f_table=(0.0, 1.0)), "s"),
    (lambda: vg.PublicCostModel(**_COSTS, c_f_table=(0.0, 1.0)).c_f(2), "z"),
    (lambda: vg.psi_co_occurring(vg.VaRatePolicy(1.0, 20.0), _DIS), "nu"),
    (lambda: vg.simulate_jump_process((2.5, 0, 0, 2.5), **_START),
     "initial_counts"),
    (lambda: vg.simulate_jump_process((900, 0, 100, 999), **_START),
     "initial_counts"),
    (lambda: vg.non_eradication_probability(1.0, 2, _POINT, with_slope=True),
     "with_slope"),
    (lambda: cli.reproduce_figure(9, Path("out"),
                                  vg.ExpectationSampler(n_samples=10)),
     "fig_id"),
    # a string or a bool where a number is asked for, refused by name
    # before any comparison: not a bare TypeError, nor taken as 1
    (lambda: _leader(delta="a"), "delta"),
    (lambda: leader.p_star(2, 40, "a"), "delta"),
    (lambda: cli.ScenarioConfig("delta", (0.05,), _DIS, _NU, _PUBLIC,
                                _GAME_CFG, "a", Path("out")), "delta"),
    *[(lambda eps=eps: leader.construct_eps_vaccine_optimal_nu(
        5, eps, _PUBLIC, _DIS, 40), "eps") for eps in (True, "a")],
    (lambda: vg.integrate_to_equilibrium(
        vg.OdeState(0.1, 0.2, 0.3), _DIS, _NU, vg.ResponseParams(2.0),
        horizon=True), "horizon"),
    *[(lambda counts=counts: vg.simulate_jump_process(counts, **_START),
       "initial_counts") for counts in (("5", "0", "0", "5"),
                                        (True, False, False, True))],
    *[(lambda p=p: vg.binom_cdf(3, 1, p), "p") for p in (True, "a")],
]
_REFUSAL_IDS = [
    "lam", "d", "ess_m", "ess_m_budget", "ess_z", "ess_z_subcritical",
    "threshold_m", "threshold_m_zero", "design_rho", "draw_size", "z_t_size",
    "z_t_seed", "path_seed", "chain_n0", "chain_events", "chain_eta0",
    "chain_seed", "game_g0", "game_incentives", "xi_finite_sigma2",
    "threshold_nu", "threshold_rho", "cf_table_scalar", "cf_table_dip",
    "theta_star_rho", "sweep_var", "s_sweep_incentives",
    "theta_star_sweep_incentives", "value_t_zero", "value_t_negative",
    "value_t_fraction", "value_z_past_m", "value_c_inf", "decision_t_horizon",
    "decision_z_negative", "decision_c_nan", "action_set_c_inf",
    "stage_set_z_negative", "stage_set_t_horizon", "stage_set_c_nan", "gamma_t_fraction",
    "gamma_c_nan", "ne_outcome_g_nan", "ne_outcome_c_nan", "z_t_g_nan",
    "np_g_nan", "np_g_minus_inf", "np_point_g_nan", "np_point_g_minus_inf",
    "outlay_g_nan", "outlay_g_minus_inf", "costs_s_and_table",
    "c_f_past_table", "psi_co_occurring_nu_e", "chain_fraction",
    "chain_sum", "np_point_slope", "figure_id", "leader_delta_str",
    "p_star_delta_str", "sweep_delta_str", "eps_bool", "eps_str",
    "horizon_bool", "chain_str", "chain_bool", "binom_p_bool",
    "binom_p_str"]


@pytest.mark.parametrize("call, field", _REFUSALS, ids=_REFUSAL_IDS)
def test_refusal_starts_with_its_field(call, field):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(field + " "), str(info.value)


@pytest.mark.parametrize("call, field", _REFUSALS, ids=_REFUSAL_IDS)
def test_refusal_carries_its_field(call, field):
    # the command line reads the field off the exception, not its message
    with pytest.raises(vg.InvalidInput) as info:
        call()
    assert info.value.field == field


@pytest.mark.parametrize("make", [
    _leader, lambda: vg.ExpectationSampler(n_samples=10),
    lambda: cli.ScenarioConfig("delta", (0.05,), _DIS, _NU, _PUBLIC,
                               _GAME_CFG, 0.05, Path("out"))],
    ids=["leader_problem", "sampler", "scenario"])
def test_checked_objects_are_frozen(make):
    # a field is checked when the object is built, so no later assignment
    # may set it past that check, a valid value included
    obj = make()
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


@pytest.mark.parametrize("value", ["abc", None, True, NAN],
                         ids=["str", "none", "bool", "nan"])
def test_sweep_grid_holds_finite_numbers(value):
    # each grid value is checked as a number before its point is built, so
    # a library caller's string is refused by name, not by float()'s error
    with pytest.raises(vg.InvalidInput) as info:
        cli.ScenarioConfig("delta", (0.05, value), _DIS, _NU, _PUBLIC,
                           _GAME_CFG, 0.05, Path("out"))
    assert info.value.field == "grid"


@pytest.mark.parametrize("value,finite", [
    (0.5, True), (-0.0, True), (3, True), (Fraction(1, 3), True),
    # np.float64 subclasses float, so it takes the ABC check, not the
    # plain-float path
    (np.float64(0.5), True), (np.float64(NAN), False),
    (np.float64(INF), False), (np.int64(3), True),
    (True, False), (False, False), (np.bool_(True), False),
    (NAN, False), (INF, False), (-INF, False), ("0.5", False), (None, False),
], ids=["float", "neg_zero", "int", "fraction", "f64", "f64_nan", "f64_inf",
        "i64", "true", "false", "np_bool", "nan", "inf", "-inf", "str",
        "none"])
def test_require_finite_takes_finite_reals_but_not_bools(value, finite):
    if finite:
        require_finite("x", value)
    else:
        with pytest.raises(ValueError, match="^x must be a finite number"):
            require_finite("x", value)
