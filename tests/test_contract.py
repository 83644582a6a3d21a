"""Input contract of the exported input dataclasses: a bad field fails when
the object is built, with a ValueError whose message names the field."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxgame as vg

NAN, INF = math.nan, math.inf
# the bad values each kind of field must refuse; bool is refused everywhere
# a number is asked for, so a flag cannot pass for a rate or a count
REAL = (NAN, INF, -INF, True)
NONNEG = REAL + (-1,)
FRACTION = NONNEG + (2.5,)
INTEGER = (NAN, INF, -INF, 2.5, True, -1)

_GAME = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0, xi_mean=5.0,
             z_bar=2, xi_sigma2=2.0)
_DISCRETE = dict(_GAME, xi_sigma2=0.0, xi_values=(1.0, 3.0),
                 xi_probs=(0.5, 0.5))
_COSTS = dict(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5)


def _leader(**kw):
    base = dict(delta=0.05, cfg=vg.InfluencerGameConfig(**_GAME),
                sampler=vg.ExpectationSampler(n_samples=10))
    return vg.LeaderProblem(**dict(base, **kw))


# (constructor, valid keywords, field, bad values); a tuple-valued field
# gets each bad value as its last entry, and for mode, cfg and sampler
# every number is of the wrong type
_TABLE = [
    *[(vg.DiseaseParams, dict(lam=15.0, r=2.0, b=2.0, d=0.5), name,
       NONNEG + (0.0,)) for name in ("lam", "r", "b")],
    (vg.DiseaseParams, dict(lam=15.0, r=2.0, b=2.0, d=0.5), "d",
     NONNEG + (2.5,)),
    *[(vg.VaRatePolicy, dict(nu_b=1.0, nu_e=1.0), name, NONNEG)
      for name in ("nu_b", "nu_e")],
    (vg.ResponseParams, dict(beta=2.0), "beta", NONNEG),
    *[(vg.PublicCostModel, dict(_COSTS, s=0.2), name, NONNEG)
      for name in ("c_v1", "c_v2", "c_v2_bar", "c_i", "s")],
    (vg.PublicCostModel, dict(_COSTS, c_f_table=(0.0, 1.0, 2.0)),
     "c_f_table", NONNEG),
    *[(vg.OdeState, dict(theta=0.1, psi=0.2, eta=0.3), name, FRACTION)
      for name in ("theta", "psi")],
    (vg.OdeState, dict(theta=0.1, psi=0.2, eta=0.3), "eta", NONNEG),
    (vg.XiModel, dict(mean_param=5.0, sigma2=2.0), "mean_param", REAL),
    (vg.XiModel, dict(mean_param=5.0, sigma2=2.0), "sigma2", NONNEG),
    (vg.XiModel, dict(mean_param=5.0, sigma2=2.0), "p0", FRACTION),
    (vg.XiModel, dict(mean_param=0.0, values=(1.0, 3.0), probs=(0.5, 0.5)),
     "values", NONNEG),
    (vg.XiModel, dict(mean_param=0.0, values=(1.0, 3.0), probs=(0.5, 0.5)),
     "probs", FRACTION),
    *[(vg.InfluencerGameConfig, _GAME, name, INTEGER)
      for name in ("m", "t_horizon", "z_bar")],
    *[(vg.InfluencerGameConfig, _GAME, name, REAL)
      for name in ("c_v", "xi_mean", "g0")],
    *[(vg.InfluencerGameConfig, _GAME, name, NONNEG)
      for name in ("c_i", "c_se_1", "xi_sigma2")],
    (vg.InfluencerGameConfig, _GAME, "p0", FRACTION),
    (vg.InfluencerGameConfig, dict(_GAME, incentives=(1.0, 2.0)),
     "incentives", REAL),
    (vg.InfluencerGameConfig, _DISCRETE, "xi_values", NONNEG),
    (vg.InfluencerGameConfig, _DISCRETE, "xi_probs", FRACTION),
    *[(vg.ExpectationSampler, dict(n_samples=10), name, INTEGER)
      for name in ("n_samples", "seed")],
    (vg.ExpectationSampler, dict(n_samples=10), "mode", INTEGER),
    (_leader, {}, "delta", FRACTION),
    *[(_leader, {}, name, INTEGER) for name in ("cfg", "sampler")],
]
CASES = [(make, base, name, bad) for make, base, name, bads in _TABLE
         for bad in bads]


@pytest.mark.parametrize("make, base, name, bads", _TABLE,
                         ids=[row[2] for row in _TABLE])
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
