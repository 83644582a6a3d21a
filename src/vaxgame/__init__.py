"""Three-layer vaccination game: population dynamics and stability,
the influencers' stochastic game, and the leader's incentive/supply design."""

from .epidemic import (AttractorSet, Candidate, IntegrationResult, JumpTrajectory,
                       OdeState, candidate_attractors, integrate_to_equilibrium,
                       matched_ode, psi_co_occurring, psi_eradicating,
                       simulate_jump_process)
from .ess import (Admissibility, EssReport, classify_esss, eradication_threshold,
                  is_admissible)
from .game import (CostPath, InfluencerGameConfig, NeCheck, SpecialStrategy,
                   StageActionSet, XiModel, binom_cdf, gamma,
                   ne_outcome_probability, sample_cost_path, sample_z_t,
                   stage_action_set, verify_symmetric_ne)
from .leader import (ComparisonRow, ExpectationSampler, JointDesign,
                     LeaderProblem, LeaderSolution, compare_across_zbar,
                     construct_eps_vaccine_optimal_nu,
                     construct_incentive_optimal_nu, expected_incentive_cost,
                     non_eradication_probability, p_star,
                     perfect_info_solution, solve_optimal_incentive,
                     vaccine_optimal_k)
from .params import (DiseaseParams, InsufficientInfluenceError, InvalidInput,
                     PublicCostModel, ResponseParams, VaRatePolicy)

__version__ = "0.1.0"
