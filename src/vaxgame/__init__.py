"""Three-layer vaccination game: population dynamics and stability,
the influencers' stochastic game, and the leader's incentive/supply design."""

from .epidemic import (AttractorSet, Candidate, IntegrationResult, JumpTrajectory,
                       OdeState, candidate_attractors, export_trajectory_csv,
                       integrate_to_equilibrium, matched_ode, ode_rhs,
                       psi_co_occurring, psi_eradicating,
                       simulate_jump_process)
from .ess import (Admissibility, EssReport, classify_esss, eradication_probability,
                  eradication_threshold, h_values, is_admissible)
from .game import (AgentState, CostPath, InfluencerGameConfig, NeCheck,
                   SpecialStrategy, StageActionSet, XiModel, binom_cdf,
                   build_special_strategy, gamma, ne_outcome_probability,
                   sample_cost_path, sample_z_t, solve_mixed_probability,
                   stage_action_set, verify_symmetric_ne)
from .leader import (ComparisonRow, ExpectationSampler, JointDesign,
                     LeaderProblem, LeaderSolution, compare_across_zbar,
                     construct_eps_vaccine_optimal_nu,
                     construct_incentive_optimal_nu, expected_incentive_cost,
                     incentive_optimal_exists, non_eradication_probability,
                     p_star, perfect_info_solution, solve_optimal_incentive,
                     vaccine_optimal_k)
from .params import (DiseaseParams, InsufficientInfluenceError, PublicCostModel,
                     ResponseParams, VaRatePolicy)

__version__ = "0.1.0"
