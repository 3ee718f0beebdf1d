"""Secret-key capacity bounds for wiretap channels with transmitter-known state.

Modules:

* ``channel``: finite-alphabet probability objects and exact information
  measures (bits).
* ``dmc``: numerical bound evaluators over encoder policies and output
  couplings.
* ``gaussian``: closed-form bounds for the additive Gaussian model.
* ``sim``: desk-scale simulator of the random-binning key-agreement schemes.
* ``cli``: the ``statekey`` command-line tool.
"""

from .channel import (AuxiliaryEncoderPolicy, BudgetError, InputPolicy,
                      JointPmf, StateChannel, augment_receiver,
                      conditional_mutual_information, entropy_bits,
                      induce_input_joint, induce_joint, marginalize,
                      mutual_information)
from .dmc import (BoundResult, CouplingFamily, OptimizerConfig,
                  aux_policy_rate, discussion_capacity_if_markov,
                  evaluate_bounds, lower_bound_discussion,
                  lower_bound_no_discussion, secret_message_lower_bound,
                  upper_bound_discussion, upper_bound_no_discussion)
from .gaussian import (AuxRateResult, GapReport, GaussianAuxParams,
                       GaussianParams, capacity_discussion, gap_analysis,
                       lb_no_discussion, rate_aux_surface, rho_star,
                       ub_no_discussion)
from .sim import (BinningCodebook, CodebookRates, SimConfig, SimReport,
                  build_codebook, decode, encode, exact_leakage,
                  run_no_discussion, run_one_round_discussion)

__version__ = "0.1.0"
