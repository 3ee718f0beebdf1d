"""Secret-key capacity bounds for wiretap channels with transmitter-known state.

Modules:

* ``channel``: finite-alphabet channel and policy objects, and the exact
  mutual-information kernels (bits) the evaluators and the simulator share.
* ``dmc``: numerical bound evaluators over encoder policies and output
  couplings.
* ``gaussian``: closed-form bounds for the additive Gaussian model.
* ``sim``: desk-scale simulator of the random-binning key-agreement schemes.
* ``cli``: the ``statekey`` command-line tool.
"""

from .channel import (AuxiliaryEncoderPolicy, BudgetError, InputPolicy,
                      StateChannel, augment_receiver)
from .dmc import (BoundResult, CouplingFamily, OptimizerConfig,
                  aux_policy_rate, discussion_capacity_if_markov,
                  evaluate_bounds, lower_bound_discussion,
                  lower_bound_no_discussion, secret_message_lower_bound,
                  upper_bound_discussion, upper_bound_no_discussion)
from .gaussian import (AuxRateResult, GapReport, GaussianAuxParams,
                       GaussianParams, capacity_discussion, gap_analysis,
                       lb_no_discussion, rate_aux_surface, rho_star,
                       ub_no_discussion)
from .sim import (BinningCodebook, SimConfig, SimReport, build_codebook,
                  decode, encode, exact_leakage, run_no_discussion,
                  run_one_round_discussion)

__version__ = "0.1.0"
