"""Attention as the stationary point of Hopfield-style energy functionals.

Scaled dot-product attention output AV is recovered as the zero-gradient
point of a family of regularized energies over a state matrix Z, with
analytic gradients, descent dynamics, and independent numerical oracles
(finite differences, brute-force index sums) for verification.
"""

from .attention import (
    AttentionContext,
    ProjectionWeights,
    attention_output,
    build_context,
    project,
    row_softmax,
    scaled_scores,
)
from .dynamics import DescentConfig, DescentTrace, HeadOutput, descend
from .energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    EnergyEval,
    EnergyForm,
    ShapeError,
    alignment_scores,
    f_apply,
    f_prime,
    frobenius_norm,
    linear_energy,
    polynomial,
    reg_coeffs,
    regularized_energy,
)
from .heads import HeadSpec, run_head, solve_head
from .rng import GaussianStream
from .verify import (
    GradCheckReport,
    StationarityReport,
    bruteforce_energy,
    compare_gradients,
    fd_gradient,
    gradcheck,
    stationarity_check,
)

__version__ = "0.1.0"
