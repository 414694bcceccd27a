"""Certified polynomial approximations, Krylov trace estimation, and
Wishart query-complexity experiments."""

from .approx import (
    ApproxTarget,
    inv_poly,
    inv_sqrt_poly,
    monomial_cheb_approx,
    sup_error,
    taylor_truncation_length,
)
from .chebyshev import ChebPoly
from .hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    ProbeSpec,
    TraceEstimate,
    bias_bound,
    estimate_tr_f,
    hutchinson,
)
from .krylov import fa_times_vec_lanczos
from .linalg import (
    EigenDecomposition,
    SymMatrix,
    cholesky,
    qr_columns,
    sample_gaussian_matrix,
    sample_spd_with_spectrum,
    sample_wishart,
    sym_eigen,
)
from .matio import parse_matrix_file
from .rng import RngState
from .wishart import (
    ConstantGuess,
    ExactRecovery,
    GameResult,
    HutchinsonKrylov,
    PosteriorDecomposition,
    QueryTranscript,
    eig_cdf_experiment,
    inv_trace_tail_experiment,
    lambda_max_tail_experiment,
    make_transcript,
    posterior_decompose,
    posterior_distribution_test,
    query_game,
)

__version__ = "0.1.0"
