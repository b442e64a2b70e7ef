"""Codes and converse bounds for the binary channel that only turns 1 into 0.

The package splits into combinatorial machinery over words
(:mod:`zchannel.words`, :mod:`zchannel.search`), the exact LP solver for
correctable fractions with verifiable certificates (:mod:`zchannel.tau_lp`),
analytic rate bounds (:mod:`zchannel.rate_bounds`), the two-stage feedback
scheme and its threshold certification (:mod:`zchannel.two_stage`), and an
executable protocol with an exhaustive adversary (:mod:`zchannel.protocol`).
The public names of those modules are re-exported here.
"""

__version__ = "0.1.0"

from .protocol import (
    ADVERSARY_BUDGET,
    AdversaryReport,
    BudgetExceededError,
    ProtocolError,
    ProtocolParams,
    Transcript,
    ValidationReport,
    ValidationRow,
    adversary_exhaustive,
    decode,
    decode_candidates,
    encode_stage1,
    encode_stage2,
    read_code_file,
    validate_parameters,
    write_code_file,
)
from .rate_bounds import (
    BoundCurve,
    TauStarResult,
    bassalygo_size_bound,
    binary_entropy,
    gv_rate,
    levenshtein_rate_bound,
    list_plotkin_holds,
    mrrw_rate,
    plotkin_symmetric_size,
    rcb_delta,
    rcb_g,
    rcb_lower_curve,
    tau_star,
    tau_star_info,
    w0,
    zplotkin_size_bound,
)
from .search import (
    CodeSearchResult,
    best_list_code,
    max_code,
    sample_code_radius,
)
from .tau_lp import (
    TAU_TABLE,
    CertificateCheck,
    PairMatrix,
    TauCertificate,
    UnresolvedError,
    build_pair_matrix,
    solve_tau,
    tau_of_L,
    verify_certificate,
)
from .two_stage import (
    DEFAULT_CONFIG,
    CurvePoint,
    PlotkinPoint,
    RemainsReport,
    RemainsRow,
    TwoStageConfig,
    check_star,
    plotkin_point,
    r2,
    two_stage_curve,
    two_stage_rate,
    verify_remains,
)
from .words import (
    BitWord,
    Code,
    avg_radius,
    delta,
    dh,
    dz,
    list_radius,
    zball_contains,
)
