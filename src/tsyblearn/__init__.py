"""Learning homogeneous halfspaces under Tsybakov noise.

A certificate-driven pipeline: synthetic instances with certified noise
profiles, a band-and-projection certificate search, a spectral warm start
for log-concave marginals, an outer loop that turns a unit iterate on each
certificate, and a batch CLI.
"""

from __future__ import annotations

from .certificate import (
    CertificateWitness,
    TransformConfig,
    compute_certificate,
    search_certificate,
)
from .errors import (
    DegenerateDirection,
    DivisionNearZero,
    EmptyBand,
    EmptySubspace,
    InvalidConfig,
    Nonconvergence,
    SingularCovariance,
    SourceExhausted,
    TsyblearnError,
    UnsupportedFamily,
)
from .geometry import angle, as_unit
from .learner import (
    CertOutcome,
    LearnerConfig,
    LearnerTrace,
    LogConcaveWarmStartOracle,
    RoundRecord,
    StopReason,
    WellBehavedCertOracle,
    angle_to_error,
    learn,
    model_payload,
)
from .synthetic import (
    BinaryDataset,
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    NoiseSpec,
    SampleStream,
    WellBehavedParams,
    adversarialish,
    constant_rate,
    disagreement_error,
    margin_power_law,
    open_dataset,
    read_binary,
    read_text,
    sample_batch,
    well_behaved_params,
    write_binary,
    write_text,
)
from .warmstart import (
    WarmStartResult,
    chow_parameters,
    psgd_stationary_point,
    standardize,
    warm_start,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryDataset",
    "CertOutcome",
    "CertificateWitness",
    "DegenerateDirection",
    "DivisionNearZero",
    "EmptyBand",
    "EmptySubspace",
    "Family",
    "InstanceSpec",
    "InvalidConfig",
    "LabeledBatch",
    "LearnerConfig",
    "LearnerTrace",
    "LogConcaveWarmStartOracle",
    "MarginalSpec",
    "NoiseSpec",
    "Nonconvergence",
    "RoundRecord",
    "SampleStream",
    "SingularCovariance",
    "SourceExhausted",
    "StopReason",
    "TransformConfig",
    "TsyblearnError",
    "UnsupportedFamily",
    "WarmStartResult",
    "WellBehavedCertOracle",
    "WellBehavedParams",
    "adversarialish",
    "angle",
    "angle_to_error",
    "as_unit",
    "chow_parameters",
    "compute_certificate",
    "constant_rate",
    "disagreement_error",
    "learn",
    "margin_power_law",
    "model_payload",
    "open_dataset",
    "psgd_stationary_point",
    "read_binary",
    "read_text",
    "sample_batch",
    "search_certificate",
    "standardize",
    "warm_start",
    "well_behaved_params",
    "write_binary",
    "write_text",
]
