"""Gaussian-state toolkit for noisy two-mode squeezed states.

Models the injection of thermal noise into one arm of a two-mode squeezed
state, computes quantum discord, the entanglement-of-formation lower
bound, mutual information and the information-flow differences between
them, evaluates entangling-cloner CV-QKD secret keys, extracts
sudden-death and crossover noise thresholds, fits the amplifier-noise
power law against measured correlation curves, and reconstructs states
from quadrature sample streams.
"""

from .symplectic import (
    CovarianceMatrix,
    SymplecticOperation,
    SymplecticSummary,
    TwoModeCovariance,
    ValidationVerdict,
    apply_symplectic,
    beam_splitter,
    covariance_from_csv,
    covariance_from_json,
    entropy_f,
    homodyne_condition,
    partial_trace,
    single_mode_squeezer,
    symplectic_form,
    symplectic_summary,
    tensor,
    validate,
    von_neumann_entropy,
)
from .states import (
    JpaNoiseModel,
    StateModel,
    eve_tms,
    ideal_tms,
    inject_noise_coupler,
    inject_noise_ideal,
    jpa_noise,
    squeezing_db_to_r,
    thermal,
    vacuum,
)
from .correlations import (
    CorrelationReport,
    correlation_report,
    discord,
    eof_gamma,
    eof_lower_bound,
    gamma_ideal,
)
from .qkd import (
    KeyResult,
    QkdScenario,
    cloner_state,
    holevo_quantity,
    key_threshold,
    secret_key,
    shannon_mi,
)
from .analysis import (
    CrossoverResult,
    SweepGrid,
    crossover_point,
    sudden_death_point,
    sweep,
)
from .fit import (
    FitResult,
    MeasurementRecord,
    cost,
    fit,
    records_from_csv,
    records_to_csv,
    synthetic_records,
)
from .tomography import (
    CumulantReport,
    QuadratureSamples,
    covariance_from_samples,
    cumulants,
    project_to_physical,
    samples_from_csv,
    samples_to_csv,
)

__version__ = "0.1.0"
