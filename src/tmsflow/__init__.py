"""Gaussian-state toolkit for noisy two-mode squeezed states.

Models the injection of thermal noise into one arm of a two-mode squeezed
state, computes quantum discord, the entanglement-of-formation lower
bound, mutual information and the information-flow differences between
them, evaluates entangling-cloner CV-QKD secret keys, extracts
sudden-death and crossover noise thresholds, fits the amplifier-noise
power law against measured correlation curves, and reconstructs states
from quadrature sample streams.

Importing the package runs no model module.  Each submodule is registered
in ``sys.modules`` with a lazy loader and runs on first use, and each
public name below is looked up in its module on first access.  The
package attribute ``fit`` is the function ``tmsflow.fit.fit``, also after
``import tmsflow.fit``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public names by the module that defines them.
_EXPORTS = {
    "symplectic": (
        "CovarianceMatrix",
        "SymplecticOperation",
        "SymplecticSummary",
        "TwoModeCovariance",
        "ValidationVerdict",
        "apply_symplectic",
        "beam_splitter",
        "covariance_from_csv",
        "covariance_from_json",
        "entropy_f",
        "homodyne_condition",
        "partial_trace",
        "single_mode_squeezer",
        "symplectic_form",
        "symplectic_summary",
        "tensor",
        "validate",
        "von_neumann_entropy",
    ),
    "states": (
        "JpaNoiseModel",
        "StateModel",
        "eve_tms",
        "ideal_tms",
        "inject_noise_coupler",
        "inject_noise_ideal",
        "jpa_noise",
        "squeezing_db_to_r",
        "thermal",
        "vacuum",
    ),
    "correlations": (
        "CorrelationReport",
        "correlation_report",
        "discord",
        "eof_gamma",
        "eof_lower_bound",
        "gamma_ideal",
    ),
    "qkd": (
        "KeyResult",
        "QkdScenario",
        "cloner_state",
        "holevo_quantity",
        "key_threshold",
        "secret_key",
        "shannon_mi",
    ),
    "analysis": (
        "CrossoverResult",
        "SweepGrid",
        "crossover_point",
        "sudden_death_point",
        "sweep",
    ),
    "fit": (
        "FitResult",
        "MeasurementRecord",
        "cost",
        "fit",
        "records_from_csv",
        "records_to_csv",
        "synthetic_records",
    ),
    "tomography": (
        "CumulantReport",
        "QuadratureSamples",
        "covariance_from_samples",
        "cumulants",
        "project_to_physical",
        "samples_from_csv",
        "samples_to_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register_lazily(name: str):
    """The submodule ``name``, in ``sys.modules`` and not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# The modules of the public names and errors.  Not the CLI, which
# ``python -m tmsflow.cli`` runs and would warn to find in sys.modules, nor
# the private helpers, which load where they are used.
for _name in (*_EXPORTS, "errors"):
    _module = _register_lazily(_name)
    if _name not in _HOME:  # the attribute fit is the function
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(sys.modules[f"{__name__}.{home}"], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
