"""The package's public names, resolved from their modules on first access."""

import importlib
import sys

import pytest

import tmsflow

from test_cli import _fresh_interpreter

# What ``import tmsflow`` exported when it ran every module, by defining module.
PUBLIC_API = {
    "symplectic": (
        "CovarianceMatrix", "SymplecticOperation", "SymplecticSummary", "TwoModeCovariance",
        "ValidationVerdict", "apply_symplectic", "beam_splitter", "covariance_from_csv",
        "covariance_from_json", "entropy_f", "homodyne_condition", "partial_trace",
        "single_mode_squeezer", "symplectic_form", "symplectic_summary", "tensor", "validate",
        "von_neumann_entropy",
    ),
    "states": (
        "JpaNoiseModel", "StateModel", "eve_tms", "ideal_tms", "inject_noise_coupler",
        "inject_noise_ideal", "jpa_noise", "squeezing_db_to_r", "thermal", "vacuum",
    ),
    "correlations": (
        "CorrelationReport", "correlation_report", "discord", "eof_gamma", "eof_lower_bound",
        "gamma_ideal",
    ),
    "qkd": (
        "KeyResult", "QkdScenario", "cloner_state", "holevo_quantity", "key_threshold",
        "secret_key", "shannon_mi",
    ),
    "analysis": ("CrossoverResult", "SweepGrid", "crossover_point", "sudden_death_point", "sweep"),
    "fit": (
        "FitResult", "MeasurementRecord", "cost", "fit", "records_from_csv", "records_to_csv",
        "synthetic_records",
    ),
    "tomography": (
        "CumulantReport", "QuadratureSamples", "covariance_from_samples", "cumulants",
        "project_to_physical", "samples_from_csv", "samples_to_csv",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC_API.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(tmsflow, name) is getattr(importlib.import_module(f"tmsflow.{module}"), name)
    assert name in dir(tmsflow)


def test_star_import_gives_every_name():
    namespace = {}
    exec("from tmsflow import *", namespace)
    assert all(namespace[name] is getattr(tmsflow, name) for _, name in NAMES)


def test_submodules_are_attributes():
    for module in (*PUBLIC_API.keys() - {"fit"}, "errors"):
        assert getattr(tmsflow, module) is sys.modules[f"tmsflow.{module}"]
        assert module in dir(tmsflow)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'tmsflow' has no attribute 'no_such_name'"):
        tmsflow.no_such_name
    assert not hasattr(tmsflow, "cost_function")


@pytest.mark.parametrize(
    "first",
    ["import tmsflow.fit", "importlib.import_module('tmsflow.fit')", "tmsflow.fit"],
)
def test_fit_stays_the_function(first):
    # the submodule tmsflow.fit and its function share the name
    code = (
        "import importlib, types\n"
        "import tmsflow\n"
        f"{first}\n"
        "import tmsflow.fit\n"
        "module = importlib.import_module('tmsflow.fit')\n"
        "assert isinstance(module, types.ModuleType)\n"
        "assert tmsflow.fit is module.fit and callable(tmsflow.fit)\n"
        "from tmsflow import fit\n"
        "assert fit is module.fit\n"
    )
    _fresh_interpreter(code)


def test_dotted_monkeypatch_resolves(monkeypatch):
    from tmsflow import tomography

    def scan(text):
        return None

    monkeypatch.setattr("tmsflow.tomography._float_rows", scan)
    assert tomography._float_rows is scan
