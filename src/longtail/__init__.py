"""longtail: random-copying market simulation and long-tail sales analysis.

The public names are imported from their submodules on first access
(PEP 562), so ``import longtail`` (and ``import longtail.cli``) loads no
numpy until a numeric name is used. ``InsufficientDataError`` is defined
here, so the CLI can tell it apart (exit 4) without importing numpy.
"""

import importlib

__version__ = "0.1.0"


class InsufficientDataError(ValueError):
    """Too few (or degenerate) data points for the requested statistic."""


# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(("LogLogFit", "PowerLawFit", "TurnoverStats", "calibrate_mu", "expected_turnover", "fit_alpha",
                     "fit_turnover_exponent", "turnover"), "analysis"),
    **dict.fromkeys(("CellResult", "DistributionResult", "SweepSpec", "derive_run_seed", "log_binned_histogram",
                     "per_mu_stats", "run_sales_distribution", "run_turnover_sweep"), "experiments"),
    **dict.fromkeys(("CurvePoint", "InventoryParams", "InventoryResult", "bruteforce_stock", "closed_form_stock",
                     "inventory_curve"), "inventory"),
    **dict.fromkeys(("SimConfig", "SimState", "init_state", "rank_top", "run", "step", "top_lists",
                     "trajectory"), "model"),
}

__all__ = sorted([*_SUBMODULE, "InsufficientDataError"])


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
