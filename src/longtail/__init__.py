"""longtail: random-copying market simulation and long-tail sales analysis."""

__version__ = "0.1.0"

from .analysis import (
    InsufficientDataError,
    LogLogFit,
    PowerLawFit,
    TurnoverStats,
    calibrate_mu,
    expected_turnover,
    fit_alpha,
    fit_turnover_exponent,
    turnover,
)
from .experiments import (
    CellResult,
    DistributionResult,
    SweepResult,
    SweepSpec,
    derive_run_seed,
    log_binned_histogram,
    run_sales_distribution,
    run_turnover_sweep,
)
from .inventory import (
    CurvePoint,
    InventoryParams,
    InventoryResult,
    bruteforce_stock,
    closed_form_stock,
    inventory_curve,
)
from .model import SimConfig, SimState, init_state, rank_top, run, step

__all__ = [
    "CellResult",
    "CurvePoint",
    "DistributionResult",
    "InsufficientDataError",
    "InventoryParams",
    "InventoryResult",
    "LogLogFit",
    "PowerLawFit",
    "SimConfig",
    "SimState",
    "SweepResult",
    "SweepSpec",
    "TurnoverStats",
    "bruteforce_stock",
    "calibrate_mu",
    "closed_form_stock",
    "derive_run_seed",
    "expected_turnover",
    "fit_alpha",
    "fit_turnover_exponent",
    "init_state",
    "inventory_curve",
    "log_binned_histogram",
    "rank_top",
    "run",
    "run_sales_distribution",
    "run_turnover_sweep",
    "step",
    "turnover",
]
