"""Default grids of the experiment presets.

The CLI's flag table prints these in ``--help``, so this module imports
nothing: building the parser must not load numpy.
"""

# Default sweep protocol: 60 (N, mu) cells, 10 replicates of 1000 steps each,
# tracking the top-5 list. The mu grid stays above the winner-take-all
# boundary for most N (mu*N >= 1 once N >= 500 at the smallest mu); pushing
# mu much lower makes turnover scale with mu*N instead of sqrt(mu).
DEFAULT_N_GRID = tuple(range(100, 1001, 100))
DEFAULT_MU_GRID = (0.002, 0.003, 0.005, 0.01, 0.02, 0.05)
DEFAULT_NMU_TARGETS = (0.5, 1.0, 2.0, 5.0)

# A/B ratios of the shelf-size curves (figure 3), by decades
DEFAULT_AB_RATIOS = (10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
