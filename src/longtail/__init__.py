"""longtail: random-copying market simulation and long-tail sales analysis.

The library's names live in their submodules: ``longtail.model`` (the
simulator), ``analysis`` (exponent fits and turnover), ``experiments`` (the
studies behind the ``reproduce`` presets), ``inventory`` (the shelf-size
optimizer), ``chartdata`` (the data files) and ``svgplot``. ``import
longtail`` loads none of them. ``InsufficientDataError`` is defined here, so
the CLI can tell it apart (exit 4) without importing numpy.
"""

__version__ = "0.1.0"  # the one place the version is written: pyproject.toml reads it


class InsufficientDataError(ValueError):
    """Too few (or degenerate) data points for the requested statistic."""
