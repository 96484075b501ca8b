"""Spans and boundary counters around the public functions of ``longtail``.

The tracer replaces each traced function at every module attribute the
program calls it through: ``from .model import run`` copies the binding into
the importing module, so wrapping ``model.run`` alone would miss the calls
made through ``cli.run`` and ``experiments.run``. A binding that no longer
exists (renamed, inlined or removed) is skipped, and its layer reports
0 calls.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out once, after the timed calls. Self time is computed later from
them: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time

# span name -> the (module, attribute) bindings the program calls it through
SITES = {
    "model.step": [("model", "step")],
    "model.rank_top": [("model", "rank_top")],
    "model.run": [("experiments", "run"), ("cli", "run")],
    "analysis.turnover": [("experiments", "turnover"), ("cli", "turnover")],
    "analysis.fit_alpha": [("experiments", "fit_alpha"), ("cli", "fit_alpha")],
    "experiments.run_turnover_sweep": [("cli", "run_turnover_sweep")],
    "inventory.bruteforce_stock": [("cli", "bruteforce_stock")],
    "chartdata.load_chart": [("cli", "load_chart")],
    "svgplot.loglog_svg": [("cli", "loglog_svg")],
    "cli.main": [("cli", "main")],
}


def _count_step(args, result, counts):
    # k (products created this step) is the change in next_product_id;
    # the other N - k agents each made one copier draw.
    state, config = args[0], args[1]
    k = result.next_product_id - state.next_product_id
    counts["agent_draws"] += config.n_agents - k
    counts["products_created"] += k
    counts["live_products"] += len(result.product_ids)


def _count_fit(args, result, counts):
    counts["samples"] += result.n_samples


def _count_turnover(args, result, counts):
    counts["periods"] += len(result.z_per_period)


def _count_chart(args, result, counts):
    counts["rows"] += sum(len(ids) for ids in result)


COUNTERS = {
    "model.step": (_count_step, ("agent_draws", "products_created", "live_products")),
    "analysis.fit_alpha": (_count_fit, ("samples",)),
    "analysis.turnover": (_count_turnover, ("periods",)),
    "chartdata.load_chart": (_count_chart, ("rows",)),
}


class Tracer:
    """Installs span-recording wrappers; one instance per traced process."""

    def __init__(self):
        self.names = list(SITES)
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts = {name: dict.fromkeys(COUNTERS[name][1], 0) for name in COUNTERS}
        self.counter_errors = 0

    def install(self) -> None:
        """Wrap every binding listed in SITES that exists in this build."""
        for name_id, (name, sites) in enumerate(SITES.items()):
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"longtail.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrap(name_id, name, fn))

    def _wrap(self, name_id: int, name: str, fn):
        counter = COUNTERS.get(name, (None,))[0]
        counts = self.counts.get(name)
        stack, span_name, start, end, parent = self._stack, self.span_name, self.start, self.end, self.parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(args, result, counts)
                except (AttributeError, IndexError, TypeError):
                    # the traced signature changed; the span still counts
                    self.counter_errors += 1
            return result

        return traced

    def export(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
            "counter_errors": self.counter_errors,
        }
