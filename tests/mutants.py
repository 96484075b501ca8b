"""Hand-made mutants that the tests were built to kill, and a runner that checks they still do.

Each row of MUTANTS names a file, a text that occurs in it exactly once, the
text that replaces it, and the test ids that must fail on the mutant. Run
from the repository root (22-27 s for the 9 rows on a 2-vCPU Xeon VM):

    python tests/mutants.py

The runner copies src/, tests/, perfbench/ (tests/test_cli.py loads its
tracing.py) and pyproject.toml to a temporary directory and first runs every
listed id there unmutated: each must pass. Then, for each row, it applies the
mutant, runs the row's ids with -x, and expects pytest to report a failed test
(exit 1); an id that no longer exists exits 4 or 5, so it cannot pass for a
kill. It exits 1 if any mutant survived or any text does not occur exactly
once. Nothing is written to the checkout.

This file has no test_ prefix, so Tier-1 does not run the mutants;
tests/test_package.py checks that every row's text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]


MODEL, INVENTORY, ANALYSIS, CHARTDATA, CLI = (
    f"src/longtail/{m}.py" for m in ("model", "inventory", "analysis", "chartdata", "cli"))

MUTANTS = (
    Mutant("rank_top breaks ties toward the newer product", MODEL,
           'np.argsort(-sales, kind="stable")[:y]', '(sales.size - 1 - np.argsort(-sales[::-1], kind="stable"))[:y]',
           ("tests/test_model.py::test_rank_top_prefers_lower_id_on_ties",)),
    Mutant("the innovator coin comes up at 0.8 x frac", MODEL,
           "rng.random() < frac", "rng.random() < 0.8 * frac",
           ("tests/test_model.py::test_step_matches_searchsorted_oracle",)),
    Mutant("the innovator Bernoulli draw is at 0.4", MODEL,
           "rng.random() < frac", "rng.random() < 0.4",
           ("tests/test_model.py::test_last_states_match_the_exact_t_step_law_of_the_chain",)),
    Mutant("copiers draw below N - 1", MODEL,
           "rng.integers(0, n, size=", "rng.integers(0, n - 1, size=",
           ("tests/test_model.py::test_last_states_match_the_exact_t_step_law_of_the_chain",)),
    Mutant("bruteforce_stock ties go to the larger y", INVENTORY,
           "if block[i] > best:", "if block[i] >= best:",
           ("tests/test_inventory.py::test_tie_across_a_block_boundary_goes_to_the_smaller_y",)),
    Mutant("turnover counts the leavers, prev - current", ANALYSIS,
           "len(current - prev)", "len(prev - current)",
           ("tests/test_analysis.py::test_turnover_counts_entrants_across_lists_of_unequal_length",)),
    Mutant("a chart pass takes a row out of period order for the next period", CHARTDATA,
           "if period != current + 1:", "if False:",
           ("tests/test_chartdata.py::test_load_chart_reports_the_first_duplicate_of_interleaved_periods",
            "tests/test_cli.py::test_streamed_turnover_matches_the_whole_file_reference")),
    Mutant("READS drops each preset's last parameter", CLI,
           "[:preset.__code__.co_kwonlyargcount]", "[:preset.__code__.co_kwonlyargcount - 1]",
           ("tests/test_cli.py::test_each_preset_takes_only_keyword_only_parameters_and_reads_them",)),
    Mutant("_figures lists every preset for --y", CLI,
           "if flag.dest in reads)", 'if flag.dest in reads or flag.dest == "y")',
           ("tests/test_cli.py::test_help_and_the_unread_flag_refusal_name_the_presets_that_read_each_flag",)),
)


def mutate(source: str, mutant: Mutant) -> str:
    """source with the mutant applied; ValueError unless its text occurs exactly once."""
    count = source.count(mutant.text)
    if count != 1:
        raise ValueError(f"{mutant.path}: {mutant.text!r} occurs {count} times, not once")
    return source.replace(mutant.text, mutant.replacement)


def run_pytest(copy: Path, ids) -> int:
    """pytest's exit code for ids, run in copy on copy's package; no bytecode or cache is written."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT).returncode


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    failures = []
    with tempfile.TemporaryDirectory(prefix="longtail-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        ids = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = run_pytest(copy, ids)
        if code != 0:
            print(f"the unmutated copy exits {code} on the listed tests; no mutant run")
            return 1
        for mutant in MUTANTS:
            path = copy / mutant.path
            source = path.read_text(encoding="utf-8")
            started = time.monotonic()
            try:
                path.write_text(mutate(source, mutant), encoding="utf-8")
                code = run_pytest(copy, mutant.tests)
                verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            except ValueError as exc:
                verdict = str(exc)
            finally:
                path.write_text(source, encoding="utf-8")
            if verdict != "killed":
                failures.append(mutant.name)
            print(f"{time.monotonic() - started:5.1f} s  {mutant.name}: {verdict}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
