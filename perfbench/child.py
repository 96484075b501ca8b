"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

PLAN.json holds ``src`` (the directory that contains the ``longtail``
package), ``calls`` (a list of argv lists for ``longtail.cli.main``) and
``trace`` (bool). The pass imports ``longtail.cli`` first, untimed, then
times each ``cli.main(argv)`` call in-process with its standard output
captured. RESULT.json receives per-call exit codes, latencies and output,
the pass wall time, the process's peak RSS and, when tracing, the spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

from tracing import Tracer


def peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    Read from VmHWM, which starts afresh at exec; ``ru_maxrss`` would carry
    over the parent's peak from before the fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("longtail.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported {cli.__file__}, not the package under {src}")

    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()

    calls = []
    pass_start = time.perf_counter()
    for argv in plan["calls"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        calls.append({"code": code, "seconds": time.perf_counter() - t0, "stdout": out.getvalue()})
    wall_s = time.perf_counter() - pass_start

    result = {
        "wall_s": wall_s,
        "peak_rss_kb": peak_rss_kb(),
        "calls": calls,
        "trace": None if tracer is None else tracer.export(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
