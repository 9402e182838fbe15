#!/usr/bin/env python3
"""Summarize benchmark result files across runs.

    python3 perfbench/report.py [RESULT.json ...]

With no arguments it reads every file under ``.perfbench/results/``.  For
each workload and metric it prints the median of the per-run values, their
quartile spread as a share of that median (the run-to-run steadiness), and
the median, tail percentile and count of all samples pooled across runs.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import fmt, quartile_spread, summarize

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / ".perfbench" / "results").glob("*.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 1
    groups = defaultdict(list)
    for path in paths:
        result = json.loads(path.read_text())
        rec = result["record"]
        groups[(rec["workload"], rec["trace"])].append(result)
    for (workload, trace), results in sorted(groups.items()):
        seeds = sorted({r["record"]["seed"] for r in results})
        failed = sum(len(r["failures"]) for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} trace={trace} runs={len(results)} seeds={seeds} "
              f"fail_frac={failed}/{attempted}")
        print(f"  {'metric':34} {'unit':6} {'run median':>11} {'spread':>7} "
              f"{'pooled':>11} {'tail':>5} {'value':>11} {'n':>5}")
        names = list(results[0]["metrics"])
        names += [k for k in results[0].get("samples", {}) if k not in names]
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            values = [v for v in values if v is not None]
            unit = results[0]["metrics"].get(name, {}).get("unit", "s")
            pooled = [x for r in results for x in r.get("samples", {}).get(name, [])] or values
            s = summarize(pooled)
            run_median = summarize(values)["median"]
            print(f"  {name:34} {unit:6} {fmt(run_median):>11} {fmt(quartile_spread(values), 2):>7} "
                  f"{fmt(s['median']):>11} {s['tail'] or '-':>5} {fmt(s['tail_value']):>11} {s['n']:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
