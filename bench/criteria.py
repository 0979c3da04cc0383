"""Reference figures: each acceptance criterion timed with perf_counter.

    python3 bench/criteria.py

Prints, per criterion, the median wall time of three calls of its check
function beside its runtime budget and a third of that budget (the
performance target for the criteria).  These are figures for the README, not
benchmark metrics.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPEATS = 3


def main():
    sys.path.insert(0, SRC)
    from senlab.accept import CRITERIA, RUNTIME_BUDGETS

    print("criterion  median_s  budget_s  third_s  vs_third")
    for index in sorted(CRITERIA):
        _name, fn = CRITERIA[index]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        budget = RUNTIME_BUDGETS[index]
        print("%9d  %8.3f  %8.1f  %7.3f  %s" % (
            index, statistics.median(times), budget, budget / 3,
            "under third" if statistics.median(times) <= budget / 3 else "over third"))


if __name__ == "__main__":
    main()
