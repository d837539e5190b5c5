"""Order statistics and the regression verdict shared by run.py and compare.py."""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values, p):
    """Nearest-rank percentile (0 < p <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def pairs_won(base, change, better):
    """Pairs (base[i], change[i]) in which the change reads better; ties count
    for neither side."""
    won = 0
    for b, c in zip(base, change):
        if (c < b) if better == "lower" else (c > b):
            won += 1
    return won


def verdict(base, change, better, bound):
    """Verdict of a change against its parent on one metric.

    improved   -- the change wins at least nine tenths of the pairs and the
                  medians differ, in its favour, by more than the parent's
                  own quartile distance;
    regressed  -- the change's median is worse than the parent's by more
                  than `bound` (a share of the parent's median) while both
                  sides' spreads are within the bound, or every change run
                  reads worse than every parent run by more than the bound;
    unresolved -- either side's spread is wider than the bound and neither
                  rule above decides;
    unchanged  -- otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = median(change)
    scale = abs(b_med)
    pairs = min(len(base), len(change))
    if (pairs and pairs_won(base, change, better) * 10 >= 9 * pairs
            and sign * (b_med - c_med) > (b_q3 - b_q1)):
        return "improved"
    if all(sign * (c - b) > bound * scale for c in change for b in base):
        return "regressed"
    if spread(base) > bound or spread(change) > bound:
        every_run_better = all(sign * (c - b) < 0 for c in change for b in base)
        return "unchanged" if every_run_better else "unresolved"
    if sign * (c_med - b_med) > bound * scale:
        return "regressed"
    return "unchanged"
