"""Sample reductions and the compare verdicts used by perfbench/run.py.

Kept free of I/O so perfbench/test_stats.py can check the rules directly.
"""

import statistics

# Percentiles a tail metric may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# A change wins a claimed gain only on at least this share of the pairs.
WIN_SHARE = 0.9


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) the way statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def samples_beyond(values, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def tail_percentile(values, want=90.0):
    """The highest percentile, at most `want`, with at least MIN_BEYOND
    samples beyond it, as (p, value); None when even the median has fewer.
    """
    for p in TAIL_LADDER:
        if p <= want and values and samples_beyond(values, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def verdict(parent, change, better, bound):
    """Compare two sets of runs of one workload x metric.

    Returns a dict with both medians and quartiles, the share of pairs the
    change won, and one of: improved, worse, unchanged, unresolved.

    - improved: the change wins at least WIN_SHARE of the pairs (pairs are
      matched by position; ties count for neither) and the medians differ,
      in the better direction, by more than the parent's interquartile
      distance.
    - worse: the change's median is worse than the parent's by more than
      `bound` (a share of the parent's median).
    - unresolved: otherwise, when either side's spread is wider than the
      bound, unless every change run reads better than every parent run.
    - unchanged: otherwise.
    """
    if not parent or not change:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "higher" else -1.0
    p_q = quartiles(parent)
    c_q = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs)
    gain = sign * (c_q[1] - p_q[1])
    parent_iqr = p_q[2] - p_q[0]
    base = abs(p_q[1])
    if won >= WIN_SHARE and gain > parent_iqr:
        result = "improved"
    elif base == 0.0:
        result = "worse" if gain < 0 else "unchanged"
    elif -gain / base > bound:
        result = "worse"
    elif (max(relative_spread(parent), relative_spread(change)) > bound and
          not all(sign * (c - p) > 0 for c in change for p in parent)):
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "parent_median": p_q[1], "parent_q1": p_q[0], "parent_q3": p_q[2],
        "change_median": c_q[1], "change_q1": c_q[0], "change_q3": c_q[2],
        "pairs": len(pairs), "won": won, "verdict": result,
    }
