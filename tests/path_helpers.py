"""Test helper: points along the Tikhonov path, for checks against many levels."""

from tikgrad.regularization import tikhonov_solve


def tikhonov_path(problem, epsilons):
    """tikhonov_solve along a grid of weights, warm-starting each solve at the last z."""
    records, x = [], None
    for eps in epsilons:
        rec = tikhonov_solve(problem, float(eps), x0=x)
        records.append(rec)
        x = rec.z
    return records
