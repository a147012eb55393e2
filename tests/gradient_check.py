"""Test helper: a declared gradient against central differences."""

import numpy as np

from tikgrad.core import Objective, OracleFailure, as_vector


def check_gradient(objective: Objective, x, h: float = 1e-6) -> float:
    """Compare gradient_fn against central differences at x.

    Returns max_i |cd_i - g_i| / (1 + |g_i|) over coordinates, where cd is the
    two-sided difference quotient with stencil width h.  h must lie strictly
    inside (1e-10, 1e-2); outside that range the quotient is dominated by
    round-off or truncation and the check is meaningless.
    """
    if not (1e-10 < h < 1e-2):
        raise ValueError("stencil width h must lie in (1e-10, 1e-2)")
    x = as_vector(x)
    g = as_vector(objective.gradient_fn(x))
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = float(objective.value_fn(x + e))
        fm = float(objective.value_fn(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleFailure("objective returned a non-finite value near x")
        cd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return worst
