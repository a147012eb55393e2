"""Test helper: the paper's two-level methods replayed in 200-digit decimal.

An oracle independent of the float code: it imports neither numpy nor
tikgrad, and writes out the paper's rules for gprm and cgrm on the
illposed_box and illposed_simplex families directly:

* phi'_eps = f' + eps x, with eps_l = 2^-l and delta_l = eps_l^(3/2)
  (epsilon0 = 1, nu = sigma = 1/2);
* a box clip, the sort-based simplex projection and the first-index LMO;
* the Armijo scan from the unit step, theta^m for m = 0, 1, ..., skipping a
  power whose step theta^m cap exceeds 1 (cap 1 for gprm, the gap mu for
  cgrm), accepting the first with
  phi(x + t d) <= phi(x) - beta theta^m quad_coeff;
* the handoff test compared as squares, ||d||^2 <= eps^3 or mu^2 <= eps^3,
  so no square root is rounded;
* gprm hands off the better of x and y, ties to y; cgrm hands off x.

At 200 digits these steps round far below anything a float run resolves,
so a float run that is the paper's method takes the same number of inner
iterations N_l at every level.  Run as a script it prints the N_l of
criteria 1 and 2's runs as JSON, for comparing Python versions.
"""

import json
from decimal import Decimal, localcontext

PREC = 200
HALF = Decimal(1) / 2


def _dot(u, v):
    s = Decimal(0)
    for a, b in zip(u, v):
        s += a * b
    return s


def _box(n):
    """f = (sum x - 1)^2 / 2 on [-1, 1]^n: (f, f', projection, LMO)."""
    def f(x):
        s = Decimal(0)
        for v in x:
            s += v
        return (s - 1) * (s - 1) / 2

    def grad(x):
        s = Decimal(0)
        for v in x:
            s += v
        return [s - 1] * n

    def project(z):
        return [min(max(v, Decimal(-1)), Decimal(1)) for v in z]

    def lmo(g):
        return [Decimal(1) if v < 0 else Decimal(-1) for v in g]

    return f, grad, project, lmo


def _simplex(n):
    """f = (x_1 - x_2)^2 / 2 on the unit simplex: (f, f', projection, LMO)."""
    def f(x):
        t = x[0] - x[1]
        return t * t / 2

    def grad(x):
        t = x[0] - x[1]
        return [t, -t] + [Decimal(0)] * (n - 2)

    def project(z):
        u = sorted(z, reverse=True)
        s = Decimal(0)
        for k, v in enumerate(u, 1):
            s += v
            if v * k > s - 1:
                rho, c = k, s - 1
        tau = c / rho
        return [max(v - tau, Decimal(0)) for v in z]

    def lmo(g):
        i = g.index(min(g))
        return [Decimal(1) if j == i else Decimal(0) for j in range(n)]

    return f, grad, project, lmo


FAMILIES = {"illposed_box": _box, "illposed_simplex": _simplex}


def replay(method, family, n, epsilon_min, beta=0.5, theta=0.5, max_m=60, max_outer=60,
           start=None):
    """(N_l per level, final point as floats) of method ('gprm' or 'cgrm')
    on family(n) from start (n floats, read exactly; e_1 if None), levels
    l = 1, 2, ... while 2^-l >= epsilon_min."""
    with localcontext() as ctx:
        ctx.prec = PREC
        f, grad, project, lmo = FAMILIES[family](n)
        beta, theta, eps_min = Decimal(beta), Decimal(theta), Decimal(epsilon_min)
        if start is None:
            x = [Decimal(1)] + [Decimal(0)] * (n - 1)
        else:
            x = [Decimal(v) for v in start]
        counts = []
        eps = Decimal(1)
        for _ in range(max_outer):
            eps *= HALF
            if eps < eps_min:
                break
            delta2 = eps * eps * eps

            def phi(v):
                return f(v) + eps * _dot(v, v) / 2

            N = 0
            while True:
                g = [gi + eps * xi for gi, xi in zip(grad(x), x)]
                if method == "gprm":
                    y = project([xi - gi for xi, gi in zip(x, g)])
                    d = [yi - xi for yi, xi in zip(y, x)]
                    q = _dot(d, d)
                    cap, done = Decimal(1), q <= delta2
                else:
                    y = lmo(g)
                    d = [yi - xi for yi, xi in zip(y, x)]
                    mu = -_dot(g, d)
                    q, cap, done = mu * mu, mu, mu <= 0 or mu * mu <= delta2
                if done:
                    if method == "gprm" and phi(y) <= phi(x):
                        x = y
                    break
                phi_x, lam = phi(x), Decimal(1)
                for _ in range(max_m + 1):
                    t = lam * cap
                    if t <= 1:
                        trial = [xi + t * di for xi, di in zip(x, d)]
                        if phi(trial) <= phi_x - beta * lam * q:
                            break
                    lam *= theta
                else:
                    raise RuntimeError(f"level {len(counts) + 1}: no sufficient decrease")
                x = trial
                N += 1
            counts.append(N)
        return counts, [float(v) for v in x]


# criteria 1 and 2 of the acceptance suite: sigma = 1/2, epsilon_min = 1e-4, from e_1
CERTIFIED = (("gprm", "illposed_box", 2), ("cgrm", "illposed_simplex", 3))
EPSILON_MIN = 1e-4

if __name__ == "__main__":
    print(json.dumps({f"{m} {fam}({n})": replay(m, fam, n, EPSILON_MIN)[0]
                      for m, fam, n in CERTIFIED}))
