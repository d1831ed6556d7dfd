"""Output checks with tolerances, written independently of the program's code.

The hydraulic relations are restated here in array form, so a change to the
program's own hydraulics or solver is judged against the textbook formulas
rather than against itself.  Tolerances admit last-digit (ulp) differences
between equivalent float evaluations and reject real errors: one depth moved
by 1e-6 m breaks at least one check.
"""

from __future__ import annotations

import numpy as np

GRAVITY = 9.81

#: Energy-balance residual allowed per subcritical pair [m].  Exact marches
#: leave ~1e-14 m; a depth moved by 1e-6 m leaves ~1e-7 m.
ENERGY_TOL = 1e-11
#: Relative slack on the momentum bracket and on the normal-depth tail.
RELATIVE_TOL = 1e-9


def specific_energy(h, q, b):
    return h + q * q / (2.0 * GRAVITY * b * b * h * h)


def friction_slope(h, q, b, n):
    area = b * h
    radius = area / (b + 2.0 * h)
    return n * n * q * q / (area * area * radius ** (4.0 / 3.0))


def momentum(h, q, b):
    return h * h / 2.0 + q * q / (GRAVITY * b * b * h)


def froude(h, q, b):
    return q / (b * h * np.sqrt(GRAVITY * h))


def weir_depth(q, b, z_d):
    return z_d + (3.0 * np.sqrt(3.0) * q / (2.0 * np.sqrt(2.0 * GRAVITY) * b)) ** (2.0 / 3.0)


def subcritical_depth(energy, q, b):
    """Deep root of E(h) = energy by bisection; NaN where energy < critical."""
    a = q * q / (2.0 * GRAVITY * b * b)
    h_c = (2.0 * a) ** (1.0 / 3.0)
    lo, hi = h_c, np.maximum(energy, h_c)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = mid + a / (mid * mid) > energy
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.where(energy >= 1.5 * h_c, 0.5 * (lo + hi), np.nan)


def check_profile(scenario, depths: np.ndarray, dx: float, regime: str, jump_index) -> list[str]:
    """Problems found in one solved profile; empty when it passes.

    Checks: positive finite depths; the weir depth at the dam; the discrete
    energy balance E[i+1] - E[i] = dx (J[i] - s) on every pair marched on
    the subcritical branch; and, for a mixed-regime profile, a uniform
    supercritical tail at the normal depth and the jump momentum bracket
    (the station below the jump still out-pushes the inflow, the marched
    depth at the jump no longer does, or the march ran out of energy).
    """
    s, b, n, z_d, q = scenario.s, scenario.b, scenario.n, scenario.z_d, scenario.Q
    d = np.asarray(depths, dtype=float)
    problems = []
    if not (np.all(np.isfinite(d)) and np.all(d > 0.0)):
        return ["non-positive or non-finite depth"]
    if abs(d[0] - weir_depth(q, b, z_d)) > 1e-12 * d[0]:
        problems.append("dam depth is not the weir depth")

    end = len(d) if regime != "mixed" else int(jump_index)
    marched = d[:end]
    e = specific_energy(marched, q, b)
    j = friction_slope(marched, q, b, n)
    resid = np.abs(e[1:] - e[:-1] - dx * (j[:-1] - s))
    if resid.size and resid.max() > ENERGY_TOL:
        problems.append(f"energy balance residual {resid.max():.3e} m")
    if np.any(froude(marched, q, b) >= 1.0):
        problems.append("marched depth is not subcritical")

    if regime == "mixed":
        tail = d[end:]
        h_n = tail[0]
        if np.any(tail != h_n):
            problems.append("depths past the jump are not uniform")
        if abs(friction_slope(h_n, q, b, n) - s) > RELATIVE_TOL * s:
            problems.append("depth past the jump is not the normal depth")
        if froude(h_n, q, b) <= 1.0:
            problems.append("inflow past the jump is not supercritical")
        m_n = momentum(h_n, q, b)
        if end >= 2 and momentum(d[end - 1], q, b) < m_n * (1.0 - RELATIVE_TOL):
            problems.append("jump placed too far upstream")
        e_next = specific_energy(d[end - 1], q, b) + dx * (friction_slope(d[end - 1], q, b, n) - s)
        h_sub = subcritical_depth(np.array(e_next), q, b)
        if np.isfinite(h_sub) and momentum(h_sub, q, b) > m_n * (1.0 + RELATIVE_TOL):
            problems.append("jump placed too far downstream")
    return problems


def check_corpus(ds, expected_counts: dict) -> dict[str, bool]:
    """Named pass/fail results for one generated corpus: one per profile, plus
    the retained/rejected/mixed counts."""
    results = {
        f"profile.{i}": not check_profile(p.scenario, p.depths, p.grid.dx, p.regime, p.jump_index)
        for i, p in enumerate(ds.profiles)
    }
    counts = {
        "retained": len(ds.profiles),
        "rejected": len(ds.manifest["rejected"]),
        "mixed": sum(p.regime == "mixed" for p in ds.profiles),
    }
    results["counts"] = counts == expected_counts
    return results


def nmae(pred, true, z_d: float) -> float:
    return float(np.mean(np.abs(np.asarray(true) - np.asarray(pred))) / z_d)
