"""Inputs of the benchmark workloads.

Shared by run.py, its child scripts (setup_probe.py,
exponent_job.py) and the reference freezer (freeze.py), so that all of
them agree on what each workload computes.  Sizes were chosen on a 2-core
x86 box so that a 30 s run repeats every command of a workload several
times.
"""

from __future__ import annotations

WORKLOADS = ("sweep", "decoder-d2", "decoder-d3", "exponent")

# sweep: the README's rep7/d=3 superadditivity sweep, narrowed to 6 points
# across the window's upper edge (c_7 > 0 at p = 0.2555, c_7 < 0 at
# p = 0.2560) so that a run repeats it, plus one cold single-point bound
SWEEP = {"code": "rep7", "d": 3, "p_min": 0.2555, "p_max": 0.256, "steps": 6}
SWEEP_SMOKE = {"code": "rep7", "d": 3, "p_min": 0.2555, "p_max": 0.256, "steps": 2}
WINDOW_POSITIVE = 0.2555
WINDOW_NEGATIVE = 0.256
BOUND = {"code": "rep7", "d": 3, "p": WINDOW_POSITIVE}

# decoder workloads: (inner, d, N, K, p, trials).  The two simulate configs of
# each workload take about the same time; the fbound command is the reference.
# rep3/d=2 N=12 K=3 has no type-sum bound (2^4-cell alphabet, 1.7e7 types
# exceed the fbound guard), so only its report structure is checked.
SIM_D2 = (("rep3", 2, 8, 2, 0.05, 1800), ("rep3", 2, 12, 3, 0.03, 120))
FBOUND_D2 = ("rep3", 2, 8, 2, 0.05)
SIM_D3 = (("trivial1", 3, 8, 2, 0.1, 70), ("rep2", 3, 6, 1, 0.1, 1300))
FBOUND_D3 = ("trivial1", 3, 8, 2, 0.1)
SMOKE_TRIALS = 3

# exponent: 4 codes x 12 channels x 11 rates, then one grid oracle
EXP_CODES = (("trivial1", 2), ("rep3", 2), ("five_qubit", 2), ("rep2", 3))
EXP_PS = tuple(round(0.01 * i, 2) for i in range(1, 13))
EXP_RATES = tuple(i / 10 for i in range(11))
EXP_SMOKE = ((("trivial1", 2),), (0.01, 0.05), (0.0, 0.5, 1.0))
ORACLE = {"code": "trivial1", "d": 2, "p": 0.01, "R": 0.0, "grid": 100}


def exponent_grid(smoke: bool):
    """(codes, ps, rates) of the exponent workload."""
    return EXP_SMOKE if smoke else (EXP_CODES, EXP_PS, EXP_RATES)


def sweep_ps(spec: dict) -> list[float]:
    """The p grid `qcap sweep` evaluates for a sweep spec."""
    steps = spec["steps"]
    lo, hi = spec["p_min"], spec["p_max"]
    return [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]


def setup_inputs(workload: str) -> tuple[list[tuple[str, int]], list[tuple[int, float]]]:
    """The (code, d) pairs and (d, p) channels a workload builds before computing."""
    if workload == "sweep":
        d = SWEEP["d"]
        return [(SWEEP["code"], d)], [(d, p) for p in sweep_ps(SWEEP) + [BOUND["p"]]]
    if workload in ("decoder-d2", "decoder-d3"):
        sims, fbound = (SIM_D2, FBOUND_D2) if workload == "decoder-d2" else (SIM_D3, FBOUND_D3)
        configs = [s[:5] for s in sims] + [fbound]
        codes = sorted({(c[0], c[1]) for c in configs})
        return codes, sorted({(c[1], c[4]) for c in configs})
    if workload == "exponent":
        codes, ps, _ = exponent_grid(False)
        return list(codes), [(d, p) for d in sorted({d for _, d in codes}) for p in ps]
    raise ValueError(f"unknown workload {workload!r}")
