"""Output checks of the benchmark's commands.

Each check takes a command's stdout and returns (parsed, problems); an
empty problem list means the output is correct.  Numbers are compared with
references frozen from the seed commit in reference.json (see freeze.py).
Simulated failure counts are not pinned: a decoder that changes its
random streams under a documented seed-contract bump still passes, as long
as its failure rate stays within the exact type-sum bound plus 3 binomial
sigma wherever that bound is known.
"""

from __future__ import annotations

import json
import math

import workloads as W

SWEEP_TOL = 1e-12       # absolute, scaled by max(1, |reference|)
FBOUND_RTOL = 1e-12
KKT_TOL = 1e-8          # the solver's own certificate tolerance
MONOTONE_SLACK = 1e-9   # E(R) may rise by at most this between adjacent rates
EXPONENT_TOL = 1e-7     # two solvers certified to 1e-8 differ by at most 2e-8
ORACLE_SLACK = 1e-9


def config_key(*parts) -> str:
    return "/".join(repr(x) if isinstance(x, float) else str(x) for x in parts)


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _manifest_problems(manifest: dict, reference: dict) -> list[str]:
    """The manifest must name the same subcommand and parameters; its wall
    time and any keys added later are not compared."""
    return [f"manifest {key} {manifest.get(key)!r} != {reference[key]!r}"
            for key in ("tool", "subcommand", "parameters") if manifest.get(key) != reference[key]]


def sweep(out: str, reference: dict, spec: dict):
    ref = reference["sweep"]
    comments = [line[1:].strip() for line in out.splitlines() if line.startswith("#")]
    body = [line for line in out.splitlines() if line and not line.startswith("#")]
    manifest = json.loads(next(c for c in comments if c.startswith("manifest:"))[9:])
    problems = []
    expected_params = dict(ref["manifest"]["parameters"], p_min=spec["p_min"],
                           p_max=spec["p_max"], steps=spec["steps"])
    problems += _manifest_problems(manifest, dict(ref["manifest"], parameters=expected_params))
    if f"schema: {ref['schema']}" not in comments:
        problems.append("schema line missing")
    if body[0] != ref["header"]:
        problems.append(f"header {body[0]!r}")
    rows = {}
    for line in body[1:]:
        p, *values = line.split(",")
        rows[float(p)] = [float(v) for v in values]
    if sorted(rows) != sorted(float(f"{p:.12g}") for p in W.sweep_ps(spec)):
        problems.append(f"p grid {sorted(rows)} does not match the requested sweep")
    for p, values in rows.items():
        ref_values = ref["rows"].get(f"{p:.12g}")
        if ref_values is None:
            problems.append(f"no reference row for p={p}")
        elif not all(_close(v, r, SWEEP_TOL) for v, r in zip(values, ref_values)):
            problems.append(f"row p={p}: {values} != {ref_values}")
    # the paper's window: c_7 > 0 inside it, c_7 < 0 just above it
    if not rows.get(W.WINDOW_POSITIVE, [0.0])[0] > 0.0:
        problems.append(f"c_n at p={W.WINDOW_POSITIVE} is not positive")
    if not rows.get(W.WINDOW_NEGATIVE, [0.0])[0] < 0.0:
        problems.append(f"c_n at p={W.WINDOW_NEGATIVE} is not negative")
    return rows, problems


def bound(out: str, reference: dict, spec: dict):
    data = json.loads(out)
    ref = reference["bound"]
    problems = _manifest_problems(data["manifest"], ref["manifest"])
    problems += [f"{key} {data['result'][key]!r} != {value!r}"
                 for key, value in ref["result"].items()
                 if not _close(data["result"][key], value, SWEEP_TOL)]
    if not data["result"]["c_n"] > 0.0:
        problems.append(f"c_n at p={spec['p']} is not positive")
    return data, problems


def fbound(out: str, reference: dict, config: tuple):
    data = json.loads(out)
    ref = reference["fbound"][config_key(*config)]
    value = data["result"]["infidelity_bound"]
    problems = [] if abs(value - ref) <= FBOUND_RTOL * abs(ref) else [f"bound {value!r} != {ref!r}"]
    if (data["result"]["N"], data["result"]["K"]) != config[2:4]:
        problems.append("N, K not echoed")
    return data, problems


def simulate(out: str, reference: dict, config: tuple, trials: int):
    data = json.loads(out)
    res = data["result"]
    problems = []
    failures = res["failures"]
    if res["trials"] != trials or not 0 <= failures <= trials:
        problems.append(f"{failures} failures in {res['trials']} trials, asked for {trials}")
    if res["failure_rate"] != failures / trials:
        problems.append("failure_rate != failures / trials")
    if not 0.0 <= res["wilson_low"] <= res["failure_rate"] <= res["wilson_high"] <= 1.0:
        problems.append("Wilson interval does not contain the rate")
    bound_value = reference["fbound"].get(config_key(*config))
    if bound_value is not None:
        sigma = math.sqrt(bound_value * (1.0 - bound_value) / trials)
        if res["failure_rate"] > bound_value + 3.0 * sigma:
            problems.append(f"failure rate {res['failure_rate']} above bound {bound_value} + 3 sigma")
    return data, problems


def exponent_job(out: str, smoke: bool):
    """The job's output must cover the whole (code, p, R) grid."""
    job = json.loads(out)
    codes, ps, rates = W.exponent_grid(smoke)
    want = [config_key(name, d, p, R) for name, d in codes for p in ps for R in rates]
    got = [config_key(*row[:4]) for row in job["solves"]]
    return job, ([] if got == want else ["solve grid differs from the workload's"])


def exponent_calls(job: dict, reference: dict):
    """(what, problems) for every solve and for the grid oracle."""
    ref = reference["exponent"]
    previous = {}
    results = []
    for name, d, p, R, E, residual, threshold, iterations in job["solves"]:
        key = config_key(name, d, p, R)
        problems = []
        if not residual <= KKT_TOL:
            problems.append(f"kkt_residual {residual}")
        if not E >= 0.0:
            problems.append(f"E = {E} < 0")
        before = previous.get((name, d, p))
        if before is not None and E > before + MONOTONE_SLACK:
            problems.append(f"E rises with R: {before} -> {E}")
        previous[(name, d, p)] = E
        if abs(E - ref["solves"][key]) > EXPONENT_TOL:
            problems.append(f"E = {E} != reference {ref['solves'][key]}")
        results.append((f"exponent {key}", problems))

    o = W.ORACLE
    solver = next(row[4] for row in job["solves"]
                  if config_key(*row[:4]) == config_key(o["code"], o["d"], o["p"], o["R"]))
    problems = []
    if job["oracle"] < solver - ORACLE_SLACK:
        problems.append(f"grid oracle {job['oracle']} below solver value {solver}")
    if abs(job["oracle"] - ref["oracle"]) > FBOUND_RTOL * abs(ref["oracle"]):
        problems.append(f"grid oracle {job['oracle']} != reference {ref['oracle']}")
    results.append(("grid oracle", problems))
    return results
