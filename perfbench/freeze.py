#!/usr/bin/env python3
"""Freeze the reference outputs the benchmark's checks compare against.

    python3 perfbench/freeze.py

Run from the root of a qcap checkout.  Runs the benchmark's commands once
at full size, plus `qcap fbound` for every simulate config whose bound fits
the fbound guard, and writes perfbench/reference.json.  reference.json was
produced this way from the commit that introduced the benchmark; rerun it
only when a change to qcap's outputs is intended and documented.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads as W


def qcap(r: run.Runner, args: list[str]) -> str:
    proc, _, _ = r.child(["-m", "qcap.cli", *args])
    if proc.returncode != 0:
        sys.exit(f"qcap {' '.join(args)} failed: {proc.stderr}")
    return proc.stdout


def main() -> None:
    r = run.Runner({}, run.ROOT, traced=False)
    args = {w: {c["label"]: c["args"] for c in run.workload_commands(w, 1, False, {})}
            for w in W.WORKLOADS}
    lines = qcap(r, args["sweep"]["sweep"]).splitlines()
    manifest = json.loads(lines[0].split(":", 1)[1])
    body = [line for line in lines if not line.startswith("#")]
    sweep = {"manifest": manifest, "schema": lines[1].split(":", 1)[1].strip(),
             "header": body[0],
             "rows": {row.split(",")[0]: [float(v) for v in row.split(",")[1:]]
                      for row in body[1:]}}

    bound = json.loads(qcap(r, args["sweep"]["bound"]))

    fbound_args = {W.FBOUND_D2: args["decoder-d2"]["fbound"],
                   W.FBOUND_D3: args["decoder-d3"]["fbound"]}
    # the bounds of the d=3 simulate configs that are not a workload's fbound
    for inner, d, N, K, p, _ in W.SIM_D3:
        fbound_args.setdefault((inner, d, N, K, p),
                               ["fbound", "--inner", inner, "--d", str(d), "--N", str(N),
                                "--K", str(K), "--p", repr(p)])
    fbound = {}
    for config, fargs in fbound_args.items():
        data = json.loads(qcap(r, fargs))
        fbound[checks.config_key(*config)] = data["result"]["infidelity_bound"]

    proc, _, _ = r.child([str(run.BENCH / "exponent_job.py"), *args["exponent"]["exponent-job"]])
    job = json.loads(proc.stdout)
    exponent = {"solves": {checks.config_key(*row[:4]): row[4] for row in job["solves"]},
                "oracle": job["oracle"]}

    for entry in (sweep, bound):
        entry["manifest"].pop("wall_time_s")
    reference = {"sweep": sweep, "bound": bound, "fbound": fbound, "exponent": exponent}
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
