"""The exponent workload's child process, written the way demos/05 uses the
library: many exponent() solves in one process, then one grid oracle.

    python3 perfbench/exponent_job.py [--smoke]

Prints one JSON object: every solve as [code, d, p, R, E, kkt_residual,
threshold, iterations], the solve time, the oracle value and its time.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

import importlib
import json
import sys
import time

import qcap.channels as channels_mod
import qcap.codes as codes_mod
from workloads import ORACLE, exponent_grid

# the package re-exports the function exponent() under its submodule's name,
# so `import qcap.exponent as ...` would bind the function, not the module
exponent_mod = importlib.import_module("qcap.exponent")


def main(argv: list[str]) -> None:
    codes, ps, rates = exponent_grid("--smoke" in argv)
    cases = []
    for name, d in codes:
        code = codes_mod.catalog(name, d)
        for p in ps:
            ch = channels_mod.depolarizing(d, p)
            cases += [(name, d, p, R, code, ch) for R in rates]

    solves = []
    start = time.perf_counter()
    for name, d, p, R, code, ch in cases:
        rep = exponent_mod.exponent(code, ch, R)
        solves.append([name, d, p, R, rep.value, rep.kkt_residual, rep.threshold,
                       rep.iterations])
    solve_s = time.perf_counter() - start

    code = codes_mod.catalog(ORACLE["code"], ORACLE["d"])
    ch = channels_mod.depolarizing(ORACLE["d"], ORACLE["p"])
    start = time.perf_counter()
    oracle = exponent_mod.exponent_grid_oracle(code, ch, ORACLE["R"], ORACLE["grid"])
    oracle_s = time.perf_counter() - start
    print(json.dumps({"solves": solves, "solve_s": solve_s,
                      "oracle": oracle, "oracle_s": oracle_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
