"""Run one qcap command, or the exponent job, with every public function of
the qcap layers wrapped by a timer.

    python3 perfbench/traced.py TRACE.json qcap ARGS...
    python3 perfbench/traced.py TRACE.json exponent-job [--smoke]

The command's own output goes to stdout as usual.  TRACE.json receives, per
wrapped function "module.function", [calls, busy_s, self_s]: busy time
counts only the outermost activation of a function, and self time is busy
time minus the time of wrapped functions called inside it.  It also
receives the import time of qcap.cli and a few counts computed from the
arguments and results the API exposes.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import qcap.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

LAYERS = ("spectra", "symplectic", "codes", "simconcat", "exponent", "gf", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.depth: dict[str, int] = defaultdict(int)
        self.children: list[float] = []  # wrapped-child time of each open frame
        self.counts: dict[str, float] = defaultdict(float)
        self.array_cold: list[float] = []
        self.array_warm: list[float] = []
        self.max_residual = 0.0
        self._seen_codes: set = set()
        self._count_types = importlib.import_module("qcap.exponent").count_types

    def wrap(self, key: str, fn):
        self.stats[key] = [0, 0.0, 0.0]
        observe = getattr(self, "_observe_" + key.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self.depth[key] == 0
            self.depth[key] += 1
            self.children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.depth[key] -= 1
                child = self.children.pop()
                if self.children:
                    self.children[-1] += dt
                st = self.stats[key]
                st[0] += 1
                st[2] += dt - child
                if outermost:
                    st[1] += dt
            if observe is not None:
                observe(args, result, dt)
            return result

        return wrapper

    # counts taken at the layer boundary, from arguments and results

    def _observe_spectra_probability_array(self, args, result, dt):
        code = args[0]
        if code in self._seen_codes:
            self.array_warm.append(dt)
        else:
            self._seen_codes.add(code)
            self.array_cold.append(dt)
        self.counts["spectra.array_cells"] += result.table.size

    def _observe_symplectic_rref(self, args, result, dt):
        if self.depth["simconcat.simulate"]:
            self.counts["simconcat.rref_calls"] += 1

    def _observe_simconcat_simulate(self, args, result, dt):
        cfg = args[0]
        inner = cfg.inner
        self.counts["simconcat.trials"] += cfg.trials
        self.counts["simconcat.candidates_scored"] += (
            cfg.trials * inner.d ** (inner.k * cfg.N + cfg.K))

    def _observe_simconcat_fidelity_bound_exact(self, args, result, dt):
        inner, N = args[0], args[1]
        self.counts["exponent.types"] += self._count_types(inner.d, inner.n, inner.k, N)

    def _observe_exponent_exponent(self, args, result, dt):
        code = args[0]
        self.counts["exponent.iterations"] += result.iterations
        self.counts["exponent.solved"] += code.k * result.rate < result.threshold
        self.max_residual = max(self.max_residual, result.kkt_residual)

    def install(self) -> None:
        """Wrap every public function of each layer and rebind every qcap
        module attribute that refers to it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("qcap." + layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "qcap" or modname.startswith("qcap."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, name, wrappers[id(obj)])

    def record(self) -> dict:
        return {"import_s": IMPORT_S, "stats": self.stats, "counts": dict(self.counts),
                "array_cold": self.array_cold, "array_warm": self.array_warm,
                "max_residual": self.max_residual}


def main() -> int:
    out_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    rc = 0
    try:
        if kind == "exponent-job":
            import exponent_job
            exponent_job.main(argv)
        else:
            rc = qcap.cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
