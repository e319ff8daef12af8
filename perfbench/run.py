#!/usr/bin/env python3
"""End-to-end benchmark of qcap.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a qcap checkout; the package is taken from ./src.
Workloads (see BENCHMARK.json for why each one exists): sweep, decoder-d2,
decoder-d3, exponent.

Load model: qcap is a batch tool, so the benchmark is a closed loop with one
client.  Every command runs in a fresh child process, one after another,
with QCAP_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS pinned to 1.
This process and its children are pinned to one CPU.

--trace 0 measures the end-to-end metrics.  It repeats rounds while
--seconds allows (at least one round); each round times four set-up probes,
then runs the workload's commands.  Times are scaled by the CPU's speed,
measured by calibrate.py around every child, and each metric is the median
over the repetitions of a command.  --trace 1 runs one untraced round and
one round with every public function of the qcap layers wrapped by
traced.py, and reports the per-layer metrics.  Every output is checked against references
frozen in reference.json (see checks.py); a command that exits nonzero or
fails its check counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the machine and
the pinned environment.  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
PINNED_ENV = {"QCAP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_ROUND = 4


# Every time is scaled by the speed of the CPU the benchmark is pinned to:
# CALIBRATION_REF_S over the mean time of the calibration work (see
# calibrate.py) just before and just after the timed child.
# CALIBRATION_REF_S is that time on the 2-core Xeon VM the benchmark was
# written on, in a quiet spell, so scaled and raw times agree there.
CALIBRATION_REF_S = 0.06


class Calibrator:
    """The calibration helper process (calibrate.py), on this process's CPU."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def simulate_seed(seed: int, index: int) -> int:
    """The --seed of a workload's index-th simulate command."""
    return 1000 * seed + index


class Runner:
    """Runs child processes one at a time, checks their outputs and keeps
    the tally of attempted and failed operations."""

    def __init__(self, reference: dict, workdir: Path, traced: bool,
                 calibrator: Calibrator | None = None) -> None:
        self.reference = reference
        self.calibrator = calibrator
        self.calibration: float | None = None
        self.workdir = workdir
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.traces: list[dict] = []
        self.samples: dict[str, list[dict]] = defaultdict(list)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))

    def tally(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems[:5])}", file=sys.stderr)

    def child(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run the interpreter on argv; return the process, its wall time and
        the CPU's speed scale (1 without a calibrator)."""
        if self.calibrator is not None and self.calibration is None:
            self.calibration = self.calibrator.measure()
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            proc = subprocess.CompletedProcess(argv, -9, "", f"timed out after {exc.timeout} s")
        wall = time.perf_counter() - start
        if self.calibrator is None:
            return proc, wall, 1.0
        before, self.calibration = self.calibration, self.calibrator.measure()
        return proc, wall, CALIBRATION_REF_S / (0.5 * (before + self.calibration))

    def run(self, cmd: dict) -> None:
        """Run one workload command, check its output and keep its timings:
        the process wall time, the time of its main work (with the number
        of work items) and the time of its reference computation."""
        kind, args = cmd["kind"], cmd["args"]
        if self.traced:
            trace_path = self.workdir / f"trace{len(self.traces)}.json"
            argv = [str(BENCH / "traced.py"), str(trace_path), kind, *args]
        elif kind == "qcap":
            argv = ["-m", "qcap.cli", *args]
        else:
            argv = [str(BENCH / "exponent_job.py"), *args]
        proc, wall, scale = self.child(argv)
        parsed, problems = None, []
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            try:
                parsed, problems = cmd["check"](proc.stdout)
            except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if self.traced and proc.returncode == 0:
            self.traces.append(json.loads(trace_path.read_text()))
        self.tally(f"{cmd['label']} {' '.join(args)}", problems)
        sample = {"wall": wall, "scale": scale}
        if parsed is not None and not problems:
            for what, call_problems in cmd.get("calls", lambda parsed: [])(parsed):
                self.tally(what, call_problems)
            sample.update(cmd["timing"](parsed, wall))
        self.samples[cmd["label"]].append(sample)


# ---------------------------------------------------------------------------
# the commands of each workload


def qcap_command(label: str, args: list[str], check, items: int = 0) -> dict:
    """A `qcap ARGS` command.  With items > 0 it is one of the workload's
    main commands and does that many units of work; otherwise it is the
    workload's reference command."""
    if items:
        def timing(parsed, wall):
            return {"main": wall, "items": items}
    else:
        def timing(parsed, wall):
            return {"reference": wall}
    return {"label": label, "kind": "qcap", "args": args, "check": check, "timing": timing}


def workload_commands(workload: str, seed: int, smoke: bool, reference: dict) -> list[dict]:
    """The commands of one round of a workload, in order."""
    if workload == "sweep":
        s = W.SWEEP_SMOKE if smoke else W.SWEEP
        b = W.BOUND
        return [
            qcap_command("sweep", ["sweep", "--code", s["code"], "--d", str(s["d"]),
                                   "--p-min", repr(s["p_min"]), "--p-max", repr(s["p_max"]),
                                   "--steps", str(s["steps"])],
                         lambda out: checks.sweep(out, reference, s), items=s["steps"]),
            qcap_command("bound", ["bound", "--code", b["code"], "--d", str(b["d"]),
                                   "--p", repr(b["p"])],
                         lambda out: checks.bound(out, reference, b)),
        ]
    if workload == "exponent":
        # one process; the job times its solves and its oracle itself, and
        # each solve and the oracle count as operations of their own
        return [{"label": "exponent-job", "kind": "exponent-job",
                 "args": ["--smoke"] if smoke else [],
                 "check": lambda out: checks.exponent_job(out, smoke),
                 "calls": lambda job: checks.exponent_calls(job, reference),
                 "timing": lambda job, wall: {"main": job["solve_s"], "items": len(job["solves"]),
                                              "reference": job["oracle_s"]}}]
    sims, fb = (W.SIM_D2, W.FBOUND_D2) if workload == "decoder-d2" else (W.SIM_D3, W.FBOUND_D3)
    cmds = [qcap_command("fbound", ["fbound", "--inner", fb[0], "--d", str(fb[1]),
                                    "--N", str(fb[2]), "--K", str(fb[3]), "--p", repr(fb[4])],
                         lambda out: checks.fbound(out, reference, fb))]
    for i, (inner, d, N, K, p, trials) in enumerate(sims):
        n = W.SMOKE_TRIALS if smoke else trials
        cmds.append(qcap_command(
            f"simulate {inner} N={N}",
            ["simulate", "--inner", inner, "--d", str(d), "--N", str(N), "--K", str(K),
             "--p", repr(p), "--trials", str(n), "--seed", str(simulate_seed(seed, i)),
             "--resample-outer"],
            lambda out, config=(inner, d, N, K, p), n=n: checks.simulate(out, reference, config, n),
            items=n))
    return cmds


# ---------------------------------------------------------------------------
# metrics


def setup_times(r: Runner, workload: str, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import qcap.cli and build the
    workload's codes and channels."""
    codes, channels = W.setup_inputs(workload)
    expected = f"built {len(codes)} codes, {len(channels)} channels"
    times = []
    for _ in range(probes):
        proc, wall, scale = r.child([str(BENCH / "setup_probe.py"), workload])
        ok = proc.returncode == 0 and proc.stdout.strip() == expected
        r.tally("setup probe", [] if ok else [f"probe printed {proc.stdout.strip()!r}"])
        times.append(wall * scale)
    return times


def end_to_end(r: Runner, setup: list[float], peak_kb: int) -> dict:
    """Medians over the run's repetitions of each command's scaled times;
    wall_s sums them over one round."""
    def median_s(key):
        return sum(statistics.median(xs) for xs in (
            [s[key] * s["scale"] for s in samples if key in s]
            for samples in r.samples.values()) if xs)

    items = sum(max(s.get("items", 0) for s in samples) for samples in r.samples.values())
    main_s = median_s("main")
    return {
        "wall_s": median_s("wall"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "work_per_s": items / main_s if main_s else 0.0,
        "reference_s": median_s("reference"),
    }


def merge_traces(traces: list[dict]) -> dict:
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    for t in traces:
        for key, vals in t["stats"].items():
            stats[key] = [a + b for a, b in zip(stats[key], vals)]
        for key, val in t["counts"].items():
            counts[key] += val
    return {
        "stats": stats,
        "counts": counts,
        "import_s": [t["import_s"] for t in traces],
        "array_cold": [x for t in traces for x in t["array_cold"]],
        "array_warm": [x for t in traces for x in t["array_warm"]],
        "max_residual": max((t["max_residual"] for t in traces), default=0.0),
    }


def per_layer(names: list[str], trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from the merged trace.
    A layer the workload never calls reads 0."""
    stats, counts = trace["stats"], trace["counts"]

    def median0(xs):
        return statistics.median(xs) if xs else 0.0

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)

    import_s = sum(trace["import_s"])
    covered = sum(v[2] for v in stats.values()) + import_s
    trials = counts.get("simconcat.trials", 0.0)
    solves = stats.get("exponent.exponent", [0])[0]
    special = {
        "spectra.probability_array.cold_s": median0(trace["array_cold"]),
        "spectra.probability_array.warm_s": median0(trace["array_warm"]),
        "cli.import_s": median0(trace["import_s"]),
        "cli.self_s": layer_self("cli"),
        "simconcat.rref_calls_per_trial":
            counts.get("simconcat.rref_calls", 0.0) / trials if trials else 0.0,
        "exponent.solved_frac": counts.get("exponent.solved", 0.0) / solves if solves else 0.0,
        "exponent.max_residual": trace["max_residual"],
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.covered_frac": covered / traced_wall,
        "trace.unattributed_s": traced_wall - covered,
    }
    column = {"calls": 0, "busy_s": 1, "self_s": 2}
    out = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif tail == "share":
            out[name] = layer_self(head) / traced_wall
        elif tail in column:
            out[name] = stats.get(head, [0, 0.0, 0.0])[column[tail]]
        else:
            out[name] = counts.get(name, 0.0)
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "env": PINNED_ENV}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round at minimal size, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qcap" / "cli.py").is_file():
        print(f"error: no qcap sources under {ROOT / 'src'}; run from a qcap checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    cmds = workload_commands(args.workload, args.seed, args.smoke, reference)

    def one_round(r: Runner) -> float:
        start = time.perf_counter()
        for cmd in cmds:
            r.run(cmd)
        return time.perf_counter() - start

    # one CPU for this process and every child, so that the calibration
    # measures the speed of the CPU the commands run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if args.trace:
            plain = Runner(reference, Path(tmp), traced=False)
            untraced_wall = one_round(plain)
            traced = Runner(reference, Path(tmp), traced=True)
            traced_wall = one_round(traced)
            names = [m["name"] for m in spec["per_layer"]]
            values = per_layer(names, merge_traces(traced.traces), traced_wall, untraced_wall)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            # a round (set-up probes, then the workload's commands) starts
            # only if a typical one still fits in the run's time, so that the
            # probes are spread over the whole run
            r = Runner(reference, Path(tmp), traced=False, calibrator=Calibrator(PINNED_ENV))
            try:
                start = time.perf_counter()
                # untimed: fills the bytecode cache, which users do not pay on every run
                setup_times(r, args.workload, 1)
                setup, rounds = [], []
                while not rounds or not args.smoke and (time.perf_counter() - start
                                                        + statistics.median(rounds)
                                                        <= args.seconds):
                    round_start = time.perf_counter()
                    setup += setup_times(r, args.workload,
                                         1 if args.smoke else SETUP_PROBES_PER_ROUND)
                    one_round(r)
                    rounds.append(time.perf_counter() - round_start)
                # read before the calibration helper, the one live child, is reaped
                peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            finally:
                r.calibrator.close()
            values = end_to_end(r, setup, peak_kb)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            attempted, failed = r.attempted, r.failed
            print(f"# {len(rounds)} round(s); raw wall time (s) x speed scale of each "
                  "repetition:", file=sys.stderr)
            for label, samples in r.samples.items():
                print(f"#   {label}: " + " ".join(f"{s['wall']:.3f}x{s['scale']:.2f}"
                                                 for s in samples), file=sys.stderr)
    try:
        scratch.rmdir()
    except OSError:  # another run still uses it
        pass

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:>11}  {name:<42} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:>11}  error_rate {failed}/{attempted}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
