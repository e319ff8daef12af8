"""Command-line front end: reproducible experiments with machine-readable
output.

Subcommands: bound, sweep, exponent, simulate, fbound, oracle-check, catalog.
Single results are JSON objects {"manifest": ..., "result": ...}; sweeps are
CSV with the manifest and schema version in leading comment lines.  Exit
codes: 0 ok, 2 validation failure, 3 guard exceeded, 4 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from ._util import ConvergenceError, GuardError, QcapError, ValidationError
from .channels import PauliChannel, channel_from_file, depolarizing
from .codes import StabilizerCode, catalog, catalog_names, read_code_file, read_generators
from .exponent import exponent, exponent_grid_oracle
from .qoracle import oracle_report
from .simconcat import SEED_CONTRACT, SimConfig, _check_blocks, fidelity_bound_exact, simulate
from .spectra import coherent_bound

SWEEP_SCHEMA = "qcap-sweep-v1"
SWEEP_COLUMNS = ("p", "c_n", "per_symbol", "H_syndrome", "H_cond")


def _manifest(args: argparse.Namespace, start: float) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {
        "tool": "qcap",
        "version": __version__,
        "subcommand": args.command,
        "parameters": params,
        "wall_time_s": round(time.time() - start, 6),
    }


def _write(args, text: str) -> None:
    """Write text to --out if given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(args, start, result, **manifest) -> None:
    payload = {"manifest": {**_manifest(args, start), **manifest}, "result": result}
    _write(args, json.dumps(payload, indent=2, sort_keys=True))


def _code_from_spec(spec: str, d) -> StabilizerCode:
    if os.path.exists(spec):
        code = read_code_file(spec)
        if d is not None and d != code.d:
            raise ValidationError(f"--d {d} does not match d = {code.d} in the code file")
        return code
    if d is None:
        raise ValidationError("--d is required with a catalog code name")
    return catalog(spec, d)


def _resolve_channel(args, d: int) -> PauliChannel:
    if args.channel == "depolarizing":
        if args.probs is not None:
            raise ValidationError("--probs applies to --channel custom only")
        if args.p is None:
            raise ValidationError("--p is required for the depolarizing channel")
        return depolarizing(d, args.p)
    # argparse's choices leave "custom" as the only other channel
    if args.p is not None:
        raise ValidationError("--p applies to --channel depolarizing only")
    if not args.probs:
        raise ValidationError("--probs FILE is required for a custom channel")
    return channel_from_file(args.probs, d)


def _base(args, d: int) -> float:
    return {"d": float(d), "2": 2.0, "e": math.e}[args.log_base]


def _cmd_bound(args, start) -> None:
    code = _code_from_spec(args.code, args.d)
    ch = _resolve_channel(args, code.d)
    rep = coherent_bound(code, ch, _base(args, code.d))
    _emit_json(args, start, dataclasses.asdict(rep))


def _cmd_sweep(args, start) -> None:
    code = _code_from_spec(args.code, args.d)
    if args.channel != "depolarizing":
        raise ValidationError("sweep supports the depolarizing family only")
    for flag, value in (("--p", args.p), ("--probs", args.probs)):
        if value is not None:
            raise ValidationError(f"sweep does not take {flag}; it sweeps --p-min..--p-max")
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    ps = [args.p_min + (args.p_max - args.p_min) * i / max(args.steps - 1, 1)
          for i in range(args.steps)]
    reports = [coherent_bound(code, depolarizing(code.d, p), _base(args, code.d)) for p in ps]
    lines = [f"# manifest: {json.dumps(_manifest(args, start), sort_keys=True)}",
             f"# schema: {SWEEP_SCHEMA}",
             ",".join(SWEEP_COLUMNS)]
    for p, rep in zip(ps, reports):
        lines.append(f"{p:.12g},{rep.c_n:.17g},{rep.per_symbol:.17g},"
                     f"{rep.H_syndrome:.17g},{rep.H_cond:.17g}")
    _write(args, "\n".join(lines))


def _cmd_exponent(args, start) -> None:
    code = _code_from_spec(args.code, args.d)
    ch = _resolve_channel(args, code.d)
    result = dataclasses.asdict(exponent(code, ch, args.rate))
    result["E"] = result.pop("value")
    if args.oracle_grid is not None:
        result["grid_oracle"] = exponent_grid_oracle(code, ch, args.rate, args.oracle_grid)
        result["grid_steps"] = args.oracle_grid
    _emit_json(args, start, result)


def _cmd_simulate(args, start) -> None:
    inner = _code_from_spec(args.inner, args.d)
    ch = _resolve_channel(args, inner.d)
    # N and K as SimConfig checks them, before an outer file is read against kN
    _check_blocks(inner, args.N, args.K)
    outer = (None if args.outer == "random"
             else read_generators(args.outer, (inner.d, inner.k * args.N)))
    cfg = SimConfig(inner=inner, outer=outer, N=args.N, K=args.K, channel=ch,
                    trials=args.trials, seed=args.seed,
                    resample_outer=args.resample_outer)
    _emit_json(args, start, dataclasses.asdict(simulate(cfg)), seed_contract=SEED_CONTRACT)


def _cmd_fbound(args, start) -> None:
    inner = _code_from_spec(args.inner, args.d)
    ch = _resolve_channel(args, inner.d)
    value = fidelity_bound_exact(inner, args.N, args.K, ch)
    _emit_json(args, start, {"infidelity_bound": value, "N": args.N, "K": args.K})


def _cmd_oracle_check(args, start) -> None:
    code = _code_from_spec(args.code, args.d)
    ch = _resolve_channel(args, code.d)
    base = _base(args, code.d)
    rep = oracle_report(code, ch, base)
    cb = coherent_bound(code, ch, base)
    diff = rep.coherent_info - cb.c_n
    print(f"coherent information (matrix oracle): {rep.coherent_info:.15f}", file=sys.stderr)
    print(f"coherent-information bound c_n       : {cb.c_n:.15f}", file=sys.stderr)
    print(f"difference                            : {diff:.3e}", file=sys.stderr)
    _emit_json(args, start, {
        "coherent_info_direct": rep.coherent_info,
        "c_n": cb.c_n,
        "difference": diff,
        "entropy_output": rep.entropy_output,
        "entropy_joint": rep.entropy_joint,
    })


def _cmd_catalog(args, start) -> None:
    for name in catalog_names():
        print(name)


def _add_code_channel_flags(sp, code_flag: str = "code", *, log_base: bool = True) -> None:
    sp.add_argument(f"--{code_flag}", required=True, help="catalog name or code file path")
    sp.add_argument("--d", type=int,
                    help="field size (prime); required for catalog names, must match a code file")
    sp.add_argument("--channel", default="depolarizing", choices=["depolarizing", "custom"])
    sp.add_argument("--p", type=float, help="depolarizing parameter")
    sp.add_argument("--probs", help="custom channel file: lines 'u v prob', zero letters optional")
    if log_base:
        sp.add_argument("--log-base", dest="log_base", choices=["d", "2", "e"], default="d")
    sp.add_argument("--out", help="write the result to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="coherent-information lower bound for one channel")
    _add_code_channel_flags(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("sweep", help="bound across a depolarizing-parameter grid (CSV)")
    _add_code_channel_flags(sp)
    sp.add_argument("--p-min", dest="p_min", type=float, required=True)
    sp.add_argument("--p-max", dest="p_max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("exponent", help="error exponent at an outer rate (base-d logarithms)")
    _add_code_channel_flags(sp, log_base=False)
    sp.add_argument("--rate", type=float, required=True, help="outer rate R in [0, 1]")
    sp.add_argument("--oracle-grid", dest="oracle_grid", type=int,
                    help="also evaluate the brute-force grid oracle at this resolution")
    sp.set_defaults(func=_cmd_exponent)

    sp = sub.add_parser("simulate", help="Monte Carlo decoder simulation")
    _add_code_channel_flags(sp, "inner", log_base=False)
    sp.add_argument("--outer", default="random", help="'random' or an outer code file")
    sp.add_argument("--N", type=int, required=True, help="number of inner blocks")
    sp.add_argument("--K", type=int, required=True, help="logical symbols kept by the outer code")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--resample-outer", dest="resample_outer", action="store_true",
                    help="draw a fresh random outer code every trial (needs --outer random)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fbound", help="exact type-sum bound on average infidelity")
    _add_code_channel_flags(sp, "inner", log_base=False)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.set_defaults(func=_cmd_fbound)

    sp = sub.add_parser("oracle-check", help="matrix-oracle coherent information vs c_n")
    _add_code_channel_flags(sp)
    sp.set_defaults(func=_cmd_oracle_check)

    sp = sub.add_parser("catalog", help="list known code names")
    sp.set_defaults(func=_cmd_catalog)
    return ap


def run(argv=None) -> int:
    start = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, start)
    except (GuardError, MemoryError) as exc:
        print(f"error (guard): {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error (non-convergence): {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, OverflowError, QcapError) as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
