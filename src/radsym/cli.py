"""Command-line front end.

Subcommands: degree, reduce, symbol, density, charsum, check, plus a batch
mode reading one JSON config per stdin line and writing one JSON report per
line.  JSON reports have the stable shape {config, result, checkpoints,
warnings}; integers are serialized as decimal strings so that degrees and
norms survive consumers with 64-bit number parsing.  Identical configs give
byte-identical JSON regardless of --threads.

The config echo and the density and charsum results and checkpoint rows are
the fields of RunConfig, DensityReport (less the echoed request and its
checkpoints), CheckpointStat and CharSumStat, built by ``_fields`` in field
order; ``_stringify`` and ``_fmt`` alone decide how tuples are written.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from .arith import FactorizationError, is_prime
from .cyclotomic import poly_str, primes_above, residue_symbol
from .density import _check_threads, character_sum, density_experiment
from .radical import (
    DegreeMismatchError,
    OracleScaleError,
    brute_force_kernel,
    checked_degree,
    consistency_check,
    normalize_inputs,
    rank_and_kernel,
    reduce_basis,
)

EXIT_OK = 0
EXIT_USER = 2
EXIT_INTERNAL = 3

# Largest accepted l (exclusive).  Finding the ideals above p factors Phi_l
# mod p, of degree l - 1, in pure Python.  At l = 1021 and p near 10**6 on a
# 2-vCPU host that took 0.07-0.3 s at every f below l - 1 (f = l - 1 costs
# nothing): most at f = 1, with 1020 linear factors, and at f = 15 and 17,
# where the period and field paths meet; 0.07-0.1 s of it is the check that
# the factors multiply to Phi_l, whose cost grows as l**2.  At l near 1000,
# p < 200 with f >= k, where one period element rarely separates the k
# factors and the period path takes several rounds of draws, took
# 0.03-0.12 s, most of it in that check.
MAX_L = 1024


@dataclass(frozen=True)
class RunConfig:
    """One request.  Field names double as the argparse dests, the batch
    JSON keys and the report's config echo, whose key order is field order."""

    command: str
    l: int = 3
    radicands: tuple[int, ...] = ()
    targets: tuple[int, ...] | None = None
    norm_bound: int | None = None
    seed: int = 0
    format: str = "text"
    threads: int = 1
    oracle: bool = False
    prime: int | None = None
    ideal: str = "all"
    n: int | None = None


def _validate_config(cfg: RunConfig) -> None:
    if cfg.l < 3 or cfg.l % 2 == 0 or not is_prime(cfg.l):
        raise ValueError(f"l must be an odd prime >= 3, got {cfg.l}")
    if cfg.l >= MAX_L:
        raise ValueError(f"l must be below {MAX_L}, got {cfg.l}")
    if any(a == 0 for a in cfg.radicands):
        raise ValueError("radicands must be nonzero")
    if cfg.targets is not None and len(cfg.targets) != len(cfg.radicands):
        raise ValueError(
            f"got {len(cfg.targets)} targets for {len(cfg.radicands)} radicands"
        )
    _check_threads(cfg.threads)
    if cfg.format not in ("text", "json"):
        raise ValueError(f"unknown format {cfg.format!r}")


def _fields(record, skip=()) -> dict:
    """{name: value} for the fields of a dataclass record, in field order,
    leaving out the names in ``skip``."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


def _report(cfg: RunConfig, result: dict, checkpoints=(), warnings=()) -> dict:
    return {
        "config": _fields(cfg),
        "result": result,
        "checkpoints": checkpoints,
        "warnings": warnings,
    }


def _cmd_degree(cfg: RunConfig) -> dict:
    s = normalize_inputs(cfg.l, cfg.radicands)
    red = reduce_basis(s)
    kernel = rank_and_kernel(s)
    value = checked_degree(red, kernel)
    warnings = []
    oracle = None
    try:
        relations = brute_force_kernel(s)
    except OracleScaleError as exc:
        if cfg.oracle:
            raise OracleScaleError(f"--oracle requested but {exc}") from None
        warnings.append("brute-force cross-check skipped: beyond the scale guard")
    else:
        cross = cfg.l ** len(s.normalized) // relations
        if cross != value:
            raise DegreeMismatchError(
                f"certified oracle gives {cross}, methods give {value}"
            )
        oracle = {"relation_count": relations, "degree": cross}
    result = {
        "degree": value,
        "rank": kernel.rank,
        "t": red.t,
        "b": red.b,
        "exclusive_primes": red.exclusive_primes,
        "kernel_basis": kernel.basis,
        "normalized": s.normalized,
        "dropped_indices": [i for i, pos in enumerate(s.index_map) if pos is None],
        "oracle": oracle,
    }
    return _report(cfg, result, warnings=warnings)


def _cmd_reduce(cfg: RunConfig) -> dict:
    s = normalize_inputs(cfg.l, cfg.radicands)
    red = reduce_basis(s)
    result = {
        "t": red.t,
        "b": red.b,
        "exclusive_primes": red.exclusive_primes,
        "transform": [[int(x) for x in row] for row in red.transform],
        "degree": checked_degree(red, rank_and_kernel(s)),
        "normalized": s.normalized,
        "dropped_indices": [i for i, pos in enumerate(s.index_map) if pos is None],
    }
    return _report(cfg, result)


def _cmd_symbol(cfg: RunConfig) -> dict:
    if cfg.prime is None:
        raise ValueError("symbol requires -p/--prime")
    if not is_prime(cfg.prime):
        raise ValueError(f"{cfg.prime} is not prime")
    ideals = primes_above(cfg.prime, cfg.l)
    ideal_count = len(ideals)
    if cfg.ideal != "all":
        try:
            index = int(cfg.ideal)
        except ValueError:
            raise ValueError(f"--ideal must be an index or 'all', got {cfg.ideal!r}")
        if not 0 <= index < len(ideals):
            raise ValueError(f"ideal index {index} out of range 0..{len(ideals) - 1}")
        ideals = [ideals[index]]
    rows = []
    for k, ideal in enumerate(ideals):
        symbols = [
            {"radicand": a, "exponent": residue_symbol(a, ideal)}
            for a in cfg.radicands
        ]
        rows.append(
            {
                "index": k if cfg.ideal == "all" else int(cfg.ideal),
                "g": poly_str(ideal.g),
                "g_coeffs": ideal.g,
                "norm": ideal.norm,
                "symbols": symbols,
            }
        )
    result = {
        "prime": cfg.prime,
        "inertia_degree": ideals[0].f,
        "ideal_count": ideal_count,
        "ideals": rows,
    }
    return _report(cfg, result)


def _cmd_density(cfg: RunConfig) -> dict:
    if cfg.targets is None:
        raise ValueError("density requires --targets")
    if cfg.norm_bound is None:
        raise ValueError("density requires -x/--norm-bound")
    s = normalize_inputs(cfg.l, cfg.radicands)
    rep = density_experiment(s, cfg.targets, cfg.norm_bound, threads=cfg.threads)
    # the echoed request fields are in the config already
    result = _fields(rep, skip=("l", "norm_bound", "radicands", "targets", "checkpoints"))
    result["char_sums"] = [_fields(c) for c in rep.char_sums]
    return _report(cfg, result, checkpoints=[_fields(row) for row in rep.checkpoints])


def _cmd_charsum(cfg: RunConfig) -> dict:
    if cfg.n is None:
        raise ValueError("charsum requires an integer argument")
    if cfg.norm_bound is None:
        raise ValueError("charsum requires -x/--norm-bound")
    rep = character_sum(cfg.n, cfg.l, cfg.norm_bound, threads=cfg.threads)
    return _report(cfg, _fields(rep.final), checkpoints=[_fields(row) for row in rep.checkpoints])


def _cmd_check(cfg: RunConfig) -> dict:
    if cfg.targets is None:
        raise ValueError("check requires --targets")
    s = normalize_inputs(cfg.l, cfg.radicands)
    kernel = rank_and_kernel(s)
    result = {
        "consistent": consistency_check(s, cfg.targets, kernel),
        "rank": kernel.rank,
        "kernel_basis": kernel.basis,
        "dropped_indices": [i for i, pos in enumerate(s.index_map) if pos is None],
    }
    return _report(cfg, result)


_HANDLERS = {
    "degree": _cmd_degree,
    "reduce": _cmd_reduce,
    "symbol": _cmd_symbol,
    "density": _cmd_density,
    "charsum": _cmd_charsum,
    "check": _cmd_check,
}


def _stringify(obj):
    """Integers become decimal strings (bools stay bools) for safe transport."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    return obj


def _dumps(report: dict) -> str:
    return json.dumps(_stringify(report), sort_keys=True, separators=(",", ":"))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + " ".join(f"{k}={_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _render_text(report: dict) -> str:
    lines = ["config: " + " ".join(f"{k}={_fmt(v)}" for k, v in report["config"].items())]
    for key, value in report["result"].items():
        lines.append(f"{key}: {_fmt(value)}")
    if report["checkpoints"]:
        lines.append("checkpoints:")
        for row in report["checkpoints"]:
            lines.append("  " + " ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def _targets_type(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"targets must be comma-separated integers, got {text!r}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsym",
        description=(
            "Degrees of radical extensions, power residue symbols at prime "
            "ideals, and empirical symbol-density experiments."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--threads", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", parents=[common], help="degree of the radical extension")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("radicands", type=int, nargs="+")
    p.add_argument(
        "--oracle", action="store_true", help="force the certified relation-count cross-check"
    )

    p = sub.add_parser("reduce", parents=[common], help="exclusive-prime reduction basis")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("radicands", type=int, nargs="+")

    p = sub.add_parser("symbol", parents=[common], help="residue symbols at ideals above p")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--ideal", default="all", help="canonical ideal index, or 'all'")
    p.add_argument("radicands", type=int, nargs="+")

    p = sub.add_parser("density", parents=[common], help="empirical symbol-tuple density")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-x", "--norm-bound", dest="norm_bound", type=int, required=True)
    p.add_argument("--targets", type=_targets_type, required=True,
                   help="comma-separated exponents, one per radicand (may be empty)")
    p.add_argument("radicands", type=int, nargs="*")

    p = sub.add_parser("charsum", parents=[common], help="root-of-unity character sum")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-x", "--norm-bound", dest="norm_bound", type=int, required=True)
    p.add_argument("n", type=int)

    p = sub.add_parser("check", parents=[common], help="consistency of a target assignment")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--targets", type=_targets_type, required=True)
    p.add_argument("radicands", type=int, nargs="*")

    sub.add_parser("batch", help="read JSON configs from stdin, one per line")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
    values["radicands"] = tuple(values["radicands"])
    return RunConfig(**values)


def _int(value) -> int:
    """A JSON integer, or a decimal string of one as the echo writes it;
    bools and floats are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError("not an integer")
    return int(value)


def _int_tuple(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(_int(x) for x in value)


def _exactly(kind: type):
    """A converter that accepts only JSON values of ``kind``, unchanged."""

    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value

    return convert


# Batch JSON converters for the fields that are not integers; every other
# field goes through _int().  null is kept only where it is the default.
_FROM_JSON = {
    "command": _exactly(str),
    "radicands": _int_tuple,
    "targets": _int_tuple,
    "format": _exactly(str),
    "oracle": _exactly(bool),
    "ideal": _exactly(str),
}


def _config_from_json(line: str) -> RunConfig:
    try:
        payload = json.loads(line)
    except RecursionError:  # how json reports a line nested too deeply
        raise ValueError("config is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {"format": "json"}  # batch reports default to JSON
    for f in fields(RunConfig):
        if f.name not in payload:
            continue
        value = payload[f.name]
        try:
            if value is not None or f.default is not None:
                value = _FROM_JSON.get(f.name, _int)(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"bad value for config key {f.name!r}: {value!r}") from None
        values[f.name] = value
    if "command" not in values:
        raise ValueError("config must name a command")
    if values["command"] not in _HANDLERS:
        raise ValueError(f"unknown command {values['command']!r}")
    return RunConfig(**values)


def _execute(cfg: RunConfig) -> dict:
    _validate_config(cfg)
    return _HANDLERS[cfg.command](cfg)


# Exceptions reported as an error instead of a traceback: a broken invariant
# is internal, the rest are problems with the input (running out of memory
# means the request was too large for this machine).
_INTERNAL = (DegreeMismatchError, AssertionError)
_REPORTED = _INTERNAL + (ValueError, KeyError, FactorizationError, MemoryError)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message for an exception in ``_REPORTED``."""
    if isinstance(exc, _INTERNAL):
        return EXIT_INTERNAL, f"internal: {exc}"
    if isinstance(exc, MemoryError):
        return EXIT_USER, f"out of memory: {exc}" if str(exc) else "out of memory"
    return EXIT_USER, str(exc)


def _run(cfg: RunConfig) -> int:
    try:
        report = _execute(cfg)
    except _REPORTED as exc:
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code
    print(_dumps(report) if cfg.format == "json" else _render_text(report))
    return EXIT_OK


def _run_batch(stream=None) -> int:
    stream = sys.stdin if stream is None else stream
    worst = EXIT_OK
    for line_no, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            report = _execute(_config_from_json(line))
        except _REPORTED as exc:
            code, message = _failure(exc)
            report = {"error": message, "line": line_no}
            worst = max(worst, code)
        print(_dumps(report))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "batch":
        return _run_batch()
    return _run(_config_from_args(args))


if __name__ == "__main__":
    raise SystemExit(main())
