"""Command-line front end.

Subcommands: degree, reduce, symbol, density, charsum, check, plus a batch
mode reading one JSON config per stdin line and writing one JSON report per
line.  JSON reports have the stable shape {config, result, checkpoints,
warnings}; integers are serialized as decimal strings so that degrees and
norms survive consumers with 64-bit number parsing.  Identical configs give
byte-identical JSON regardless of --threads.

A report is built once, ready to write: every integer in it is already its
decimal string (``_fields`` and the handlers convert where they put the
report together), tuples are lists and records are dicts, so ``_dumps`` is
one call to a shared encoder and ``_render_text`` prints each string as its
integer would have printed.  The config echo and the density and charsum
results and checkpoint rows are the fields of RunConfig, DensityReport (less
the echoed request and its checkpoints), CheckpointStat and CharSumStat, in
field order.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from functools import cache

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


# {name: default} of RunConfig in field order, read once at import and shared
# by every request.
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


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


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _value(value):
    """A record's field as the report holds it: integers as decimal strings
    (bools stay bools), tuples as lists and nested records as dicts.  It
    runs for every field of every report, so it compares types instead of
    calling isinstance() or is_dataclass()."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is tuple or kind is list:
        return [_value(v) for v in value]
    if hasattr(kind, "__dataclass_fields__"):  # a nested record
        return _fields(value)
    return value


def _fields(record, skip=()) -> dict:
    """{name: value} for the fields of a dataclass record, in field order,
    leaving out the names in ``skip``, each converted by ``_value``."""
    return {
        name: _value(getattr(record, name))
        for name in _field_names(type(record))
        if name not in skip
    }


def _strs(values) -> list[str]:
    """Decimal strings of a sequence of integers."""
    return [str(v) for v in values]


def _dropped(s) -> list[str]:
    """Decimal strings of the raw positions that normalization dropped."""
    return [str(i) for i, pos in enumerate(s.index_map) if pos is None]


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
        oracle = {"relation_count": str(relations), "degree": str(cross)}
    result = {
        "degree": str(value),
        "rank": str(kernel.rank),
        "t": str(red.t),
        "b": _strs(red.b),
        "exclusive_primes": _strs(red.exclusive_primes),
        "kernel_basis": [_strs(row) for row in kernel.basis],
        "normalized": _strs(s.normalized),
        "dropped_indices": _dropped(s),
        "oracle": oracle,
    }
    return _report(cfg, result, warnings=warnings)


def _cmd_reduce(cfg: RunConfig) -> dict:
    s = normalize_inputs(cfg.l, cfg.radicands)
    red = reduce_basis(s)
    result = {
        "t": str(red.t),
        "b": _strs(red.b),
        "exclusive_primes": _strs(red.exclusive_primes),
        "transform": [_strs(row) for row in red.transform.tolist()],
        "degree": str(checked_degree(red, rank_and_kernel(s))),
        "normalized": _strs(s.normalized),
        "dropped_indices": _dropped(s),
    }
    return _report(cfg, result)


def _cmd_symbol(cfg: RunConfig) -> dict:
    if cfg.prime is None:
        raise ValueError("symbol requires -p/--prime")
    if not is_prime(cfg.prime):
        raise ValueError(f"{cfg.prime} is not prime")
    ideals = primes_above(cfg.prime, cfg.l)
    chosen = list(enumerate(ideals))
    if cfg.ideal != "all":
        try:
            index = _decimal(cfg.ideal)
        except ValueError:
            raise ValueError(f"--ideal must be an index or 'all', got {cfg.ideal!r}")
        if not 0 <= index < len(ideals):
            raise ValueError(f"ideal index {index} out of range 0..{len(ideals) - 1}")
        chosen = [chosen[index]]
    rows = [
        {
            "index": str(k),
            "g": poly_str(ideal.g),
            "g_coeffs": _strs(ideal.g),
            "norm": str(ideal.norm),
            "symbols": [
                {"radicand": str(a), "exponent": str(residue_symbol(a, ideal))}
                for a in cfg.radicands
            ],
        }
        for k, ideal in chosen
    ]
    result = {
        "prime": str(cfg.prime),
        "inertia_degree": str(ideals[0].f),
        "ideal_count": str(len(ideals)),
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
        "rank": str(kernel.rank),
        "kernel_basis": [_strs(row) for row in kernel.basis],
        "dropped_indices": _dropped(s),
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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(report: dict) -> str:
    return _ENCODER.encode(report)


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
    values = {name: getattr(args, name, default) for name, default in _CONFIG_DEFAULTS.items()}
    values["radicands"] = tuple(values["radicands"])
    return RunConfig(**values)


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int:
    """The integer an ASCII decimal string ``-?[0-9]+`` writes; int() alone
    would also take underscores, spaces, a plus sign and non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _int(value) -> int:
    """A JSON integer, or a decimal string of one as the echo writes it;
    bools and floats are refused rather than truncated."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise TypeError("not an integer")
    return _decimal(value)


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


def _json_format(value):
    """Batch replies are JSON lines, so a batch line may only ask for json."""
    if value != "json":
        raise ValueError("batch reports are JSON")
    return value


# Batch JSON converters for the fields that are not integers; every other
# field goes through _int().  null is kept only where it is the default.
_FROM_JSON = {
    "command": _exactly(str),
    "radicands": _int_tuple,
    "targets": _int_tuple,
    "format": _json_format,
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
    unknown = payload.keys() - _CONFIG_DEFAULTS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {"format": "json"}  # batch reports default to JSON
    for name, default in _CONFIG_DEFAULTS.items():
        if name not in payload:
            continue
        value = payload[name]
        try:
            if value is not None or default is not None:
                value = _FROM_JSON.get(name, _int)(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"bad value for config key {name!r}: {value!r}") from None
        values[name] = value
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
            report = {"error": message, "line": str(line_no)}
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
