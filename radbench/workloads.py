"""The three workloads: their inputs, one op each, and the checks on every op.

Inputs come from ``random.Random`` seeded with the workload name and the
``--seed`` value.  The seed only picks values inside a fixed cost class, so
every seed runs the same amount of work (see ``cost_class`` and the tests in
``test_radbench.py``).  Nothing in this module imports radsym: the op runners
take the imported package as an argument and look every function up on it at
call time, so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from dataclasses import dataclass

import reference as ref

# Radicand pools: distinct small primes keep t (the number of independent
# radicands) equal to the radicand count whatever the seed draws.
_SMALL_PRIMES = tuple(ref.primes_upto(50))
ORACLE_BOUND = 20_000
DEFAULT_SEED = 0


def _pool(l: int) -> tuple[int, ...]:
    return tuple(q for q in _SMALL_PRIMES if q != l)


# ---------------------------------------------------------------------------
# Scans


@dataclass(frozen=True)
class ScanConfig:
    l: int
    radicands: tuple[int, ...]
    targets: tuple[int, ...]
    bound: int
    threads: int
    charsum: bool  # also run character_sum(radicands[0]) in the same study


# l, bound, threads and the radicand count never depend on the seed.
_SCAN_SHAPES = {
    "scan-l3": dict(l=3, default=(2, 5, 7), bound=3 * 10**7, threads=1, charsum=False),
    "scan-l7": dict(l=7, default=(2, 3, 5), bound=3 * 10**7, threads=2, charsum=True),
}

# Counts of the default-seed study, recorded at the commit that introduced
# this benchmark with threads=1 and threads=2 alike.
PINNED = {
    "scan-l3": {"ideals": 1_857_842, "matches": 68_831},
    "scan-l7": {"ideals": 1_857_583, "matches": 5_454, "charsum_ideals": 1_857_585},
}


def ideals_above(primes, l: int, bound: int) -> int:
    """Prime ideals of norm <= bound above the given rational primes (not l)."""
    out = 0
    for q in primes:
        f = ref.order_mod(q, l)
        out += (l - 1) // f if q**f <= bound else 0
    return out


def expected_ideals(name: str, excluded) -> int:
    """Ideal count of a study that leaves out the ideals above `excluded`:
    every ideal of norm <= X above a prime other than l, which is the
    default study's pinned count plus the ideals above its radicands, less
    the ideals above `excluded`."""
    shape = _SCAN_SHAPES[name]
    l, bound = shape["l"], shape["bound"]
    every = PINNED[name]["ideals"] + ideals_above(shape["default"], l, bound)
    return every - ideals_above(excluded, l, bound)


def scan_config(name: str, seed: int) -> ScanConfig:
    shape = _SCAN_SHAPES[name]
    l = shape["l"]
    if seed == DEFAULT_SEED:
        radicands, targets = shape["default"], (0, 1, 2)
    else:
        rng = random.Random(f"{name}:{seed}")
        radicands = tuple(sorted(rng.sample(_pool(l), len(shape["default"]))))
        targets = tuple(rng.randrange(l) for _ in radicands)
    return ScanConfig(l, radicands, targets, shape["bound"], shape["threads"], shape["charsum"])


def setup_oracle(rs, l: int, radicands, targets) -> list[str]:
    """Compare density_experiment and character_sum at a small bound with a
    walk over enumerate_prime_ideals and residue_symbol.  Returns failures."""
    targets = tuple(t % l for t in targets)
    raw_primes = {q for a in radicands for q in ref.factor(a)}
    n = radicands[0]
    n_primes = set(ref.factor(n))
    ideals = matches = 0
    tallies = [0] * l
    for P in rs.enumerate_prime_ideals(l, ORACLE_BOUND):
        if P.p not in n_primes:
            tallies[rs.residue_symbol(n, P)] += 1
        if P.p in raw_primes:
            continue
        ideals += 1
        matches += tuple(rs.residue_symbol(a, P) for a in radicands) == targets
    failures = []
    rep = rs.density_experiment(rs.normalize_inputs(l, radicands), targets, ORACLE_BOUND)
    if (rep.ideals_scanned, rep.matches) != (ideals, matches):
        failures.append(
            f"oracle l={l}: density gives {(rep.ideals_scanned, rep.matches)},"
            f" ideal walk gives {(ideals, matches)}"
        )
    cs = rs.character_sum(n, l, ORACLE_BOUND)
    if list(cs.final.tallies) != tallies:
        failures.append(f"oracle l={l}: charsum tallies {cs.final.tallies} != walk {tallies}")
    return failures


def _tally_failures(label: str, l: int, ideals: int, tallies) -> list[str]:
    out = []
    if sum(tallies) != ideals:
        out.append(f"{label}: tallies sum to {sum(tallies)}, ideal count is {ideals}")
    # at a split prime the nonzero exponents are a permutation of 1..l-1
    if len(set(tallies[1:])) != 1:
        out.append(f"{label}: nonzero tallies differ: {tallies}")
    return out


class ScanWorkload:
    """One op is one study at the fixed bound; ops must agree exactly."""

    # numpy streaming over arrays of many MB: ops are scaled by stream_probe
    interpreter_bound = False

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cfg = scan_config(name, seed)
        self.first = None

    def setup(self, rs) -> list[str]:
        self.input_set = rs.normalize_inputs(self.cfg.l, self.cfg.radicands)
        return setup_oracle(rs, self.cfg.l, self.cfg.radicands, self.cfg.targets)

    def run(self, rs, *, warmup: bool = False):
        """One study; returns (wall ms, request latencies ms, failures).

        The warm-up study runs single-threaded, so checking every timed op
        against it also checks that threads never change the counts.
        """
        cfg = self.cfg
        threads = 1 if warmup else cfg.threads
        t0 = time.perf_counter()
        rep = rs.density_experiment(self.input_set, cfg.targets, cfg.bound, threads=threads)
        cs = None
        if cfg.charsum:
            cs = rs.character_sum(cfg.radicands[0], cfg.l, cfg.bound, threads=threads)
        ms = (time.perf_counter() - t0) * 1e3
        return ms, [ms], self._check((rep, cs))

    def _check(self, result) -> list[str]:
        if self.first is None:
            self.first = result
            return self._check_counts(result)
        if result != self.first:
            return [f"{self.name}: study differs from the run's first study"]
        return []

    def _check_counts(self, result) -> list[str]:
        rep, cs = result
        l = self.cfg.l
        out = [] if rep.consistent else [f"{self.name}: targets reported inconsistent"]
        for stat in rep.char_sums:
            out += _tally_failures(f"char sum of {stat.n}", l, rep.ideals_scanned, stat.tallies)
        want = expected_ideals(self.name, self.cfg.radicands)
        if rep.ideals_scanned != want:
            out.append(f"{self.name}: {rep.ideals_scanned} ideals, expected {want}")
        if cs is not None:
            out += _tally_failures("character_sum", l, cs.final.ideals, cs.final.tallies)
            want = expected_ideals(self.name, self.cfg.radicands[:1])
            if cs.final.ideals != want:
                out.append(f"{self.name}: character_sum over {cs.final.ideals} ideals, expected {want}")
        if self.seed == DEFAULT_SEED:
            pinned = PINNED[self.name]
            got = {"ideals": rep.ideals_scanned, "matches": rep.matches}
            if cs is not None:
                got["charsum_ideals"] = cs.final.ideals
            if got != pinned:
                out.append(f"{self.name}: counts {got} != pinned {pinned}")
        return out


# ---------------------------------------------------------------------------
# Queries deck


@dataclass(frozen=True)
class Request:
    kind: str  # the deck entry that drew it
    line: str | None = None  # one batch line, None for a library call
    alpha: tuple[int, ...] | None = None  # eisenstein_check(CyclotomicInt(3, alpha), a)
    a: int | None = None


def _prime_with(rng: random.Random, bits: int, ok) -> int:
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        if ok(n) and ref.is_prime(n):
            return n


def _radicands(rng: random.Random, l: int, m: int) -> list[int]:
    """m values below 300 that are not l-th powers, so none is dropped and
    trial division factors each in a handful of steps."""
    out = []
    while len(out) < m:
        a = rng.randrange(2, 300)
        if not ref.is_lth_power(a, l):
            out.append(a)
    return out


def _line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _symbol(l: int, f: int, bits: int):
    def draw(rng):
        p = _prime_with(rng, bits, lambda n: n % l and ref.order_mod(n, l) == f)
        return _line({"command": "symbol", "l": l, "prime": p,
                      "radicands": [rng.randrange(2, 1000) for _ in range(2)]})
    return draw


def _radical(command: str, l: int, m: int):
    def draw(rng):
        payload = {"command": command, "l": l, "radicands": _radicands(rng, l, m)}
        if command == "check":
            payload["targets"] = [rng.randrange(l) for _ in range(m)]
        return _line(payload)
    return draw


def _density(rng):
    radicands = rng.sample(_pool(3), 2)
    return _line({"command": "density", "l": 3, "radicands": radicands,
                  "targets": [rng.randrange(3) for _ in radicands], "norm_bound": 10**5})


def _charsum(rng):
    return _line({"command": "charsum", "l": 5, "n": rng.choice(_pool(5)), "norm_bound": 10**5})


def _invalid(kind: str):
    def draw(rng):
        a, b, c = (rng.randrange(2, 300) for _ in range(3))
        if kind == "json":  # truncated: the outer braces never balance
            return _line({"command": "degree", "l": 3, "radicands": [a, b]})[: -rng.randrange(1, 4)]
        payload = {
            "command": {"command": f"frobnicate{a}"},
            "even-l": {"command": "degree", "l": 2 * rng.randrange(2, 11), "radicands": [a]},
            "zero": {"command": "reduce", "l": 3, "radicands": [a, 0, b]},
            "targets": {"command": "check", "l": 5, "radicands": [a, b, c], "targets": [1]},
            "composite": {"command": "symbol", "l": 3, "radicands": [a],
                          "prime": rng.choice(_pool(3)) * rng.choice(_pool(3))},
            "key": {"command": "degree", "l": 3, "radicands": [a], "colour": b},
        }[kind]
        return _line(payload)
    return draw


def _eisenstein(rng) -> Request:
    """A primary alpha = c0 + c1*zeta_3 (3 | c1) of 12-bit prime norm, and an
    inert 6-bit prime a; symbol_over_integer then takes the GF(a^2) path."""
    while True:
        c0, c1 = rng.randrange(-80, 81), 3 * rng.randrange(-27, 28)
        norm = c0 * c0 - c0 * c1 + c1 * c1
        if norm.bit_length() == 12 and ref.is_prime(norm):
            break
    a = _prime_with(rng, 6, lambda n: n % 3 == 2)
    return Request("eisenstein", alpha=(c0, c1), a=a)


# (kind, count, draw): 184 batch lines per pass, then EISENSTEIN_CALLS library
# calls.  Costs per request run from ~0.1 ms (split symbols, invalid lines) to
# tens of ms (degree oracle, small scans), which gives the latency tail.
DECK_SPEC = (
    ("symbol.l3.f1", 30, _symbol(3, 1, 27)),
    ("symbol.l7.f1", 30, _symbol(7, 1, 27)),
    ("symbol.l3.f2", 16, _symbol(3, 2, 20)),
    ("symbol.l5.f2", 12, _symbol(5, 2, 17)),
    ("symbol.l5.f4", 12, _symbol(5, 4, 14)),
    ("symbol.l7.f3", 8, _symbol(7, 3, 14)),
    ("symbol.l7.f6", 8, _symbol(7, 6, 14)),
    ("degree.l3.m7", 8, _radical("degree", 3, 7)),
    ("degree.l5.m5", 8, _radical("degree", 5, 5)),
    ("reduce.l3.m4", 16, _radical("reduce", 3, 4)),
    ("check.l3.m4", 16, _radical("check", 3, 4)),
    ("density.l3", 3, _density),
    ("charsum.l5", 3, _charsum),
    ("invalid.json", 2, _invalid("json")),
    ("invalid.command", 2, _invalid("command")),
    ("invalid.even-l", 2, _invalid("even-l")),
    ("invalid.zero", 2, _invalid("zero")),
    ("invalid.targets", 2, _invalid("targets")),
    ("invalid.composite", 2, _invalid("composite")),
    ("invalid.key", 2, _invalid("key")),
)
EISENSTEIN_CALLS = 5


def build_deck(seed: int) -> tuple[list[Request], list[Request]]:
    """(batch requests in stdin order, library eisenstein_check calls)."""
    rng = random.Random(f"queries:{seed}")
    batch = [Request(kind, line=draw(rng)) for kind, count, draw in DECK_SPEC for _ in range(count)]
    rng.shuffle(batch)
    calls = [_eisenstein(rng) for _ in range(EISENSTEIN_CALLS)]
    return batch, calls


def cost_class(req: Request) -> tuple:
    """What a request's cost depends on, read back from its content: the
    command, l, the inertia degree f and bit length of p, the radicand count
    and the bound.  Invalid lines are classed by their declared kind."""
    if req.line is None:
        c0, c1 = req.alpha
        norm = c0 * c0 - c0 * c1 + c1 * c1
        return ("eisenstein", norm.bit_length(), req.a.bit_length(), ref.order_mod(req.a, 3))
    if req.kind.startswith("invalid."):
        return (req.kind,)
    payload = json.loads(req.line)
    l = payload["l"]
    cls = (payload["command"], l, len(payload.get("radicands", ())), payload.get("norm_bound"))
    if "prime" in payload:
        p = payload["prime"]
        cls += (ref.order_mod(p, l), p.bit_length())
    return cls


class _LineClock(io.TextIOBase):
    """Stands in for stdout: keeps the text and stamps each finished line."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        if s.endswith("\n"):
            self.stamps.extend([time.perf_counter()] * s.count("\n"))
        return len(s)


class QueriesWorkload:
    """One op is one pass over the deck: a `radsym batch` call in-process,
    then the library eisenstein_check calls.  Each request's latency is the
    gap between successive report lines (or the call's own wall time)."""

    interpreter_bound = True  # pure-Python generic paths: ops are scaled by host_probe

    oracle = (5, (2, 3), (1, 2))

    def __init__(self, name: str, seed: int):
        self.name = name
        self.batch, self.calls = build_deck(seed)
        self.stdin_text = "".join(r.line + "\n" for r in self.batch)
        self.verified: dict[int, str] = {}  # line index -> reply text already checked
        self.error_lines = 0

    def setup(self, rs) -> list[str]:
        self.alphas = [rs.CyclotomicInt(3, r.alpha) for r in self.calls]
        return setup_oracle(rs, *self.oracle)

    def run(self, rs, *, warmup: bool = False):
        out = _LineClock()
        saved = sys.stdin, sys.stdout
        sys.stdin = io.StringIO(self.stdin_text)
        sys.stdout = out
        t0 = time.perf_counter()
        try:
            code = rs.cli.main(["batch"])
        finally:
            sys.stdin, sys.stdout = saved
        stamps = [t0] + out.stamps
        lat = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        answers = []
        for alpha, req in zip(self.alphas, self.calls):
            c0 = time.perf_counter()
            answers.append(rs.eisenstein_check(alpha, req.a))
            lat.append((time.perf_counter() - c0) * 1e3)
        ms = (time.perf_counter() - t0) * 1e3
        return ms, lat, self._check(code, "".join(out.parts), answers)

    def _check(self, code: int, text: str, answers: list) -> list[str]:
        failures = []
        if code != 2:  # invalid lines make the batch exit 2; 3 means an internal error
            failures.append(f"batch exit code {code}, expected 2")
        lines = text.splitlines()
        if len(lines) != len(self.batch):
            return failures + [f"{len(lines)} report lines for {len(self.batch)} requests"]
        self.error_lines = 0
        for i, (req, reply) in enumerate(zip(self.batch, lines)):
            self.error_lines += reply.startswith('{"error"')
            if self.verified.get(i) == reply:
                continue
            try:
                problem = check_reply(req, i + 1, json.loads(reply))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable reply ({exc!r})"
            if problem:
                failures.append(f"line {i + 1} ({req.kind}): {problem}")
            else:
                self.verified[i] = reply
        if answers != [True] * len(self.calls):
            failures.append(f"eisenstein_check returned {answers}")
        return failures


def check_reply(req: Request, line_no: int, reply: dict) -> str | None:
    """None when the reply is right, else what is wrong with it."""
    if req.kind.startswith("invalid."):
        if set(reply) != {"error", "line"} or int(reply["line"]) != line_no:
            return f"expected an error record for line {line_no}, got {reply}"
        return None
    payload = json.loads(req.line)
    if set(reply) != {"config", "result", "checkpoints", "warnings"}:
        return f"not a report: {sorted(reply)}"
    l, res, command = payload["l"], reply["result"], payload["command"]
    radicands = payload.get("radicands", [])
    if command == "symbol":
        return _check_symbol(l, payload["prime"], radicands, res)
    if command in ("degree", "reduce", "check"):
        rank = ref.radical_rank(radicands, l)
        if command == "degree":
            ok = int(res["degree"]) == l**rank and int(res["rank"]) == rank
            oracle = res["oracle"]
            ok = ok and oracle is not None and int(oracle["relation_count"]) == l ** (len(radicands) - rank)
            return None if ok else f"degree {res['degree']} rank {res['rank']}, expected rank {rank}"
        if command == "reduce":
            return _check_reduce(l, rank, res)
        want = ref.targets_consistent(radicands, payload["targets"], l)
        if res["consistent"] is not want or int(res["rank"]) != rank:
            return f"consistent={res['consistent']} rank={res['rank']}, expected {want} {rank}"
        return None
    if command == "density":
        bound = payload["norm_bound"]
        want = ref.density_counts(l, radicands, payload["targets"], bound)
        if (int(res["ideals_scanned"]), int(res["matches"])) != want:
            return f"density {res['ideals_scanned']}/{res['matches']}, expected {want}"
        exclude = {q for a in radicands for q in ref.factor(a)}
        for stat in res["char_sums"]:
            tallies = ref.charsum_tallies(int(stat["n"]), l, bound, exclude)
            if [int(t) for t in stat["tallies"]] != tallies:
                return f"char sum tallies {stat['tallies']}, expected {tallies}"
        return None
    if command == "charsum":
        want = ref.charsum_tallies(payload["n"], l, payload["norm_bound"])
        got = [int(t) for t in res["tallies"]]
        if got != want or int(res["ideals"]) != sum(want):
            return f"charsum tallies {got}, expected {want}"
        return None
    return f"no check for command {command!r}"


def _check_symbol(l: int, p: int, radicands, res: dict) -> str | None:
    f = ref.order_mod(p, l)
    rows = res["ideals"]
    if int(res["inertia_degree"]) != f or int(res["ideal_count"]) != (l - 1) // f or len(rows) != (l - 1) // f:
        return f"ideal shape f={res['inertia_degree']} count={res['ideal_count']}, expected f={f}"
    roots = set()
    for row in rows:
        got = [(int(s["radicand"]), int(s["exponent"])) for s in row["symbols"]]
        if [a for a, _ in got] != list(radicands):
            return "symbols do not follow the radicands"
        if f >= 2:
            if any(e != 0 for _, e in got):
                return f"nonzero rational symbol at an inert ideal: {got}"
            continue
        coeffs = [int(c) for c in row["g_coeffs"]]
        if len(coeffs) != 2 or coeffs[1] != 1:
            return f"split ideal with g = {coeffs}"
        w = (-coeffs[0]) % p
        roots.add(w)
        for a, e in got:
            if not ref.split_symbol_ok(a, p, l, w, e):
                return f"symbol {e} of {a} at (p, X - {w}) is wrong"
    if f == 1 and len(roots) != l - 1:
        return "split ideals do not cover the l-1 roots of unity"
    return None


def _check_reduce(l: int, rank: int, res: dict) -> str | None:
    b = [int(x) for x in res["b"]]
    q = [int(x) for x in res["exclusive_primes"]]
    if int(res["t"]) != rank or int(res["degree"]) != l**rank or len(b) != rank or len(q) != rank:
        return f"t={res['t']} degree={res['degree']}, expected rank {rank}"
    for j, qj in enumerate(q):
        if any((bk % qj == 0) != (k == j) for k, bk in enumerate(b)):
            return f"prime {qj} is not exclusive to b[{j}] in {b}"
    return None


WORKLOADS = {"scan-l3": ScanWorkload, "scan-l7": ScanWorkload, "queries": QueriesWorkload}


def make(name: str, seed: int):
    return WORKLOADS[name](name, seed)
