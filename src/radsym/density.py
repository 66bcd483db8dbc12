"""Prime-ideal enumeration by norm and empirical density experiments.

The experiment counts prime ideals realizing a prescribed tuple of residue
symbol exponents and compares the observed share with the predicted
1 / l**t, where t is the number of radicands left after elimination.  A
root-of-unity character sum over the same ideals serves as a decay
diagnostic for single radicands.

Only counts per norm are reported, never which ideal matched, so the scan
never builds the ideals themselves:

* The degree-1 ideals above a split prime p == 1 mod l correspond to the
  primitive l-th roots of unity w mod p, and b_j has symbol s at the ideal
  of root w exactly when v_j = b_j**((p-1)/l) == w**s mod p.  When every
  target is 0, all l-1 ideals match if every v_j is 1 and none does
  otherwise.  Else the first nonzero target s_i pins the only candidate,
  w = v_i**(1/s_i), which matches when v_i != 1 and v_j == w**s_j for every
  j.  So one powmod per radicand and prime, which checks the subgroup guard
  v**l == 1 inside its own ladder, plus at most one root v_i**(1/s_i) with
  a scalar exponent, count the matching ideals above p: l-1, 1 or 0.  Below
  p = 1.9e8 the guard stays in powmod's float64 regime with the residues
  it checks.  The powers w**s the targets use are built one lane product
  at a time on (n,) arrays and compared row by row, so no (m, n) array of
  powers is ever formed.
* At an ideal of inertia degree f >= 2, (p**f - 1)/l is a multiple of
  p - 1, so every rational argument has symbol 0 there.  These ideals are
  counted in closed form, (l-1)/f of norm p**f above each such p, and
  match exactly when every target is 0.

The split primes are sieved window by window along the progression
1 + 2l*i, and each window leaves only integer tallies per checkpoint bound,
so memory stays flat as the bound grows and the tallies do not depend on
how many processes share the windows.  A window spans a fixed number of
progression terms per unit of sqrt(X), but holds at least about
``_WINDOW_PRIMES`` expected split primes, so a small scan is one window,
unless several processes may share it and it is large enough to pay for
that (``_windows``).  A scan on k processes takes its
windows one at a time from one shared queue, in the caller and in k - 1
forked scan workers that stay alive for the next scan (``_Crew``).
``primes_above`` and
``residue_symbol`` remain the per-ideal path for single queries.
``residue_symbol`` answers a plain int at f >= 2 by the same identity, so
the tests compare the scan against it with ``CyclotomicInt`` arguments,
which always take the residue-field power.
"""

from __future__ import annotations

import atexit
import cmath
import contextlib
import math
import os
import pickle
import signal
import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import kernels
from .arith import _check_l, exact_lth_root, factorize, order_table
from .cyclotomic import primes_above
from .radical import (
    InputSet,
    consistency_check,
    rank_and_kernel,
    reduce_basis,
    translate_targets,
)

DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)

# Most processes a scan may share its windows among (the ``threads``
# argument): the caller and at most one kept worker process per further
# window.  Workers beyond the core count only add switching and memory, and
# the bound keeps a call's queue within one atomic pipe write (``_INDEX``).
MAX_THREADS = 64

# Most split primes per kernel call; a window's primes are cut into equal
# blocks of at most this many, so no window ends in a short tail block.
# powmod cuts a block into cache-sized chunks itself.  The guard v**l runs
# inside the residue call, the root v_i**(1/s_i) takes a scalar exponent,
# and the powers w**s of the match counts are (n,) lane products, each a
# block-long pass.  The bound cuts only the windows of large scans: at
# l = 3 a window first holds more primes than this from about X = 2e7 (the
# first windows of a 3e7 scan hold 41,000), at l = 7 from about 3.6e7, and
# every smaller window is one block.
_BLOCK = 1 << 15

# Sieve window, in terms of the progression 1 + 2l*i per unit of
# sqrt(norm bound): the shortest window ``_windows`` cuts.  A window loops
# in Python over the sieving primes (about 2 sqrt(X) / ln X of them), which
# then costs little next to its striking, and a window's arrays stay near a
# MB whatever the bound.  The processes sharing a scan take its windows one
# at a time from a queue (``_tally``), so one that finishes a window early
# takes the next.
_WINDOW_SCALE = 32

# Fewest expected split primes per window.  Each window pays a fixed cost
# besides its primes (a sieve call, powmod's set-up and each ladder step's
# numpy calls, the match and tally calls), which a window of _WINDOW_SCALE
# terms per unit of sqrt(X) does not amortize at small bounds.  Chosen by
# the windows study of BENCH_density.json, which times scans at l = 3, 5
# and 7 and X = 1e5 .. 1e7 cut into every window count.
_WINDOW_PRIMES = 9000

# Fewest expected split primes for which a scan that several processes may
# share keeps the windows of the sqrt rule.  Sharing with a worker (the
# spec's pickle, the pipe round trips, a second window's fixed cost) costs
# about what one process spends on 4,000 split primes, so on 2 processes a
# 1e5 scan at l = 3 (about 4,800 primes) is no faster in 2 windows than in
# 1, and one of 12,000 (l = 7 at 1e6) is faster in 2 or 3.  Above this
# bound _WINDOW_PRIMES is not applied: few windows on several processes
# leave them unbalanced, as 3 windows on 2 processes leave one with 2.
# Chosen by the windows study's 2-process rows at l = 3, 5, 7 and 13.
_SHARED_PRIMES = 8000


@dataclass(frozen=True)
class CheckpointStat:
    bound: int
    ideals: int
    matches: int
    empirical: float


@dataclass(frozen=True)
class CharSumStat:
    n: int
    bound: int
    ideals: int
    tallies: tuple[int, ...]
    value_re: float
    value_im: float
    magnitude: float
    normalized: float


@dataclass(frozen=True)
class DensityReport:
    l: int
    norm_bound: int
    radicands: tuple[int, ...]
    targets: tuple[int, ...]
    consistent: bool
    t: int
    predicted: float
    reduced: tuple[int, ...]
    translated: tuple[int, ...]
    ideals_scanned: int
    matches: int
    empirical: float
    checkpoints: tuple[CheckpointStat, ...]
    char_sums: tuple[CharSumStat, ...]


@dataclass(frozen=True)
class CharSumReport:
    l: int
    n: int
    norm_bound: int
    checkpoints: tuple[CharSumStat, ...]

    @property
    def final(self) -> CharSumStat:
        return self.checkpoints[-1]


def _check_bound(norm_bound: int) -> None:
    if norm_bound < 2:
        raise ValueError("norm bound must be at least 2")
    if norm_bound >= kernels.MAX_MODULUS:
        raise ValueError(
            f"norm bound must be below {kernels.MAX_MODULUS}, got {norm_bound}"
        )


def _check_threads(threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")


def _checkpoint_bounds(norm_bound: int) -> tuple[int, ...]:
    bounds = {c for c in DEFAULT_CHECKPOINTS if c <= norm_bound}
    bounds.add(norm_bound)
    return tuple(sorted(bounds))


def enumerate_prime_ideals(l: int, norm_bound: int):
    """Yield every prime ideal of Z[zeta_l] with norm <= norm_bound, each
    exactly once, ordered by (norm, p, canonical factor order).  The prime
    above l is excluded."""
    _check_l(l)
    _check_bound(norm_bound)
    orders = order_table(l)
    items = []
    for p in kernels.sieve_primes(norm_bound).tolist():
        if p == l:
            continue
        norm = p ** orders[p % l]
        if norm <= norm_bound:
            items.append((norm, p))
    items.sort()
    for _, p in items:
        yield from primes_above(p, l)


def _bases(radicands: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """The radicands as powmod bases against ``primes``: one (m, 1) column,
    which powmod reduces once, unless a radicand reaches 2**62 in absolute
    value; such a row is reduced lane by lane in Python."""
    if all(abs(b) < 2**62 for b in radicands):
        return np.array(radicands, dtype=np.int64).reshape(-1, 1)
    out = np.empty((len(radicands), primes.size), dtype=np.int64)
    for j, b in enumerate(radicands):
        out[j] = b if abs(b) < 2**62 else [b % p for p in primes.tolist()]
    return out


def _residues(l: int, primes: np.ndarray, radicands: tuple[int, ...]) -> np.ndarray:
    """The power residues v[j, i] = radicands[j]**((p-1)/l) mod p at
    p = primes[i], shape (len(radicands), len(primes)), from one powmod
    call.  Each must lie in the order-l subgroup, so v**l == 1 mod p; a
    residue that does not (0, when p divides a radicand) means corruption,
    and powmod's ``order`` check raises AssertionError ("symbol value fell
    outside the root-of-unity subgroup").  It checks the residues with the
    ladder and reduction that made them, the float64 ones while still
    balanced, which is exact: their one conversion to [0, p) is one to one."""
    return kernels.powmod(_bases(radicands, primes), (primes - 1) // l, primes, order=l)


def _match_counts(l: int, primes: np.ndarray, vals: np.ndarray, targets) -> np.ndarray:
    """Per split prime, how many ideals above it have every radicand at its
    target: l-1, 1 or 0.  Radicand j has symbol s at the ideal of root w
    exactly when v_j == w**s.  With every target 0, all l-1 ideals match
    when every v_j is 1 and none does otherwise.  Else, with s_i the first
    nonzero target, the only candidate is w = v_i**(1/s_i) (v_i itself when
    s_i = 1), which matches when v_i != 1 and v_j == w**s_j for all j.
    """
    if not any(targets):
        return (l - 1) * (vals == 1).all(axis=0)
    i = next(j for j, s in enumerate(targets) if s)
    root = pow(targets[i], -1, l)
    w = vals[i] if root == 1 else kernels.powmod(vals[i], root, primes)
    ok = vals[i] != 1  # w**s_i == v_i holds on every lane, as v_i**l == 1
    rest = [(j, s) for j, s in enumerate(targets) if j != i]
    powers = [1, w]  # powers[s] == w**s, up to the largest s the targets use
    for _ in range(2, 1 + max((s for _, s in rest), default=1)):
        powers.append(powers[-1] * w % primes)
    for j, s in rest:
        ok &= vals[j] == powers[s]
    return ok


def _high_degree_norms(l: int, norm_bound: int, exclude: frozenset[int]) -> list[int]:
    """Ascending norms of the ideals of inertia degree f >= 2 and norm <=
    norm_bound, one entry per ideal: (l-1)/f ideals of norm p**f lie above
    each p of order f mod l.  Ideals above excluded primes are left out."""
    orders = order_table(l)
    norms: list[int] = []
    for p in kernels.sieve_primes(math.isqrt(norm_bound)).tolist():
        if p == l or p in exclude:
            continue
        f = orders[p % l]
        if f >= 2 and p**f <= norm_bound:
            norms += [p**f] * ((l - 1) // f)
    return sorted(norms)


@dataclass(frozen=True)
class _Scan:
    """Counts over the ideals of norm <= one checkpoint bound."""

    bound: int
    split: int  # split primes
    high: int  # ideals of inertia degree >= 2
    matches: int  # ideals above split primes where every radicand takes its target
    nontrivial: tuple[int, ...]  # per radicand, split primes where v_j != 1


def _windows(l: int, norm_bound: int, threads: int = 1) -> list[tuple[int, int]]:
    """[lo, hi] ranges covering 1 .. norm_bound, each holding
    _WINDOW_SCALE * isqrt(norm_bound) terms of the progression 1 + 2l*i
    (the last one fewer), unless that leaves fewer than _WINDOW_PRIMES
    expected split primes per window.  By the prime number theorem for the
    progression about X / ((l-1) ln X) split primes lie below X; such a
    scan is cut instead into as many equal windows, of whole progression
    terms, as that estimate fills with _WINDOW_PRIMES each, and at least
    one.  A scan that ``threads`` > 1 processes may share and that expects
    _SHARED_PRIMES split primes keeps the sqrt rule's windows.  So a scan to
    1e5 is one window on any number of processes, and on one process the
    floor binds only up to X near 2.4e6 at l = 3, 4.1e6 at l = 7 and 6.8e6
    at l = 13."""
    span = 2 * l * _WINDOW_SCALE * math.isqrt(norm_bound)
    expected = norm_bound / ((l - 1) * math.log(norm_bound))
    shared = threads > 1 and expected >= _SHARED_PRIMES
    if expected < _WINDOW_PRIMES * -(-norm_bound // span) and not shared:
        count = max(1, int(expected // _WINDOW_PRIMES))
        span = 2 * l * -(-norm_bound // (2 * l * count))
    return [(lo, min(lo + span - 1, norm_bound)) for lo in range(1, norm_bound + 1, span)]


def _workers(threads: int, windows: int) -> int:
    """How many processes share a scan of ``windows`` windows: one per
    window up to ``threads``, or 1 where ``os.fork`` is missing or another
    Python thread is alive, since a forked child holds only the forking
    thread and could inherit a lock that another thread holds."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        return min(threads, windows)
    return 1


@dataclass(frozen=True)
class _Spec:
    """A scan's inputs to ``_window``, pickled to every scan worker."""

    l: int
    bounds: np.ndarray  # checkpoint bounds, ascending
    skip: np.ndarray  # excluded split primes, ascending
    radicands: tuple[int, ...]
    targets: tuple[int, ...] | None  # None: no matches counted
    windows: list[tuple[int, int]]


def _window(spec: _Spec, lo: int, hi: int, out: np.ndarray) -> None:
    """Add the tallies of the window [lo, hi] of ``spec`` to ``out``, one
    row per checkpoint bound (see ``_scan``)."""
    primes = kernels.sieve_primes(hi, lo, spec.l)
    skip = spec.skip
    if skip.size and skip[-1] >= lo and skip[0] <= hi:
        primes = primes[~np.isin(primes, skip)]
    parts = -(-primes.size // _BLOCK)
    step = -(-primes.size // parts) if parts else 1  # equal blocks, no short tail
    for start in range(0, primes.size, step):
        chunk = primes[start : start + step]
        vals = _residues(spec.l, chunk, spec.radicands)
        if spec.targets is not None:
            counts = _match_counts(spec.l, chunk, vals, spec.targets)
        nontrivial = vals != 1
        for row, k in enumerate(np.searchsorted(chunk, spec.bounds, side="right").tolist()):
            if k:
                out[row, 0] += k
                if spec.targets is not None:
                    out[row, 1] += counts[:k].sum()
                for j, v in enumerate(nontrivial, 2):
                    out[row, j] += np.count_nonzero(v[:k])


def _take(spec: _Spec, indices) -> np.ndarray:
    """The int64 tallies of the windows ``spec.windows[i]``, i in
    ``indices``, summed."""
    out = np.zeros((spec.bounds.size, 2 + len(spec.radicands)), dtype=np.int64)
    for i in indices:
        _window(spec, *spec.windows[i], out)
    return out


# One window index on the queue pipe.  A call writes its whole queue, every
# index and then one -1 per process, in one write before any process reads
# it: at most 242 windows (l = 3 just below MAX_MODULUS) and MAX_THREADS
# sentinels, 1224 bytes, under PIPE_BUF, so the write is atomic and never
# blocks, and each read of one index takes a whole one.
_INDEX = struct.Struct("i")


def _queued(fd: int, parent: int | None = None):
    """Window indices read one at a time from the queue pipe ``fd``, up to
    the next -1, or its end once no process holds its write end.  With
    ``parent``, a worker leaves by ``os._exit`` before its next window once
    ``parent`` is no longer its parent process, so a killed caller leaves no
    worker scanning for long."""
    while data := os.read(fd, _INDEX.size):
        (i,) = _INDEX.unpack(data)
        if i < 0:
            return
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        yield i


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class _Worker:
    """The caller's ends of one scan worker's pipes: the write end of its
    task pipe and, as a file, the read end of its reply pipe."""

    def __init__(self, tasks: int, replies: int):
        self.pid = 0  # 0 until forked
        self.tasks = tasks
        self.replies = open(replies, "rb")

    def close(self) -> None:
        os.close(self.tasks)
        self.replies.close()

    def reply(self) -> np.ndarray:
        """The tally of this worker's share of the current call, or the
        exception that share raised, raised again."""
        try:
            ok, value = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            raise AssertionError("a scan worker exited before sending its tally") from None
        if not ok:
            raise value
        return value


def _release(workers: list[_Worker]) -> None:
    """Close the pipes of ``workers``, SIGKILL them and reap them.  A worker
    holds nothing to save between windows, and the kill also ends one that
    would never read the end of its task pipe, because a process forked
    outside ``os.fork`` (so without ``forget``) still holds it open."""
    for worker in workers:
        worker.close()
        if worker.pid:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker.pid, signal.SIGKILL)
    for worker in workers:
        if worker.pid:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(worker.pid, 0)


def _exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited, reaping it if so."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


class _Crew:
    """This process's scan workers, kept from one scan to the next, and the
    queue pipe from which they and the caller take window indices.

    Each worker is a child forked by ``_fork`` that runs ``_serve`` until
    the end of its task pipe.  After a call the set is exactly the workers
    that call used (``hire``, or ``stop`` where the caller scans alone).  A
    call that fails or is interrupted before every reply has arrived stops
    the whole set, since the queue may still hold indices.  A process forked
    from this one closes its copies of the set's pipe ends and starts with
    none (``forget``), and the set is stopped at exit."""

    def __init__(self):
        self.workers: list[_Worker] = []
        self.queue: tuple[int, int] | None = None  # (read end, write end)

    def hire(self, n: int) -> list[_Worker]:
        """The queue and n workers, or fewer where a fork fails: the dead
        are reaped, any beyond n stopped and the missing ones forked."""
        dead = [worker for worker in self.workers if _exited(worker.pid)]
        for worker in dead:
            worker.close()
        live = [worker for worker in self.workers if worker not in dead]
        _release(live[n:])
        self.workers = live[:n]
        if self.queue is None:
            self.queue = os.pipe()
        while len(self.workers) < n and self._fork():
            pass
        return self.workers

    def _fork(self) -> bool:
        task_r, task_w = os.pipe()
        reply_r, reply_w = os.pipe()
        queue = os.dup(self.queue[0])  # the child's own: forget closes the set's
        worker = _Worker(task_w, reply_r)
        self.workers.append(worker)  # so that the child's forget closes these ends
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory: the others take its windows
            pid = -1
        if pid == 0:
            _serve(task_r, reply_w, queue, parent)
        for fd in (task_r, reply_w, queue):
            os.close(fd)
        if pid < 0:
            self.workers.remove(worker)
            worker.close()
            return False
        worker.pid = pid
        return True

    def stop(self) -> None:
        """Close the queue, then kill and reap every worker."""
        for fd in self.queue or ():
            os.close(fd)
        workers, self.workers, self.queue = self.workers, [], None
        _release(workers)

    def forget(self) -> None:
        """In a child just forked from this process: close the inherited
        ends of the set's pipes and keep no workers."""
        for worker in self.workers:
            worker.close()
        for fd in self.queue or ():
            os.close(fd)
        self.workers, self.queue = [], None


_CREW = _Crew()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_CREW.forget)
atexit.register(_CREW.stop)


def _serve(tasks: int, replies: int, queue: int, parent: int) -> NoReturn:
    """A scan worker, in the child forked by ``_Crew._fork``: read a pickled
    _Spec from the task pipe ``tasks``, sum the windows whose indices it
    takes from ``queue`` (see ``_queued``), and write (True, tally) or, if
    that raised, (False, exception) pickled to the pipe ``replies``; again
    until the end of the task pipe.  It ignores SIGINT, which is the
    caller's to report, and leaves by ``os._exit``, so it never returns into
    its parent's stack."""
    code = 0
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(tasks, "rb") as pipe:
            while True:
                try:
                    spec = pickle.load(pipe)
                except EOFError:
                    break
                try:
                    result = (True, _take(spec, _queued(queue, parent)))
                except Exception as exc:
                    result = (False, exc)
                try:
                    data = pickle.dumps(result)
                    pickle.loads(data)
                except Exception:  # an exception that does not survive pickling
                    data = pickle.dumps(
                        (False, AssertionError(f"scan worker failed: {result[1]!r}"))
                    )
                _send(replies, data)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def _tally(spec: _Spec, workers: int) -> np.ndarray:
    """The int64 tallies of every window of ``spec``, summed by ``workers``
    processes: the caller and up to workers - 1 scan workers of ``_CREW``.

    One process is the caller's own loop over the windows.  Otherwise the
    caller writes the queue, sends the pickled spec to every worker, takes
    windows from the queue until its -1, as each worker does, and adds the
    workers' replies; a worker's exception is raised again here.  The
    tallies are integer sums, so the total is the same for every worker
    count and whichever process took which window.
    """
    if workers == 1:
        _CREW.stop()
        return _take(spec, range(len(spec.windows)))
    try:
        crew = _CREW.hire(workers - 1)
        read, write = _CREW.queue
        entries = [*range(len(spec.windows)), *[-1] * (1 + len(crew))]
        os.write(write, struct.pack(f"{len(entries)}{_INDEX.format}", *entries))
        task = pickle.dumps(spec)
        for worker in crew:
            _send(worker.tasks, task)
        total = _take(spec, _queued(read))
        for worker in crew:
            total += worker.reply()
    except BaseException:
        _CREW.stop()
        raise
    return total


def _scan(
    l: int,
    norm_bound: int,
    exclude: frozenset[int],
    radicands: tuple[int, ...],
    threads: int,
    targets: tuple[int, ...] | None = None,
) -> tuple[_Scan, ...]:
    """Counts at every checkpoint bound up to norm_bound.

    Each window sieves its split primes, drops the excluded ones and feeds
    equal blocks of them through powmod and ``_match_counts``.  Per
    checkpoint bound, with k the number of a block's primes up to it, the
    block adds k split primes, the sum of its first k match counts for
    ``targets`` (none counted when None) and, per radicand, the count of its
    first k residues other than 1; no per-lane column array is built.  Only
    these integer sums outlive a window, so they do not depend on which
    process took which window: with ``threads`` = k, min(k, windows)
    processes share them (see ``_tally``).  The degree >= 2 ideals are
    counted per bound in closed form, by ``_high_degree_norms``.
    """
    windows = _windows(l, norm_bound, threads)
    spec = _Spec(
        l,
        np.array(_checkpoint_bounds(norm_bound), dtype=np.int64),
        np.array(sorted(p for p in exclude if p % l == 1), dtype=np.int64),
        radicands,
        targets,
        windows,
    )
    totals = _tally(spec, _workers(threads, len(windows))).tolist()
    high = _high_degree_norms(l, norm_bound, exclude)
    return tuple(
        _Scan(c, split, bisect_right(high, c), matches, tuple(nontrivial))
        for c, (split, matches, *nontrivial) in zip(spec.bounds.tolist(), totals)
    )


def _excluded_primes(s: InputSet) -> frozenset[int]:
    """l and the primes dividing the raw radicands, from their stored
    factorizations.  Every reduced b_j is a product of these primes, so it
    needs no factorization of its own."""
    return frozenset({s.l}.union(*(f.primes() for f in s.factorizations)))


def _zeta_complex(l: int) -> list[complex]:
    return [cmath.exp(2j * cmath.pi * k / l) for k in range(l)]


def _char_stat(
    n: int, bound: int, l: int, split: int, nontrivial: int, high: int
) -> CharSumStat:
    """Character sum of n over `split` split primes, `nontrivial` of which
    give n a power residue v != 1, and `high` ideals of degree >= 2.

    Above a split prime with v == 1 all l-1 symbols are 0; with v != 1 they
    run through 1 .. l-1 once each.  At degree >= 2 the symbol is always 0.
    """
    tallies = [(l - 1) * (split - nontrivial) + high] + [nontrivial] * (l - 1)
    total = sum(tallies)
    zc = _zeta_complex(l)
    value = sum(t * zc[k] for k, t in enumerate(tallies))
    magnitude = abs(value)
    normalized = magnitude / total if total else 0.0
    return CharSumStat(
        n, bound, total, tuple(tallies), value.real, value.imag, magnitude, normalized
    )


def density_experiment(
    input_set: InputSet,
    targets,
    norm_bound: int,
    *,
    threads: int = 1,
) -> DensityReport:
    """Count prime ideals realizing the target exponents for every radicand.

    Inconsistent targets short-circuit: nothing is scanned and the report
    carries exactly zero matches.  Otherwise the count runs over all prime
    ideals of norm <= norm_bound outside the primes dividing the radicands,
    with cumulative checkpoints at powers of ten.
    """
    l = input_set.l
    targets = tuple(int(r) % l for r in targets)
    _check_bound(norm_bound)
    _check_threads(threads)
    result = reduce_basis(input_set)
    predicted = 1.0 / l**result.t
    if not consistency_check(input_set, targets, rank_and_kernel(input_set)):
        return DensityReport(
            l, norm_bound, input_set.raw, targets, False, result.t, predicted,
            result.b, (), 0, 0, 0.0, (), (),
        )
    s_targets = translate_targets(result, targets)
    scans = _scan(l, norm_bound, _excluded_primes(input_set), result.b, threads, s_targets)
    # every symbol is 0 at degree >= 2, so those ideals match iff all targets are 0
    high_match = not any(s_targets)
    rows = []
    for sc in scans:
        ideals = sc.split * (l - 1) + sc.high
        matches = sc.matches + (sc.high if high_match else 0)
        rows.append(CheckpointStat(sc.bound, ideals, matches, matches / ideals if ideals else 0.0))
    final = rows[-1]
    last = scans[-1]
    char_sums = tuple(
        _char_stat(b, norm_bound, l, last.split, last.nontrivial[j], last.high)
        for j, b in enumerate(result.b)
    )
    return DensityReport(
        l, norm_bound, input_set.raw, targets, True, result.t, predicted,
        result.b, s_targets, final.ideals, final.matches, final.empirical,
        tuple(rows), char_sums,
    )


def character_sum(n: int, l: int, norm_bound: int, *, threads: int = 1) -> CharSumReport:
    """Tally zeta**exponent(n) over all qualifying prime ideals.

    Rejects exact l-th powers (their sum would be trivially the ideal count).
    Ideals above primes dividing n are skipped; the normalized magnitude is
    |sum| divided by the ideal count, 0.0 when no ideal qualifies.
    """
    _check_l(l)
    _check_bound(norm_bound)
    _check_threads(threads)
    if n == 0 or exact_lth_root(n, l) is not None:
        raise ValueError(f"{n} is an exact {l}-th power; the sum would be trivial")
    exclude = frozenset(factorize(abs(n)).primes()) | {l}
    rows = tuple(
        _char_stat(n, sc.bound, l, sc.split, sc.nontrivial[0], sc.high)
        for sc in _scan(l, norm_bound, exclude, (n,), threads)
    )
    return CharSumReport(l, n, norm_bound, rows)
