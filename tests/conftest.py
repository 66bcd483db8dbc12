"""Spies on powmod's private ladder helpers, shared by the kernel and density
tests, which import them as ``from conftest import ...``."""

import numpy as np

from radsym import kernels


def spy_ladder(monkeypatch, corrupt: int | None = None) -> list[tuple[str, int, int]]:
    """Patch kernels._ladder to record every call as (regime, k0, ndim):
    the reduction it runs, "int64", "float-fused" or "float" (square and
    multiply reduced one at a time), read from the base's dtype and
    ``fused``; the shift k0 of its exact start b**(e >> k0); and the ndim of
    its exponent.  Each chunk of a powmod call runs one ladder on its own
    exponents, then, with ``order``, the guard's ladder on a 0-d exponent,
    whose reduction may fuse where the residues' does not.

    With ``corrupt`` = i, the i-th ladder on an exponent array, the residue
    ladder of chunk i, returns its last lane, of the chunk's largest p, set
    to 2: a cube root of unity only mod 7, as 2**3 - 1 is 7."""
    calls = []
    real = kernels._ladder

    def spy(b, e, k0, fused, shape, reduce):
        r = real(b, e, k0, fused, shape, reduce)
        if e.ndim and corrupt == len(residue_regimes(calls)):
            r.flat[-1] = 2
        regime = "int64" if b.dtype == np.int64 else "float-fused" if fused else "float"
        calls.append((regime, k0, e.ndim))
        return r

    monkeypatch.setattr(kernels, "_ladder", spy)
    return calls


def residue_regimes(calls) -> list[str]:
    """The regimes of the ladders ``spy_ladder`` recorded on exponent
    arrays: one per chunk of a call with per-lane exponents."""
    return [regime for regime, _, ndim in calls if ndim]


def spy_run_steps(monkeypatch) -> list[int]:
    """Patch kernels._set_lanes to record the bit k of every run step: a
    ladder step on an exponent array that multiplies runs of lanes rather
    than every lane by the per-lane multiplier."""
    taken = []
    real = kernels._set_lanes

    def spy(e, k, limit):
        lanes = real(e, k, limit)
        if e.ndim and lanes is not None:
            taken.append(k)
        return lanes

    monkeypatch.setattr(kernels, "_set_lanes", spy)
    return taken
