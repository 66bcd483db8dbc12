"""Tests of the benchmark itself: run with

    python3 -m pytest radbench/test_radbench.py -q

The seed may only pick values inside a cost class, so every seed runs the
same amount of work; and the checks on replies must catch a wrong reply.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import sys

import pytest

import reference as ref
import worker
import workloads

SEEDS = (0, 1, 2, 7, 12345, 2**31 - 1)


def _histogram(seed: int) -> collections.Counter:
    batch, calls = workloads.build_deck(seed)
    return collections.Counter(workloads.cost_class(r) for r in batch + calls)


def test_deck_cost_classes_do_not_depend_on_seed():
    first = _histogram(SEEDS[0])
    for seed in SEEDS[1:]:
        assert _histogram(seed) == first, seed


def test_decks_differ_across_seeds():
    assert workloads.build_deck(1)[0] != workloads.build_deck(2)[0]


@pytest.mark.parametrize("name", ["scan-l3", "scan-l7"])
def test_scan_shape_does_not_depend_on_seed(name):
    first = workloads.scan_config(name, SEEDS[0])
    for seed in SEEDS[1:]:
        cfg = workloads.scan_config(name, seed)
        assert (cfg.l, cfg.bound, cfg.threads, cfg.charsum, len(cfg.radicands)) == (
            first.l, first.bound, first.threads, first.charsum, len(first.radicands)
        )
        assert len(cfg.targets) == len(cfg.radicands)
        # distinct primes other than l: no radicand collapses, so t is fixed
        assert len(set(cfg.radicands)) == len(cfg.radicands)
        assert all(ref.is_prime(a) and a != cfg.l for a in cfg.radicands)


def test_default_seed_scans_are_the_pinned_studies():
    l3 = workloads.scan_config("scan-l3", workloads.DEFAULT_SEED)
    l7 = workloads.scan_config("scan-l7", workloads.DEFAULT_SEED)
    assert (l3.l, l3.radicands, l3.targets, l3.bound, l3.threads) == (3, (2, 5, 7), (0, 1, 2), 3 * 10**7, 1)
    assert (l7.l, l7.radicands, l7.targets, l7.bound, l7.threads) == (7, (2, 3, 5), (0, 1, 2), 3 * 10**7, 2)


@pytest.fixture(scope="module")
def rs():
    return worker.import_radsym()


@pytest.fixture(scope="module")
def queries_pass(rs):
    wl = workloads.make("queries", 3)
    assert wl.setup(rs) == []
    ms, lat, problems = wl.run(rs)
    return wl, problems


def test_every_query_reply_passes_its_check(queries_pass):
    wl, problems = queries_pass
    assert problems == []
    assert wl.error_lines == sum(r.kind.startswith("invalid.") for r in wl.batch)


def _reply(rs, req):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req.line + "\n")
    try:
        with contextlib.redirect_stdout(out):
            rs.cli.main(["batch"])
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue())


def _first(wl, kind):
    return next(r for r in wl.batch if r.kind == kind)


def test_check_rejects_a_wrong_split_symbol(rs, queries_pass):
    wl, _ = queries_pass
    req = _first(wl, "symbol.l7.f1")
    reply = _reply(rs, req)
    assert workloads.check_reply(req, 1, reply) is None
    sym = reply["result"]["ideals"][0]["symbols"][0]
    sym["exponent"] = str((int(sym["exponent"]) + 1) % 7)
    assert workloads.check_reply(req, 1, reply) is not None


def test_check_rejects_a_wrong_degree(rs, queries_pass):
    wl, _ = queries_pass
    req = _first(wl, "degree.l3.m7")
    reply = _reply(rs, req)
    assert workloads.check_reply(req, 1, reply) is None
    reply["result"]["degree"] = str(3 * int(reply["result"]["degree"]))
    assert workloads.check_reply(req, 1, reply) is not None


def test_check_rejects_a_wrong_density_count(rs, queries_pass):
    wl, _ = queries_pass
    req = _first(wl, "density.l3")
    reply = _reply(rs, req)
    assert workloads.check_reply(req, 1, reply) is None
    reply["result"]["matches"] = str(int(reply["result"]["matches"]) + 1)
    assert workloads.check_reply(req, 1, reply) is not None


def test_check_rejects_a_report_for_an_invalid_line(rs, queries_pass):
    wl, _ = queries_pass
    bad = _first(wl, "invalid.zero")
    good = _first(wl, "reduce.l3.m4")
    assert workloads.check_reply(bad, 1, _reply(rs, bad)) is None
    assert workloads.check_reply(bad, 1, _reply(rs, good)) is not None


def test_scan_oracle_agrees_at_a_small_bound(rs):
    assert workloads.setup_oracle(rs, 7, (2, 3, 5), (0, 1, 2)) == []


def test_expected_ideals_agree_with_the_pinned_counts():
    for name in ("scan-l3", "scan-l7"):
        cfg = workloads.scan_config(name, workloads.DEFAULT_SEED)
        assert workloads.expected_ideals(name, cfg.radicands) == workloads.PINNED[name]["ideals"]
    assert workloads.expected_ideals("scan-l7", (2,)) == workloads.PINNED["scan-l7"]["charsum_ideals"]
