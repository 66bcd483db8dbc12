import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import radsym.cli
import radsym.density
from radsym.cli import _run_batch, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_degree_text(capsys):
    code, out, _ = run_cli(capsys, "degree", "-l", "3", "2", "3", "6")
    assert code == 0
    assert "degree: 9" in out
    assert "kernel_basis: [[1,1,2]]" in out
    assert "oracle: {relation_count=3 degree=9}" in out


def test_degree_json_schema(capsys):
    code, out, _ = run_cli(capsys, "degree", "-l", "3", "--format", "json", "2", "3", "6")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"config", "result", "checkpoints", "warnings"}
    assert report["config"]["command"] == "degree"
    assert report["config"]["l"] == "3"  # integers travel as decimal strings
    assert report["result"]["degree"] == "9"
    assert report["result"]["rank"] == "2"


def test_degree_negative_radicands(capsys):
    code, out, _ = run_cli(capsys, "degree", "-l", "3", "--format", "json", "-5", "25")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["degree"] == "3"  # -5 and 25 are related: 25*(-5) = (-5)^3


def test_degree_power_input(capsys):
    code, out, _ = run_cli(capsys, "degree", "-l", "3", "8")
    assert code == 0
    assert "degree: 1" in out


def test_degree_l5(capsys):
    code, out, _ = run_cli(capsys, "degree", "-l", "5", "2", "3")
    assert code == 0
    assert "degree: 25" in out


def test_degree_oracle_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(radsym.cli, "brute_force_kernel", lambda s: 9)  # truly 3
    code, out, err = run_cli(capsys, "degree", "-l", "3", "2", "3", "6")
    assert (code, out) == (3, "")
    assert err == "error: internal: certified oracle gives 3, methods give 9\n"


def test_symbol_golden_order(capsys):
    code, out, _ = run_cli(capsys, "symbol", "-l", "3", "-p", "7", "--format", "json", "2")
    assert code == 0
    report = json.loads(out)
    ideals = report["result"]["ideals"]
    assert [row["g"] for row in ideals] == ["X+5", "X+3"]
    assert [row["symbols"][0]["exponent"] for row in ideals] == ["2", "1"]


def test_symbol_single_ideal(capsys):
    code, out, _ = run_cli(capsys, "symbol", "-l", "3", "-p", "2", "--format", "json", "3")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ideals"][0]["symbols"][0]["exponent"] == "0"
    code, out, _ = run_cli(capsys, "symbol", "-l", "3", "-p", "5", "--ideal", "0", "1")
    assert code == 0
    assert "exponent=0" in out


def test_exit_codes_user_errors(capsys):
    assert run_cli(capsys, "degree", "-l", "4", "2")[0] == 2
    assert run_cli(capsys, "degree", "-l", "3", "0")[0] == 2
    assert run_cli(capsys, "symbol", "-l", "3", "-p", "3", "2")[0] == 2  # ramified
    assert run_cli(capsys, "symbol", "-l", "3", "-p", "9", "2")[0] == 2  # not prime
    assert run_cli(capsys, "charsum", "-l", "3", "-x", "1000", "8")[0] == 2
    assert run_cli(capsys, "density", "-l", "3", "-x", "100", "--targets", "1", "2", "5")[0] == 2
    assert run_cli(capsys, "symbol", "-l", "3", "-p", "7", "--ideal", "5", "2")[0] == 2


def test_strong_pseudoprime_to_twelve_bases_is_not_prime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin for the first
    # 12 prime bases; 41 is the witness
    psi12 = "318665857834031151167461"
    code, out, err = run_cli(capsys, "symbol", "-l", "3", "-p", psi12, "2")
    assert (code, out) == (2, "")
    assert f"{psi12} is not prime" in err
    code, out, _ = run_cli(capsys, "degree", "-l", "3", "399165290221", "798330580441", psi12)
    assert code == 0
    assert "degree: 9" in out and "oracle: {relation_count=3 degree=9}" in out


def test_density_command(capsys):
    code, out, _ = run_cli(
        capsys, "density", "-l", "3", "-x", "2000", "--targets", "0,0", "--format", "json", "2", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["consistent"] is True
    assert report["result"]["t"] == "2"
    assert report["checkpoints"][-1]["bound"] == "2000"
    assert len(report["result"]["char_sums"]) == 2


def test_density_inconsistent_still_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "density", "-l", "3", "-x", "2000", "--targets", "1,1", "--format", "json", "12", "18"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["consistent"] is False
    assert report["result"]["matches"] == "0"


def test_density_empty_targets(capsys):
    code, out, _ = run_cli(capsys, "density", "-l", "3", "-x", "1000", "--targets", "")
    assert code == 0
    assert "empirical: 1.0" in out


def test_charsum_command(capsys):
    code, out, _ = run_cli(capsys, "charsum", "-l", "3", "-x", "3", "--format", "json", "2")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ideals"] == "0"
    assert report["result"]["normalized"] == 0.0

    code, out, _ = run_cli(capsys, "charsum", "-l", "3", "-x", "5000", "--format", "json", "2")
    report = json.loads(out)
    tallies = [int(t) for t in report["result"]["tallies"]]
    assert sum(tallies) == int(report["result"]["ideals"])


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", "-l", "3", "--targets", "1,2", "12", "18")
    assert code == 0
    assert "consistent: True" in out
    code, out, _ = run_cli(capsys, "check", "-l", "3", "--targets", "1,1", "12", "18")
    assert code == 0
    assert "consistent: False" in out


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "-l", "3", "--format", "json", "12", "18")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["b"] == ["12"]
    assert report["result"]["transform"] == [["1", "0"]]


def test_batch_mode(capsys, monkeypatch):
    lines = "\n".join(
        [
            json.dumps({"command": "degree", "l": 3, "radicands": [2, 3, 6]}),
            json.dumps({"command": "nope"}),
            json.dumps({"command": "check", "l": 3, "radicands": [2], "targets": [1]}),
            json.dumps({"command": "degree", "l": 3, "radicands": 5}),
            json.dumps({"command": "check", "l": 3, "radicands": [2], "targets": 1}),
            json.dumps([1, 2]),
            json.dumps({"command": "degree", "l": 3, "radicands": [2]}),
        ]
    )
    code = _run_batch(io.StringIO(lines))
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(out) == 7
    first = json.loads(out[0])
    assert first["result"]["degree"] == "9"
    assert "error" in json.loads(out[1])
    assert json.loads(out[2])["result"]["consistent"] is True
    assert "'radicands'" in json.loads(out[3])["error"]
    assert "'targets'" in json.loads(out[4])["error"]
    assert json.loads(out[5]) == {"error": "config must be a JSON object", "line": "6"}
    assert json.loads(out[6])["result"]["degree"] == "3"


def test_text_config_line_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "density", "-l", "5", "-x", "1000", "--targets", "1,0", "--seed", "4",
        "--threads", "2", "2", "3",
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "config: command=density l=5 radicands=[2,3] targets=[1,0] norm_bound=1000 "
        "seed=4 format=text threads=2 oracle=False prime=None ideal=all n=None"
    )


# Whole stdout of one run per subcommand.  Besides the values these pin the
# text order of result keys and of char-sum rows, which is the field order
# of the report dataclasses.
_PINNED_REPORTS = {
    "density-text": (
        ["density", "-l", "3", "-x", "2000", "--targets", "0,1", "2", "5"],
        "config: command=density l=3 radicands=[2,5] targets=[0,1] norm_bound=2000 "
        "seed=0 format=text threads=1 oracle=False prime=None ideal=all n=None\n"
        "consistent: True\n"
        "t: 2\n"
        "predicted: 0.1111111111111111\n"
        "reduced: [2,5]\n"
        "translated: [0,1]\n"
        "ideals_scanned: 301\n"
        "matches: 30\n"
        "empirical: 0.09966777408637874\n"
        "char_sums: [{n=2 bound=2000 ideals=301 tallies=[97,102,102] "
        "value_re=-5.000000000000021 value_im=2.842170943040401e-14 "
        "magnitude=5.000000000000021 normalized=0.016611295681063194},{n=5 "
        "bound=2000 ideals=301 tallies=[105,98,98] value_re=6.999999999999979 "
        "value_im=2.842170943040401e-14 magnitude=6.999999999999979 "
        "normalized=0.023255813953488302}]\n"
        "checkpoints:\n"
        "  bound=1000 ideals=164 matches=17 empirical=0.10365853658536585\n"
        "  bound=2000 ideals=301 matches=30 empirical=0.09966777408637874\n",
    ),
    "density-json": (
        ["density", "-l", "3", "-x", "2000", "--targets", "0,1", "2", "5", "--format", "json"],
        '{"checkpoints":[{"bound":"1000","empirical":0.10365853658536585,'
        '"ideals":"164","matches":"17"},{"bound":"2000",'
        '"empirical":0.09966777408637874,"ideals":"301","matches":"30"}],'
        '"config":{"command":"density","format":"json","ideal":"all","l":"3",'
        '"n":null,"norm_bound":"2000","oracle":false,"prime":null,"radicands":["2",'
        '"5"],"seed":"0","targets":["0","1"],"threads":"1"},'
        '"result":{"char_sums":[{"bound":"2000","ideals":"301",'
        '"magnitude":5.000000000000021,"n":"2","normalized":0.016611295681063194,'
        '"tallies":["97","102","102"],"value_im":2.842170943040401e-14,'
        '"value_re":-5.000000000000021},{"bound":"2000","ideals":"301",'
        '"magnitude":6.999999999999979,"n":"5","normalized":0.023255813953488302,'
        '"tallies":["105","98","98"],"value_im":2.842170943040401e-14,'
        '"value_re":6.999999999999979}],"consistent":true,'
        '"empirical":0.09966777408637874,"ideals_scanned":"301","matches":"30",'
        '"predicted":0.1111111111111111,"reduced":["2","5"],"t":"2",'
        '"translated":["0","1"]},"warnings":[]}\n',
    ),
    "symbol-json": (
        ["symbol", "-l", "7", "-p", "29", "2", "3", "--format", "json"],
        '{"checkpoints":[],"config":{"command":"symbol","format":"json",'
        '"ideal":"all","l":"7","n":null,"norm_bound":null,"oracle":false,'
        '"prime":"29","radicands":["2","3"],"seed":"0","targets":null,'
        '"threads":"1"},"result":{"ideal_count":"6","ideals":[{"g":"X+22",'
        '"g_coeffs":["22","1"],"index":"0","norm":"29","symbols":[{"exponent":"5",'
        '"radicand":"2"},{"exponent":"4","radicand":"3"}]},{"g":"X+13",'
        '"g_coeffs":["13","1"],"index":"1","norm":"29","symbols":[{"exponent":"1",'
        '"radicand":"2"},{"exponent":"5","radicand":"3"}]},{"g":"X+9",'
        '"g_coeffs":["9","1"],"index":"2","norm":"29","symbols":[{"exponent":"6",'
        '"radicand":"2"},{"exponent":"2","radicand":"3"}]},{"g":"X+6",'
        '"g_coeffs":["6","1"],"index":"3","norm":"29","symbols":[{"exponent":"3",'
        '"radicand":"2"},{"exponent":"1","radicand":"3"}]},{"g":"X+5",'
        '"g_coeffs":["5","1"],"index":"4","norm":"29","symbols":[{"exponent":"4",'
        '"radicand":"2"},{"exponent":"6","radicand":"3"}]},{"g":"X+4",'
        '"g_coeffs":["4","1"],"index":"5","norm":"29","symbols":[{"exponent":"2",'
        '"radicand":"2"},{"exponent":"3","radicand":"3"}]}],"inertia_degree":"1",'
        '"prime":"29"},"warnings":[]}\n',
    ),
    "degree-json": (
        ["degree", "-l", "3", "2", "3", "6", "--format", "json"],
        '{"checkpoints":[],"config":{"command":"degree","format":"json",'
        '"ideal":"all","l":"3","n":null,"norm_bound":null,"oracle":false,'
        '"prime":null,"radicands":["2","3","6"],"seed":"0","targets":null,'
        '"threads":"1"},"result":{"b":["2","3"],"degree":"9","dropped_indices":[],'
        '"exclusive_primes":["2","3"],"kernel_basis":[["1","1","2"]],'
        '"normalized":["2","3","6"],"oracle":{"degree":"9","relation_count":"3"},'
        '"rank":"2","t":"2"},"warnings":[]}\n',
    ),
    "reduce-json": (
        ["reduce", "-l", "3", "12", "18", "--format", "json"],
        '{"checkpoints":[],"config":{"command":"reduce","format":"json",'
        '"ideal":"all","l":"3","n":null,"norm_bound":null,"oracle":false,'
        '"prime":null,"radicands":["12","18"],"seed":"0","targets":null,'
        '"threads":"1"},"result":{"b":["12"],"degree":"3","dropped_indices":[],'
        '"exclusive_primes":["2"],"normalized":["12","18"],"t":"1",'
        '"transform":[["1","0"]]},"warnings":[]}\n',
    ),
    "charsum-json": (
        ["charsum", "-l", "3", "-x", "2000", "2", "--format", "json"],
        '{"checkpoints":[{"bound":"1000","ideals":"165",'
        '"magnitude":3.0000000000000107,"n":"2","normalized":0.018181818181818247,'
        '"tallies":["53","56","56"],"value_im":2.1316282072803006e-14,'
        '"value_re":-3.0000000000000107},{"bound":"2000","ideals":"302",'
        '"magnitude":4.000000000000021,"n":"2","normalized":0.013245033112582853,'
        '"tallies":["98","102","102"],"value_im":2.842170943040401e-14,'
        '"value_re":-4.000000000000021}],"config":{"command":"charsum",'
        '"format":"json","ideal":"all","l":"3","n":"2","norm_bound":"2000",'
        '"oracle":false,"prime":null,"radicands":[],"seed":"0","targets":null,'
        '"threads":"1"},"result":{"bound":"2000","ideals":"302",'
        '"magnitude":4.000000000000021,"n":"2","normalized":0.013245033112582853,'
        '"tallies":["98","102","102"],"value_im":2.842170943040401e-14,'
        '"value_re":-4.000000000000021},"warnings":[]}\n',
    ),
    "charsum-text": (
        ["charsum", "-l", "3", "-x", "2000", "2"],
        "config: command=charsum l=3 radicands=[] targets=None norm_bound=2000 "
        "seed=0 format=text threads=1 oracle=False prime=None ideal=all n=2\n"
        "n: 2\n"
        "bound: 2000\n"
        "ideals: 302\n"
        "tallies: [98,102,102]\n"
        "value_re: -4.000000000000021\n"
        "value_im: 2.842170943040401e-14\n"
        "magnitude: 4.000000000000021\n"
        "normalized: 0.013245033112582853\n"
        "checkpoints:\n"
        "  n=2 bound=1000 ideals=165 tallies=[53,56,56] value_re=-3.0000000000000107 "
        "value_im=2.1316282072803006e-14 magnitude=3.0000000000000107 "
        "normalized=0.018181818181818247\n"
        "  n=2 bound=2000 ideals=302 tallies=[98,102,102] "
        "value_re=-4.000000000000021 value_im=2.842170943040401e-14 "
        "magnitude=4.000000000000021 normalized=0.013245033112582853\n",
    ),
    "reduce-text": (
        ["reduce", "-l", "3", "12", "18"],
        "config: command=reduce l=3 radicands=[12,18] targets=None norm_bound=None "
        "seed=0 format=text threads=1 oracle=False prime=None ideal=all n=None\n"
        "t: 1\n"
        "b: [12]\n"
        "exclusive_primes: [2]\n"
        "transform: [[1,0]]\n"
        "degree: 3\n"
        "normalized: [12,18]\n"
        "dropped_indices: []\n",
    ),
    "symbol-text": (
        ["symbol", "-l", "7", "-p", "29", "2", "3"],
        "config: command=symbol l=7 radicands=[2,3] targets=None norm_bound=None "
        "seed=0 format=text threads=1 oracle=False prime=29 ideal=all n=None\n"
        "prime: 29\n"
        "inertia_degree: 1\n"
        "ideal_count: 6\n"
        "ideals: [{index=0 g=X+22 g_coeffs=[22,1] norm=29 symbols=[{radicand=2 "
        "exponent=5},{radicand=3 exponent=4}]},{index=1 g=X+13 g_coeffs=[13,1] "
        "norm=29 symbols=[{radicand=2 exponent=1},{radicand=3 exponent=5}]},{index=2 "
        "g=X+9 g_coeffs=[9,1] norm=29 symbols=[{radicand=2 exponent=6},{radicand=3 "
        "exponent=2}]},{index=3 g=X+6 g_coeffs=[6,1] norm=29 symbols=[{radicand=2 "
        "exponent=3},{radicand=3 exponent=1}]},{index=4 g=X+5 g_coeffs=[5,1] norm=29 "
        "symbols=[{radicand=2 exponent=4},{radicand=3 exponent=6}]},{index=5 g=X+4 "
        "g_coeffs=[4,1] norm=29 symbols=[{radicand=2 exponent=2},{radicand=3 "
        "exponent=3}]}]\n",
    ),
    "degree-text": (
        ["degree", "-l", "3", "2", "3", "6"],
        "config: command=degree l=3 radicands=[2,3,6] targets=None norm_bound=None "
        "seed=0 format=text threads=1 oracle=False prime=None ideal=all n=None\n"
        "degree: 9\n"
        "rank: 2\n"
        "t: 2\n"
        "b: [2,3]\n"
        "exclusive_primes: [2,3]\n"
        "kernel_basis: [[1,1,2]]\n"
        "normalized: [2,3,6]\n"
        "dropped_indices: []\n"
        "oracle: {relation_count=3 degree=9}\n",
    ),
}


@pytest.mark.parametrize("argv, expected", _PINNED_REPORTS.values(), ids=list(_PINNED_REPORTS))
def test_whole_report_is_pinned(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")



def test_batch_echo_defaults_to_json_format(capsys):
    line = json.dumps({"command": "check", "l": 3, "radicands": [12, 18], "targets": [1, 2]})
    assert _run_batch(io.StringIO(line)) == 0
    assert capsys.readouterr().out == (
        '{"checkpoints":[],"config":{"command":"check","format":"json","ideal":"all",'
        '"l":"3","n":null,"norm_bound":null,"oracle":false,"prime":null,'
        '"radicands":["12","18"],"seed":"0","targets":["1","2"],"threads":"1"},'
        '"result":{"consistent":true,"dropped_indices":[],"kernel_basis":[["1","1"]],'
        '"rank":"1"},"warnings":[]}\n'
    )


def test_out_of_range_bound_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "density", "-l", "3", "-x", "1000000000000000", "--targets", "0", "2"
    )
    assert (code, out) == (2, "")
    assert "norm bound" in err
    code, out, err = run_cli(capsys, "charsum", "-l", "3", "-x", str(2**31), "2")
    assert (code, out) == (2, "")


def test_batch_out_of_range_bound_keeps_the_stream(capsys):
    lines = "\n".join(
        [
            json.dumps({"command": "density", "l": 3, "radicands": [2], "targets": [0],
                        "norm_bound": 10**15}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2, 3, 6]}),
        ]
    )
    code = _run_batch(io.StringIO(lines))
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(out) == 2
    error = json.loads(out[0])
    assert error["line"] == "1" and "norm bound" in error["error"]
    assert json.loads(out[1])["result"]["degree"] == "9"


@pytest.fixture
def no_heavy_work(monkeypatch):
    """Fail any config that forks scan workers or searches for the ideals
    above p; the failure shows as exit 3 instead of the expected 2."""

    def refuse(*args, **kwargs):
        raise AssertionError("started work for a rejected config")

    monkeypatch.setattr(radsym.density.os, "fork", refuse)
    monkeypatch.setattr(radsym.cli, "primes_above", refuse)


def test_oversize_l_and_threads_exit_2(capsys, no_heavy_work):
    code, out, err = run_cli(capsys, "symbol", "-l", "10007", "-p", "2", "2")
    assert (code, out) == (2, "") and "below 1024" in err
    assert run_cli(capsys, "check", "-l", "1031", "--targets", "1", "2")[0] == 2
    assert run_cli(capsys, "check", "-l", "1021", "--targets", "1", "2")[0] == 0
    code, out, err = run_cli(
        capsys, "density", "-l", "3", "-x", "100000", "--threads", "65", "--targets", "0", "2"
    )
    assert (code, out) == (2, "") and "threads" in err
    assert run_cli(capsys, "charsum", "-l", "3", "-x", "1000", "--threads", "1000000", "2")[0] == 2


def test_batch_caps_l_and_threads(capsys, no_heavy_work):
    lines = "\n".join(
        [
            json.dumps({"command": "symbol", "l": 10007, "prime": 2, "radicands": [2]}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2, 3, 6]}),
            json.dumps({"command": "density", "l": 3, "radicands": [2], "targets": [0],
                        "norm_bound": 10**5, "threads": 65}),
            json.dumps({"command": "degree", "l": 5, "radicands": [2, 3]}),
        ]
    )
    code = _run_batch(io.StringIO(lines))
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 2
    assert len(out) == 4
    assert out[0]["line"] == "1" and "below 1024" in out[0]["error"]
    assert out[1]["result"]["degree"] == "9"
    assert out[2]["line"] == "3" and "threads" in out[2]["error"]
    assert out[3]["result"]["degree"] == "25"


def test_batch_rejects_bools_and_floats_for_typed_keys(capsys):
    lines = "\n".join(
        [
            json.dumps({"command": "degree", "l": 3, "radicands": [2, 3], "oracle": "false"}),
            json.dumps({"command": "degree", "l": 3.9, "radicands": [2]}),
            json.dumps({"command": "check", "l": 3, "radicands": [2], "targets": [True]}),
            json.dumps({"command": "density", "l": 3, "radicands": [2], "targets": [0],
                        "norm_bound": 1e5}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "ideal": None}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "format": None}),
            json.dumps({"command": None}),
            json.dumps({"command": "symbol", "l": 3, "prime": 7, "radicands": [2],
                        "ideal": 0}),
            json.dumps({"command": ["degree"], "l": 3, "radicands": [2]}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "format": ["json"]}),
            # integer strings are ASCII -?[0-9]+ only, as the echo writes them
            json.dumps({"command": "degree", "l": 3, "radicands": ["1_000"]}),
            json.dumps({"command": "degree", "l": " 3 ", "radicands": [2]}),
            json.dumps({"command": "degree", "l": 3, "radicands": ["+5"]}),
            json.dumps({"command": "degree", "l": 3, "radicands": ["\u0661\u0662"]}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "seed": ""}),
            # batch replies are JSON, so a line may not ask for another format
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "format": "text"}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2], "format": "xml"}),
            json.dumps({"command": "symbol", "l": 3, "prime": 7, "radicands": [2],
                        "ideal": "+0"}),
            json.dumps({"command": "symbol", "l": 3, "prime": 7, "radicands": [2],
                        "ideal": "\u0660"}),
            json.dumps({"command": "degree", "l": "3", "radicands": ["2", 3], "oracle": False}),
        ]
    )
    code = _run_batch(io.StringIO(lines))
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 2
    assert len(out) == 20
    keys = ["oracle", "l", "targets", "norm_bound", "ideal", "format", "command", "ideal",
            "command", "format", "radicands", "l", "radicands", "radicands", "seed", "format",
            "format"]
    for line_no, key in enumerate(keys, 1):
        record = out[line_no - 1]
        assert set(record) == {"error", "line"} and record["line"] == str(line_no)
        assert record["error"].startswith(f"bad value for config key '{key}'")
    assert out[17] == {"error": "--ideal must be an index or 'all', got '+0'", "line": "18"}
    assert out[18] == {"error": "--ideal must be an index or 'all', got '\u0660'", "line": "19"}
    assert out[19]["result"]["degree"] == "9"  # decimal strings still read as integers


def _no_memory(*args, **kwargs):
    raise MemoryError


def test_memory_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(radsym.density.kernels, "sieve_primes", _no_memory)
    code, out, err = run_cli(capsys, "density", "-l", "3", "-x", "100000", "--targets", "0", "2")
    assert (code, out, err) == (2, "", "error: out of memory\n")
    code, out, err = run_cli(capsys, "charsum", "-l", "3", "-x", "100000", "2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_batch_memory_error_keeps_the_stream(capsys, monkeypatch):
    monkeypatch.setattr(radsym.density.kernels, "sieve_primes", _no_memory)
    lines = "\n".join(
        [
            json.dumps({"command": "density", "l": 3, "radicands": [2], "targets": [0],
                        "norm_bound": 10**5}),
            json.dumps({"command": "degree", "l": 3, "radicands": [2, 3, 6]}),
        ]
    )
    code = _run_batch(io.StringIO(lines))
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 2
    assert out == [{"error": "out of memory", "line": "1"}, out[1]]
    assert out[1]["result"]["degree"] == "9"


def test_batch_all_good_exits_zero(capsys):
    lines = json.dumps({"command": "degree", "l": 3, "radicands": [2]}) + "\n"
    assert _run_batch(io.StringIO(lines)) == 0
    capsys.readouterr()


def _cli(*argv):
    """Run the CLI in a child process that imports radsym from this checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "radsym", *argv], capture_output=True, text=True, env=env
    )


def test_json_determinism_subprocess():
    argv = ["density", "-l", "3", "-x", "20000", "--targets", "1,2",
            "--format", "json", "--seed", "1", "12", "18"]
    a = _cli(*argv)
    b = _cli(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    c = _cli(*argv[:-2], "--threads", "2", *argv[-2:])
    ra, rc = json.loads(a.stdout), json.loads(c.stdout)
    assert ra["result"] == rc["result"]
    assert ra["checkpoints"] == rc["checkpoints"]


# Random batch lines: requests built from usable values, with up to two keys
# (or an unknown one) replaced by junk: null, bools, floats, strings, ints far
# outside any cap, and nesting; plus non-object JSON, deep nesting and text
# that is not JSON.  Usable values stay small (bounds, l, radicand counts), so
# no line does heavy work; huge ints are powers of ten, cheap to factor and
# never prime.
_HUGE = st.builds(lambda k, sign: sign * 10**k, st.integers(19, 80), st.sampled_from([1, -1]))
_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-20, 40),
    _HUGE,
    st.text(max_size=6),
    st.sampled_from(["3", "7", "-1", "all", "1e5", "0x10"]),
)
_JUNK = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_SMALL_INTS = st.lists(st.integers(-40, 40), max_size=3)
_USABLE = {
    "command": st.sampled_from(
        ["degree", "reduce", "symbol", "density", "charsum", "check", "batch", "nope"]
    ),
    "l": st.sampled_from([3, 5, 7, 11, 13, 2, 9, 1031, -3]),
    "radicands": _SMALL_INTS,
    "targets": _SMALL_INTS,
    "norm_bound": st.integers(-2, 3000),
    "seed": st.integers(-5, 5),
    "format": st.sampled_from(["json", "text", "xml"]),
    "threads": st.integers(0, 3),
    "oracle": st.booleans(),
    "prime": st.sampled_from([2, 3, 5, 7, 11, 13, 29, 31, 101, 4, 1, 0, -7]),
    "ideal": st.sampled_from(["all", "0", "1", "5", "-1", "x"]),
    "n": st.integers(-30, 30),
}
_REQUESTS = st.builds(
    lambda usable, junk: {**usable, **junk},
    st.fixed_dictionaries(
        {key: _USABLE[key] for key in ("command", "l", "radicands")},
        optional={key: v for key, v in _USABLE.items() if key not in ("command", "l", "radicands")},
    ),
    st.dictionaries(st.sampled_from([*_USABLE, "bogus"]), _JUNK, max_size=2),
)
_LINES = st.one_of(
    _REQUESTS.map(json.dumps),
    _REQUESTS.map(json.dumps),
    _REQUESTS.map(json.dumps),
    _JUNK.map(json.dumps),
    st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(alphabet=st.characters(blacklist_categories=("Cc", "Zl", "Zp")), min_size=1,
            max_size=20).filter(str.strip),
)


def _no_json_int(text):
    raise AssertionError(f"a reply holds the JSON integer {text}, not its decimal string")


@settings(deadline=None, max_examples=60)
@given(st.lists(_LINES, min_size=1, max_size=5))
def test_batch_answers_every_random_line(lines):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run_batch(io.StringIO("\n".join(lines)))
    replies = [json.loads(line, parse_int=_no_json_int) for line in out.getvalue().splitlines()]
    assert len(replies) == len(lines)
    codes = []
    for line_no, reply in enumerate(replies, 1):
        if "error" in reply:
            assert set(reply) == {"error", "line"} and reply["line"] == str(line_no)
            codes.append(3 if reply["error"].startswith("internal:") else 2)
        else:
            assert set(reply) == {"config", "result", "checkpoints", "warnings"}
            codes.append(0)
    assert code == max(codes)
    assert err.getvalue() == ""
