"""The benchmark's tracer (radbench/tracer.py) resolves radsym names with
``getattr`` when it is built: the four ``kernels`` names,
``arith.poly_is_irreducible``, ``cli.main`` and every function in
``radsym.__all__``.  Renaming or deleting one of them breaks a traced
benchmark run at set-up, so this loads the tracer file as it is and installs
and uninstalls it on the package."""

import importlib.util
from pathlib import Path

import radsym

TRACER = Path(__file__).resolve().parent.parent / "radbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("radbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_radsym():
    tracer_module = _load_tracer()
    originals = {name: getattr(radsym.kernels, name) for name in tracer_module.KERNELS}
    degree = radsym.degree
    tracer = tracer_module.Tracer(radsym)
    tracer.install()
    try:
        assert radsym.degree is not degree
        assert all(getattr(radsym.kernels, n) is not fn for n, fn in originals.items())
        assert radsym.degree(radsym.normalize_inputs(3, [2, 3, 6])) == 9
    finally:
        tracer.uninstall()
    assert radsym.degree is degree
    assert all(getattr(radsym.kernels, n) is fn for n, fn in originals.items())
    names = {span[2] for span in tracer.spans}
    assert {"radical.degree", "radical.reduce_basis", "radical.rank_and_kernel"} <= names
