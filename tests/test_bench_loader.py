"""The two-tree loader of ``scripts/bench.py``: two copies of one ``src`` in
one interpreter share no module and no module state, and compute alike."""

import importlib.util
import os
import sys
import types

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
NAMES = ("mtgee_copy_a", "mtgee_copy_b")


@pytest.fixture(scope="module")
def copies():
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(ROOT, "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    yield [bench.load_tree(os.path.join(ROOT, "src"), name) for name in NAMES]
    for key in [key for key in sys.modules if key.split(".")[0] in NAMES]:
        del sys.modules[key]


def _modules(name):
    """{module name below the package: module} of one copy."""
    return {key.partition(".")[2]: module for key, module in sys.modules.items()
            if key.split(".")[0] == name}


def test_copies_share_no_module(copies):
    a, b = (_modules(name) for name in NAMES)
    assert {"", "cli", "corr", "estfun", "model", "simgen"} <= set(a) == set(b)
    assert not {id(module) for module in a.values()} & {id(module) for module in b.values()}
    # every module, class and function a copy's modules hold comes from that copy
    for name, modules in zip(NAMES, (a, b)):
        for module in modules.values():
            for value in vars(module).values():
                owner = (value.__name__ if isinstance(value, types.ModuleType)
                         else getattr(value, "__module__", None))
                if isinstance(owner, str) and owner.split(".")[0].startswith("mtgee"):
                    assert owner.split(".")[0] == name, (module.__name__, owner)


def test_module_state_is_per_copy(copies, monkeypatch):
    a, b = copies
    chunk = b.simgen.CHUNK_REPS
    monkeypatch.setattr(a.simgen, "CHUNK_REPS", chunk + 1)
    assert (a.simgen.CHUNK_REPS, b.simgen.CHUNK_REPS) == (chunk + 1, chunk)


def test_two_step_fit_is_bit_identical(copies):
    fits = []
    for mt in copies:
        design = mt.SimDesign(n=200, m=4, truth="cs", alpha0=0.5, seed=5)
        ctx = mt.EstimatingContext(data=mt.generate_ar2(design, 0),
                                   link=mt.get_link("identity"), corr=mt.corr.two_step(4))
        result = mt.fit(ctx, "linear")
        fits.append((result.beta_hat.tobytes(), result.psi.tobytes()))
    assert fits[0] == fits[1]
