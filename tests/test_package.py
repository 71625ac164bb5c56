"""The package namespace: each name resolved on first access."""

import importlib
import subprocess
import sys

import pytest

import xfermi

# each name of the namespace and the module that defines it
HOMES = {
    "BOLTZMANN": "occupancy",
    "EXCLUSIVE": "occupancy",
    "MODELS": "occupancy",
    "NumericsError": "numerics",
    "OccupancyModel": "occupancy",
    "STANDARD_FD": "occupancy",
    "fermi_energy": "occupancy",
    "heat_capacity_series_coefficient": "degenerate",
    "landau_susceptibility": "magnetism",
    "occupation": "occupancy",
    "solve_fugacity": "eos",
    "solve_point": "eos",
    "specific_heat_exact": "degenerate",
}


def test_import_loads_no_submodule_and_no_numpy():
    script = (
        "import sys\n"
        "import xfermi\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith('xfermi.') or m.partition('.')[0] == 'numpy']\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (completed.returncode, completed.stderr) == (0, "")


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_name_is_the_object_of_its_module(name):
    home = importlib.import_module(f"xfermi.{HOMES[name]}")
    assert getattr(xfermi, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from xfermi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(xfermi.__all__) == sorted(HOMES)


def test_dir_lists_every_name():
    assert set(HOMES) <= set(dir(xfermi))
    assert "__version__" in dir(xfermi)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        xfermi.no_such_name  # noqa: B018
    assert not hasattr(xfermi, "no_such_name")
    with pytest.raises(ImportError):
        exec("from xfermi import no_such_name", {})
