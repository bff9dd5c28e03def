"""The import contract: numpy is loaded only by the code that samples floats.

The exact commands (``elevate``, ``dual-basis``, the singular power probe)
and ``import dualbern`` itself must not import numpy or
``dualbern.operators``, and ``import dualbern.cli`` must not import
``csv``.  The ``operators`` names stay reachable from the package through
its module ``__getattr__``, and they are exactly the public functions and
classes that module defines.  Each check runs in a fresh interpreter, since
this test process has numpy loaded.
"""

import os
import pathlib
import subprocess
import sys

import dualbern

SRC = pathlib.Path(dualbern.__file__).resolve().parent.parent

EXACT_WITHOUT_NUMPY = r"""
import contextlib, io, sys

def no_numpy(what):
    assert "numpy" not in sys.modules, what

import dualbern
no_numpy("import dualbern")
import dualbern.cli
no_numpy("import dualbern.cli")
assert "csv" not in sys.modules, "import dualbern.cli"
for argv, code in [
    (["elevate", "--m", "3", "--n", "7"], 0),
    (["elevate", "--m", "3", "--n", "7", "--format", "csv"], 0),
    (["dual-basis", "--m", "2", "--symmetric", "--k", "2"], 0),
    (["dual-basis", "--m", "2", "--n", "5", "--selection", "0,2,5"], 0),
    (["dual-basis", "--m", "2", "--n", "4", "--selection", "0,1,2", "--basis", "power"], 0),
    (["dual-basis", "--m", "2", "--n", "4", "--selection", "0,1,3", "--basis", "power"], 3),
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dualbern.cli.run(argv) == code, argv
    no_numpy(argv)
# the operators module is what pulls numpy in, so it stays unloaded as well
assert "dualbern.operators" not in sys.modules, "exact commands"
print("ok")
"""

LAZY_NAMES = r"""
import inspect
import dualbern
# the submodule by attribute first, before any name has imported it
assert dualbern.operators._colloc_inv is dualbern.bernstein._colloc_inv
ns = {}
exec("from dualbern import *", ns)
missing = [name for name in dualbern.__all__ if name not in ns]
assert not missing, missing
assert dualbern.quasi_interpolant_report is dualbern.operators.quasi_interpolant_report
assert set(dualbern.__all__) <= set(dir(dualbern))
# the lazy names are the public functions and classes of dualbern.operators,
# so one added there without an __all__ entry fails here
ops = dualbern.operators
public = {name for name, obj in vars(ops).items() if not name.startswith("_")
          and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == ops.__name__}
lazy = {name for name in dualbern.__all__ if name not in vars(dualbern)}
assert lazy == public, (lazy ^ public)
try:
    dualbern.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("dualbern.no_such_name resolved")
print("ok")
"""


def _run(script):
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_exact_commands_do_not_import_numpy():
    proc = _run(EXACT_WITHOUT_NUMPY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_operators_names_resolve_lazily():
    proc = _run(LAZY_NAMES)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
