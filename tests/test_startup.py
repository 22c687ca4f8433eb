"""What a fresh interpreter loads: the package resolves each public name on
its first read, and a CLI command loads only the layer it runs.  Every
test here runs in a new interpreter, since this process has loaded the
whole package already."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import symchains
from symchains import SetPartition, build_partition_chains, gk_decomposition

LAYERS = tuple(f"symchains.{name}" for name in ("boolean", "coding", "identities", "partitions"))

# Imports the package and its CLI, runs the command in argv if there is
# one, and reports on stderr which of the names given in the environment
# this loaded.
LOAD_PROBE = """
import os, sys
watched = os.environ["WATCHED"].split()
before = {name for name in watched if name in sys.modules}
import symchains, symchains.cli
if sys.argv[1:]:
    assert symchains.cli.run(sys.argv[1:]) == 0
print(sorted(name for name in watched if name in sys.modules and name not in before), file=sys.stderr)
"""

STAR_PROBE = """
import importlib
import symchains
# The modules stay readable as attributes, as when the package loaded them all.
assert symchains.partitions is importlib.import_module("symchains.partitions")
ns = {}
exec("from symchains import *", ns)
del ns["__builtins__"]
assert sorted(ns) == symchains.__all__, sorted(set(ns) ^ set(symchains.__all__))
for name, obj in ns.items():
    module = importlib.import_module("symchains." + symchains._MODULE_OF[name])
    assert obj is vars(module)[name], name
    assert getattr(obj, "__module__", module.__name__) == module.__name__, name
print("ok")
"""

# Unpickles the values given in hex before anything of the package is
# loaded, and compares them with the same values built afresh.
PICKLE_PROBE = """
import pickle, sys
loaded = pickle.loads(bytes.fromhex(sys.argv[1]))
from symchains import SetPartition, build_partition_chains, gk_decomposition
assert loaded == [SetPartition(4, ((1, 3), (2,), (4,))), build_partition_chains(4), gk_decomposition(5)]
assert loaded[2].chains == gk_decomposition(5).chains
print("ok")
"""


def fresh_python(code, *argv, env=()):
    src = str(Path(symchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": path, **dict(env)},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, unloaded", [
    ((), LAYERS + ("fractions", "decimal", "json")),
    (("word", "10", "1,3,4,8,9"), ("symchains.partitions", "symchains.identities", "json")),
    (("code", "10", "1,3,4,8,9", "-f", "text"), ("symchains.partitions", "symchains.identities", "json")),
], ids=["import", "word", "code"])
def test_start_loads_only_the_layer_run(argv, unloaded):
    proc = fresh_python(LOAD_PROBE, *argv, env={"WATCHED": " ".join(unloaded)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_star_import_binds_the_public_names():
    proc = fresh_python(STAR_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_values_unpickle_in_a_fresh_interpreter():
    values = [SetPartition(4, ((1, 3), (2,), (4,))), build_partition_chains(4), gk_decomposition(5)]
    proc = fresh_python(PICKLE_PROBE, pickle.dumps(values).hex())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
