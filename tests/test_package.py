"""The package as the benchmark sees it.

perfbench/ imports transversal_lab alone, reads its modules as attributes
of the package and rebinds the functions it traces in them.  A fresh
interpreter runs the check, because in this process every module the
other tests import is already an attribute of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("canon", "codec", "constructions", "embedding", "errors", "graphs", "ortho", "ramsey", "transversal")

# Tracer.installed raises on a probe whose attribute is missing, before it
# rebinds anything, and puts every original back when the block ends
CHECK = f"""
import transversal_lab
missing = [name for name in {MODULES!r} if not hasattr(transversal_lab, name)]
assert not missing, missing
from perfbench.layers import probes
from perfbench.spans import Tracer
found = probes(transversal_lab)
with Tracer().installed(found):
    assert all(hasattr(getattr(p.module, p.attr), "__wrapped__") for p in found)
assert not any(hasattr(getattr(p.module, p.attr), "__wrapped__") for p in found)
print(len(found))
"""


def test_benchmark_finds_every_module_and_probe():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
