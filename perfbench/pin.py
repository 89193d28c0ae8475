"""Regenerate ``pins.json`` from the library in ``src/``.

    python3 perfbench/pin.py

Pins are the expected result and counters of every task.  Regenerate them
only for a change meant to alter results or counters, and say why in it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import import_lib  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DR_SMOKE,
    DR_TASKS,
    ORTHO_DIM,
    ORTHO_HEIGHT,
    ORTHO_SMOKE,
    ORTHO_TASKS,
    PINS_PATH,
    POOL_SIZE,
    dr_task,
    fingerprint,
    ortho_task,
    pool_instance,
    transversal_task,
)


def main() -> None:
    lib = import_lib()
    tasks = {}
    for specs in (*DR_TASKS.values(), *DR_SMOKE.values()):
        for name, n, m, kwargs in specs:
            tasks[name] = dr_task(lib, name, n, m, kwargs, {}).run()
    vectors = lib.ortho.directions_of_height(ORTHO_DIM, ORTHO_HEIGHT)
    for name, m, budget in ORTHO_TASKS + ORTHO_SMOKE:
        tasks[name] = ortho_task(lib, name, vectors, m, budget, {}).run()
    pool = []
    for pool_id in range(POOL_SIZE):
        pg, m, ell = pool_instance(lib, pool_id)
        got = transversal_task(lib, f"pool[{pool_id}]", pg, m, ell, None).run()
        pool.append({"graph": fingerprint(pg, m, ell), **got})
    # one task or pool entry per line, so a changed pin shows as one line
    task_lines = [f"  {json.dumps(name)}: {json.dumps(pin)}" for name, pin in tasks.items()]
    pool_lines = [f"  {json.dumps(entry)}" for entry in pool]
    text = '{"tasks": {\n' + ",\n".join(task_lines) + '\n },\n "pool": [\n' + ",\n".join(pool_lines) + "\n ]}\n"
    PINS_PATH.write_text(text)


if __name__ == "__main__":
    main()
