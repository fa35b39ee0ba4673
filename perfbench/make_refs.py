"""Regenerate the committed references in ``perfbench/refs/``.

    python3 perfbench/make_refs.py [workload ...]

Runs every pool input of each workload once with the program in ``src/``
and records the expected output.  Run it only on a commit whose answers are
trusted: the benchmark counts any later difference as a failed operation.
Inputs whose output fails the workload's independent checks are reported
and no file is written.
"""

import json
import sys

from run import HERE, import_program
from workloads import POOL_SEED, WORKLOADS


def make(wl):
    cx = import_program()
    refs = {}
    for doc in wl.pool():
        key = wl.key(doc)
        cx.simplicial._reduced_homology_key.cache_clear()
        output = wl.run(cx, wl.prepare(cx, doc))
        ref = wl.reference(doc, output)
        error = wl.check(cx, doc, output, ref)
        if error is not None:
            raise SystemExit(f"{wl.name} {key}: {error}")
        refs[key] = ref
    path = HERE / "refs" / f"{wl.name}.json"
    path.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}"
             for k in sorted(refs)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": {json.dumps(wl.name)}, '
                 f'"pool_seed": {POOL_SEED}, "refs": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    print(f"{wl.name}: {len(refs)} references -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        make(WORKLOADS[name])
