"""Peak memory of one adjoint gradient, measured in a process of its own.

    python3 perfbench/peak.py SCENARIO_YAML X0 X1 ...

Loads the scenario, evaluates J once at x (so that imports, lazy set-up and
the solver's factorization have been paid for), then runs one
``adjoint_gradient(problem, params)`` at x, with its own forward run.  Prints
one JSON line: ``peak_bytes``, how far the gradient raised the process's
resident set above where it stood when the gradient began, and ``new_peak``,
whether the gradient set the process's high-water mark.  Only then is the
figure the gradient's own: in a process that had already been larger, an
earlier peak would hide part of it.  Everything the gradient holds counts,
numpy arrays and the sparse factor alike.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count before numpy loads


def memory_bytes() -> tuple[int, int]:
    """The process's resident set now and its high-water mark (Linux).

    Read from /proc/self/status: ``getrusage``'s ``ru_maxrss`` would carry the
    parent's size at fork over into this process.
    """
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value
    return tuple(int(fields[k].split()[0]) * 1024 for k in ("VmRSS", "VmHWM"))


def main(argv) -> int:
    ep = run.load_program()
    problem = run.setup(ep, argv[0])
    params = problem.unpack([float(v) for v in argv[1:]])
    problem.objective(params)
    before, mark = memory_bytes()
    ep.adjoint_gradient(problem, params)
    after = memory_bytes()[1]
    print(json.dumps({"peak_bytes": after - before, "new_peak": after > mark}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
