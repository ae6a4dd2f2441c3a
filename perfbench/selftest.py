"""Self-test of the benchmark's own machinery.

Checks the span self-time arithmetic (on hand-made spans and through the
wrappers with a fake clock) and that generated inputs are a pure function of
the seed. run.py runs it for its workload before set-up; run it alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import types

import spans
import workloads


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self) -> int:
        return self.t


def span_arithmetic_problems() -> list[str]:
    problems = []
    # parent [0, 100) with overlapping children and one running past its end
    starts, ends, parents = [0, 10, 20, 90, 12], [100, 30, 50, 120, 18], [-1, 0, 0, 0, 1]
    got = spans.self_times(starts, ends, parents)
    if got != [50, 14, 30, 30, 6]:
        problems.append(f"self_times on fixed spans gave {got}, expected [50, 14, 30, 30, 6]")

    clock = FakeClock()
    lib = types.ModuleType("fake_lib")
    exec(
        "def leaf():\n    clock.t += 5\n"
        "def mid():\n    clock.t += 2\n    leaf()\n    clock.t += 3\n"
        "class Maker:\n    @classmethod\n    def build(cls):\n"
        "        clock.t += 7\n        return cls\n",
        vars(lib),
    )
    lib.clock = clock
    reexport = types.ModuleType("fake_api")
    reexport.leaf = lib.leaf
    original = (lib.leaf, lib.mid, reexport.leaf, vars(lib.Maker)["build"])
    tracer = spans.Tracer(clock=clock)
    targets = [("lib.leaf", lib, "leaf"), ("lib.mid", lib, "mid"),
               ("lib.Maker.build", lib.Maker, "build")]
    with spans.installed(tracer, targets, [lib, reexport]):
        with tracer.op(0):
            lib.mid()
            reexport.leaf()
            clock.t += 1
            lib.Maker.build()
    summary = tracer.summary()
    want_calls = {"op": 1, "lib.mid": 1, "lib.leaf": 2, "lib.Maker.build": 1}
    want_self = {"op": 1, "lib.mid": 5, "lib.leaf": 10, "lib.Maker.build": 7}
    if summary["calls"] != want_calls:
        problems.append(f"traced calls {summary['calls']}, expected {want_calls}")
    if summary["self_ns"] != want_self:
        problems.append(f"traced self times {summary['self_ns']}, expected {want_self}")
    if summary["op_cover"] != [22 / 23]:
        problems.append(f"op span covered by its children {summary['op_cover']}, "
                        "expected [22/23]")
    if set(tracer.span_op) != {0}:
        problems.append("spans inside an op must carry its id")
    if (lib.leaf, lib.mid, reexport.leaf, vars(lib.Maker)["build"]) != original:
        problems.append("wrappers were not removed on exit")
    return problems


def determinism_problems(workload: str, seed: int) -> list[str]:
    first = workloads.digest(workloads.generate(workload, seed))
    problems = []
    if workloads.digest(workloads.generate(workload, seed)) != first:
        problems.append(f"{workload}: one seed generated different inputs")
    if workloads.digest(workloads.generate(workload, seed + 1)) == first:
        problems.append(f"{workload}: seeds {seed} and {seed + 1} generated the same inputs")
    return problems


def run(workload: str, seed: int) -> list[str]:
    return span_arithmetic_problems() + determinism_problems(workload, seed)


if __name__ == "__main__":
    found = span_arithmetic_problems()
    for name in workloads.WORKLOADS:
        found += determinism_problems(name, 1)
    for line in found:
        print(f"FAIL {line}")
    print("selftest ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
