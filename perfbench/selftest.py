"""Short self-test of the benchmark: `python3 perfbench/run.py --selftest`.

Runs one step of every workload in both modes, with the dense workload
at its warm-up sizes, and checks that

- every metric BENCHMARK.json names for the mode is printed, with the
  unit BENCHMARK.json gives it, as a finite number;
- an output check fails every solve when handed a wrong expectation
  (delta+ = 44 on lines27, delta+ = 2 on the sweep), and marks the run
  incorrect.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import tempfile
from pathlib import Path

import run


def _printed(result):
    """The result as the last output line would carry it."""
    return json.loads(json.dumps(result))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.import_toricsolve()
    from workloads import WORKLOADS, Lines27Expect, SweepExpect

    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    wrong = {"lines27": {"expect": Lines27Expect(delta_plus=44)},
             "sweep": {"expect": SweepExpect(delta_plus=2)}}

    out = run.ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name, cls in WORKLOADS.items():
            small = cls.warmup_kwargs
            for trace in (0, 1):
                _, result = run.measure(name, 0, 0.0, bool(trace), 0.0, Path(tmp), small)
                printed = _printed(result)["metrics"]
                for metric in wanted[trace]:
                    got = printed.get(metric["name"])
                    if got is None:
                        problems.append(f"{name} trace={trace}: {metric['name']} missing")
                    elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                        problems.append(f"{name} trace={trace}: {metric['name']} = {got}")
                extra = set(printed) - {m["name"] for m in wanted[trace]}
                if extra:
                    problems.append(f"{name} trace={trace}: unnamed metrics {sorted(extra)}")
                print(f"{name} trace={trace}: {len(printed)} metrics, "
                      f"attempted {result['attempted']}, failed {result['failed']}")
            if name in wrong:
                options = dict(small, **wrong[name])
                _, result = run.measure(name, 0, 0.0, False, 0.0, Path(tmp), options)
                if result["correct"] or result["failed"] != result["attempted"]:
                    problems.append(f"{name}: a wrong expectation passed the output check")
                print(f"{name} with a wrong expectation: correct={result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}")

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0
