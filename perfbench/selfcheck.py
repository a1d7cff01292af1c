"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload, at tiny sizes, it checks that:

- each run prints every metric BENCHMARK.json names, with its unit, and
  nothing else, in the untraced and in the traced mode;
- a clean run has no failed invocation;
- in a traced run the self-time metrics and trace.other_s add up to
  trace.wall_s;
- a changed CSV value and a non-zero exit each count as failed.

It exits non-zero at the first expectation that does not hold, and takes
about two minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run
from child import SELF_TIME_METRICS

SEED = 11


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def printed(record: dict) -> dict:
    """The result object as run.py prints it on its last line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(record)
    return json.loads(out.getvalue().splitlines()[-1])


def corrupt(csv: Path) -> None:
    """Replace the last value of the output with 1e300."""
    lines = csv.read_text().splitlines()
    lines[-1] = lines[-1].rpartition(",")[0] + ",1e300"
    csv.write_text("\n".join(lines) + "\n")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py defines")

    for name in run.WORKLOADS:
        # the traced run is long enough for more than one traced invocation
        for traced, seconds in ((False, 0.1), (True, 8.0)):
            res = printed(run.measure(name, SEED, seconds, traced, tiny=True))
            mode = "traced" if traced else "untraced"
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == units[traced], f"{name} {mode}: every metric printed with its unit")
            expect(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                   f"{name} {mode}: every value finite")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} {mode}: {res['attempted']} invocations, none failed")
            if traced:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                parts = sum(m[k] for k in SELF_TIME_METRICS) + m["trace.other_s"]
                expect(abs(parts - m["trace.wall_s"]) < 1e-6,
                       f"{name}: self times + other_s = wall ({parts:.6f} s)")

        res = printed(run.measure(name, SEED, 0.1, False, tiny=True, tamper=corrupt))
        expect(not res["correct"] and res["failed"] == res["attempted"] >= 1,
               f"{name}: a changed CSV value counts as failed")
        # h = 0.4 is outside (1/2, 1): the CLI exits 2.  The traced mode is
        # used because it spawns no set-up probe, which would fail first.
        res = printed(run.measure(name, SEED, 0.1, True, tiny=True,
                                  overrides={"hurst": {"const": 0.4}}))
        expect(not res["correct"] and res["failed"] == res["attempted"] >= 2,
               f"{name}: a non-zero exit counts as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
