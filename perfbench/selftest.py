"""Self-test of the benchmark itself, at a tiny size (about two minutes).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks, for every workload:

- both modes exit 0 and print every declared metric with its unit;
- the same seed generates identical inputs, another seed different ones;
- the counts that must repeat (``sim.*``, ``vec.*``, ``faults.*``,
  ``crypto.*_calls``, ``detectors.evaluate_calls``) do so across two
  traced runs of one seed;
- a deliberately corrupted result is counted as failed, and the run
  exits 1 with ``correct`` false;

and, once:

- ``BENCHMARK.json`` declares exactly the workloads and metrics that
  ``run.py`` prints;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  ``run.py`` exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (run.py sits next to this file)

REPEATING = ("sim.", "vec.", "faults.", "crypto.sign_calls", "crypto.verify_calls",
             "detectors.evaluate_calls")


def bench(workload: str, *extra: str, seed: int = 3, cwd: pathlib.Path = ROOT) -> tuple:
    """Run ``run.py`` at the tiny size; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER,
        "BENCHMARK.json declares run.py's metrics and units",
    )
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    expect(
        [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json declares run.py's workloads",
    )

    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            modules = workloads.import_fresh(cls.modules)
            made = []
            for seed in (3, 3, 4):
                workload = cls(seed, tiny=True, workdir=scratch)
                workload.m = modules
                workload.open_round()
                made.append(repr(workload.inputs(4)))
            expect(made[0] == made[1] and made[0] != made[2],
                   f"{name}: same seed, same inputs; other seed, other inputs")

            for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                code, result = bench(name, "--trace", str(trace))
                units = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
                expect(code == 0 and result is not None and result["correct"]
                       and units == expected,
                       f"{name} --trace {trace}: exit 0, every metric with its unit")
                if trace and name in ("paper_trial", "arena_faults"):
                    coverage = (result or {}).get("metrics", {}).get("trace.phase_coverage", {})
                    expect(coverage.get("value", 0.0) >= 0.95,
                           f"{name}: pipeline phase spans cover the trial span")
                    _, again = bench(name, "--trace", "1")
                    counts = lambda r: {  # noqa: E731
                        k: v["value"] for k, v in (r or {}).get("metrics", {}).items()
                        if k.startswith(REPEATING) and v["unit"] == "count"
                    }
                    expect(bool(counts(result)) and counts(result) == counts(again),
                           f"{name}: counts repeat exactly for one seed")

            code, result = bench(name, "--trace", "0", "--corrupt")
            expect(code == 1 and result is not None and not result["correct"]
                   and result["failed"] >= 1,
                   f"{name}: a corrupted result is counted as failed")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, result = bench("paper_trial", "--trace", "0", cwd=bare)
        expect(code != 0 and result is None,
               "without the program: non-zero exit, no result printed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
