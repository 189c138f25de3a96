"""Record the reference outputs in golden.json from the current source tree.

    python3 bench/record_golden.py

Each workload runs op 0 at the reference seed (run.GOLDEN_SEED) for both
sizes and stores its summary. Every benchmark run repeats that op and
compares it with the stored summary. Re-record only when a change is meant
to alter these outputs, and say so in that change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run._import_package()
    import workloads

    work = run.ROOT / ".bench_work" / "golden"
    golden = {}
    try:
        for size, table in workloads.SIZES.items():
            golden[size] = {}
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(table[name], run.GOLDEN_SEED, work / size / name)
                inp = wl.make_input(0)
                rec = wl.record(inp, wl.run(inp), True)
                problems = rec["problems"] + wl.check_first(rec)
                if problems:
                    print(f"{size}/{name}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                golden[size][name] = rec["summary"]
                print(f"recorded {size}/{name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
