"""Record the default-seed trial results that the benchmark compares every
later run with (top1, top5 and final loss per (config, seed) row):

    python3 bench/record_reference.py

Run it only on a commit whose results are the accepted reference; the
benchmark's parity tolerance is 1e-10.
"""

import json
import os
import shutil
import sys

import run_bench


def main():
    run_bench.import_lcl()
    import workloads

    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        work_dir = run_bench.ROOT / ".bench_out" / f"reference-{name}-p{os.getpid()}"
        try:
            st = wl.setup(workloads.DEFAULT_SEED, str(work_dir))
            p = wl.run_pass(st)
            wl.check(st, p, None)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if p.failures:
            sys.exit(f"{name}: {p.failures}")
        reference[name] = workloads.reference_table(p.rows)
        print(f"{name}: {len(p.rows)} rows")
    with open(run_bench.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
