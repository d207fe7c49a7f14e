"""Record each workload's exit code and output hashes for a range of seeds.

    python3 bench/record.py 0 99

Runs every workload once per seed from FIRST to LAST inclusive and merges the
results into bench/expected.json, which bench/run.py then checks every
invocation against.  Run it only at a commit whose outputs are the reference.
"""

import json
import sys

import run


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: record.py FIRST LAST")
    first, last = (int(a) for a in argv)
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    for seed in range(first, last + 1):
        runner = run.Runner(seed, {})
        for name in run.WORKLOADS:
            inv = runner.invoke(name, "plain")
            if inv.run_s is None or not inv.files:
                raise SystemExit(f"{name} seed {seed}: no output (exit {inv.exit})")
            expected.setdefault(name, {})[str(seed)] = {"exit": inv.exit, "files": inv.files}
            print(f"{name} seed {seed}: exit {inv.exit}, {len(inv.files)} files", flush=True)
        run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
