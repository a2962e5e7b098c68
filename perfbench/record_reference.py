"""Record reference.json: every default-seed call's report at this commit.

    python3 perfbench/record_reference.py

Keys leave out the thread count, because reports must not depend on it;
run.py checks every call at two threads against the same entry.  Recording refuses any call that fails the gate's own
checks, so a vacuous or failing report never becomes a reference.
"""

from __future__ import annotations

import json

import gate
import run
import workloads


def main() -> int:
    cli = run.import_cli()
    reference: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for call in workloads.calls_for(name, workloads.DEFAULT_SEED):
            result = gate.run_call(cli.main, call)
            problems = gate.check(call, result, None)
            if problems:
                raise SystemExit(f"{' '.join(call)}: {'; '.join(problems)}")
            reference[workloads.reference_key(call)] = json.loads(result.text)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} reports in {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
