"""Record the expected answer of every benchmark op into expected.json.

    python3 perfbench/record.py

Run it only on the commit whose answers are the reference: the file in the
repository was recorded from the commit named in its `recorded_from`
field. Re-recording on a later commit would let a changed answer pass.
Answers of seed-dependent ops are not recorded per seed; the gate checks
them against the LP values recorded here (see answers.py).
"""

from __future__ import annotations

import json
import random
import sys
import time

import workloads as W
from answers import rows_digest
from run import EXPECTED, add_package, git_commit


def main() -> int:
    add_package()
    from click.testing import CliRunner
    from repairopt.cli import main as cli

    runner = CliRunner(env={"REPAIROPT_SEED": None})

    def run(argv, want_exit=0):
        start = time.perf_counter()
        result = runner.invoke(cli, list(argv))
        print(f"{(time.perf_counter() - start) * 1e3:9.1f} ms  {' '.join(argv)[:100]}",
              file=sys.stderr)
        if result.exit_code != want_exit:
            raise SystemExit(f"{' '.join(argv)}: exit {result.exit_code}\n{result.output}")
        return result.stdout

    ladder = W.solve_ladder()
    code_ops = [op for op in W.code_sim(random.Random(0)) if op.kind == "code"]
    lp_keys = {op.key for op in ladder + code_ops if op.kind in ("solve", "code")}
    lp_keys |= {W.spec_key("grid-2x3-k3", f) for f in W.positions("grid-2x3-k3")}

    expected = {"recorded_from": git_commit(), "lp": {}, "edges": {}, "bounds": {},
                "cuts": {}, "raw": {}, "verify": {}, "fixtures": {}}
    for key in sorted(lp_keys):
        net, failed = key.split("@")
        expected["lp"][key] = json.loads(run(["solve"] + W.spec_argv(net, int(failed))))["value"]
    for op in ladder:
        if op.kind == "bounds":
            expected["bounds"][op.key] = run(op.argv).strip()
        elif op.kind == "fixtures":
            expected["fixtures"][op.key] = run(op.argv).strip()
    for net, f, _ in W.cut_targets():
        key = W.spec_key(net, f)
        doc = json.loads(run(["constraints"] + W.spec_argv(net, f)))
        expected["cuts"][key] = {"rows": len(doc["L"]), "digest": rows_digest(doc)}
        expected["edges"][key] = len(doc["edge_index"])
        expected["raw"][key] = len(json.loads(run(["constraints", "--raw"]
                                                  + W.spec_argv(net, f)))["L"])
    for net, f, _ in W.cut_targets():
        for op in W.verify_ops(net, f, expected["edges"]):
            result = runner.invoke(cli, list(op.argv))
            doc = json.loads(result.stdout)
            expected["verify"][op.key] = {"exit": result.exit_code,
                                          "feasible": doc["feasible"], "cost": doc["cost"]}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
