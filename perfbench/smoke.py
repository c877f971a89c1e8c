"""README CLI smoke check: every JSON instance block in README.md goes
through `python -m roundreach.cli decide -` in a fresh process.

    python3 perfbench/smoke.py

Prints one line per block with the exit code, the verdict (or error) and
the wall time, outside every workload's ops.  A failure listed in KNOWN is
reported as known and does not fail the check; any other failure does.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# stderr fragment -> why the README block fails today
KNOWN = {
    "'minerr' is not a valid RoundingKind": (
        "the README polar example spells the kind 'minerr' (instance files accept "
        "'minimal_error_up') and uses the keys eigen_modulus/eigen_angle"),
}


def readme_instances(text: str) -> list[str]:
    return [block for block in re.findall(r"```json\n(.*?)```", text, re.S)
            if '"kind"' in block]


def main(argv=None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    unexpected = 0
    blocks = readme_instances((ROOT / "README.md").read_text())
    for number, block in enumerate(blocks, 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "roundreach.cli", "decide", "-"],
                              input=block, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120)
        wall = time.perf_counter() - start
        result = {"block": number, "exit": proc.returncode, "wall_s": round(wall, 4)}
        if proc.returncode in (0, 2):
            result["verdict"] = json.loads(proc.stdout)
        else:
            result["error"] = proc.stderr.strip()
            known = [why for fragment, why in KNOWN.items() if fragment in proc.stderr]
            if known:
                result["known_failure"] = known[0]
            else:
                unexpected += 1
        print("smoke " + json.dumps(result), flush=True)
    return 1 if unexpected or not blocks else 0


if __name__ == "__main__":
    sys.exit(main())
