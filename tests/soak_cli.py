#!/usr/bin/env python3
"""End-to-end check of the soak CLI: run `chaos_soak --family F --seeds 1-2`
for every family into a temporary directory and validate each report with
tools/validate_telemetry.py in the family's mode.

Usage: tests/soak_cli.py CHAOS_SOAK_BINARY VALIDATE_TELEMETRY_PY
"""

import os
import subprocess
import sys
import tempfile

# family -> (report file, validate_telemetry.py mode)
FAMILIES = {
    "chaos": ("CHAOS_soak.json", "--chaos"),
    "ha": ("HA_soak.json", "--ha"),
    "service": ("SERVICE_soak.json", "--service"),
}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    chaos_soak, validator = argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        for family, (report, mode) in FAMILIES.items():
            out = os.path.join(tmp, family)
            cmd = [chaos_soak, "--family", family, "--seeds", "1-2", "--out", out]
            rc = subprocess.run(cmd).returncode
            if rc != 0:
                print(f"soak_cli: {' '.join(cmd)} exited {rc}", file=sys.stderr)
                return 1
            subprocess.run([sys.executable, validator, mode,
                            os.path.join(out, report)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
