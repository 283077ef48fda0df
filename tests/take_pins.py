"""Print the digests tests/pins.py lacks on each x86 host profile: python tests/take_pins.py

Each environment of ``pins.PROFILES`` runs every row in one fresh interpreter, and a digest
goes under the profile that interpreter reports, or under ``"*"`` for a new row that every
profile agrees on.  The table is never edited: a pinned digest that differs is printed,
and the exit code is 1.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import pins  # noqa: E402


def print_digests() -> None:
    """Print this process's profile and the digest of each row's output, as JSON."""
    with tempfile.TemporaryDirectory() as directory:
        digests = [pins.digest(pin, pins.output(pin, Path(directory))) for pin in pins.PINS]
    print(json.dumps([pins.profile(), digests]))


def main() -> int:
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path[:2])
    taken = {}  # profile: the digest of each row
    for profile_env in pins.PROFILES.values():
        child = subprocess.run([sys.executable, "-c", "import take_pins; take_pins.print_digests()"],
                               env=env | profile_env, capture_output=True, text=True)
        if child.returncode:
            sys.exit(child.stderr)
        host, digests = json.loads(child.stdout)
        taken[host] = digests
    failed = False
    for row, pin in enumerate(pins.PINS):
        outputs = {host: digests[row] for host, digests in taken.items()}
        agreed = len(outputs) == len(pins.PROFILES) and len(set(outputs.values())) == 1
        if not pin.digests and agreed:
            outputs = {"*": outputs.popitem()[1]}
        for host, out in outputs.items():
            pinned = pins.expected(pin, host)
            if pinned is None:
                print(f'missing  {pins.label(pin)}:  "{host}": "{out}",')
            elif pinned != out:
                failed = True
                print(f"DIFFERS  {pins.label(pin)} on {host}: pinned {pinned}, output {out}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
