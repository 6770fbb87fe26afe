"""Print a sha256 manifest of the CLI artifacts and demo outputs of this checkout.

Usage: python tools/artifact_digests.py OUT_DIR

Runs one fixed protocol with the package in this checkout's `src/`:

- `marlshield train` for 8 episodes at seed 3 with 2 runs, shielded and
  with `--no-shield`;
- `marlshield eval` of each variant's first checkpoint, 2 episodes;
- `marlshield report` over both variants;
- each script in `demos/`, in its own empty working directory, its
  standard output saved next to that directory as `<demo>.stdout`.

Then prints one `sha256  path` line for every file under OUT_DIR, sorted by
path relative to OUT_DIR. Two checkouts whose manifests are equal produce
byte-identical artifacts. Writes nothing outside OUT_DIR, which must be
missing or empty. Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(args: list[str], cwd: Path) -> bytes:
    """Run this interpreter on args with only this checkout's package importable; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    if result.returncode != 0:
        sys.stderr.buffer.write(result.stderr)
        raise SystemExit(f"failed with exit code {result.returncode}: {' '.join(args)}")
    return result.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    runs = out / "cli"
    runs.mkdir(parents=True)
    cli = ["-m", "marlshield.cli"]
    for flags in ([], ["--no-shield"]):
        run([*cli, "train", "--episodes", "8", "--seed", "3", "--runs", "2", "--out", str(runs), *flags], out)
    for variant in ("shielded", "unshielded"):
        checkpoint = runs / variant / "run00_seed3" / "checkpoint.bin"
        run([*cli, "eval", "--checkpoint", str(checkpoint), "--episodes", "2", "--out", str(out / "eval" / variant)], out)
    run([*cli, "report", "--dir", str(runs)], out)
    for script in sorted((ROOT / "demos").glob("*.py")):
        cwd = out / "demos" / script.stem
        cwd.mkdir(parents=True)
        (out / "demos" / f"{script.stem}.stdout").write_bytes(run([str(script)], cwd))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
