"""Digest of the CLI's stdout over a fixed set of invocations.

Runs each invocation in-process through ``jordannum.cli.run`` and prints one
line per invocation: the exit code, the sha256 of its stdout and its argv.
An exception that escapes ``run`` takes the code's place as ``raised
<Type>``, its traceback goes to stderr, and the next invocation runs.
Two trees give the same lines exactly when every invocation printed the same
bytes and exited with the same code, so a CLI comparison is one ``diff``:

    python tools/cli_digest.py > change.txt
    python tools/cli_digest.py --src ../other/src > other.txt
    diff other.txt change.txt

``--src`` names the source directory to import ``jordannum`` from; the
default is the ``src`` directory next to this script's parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import traceback
from pathlib import Path

_TROTTER = [
    ["trotter", "--algebra", algebra, "--seed", seed, "--formula", formula]
    for formula in ("jordan_product", "U_single", "U_pair")
    for algebra in ("matrix:2", "spin:3", "fn:5", "sum:fn:2+matrix:2")
    for seed in ("0", "42")
]

INVOCATIONS = _TROTTER + [
    ["validate", "--algebra", "spin:4", "--seed", "3", "--samples", "50"],
    ["spectrum", "--algebra", "fn:3", "--element", "1,0,0,2,-5,0"],
    ["trotter", "--algebra", "matrix:2", "--seed", "42", "--formula",
     "U_single", "--n-grid", "16:4096:2"],
    # ratio 3: every n past the first has more than one set bit, so the
    # powering multiplies rows in as well as squaring them
    ["trotter", "--algebra", "spin:3", "--seed", "7", "--formula", "U_pair",
     "--n-grid", "16:3888:3"],
    ["functional", "--algebra", "fn:3", "--functional", "char:1"],
    ["functional", "--algebra", "fn:3", "--functional", "char:1",
     "--seed", "3"],
    ["functional", "--algebra", "spin:3", "--functional", "char:2",
     "--seed", "5"],
    ["functional", "--algebra", "fn:5", "--functional", "sqchar:2"],
    ["functional", "--algebra", "matrix:2", "--functional", "trace"],
    ["functional", "--algebra", "fn:4", "--functional", "negchar:0"],
    ["functional", "--algebra", "spin:3", "--functional", "negchar:0"],
    ["functional", "--algebra", "sum:fn:2+matrix:2", "--functional",
     "negchar:1"],
    ["validate", "--algebra", "matrix:3", "--seed", "1", "--samples", "10"],
    ["spectrum", "--algebra", "matrix:2", "--element", "1,0,2,0,0,0,1,0"],
    # usage errors: exit 2 with nothing on stdout
    ["functional", "--algebra", "fn:3", "--functional", "trace"],
    ["validate", "--algebra", "matrix:0"],
    ["validate", "--algebra", "ring:2"],
    ["validate", "--algebra", "sum:fn:2"],
    ["validate", "--algebra", "fn:2", "--seed", "-1"],
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory to import jordannum from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from jordannum.cli import run

    for invocation in INVOCATIONS:
        out = io.StringIO()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = run(invocation, out=out)
        except Exception as exc:  # reported; the next invocation still runs
            traceback.print_exc()
            code = f"raised {type(exc).__name__}"
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        print(code, digest, " ".join(invocation))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
