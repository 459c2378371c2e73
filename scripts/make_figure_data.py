#!/usr/bin/env python3
"""Regenerate every figure-level data product in one run.

Writes, under the output directory:
  - level-set meshes of the Bell-diagonal coherence field in basis a1 and
    of the three-basis sum at levels 0.05, 0.2 and 1.0; the a1 mesh at 1.0
    is empty, which documents the a1 cap of 1/2, while the sum, capped at
    3/2, still has a level-1.0 mesh;
  - Werner and isotropic coherence curves on 101-point grids;
  - z-polarized X-state meshes for r = s in {0.1, 0.3} at levels 0.1, 0.5;
  - channel-output coherence meshes for BF/PF/BPF/GAD at
    (p=0.05, level 0.05), (p=0.05, level 0.4) and (p=0.6, level 0.05);
  - coherence decay curves for the four channels at the two study points
    c = (-0.2, 0.6, 0.6) and c = (-0.6, 0.2, 0.2).

Everything goes through the CLI so the file layout matches what a user
would get by hand; rerunning reproduces every file byte for byte.  The
CLI keeps the field of the last surface step, so consecutive steps on one
field reuse one sampled field: the 26 surface steps sample 14 fields.
"""

import argparse
import sys

from skewcoh.cli import main as skewcoh


def run(*argv: str) -> None:
    code = skewcoh(list(argv))
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}: {' '.join(argv)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figure_data", help="output directory")
    parser.add_argument("--resolution", type=int, default=101, help="grid resolution per axis")
    args = parser.parse_args()
    out, res = args.out, str(args.resolution)

    for field in ("bd-a1", "bd-sum"):
        for level in ("0.05", "0.2", "1.0"):
            run("surface", "--field", field, "--level", level, "--resolution", res, "--out", out)

    for family in ("werner", "isotropic"):
        run("coherence", "--family", family, "--grid", "101", "--out", out)

    for rs in ("0.1", "0.3"):
        for measure in ("xz-a1", "xz-sum"):
            for level in ("0.1", "0.5"):
                run(
                    "surface", "--field", measure, "--r", rs, "--s", rs,
                    "--level", level, "--resolution", res, "--out", out,
                )

    for kind in ("BF", "PF", "BPF", "GAD"):
        for p, level in (("0.05", "0.05"), ("0.05", "0.4"), ("0.6", "0.05")):
            run(
                "surface", "--field", f"channel:{kind}", "--p", p,
                "--level", level, "--resolution", res, "--out", out,
            )

    for c in ("-0.2,0.6,0.6", "-0.6,0.2,0.2"):
        tag = "a" if c.startswith("-0.2") else "b"
        run("dynamics", f"--c={c}", "--points", "101", "--out", f"{out}/dynamics_{tag}")

    print(f"figure data written under {out}/", file=sys.stderr)


if __name__ == "__main__":
    main()
