"""Command-line front end.

Subcommands: ``coherence`` (evaluate one state, numeric vs closed form),
``surface`` (sample a field and export a level-set mesh), ``dynamics``
(coherence decay curves under the four channels) and ``verify`` (run the
certification suites).

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 internal numeric error.  Data goes to stdout and files; warnings go to
stderr.  Identical arguments and seed always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import surfaces as sf
from .bases import amub_basis
from .channels import CHANNEL_KINDS, dynamics_curve
from .coherence import (
    bd_coherence,
    coherence,
    isotropic_coherence,
    l1_coherence,
    relative_entropy_coherence,
    werner_coherence,
    xz_coherence_a1,
    xz_coherence_a1_candidate,
)
from .states import (
    BellDiagonalParams,
    XStateZParams,
    bell_diagonal,
    isotropic,
    werner,
    x_state_z,
)
from .verify import ALL_SUITES, DEFAULT_SEED, format_report, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "SKEWCOH_OUT"

BD_FIELDS = ("bd-a1", "bd-a2", "bd-a3", "bd-sum")
XZ_FIELDS = ("xz-a1", "xz-sum")
CHANNEL_FIELDS = tuple(f"channel:{k}" for k in CHANNEL_KINDS)

# The per-state flags each coherence family and surface field takes.  Each
# is required there, and any other one given is an error, not ignored.
_STATE_FLAGS = {
    "bell": ("c",), "werner": ("p",), "isotropic": ("F",), "xz": ("r", "s", "c"),
    **dict.fromkeys(BD_FIELDS, ()), **dict.fromkeys(XZ_FIELDS, ("r", "s")), **dict.fromkeys(CHANNEL_FIELDS, ("p",)),
}


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


def _check_flags(args: argparse.Namespace, takes: tuple[str, ...], what: str) -> None:
    """Reject a missing flag of ``takes`` and any other per-state flag given."""
    for flag in ("c", "p", "F", "r", "s"):
        given = getattr(args, flag, None) is not None
        if given != (flag in takes):
            raise ValueError(f"--{flag} {'does not apply to' if given else 'is required for'} {what}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out is not None else os.environ.get(OUTPUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_coherence(args: argparse.Namespace) -> int:
    basis = amub_basis(args.basis)

    if args.grid is not None:
        if args.family not in ("werner", "isotropic"):
            raise ValueError("--grid is only meaningful for the werner and isotropic families")
        _check_flags(args, (), "--grid")
        if args.compare or args.csv is not None:
            raise ValueError(f"--{'compare' if args.compare else 'csv'} does not apply to --grid")
        xs = np.linspace(0.0, 1.0, args.grid)
        curve = sf.werner_curve(xs) if args.family == "werner" else sf.isotropic_curve(xs)
        out = _out_dir(args) / f"curve_{args.family}.csv"
        sf.write_curve_csv(curve, out, header=f"{curve.parameter},C")
        print(out)
        return EXIT_OK

    _check_flags(args, _STATE_FLAGS[args.family], f"the {args.family} family")
    if args.family == "bell":
        params = BellDiagonalParams(*args.c)
        rho, closed = bell_diagonal(params), bd_coherence(params, args.basis)
    elif args.family == "werner":
        rho, closed = werner(args.p), werner_coherence(args.p)
    elif args.family == "isotropic":
        rho, closed = isotropic(args.F), isotropic_coherence(args.F)
    else:
        params = XStateZParams(args.r, args.s, *args.c)
        rho = x_state_z(params)
        closed = xz_coherence_a1(params) if args.basis == "a1" else None
    numeric = coherence(rho, basis)
    rows = [("numeric", numeric)] + ([] if closed is None else [("closed-form", closed)])
    if args.family == "xz" and args.basis == "a1":
        candidate = xz_coherence_a1_candidate(args.r, args.s, *args.c)
        if np.isfinite(candidate):
            rows.append(("audited-candidate", candidate))
        else:
            _warn("audited closed-form candidate is undefined here: a block gap vanishes")
        if abs(candidate - numeric) > 1e-8:
            _warn(f"audited closed-form candidate deviates from the numeric value by {abs(candidate - numeric):.3e}")

    if args.csv is not None:
        lines = ["quantity,value"] + [f"{name},{_fmt(value)}" for name, value in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="ascii")

    header = [f"family={args.family}", f"basis={args.basis}"]
    if args.c is not None:
        header.append(f"c=({args.c[0]:g},{args.c[1]:g},{args.c[2]:g})")
    for name, value in (("p", args.p), ("F", args.F), ("r", args.r), ("s", args.s)):
        if value is not None:
            header.append(f"{name}={value:g}")
    print(" ".join(header))
    for name, value in rows:
        print(f"{name:<18}{_fmt(value)}")
    if len(rows) >= 2:
        print(f"{'difference':<18}{_fmt(abs(rows[0][1] - rows[1][1]))}")
    if args.compare:
        print(f"{'l1':<18}{_fmt(l1_coherence(rho, basis))}")
        print(f"{'rel-entropy':<18}{_fmt(relative_entropy_coherence(rho, basis))}")

    if args.csv is not None:
        print(args.csv)
    return EXIT_OK


def cmd_surface(args: argparse.Namespace) -> int:
    field_name = args.field
    if field_name not in BD_FIELDS + XZ_FIELDS + CHANNEL_FIELDS:
        raise ValueError(f"unknown field {field_name!r}; expected one of {BD_FIELDS + XZ_FIELDS + CHANNEL_FIELDS}")
    _check_flags(args, _STATE_FLAGS[field_name], f"field {field_name}")
    slug = field_name.replace(":", "-")
    if field_name in BD_FIELDS:
        field = sf.sample_bd_field(field_name.removeprefix("bd-"), args.resolution)
    elif field_name in XZ_FIELDS:
        field = sf.sample_xz_field(args.r, args.s, field_name.removeprefix("xz-"), args.resolution)
        slug += f"_r{args.r:g}_s{args.s:g}"
    else:
        field = sf.sample_channel_field(field_name.removeprefix("channel:"), args.p, args.resolution)
        slug += f"_p{args.p:g}"

    mesh = sf.extract_isosurface(field, args.level)
    if field.physical_fraction() == 0.0:
        _warn("the field has an empty physical region; the mesh is empty")
    elif mesh.is_empty:
        _warn(f"level {args.level:g} exceeds the field maximum; the mesh is empty")
    out = _out_dir(args)
    writer = sf.write_obj if args.format == "obj" else sf.write_ply
    path = writer(mesh, out / f"surface_{slug}_level{args.level:g}.{args.format}")
    print(path)
    if args.field_csv:
        print(sf.write_field_csv(field, out / f"field_{slug}.csv"))
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    params = BellDiagonalParams(*args.c)
    basis = amub_basis(args.basis)
    grid = np.linspace(0.0, 1.0, args.points)
    out = _out_dir(args)
    for kind in CHANNEL_KINDS:
        samples = dynamics_curve(kind, params, basis, grid)
        curve = sf.Curve1D(parameter="p", xs=[p for p, _ in samples], values=[v for _, v in samples])
        print(sf.write_curve_csv(curve, out / f"dynamics_{kind}.csv"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.suite if args.suite else None
    results = run_suites(names=names, seed=args.seed, samples=args.samples)
    print(format_report(results))
    for res in results:
        for line in res.warnings:
            _warn(f"[{res.name}] {line}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    # Without allow_abbrev, argparse takes a prefix such as --conf for
    # --config, which _expand_config never sees, so the file is ignored.
    parser = argparse.ArgumentParser(
        prog="skewcoh",
        allow_abbrev=False,
        description="Skew-information coherence of qubit states in mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coherence", allow_abbrev=False, help="evaluate the coherence of one state")
    pc.add_argument("--family", choices=("bell", "werner", "isotropic", "xz"), required=True)
    pc.add_argument("--c", type=_parse_triple, help="correlation coefficients c1,c2,c3")
    pc.add_argument("--p", type=float, help="werner parameter")
    pc.add_argument("--F", type=float, help="isotropic fidelity")
    pc.add_argument("--r", type=float, help="first local z component")
    pc.add_argument("--s", type=float, help="second local z component")
    pc.add_argument("--basis", choices=("a1", "a2", "a3"), default="a1")
    pc.add_argument("--grid", type=int, help="sample a parameter curve with this many points instead")
    pc.add_argument("--compare", action="store_true", help="also print l1 and relative-entropy values")
    pc.add_argument("--csv", help="write the printed values to this CSV file")
    pc.add_argument("--out", help="output directory (default $SKEWCOH_OUT or .)")
    pc.add_argument("--config", help="key=value file supplying default flags")
    pc.set_defaults(func=cmd_coherence)

    ps = sub.add_parser("surface", allow_abbrev=False, help="export a constant-coherence mesh")
    ps.add_argument("--field", required=True, help=f"one of {BD_FIELDS + XZ_FIELDS + CHANNEL_FIELDS}")
    ps.add_argument("--level", type=float, required=True)
    ps.add_argument("--p", type=float, help="channel parameter for channel fields")
    ps.add_argument("--r", type=float, help="first local z component for xz fields")
    ps.add_argument("--s", type=float, help="second local z component for xz fields")
    ps.add_argument("--resolution", type=int, default=101)
    ps.add_argument("--format", choices=("obj", "ply"), default="obj")
    ps.add_argument("--field-csv", action="store_true", help="also export the sampled field as CSV")
    ps.add_argument("--out", help="output directory (default $SKEWCOH_OUT or .)")
    ps.add_argument("--config", help="key=value file supplying default flags")
    ps.set_defaults(func=cmd_surface)

    pd = sub.add_parser("dynamics", allow_abbrev=False, help="coherence decay curves under the four channels")
    pd.add_argument(
        "--c",
        type=_parse_triple,
        required=True,
        help="correlation coefficients c1,c2,c3 (write --c=-0.2,0.6,0.6 when the first is negative)",
    )
    pd.add_argument("--basis", choices=("a1", "a2", "a3"), default="a1")
    pd.add_argument("--points", type=int, default=101)
    pd.add_argument("--out", help="output directory (default $SKEWCOH_OUT or .)")
    pd.add_argument("--config", help="key=value file supplying default flags")
    pd.set_defaults(func=cmd_dynamics)

    pv = sub.add_parser("verify", allow_abbrev=False, help="run the certification suites")
    pv.add_argument("--suite", action="append", choices=tuple(ALL_SUITES), help="run only this suite (repeatable)")
    pv.add_argument("--samples", type=int, help="override per-suite sample counts")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--config", help="key=value file supplying default flags")
    pv.set_defaults(func=cmd_verify)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace ``--config FILE`` (or ``--config=FILE``) with the flags the
    file supplies.

    The file holds one ``key=value`` pair per line (# comments allowed);
    pairs are inserted right after the subcommand, so explicit flags given
    on the command line override them.
    """
    i = next((j for j, token in enumerate(argv) if token == "--config" or token.startswith("--config=")), None)
    if i is None:
        return argv
    if argv[i] == "--config":
        if i + 1 >= len(argv):
            raise ValueError("--config requires a file path")
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        path, rest = argv[i].removeprefix("--config="), argv[:i] + argv[i + 1 :]
    pairs: list[str] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        pairs += [f"--{key.strip()}", value.strip()]
    for j, token in enumerate(rest):
        if not token.startswith("-"):
            return rest[: j + 1] + pairs + rest[j + 1 :]
    return rest + pairs


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors via sys.exit
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
