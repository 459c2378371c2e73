"""Command-line front end.

Subcommands: ``coherence`` (evaluate one state, numeric vs closed form),
``surface`` (sample a field and export a level-set mesh), ``dynamics``
(coherence decay curves under the four channels) and ``verify`` (run the
certification suites).

Exit codes: 0 success, 1 verification failure or a closed stdout pipe
(without a message), 2 invalid arguments, 3 internal numeric error.  Data
goes to stdout and files; warnings go to stderr.  Identical arguments and
seed always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import surfaces as sf
from .bases import AMUB_LABELS, amub_basis
from .channels import CHANNEL_KINDS, dynamics_curve
from .coherence import (
    BD_MEASURES,
    XZ_MEASURES,
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

# Points of a `coherence --grid` or `dynamics --points` curve: a step of
# 1e-4 at the cap, where dynamics evaluates each curve as one stack of
# states and takes about 0.3 s in-process on one core, writing included.
MAX_POINTS = 10_001

# Each `coherence --family` name: the per-state flags it takes (see _check_flags)
# and its builder of the state and its closed form, None where it has none.
FAMILIES = {
    "bell": (("c",), lambda a: (bell_diagonal(prm := BellDiagonalParams(*a.c)), bd_coherence(prm, a.basis))),
    "werner": (("p",), lambda a: (werner(a.p), werner_coherence(a.p))),
    "isotropic": (("F",), lambda a: (isotropic(a.F), isotropic_coherence(a.F))),
    "xz": (
        ("r", "s", "c"),
        lambda a: (x_state_z(prm := XStateZParams(a.r, a.s, *a.c)), xz_coherence_a1(prm) if a.basis == "a1" else None),
    ),
}

# Each `surface --field` name: the per-state flags it takes and its sampler.
FIELDS = {
    **{f"bd-{m}": ((), lambda a, m=m: sf.sample_bd_field(m, a.resolution)) for m in BD_MEASURES},
    **{f"xz-{m}": (("r", "s"), lambda a, m=m: sf.sample_xz_field(a.r, a.s, m, a.resolution)) for m in XZ_MEASURES},
    **{f"channel:{k}": (("p",), lambda a, k=k: sf.sample_channel_field(k, a.p, a.resolution)) for k in CHANNEL_KINDS},
}

# The field of the last `surface` step, keyed by (field, r, s, p,
# resolution).  Steps that cut one field at several levels (as the figure
# script does) sample it once; the field is frozen, so sharing it is safe.
# At most one field is held, about 220 MB at sf.MAX_RESOLUTION, and only
# until a step of another command.
_last_field: dict[tuple, sf.ScalarField3D] = {}


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _float(text: str) -> float:
    """A float flag with -0.0 folded into 0.0, so that one value gets one
    file name and one field-store key."""
    return float(text) + 0.0


_float.__name__ = "float"  # argparse's "invalid float value" names the type


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return tuple(_float(p) for p in parts)


def _check_flags(args: argparse.Namespace, takes: tuple[str, ...], what: str) -> None:
    """Reject a missing flag of ``takes`` and any other per-state flag given."""
    for flag in ("c", "p", "F", "r", "s"):
        given = getattr(args, flag, None) is not None
        if given != (flag in takes):
            raise ValueError(f"--{flag} {'does not apply to' if given else 'is required for'} {what}")


def _unit_grid(points: int, flag: str) -> np.ndarray:
    """``points`` in 1..MAX_POINTS, checked first, evenly spaced on [0, 1]."""
    if not 1 <= points <= MAX_POINTS:
        raise ValueError(f"{flag} must be in [1, {MAX_POINTS}], got {points}")
    return np.linspace(0.0, 1.0, points)


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
        xs = _unit_grid(args.grid, "--grid")
        parameter, closed = ("p", werner_coherence) if args.family == "werner" else ("F", isotropic_coherence)
        curve = sf.Curve1D(parameter=parameter, xs=xs, values=closed(xs))
        print(sf.write_curve_csv(curve, _out_dir(args) / f"curve_{args.family}.csv"))
        return EXIT_OK

    takes, build = FAMILIES[args.family]
    _check_flags(args, takes, f"the {args.family} family")
    if args.out is not None:
        raise ValueError("--out applies only to --grid")
    rho, closed = build(args)
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
        header.append(f"c=({','.join(map(sf._tag, args.c))})")
    for name, value in (("p", args.p), ("F", args.F), ("r", args.r), ("s", args.s)):
        if value is not None:
            header.append(f"{name}={sf._tag(value)}")
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
    takes, sample = FIELDS[args.field]
    _check_flags(args, takes, f"field {args.field}")
    key = (args.field, args.r, args.s, args.p, args.resolution)
    field = _last_field.get(key)
    if field is None:
        _last_field.clear()  # before sampling: a miss never holds two fields
        field = _last_field[key] = sample(args)

    mesh = sf.extract_isosurface(field, args.level)
    # A mesh is empty only when every grid point lies on one side of the level,
    # NaN counting as below: the field's maximum tells which side.
    if mesh.is_empty:
        top = field.maximum
        if np.isnan(top):
            _warn("the field has an empty physical region; the mesh is empty")
        else:
            where = "exceeds the field maximum" if args.level > top else (
                "equals the field maximum" if args.level == top else "lies below the field minimum"
            )
            _warn(f"level {sf._tag(args.level)} {where}; the mesh is empty")
    out = _out_dir(args)
    writer = sf.write_obj if args.format == "obj" else sf.write_ply
    path = writer(mesh, out / f"surface_{field.name}_level{sf._tag(args.level)}.{args.format}")
    print(path)
    if args.field_csv:
        print(sf.write_field_csv(field, out / f"field_{field.name}.csv"))
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    params = BellDiagonalParams(*args.c)
    basis = amub_basis(args.basis)
    grid = _unit_grid(args.points, "--points")
    out = _out_dir(args)
    for kind in CHANNEL_KINDS:
        curve = sf.Curve1D(parameter="p", xs=grid, values=dynamics_curve(kind, params, basis, grid))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process and shared by every call, so no caller may
    # change it; parsing leaves it as it was.
    # Without allow_abbrev, argparse takes a prefix such as --conf for
    # --config, which _expand_config never sees, so the file is ignored.
    parser = argparse.ArgumentParser(
        prog="skewcoh",
        allow_abbrev=False,
        description="Skew-information coherence of qubit states in mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coherence", allow_abbrev=False, help="evaluate the coherence of one state")
    pc.add_argument("--family", choices=tuple(FAMILIES), required=True)
    pc.add_argument("--c", type=_parse_triple, help="correlation coefficients c1,c2,c3")
    pc.add_argument("--p", type=_float, help="werner parameter")
    pc.add_argument("--F", type=_float, help="isotropic fidelity")
    pc.add_argument("--r", type=_float, help="first local z component")
    pc.add_argument("--s", type=_float, help="second local z component")
    pc.add_argument("--basis", choices=AMUB_LABELS, default="a1")
    pc.add_argument("--grid", type=int, help="sample a parameter curve with this many points instead")
    pc.add_argument("--compare", action="store_true", help="also print l1 and relative-entropy values")
    pc.add_argument("--csv", help="write the printed values to this CSV file")
    pc.add_argument("--out", help="output directory (default $SKEWCOH_OUT or .)")
    pc.add_argument("--config", help="key=value file supplying default flags")
    pc.set_defaults(func=cmd_coherence)

    ps = sub.add_parser("surface", allow_abbrev=False, help="export a constant-coherence mesh")
    ps.add_argument("--field", choices=tuple(FIELDS), required=True)
    ps.add_argument("--level", type=_float, required=True)
    ps.add_argument("--p", type=_float, help="channel parameter for channel fields")
    ps.add_argument("--r", type=_float, help="first local z component for xz fields")
    ps.add_argument("--s", type=_float, help="second local z component for xz fields")
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
    pd.add_argument("--basis", choices=AMUB_LABELS, default="a1")
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


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Replace ``--config FILE`` (or ``--config=FILE``) with the flags the
    file supplies.

    The file holds one ``key=value`` pair per line (# comments allowed);
    each pair is inserted right after the subcommand as the one token
    ``--key=value``, so a value such as ``-0.2,0.6,0.6`` is not read as a
    flag, and explicit flags given on the command line override them.  A
    switch (a ``store_true`` flag of the subcommand) takes ``true``, which
    inserts the bare flag, or ``false``, which inserts nothing.
    """
    given = [j for j, token in enumerate(argv) if token == "--config" or token.startswith("--config=")]
    if not given:
        return argv
    if len(given) > 1:
        raise ValueError("--config may be given only once")
    i = given[0]
    if argv[i] == "--config":
        if i + 1 >= len(argv):
            raise ValueError("--config requires a file path")
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        path, rest = argv[i].removeprefix("--config="), argv[:i] + argv[i + 1 :]
    at = next((j for j, token in enumerate(rest) if not token.startswith("-")), len(rest))
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = commands.get(rest[at]) if at < len(rest) else None
    actions = command._actions if command else []
    switches = {flag for a in actions if isinstance(a, argparse._StoreTrueAction) for flag in a.option_strings}
    pairs: list[str] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise ValueError(f"config line {line!r}: --config may be given only once")
        if f"--{key}" not in switches:
            pairs.append(f"--{key}={value}")
        elif value not in ("true", "false"):
            raise ValueError(f"config line {line!r}: --{key} takes true or false")
        elif value == "true":
            pairs.append(f"--{key}")
    return rest[: at + 1] + pairs + rest[at + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv, parser))
        if args.func is not cmd_surface:
            _last_field.clear()
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except SystemExit as exc:  # argparse reports usage errors via sys.exit
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # exit does not raise again, and exit 1 without a message, Python's
        # convention for EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
