"""Hypothesis-driven argument lists for ``coherence``, ``surface`` and
``dynamics``.

Every argument list must end in a documented exit code (0 success,
1 verification failure, 2 invalid arguments, 3 numeric error), never in
an exception escaping ``main``, and no file written may hold a non-finite
number.  Sizes stay small (resolution <= 11, grid and points <= 21) so the
test runs in a few seconds.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from skewcoh import cli

OUT = "<out>"

# Half in-range values, half edge cases and junk.
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "-0.25", "0.2"]),
    st.floats(min_value=-1.0, max_value=1.0).map(repr),
    st.sampled_from(["1.5", "-1.0000001", "1e-300", "nan", "inf", "-inf", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
TRIPLES = st.one_of(
    st.tuples(NUMBERS, NUMBERS, NUMBERS).map(",".join),
    st.sampled_from(["0,0,0", "-1,-1,-1", "0.2,0.1,0.3", "-0.2,0.6,0.6", "1,1", "0,0,0,0"]),
)
BASES = st.sampled_from(["a1", "a2", "a3", "a4"])
FIELDS = st.sampled_from(tuple(cli.FIELDS) + ("bd-a4", "channel:XX"))


def required(flag, values):
    """``flag=value`` for a drawn value."""
    return values.map(lambda v: [f"{flag}={v}"])


def option(flag, values):
    """Absent, or ``flag=value`` for a drawn value."""
    return st.one_of(st.just([]), required(flag, values))


def switch(flag):
    return st.sampled_from([[], [flag]])


def command(name, *options):
    """``name`` followed by the drawn options in a drawn order."""
    return st.tuples(*options).flatmap(st.permutations).map(lambda opts: [name] + [t for o in opts for t in o])


COHERENCE = command(
    "coherence",
    required("--family", st.sampled_from(["bell", "werner", "isotropic", "xz", "ghz"])),
    option("--c", TRIPLES),
    option("--p", NUMBERS),
    option("--F", NUMBERS),
    option("--r", NUMBERS),
    option("--s", NUMBERS),
    option("--basis", BASES),
    option("--grid", st.integers(-2, 21)),
    switch("--compare"),
    switch(f"--csv={OUT}/row.csv"),
)
SURFACE = command(
    "surface",
    required("--field", FIELDS),
    required("--level", NUMBERS),
    option("--p", NUMBERS),
    option("--r", NUMBERS),
    option("--s", NUMBERS),
    required("--resolution", st.integers(-2, 11)),
    option("--format", st.sampled_from(["obj", "ply", "stl"])),
    switch("--field-csv"),
)
DYNAMICS = command(
    "dynamics",
    option("--c", TRIPLES),
    option("--basis", BASES),
    required("--points", st.integers(-2, 21)),
)


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(COHERENCE, SURFACE, DYNAMICS))
def test_cli_exits_cleanly_and_writes_finite_numbers(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    argv = [token.replace(OUT, str(out)) for token in argv]
    # --out applies to every command but single-state `coherence`, which writes only its --csv.
    if argv[0] != "coherence" or any(token.startswith("--grid=") for token in argv):
        argv.append(f"--out={out}")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr.getvalue(), argv
    for path in out.rglob("*"):
        text = path.read_text(encoding="ascii").lower()
        assert "nan" not in text and "inf" not in text, (argv, path.name)
