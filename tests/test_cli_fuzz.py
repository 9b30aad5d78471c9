"""The CLI never leaves its exit codes.

Random small CSV files, wide and long, go through ``cli.run_command`` with
random ``fit``, ``predict`` and ``diagnose`` flags.  Their responses and
exogenous series come at ordinary, overflowing or underflowing magnitudes,
and a few cells are blanks, ``NA``, infinities, huge numbers or text.
Every call returns 0 (success), 1 (usage error), 2 (data error) or 3
(numerical failure) and raises nothing, and a call that exits 0 writes no
traceback to stderr.
"""

import contextlib
import io

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mtgee import model
from mtgee.cli import run_command

UNITS = 3
# cell texts that are not plain numbers: missing, non-finite, overflowing
# once squared or summed, and unparseable
SPECIALS = ("", "NA", "inf", "-inf", "1e308", "-1e308", "1e200", "-1e200", "abc")
MAGNITUDES = (1e-300, 1e154, 1e200)
D_GRIDS = ("0", "0,0.01,0.1", "0,1e200", "0.5", "0,nan", "0,-1")


@st.composite
def cases(draw):
    """(CSV text, argv without --data) of one call."""
    rows = draw(st.integers(1, 12))
    # the magnitudes of the responses and of the exogenous series: at 1e154
    # and above products of two cells overflow, at 1e-300 they underflow
    scales = [draw(st.one_of(st.just(1.0), st.sampled_from(MAGNITUDES))) for _ in range(2)]
    number = st.one_of(st.integers(-5, 5), st.floats(-10, 10, allow_nan=False))
    # columns: y1..y3 then z1..z3, one per unit and series
    cells = [[repr(v * scales[col >= UNITS]) for col, v in enumerate(row)] for row in draw(
        st.lists(st.lists(number, min_size=2 * UNITS, max_size=2 * UNITS),
                 min_size=rows, max_size=rows))]
    for row, col, text in draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, 2 * UNITS - 1),
                      st.sampled_from(SPECIALS)), max_size=3)):
        cells[row][col] = text
    exog = draw(st.booleans())
    if draw(st.booleans()):
        lines = ["t,unit,y,z"] + [f"{t},u{j},{cells[t][j]},{cells[t][UNITS + j]}"
                                  for t in range(rows) for j in range(UNITS)]
        argv = ["--layout", "long", "--time-col", "t", "--unit-col", "unit",
                "--response", "y"] + (["--exog", "z"] if exog else [])
    else:
        names = [f"y{j + 1}" for j in range(UNITS)], [f"z{j + 1}" for j in range(UNITS)]
        lines = [",".join(["t", *names[0], *names[1]])]
        lines += [",".join([str(t), *row]) for t, row in enumerate(cells)]
        argv = ["--response", ",".join(names[0])]
        argv += ["--exog", ",".join(names[1])] if exog else []
    command = draw(st.sampled_from(["fit", "predict", "diagnose"]))
    argv = [command] + argv + [
        "--method", draw(st.sampled_from(["two_step", "linear", "newton"])),
        # weighted towards the identity link, which every method takes, and
        # towards no lags, under which an overflowing response stays out of
        # the design and reaches the working correlation
        "--link", draw(st.one_of(st.just("identity"), st.sampled_from(list(model.LINKS)))),
        "--lags", str(draw(st.one_of(st.just(0), st.integers(0, 2)))),
    ]
    corr = draw(st.sampled_from([None, "independence", "cs", "ar1", "empirical"]))
    argv += ["--corr", corr] if corr else []
    argv += ["--no-intercept"] if draw(st.booleans()) else []
    d_grid = draw(st.sampled_from((None,) + D_GRIDS)) if command == "diagnose" else None
    argv += ["--d-grid", d_grid] if d_grid else []
    return "\n".join(lines) + "\n", argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(cases())
def test_every_call_exits_with_a_code_and_no_traceback(tmp_path, case):
    text, argv = case
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv[:1] + ["--data", str(path)] + argv[1:])
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert "Traceback" not in err.getvalue()
