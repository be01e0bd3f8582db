"""Property test of the CLI contract on arbitrary JSON input and on the
argv of `freelie verify`, `mc`, `convolve`, `rh-check` and
`compose-check`: every run of every command exits 0, 1, 2 or 3,
prints exactly one JSON document on stdout and no traceback, within a
per-example deadline; so does input nested too deep to decode, a
result with an integer too long to print, and a request for help.  Also:
the parser of rationals agrees with Fraction on arbitrary strings and
values, and a few sparse planes in a huge dimension close in seconds."""

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcvlie.analysis import P  # noqa: E402
from mcvlie.cli import main  # noqa: E402
from test_exact_kernels import assert_rat_parity  # noqa: E402

BIG = 10**40
DATA = Path(__file__).parent / "data"

# JSON numbers and strings that parse as rationals, huge ones included
rationals = st.one_of(
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.integers(-BIG, BIG).map(str),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**30).map(str),
)
# anything JSON can hold, wrong types and malformed rationals included
scalars = st.one_of(
    rationals,
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(
        ["1/0", "1/", "-", "3/-7", " 2 ", "1e3", "−3/7", "0x10", "1e99999", "2e4300"]
    ),
)
any_json = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=16,
)


def _square(d, entries):
    return st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)


tuples = st.integers(1, 3).flatmap(
    lambda d: st.lists(_square(d, rationals), min_size=1, max_size=3)
)


@st.composite
def systems(draw):
    """Systems of 0-4 lines in the plane with random residues of rank -2
    to 2: sometimes integrable, mostly not, with the occasional malformed
    field."""
    n = draw(st.integers(0, 4))
    rank = draw(st.integers(-2, 2))
    small = st.integers(-2, 2)
    planes = [
        {"id": f"H{i}", "normal": [draw(small), draw(small)], "offset": draw(small)}
        for i in range(n)
    ]
    residues = {p["id"]: draw(_square(max(rank, 0), rationals)) for p in planes}
    doc = {"arrangement": {"dim": 2, "hyperplanes": planes}, "rank": rank,
           "residues": residues}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["rank", "residues", "arrangement"]))
        doc[key] = draw(any_json)
    return doc


def _main(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _run(argv, payload):
    return _main(argv + ["--input", "-"], json.dumps(payload))


def _check_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    json.loads(out)  # exactly one JSON document, nothing after it
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["mc", "-h"]])
def test_help_contract(argv):
    code, out, err = _main(argv)
    _check_contract(code, out, err)
    assert code == 0
    assert json.loads(out)["help"].startswith("usage: mcvlie")


FUZZ = settings(
    max_examples=120,
    deadline=3000,  # milliseconds per example
    derandomize=True,  # the same examples on every run: a stable gate
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(st.one_of(any_json, tuples.map(lambda m: {"matrices": m}),
                 st.builds(lambda x: {"matrices": x}, any_json)))
# irreducible over Q, but the second generator vanishes mod the prime of
# the modular rank certificate, so the exact path decides
@example({"matrices": [[[0, 1], [0, 0]], [[0, 0], [P, 0]]]})
def test_analyze_contract(payload):
    _check_contract(*_run(["analyze"], payload))


@FUZZ
@given(st.one_of(any_json, systems()))
def test_check_contract(payload):
    _check_contract(*_run(["check"], payload))


@FUZZ
@given(st.one_of(any_json, tuples.map(lambda m: {"matrices": m}),
                 st.builds(lambda x: {"matrices": x}, any_json)))
def test_compose_check_contract(payload):
    _check_contract(*_run(["compose-check", "--lambda", "1/2", "--mu", "1/3"], payload))


@FUZZ
@given(systems())
def test_mc_contract(payload):
    _check_contract(*_run(["mc", "--lambda", "1/2", "--line", "0,1"], payload))


@FUZZ
@given(st.one_of(any_json, systems()))
def test_closure_contract(payload):
    _check_contract(*_run(["closure", "--line", "1,1"], payload))


@FUZZ
@given(st.one_of(any_json, systems()))
def test_presentation_contract(payload):
    _check_contract(*_run(["presentation"], payload))


@FUZZ
@given(systems())
def test_convolve_contract(payload):
    _check_contract(*_run(["convolve", "--lambda", "1/2", "--line", "0,1"], payload))


@FUZZ
@given(systems())
@example({"arrangement": {"dim": 2, "hyperplanes": []}, "rank": -3, "residues": {}})
def test_rh_check_contract(payload):
    _check_contract(*_run(["rh-check", "--lambda", "1/5", "--line", "0,1"], payload))


def test_closure_of_sparse_planes_scales_with_dimension():
    """20 planes with 3 nonzero normal entries each in Q^2000: the flats
    of the 190 pairs cost O(dim) each.  Keying each pair by all
    C(dim+1, 2) Plücker coordinates would take minutes here."""
    rng = random.Random(8)
    dim = 2000
    planes = []
    for k in range(20):
        normal = [0] * dim
        # the first four planes meet the line's support, so a few flats grow
        support = [k % 2] if k < 4 else []
        support += rng.sample(range(2, dim), 3 - len(support))
        for c in support:
            normal[c] = rng.choice((-2, -1, 1, 2))
        planes.append({"id": f"H{k}", "normal": normal, "offset": rng.randint(-3, 3)})
    line = ",".join(["1", "-1"] + ["0"] * (dim - 2))
    start = time.perf_counter()
    code, out, err = _run(["closure", "--line", line], {"dim": dim, "hyperplanes": planes})
    elapsed = time.perf_counter() - start
    assert code == 0, err
    closed = json.loads(out)
    assert len(closed["hyperplanes"]) > len(planes)
    assert elapsed < 10, f"closure took {elapsed:.1f} s"


def test_deeply_nested_json_is_an_input_error(tmp_path):
    """Documents nested 1000 deep (2 KB) and 100000 deep.  Up to Python
    3.11 both exceed the JSON decoder's recursion limit; 3.12 and later
    decode the first and then refuse it as a matrix entry."""
    for depth in (1000, 100000):
        text = '{"matrices": ' + "[" * depth + "]" * depth + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        for source, stdin in (("-", text), (str(path), "")):
            code, out, err = _main(["analyze", "--input", source], stdin)
            _check_contract(code, out, err)
            assert code == 1 and "error" in json.loads(out)


def test_result_too_large_to_print_is_a_precondition_error():
    """Two transverse residues of 4300 nines: their sum plus λ = 1 is the
    offending integer 2·10^4300 − 1, one digit more than Python prints."""
    nines = "9" * 4300
    system = {
        "arrangement": {"dim": 2, "hyperplanes": [
            {"id": "A", "normal": [1, 0]}, {"id": "B", "normal": [1, 1], "offset": 1}]},
        "rank": 1,
        "residues": {"A": [[nines]], "B": [[nines]]},
    }
    for fmt in ("json", "text"):
        code, out, err = _run(
            ["rh-check", "--lambda", "1", "--line", "1,0", "--format", fmt], system)
        _check_contract(code, out, err)
        assert code == 2
        assert json.loads(out)["error"].startswith("result too large to print: ")


# --n and --degree values: in range, out of range, not integers (one past
# the 4300 digits int() reads), or absent
flag_values = st.one_of(
    st.integers(-2, 10).map(str),
    st.text(max_size=4),
    st.sampled_from(["", "1e3", "0x3", "2.0", " 3", "--n", "9" * 40, "9" * 5000]),
    st.none(),
)


@FUZZ
@given(flag_values, flag_values)
def test_freelie_verify_argv_contract(n, degree):
    argv = ["freelie", "verify"]
    for flag, value in (("--n", n), ("--degree", degree)):
        if value is not None:
            argv += [flag, value]
    _check_contract(*_main(argv))


# --lambda, --mu and --line values: signed rationals and lines (the lines of
# the wrong length too), junk, a flag in the value's place, or absent
junk_values = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "-", "-.", "-1/0", "-1,", "0,0", "-1e3", "--mu", "--line"]),
    st.none(),
)
signed = st.fractions(min_value=-3, max_value=3, max_denominator=7).map(str)
parameter = st.one_of(
    signed,
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**6).map(str),
    junk_values,
)
parameter_values = {
    "--lambda": parameter,
    "--mu": parameter,
    "--line": st.one_of(
        st.lists(signed, min_size=2, max_size=2).map(",".join),
        st.lists(signed, min_size=1, max_size=3).map(",".join),
        junk_values,
    ),
}
PARAMETER_COMMANDS = {
    "mc": ("--lambda", "--line", "threelines.json"),
    "convolve": ("--lambda", "--line", "threelines.json"),
    "rh-check": ("--lambda", "--line", "threelines.json"),
    "compose-check": ("--lambda", "--mu", "rank1.json"),
}


@st.composite
def parameter_argv(draw):
    command = draw(st.sampled_from(sorted(PARAMETER_COMMANDS)))
    *flags, data = PARAMETER_COMMANDS[command]
    argv = [command]
    for flag in flags:
        value = draw(parameter_values[flag])
        if value is not None:
            argv += [flag, value]
    return argv + ["--input", str(DATA / data)]


@FUZZ
@given(parameter_argv())
def test_parameter_argv_contract(argv):
    _check_contract(*_main(argv))


# strings near the int() fast path of rat: digits, signs, slashes, and the
# characters Fraction reads differently from int()
rat_text = st.text(alphabet="0123456789-+/ _.eE−٣²\t", max_size=10)


@FUZZ
@given(st.one_of(
    rat_text,
    st.from_regex(r"-?[0-9]{0,3}/?-?[0-9]{0,3}", fullmatch=True),
    st.text(max_size=6),
    st.integers(-BIG, BIG).map(str),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**30).map(str),
    st.integers(-BIG, BIG),
    st.booleans(),
    st.floats(),
    st.none(),
))
def test_rat_agrees_with_fraction(x):
    assert_rat_parity(x)
