"""Differential tests of the CLI's JSON edges.

The one-pass matrix reader (`exactcore._read_rows`, used by
`matrix_from_json` and `Arrangement.from_json`) against the entry-by-entry
path it declines to: the same (den, ints), or the same InputError text.
The per-entry path reads each value with `rat`, by `Fraction`, so the
two readers share no parsing code; `rat` itself is pinned by a table of its
outcomes on the same values.
The JSON writer (`cli._dumps`) against
`json.dumps(payload, sort_keys=True, indent=2)`: the same text, or the same
exception.  Seeded cases run with pytest alone; the hypothesis variants
run when hypothesis is installed."""

import json
import random
from fractions import Fraction

import pytest

from mcvlie import arrangement, cli, exactcore
from mcvlie.arrangement import Arrangement
from mcvlie.errors import InputError, PreconditionError
from mcvlie.exactcore import ExactMatrix, matrix_from_json, rat, rat_str

LONG = "7" * 4301  # one digit more than int() reads

# the malformed strings of the CLI fuzz, and more that are near misses of
# the plain "p" / "p/q" form
EDGE_STRINGS = [
    "1/0", "1/", "-", "3/-7", " 2 ", "1e3", "−3/7", "0x10", "1e99999", "2e4300",
    "+1", " 1", "1_0", "١", "1/-2", "1/2/3", "0/0", "00/007", "-0",
    LONG, "-" + LONG, "1/" + LONG, LONG + "/3", "", "/3", "--1", "1-2", "1//2",
]
HUGE = 10**5000  # more digits than Python prints
EDGE_VALUES = EDGE_STRINGS + [True, False, 1.0, 2.5, None, [], ["1"], {"p": 1}, HUGE]
PLAIN = ["0", "1", "-1", "3/7", "-12/8", "5", "-4/6", "22/7", "0/5", 0, 7, -3, 10**40]


def _outcome(read):
    """(rows, cols, den, ints) of the matrix that `read` returns, or the
    text of its InputError."""
    try:
        m = read()
    except InputError as exc:
        return "InputError", str(exc)
    return m.rows, m.cols, m.den, m.ints


def _per_entry(data, shape):
    """What `matrix_from_json` did before it read in one pass."""
    if (
        not isinstance(data, list)
        or (not data and shape is None)
        or not all(isinstance(row, list) for row in data)
    ):
        raise InputError("matrix JSON must be a non-empty array of arrays")
    return ExactMatrix(data, shape=shape)


def _random_case(rng):
    """A matrix JSON value and a shape (or None): mostly plain entries,
    often one or more edge values, sometimes a wrong shape or ragged rows."""
    r, c = rng.randint(1, 4), rng.randint(1, 4)
    rate = rng.choice([0.0, 0.0, 0.05, 0.3])
    data = [
        [rng.choice(EDGE_VALUES) if rng.random() < rate else rng.choice(PLAIN) for _ in range(c)]
        for _ in range(r)
    ]
    if rng.random() < 0.15:  # a ragged row
        data[rng.randrange(r)].append(rng.choice(PLAIN))
    if rng.random() < 0.15:  # a missing row
        data.pop()
    shape = rng.choice([None, (r, c), (r, c), (c, r), (r + 1, c)])
    return data, shape


def _assert_reader_agrees(data, shape):
    want = _outcome(lambda: _per_entry(data, shape))
    assert _outcome(lambda: matrix_from_json(data, shape)) == want, (data, shape)


def test_reader_agrees_with_the_per_entry_path_on_each_edge_value():
    for x in EDGE_VALUES + PLAIN:
        for data in ([[x]], [["1", x], ["2/3", "4"]], [[x, "1/2"], ["-3", 5]]):
            _assert_reader_agrees(data, None)
            _assert_reader_agrees(data, (2, 2))


def test_reader_agrees_with_the_per_entry_path_on_seeded_matrices():
    rng = random.Random(2101)
    for _ in range(3000):
        _assert_reader_agrees(*_random_case(rng))


def test_reader_reads_plain_matrices_in_one_pass(monkeypatch):
    seen = []
    real = exactcore._read_rows

    def spy(rows, cols):
        seen.append(real(rows, cols))
        return seen[-1]

    monkeypatch.setattr(exactcore, "_read_rows", spy)
    m = matrix_from_json([["1/2", "-2/4", "3"], ["00/007", "-0", "6/9"]])
    assert m == ExactMatrix([["1/2", "-1/2", 3], [0, 0, "2/3"]])
    assert m.den == 6 and m.ints == ((3, -3, 18), (0, 0, 4))
    assert matrix_from_json([[1, 2], ["3", "-4/5"]]) == ExactMatrix([[1, 2], [3, "-4/5"]])
    assert matrix_from_json([[HUGE, 1]]).ints == ((HUGE, 1),)
    assert all(read is not None for read in seen)
    for data in ([["1/"]], [["1/-2"]], [["--1"]], [["1", True]], [[1.0]], [[LONG]], [["1", HUGE]]):
        _assert_reader_agrees(data, None)
    assert seen[3:] == [None] * 7


def test_reader_keeps_the_first_error_in_row_order():
    with pytest.raises(InputError, match=r"not a rational: '1/'"):
        matrix_from_json([["1", "1/"], ["1/-2", "x"]])
    with pytest.raises(InputError, match="does not match shape"):
        matrix_from_json([["1", "2"]], shape=(2, 2))
    with pytest.raises(InputError, match="ragged matrix rows"):
        matrix_from_json([["1", "2"], ["3"]])


# -- single values -------------------------------------------------------------

# rat's outcome on each value of EDGE_VALUES + PLAIN, in order, as recorded
# when plain "p" / "p/q" strings were still read with int(): the value, or
# the InputError text with {x!r} standing for the value's repr
NOT_RAT = "not a rational: {x!r}"
RAT_OUTCOMES = [
    # "1/0", "1/", "-", "3/-7", " 2 ", "1e3", "−3/7", "0x10", "1e99999", "2e4300"
    NOT_RAT, NOT_RAT, NOT_RAT, NOT_RAT, 2, 1000, Fraction(-3, 7), NOT_RAT,
    "exponent larger than 4300 in {x!r}", 2 * 10**4300,
    # "+1", " 1", "1_0", "١", "1/-2", "1/2/3", "0/0", "00/007", "-0"
    1, 1, NOT_RAT, 1, NOT_RAT, NOT_RAT, NOT_RAT, 0, 0,
    # LONG, "-" + LONG, "1/" + LONG, LONG + "/3", "", "/3", "--1", "1-2", "1//2"
    *[NOT_RAT] * 9,
    # True, False, 1.0, 2.5, None, [], ["1"], {"p": 1}, HUGE
    *[NOT_RAT] * 5, "not a rational: a list", "not a rational: a list",
    "not a rational: a dict", HUGE,
    # PLAIN
    0, 1, -1, Fraction(3, 7), Fraction(-3, 2), 5, Fraction(-2, 3), Fraction(22, 7), 0,
    0, 7, -3, 10**40,
]


def test_rat_reads_each_edge_value_as_recorded():
    values = EDGE_VALUES + PLAIN
    assert len(values) == len(RAT_OUTCOMES) == 50
    for x, want in zip(values, RAT_OUTCOMES):
        if isinstance(want, str):
            with pytest.raises(InputError) as exc:
                rat(x)
            assert str(exc.value) == want.format(x=x)
        else:
            got = rat(x)
            assert type(got) is Fraction and got == want
    half = Fraction(1, 2)
    assert rat(half) is half


def test_rat_str_is_str():
    rng = random.Random(2104)
    for _ in range(500):
        bits = rng.choice((4, 64, 400))
        x = Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        assert rat_str(x) == str(x)
        assert rat_str(x.numerator) == str(x.numerator)
        assert rat(rat_str(x)) == x
    for x in (HUGE, -HUGE, Fraction(1, HUGE), Fraction(HUGE)):
        with pytest.raises(PreconditionError, match="too large to print"):
            rat_str(x)


# -- arrangements ------------------------------------------------------------


def _arrangement_outcome(data):
    try:
        arr = Arrangement.from_json(data)
    except InputError as exc:
        return "InputError", str(exc)
    return arr.dim, [(h.id, h.form.den, h.form.ints) for h in arr]


def _random_arrangement(rng):
    dim = rng.randint(1, 3)
    rate = rng.choice([0.0, 0.0, 0.05, 0.2])
    planes = []
    for k in range(rng.randint(1, 5)):
        width = dim + (rng.random() < 0.1)  # sometimes one entry too many
        normal = [rng.choice(EDGE_VALUES) if rng.random() < rate else rng.choice(PLAIN)
                  for _ in range(width)]
        plane = {"id": f"H{k}", "normal": normal}
        if rng.random() < 0.8:  # else the offset defaults to 0
            plane["offset"] = rng.choice(EDGE_VALUES) if rng.random() < rate else rng.choice(PLAIN)
        if rng.random() < 0.05:
            del plane[rng.choice(["id", "normal"])]
        planes.append(plane)
    if rng.random() < 0.05:
        planes.append(rng.choice(EDGE_VALUES))  # not an object
    return {"dim": dim, "hyperplanes": planes}


def test_arrangement_reader_agrees_with_the_per_hyperplane_loop(monkeypatch):
    rng = random.Random(2102)
    cases = [_random_arrangement(rng) for _ in range(1500)]
    cases += [  # zero normal before a bad entry, and after it
        {"dim": 1, "hyperplanes": [{"id": "A", "normal": ["0"], "offset": "1"},
                                   {"id": "B", "normal": ["1/"]}]},
        {"dim": 1, "hyperplanes": [{"id": "A", "normal": ["1/"]},
                                   {"id": "B", "normal": ["0"], "offset": "1"}]},
    ]
    fast = [_arrangement_outcome(data) for data in cases]
    assert sum(out[0] != "InputError" for out in fast) > 500
    monkeypatch.setattr(arrangement, "_planes_in_one_pass", lambda hyperplanes: None)
    assert [_arrangement_outcome(data) for data in cases] == fast
    assert fast[-2:] == [("InputError", "hyperplane 'A' has zero normal"),
                         ("InputError", "not a rational: '1/'")]


# -- the writer --------------------------------------------------------------

KEYS = ["a", "b", "", "ü", "\x00", "\n", "\"", "\\", "日本", "\U0001f600", "Z", "aa"]
STRINGS = KEYS + ["1/2", "-3", "tab\there", "\x7f", " "]


def _random_payload(rng, depth=0):
    kind = rng.randrange(11 if depth < 4 else 7)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice([0, -1, 7, 10**40, -(10**99)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([1.5, -0.0, 1e300, float("inf"), float("nan")])
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind in (5, 6):  # a matrix row
        return [rng.choice(STRINGS) for _ in range(rng.randint(1, 4))]
    if kind in (7, 8):
        return [_random_payload(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    if kind == 9:
        return {rng.choice(KEYS): _random_payload(rng, depth + 1) for _ in range(rng.randint(1, 4))}
    return rng.choice([  # values that go to json.dumps whole
        {1: "x", 2: [True]}, (1, ["a", ("b",)]), {None: 1}, [{"k": (1, 2)}],
    ])


def _dumped(write, payload):
    try:
        return write(payload)
    except Exception as exc:  # the two writers must raise the same type
        return type(exc).__name__


def _assert_writer_agrees(payload):
    want = _dumped(lambda p: json.dumps(p, sort_keys=True, indent=2), payload)
    assert _dumped(cli._dumps, payload) == want, payload


def test_writer_matches_json_dumps_on_seeded_payloads():
    rng = random.Random(2103)
    for _ in range(2000):
        _assert_writer_agrees(_random_payload(rng))


def test_writer_matches_json_dumps_on_edge_payloads():
    for payload in (
        [], {}, [[]], {"a": {}}, [[], {}, ()], "", "\x00\x1f\"\\ü", 0, True, None,
        {"b": 1, "a": [["1/2", "3"], ["-4", "0"]], "c": {"é": [None, False]}},
        {"z": 1, 2: "mixed keys"}, [float("nan"), float("-inf")],
    ):
        _assert_writer_agrees(payload)


def test_writer_refuses_an_integer_too_long_to_print():
    huge = 10**4301
    for payload in (huge, [huge], {"a": [1, huge]}, {"a": {"b": -huge}}):
        assert _dumped(cli._dumps, payload) == "ValueError"
        assert _dumped(lambda p: json.dumps(p, sort_keys=True, indent=2), payload) == "ValueError"
        with pytest.raises(PreconditionError, match="too large to print"):
            cli._render(payload, "json")


# -- hypothesis variants -----------------------------------------------------


def test_reader_agrees_with_the_per_entry_path_on_hypothesis_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # hypothesis shows a strategy by its values, and HUGE has no repr
    entries = st.one_of(
        st.sampled_from(PLAIN[:-1]),
        st.sampled_from(EDGE_VALUES[:-1]),
        st.builds(pow, st.just(10), st.sampled_from([40, 5000])),
        st.integers(-(10**30), 10**30),
        st.fractions(max_denominator=10**20).map(str),
        st.text(alphabet="0123456789-/,+ _", max_size=6),
    )
    shapes = st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4)))

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(st.lists(st.lists(entries, max_size=4), max_size=4), shapes)
    def check(data, shape):
        _assert_reader_agrees(data, shape)

    check()


def test_writer_matches_json_dumps_on_hypothesis_payloads():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.one_of(
        st.text(), st.integers(), st.booleans(), st.none(), st.floats(),
        st.sampled_from(["1/2", "-3"]),
        st.builds(pow, st.just(10), st.just(4301)),
    )
    payloads = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(st.text(max_size=3), max_size=4),
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
        ),
        max_leaves=20,
    )

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(payloads)
    def check(payload):
        _assert_writer_agrees(payload)

    check()
