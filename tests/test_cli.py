import io
import json
import os
import random
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mcvlie import analysis, cli, exactcore
from mcvlie.cli import main
from mcvlie.errors import InternalInvariantError, MCVError
from mcvlie.exactcore import ExactMatrix, Poly

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_closure_adds_diagonal():
    code, out, _ = run_cli("closure", "--line", "1,1", "--input", str(DATA / "two_axes.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["hyperplanes"]) == 3
    added = payload["hyperplanes"][2]
    assert added["normal"] == ["1", "-1"] and added["offset"] == "0"
    assert added["id"].startswith("cl:")


def test_check_ok_system():
    code, out, _ = run_cli("check", "--input", str(DATA / "threelines.json"))
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_check_violating_system_exits_2():
    code, out, _ = run_cli("check", "--input", str(DATA / "bad_system.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"]
    first = payload["violations"][0]
    assert first["family"] == ["H12", "H13", "H23"]


def test_presentation_braid3():
    code, out, _ = run_cli("presentation", "--input", str(DATA / "braid3.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["H12", "H13", "H23"]
    assert payload["relation_families"] == [["H12", "H13", "H23"]]


def test_mc_threelines_dim_two():
    code, out, _ = run_cli(
        "mc", "--lambda", "1/2", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["block_order"] == ["H2", "H3"]
    assert payload["k_dim"] == 0 and payload["l_dim"] == 0


def test_mc_rejects_bad_system_with_exit_2():
    code, out, _ = run_cli(
        "mc", "--lambda", "1/2", "--line", "0,0,1", "--input", str(DATA / "bad_system.json")
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_convolve_golden_worked_example():
    code, out, _ = run_cli(
        "convolve", "--lambda", "1/7", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrices"]["H2"] == [["9/14", "1/3"], ["0", "0"]]
    assert payload["matrices"]["H3"] == [["0", "0"], ["1/2", "10/21"]]
    assert payload["matrices"]["H1"] == [["8/15", "-1/3"], ["-1/2", "7/10"]]


def test_compose_check_report():
    code, out, _ = run_cli(
        "compose-check", "--lambda", "1/2", "--mu", "1/3", "--input", str(DATA / "rank1.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["dims"] == [2, 2, 2]


def test_analyze_tuple_input():
    code, out, _ = run_cli("analyze", "--input", str(DATA / "rank1.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert payload["stars"]["holds_star"] is True
    assert payload["stars"]["holds_dstar"] is True


def test_analyze_system_input():
    code, out, _ = run_cli("analyze", "--input", str(DATA / "threelines.json"))
    assert code == 0
    assert json.loads(out)["irreducible"] is True


def test_freelie_verify():
    code, out, _ = run_cli("freelie", "verify", "--n", "3", "--degree", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_rh_check():
    code, out, _ = run_cli(
        "rh-check", "--lambda", "1/5", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["offenders"] == []


def test_rh_check_zero_lambda_is_precondition_error():
    code, out, _ = run_cli(
        "rh-check", "--lambda", "0", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 2


def test_malformed_input_exits_1():
    code, out, _ = run_cli("mc", "--lambda", "1/2", "--line", "0,1", "--input", "/nonexistent.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_missing_flag_exits_1():
    code, out, _ = run_cli("mc", "--line", "0,1", "--input", str(DATA / "threelines.json"))
    assert code == 1


def test_byte_identical_reruns():
    args = ("mc", "--lambda", "1/7", "--line", "0,1", "--input", str(DATA / "threelines.json"))
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_golden_mc_output_file():
    code, out, _ = run_cli(
        "mc", "--lambda", "1/7", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 0
    golden = (DATA / "golden_mc_threelines.json").read_text(encoding="utf-8")
    assert out == golden


def test_golden_closure_output_file():
    # five planes in Q^3 whose closure along (1, 2, -1) appends ten
    code, out, _ = run_cli(
        "closure", "--line", "1,2,-1", "--input", str(DATA / "closure_fiveplanes.json")
    )
    assert code == 0
    golden = (DATA / "golden_closure_fiveplanes.json").read_text(encoding="utf-8")
    assert out == golden
    assert len(json.loads(golden)["hyperplanes"]) == 15


def test_golden_analyze_output_file():
    # a reducible pair: the spin, the lift and the closed-subspace test
    code, out, _ = run_cli("analyze", "--input", str(DATA / "analyze_reducible.json"))
    assert code == 0
    golden = (DATA / "golden_analyze_reducible.json").read_text(encoding="utf-8")
    assert out == golden
    assert json.loads(golden)["irreducible"] is False


def test_golden_compose_check_output_file():
    code, out, _ = run_cli(
        "compose-check", "--lambda", "1/2", "--mu", "1/3",
        "--input", str(DATA / "compose_generic.json"),
    )
    assert code == 0
    golden = (DATA / "golden_compose_generic.json").read_text(encoding="utf-8")
    assert out == golden
    assert json.loads(golden)["isomorphic"] is True


def test_golden_compose_check_inverse_levels_output_file():
    # lam + mu = 0: the composite is also compared with the input itself
    code, out, _ = run_cli(
        "compose-check", "--lambda", "1/2", "--mu", "-1/2",
        "--input", str(DATA / "compose_generic.json"),
    )
    assert code == 0
    golden = (DATA / "golden_compose_inverse.json").read_text(encoding="utf-8")
    assert out == golden
    doc = json.loads(golden)
    assert doc["applicable"] and doc["dims"] == [6, 2, 2]
    assert doc["identity_iso"]["verdict"] == "isomorphic"


@pytest.mark.parametrize("mu, golden, dims", [
    ("1/3", "golden_compose_singular.json", [4, 4, 4]),
    ("-1/2", "golden_compose_singular_inverse.json", [4, 2, 2]),
])
def test_golden_compose_check_singular_output_files(mu, golden, dims):
    # singular generators: the mu-middle convolution is a proper quotient,
    # so the comparison map descends through a section of each outer block
    code, out, _ = run_cli(
        "compose-check", "--lambda", "1/2", "--mu", mu,
        "--input", str(DATA / "compose_singular.json"),
    )
    assert code == 0
    golden = (DATA / golden).read_text(encoding="utf-8")
    assert out == golden
    doc = json.loads(golden)
    assert doc["dims"] == dims and doc["isomorphic"] is True


def test_golden_presentation_output_file():
    # the fifteen-plane closure: one relation family per codimension-2 flat
    code, out, _ = run_cli(
        "presentation", "--input", str(DATA / "golden_closure_fiveplanes.json")
    )
    assert code == 0
    golden = (DATA / "golden_presentation_closure.json").read_text(encoding="utf-8")
    assert out == golden
    families = json.loads(golden)["relation_families"]
    assert len(families) == 64 and sum(len(f) == 3 for f in families) == 20


def test_golden_check_violations_output_file():
    code, out, _ = run_cli("check", "--input", str(DATA / "bad_system.json"))
    assert code == 2
    golden = (DATA / "golden_check_bad_system.json").read_text(encoding="utf-8")
    assert out == golden
    doc = json.loads(golden)
    assert doc["ok"] is False
    assert [v["family"] for v in doc["violations"]] == [["H12", "H13", "H23"]] * 2


def _golden_manifest():
    """(exit status, golden file, argv) per line of tests/data/goldens.txt,
    the list that CI runs through a real process."""
    lines = (DATA / "goldens.txt").read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines if line and not line.startswith("#")]
    return [(int(code), golden, argv) for code, golden, *argv in rows]


def test_every_golden_in_the_manifest_matches(monkeypatch):
    manifest = _golden_manifest()
    listed = {Path(golden).name for _, golden, _ in manifest}
    assert listed == {path.name for path in DATA.glob("golden_*")}
    assert len(listed) == len(manifest) == 21
    monkeypatch.chdir(DATA.parent.parent)
    for code, golden, argv in manifest:
        status, out, _ = run_cli(*argv)
        assert status == code, argv
        assert out == Path(golden).read_text(encoding="utf-8"), argv


def test_text_format_renders_grid():
    code, out, _ = run_cli(
        "mc",
        "--lambda",
        "1/7",
        "--line",
        "0,1",
        "--input",
        str(DATA / "threelines.json"),
        "--format",
        "text",
    )
    assert code == 0
    assert "dim: 2" in out
    assert "[" in out and "]" in out


def test_stdin_input(monkeypatch):
    payload = (DATA / "two_axes.json").read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli("closure", "--line", "1,1", "--input", "-")
    assert code == 0
    assert len(json.loads(out)["hyperplanes"]) == 3


def test_env_seed_has_no_effect(monkeypatch):
    argv = ("compose-check", "--lambda", "1/2", "--mu", "1/3", "--input", str(DATA / "rank1.json"))
    monkeypatch.delenv("MCVLIE_SEED", raising=False)
    _, unset, _ = run_cli(*argv)
    monkeypatch.setenv("MCVLIE_SEED", "7")
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    assert out == unset


def test_seed_option_is_gone():
    code, out, err = run_cli(
        "compose-check", "--seed", "5", "--lambda", "1/2", "--mu", "1/3",
        "--input", str(DATA / "rank1.json"),
    )
    assert code == 1 and "--seed" in json.loads(out)["error"]
    assert err.startswith("mcvlie: input error: ")


def test_negative_rational_values_parse_like_joined_ones():
    rank1 = str(DATA / "rank1.json")
    for data, spaced, joined in [
        ("rank1", ("compose-check", "--lambda", "-1/2", "--mu", "1/2"),
         ("compose-check", "--lambda=-1/2", "--mu=1/2")),
        ("threelines", ("mc", "--lambda", "-3/7", "--line", "0,1"),
         ("mc", "--lambda=-3/7", "--line=0,1")),
        ("threelines", ("convolve", "--lambda", "-.5", "--line", "0,1"),
         ("convolve", "--lambda=-.5", "--line=0,1")),
        ("two_axes", ("closure", "--line", "-1,1"), ("closure", "--line=-1,1")),
    ]:
        path = str(DATA / f"{data}.json")
        result = run_cli(*spaced, "--input", path)
        assert result[0] == 0
        assert result == run_cli(*joined, "--input", path)
    payload = json.loads(run_cli("compose-check", "--lambda", "-1/2", "--mu", "1/2",
                                 "--input", rank1)[1])
    assert payload["identity_iso"]["verdict"] == "isomorphic"
    # a flag is still not a value
    code, out, _ = run_cli("compose-check", "--lambda", "--mu", "1/2", "--input", rank1)
    assert code == 1 and "--lambda" in json.loads(out)["error"]


def _run_stdin(monkeypatch, payload, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(*argv, "--input", "-")
    assert "Traceback" not in err
    return code, json.loads(out)  # exactly one JSON document


def test_matrices_not_an_array_exits_1(monkeypatch):
    code, doc = _run_stdin(monkeypatch, {"matrices": 5}, "analyze")
    assert code == 1 and "matrices" in doc["error"]


def test_residues_not_an_object_exits_1(monkeypatch):
    system = json.loads((DATA / "threelines.json").read_text(encoding="utf-8"))
    system["residues"] = [[["1/5"]], [["1/2"]], [["1/3"]]]
    code, doc = _run_stdin(monkeypatch, system, "check")
    assert code == 1 and "residues" in doc["error"]


def test_normal_given_as_string_exits_1(monkeypatch):
    arr = {"dim": 2, "hyperplanes": [{"id": "H1", "normal": "10", "offset": "0"}]}
    code, doc = _run_stdin(monkeypatch, arr, "closure", "--line", "1,1")
    assert code == 1 and "normal" in doc["error"]


def test_json_boolean_is_not_a_number(monkeypatch):
    code, doc = _run_stdin(monkeypatch, {"matrices": [[[True]]]}, "analyze")
    assert code == 1 and "not a rational" in doc["error"]


def test_json_boolean_or_float_is_not_a_count(monkeypatch):
    system = json.loads((DATA / "threelines.json").read_text(encoding="utf-8"))
    system["rank"] = True
    code, doc = _run_stdin(monkeypatch, system, "check")
    assert code == 1 and "not an integer" in doc["error"]
    arr = json.loads((DATA / "two_axes.json").read_text(encoding="utf-8"))
    arr["dim"] = 2.5
    code, doc = _run_stdin(monkeypatch, arr, "closure", "--line", "1,1")
    assert code == 1 and "not an integer" in doc["error"]


def test_negative_rank_exits_1(monkeypatch):
    system = {"arrangement": {"dim": 1, "hyperplanes": []}, "rank": -3, "residues": {}}
    code, doc = _run_stdin(monkeypatch, system, "rh-check", "--lambda", "1/2", "--line", "1")
    assert code == 1 and "rank" in doc["error"]


def test_negative_dimension_exits_1(monkeypatch):
    system = {"arrangement": {"dim": -5, "hyperplanes": []}, "rank": 1, "residues": {}}
    code, doc = _run_stdin(monkeypatch, system, "check")
    assert code == 1 and "dimension" in doc["error"]
    code, doc = _run_stdin(monkeypatch, {"dim": -1, "hyperplanes": []}, "presentation")
    assert code == 1 and "dimension" in doc["error"]


def test_rank_zero_system_keeps_the_contract(monkeypatch):
    # the zero module: every command on it exits 0-3 with one JSON
    # document, and it is not irreducible
    planes = [{"id": "H1", "normal": ["1", "0"]}, {"id": "H2", "normal": ["0", "1"]},
              {"id": "H3", "normal": ["1", "-1"]}]
    system = {"arrangement": {"dim": 2, "hyperplanes": planes}, "rank": 0,
              "residues": {"H1": [], "H2": [], "H3": []}}
    along = ("--lambda", "1/2", "--line", "1,1")
    for argv in (("check",), ("convolve", *along), ("mc", *along), ("rh-check", *along),
                 ("analyze",), ("compose-check", "--lambda", "1/2", "--mu", "1/3")):
        code, doc = _run_stdin(monkeypatch, system, *argv)
        assert 0 <= code <= 3, argv
        if argv[0] == "analyze":
            assert doc["irreducible"] is False


def test_rh_check_without_transverse_hyperplane_exits_2(monkeypatch):
    # no residue was supplied, so no rank x rank matrix may be built either:
    # at rank 10^7 one zero residue would take over 100 MB
    empty = {"arrangement": {"dim": 1, "hyperplanes": []}, "rank": 10**7, "residues": {}}
    parallel = {
        "arrangement": {"dim": 2, "hyperplanes": [{"id": "H1", "normal": ["1", "0"]}]},
        "rank": 1,
        "residues": {"H1": [["1/3"]]},
    }
    for command in ("rh-check", "mc", "convolve"):
        for system, line in ((empty, "1"), (parallel, "0,1")):
            start = time.perf_counter()
            tracemalloc.start()
            try:
                code, doc = _run_stdin(monkeypatch, system, command, "--lambda", "1/2", "--line", line)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 1.0
            assert peak < 10 * 2**20, (command, peak)
            assert code == 2
            assert doc["error"] == "no hyperplane is transverse to the line"


def test_analyze_big_1x1_finds_planted_root_in_budget(monkeypatch):
    # the root of the defect c - x is found without factoring the entry
    for entry in (str(10**19 + 7), "-" + str(10**39 + 9) + "/7"):
        start = time.perf_counter()
        code, doc = _run_stdin(monkeypatch, {"matrices": [[[entry]]]}, "analyze")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert doc["stars"]["star_witnesses"] == [
            {"generator": 0, "c": entry, "vector": ["1"]}
        ]


def test_analyze_zero_tuples_in_budget(monkeypatch):
    # the defect of a zero tuple is c^d: one kernel and one charpoly per
    # generator, where the minors of the stacked pencil number C(n·d, d)
    for n, d in ((3, 6), (4, 8)):
        zero = [["0"] * d for _ in range(d)]
        start = time.perf_counter()
        code, doc = _run_stdin(monkeypatch, {"matrices": [zero] * n}, "analyze")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        c_to_d = ["0"] * d + ["1"]
        assert doc["stars"]["star_defects"] == [c_to_d] * n
        assert doc["stars"]["dstar_defects"] == [c_to_d] * n


def test_non_square_and_mixed_size_tuples_are_precondition_failures(monkeypatch):
    # three 1×2 matrices: every other pair stacks to an invertible 2×2, so
    # the shape, not the defect, has to reject them
    cases = (
        ({"matrices": [[["1", "2"]], [["3", "5"]], [["7", "11"]]]},
         "pencil needs a square matrix"),
        ({"matrices": [[["1", "0"], ["0", "1"]], [["2"]]]},
         "vstack: column counts differ"),
        ({"matrices": [[["1", "0"], ["0", "1"]],
                       [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
         "vstack: column counts differ"),
    )
    for payload, message in cases:
        for argv in (("analyze",), ("compose-check", "--lambda", "1/2", "--mu", "1/3")):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
            code, out, err = run_cli(*argv, "--input", "-")
            assert (code, json.loads(out)) == (2, {"error": message})
            assert err == f"mcvlie: precondition failed: {message}\n"


def _raise(exc):
    def command(args):
        raise exc
    return command, *cli._COMMANDS["freelie"][1:]


def test_error_classes_keep_exit_codes_and_stderr_prefixes(monkeypatch):
    code, out, err = run_cli("mc", "--line", "0,1", "--input", str(DATA / "threelines.json"))
    assert code == 1 and err.startswith("mcvlie: input error: ")
    code, out, err = run_cli(
        "rh-check", "--lambda", "0", "--line", "0,1", "--input", str(DATA / "threelines.json")
    )
    assert code == 2 and err == f"mcvlie: precondition failed: {json.loads(out)['error']}\n"
    monkeypatch.setitem(cli._COMMANDS, "freelie", _raise(InternalInvariantError("broken")))
    code, out, err = run_cli("freelie", "verify", "--n", "3", "--degree", "2")
    assert (code, json.loads(out), err) == (
        3, {"error": "broken"}, "mcvlie: internal invariant breached: broken\n"
    )
    monkeypatch.setitem(cli._COMMANDS, "freelie", _raise(MCVError("other")))
    code, out, err = run_cli("freelie", "verify", "--n", "3", "--degree", "2")
    assert (code, json.loads(out), err) == (1, {"error": "other"}, "")


def test_freelie_verify_reruns_in_one_process():
    run_cli("freelie", "verify", "--n", "3", "--degree", "2")
    code, out, _ = run_cli("freelie", "verify", "--n", "3", "--degree", "3")
    assert code == 0 and json.loads(out)["ok"] is True


def test_numbers_beyond_the_printable_size_keep_the_contract(monkeypatch):
    # a 5000-digit JSON integer cannot even be parsed: an input error
    monkeypatch.setattr("sys.stdin", io.StringIO('{"matrices": [[[' + "7" * 5000 + "]]]}"))
    code, out, err = run_cli("analyze", "--input", "-")
    assert code == 1 and "Traceback" not in err and "cannot read input" in json.loads(out)["error"]
    # an exponent beyond the cap is refused before the number is built
    code, doc = _run_stdin(monkeypatch, {"matrices": [[["1e9999999999"]]]}, "analyze")
    assert code == 1 and "exponent larger than 4300" in doc["error"]
    # a result with more digits than Python prints is a precondition failure:
    # here the commutator [H1, H2] holds 10^4400
    axes = json.loads((DATA / "two_axes.json").read_text(encoding="utf-8"))
    big = "1e2200"
    system = {"arrangement": axes, "rank": 2,
              "residues": {"H1": [[big, big], ["0", "0"]], "H2": [["0", "0"], [big, big]]}}
    code, doc = _run_stdin(monkeypatch, system, "check")
    assert code == 2 and doc["error"].startswith("result too large to print")


# -- error texts and the rational grammar on every Python version -------------

AXES = {"dim": 2, "hyperplanes": [{"id": "H1", "normal": [1, 0]}, {"id": "H2", "normal": [0, 1]}]}
ERROR_CORPUS = [
    # (stdin text, command, stdout): the same bytes on Python 3.10 to 3.13
    ("[1,]", "analyze", "cannot read input: not valid JSON"),
    ('{"a":1,}', "analyze", "cannot read input: not valid JSON"),
    ("{", "analyze", "cannot read input: not valid JSON"),
    ('{"matrices": [[[' + "7" * 5000 + "]]]}", "analyze",
     "cannot read input: a number has more digits than Python reads"),
    ('{"matrices": [[["1_000"]]]}', "analyze", "not a rational: '1_000'"),
    ('{"matrices": [[["1 / 2"]]]}', "analyze", "not a rational: '1 / 2'"),
    ('{"matrices": [[["1_0e3"]]]}', "analyze", "not a rational: '1_0e3'"),
    ('{"matrices": [[[[1, 2]]]]}', "analyze", "not a rational: a list"),
    ('{"matrices": [[[{"a": [[[[1]]]]}]]]}', "analyze", "not a rational: a dict"),
    (json.dumps({"arrangement": AXES, "rank": "1_0", "residues": {}}), "check",
     "not an integer: '1_0'"),
    (json.dumps({"arrangement": AXES, "rank": [[1]], "residues": {}}), "check",
     "not an integer: a list"),
    (json.dumps({"arrangement": AXES, "rank": 2, "residues": {
        "H1": [["1e2200", "1e2200"], ["0", "0"]], "H2": [["0", "0"], ["1e2200", "1e2200"]]}}),
     "check", "result too large to print: an integer has more digits than Python prints"),
]


@pytest.mark.parametrize("text, command, message", ERROR_CORPUS)
def test_error_texts_do_not_depend_on_the_python_version(monkeypatch, text, command, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(command, "--input", "-")
    assert (code, out) == (1 if "large" not in message else 2, json.dumps({"error": message}) + "\n")


def test_rational_grammar_refuses_what_older_pythons_refuse(monkeypatch):
    # Fraction("1_000") is 1000 from Python 3.11 on and Fraction("1 / 2")
    # is 1/2 from 3.12 on; both are input errors on every version
    for entry in ("1_000", "1 / 2", "1_0/3", "3/1_0", " 1 /2", "1\t/2", "1 2"):
        code, doc = _run_stdin(monkeypatch, {"matrices": [[[entry]]]}, "analyze")
        assert (code, doc) == (1, {"error": f"not a rational: {entry!r}"})
    for entry in (" 1/2 ", "\t1.5\n", "-1e3"):
        code, doc = _run_stdin(monkeypatch, {"matrices": [[[entry]]]}, "analyze")
        assert code == 0


def test_rh_check_on_large_rational_residues_in_budget(monkeypatch):
    """A rank-12 residue of entries randint(±10^20)/randint(1, 10^5): its
    squarefree part and Sturm chain run on integer pseudo-remainders."""
    rng = random.Random(7)
    residue = [[f"{rng.randint(-10**20, 10**20)}/{rng.randint(1, 10**5)}" for _ in range(12)]
               for _ in range(12)]
    system = {"arrangement": {"dim": 1, "hyperplanes": [{"id": "H", "normal": [1]}]},
              "rank": 12, "residues": {"H": residue}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(system)))
    start = time.perf_counter()
    code, out, _ = run_cli("rh-check", "--lambda", "1/2", "--line", "1", "--input", "-")
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, '{\n  "offenders": [],\n  "pass": true\n}\n')
    assert elapsed < 5


# -- exact roots that fail their certificate ----------------------------------

DIAG_TUPLE = {"matrices": [[[1, 0], [0, 2]], [[0, 1], [1, 0]]]}
DIAG_SYSTEM = {
    "arrangement": {"dim": 1, "hyperplanes": [{"id": "H", "normal": ["1"]}]},
    "rank": 2,
    "residues": {"H": [["1", "0"], ["0", "2"]]},
}


def _assert_breach(monkeypatch, payload, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(*argv, "--input", "-")
    doc = json.loads(out)  # exactly one JSON document
    assert code == 3 and "Traceback" not in err
    assert err == f"mcvlie: internal invariant breached: {doc['error']}\n"
    return doc["error"]


def test_star_root_with_zero_kernel_is_an_invariant_breach(monkeypatch):
    # x - 5 is no defect of this tuple: [A_1 - 5; A_2] has a zero kernel
    monkeypatch.setattr(analysis, "_star_defect", lambda mats, i, full_rank=None: Poly([-5, 1]))
    mats = [ExactMatrix(m) for m in DIAG_TUPLE["matrices"]]
    with pytest.raises(InternalInvariantError, match="c = 5 of generator 1 "):
        analysis.check_star_conditions(mats)
    assert "c = 5 of generator 1 " in _assert_breach(monkeypatch, DIAG_TUPLE, "analyze")


def test_integer_root_without_rank_drop_is_an_invariant_breach(monkeypatch):
    # a characteristic polynomial with a spurious factor x - 5
    real = exactcore.charpoly
    monkeypatch.setattr(exactcore, "charpoly", lambda a: real(a) * Poly([-5, 1]))
    with pytest.raises(InternalInvariantError, match="root 5 "):
        exactcore.integer_spectrum_hits(ExactMatrix([[1, 0], [0, 2]]), 0)
    error = _assert_breach(monkeypatch, DIAG_SYSTEM, "rh-check", "--lambda", "1/2", "--line", "1")
    assert "root 5 " in error
