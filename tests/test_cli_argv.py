"""The CLI's argv reader against the argparse parser it replaced
(`argv_oracle.py`), on a fixed corpus: every command, every order of its
options, spaced, joined and abbreviated options, negative and "-" values,
repeated options, both formats, help requests and rejected argvs.  Where
the reader deliberately answers differently, the argv is kept in CHANGED
with the reader's answer.  Also: help prints the same bytes at every
terminal width."""

import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from argv_oracle import parse
from mcvlie import cli

INPUT = str(Path(__file__).parent / "data" / "threelines.json")

COMMANDS = {
    "closure": ("--line", "--input"),
    "check": ("--input",),
    "presentation": ("--input",),
    "convolve": ("--lambda", "--line", "--input"),
    "mc": ("--lambda", "--line", "--input"),
    "analyze": ("--input",),
    "compose-check": ("--lambda", "--mu", "--input"),
    "rh-check": ("--lambda", "--line", "--input"),
    "freelie": ("verify", "--n", "--degree"),
}
SAMPLES = {
    "--lambda": ("1/2", "-1/2", "-.5", "-3"),
    "--mu": ("1/3", "-1/2", "0"),
    "--line": ("0,1", "-1,1", "-2,.5"),
    "--input": (INPUT, "-"),
    "--n": ("3", "-1", " 4"),
    "--degree": ("2", "-7"),
    "--format": ("text", "json"),
    "verify": ("verify",),
}


def _options(command):
    return (*COMMANDS[command], "--format", "--help")


def _shortest(flag, options):
    """The shortest prefix of flag that no other option starts with."""
    return next(flag[:k] for k in range(3, len(flag) + 1)
                if [o for o in options if o.startswith(flag[:k])] == [flag])


def _spell(command, flag, value, form):
    """flag and value spaced (form 0), joined (1), abbreviated and spaced
    (2) or abbreviated and joined (3)."""
    if flag[:2] != "--":
        return [flag]
    if form >= 2:
        flag = _shortest(flag, _options(command))
    return [flag, value] if form % 2 == 0 else [f"{flag}={value}"]


def _base(command):
    return [command] + [t for w in COMMANDS[command] for t in _spell(command, w, SAMPLES[w][0], 0)]


def _accepted():
    for command, words in COMMANDS.items():
        for order in itertools.chain(itertools.permutations(words),
                                     itertools.permutations(words + ("--format",))):
            for shift in range(4):
                argv = [command]
                for i, flag in enumerate(order, shift):
                    argv += _spell(command, flag, SAMPLES[flag][i % len(SAMPLES[flag])], i % 4)
                yield argv
        for flag in (*words[-2:], "--format"):
            for form in range(4):
                # a repeated option: the last one wins
                yield _base(command) + _spell(command, flag, SAMPLES[flag][-1], form)


def _help_requests():
    yield from (["-h"], ["--help"], ["--he"], ["--h"], ["-h", "mc"], ["--help", "nothing"])
    for command in COMMANDS:
        yield from ([command, "-h"], [command, "--help"], [command, "--hel"],
                    _base(command) + ["-h"], [command, "-h", "--format", "xml"])
        yield [command, "--format", "text", "--help"]


def _rejected():
    yield from ([], ["nothing"], ["MC"], ["-x"], ["--format", "json", "mc"], ["--input", INPUT],
                ["mc", "-h=x"], ["mc", "-hx"], ["--help=x"])
    for command, words in COMMANDS.items():
        base = _base(command)
        yield base + ["extra"]
        yield base + ["-"]
        yield base + ["--seed", "5"]
        yield base + ["--format", "xml"]
        yield base + ["--format=JSON"]
        yield base + ["--format"]
        yield base[:-1]  # the last option has no value
        for word in words:
            others = [t for w in words if w != word for t in _spell(command, w, SAMPLES[w][0], 0)]
            yield [command] + others
            if word[:2] == "--":
                # no value, or a flag or a dash-word in the value's place
                yield [command, word] + others
                yield [command, word, "-x"] + others
                yield [command, word, "--format", "json"] + others
        if "--line" in words and "--lambda" in words:
            yield base + ["--l", "1"]
            yield base + ["--l=1"]
    freelie = ["--n", "3", "--degree", "2"]
    yield from (["freelie", "vv", *freelie], ["freelie", "verify", "verify", *freelie],
                ["freelie", "Verify", *freelie], ["freelie", "ver", *freelie])
    for bad in ("x", "1.5", "", "0x3", "9" * 5000):
        yield ["freelie", "verify", "--n", bad, "--degree", "2"]
        yield ["freelie", "verify", "--n", "3", f"--degree={bad}"]


# argvs that argparse read differently, with the reader's exit code: 0 for
# help, 1 for an input error
CHANGED = [
    # "--" does not end the options: it is an unknown option
    (["freelie", "--n", "3", "--degree", "2", "--", "verify"], 1),
    (["mc", "--lambda", "1/2", "--line", "0,1", "--input", INPUT, "--"], 1),
    (["--", "mc", "--lambda", "1/2", "--line", "0,1", "--input", INPUT], 1),
    # a token that starts with "--" is never a value, spaces or not
    (["mc", "--lambda", "--x y", "--line", "0,1", "--input", INPUT], 1),
    # argv is read in order: a bad word before -h is an error ...
    (["mc", "--seed", "-h"], 1),
    (["mc", "extra", "-h"], 1),
    (["-x", "-h"], 1),
    (["mc", "-hh"], 1),
    # ... and a value is checked after argv is read, so -h after it wins
    (["freelie", "verify", "--n", "x", "-h"], 0),
    (["mc", "--format", "xml", "-h"], 0),
    (["mc", "--help=x"], 0),
]


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO("")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue())  # exactly one JSON document


def _read(argv):
    body, values = cli._read_argv(argv)
    return body, {k: int(v) if k in ("--n", "--degree") else v for k, v in values.items()}


def test_the_corpus_covers_every_command_and_reads_each_argv_once():
    assert set(COMMANDS) == set(cli._COMMANDS)
    corpus = [*_accepted(), *_help_requests(), *_rejected()]
    assert len(corpus) > 900
    assert not [argv for argv, _ in CHANGED if argv in corpus]


def test_reader_gives_the_oracles_command_and_values():
    count = 0
    for argv in _accepted():
        verdict, command, values = parse(argv)
        assert verdict == "ok", (argv, command)
        assert _read(argv) == (cli._COMMANDS[command][0], values), argv
        count += 1
    assert count > 700


def test_help_requests_print_one_help_document():
    for argv in _help_requests():
        assert parse(argv)[0] == "help", argv
        code, doc = _main(argv)
        assert code == 0 and list(doc) == ["help"], argv
        assert doc["help"].startswith("usage: mcvlie")


def test_rejected_argvs_exit_1_with_one_error_document():
    for argv in _rejected():
        assert parse(argv)[0] == "error", argv
        code, doc = _main(argv)
        assert code == 1 and list(doc) == ["error"], argv


@pytest.mark.parametrize("argv, code", CHANGED)
def test_changed_argvs_keep_the_readers_answer(argv, code):
    got, doc = _main(argv)
    assert (got, list(doc)) == (code, ["help" if code == 0 else "error"])


def test_values_after_an_option_are_read_as_given():
    # "-" alone is stdin, a leading "-" and a digit or "." a number, and any
    # other token that does not start with "--" a value too
    for value in ("-", "-1/2", "-.5", "-1,1", "-x", "-h", "", "a b"):
        body, values = cli._read_argv(["mc", "--lambda", value, "--line=0,1", "--input", INPUT])
        assert body is cli._COMMANDS["mc"][0] and values["--lambda"] == value


@pytest.mark.parametrize("argv", [["--help"], ["mc", "-h"], ["freelie", "--help"]])
def test_help_does_not_depend_on_the_terminal_width(monkeypatch, argv):
    outputs = set()
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        outputs.add(out.getvalue())
    assert len(outputs) == 1
