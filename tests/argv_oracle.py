"""Reference argv parser for the tests: the argparse parser the CLI used
before its own command table, kept as an oracle for `cli._read_argv`.

`parse(argv)` returns ("ok", command, values) with the values keyed as the
reader keys them ("--lambda", "verify", "--format"), ("help", None, None),
or ("error", message, None)."""

import argparse
import functools
import re


class _Help(Exception):
    pass


class _Rejected(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" then a digit or "." starts a value, not a flag, as in Python
        # 3.13; older versions stop "--lambda -1/2" and "--line -1,1" with
        # "expected one argument"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _Rejected(message)

    def print_help(self, file=None):
        raise _Help


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="mcvlie")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *options):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("json", "text"), default="json")
        for option in options:
            p.add_argument(option, required=True)
        return p

    add("closure", "--line", "--input")
    add("check", "--input")
    add("presentation", "--input")
    add("convolve", "--lambda", "--line", "--input")
    add("mc", "--lambda", "--line", "--input")
    add("analyze", "--input")
    add("compose-check", "--lambda", "--mu", "--input")
    add("rh-check", "--lambda", "--line", "--input")
    p = add("freelie")
    p.add_argument("mode", choices=("verify",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    return parser


def parse(argv):
    try:
        namespace = vars(_parser().parse_args(argv))
    except _Help:
        return "help", None, None
    except _Rejected as exc:
        return "error", str(exc), None
    command = namespace.pop("command")
    mode = namespace.pop("mode", None)
    values = {"--" + key: value for key, value in namespace.items()}
    if mode is not None:
        values[mode] = mode
    return "ok", command, values
