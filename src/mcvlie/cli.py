"""Command-line front end: JSON in, JSON (or aligned text) out, stable
formatting, and documented exit codes (0 ok, 1 input error, 2 precondition
failure, 3 internal invariant breach)."""

from __future__ import annotations

import itertools
import json
import sys

from . import analysis, convolution, freelie, holonomy
from .arrangement import Arrangement, Line, y_closure
from .errors import InputError, MCVError, PreconditionError
from .exactcore import TOO_LARGE_TO_PRINT, int_from_json, matrix_from_json, matrix_to_json, rat
from .holonomy import PfaffianSystem


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # Python words its JSON errors differently between versions, so only
    # a missing file or undecodable text is reported in its words
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError("cannot read input: not valid JSON") from exc
    except ValueError as exc:
        raise InputError("cannot read input: a number has more digits than Python reads") from exc
    except RecursionError as exc:
        raise InputError("cannot read input: nested too deep") from exc


def _parse_line(text: str) -> Line:
    try:
        return Line.of([rat(x) for x in text.split(",")])
    except (InputError, ValueError) as exc:
        raise InputError(f"bad --line value {text!r}: {exc}") from exc


def _load_arrangement(data) -> Arrangement:
    if isinstance(data, dict) and "arrangement" in data:
        data = data["arrangement"]
    if not isinstance(data, dict) or "hyperplanes" not in data:
        raise InputError("expected an arrangement JSON object")
    return Arrangement.from_json(data)


def _load_system(data) -> PfaffianSystem:
    if not isinstance(data, dict) or "residues" not in data:
        raise InputError("expected a system JSON object with residues")
    return PfaffianSystem.from_json(data)


def _load_matrix_tuple(data):
    if isinstance(data, dict) and "residues" in data:
        system = _load_system(data)
        return [system.residue(h) for h in system.arrangement.ids()]
    if isinstance(data, dict) and "matrices" in data:
        if not isinstance(data["matrices"], list):
            raise InputError("'matrices' must be an array of matrices")
        mats = [matrix_from_json(m) for m in data["matrices"]]
        if not mats:
            raise InputError("matrix tuple is empty")
        return mats
    raise InputError("expected {'matrices': [...]} or a system JSON object")


# ---------------------------------------------------------------------------
# command bodies: return (payload, exit_code)


def _cmd_closure(args):
    arr = _load_arrangement(_load_json(args["--input"]))
    line = _parse_line(args["--line"])
    return y_closure(arr, line).to_json(), 0


def _cmd_check(args):
    system = _load_system(_load_json(args["--input"]))
    violations = holonomy.check_integrability(system)
    payload = {
        "ok": not violations,
        "violations": [
            {
                "family": list(v.family),
                "member": v.member,
                "commutator": matrix_to_json(v.commutator),
            }
            for v in violations
        ],
    }
    return payload, 0 if not violations else 2


def _cmd_presentation(args):
    arr = _load_arrangement(_load_json(args["--input"]))
    pres = holonomy.presentation(arr)
    return {
        "generators": list(pres.generators),
        "relation_families": [list(f) for f in pres.relation_families],
    }, 0


def _cmd_convolve(args):
    system = _load_system(_load_json(args["--input"]))
    conv = convolution.haraoka_convolution(
        system, _parse_line(args["--line"]), rat(args["--lambda"])
    )
    return conv.to_json(), 0


def _cmd_mc(args):
    system = _load_system(_load_json(args["--input"]))
    mid = convolution.haraoka_middle_convolution(
        system, _parse_line(args["--line"]), rat(args["--lambda"])
    )
    return mid.to_json(), 0


def _cmd_analyze(args):
    mats = _load_matrix_tuple(_load_json(args["--input"]))
    report = analysis.check_star_conditions(mats)
    return {
        "stars": report.to_json(),
        "irreducible": analysis.is_irreducible(mats),
    }, 0


def _cmd_compose_check(args):
    mats = _load_matrix_tuple(_load_json(args["--input"]))
    report = analysis.composition_harness(mats, rat(args["--lambda"]), rat(args["--mu"]))
    return report.to_json(), 0


def _cmd_rh_check(args):
    system = _load_system(_load_json(args["--input"]))
    ok, offenders = analysis.rh_hypotheses(
        system, _parse_line(args["--line"]), rat(args["--lambda"])
    )
    return {
        "pass": ok,
        "offenders": [{"where": w, "integer": m} for w, m in offenders],
    }, 0


def _cmd_freelie(args):
    try:
        n, degree = int_from_json(args["--n"]), int_from_json(args["--degree"])
    except InputError:
        raise InputError("--n and --degree take integers") from None
    if n < 2:
        raise PreconditionError("--n must be at least 2")
    if degree < 1:
        raise PreconditionError("--degree must be at least 1")
    # --degree is only validated: the relations hold in every degree
    freelie._check_caps(n, degree)
    violations = freelie.verify_braid_relations(n)
    payload = {
        "ok": not violations,
        "violations": [
            {"relation": v.relation, "word": "".join(map(str, v.word))}
            for v in violations
        ],
    }
    return payload, 0 if not violations else 3


# ---------------------------------------------------------------------------
# the command table and its argv reader

# name: (body, required words, one-line help); a word "--x" is an option
# that takes a value, any other word stands for itself
_COMMANDS = {
    "closure": (_cmd_closure, "--line --input", "Y-closure of an arrangement"),
    "check": (_cmd_check, "--input", "integrability check of a system"),
    "presentation": (_cmd_presentation, "--input", "holonomy presentation of an arrangement"),
    "convolve": (_cmd_convolve, "--lambda --line --input", "convolution of a system along a line"),
    "mc": (_cmd_mc, "--lambda --line --input", "middle convolution of a system along a line"),
    "analyze": (_cmd_analyze, "--input", "genericity conditions and irreducibility"),
    "compose-check": (_cmd_compose_check, "--lambda --mu --input", "composition-law certification"),
    "rh-check": (_cmd_rh_check, "--lambda --line --input", "integer-eigenvalue hypotheses"),
    "freelie": (_cmd_freelie, "verify --n --degree", "free Lie algebra checks"),
}


def _help(name=None):
    """The help command's body and values: the usage and help line of
    `name`, or of every command after the module's text."""
    text = "" if name else f"usage: mcvlie COMMAND ... [-h]\n\n{__doc__}\n\n"
    for n, (_, words, summary) in _COMMANDS.items():
        if name in (None, n):
            usage = " ".join(w + " " + w[2:].upper() if w[:2] == "--" else w for w in words.split())
            text += f"usage: mcvlie {n} {usage} [--format {{json,text}}] [-h]\n  {summary}\n"
    return (lambda args: ({"help": text}, 0)), {"--format": "json"}


def _read_argv(argv):
    """The body of the command that argv names and its values, keyed by
    word, with "--format" "json" unless given.  An option's value is the
    next token unless that starts with "--", or follows "=" in the same
    token; an option may be shortened to a unique prefix, and the last of
    a repeated option wins.  -h or --help reads as the help command."""
    tokens = iter(argv)
    name = next(tokens, "")
    if name not in _COMMANDS:
        if name == "-h" or len(name) > 2 and "--help".startswith(name):
            return _help()
        raise InputError(f"expected a command, one of {', '.join(_COMMANDS)}; got {name!r}")
    words = _COMMANDS[name][1].split()
    options = (*words, "--format", "--help")
    values = {"--format": "json"}
    for token in tokens:
        token = "--help" if token == "-h" else token
        if token[:2] != "--":
            if token not in words or token in values:
                raise InputError(f"unrecognized arguments: {token}")
            values[token] = token
            continue
        key, joined, value = token.partition("=")
        hits = [key] if key in options else [o for o in options if o.startswith(key)]
        if len(hits) != 1:
            raise InputError(f"unknown or ambiguous option {key}: {name} takes {' '.join(options)}")
        if hits[0] == "--help":
            return _help(name)
        if not joined:
            value = next(tokens, "--")
            if value[:2] == "--":
                raise InputError(f"argument {hits[0]}: expected one argument")
        values[hits[0]] = value
    missing = [w for w in words if w not in values]
    if missing:
        raise InputError("the following arguments are required: " + ", ".join(missing))
    if values["--format"] not in ("json", "text"):
        raise InputError(f"--format takes json or text, not {values['--format']!r}")
    return _COMMANDS[name][0], values


# ---------------------------------------------------------------------------
# rendering


def _render(payload, fmt: str) -> str:
    try:
        if fmt == "text":
            return _render_text(payload)
        return _dumps(payload)
    except ValueError as exc:  # an integer with more digits than Python prints
        raise PreconditionError(TOO_LARGE_TO_PRINT) from exc


_quoted = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(value, pad="\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, with
    `pad` the newline and indent of value's own level.  Strings, ints,
    bools, None, lists and str-keyed dicts are written here, a list of
    strings (a matrix row) in one join; every other value goes to
    json.dumps.  An int past 4300 digits raises ValueError, as there."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if not value and (kind is list or kind is dict):
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    if kind is list:
        if set(map(type, value)) == {str}:
            items = map(_quoted, value)
        else:
            items = map(_dumps, value, itertools.repeat(inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and set(map(type, value)) == {str}:
        items = (_quoted(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(
            isinstance(row, list) and row and all(isinstance(x, str) for x in row)
            for row in value
        )
    )


def _render_text(value, indent=0) -> str:
    pad = "  " * indent
    if _is_matrix(value):
        width = max(len(x) for row in value for x in row)
        return "\n".join(
            pad + "[ " + "  ".join(x.rjust(width) for x in row) + " ]" for row in value
        )
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub and not _is_scalar_list(sub):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_inline(sub)}")
        return "\n".join(lines)
    if isinstance(value, list):
        if _is_scalar_list(value):
            return pad + _inline(value)
        return "\n".join(_render_text(v, indent) for v in value)
    return pad + _inline(value)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _inline(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    if value is None:
        return "null"
    return str(value)


def main(argv=None) -> int:
    try:
        body, args = _read_argv(sys.argv[1:] if argv is None else argv)
        payload, code = body(args)
        out = _render(payload, args["--format"])
    except MCVError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        if exc.label:
            print(f"mcvlie: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
