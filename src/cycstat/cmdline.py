"""cycstat's command line: the usage block, each command's options, and
the reader of an argv, which reads it as the argparse parser of earlier
versions did.

That is: unique prefixes of long options, --opt=value and -d2, short
switches run together (-hd 2), options on either side of EXPR, the first --
and what follows it, negative numbers, a lone - and arguments with a space
as EXPR, help, and each usage error with argparse's message.  cli loads this
module as a command starts, so importing cycstat.cli does not compile it.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from .errors import MalformedInputError

USAGE = """\
cycstat moment EXPR [-d D] [--variance] [--lambda a,b,c] [--json]
cycstat limit  EXPR (--mean | --variance) [--json]
cycstat verify EXPR [--nmax N] [-d D] [--json]
cycstat expand EXPR [--json]
common flags: --cache PATH (JSON disk cache for indicator polynomials)
"""

# Each command's options: flag -> (field, kind, default), kind int, str or
# bool (a switch); help has no field, and before the command it is the one
# option.  The common ones come first, in the order argparse listed the
# matches of an ambiguous prefix.
_TOP = {"-h": (None, bool, None), "--help": (None, bool, None)}
_COMMON = {**_TOP, "--json": ("json", bool, False), "--cache": ("cache", str, None)}
OPTIONS = {
    "moment": {**_COMMON, "-d": ("d", int, 1), "--lambda": ("lam", str, None),
               "--variance": ("variance", bool, False)},
    "limit": {**_COMMON, "--mean": ("mean", bool, False), "--variance": ("variance", bool, False)},
    "verify": {**_COMMON, "--nmax": ("nmax", int, 6), "-d": ("d", int, 1)},
    "expand": _COMMON,
}


def ascii_int(text: str) -> int:
    """text read as [+-]?[0-9]+, the digits of the expression grammar; a
    ValueError otherwise, or for more digits than int reads."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


# limit takes exactly one of --mean and --variance
_OTHER = {"--mean": "--variance", "--variance": "--mean"}


def _read(options: dict, arg: str):
    """What argparse made of arg: "A" for a positional, else (flag, the value
    attached to it or None), the flag None for an unknown option.  Negative
    numbers, a lone - and anything with a space are positional."""
    if arg[:1] != "-" or arg == "-":
        return "A"
    if arg in options:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    if arg[1] == "-":  # a unique prefix of a long option
        found = [(f, value if eq else None) for f in options if f.startswith(name)]
    else:  # a short option with its value attached, as -d2
        found = [(arg[:2], arg[2:])] if arg[:2] in options else []
    if len(found) > 1:
        matches = ", ".join(f for f, _ in found)
        raise MalformedInputError(f"ambiguous option: {arg} could match {matches}")
    if found:
        return found[0]
    return "A" if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def _error(flag: str, message: str) -> MalformedInputError:
    return MalformedInputError(f"argument {'-h/--help' if flag in _TOP else flag}: {message}")


def parse_args(argv: list):
    """The fields of argv, the last of a repeated option winning, and its
    numbers ASCII digits; None asks for help, and a usage error is a
    MalformedInputError with argparse's message."""
    # kinds: "A" a positional, "-" the command's first --, else _read's
    # (flag, value); each is read again once the command is known
    options, fields, seen, extras, i = _TOP, None, set(), [], 0
    kinds = ["A" if arg == "--" else _read(_TOP, arg) for arg in argv]
    while i < len(argv):
        if fields is None and kinds[i] == "A":  # the command, or a -- before it
            if argv[i:] == ["--"]:
                break
            if argv[i] not in OPTIONS:
                choices = ", ".join(map(repr, OPTIONS))
                raise MalformedInputError(
                    f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
            options = OPTIONS[argv[i]]
            fields = {"command": argv[i], "expr": None}
            fields.update((field, default) for field, _, default in options.values() if field)
            for k in range(i + 1, len(argv)):
                kinds[k] = ("A" if "-" in kinds[i + 1:k] else "-" if argv[k] == "--"
                            else _read(options, argv[k]))
            i += 1
        elif kinds[i] in ("A", "-"):
            # EXPR is the first positional, with a -- before or after it
            j = i + (kinds[i] == "-")
            if "expr" in seen or kinds[j:j + 1] != ["A"]:
                extras.append(argv[i])
                i += 1
            else:
                fields["expr"], i = argv[j], j + 1 + (kinds[j + 1:j + 2] == ["-"])
                seen.add("expr")
        elif kinds[i][0] is None:
            extras.append(argv[i])
            i += 1
        else:
            (flag, value), taken = kinds[i], []
            while options[flag][1] is bool and value is not None:  # -hd 2 is -h -d 2
                if flag[1] == "-" or not value or "-" + value[0] not in options:
                    raise _error(flag, f"ignored explicit argument {value!r}")
                taken.append((flag, True))
                flag, value = "-" + value[0], value[1:] or None
            if value is None and options[flag][1] is not bool:
                if kinds[i + 1:i + 2] != ["A"]:  # a -- is no option's value
                    raise _error(flag, "expected one argument")
                i, value = i + 1, argv[i + 1]
            i += 1
            for flag, value in taken + [(flag, True if value is None else value)]:
                field, kind, _ = options[flag]
                if field is None:
                    return None
                if _OTHER.get(flag) in seen:
                    raise _error(flag, f"not allowed with argument {_OTHER[flag]}")
                seen.add(flag)
                if kind is int:
                    try:
                        value = ascii_int(value)
                    except ValueError:
                        raise _error(flag, f"invalid int value: {value!r}") from None
                fields[field] = value
    if fields is None:
        raise MalformedInputError("the following arguments are required: command")
    if "expr" not in seen:
        raise MalformedInputError("the following arguments are required: expr")
    if fields["command"] == "limit" and not seen & _OTHER.keys():
        raise MalformedInputError("one of the arguments --mean --variance is required")
    if extras:
        raise MalformedInputError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**fields)
