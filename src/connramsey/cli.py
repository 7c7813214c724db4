"""Command line surface: generate, decide, search thresholds, verify.

`verify` runs the independent verifier of `connramsey.verify`, which
rechecks hc connectivity by counting disjoint paths pair by pair, in time
polynomial in the certificate, and shares no code with the deciders.

Exit codes: 0 when the queried relation holds or the certificate is
valid, 1 when it fails or the certificate is rejected, 2 for usage, file,
or parameter problems.  Standard output is one JSON document per
invocation (byte-identical across identical invocations); diagnostics go
to standard error.  A search deeper than the interpreter's stack or an
input larger than memory is such a problem too: exit 2, not 1.

Input files are read as UTF-8 with universal newlines, as text mode reads
them: CRLF and lone CR become LF, and a byte order mark is kept (and so
rejected by the readers).  Each file is read in one unbuffered call and
decoded whole.

Arguments are read in one pass when they come in the plain form: the
command (and the kind, for `gen`), then exact option strings, each
followed by one value that does not start with `-`, and the positionals
in order.  Each value is converted with its option's declared type and
checked against its choices, as argparse does.  Every other argument
list goes to argparse: `-h`, `--opt=value`, abbreviations, `--`, values
starting with `-`, unknown, extra or missing arguments, and values that
fail their type or choices.  So every help text and usage error is
argparse's.  The grammar is declared once, as data in COMMANDS: the
one-pass reader works from it, and build_parser builds argparse from it
only when an argument list needs argparse, so a plain list neither
imports nor builds argparse.
"""

from __future__ import annotations

import functools
import sys
import types

from .arrows import ResourceCapExceeded, decide, ramsey_number
from .connectivity import kappa_connected_mask, read_graph
from .core import (
    Palette,
    RelationQuery,
    certificate_from_json,
    certificate_to_json,
    constant_coloring,
    encode_json,
    read_coloring,
    write_coloring,
)
from .verify import verify_certificate
from .wellconn import is_wc_set


def _emit(payload: dict) -> None:
    sys.stdout.write(encode_json(payload) + "\n")


def _read_text(path: str) -> str:
    """The file's text as text mode reads it: UTF-8, with universal
    newlines.  The bytes are read unbuffered in one call and decoded
    whole; CRLF and lone CR are folded to LF only when a CR is present."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _int_list(text: str) -> list[int]:
    if text == "":
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def cmd_gen(args) -> int:
    # Only gen loads the generators, and only gen csystem the ordinal
    # sampler, so no other command pays for importing them.
    from .generators import delta_coloring, hub_coloring, random_coloring

    meta: dict = {"kind": args.kind, "out": args.out}
    if args.kind == "delta":
        col = delta_coloring(args.len)
        meta["len"] = args.len
    elif args.kind == "constant":
        col = constant_coloring(args.n, args.color, args.colors)
        meta["color"] = args.color
    elif args.kind == "random":
        col = random_coloring(args.n, args.colors, args.seed)
        meta["seed"] = args.seed
    elif args.kind == "hub":
        col = hub_coloring(args.n0, args.n1)
        meta["n0"], meta["n1"] = args.n0, args.n1
    else:  # csystem
        from .ordinals import coloring_from_csystem, ord_print, sample_universe

        universe = sample_universe(args.dim, args.coeff_max, args.size, args.seed)
        col = coloring_from_csystem(universe)
        meta["seed"] = args.seed
        meta["dim"] = args.dim
        meta["universe"] = [ord_print(x) for x in universe]
    _write_text(args.out, write_coloring(col))
    meta["n"] = col.n
    meta["lambda"] = col.lam
    _emit(meta)
    return 0


def cmd_decide(args) -> int:
    coloring = read_coloring(_read_text(args.coloring))
    query = RelationQuery(args.mode, args.m, args.palette_size, args.j)
    outcome = decide(coloring, query)
    if outcome.holds:
        sys.stdout.write(certificate_to_json(outcome.certificate))
        return 0
    _emit(
        {
            "verdict": "fails",
            "mode": args.mode,
            "m": args.m,
            "palette_size": args.palette_size,
            "exhausted_palettes": [list(p) for p in outcome.exhausted_palettes],
        }
    )
    return 1


def cmd_ramsey(args) -> int:
    result = ramsey_number(
        args.mode,
        args.m,
        args.colors,
        args.palette_size,
        args.max_n,
        j=args.j,
        time_limit=args.time_limit,
    )
    _emit({"threshold": result.threshold, "extremal": write_coloring(result.extremal)})
    return 0 if result.threshold is not None else 1


def cmd_verify(args) -> int:
    cert = certificate_from_json(_read_text(args.certificate))
    coloring = read_coloring(_read_text(args.coloring))
    violation = verify_certificate(cert, coloring)
    if violation is None:
        _emit({"valid": True})
        return 0
    _emit({"valid": False, "violation": violation})
    return 1


def cmd_check_conn(args) -> int:
    adj = read_graph(_read_text(args.graph))
    ok = kappa_connected_mask((1 << len(adj)) - 1, adj, args.kappa)
    _emit({"n": len(adj), "kappa": args.kappa, "kappa_connected": ok})
    return 0 if ok else 1


def cmd_check_wc(args) -> int:
    coloring = read_coloring(_read_text(args.coloring))
    vertex_set = _int_list(args.set)
    palette = Palette(frozenset(_int_list(args.palette)))
    cert = is_wc_set(coloring, vertex_set, palette)
    if cert is not None:
        sys.stdout.write(certificate_to_json(cert))
        return 0
    _emit({"verdict": "fails", "set": sorted(set(vertex_set)), "palette": sorted(palette.members)})
    return 1


# Each command path: the help its parent lists it with, the function that
# runs it, and its arguments as add_argument keywords by name, in the
# order the help lists them.  build_parser builds argparse from this
# table and _read_plain reads plain argument lists with it, so the
# grammar is declared once.  A path of two words is a kind of the group
# that its first word names in _GROUPS.
_INT = {"type": int, "required": True}
_MODE = {"choices": ("classical", "hc", "wc"), "required": True}
_SEED = {"type": int, "default": 0}
_OUT = {"--out": {"required": True, "help": "coloring file to write"}}
COMMANDS = {
    ("gen", "random"): (
        "seeded uniform coloring", cmd_gen, {"--n": _INT, "--colors": _INT, "--seed": _SEED, **_OUT}
    ),
    ("gen", "constant"): (
        "one color everywhere", cmd_gen, {"--n": _INT, "--color": _INT, "--colors": _INT, **_OUT}
    ),
    ("gen", "delta"): ("first-difference coloring on bit strings", cmd_gen, {"--len": _INT, **_OUT}),
    ("gen", "hub"): (
        "two interleaved classes, crossing color 0", cmd_gen, {"--n0": _INT, "--n1": _INT, **_OUT}
    ),
    ("gen", "csystem"): ("derived coloring of sampled limit ordinals", cmd_gen, {
        "--dim": {**_INT, "help": "largest omega-exponent sampled"},
        "--coeff-max": _INT, "--size": _INT, "--seed": _SEED, **_OUT,
    }),
    ("decide",): ("decide a relation on a coloring file", cmd_decide, {
        "coloring": {}, "--mode": _MODE, "--m": _INT, "--palette-size": _INT,
        "--j": {"type": int, "help": "hc connectivity demand, default m"},
    }),
    ("ramsey",): ("least n making the relation hold for every coloring", cmd_ramsey, {
        "--mode": _MODE, "--m": _INT, "--colors": _INT, "--palette-size": _INT, "--j": {"type": int},
        "--max-n": _INT, "--time-limit": {"type": float, "help": "seconds before aborting"},
    }),
    ("verify",): ("independently re-validate a certificate", cmd_verify, {"certificate": {}, "coloring": {}}),
    ("check-conn",): ("kappa-connectedness of a graph file", cmd_check_conn, {"graph": {}, "--kappa": _INT}),
    ("check-wc",): ("is a vertex set well-connected in a palette", cmd_check_wc, {
        "coloring": {},
        "--set": {"required": True, "help": "comma-separated vertices"},
        "--palette": {"required": True, "help": "comma-separated colors"},
    }),
}
_GROUPS = {("gen",): "generate a coloring file"}
_WORDS = ("command", "kind")  # the namespace names of a path's words


@functools.cache
def build_parser():
    """The CLI's argparse parser, built from COMMANDS on first use and
    shared by every later call.

    Parsing leaves no state on the parser: each parse fills a fresh
    namespace from the declared defaults, and help width is read from the
    terminal when the help is printed.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="connramsey",
        description="Decide and certify finite highly/well-connected partition relations.",
    )
    subparsers = {(): parser.add_subparsers(dest=_WORDS[0], required=True)}
    for path, (summary, _, arguments) in COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            sub = subparsers[()].add_parser(group[0], help=_GROUPS[group])
            subparsers[group] = sub.add_subparsers(dest=_WORDS[1], required=True)
        leaf = subparsers[group].add_parser(path[-1], help=summary)
        for name, keywords in arguments.items():
            leaf.add_argument(name, **keywords)
    return parser


@functools.cache
def _plain_form(path: tuple) -> tuple:
    """(defaults, options, positionals, required) of a command path: the
    values its namespace starts from, (dest, type, choices) of its options
    by option string and of its positionals in order, and the dests that
    argparse requires."""
    defaults = dict(zip(_WORDS, path))
    options, positionals, required = {}, [], set()
    for name, keywords in COMMANDS[path][2].items():
        dest = name.lstrip("-").replace("-", "_")
        defaults[dest] = keywords.get("default")
        spec = (dest, keywords.get("type"), keywords.get("choices"))
        if name.startswith("-"):
            options[name] = spec
            if keywords.get("required"):
                required.add(dest)
        else:
            positionals.append(spec)
            required.add(dest)
    return defaults, options, positionals, required


def _read_plain(argv) -> types.SimpleNamespace | None:
    """The namespace parse_args would return for an argument list in the
    plain form, or None for any other list, which argparse then parses."""
    for words in (1, 2):
        path = tuple(argv[:words])
        if path in COMMANDS:
            break
    else:
        return None
    defaults, options, positionals, required = _plain_form(path)
    values = dict(defaults)
    given = set()
    pending = iter(positionals)
    i = words
    while i < len(argv):
        if argv[i].startswith("-"):
            spec = options.get(argv[i])
            i += 1
            if spec is None or i == len(argv) or argv[i].startswith("-"):
                return None
        else:
            spec = next(pending, None)
            if spec is None:
                return None
        dest, convert, choices = spec
        try:
            value = argv[i] if convert is None else convert(argv[i])
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
        i += 1
    if not required <= given:
        return None
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    _, handler, _ = COMMANDS[tuple(getattr(args, word) for word in _WORDS if hasattr(args, word))]
    try:
        return handler(args)
    except (ResourceCapExceeded, OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # A search deeper than the interpreter's stack or an input larger
        # than memory decides nothing, so it must not read as exit 1.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
