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
argparse's.  The grammar is declared once, in build_parser, and the
one-pass reader works from a table read off that parser.
"""

from __future__ import annotations

import argparse
import functools
import sys

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    Parsing leaves no state on the parser: each parse fills a fresh
    namespace from the declared defaults, and help width is read from the
    terminal when the help is printed.
    """
    parser = argparse.ArgumentParser(
        prog="connramsey",
        description="Decide and certify finite highly/well-connected partition relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a coloring file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_random = gen_sub.add_parser("random", help="seeded uniform coloring")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--colors", type=int, required=True)
    g_random.add_argument("--seed", type=int, default=0)
    g_constant = gen_sub.add_parser("constant", help="one color everywhere")
    g_constant.add_argument("--n", type=int, required=True)
    g_constant.add_argument("--color", type=int, required=True)
    g_constant.add_argument("--colors", type=int, required=True)
    g_delta = gen_sub.add_parser("delta", help="first-difference coloring on bit strings")
    g_delta.add_argument("--len", type=int, required=True)
    g_hub = gen_sub.add_parser("hub", help="two interleaved classes, crossing color 0")
    g_hub.add_argument("--n0", type=int, required=True)
    g_hub.add_argument("--n1", type=int, required=True)
    g_csystem = gen_sub.add_parser("csystem", help="derived coloring of sampled limit ordinals")
    g_csystem.add_argument("--dim", type=int, required=True, help="largest omega-exponent sampled")
    g_csystem.add_argument("--coeff-max", type=int, required=True)
    g_csystem.add_argument("--size", type=int, required=True)
    g_csystem.add_argument("--seed", type=int, default=0)
    for p in (g_random, g_constant, g_delta, g_hub, g_csystem):
        p.add_argument("--out", required=True, help="coloring file to write")
    gen.set_defaults(func=cmd_gen)

    dec = sub.add_parser("decide", help="decide a relation on a coloring file")
    dec.add_argument("coloring")
    dec.add_argument("--mode", choices=("classical", "hc", "wc"), required=True)
    dec.add_argument("--m", type=int, required=True)
    dec.add_argument("--palette-size", type=int, required=True)
    dec.add_argument("--j", type=int, default=None, help="hc connectivity demand, default m")
    dec.set_defaults(func=cmd_decide)

    ram = sub.add_parser("ramsey", help="least n making the relation hold for every coloring")
    ram.add_argument("--mode", choices=("classical", "hc", "wc"), required=True)
    ram.add_argument("--m", type=int, required=True)
    ram.add_argument("--colors", type=int, required=True)
    ram.add_argument("--palette-size", type=int, required=True)
    ram.add_argument("--j", type=int, default=None)
    ram.add_argument("--max-n", type=int, required=True)
    ram.add_argument("--time-limit", type=float, default=None, help="seconds before aborting")
    ram.set_defaults(func=cmd_ramsey)

    ver = sub.add_parser("verify", help="independently re-validate a certificate")
    ver.add_argument("certificate")
    ver.add_argument("coloring")
    ver.set_defaults(func=cmd_verify)

    conn = sub.add_parser("check-conn", help="kappa-connectedness of a graph file")
    conn.add_argument("graph")
    conn.add_argument("--kappa", type=int, required=True)
    conn.set_defaults(func=cmd_check_conn)

    cwc = sub.add_parser("check-wc", help="is a vertex set well-connected in a palette")
    cwc.add_argument("coloring")
    cwc.add_argument("--set", required=True, help="comma-separated vertices")
    cwc.add_argument("--palette", required=True, help="comma-separated colors")
    cwc.set_defaults(func=cmd_check_wc)

    return parser


@functools.cache
def _form(parser: argparse.ArgumentParser) -> tuple:
    """(defaults, options, positionals, required, subcommands) of a parser:
    the values its namespace starts from, its single-value store options
    by option string, its single-value positionals in order, the dests
    argparse requires, and (dest, forms by name) of its subcommands."""
    defaults = dict(parser._defaults)
    options, positionals, subcommands = {}, [], None
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if isinstance(action, argparse._SubParsersAction):
            subcommands = (action.dest, {name: _form(p) for name, p in action.choices.items()})
        elif type(action) is argparse._StoreAction and action.nargs is None:
            if not action.option_strings:
                positionals.append(action)
            for opt in action.option_strings:
                options[opt] = action
    required = {action.dest for action in parser._actions if action.required}
    return defaults, options, positionals, required, subcommands


def _read_plain(argv) -> argparse.Namespace | None:
    """The namespace parse_args would return for an argument list in the
    plain form, or None for any other list, which argparse then parses."""
    defaults, options, positionals, required, subcommands = _form(build_parser())
    values = dict(defaults)
    i = 0
    while subcommands is not None:
        dest, forms = subcommands
        if i == len(argv) or argv[i] not in forms:
            return None
        values[dest] = argv[i]
        defaults, options, positionals, required, subcommands = forms[argv[i]]
        values.update(defaults)
        i += 1
    given = set()
    pending = iter(positionals)
    while i < len(argv):
        if argv[i].startswith("-"):
            action = options.get(argv[i])
            i += 1
            if action is None or i == len(argv) or argv[i].startswith("-"):
                return None
        else:
            action = next(pending, None)
            if action is None:
                return None
        try:
            value = argv[i] if action.type is None else action.type(argv[i])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        given.add(action.dest)
        i += 1
    if not required <= given:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
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
