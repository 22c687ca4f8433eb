"""Command line front end.

Every subcommand prints a text document by default; --format json emits a
machine-readable equivalent and --format dot a Hasse diagram (decomposition
commands only).  Output has one path: each handler computes its result and
hands ``_emit`` a lazy view per format, and ``_emit`` builds and prints only
the requested one, none under --quiet, text and dot a line at a time and
JSON in batches of list elements.  A subcommand that enumerates takes
--ceiling, defaulting to the library's own ceiling for that enumeration,
or for the partition family's dot output the dot writer's lower one.
Exit codes: 0 success, 1 a verification reported failures, 2 usage errors,
malformed literals, or ceiling refusals, 141 the reader closed standard
output before the document was written (128 + SIGPIPE, as a shell reports
a tool that signal killed).
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .subsets import (
    DEFAULT_CODE_SUM_CEILING,
    DEFAULT_DOT_CEILING,
    DEFAULT_ENUM_CEILING,
    DEFAULT_PARTITION_CEILING,
    DEFAULT_STIRLING_CEILING,
    Subset,
    match_parens,
    word_of,
)

if TYPE_CHECKING:
    from .reports import VerificationReport

# Every command is a fresh process, so each handler imports the layer it
# runs, and the parser is built from the ceilings in ``subsets`` alone:
# ``word`` loads no other module of the package.  A --method names its
# function, looked up in its layer when the command runs.
_BOOLEAN_METHODS = {
    "gk": "gk_decomposition",
    "debruijn": "debruijn_decomposition",
    "product": "iterated_product_scd",
}


def _emit(args: argparse.Namespace, **views: Callable[[], Any]) -> None:
    """Print the view for ``args.format``, and nothing under --quiet.

    Each view is a zero-argument callable, and only the requested one is
    called: ``json`` returns the document, ``text`` and ``dot`` an iterable
    of lines, printed one at a time so a long listing is never held whole.
    A line that is not a string is an iterable of its pieces, written in
    turn, so one long line is not held whole either.
    """
    if args.quiet:
        return
    # From Python 3.10.7 on, str() refuses an int of over 4,300 digits, a
    # guard against slow parsing of input.  Exact results outgrow it, so it
    # is lifted only while the output is written, and input keeps it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        view = views[args.format]()
        if args.format == "json":
            sys.stdout.writelines(_json_chunks(view))
            print()
        else:
            for line in view:
                if isinstance(line, str):
                    print(line)
                else:
                    sys.stdout.writelines(line)
                    print()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)`` in pieces.  A top-level
    value that is a list, a tuple or an iterator is written a batch of
    elements at a time, so a document whose long lists are iterators (a
    decomposition's chains, say) is never held whole, as objects or as one
    string."""
    import json

    encode = json.JSONEncoder(indent=2).encode
    last = len(doc) - 1
    yield "{"
    for k, (key, value) in enumerate(doc.items()):
        yield f"\n  {encode(key)}: "
        if isinstance(value, (list, tuple, Iterator)):
            # A batch encodes as "[\n  row,\n  row\n]": its inside, one
            # level deeper, is that stretch of the list.
            rows, head = iter(value), "[\n"
            for batch in iter(lambda: list(itertools.islice(rows, 1024)), []):
                yield head + "  " + encode(batch)[2:-2].replace("\n", "\n  ")
                head = ",\n"
            yield "[]" if head == "[\n" else "\n  ]"
        else:
            yield encode(value).replace("\n", "\n  ")
        if k < last:
            yield ","
    yield "\n}"


def _report_out(args: argparse.Namespace, rep: VerificationReport, extra: dict) -> int:
    def text() -> Iterator[str]:
        yield f"ok: {'yes' if rep.ok else 'no'}"
        yield f"elements: {rep.element_count}"
        yield f"chains: {rep.chain_count}"
        for key, value in extra.items():
            if key not in ("n", "m"):
                yield f"{key}: {value}"
        for kind, witness in rep.failures:
            yield f"fail {kind}: {witness}"

    _emit(args, json=lambda: {**extra, **rep.to_json()}, text=text)
    return 0 if rep.ok else 1


def _cmd_word(args: argparse.Namespace) -> int:
    s = Subset.from_literal(args.n, args.set)
    word = word_of(s)
    ms = match_parens(word)
    _emit(args, json=lambda: {
        "n": s.n,
        "set": list(s.elements),
        "word": word,
        "matched_pairs": [list(p) for p in ms.matched_pairs],
        "unmatched_rights": list(ms.unmatched_rights),
        "unmatched_lefts": list(ms.unmatched_lefts),
    }, text=lambda: [
        word,
        "matched: " + " ".join(f"({a},{b})" for a, b in ms.matched_pairs),
        "unmatched-right: " + " ".join(str(p) for p in ms.unmatched_rights),
        "unmatched-left: " + " ".join(str(p) for p in ms.unmatched_lefts),
    ])
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from .boolean import chain_of

    s = Subset.from_literal(args.n, args.set)
    chain = chain_of(s)
    _emit(args, json=lambda: {"n": s.n, "chain": [list(t.elements) for t in chain.sets]},
          text=lambda: (t.literal() for t in chain.sets))
    return 0


def _cmd_decompose_boolean(args: argparse.Namespace) -> int:
    from . import boolean

    d = getattr(boolean, _BOOLEAN_METHODS[args.method])(args.n, ceiling=args.ceiling)
    _emit(args, json=lambda: boolean._json_view(d), dot=lambda: boolean._dot_lines(d),
          text=lambda: (" < ".join(map(boolean._literal, chain)) for chain in d.chains.runs()))
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    from .coding import encode

    s = Subset.from_literal(args.n, args.set)
    code = encode(s)
    # Built before any view, so --compact on a code with no compact form is
    # refused in every format and under --quiet alike.
    line = code.compact() if args.compact else code.literal()

    def doc() -> dict:
        doc = {"n": s.n, "set": list(s.elements), "entries": list(code.entries)}
        if all(e <= 9 for e in code.entries):
            doc["compact"] = code.compact()
        return doc

    _emit(args, json=doc, text=lambda: [line])
    return 0


def _cmd_class(args: argparse.Namespace) -> int:
    from .coding import encode
    from .partitions import enumerate_class

    s = Subset.from_literal(args.n, args.set)
    members = enumerate_class(s, ceiling=args.ceiling)
    _emit(args, json=lambda: {
        "n": s.n,
        "set": list(s.elements),
        "code": list(encode(s).entries),
        "type": [len(b) for b in members[0].blocks] if members else [],
        "partitions": [[list(block) for block in p.blocks] for p in members],
    }, text=lambda: (p.literal() for p in members))
    return 0


def _cmd_decompose_partition(args: argparse.Namespace) -> int:
    from . import partitions

    # The dot writer holds every node, so its default ceiling is lower.
    default = DEFAULT_DOT_CEILING if args.format == "dot" else DEFAULT_PARTITION_CEILING
    fam = partitions.build_partition_chains(args.n, ceiling=default if args.ceiling is None else args.ceiling)

    def text() -> Iterator[str | Iterator[str]]:
        for chain in partitions._chain_blocks(fam.chains):
            yield " < ".join(map(partitions._literal, chain))
        literals = map(partitions._literal, partitions._excluded_blocks(fam.excluded))
        yield itertools.chain(["excluded: " + next(literals, "")], map(" ".__add__, literals))

    _emit(args, json=lambda: partitions._json_view(fam), dot=lambda: partitions._dot_lines(fam),
          text=text)
    return 0


def _cmd_verify_boolean(args: argparse.Namespace) -> int:
    from . import boolean

    d = getattr(boolean, _BOOLEAN_METHODS[args.method])(args.n, ceiling=args.ceiling)
    rep = boolean.verify_scd(d, ceiling=args.ceiling)
    return _report_out(args, rep, {"n": args.n, "method": args.method})


def _cmd_verify_partition(args: argparse.Namespace) -> int:
    from . import partitions

    fam = partitions.build_partition_chains(args.n, ceiling=args.ceiling)
    rep = partitions.verify_partition_chains(fam, ceiling=args.ceiling)
    return _report_out(args, rep, {"n": args.n, "excluded": len(fam.excluded)})


_BELL_METHODS = {
    "codes": ("bell_via_codes", DEFAULT_CODE_SUM_CEILING),
    "oracle": ("bell_oracle", DEFAULT_STIRLING_CEILING),
}


def _cmd_bell(args: argparse.Namespace) -> int:
    from . import identities

    name, default = _BELL_METHODS[args.method]
    value = getattr(identities, name)(args.n, ceiling=default if args.ceiling is None else args.ceiling)
    _emit(args, json=lambda: {"n": args.n, "method": args.method, "value": value},
          text=lambda: [str(value)])
    return 0


def _cmd_stirling(args: argparse.Namespace) -> int:
    from . import identities

    row = identities._stirling_row(args.n, args.ceiling)
    _emit(args, json=lambda: {"n": args.n, "row": list(row)},
          text=lambda: [" ".join(str(v) for v in row)])
    return 0


def _cmd_stirling_check(args: argparse.Namespace) -> int:
    from . import identities

    if args.n < 0:
        raise ValueError("n must be nonnegative")
    rows = [(n, identities._monotone_report(row), identities._symmetry_audit(row))
            for n, row in enumerate(identities._stirling_rows(args.n, args.ceiling))]
    monotone_failures = [f for _, rep, _ in rows for f in rep.failures]
    plain = [(n, *c) for n, _, audit in rows for c in audit.reflection_counterexamples]
    shifted = [(n, *c) for n, _, audit in rows for c in audit.shifted_counterexamples]
    ok = not monotone_failures and not shifted

    def text() -> Iterator[str]:
        yield f"monotone: {'ok' if not monotone_failures else 'FAIL'} (n <= {args.n})"
        for _, witness in monotone_failures:
            yield f"  {witness}"
        for label, shift, found in (("reflection k -> n-k", 0, plain),
                                    ("shifted reflection k -> n-k+1", 1, shifted)):
            if not found:
                yield f"{label}: ok (n <= {args.n})"
                continue
            yield f"{label}: {len(found)} counterexamples"
            for n, k, lhs, rhs in found:
                yield f"  S({n},{k})={lhs} < S({n},{n - k + shift})={rhs}"

    _emit(args, json=lambda: {
        "max_n": args.n,
        "monotone_ok": not monotone_failures,
        "monotone_failures": [list(f) for f in monotone_failures],
        "reflection_ok": not plain,
        "reflection_counterexamples": [list(c) for c in plain],
        "shifted_reflection_ok": not shifted,
        "shifted_reflection_counterexamples": [list(c) for c in shifted],
    }, text=text)
    return 0 if ok else 1


def _cmd_symfun(args: argparse.Namespace) -> int:
    from . import identities

    poly = identities.complete_from_elementary(args.n, ceiling=args.ceiling)
    agreement = None
    if args.check:
        agreement = poly == identities.complete_from_elementary_oracle(args.n)

    def doc() -> dict:
        doc = {
            "n": args.n,
            "expansion": str(poly),
            "terms": [{"monomial": list(mono), "coefficient": coeff}
                      for mono, coeff in sorted(poly.terms.items())],
        }
        if agreement is not None:
            doc["oracle_match"] = agreement
        return doc

    def text() -> Iterator[str]:
        yield str(poly)
        if agreement is not None:
            yield f"oracle agreement: {'ok' if agreement else 'FAIL'}"

    _emit(args, json=doc, text=text)
    return 0 if agreement in (None, True) else 1


def _cmd_derivative_check(args: argparse.Namespace) -> int:
    from . import identities

    if args.n < 0:
        raise ValueError("n must be nonnegative")
    order = args.n
    # Highest order first, so an order past the ceiling is refused before
    # any code sum runs.
    orders = range(order, -1, -1)
    bell = identities.exp_minus_one_series(max(order, 1))
    bell_values = []
    bell_ok = True
    for k in orders:
        formula = identities.derivative_formula(bell, k, ceiling=args.ceiling)
        oracle = identities.derivative_oracle(bell, k)
        bell_values.append(oracle)
        if formula != oracle or oracle != identities.bell_oracle(k):
            bell_ok = False
    bell_values.reverse()
    seeded_ok = True
    for seed in identities.SERIES_SEEDS:
        g = identities.seeded_rational_series(seed, max(order, 1))
        for k in orders:
            formula = identities.derivative_formula(g, k, ceiling=args.ceiling)
            if formula != identities.derivative_oracle(g, k):
                seeded_ok = False
    seeds = identities.SERIES_SEEDS
    _emit(args, json=lambda: {
        "max_order": order,
        "bell_values": [int(v) for v in bell_values],
        "bell_ok": bell_ok,
        "seeds": list(seeds),
        "seeded_ok": seeded_ok,
    }, text=lambda: [
        "bell: " + " ".join(str(v) for v in bell_values),
        f"bell agreement: {'ok' if bell_ok else 'FAIL'}",
        f"seeded agreement: {'ok' if seeded_ok else 'FAIL'} (seeds {' '.join(map(str, seeds))})",
    ])
    return 0 if bell_ok and seeded_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symchains",
                                     description="Symmetric chain decompositions of the "
                                                 "subset and partition lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, dot: bool = False, ceiling: int | None = None):
        """A subcommand taking n and only the flags it uses: dot output for the
        decompositions, --ceiling for the commands that enumerate."""
        p = sub.add_parser(name, help=help_text)
        # No option starts with a digit, so a token such as -2,1 is a value
        # (a set literal, left to Subset.from_literal), never an option.
        p._negative_number_matcher = re.compile(r"-\d")
        p.set_defaults(handler=handler)
        p.add_argument("n", type=int)
        p.add_argument("--format", "-f", choices=("text", "json", "dot") if dot else ("text", "json"),
                       default="text", help="output format")
        if ceiling is not None:
            p.add_argument("--ceiling", type=int, default=ceiling, metavar="K",
                           help="enumeration size ceiling (default %(default)s)")
        p.add_argument("--quiet", "-q", action="store_true",
                       help="suppress output, keep exit codes")
        return p

    add("word", _cmd_word, "parenthesis word and matching of a subset").add_argument("set")

    add("chain", _cmd_chain, "the chain through a subset").add_argument("set")

    p = add("decompose-boolean", _cmd_decompose_boolean, "decompose the subset lattice",
            dot=True, ceiling=DEFAULT_ENUM_CEILING)
    p.add_argument("--method", choices=sorted(_BOOLEAN_METHODS), default="gk")

    p = add("code", _cmd_code, "code of a subset")
    p.add_argument("set")
    p.add_argument("--compact", action="store_true",
                   help="digit-string form (entries must all be single digits)")

    add("class", _cmd_class, "partitions in the class of a subset",
        ceiling=DEFAULT_PARTITION_CEILING).add_argument("set")

    p = add("decompose-partition", _cmd_decompose_partition, "chain family on partitions of {1..n+1}",
            dot=True)
    p.add_argument("--ceiling", type=int, metavar="K",
                   help=f"enumeration size ceiling (default {DEFAULT_PARTITION_CEILING}, "
                        f"{DEFAULT_DOT_CEILING} for dot)")

    p = add("verify-boolean", _cmd_verify_boolean, "verify a subset-lattice decomposition",
            ceiling=DEFAULT_ENUM_CEILING)
    p.add_argument("--method", choices=sorted(_BOOLEAN_METHODS), default="gk")

    add("verify-partition", _cmd_verify_partition, "verify the partition chain family",
        ceiling=DEFAULT_PARTITION_CEILING)

    p = add("bell", _cmd_bell, "Bell number")
    p.add_argument("--method", choices=sorted(_BELL_METHODS), default="codes")
    p.add_argument("--ceiling", type=int, metavar="K",
                   help=f"enumeration size ceiling (default {DEFAULT_CODE_SUM_CEILING} "
                        f"for codes, {DEFAULT_STIRLING_CEILING} for oracle)")

    add("stirling", _cmd_stirling, "row n of the Stirling set-number triangle",
        ceiling=DEFAULT_STIRLING_CEILING)

    add("stirling-check", _cmd_stirling_check,
        "audit the Stirling inequalities for all rows up to n",
        ceiling=DEFAULT_STIRLING_CEILING)

    p = add("symfun", _cmd_symfun, "complete homogeneous function in the elementary ones",
            ceiling=DEFAULT_CODE_SUM_CEILING)
    p.add_argument("--check", action="store_true", help="compare against the recurrence oracle")

    add("derivative-check", _cmd_derivative_check,
        "compare the derivative code sum with the series oracle up to order n",
        ceiling=DEFAULT_CODE_SUM_CEILING)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:  # CeilingExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``, say).  Pointing stdout
        # at the null device keeps the interpreter's last flush silent, and
        # the exit is a shell's for a tool that SIGPIPE killed: 128 + 13.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main()
