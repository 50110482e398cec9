"""Command-line front end: batch deciding, certificate checking, model
building, closures, and the arithmetical translation. prove and refute print
the derivation or the countermodel of decide's verdict; termmodel saturates
a pair file into its term model, without bounds.

Sequent files and pair files are read alike: blank and # lines are skipped,
an optional sig: header comes before the first item, and a --sig that
differs from the header is a usage error.

Exit codes: 0 completed, 1 usage/input error, 2 certificate validation
failure, 3 no verdict: decide undecided, or prove or refute without the
certificate asked for.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import __version__
from .arith import arith_sequent, arith_to_dict, default_realization, parse_realization, render
from .calculus import DerivationError, check_derivation, derivation_from_dict
from .decider import UNDECIDED, decide, verdict_to_dict
from .semantics import ModelError, check_adequate, countermodel_from_dict, model_text
from .syntax import (
    Formula,
    ParseError,
    QRCError,
    Sequent,
    Signature,
    parse_formula,
    parse_sequent,
    parse_sequent_file,
    parse_signature,
    pretty,
    pretty_sequent,
    read_signed_file,
    sorted_formulas,
)
from .termmodel import PairPM, build_term_model, closure, mdepth, set_mdepth, set_udepth, truth_lemma_check, udepth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_CERTIFICATE = 2
EXIT_UNDECIDED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as e:
        raise QRCError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise QRCError(f"cannot read {path}: {e}") from e


def _load_signature(args) -> Optional[Signature]:
    if getattr(args, "sig", None):
        return parse_signature(_read_text(args.sig))
    return None


def _load_sequents(source: str, sig: Optional[Signature]) -> tuple[Signature, list[Sequent]]:
    """`source` is an inline sequent when it contains |-, else a file path."""
    if "|-" in source:
        base = sig or Signature()
        return base, [parse_sequent(source, base)]
    return parse_sequent_file(_read_text(source), sig)


def _emit(doc: dict, text: str, fmt: str, out) -> None:
    if fmt == "json-lines":
        print(json.dumps(doc, sort_keys=True), file=out)
    else:
        print(text, file=out)


# ---------------------------------------------------------------------------
# decide / prove / refute


# The most sequents one pool task decides. A worker keeps each verdict of its
# task, certificate included, until the whole task is done, so this bounds a
# worker's memory whatever the length of the batch.
MAX_CHUNK = 64


def _verdicts(sequents: list[Sequent], sig: Signature, jobs: int):
    """decide's verdicts in input order, each yielded as soon as it is ready,
    so that the caller can print it and let its certificate go."""
    inputs = (sequents, itertools.repeat(sig))
    if jobs > 1 and len(sequents) > 1:
        # up to four tasks per worker: one sequent per task costs more in
        # pickling and scheduling than deciding a fast sequent does
        chunk = max(1, min(MAX_CHUNK, len(sequents) // (4 * jobs)))
        # a pool may start all its workers at once: no more than there are tasks
        workers = min(jobs, math.ceil(len(sequents) / chunk))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(decide, *inputs, chunksize=chunk)
    else:
        yield from map(decide, *inputs)


def cmd_decide(args, out) -> int:
    sig = _load_signature(args)
    sig, sequents = _load_sequents(args.input, sig)
    status = EXIT_OK
    verdicts = _verdicts(sequents, sig, args.jobs)
    # strict: zip runs the generator to its end, which shuts the pool down
    for s, v in zip(sequents, verdicts, strict=True):
        doc = verdict_to_dict(v, sig)
        doc["sequent"] = pretty_sequent(s)
        _emit(doc, f"{v.status}: {pretty_sequent(s)}", args.format, out)
        if v.status == UNDECIDED:
            status = EXIT_UNDECIDED
    return status


def cmd_certificate(args, out) -> int:
    """prove and refute: print the `args.kind` certificate of decide's verdict,
    exit 3 on a sequent whose verdict carries none."""
    sig = _load_signature(args)
    sig, sequents = _load_sequents(args.input, sig)
    kind = args.kind
    status = EXIT_OK
    for s in sequents:
        v = decide(s, sig)
        label = pretty_sequent(s)
        cert = getattr(v, kind)
        if cert is None:
            _emit({"sequent": label, "status": f"no-{kind}", "verdict": v.status},
                  f"no {kind} ({v.status}): {label}", args.format, out)
            status = EXIT_UNDECIDED
            continue
        body = verdict_to_dict(v, sig)["certificate"][kind]
        text = (f"proved: {label} ({cert.size()} rule applications)" if kind == "derivation"
                else f"refuted: {label}\n{model_text(cert.model)}")
        _emit({"sequent": label, "status": v.status, kind: body}, text, args.format, out)
    return status


# ---------------------------------------------------------------------------
# certificate checking


def _certificate_docs(text: str) -> Iterator[tuple[int, dict]]:
    """Each JSON document of the text with the number of its line, parsed
    when it is asked for, so that the lines before a broken one are checked."""
    if not text.strip():  # every line blank: each line separator is whitespace too
        raise QRCError("no certificate documents in input")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError as e:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
            raise QRCError(f"line {lineno}: not a JSON document ({getattr(e, 'msg', e)})") from e
        except RecursionError:
            raise QRCError(f"line {lineno}: JSON nested too deeply") from None
        yield lineno, doc


def _extract(doc: dict, kind: str) -> Optional[dict]:
    """The `kind` certificate of a prove/refute or a decide document."""
    if not isinstance(doc, dict):
        return None
    if kind in doc:
        return doc[kind]
    cert = doc.get("certificate")
    if isinstance(cert, dict) and cert.get("kind") == kind:
        return cert.get(kind)
    return None


def _checked_derivation(inner, sig: Signature) -> Sequent:
    return check_derivation(derivation_from_dict(inner, sig), sig)  # the checker reads only relation arities


def _checked_countermodel(inner, sig: Signature) -> Sequent:
    cm = countermodel_from_dict(inner, sig)
    cm.validate()
    return cm.sequent


# per certificate kind: the field of the certificate that names its sequent,
# the check returning the sequent it certifies, and the text of a valid one
_CHECKS = {
    "derivation": ("conclusion", _checked_derivation, "valid derivation of {}"),
    "countermodel": ("sequent", _checked_countermodel, "valid countermodel for {}"),
}


def cmd_check(args, out) -> int:
    """check-derivation and check-model: re-validate each `args.kind`
    certificate, exit 2 if any is invalid."""
    kind = args.kind
    field, checked, valid_text = _CHECKS[kind]
    sig = _load_signature(args) or Signature()
    status = EXIT_OK
    for lineno, doc in _certificate_docs(_read_text(args.input)):
        inner = _extract(doc, kind)
        if inner is None:
            raise QRCError(f"line {lineno}: document carries no {kind}")
        label = doc.get("sequent", inner.get(field, "?") if isinstance(inner, dict) else "?")
        try:
            concluded = checked(inner, sig)
            _emit({"sequent": label, "valid": True},
                  valid_text.format(pretty_sequent(concluded)), args.format, out)
        except (DerivationError, ModelError, ParseError, KeyError, RecursionError) as e:
            _emit({"sequent": label, "valid": False, "error": str(e)},
                  f"INVALID {kind} ({label}): {e}", args.format, out)
            status = EXIT_INVALID_CERTIFICATE
    return status


# ---------------------------------------------------------------------------
# termmodel


def _pair_item(line: str, sig: Signature) -> tuple[str, Formula]:
    side, colon, body = line.partition(":")
    if not colon or side not in ("pos", "neg"):
        raise ParseError("expected a sig:, pos:, or neg: line")
    return side, parse_formula(body, sig)


def cmd_termmodel(args, out) -> int:
    sig, items = read_signed_file(_read_text(args.input), _load_signature(args), _pair_item)
    pair = PairPM(frozenset(f for side, f in items if side == "pos"),
                  frozenset(f for side, f in items if side == "neg"), sig.constants)
    result = build_term_model(pair, sig)
    report = truth_lemma_check(result, pair, sig)
    adequacy = check_adequate(result.model)
    doc = {
        "worlds": result.annotations(),
        "edges": sorted(result.model.R),
        "domains": {str(w): sorted(result.model.domain[w]) for w in result.model.worlds},
        "adequate": adequacy.adequate,
        "oracle_answers": result.oracle_answers,
        "truth_lemma": {
            "checked": report.checked,
            "violations": [
                {"world": w, "formula": f, "direction": d} for w, f, d in report.violations
            ],
        },
    }
    lines = [model_text(result.model)]
    for ann in result.annotations():
        lines.append(f"world {ann['world']}:")
        lines.append("  positive: " + "; ".join(ann["positive"]))
        lines.append("  negative: " + "; ".join(ann["negative"]))
    lines.append(f"adequate: {adequacy.adequate}")
    lines.append(f"truth lemma: {report.checked} formulas checked, "
                 f"{len(report.violations)} violations")
    _emit(doc, "\n".join(lines), args.format, out)
    return EXIT_OK if report.ok and adequacy.adequate else EXIT_INVALID_CERTIFICATE


# ---------------------------------------------------------------------------
# translate / closure


def cmd_translate(args, out) -> int:
    sig = _load_signature(args)
    sig, sequents = _load_sequents(args.input, sig)
    if args.realization:
        realization, warnings = parse_realization(_read_text(args.realization))
    else:
        realization, warnings = default_realization(sig), []
    for w in warnings:
        print(f"warning: template is not in existential-over-bounded shape: {w}", file=sys.stderr)
    for s in sequents:
        statement = arith_sequent(s, realization, sig)
        doc = {"sequent": pretty_sequent(s), "statement": render(statement),
               "tree": arith_to_dict(statement)}
        _emit(doc, f"{pretty_sequent(s)}\n  {render(statement)}", args.format, out)
    return EXIT_OK


def cmd_closure(args, out) -> int:
    sig = _load_signature(args) or Signature()
    if args.constants:
        sig = sig.with_constants(c.strip() for c in args.constants.split(",") if c.strip())
    f = parse_formula(args.formula, sig)
    cl = sorted_formulas(closure([f], sig.constants))
    doc = {
        "formula": pretty(f),
        "constants": list(sig.constants),
        "closure": [pretty(g) for g in cl],
        "count": len(cl),
        "mdepth": mdepth(f),
        "udepth": udepth(f),
        "closure_mdepth": set_mdepth(cl),
        "closure_udepth": set_udepth(cl),
    }
    lines = [pretty(g) for g in cl]
    lines.append(f"count: {len(cl)}  mdepth: {mdepth(f)}  udepth: {udepth(f)}")
    _emit(doc, "\n".join(lines), args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: _Parser) -> None:
    p.add_argument("--sig", metavar="FILE", help="signature file (a `sig:` header line)")
    p.add_argument("--format", choices=("text", "json-lines"), default="text",
                   help="output format (default: text)")


def _positive(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="qrc1", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qrc1 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decide", help="decide sequents, emitting a certificate either way")
    p.add_argument("input", help="sequent file, - for stdin, or an inline `lhs |- rhs`")
    p.add_argument("--jobs", type=_positive, default=1, help="parallel workers for batch input")
    _add_common(p)
    p.set_defaults(func=cmd_decide)

    for name, kind in (("prove", "derivation"), ("refute", "countermodel")):
        p = sub.add_parser(name, help=f"print decide's {kind}, exit 3 if there is none")
        p.add_argument("input", help="sequent file, - for stdin, or an inline sequent")
        _add_common(p)
        p.set_defaults(func=cmd_certificate, kind=kind)

    for name, kind in (("check-derivation", "derivation"), ("check-model", "countermodel")):
        p = sub.add_parser(name, help=f"re-validate {kind} documents")
        p.add_argument("input", help=f"json-lines file of {kind} documents, - for stdin")
        _add_common(p)
        p.set_defaults(func=cmd_check, kind=kind)

    p = sub.add_parser("termmodel", help="build the saturation model of a pair file")
    p.add_argument("input", help="pair file (sig:/pos:/neg: lines), - for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_termmodel)

    p = sub.add_parser("translate", help="arithmetical reading of sequents")
    p.add_argument("input", help="sequent file, - for stdin, or an inline sequent")
    p.add_argument("--realization", metavar="FILE",
                   help="template file; default gives each relation an opaque template atom")
    _add_common(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("closure", help="list the instantiation closure of a formula")
    p.add_argument("formula", help="formula text")
    p.add_argument("--constants", metavar="LIST", default="",
                   help="comma-separated constants to instantiate with (added to --sig)")
    _add_common(p)
    p.set_defaults(func=cmd_closure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args, sys.stdout)
    except (QRCError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
