"""Command-line front end.

Every invocation is ``weakorder SUBCOMMAND ACTION [ARGS] [FLAGS]`` and is a
pure parse -> compute -> format pipeline: identical invocations print
identical bytes.  Window strings contain ``~`` and ``[``, so quote them in
a shell.  Exit codes: 0 on success, 1 when a computation rejects its input
(a domain invariant fails), 2 for unparsable input or bad usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence

from . import dyer as dy
from . import render as rdr
from . import sn
from . import tito as ti
from . import total_orders as tot
from .errors import InvalidWindows, NotAWall, ParseError, WeakorderError

if TYPE_CHECKING:
    from .lattices import FinitePoset


def _error_phrase(exc: WeakorderError) -> str:
    words = re.findall(r"[A-Z][a-z0-9]*", type(exc).__name__)
    return " ".join(w.lower() for w in words)


def _parse_pair(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*\(?\s*(-?\d+)\s*,\s*(-?\d+)\s*\)?\s*", text)
    if not m:
        raise ParseError(f"bad pair: {text!r}")
    return int(m.group(1)), int(m.group(2))


def _parse_tot(text: str) -> tot.FiniteTotalOrder:
    body = text.strip()
    if body == "standard":
        return tot.standard_order()
    if body.startswith("["):
        return tot.invs_from_json(body)
    try:
        word = [int(v) for v in body.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad order word: {text!r}") from exc
    # a full window: max - min + 1 distinct values, checked without the range
    if len(set(word)) != len(word) or max(word) - min(word) + 1 != len(word):
        raise ParseError(f"order word must list a full integer window: {text!r}")
    return tot.FiniteTotalOrder(sn.word_inversions(word))


def _need_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ParseError("--n is required here")
    return args.n


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lines(args: argparse.Namespace, rows: Sequence[str]) -> None:
    _emit(args, "".join(row + "\n" for row in rows))


def _bool_row(value: bool) -> list[str]:
    return ["true" if value else "false"]


# ---------------------------------------------------------------------------
# subcommands


def _take(args: argparse.Namespace, count: int) -> list[str]:
    if len(args.args) != count:
        raise ParseError(
            f"{args.subcommand} {args.action} takes {count} argument(s), got {len(args.args)}"
        )
    return list(args.args)


# The forms each action can print besides text; every other action prints
# text only.  An ignored --format or --upper would print the wrong kind of
# answer, so both are refused.
_FORMATS = {
    **{(sub, act): ("json", "svg") for sub in ("sn", "tot", "tito") for act in ("arcs", "cjr")},
    ("dyer", "enumerate"): ("json",),
    ("lab", "quotient"): ("json", "dot"),
    ("render", "arcs"): ("svg",),
    ("render", "hasse"): ("dot",),
}
# the only actions that read --upper: sn has upper walls and arcs so far
_READS_UPPER = {("sn", "walls"), ("sn", "arcs")}


def _check_flags(args: argparse.Namespace) -> None:
    action = (args.subcommand, args.action)
    if args.format != "text" and args.format not in _FORMATS.get(action, ()):
        raise ParseError(f"{args.subcommand} {args.action} does not take --format {args.format}")
    if args.upper and action not in _READS_UPPER:
        raise ParseError(f"{args.subcommand} {args.action} does not take --upper")


def _arc_lines(args: argparse.Namespace, arcs: Iterable, fmt: Callable, n: int | None) -> None:
    # the arcs of any flavor, sorted, as an SVG drawing, a JSON list or text lines
    ordered = sorted(arcs, key=sn._arc_key)
    if args.format == "svg":
        _emit(args, rdr.render_arcs(ordered, args.mode, n=n))
    elif args.format == "json":
        _lines(args, [json.dumps([fmt(x) for x in ordered])])
    else:
        _lines(args, [fmt(x) for x in ordered])


def _run_sn(args: argparse.Namespace) -> None:
    if args.action == "join":
        perms = [sn.parse_perm(word) for word in args.args]
        _lines(args, [sn.format_perm(sn.join_sn(perms, args.n))])
    elif args.action == "meet":
        perms = [sn.parse_perm(word) for word in args.args]
        _lines(args, [sn.format_perm(sn.meet_sn(perms, args.n))])
    elif args.action == "leq":
        low, high = (sn.parse_perm(w) for w in _take(args, 2))
        _lines(args, _bool_row(sn.leq_sn(low, high)))
    elif args.action == "walls":
        p = sn.parse_perm(_take(args, 1)[0])
        walls = sn.upper_walls_sn(p) if args.upper else sn.lower_walls_sn(p)
        _lines(args, [f"({a},{b})" for a, b in sorted(walls)])
    elif args.action == "flip":
        word, pair = _take(args, 2)
        p = sn.parse_perm(word)
        a, b = _parse_pair(pair)
        walls = sn.lower_walls_sn(p) | sn.upper_walls_sn(p)
        if (a, b) not in walls:
            raise NotAWall(f"({a},{b}) is not a wall of {sn.format_perm(p)}")
        _lines(args, [sn.format_perm(sn.swap_values(p, a, b))])
    elif args.action in ("arcs", "cjr"):
        p = sn.parse_perm(_take(args, 1)[0])
        if args.action == "cjr":
            arcs = sn.canonical_join_rep_sn(p)
        else:
            arcs = sn.upper_arcs_sn(p) if args.upper else sn.lower_arcs_sn(p)
        _arc_lines(args, arcs, sn.format_arc, p.n)
    else:
        raise ParseError(f"sn does not support action {args.action!r}")


def _run_tot(args: argparse.Namespace) -> None:
    if args.action == "join":
        orders = [_parse_tot(word) for word in args.args]
        _lines(args, [tot.format_tot(tot.join_tot(orders))])
    elif args.action == "meet":
        orders = [_parse_tot(word) for word in args.args]
        _lines(args, [tot.format_tot(tot.meet_tot(orders))])
    elif args.action == "leq":
        low, high = (_parse_tot(w) for w in _take(args, 2))
        _lines(args, _bool_row(tot.leq_tot(low, high)))
    elif args.action == "walls":
        t = _parse_tot(_take(args, 1)[0])
        _lines(args, [f"({a},{b})" for a, b in sorted(tot.lower_walls_tot(t))])
    elif args.action in ("arcs", "cjr"):
        t = _parse_tot(_take(args, 1)[0])
        arcs = tot.canonical_join_rep_tot(t) if args.action == "cjr" else tot.lower_arcs_tot(t)
        _arc_lines(args, arcs, sn.format_arc, args.n)
    elif args.action == "normalize":
        t = _parse_tot(_take(args, 1)[0])
        _lines(args, [tot.format_tot(t)])
    else:
        raise ParseError(f"tot does not support action {args.action!r}")


def _run_tito(args: argparse.Namespace) -> None:
    n = _need_n(args)
    if args.action == "join":
        titos = [ti.parse_windows(word, n) for word in args.args]
        _lines(args, [ti.format_windows(ti.join_tito(titos, n))])
    elif args.action == "meet":
        titos = [ti.parse_windows(word, n) for word in args.args]
        _lines(args, [ti.format_windows(ti.meet_tito(titos, n))])
    elif args.action == "leq":
        low, high = (ti.parse_windows(w, n) for w in _take(args, 2))
        _lines(args, _bool_row(ti.leq_tito(low, high)))
    elif args.action == "normalize":
        t = ti.parse_windows(_take(args, 1)[0], n)
        _lines(args, [ti.format_windows(t)])
    elif args.action == "walls":
        t = ti.parse_windows(_take(args, 1)[0], n)
        walls = sorted(ti.lower_walls_tito(t))
        _lines(args, [ti.format_reflection_index(w) for w in walls])
    elif args.action == "flip":
        word, wall = _take(args, 2)
        t = ti.parse_windows(word, n)
        a, b = _parse_pair(wall.strip().strip("<>"))
        flipped = ti.flip_tito(t, ti.reflection_index(a, b, n))
        _lines(args, [ti.format_windows(flipped)])
    elif args.action in ("arcs", "cjr"):
        t = ti.parse_windows(_take(args, 1)[0], n)
        if args.action == "cjr":
            arcs = ti.canonical_join_rep_tito(t)
        else:
            arcs = ti.lower_wrapped_arcs(t)
        _arc_lines(args, arcs, ti.format_wrapped_arc, n)
    else:
        raise ParseError(f"tito does not support action {args.action!r}")


def _run_dyer(args: argparse.Namespace) -> None:
    n = _need_n(args)
    if args.action == "enumerate":
        sets = dy.enumerate_biclosed_fin(n)
        if args.format == "json":
            _lines(args, [json.dumps([json.loads(dy.rootset_to_json(x)) for x in sets])])
        else:
            _lines(args, [dy.rootset_to_json(x) for x in sets])
        return
    if args.action == "join":
        elems = [dy.parse_dyer_element(word, n) for word in args.args]
        _lines(args, [dy.format_dyer_element(dy.dyer_join(elems, n))])
    elif args.action == "meet":
        elems = [dy.parse_dyer_element(word, n) for word in args.args]
        _lines(args, [dy.format_dyer_element(dy.dyer_meet(elems, n))])
    elif args.action == "leq":
        low, high = (dy.parse_dyer_element(w, n) for w in _take(args, 2))
        _lines(args, _bool_row(dy.dyer_leq(low, high)))
    elif args.action == "normalize":
        x = dy.parse_dyer_element(_take(args, 1)[0], n)
        _lines(args, [dy.format_dyer_element(x)])
    else:
        raise ParseError(f"dyer does not support action {args.action!r}")


def _need_window(args: argparse.Namespace) -> tuple[int, int]:
    if args.a is None or args.b is None:
        raise ParseError(f"--a and --b are required for kind {args.kind!r}")
    return args.a, args.b


def _lab_poset(args: argparse.Namespace) -> FinitePoset:
    # the lab (and numpy with it) loads only for the commands that use it
    from . import lattices as lab

    if args.kind == "sn":
        return lab.weak_order_poset(_need_n(args))
    if args.kind == "tot":
        return lab.tot_quotient(*_need_window(args))
    if args.kind == "tito":
        return lab.tito_quotient(_need_n(args), *_need_window(args)).poset
    raise ParseError(f"unknown kind {args.kind!r}")


def _run_lab(args: argparse.Namespace) -> None:
    from . import lattices as lab

    if args.action == "quotient":
        if args.kind == "tito":
            quotient = lab.tito_quotient(_need_n(args), *_need_window(args))
            if args.format == "dot":
                _emit(args, rdr.render_hasse(quotient.poset))
            else:
                reps = {
                    label: ti.format_windows(quotient.reps[label])
                    for label in quotient.poset.elements
                }
                payload = json.loads(lab.poset_to_json(quotient.poset))
                payload["reps"] = reps
                _lines(args, [json.dumps(payload, indent=1)])
        else:
            poset = _lab_poset(args)
            if args.format == "dot":
                _emit(args, rdr.render_hasse(poset))
            else:
                _lines(args, [lab.poset_to_json(poset)])
    elif args.action == "check":
        poset = _lab_poset(args)
        report = lab.check_lattice(poset)
        rows = [
            f"elements: {len(poset)}",
            f"covers: {int(poset.covers.sum())}",
            f"lattice: {'yes' if report.is_lattice else 'no (' + str(report.witness) + ')'}",
        ]
        if report.is_lattice:
            rows.append(
                f"join-semidistributive: {'yes' if lab.is_join_semidistributive_fin(poset) else 'no'}"
            )
            rows.append(
                f"meet-semidistributive: {'yes' if lab.is_meet_semidistributive_fin(poset) else 'no'}"
            )
        _lines(args, rows)
    else:
        raise ParseError(f"lab does not support action {args.action!r}")


def _run_render(args: argparse.Namespace) -> None:
    if args.action == "arcs":
        if args.n is not None and args.n < 1:
            raise ParseError(f"--n must be positive, got {args.n}")
        parsed: list = []
        for word in args.args:
            if word.strip().startswith("<"):
                parsed.append(ti.parse_wrapped_arc(word, _need_n(args)))
            else:
                parsed.append(sn.parse_arc(word))
        _emit(args, rdr.render_arcs(parsed, args.mode, n=args.n))
    elif args.action == "hasse":
        _emit(args, rdr.render_hasse(_lab_poset(args)))
    else:
        raise ParseError(f"render does not support action {args.action!r}")


# ---------------------------------------------------------------------------
# argument grammar


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # argparse would print its usage block and exit; main prints one line
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    # A flat grammar (subcommand and action are plain positionals) parsed
    # with parse_intermixed_args, so flags may come before or after the
    # inputs; subparsers would split the positionals into chunks.
    parser = _Parser(
        prog="weakorder",
        description="Weak order computations on permutations, total orders, "
        "and translation-invariant total orders.",
    )
    parser.add_argument(
        "subcommand", choices=("sn", "tot", "tito", "dyer", "lab", "render")
    )
    parser.add_argument(
        "action",
        help="join|meet|arcs|cjr|walls|flip|leq|normalize|quotient|check|enumerate|hasse",
    )
    parser.add_argument("args", nargs="*", help="inputs; quote window strings")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--a", type=int, default=None)
    parser.add_argument("--b", type=int, default=None)
    parser.add_argument("--kind", choices=("sn", "tot", "tito"), default="sn")
    parser.add_argument(
        "--format", choices=("text", "json", "svg", "dot"), default="text"
    )
    parser.add_argument("--mode", choices=(rdr.LINE, rdr.CIRCLE), default=rdr.LINE)
    parser.add_argument("--upper", action="store_true")
    parser.add_argument("--out", default=None)
    # argparse takes any word that starts with "-" and is not a plain number
    # for a flag, so a tot word such as "-1,0" would be refused; no flag of
    # this grammar starts with a digit, so read every "-<digit>" word as a value.
    parser._negative_number_matcher = re.compile(r"-\d")
    return parser


_RUNNERS = {
    "sn": _run_sn,
    "tot": _run_tot,
    "tito": _run_tito,
    "dyer": _run_dyer,
    "lab": _run_lab,
    "render": _run_render,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_intermixed_args(argv)
        _check_flags(args)
        _RUNNERS[args.subcommand](args)
    except (ParseError, InvalidWindows) as exc:
        print(f"error: {_error_phrase(exc)}: {exc}", file=sys.stderr)
        return 2
    except WeakorderError as exc:
        print(f"error: {_error_phrase(exc)}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
