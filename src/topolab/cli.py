"""Command-line interface.

Exit codes: 0 success, 2 spec rejected (syntax or validation), 3 order cap
exceeded or out of memory, 1 other domain errors.  The order cap of a spec
defaults to 20000 and can be overridden with TOPOLAB_ORDER_CAP, a positive
integer; a perm action's order and degree are capped at 100000
(permaction.MATERIALIZATION_CAP).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .catalog import catalog_groups
from .classify import ClassificationReport, classify
from .errors import InvalidSpec, NotComparable, OrderCapExceeded, SpecSyntaxError, TopolabError
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, build_group
from .permaction import (
    PermAction,
    build_centralizing_witness,
    full_symmetric_centralizer,
    lemma_trivial_centralizer,
    orbit_data,
)
from .report import emit_catalog_json, emit_lattice_dot, emit_report_json
from .semitop import is_semitopological, is_semitopological_oracle, min_steps
from .specparse import PERM_ENTRY_CAP, format_perm, parse_group_spec, parse_perm_generators, print_group_spec
from .subgroups import all_normal_subgroups
from .topology import make_topology


def _order_cap() -> int:
    raw = os.environ.get("TOPOLAB_ORDER_CAP", str(DEFAULT_ORDER_CAP))
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise InvalidSpec(f"TOPOLAB_ORDER_CAP must be a positive integer, got {raw!r}")


def _build(args: argparse.Namespace) -> FiniteGroup:
    """The group of args.spec, under the order cap."""
    return build_group(parse_group_spec(args.spec), order_cap=_order_cap(), seed=args.seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="Classify finite groups and their almost trivial topologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one group")
    p_classify.add_argument("spec")
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument("--seed", type=int, default=0)

    p_semitop = sub.add_parser(
        "semitop", help="decide a semitopological identity map between kernels"
    )
    p_semitop.add_argument("spec")
    p_semitop.add_argument("--from", dest="from_index", type=int, required=True,
                           help="index of the finer topology's kernel")
    p_semitop.add_argument("--to", dest="to_index", type=int, required=True,
                           help="index of the coarser topology's kernel")
    p_semitop.add_argument("--steps", action="store_true",
                           help="report the minimal number of semitopological steps")
    p_semitop.add_argument("--seed", type=int, default=0)

    p_lattice = sub.add_parser("lattice", help="emit the normal-subgroup lattice as DOT")
    p_lattice.add_argument("spec")
    p_lattice.add_argument("--dot", required=True, metavar="PATH")
    p_lattice.add_argument("--seed", type=int, default=0)

    p_catalog = sub.add_parser("catalog", help="classify the built-in catalog")
    p_catalog.add_argument("--max-order", type=int, default=None)
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.add_argument("--seed", type=int, default=0)

    p_perm = sub.add_parser("perm", help="analyze a permutation action")
    p_perm.add_argument("--degree", type=int, required=True)
    p_perm.add_argument("--gens", required=True, help='cycles, e.g. "(0 1 2),(0 1)"; - reads stdin')
    p_perm.add_argument("--check-lemma", action="store_true")
    p_perm.add_argument("--oracle", action="store_true")
    p_perm.add_argument("--seed", type=int, default=0)
    return parser


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _print_report_text(report: ClassificationReport) -> None:
    print(f"spec: {print_group_spec(report.spec)}")
    print(f"order: {report.order}")
    print(f"center order: {report.center_order}")
    print(
        "flags: perfect={} taimanov={} totally_taimanov={} arnautov={} markov={}".format(
            _flag(report.is_perfect),
            _flag(report.is_taimanov),
            _flag(report.is_totally_taimanov),
            _flag(report.is_arnautov),
            _flag(report.is_markov),
        )
    )
    print("normal subgroups:")
    for row in report.rows:
        line = (
            f"  N#{row.index} order {row.order}"
            f"  a_complete={_flag(row.a_complete)}"
            f"  [G,N] order {row.commutator_with_g_order}"
        )
        if row.a_complete_violator is not None:
            line += f"  (violated by N#{row.a_complete_violator})"
        print(line)
    if report.witnesses:
        print("witnesses:")
        if "taimanov" in report.witnesses:
            print(f"  taimanov: center has order {report.witnesses['taimanov'].order}")
        if "totally_taimanov" in report.witnesses:
            sub = report.witnesses["totally_taimanov"]
            print(f"  totally_taimanov: quotient by the order-{sub.order} normal subgroup has nontrivial center")
        if "arnautov" in report.witnesses:
            w = report.witnesses["arnautov"]
            print(
                f"  arnautov: N of order {w.kernel.order} has [G,N] of order "
                f"{w.commutator.order}; the identity map (zeta_[G,N], zeta_N) is semitopological and not open"
            )
        if "perfect" in report.witnesses:
            print(f"  perfect: derived subgroup has order {report.witnesses['perfect'].order}")


def _cmd_classify(args: argparse.Namespace) -> int:
    group = _build(args)
    report = classify(group)
    if args.json:
        print(emit_report_json(report, seed=args.seed))
    else:
        _print_report_text(report)
    return 0


def _cmd_semitop(args: argparse.Namespace) -> int:
    group = _build(args)
    normals = all_normal_subgroups(group)
    for idx in (args.from_index, args.to_index):
        if not 0 <= idx < len(normals):
            raise NotComparable(
                f"kernel index {idx} out of range; the lattice has {len(normals)} normal subgroups"
            )
    tau = make_topology(group, normals[args.from_index])
    sigma = make_topology(group, normals[args.to_index])
    # printed only once decided: a pair that is not nested writes no stdout
    lines = [
        f"tau = zeta_N#{args.from_index} (kernel order {tau.kernel.order}), "
        f"sigma = zeta_N#{args.to_index} (kernel order {sigma.kernel.order})"
    ]
    if args.steps:
        result = min_steps(tau, sigma)
        if result.steps is None:
            lines.append("steps: none (the commutator iteration stalls outside the kernel)")
        else:
            orders = ", ".join(str(s.order) for s in result.chain)
            lines += [f"steps: {result.steps}", f"chain kernel orders: [{orders}]"]
    else:
        verdict = is_semitopological(tau, sigma)
        oracle = is_semitopological_oracle(tau, sigma)
        lines += [
            f"semitopological: {_flag(verdict.is_semitopological)}",
            f"oracle agrees: {_flag(verdict.is_semitopological == oracle)}",
        ]
        if verdict.violating_pair is not None:
            g, l = verdict.violating_pair
            lines.append(f"violating pair: g={g}, l={l} ([g,l] outside the kernel)")
    print("\n".join(lines))
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    group = _build(args)
    text = emit_lattice_dot(group)
    try:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise TopolabError(f"cannot write {args.dot}: {exc.strerror}") from exc
    print(f"wrote {args.dot} ({len(all_normal_subgroups(group))} nodes)")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    groups = catalog_groups(args.max_order, order_cap=_order_cap(), seed=args.seed)
    reports = [classify(group) for _, group in groups]
    if args.json:
        print(emit_catalog_json(reports, seed=args.seed))
    else:
        for report in reports:
            print(
                "{:<16} order {:>5}  perfect={} taimanov={} totally_taimanov={} arnautov={}".format(
                    print_group_spec(report.spec),
                    report.order,
                    _flag(report.is_perfect),
                    _flag(report.is_taimanov),
                    _flag(report.is_totally_taimanov),
                    _flag(report.is_arnautov),
                )
            )
    return 0


def _cmd_perm(args: argparse.Namespace) -> int:
    # bounded before parsing: unlike an argument (128 KiB on Linux), stdin has no limit
    text = sys.stdin.read(PERM_ENTRY_CAP + 1) if args.gens == "-" else args.gens
    gens = parse_perm_generators(text, args.degree)
    action = PermAction(args.degree, gens)
    data = orbit_data(action)
    # printed only once every step has succeeded: a failing check writes no stdout
    orbits = " ".join("{" + " ".join(map(str, o)) + "}" for o in data.orbits)
    lines = [f"degree: {action.degree}", f"group order: {action.order}", f"orbits: {orbits}"]
    lines += [f"stabilizer at {rep}: order {data.stabilizers[rep].order}" for rep in data.representatives]
    lemma_ok: Optional[bool] = None
    if args.check_lemma:
        lemma_ok, failure = lemma_trivial_centralizer(action)
        lines.append(f"trivial centralizer in S(X): {_flag(lemma_ok)}")
        if failure is not None:
            rep, other = failure.representative, failure.other_representative
            lines.append(
                f"condition (a) fails: stabilizer at {rep} is normalized by {format_perm(failure.conjugator)}"
                if failure.condition == "a"
                else f"condition (b) fails: stabilizers at representatives {rep} and {other} are conjugate"
            )
            lines.append(f"centralizing witness: {format_perm(build_centralizing_witness(action, failure))}")
    if args.oracle:
        cent = full_symmetric_centralizer(action)
        lines.append(f"full centralizer order: {len(cent)}")
        if lemma_ok is not None:
            lines.append(f"lemma agrees with oracle: {_flag(lemma_ok == (len(cent) == 1))}")
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "semitop": _cmd_semitop,
    "lattice": _cmd_lattice,
    "catalog": _cmd_catalog,
    "perm": _cmd_perm,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TopolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SpecSyntaxError, InvalidSpec)):
            return 2
        return 3 if isinstance(exc, OrderCapExceeded) else 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
