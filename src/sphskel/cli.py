"""Command-line harness: verify catalog cases, compute skeleton files,
enumerate minimal supports and export cases to the skeleton file format.

Exit codes: 0 all reports match, 1 some mismatch, 2 usage or parse error,
3 skeleton invariant violation; any other exception is an internal error and
propagates with its traceback.  Reports go to stdout (text table or
newline-delimited JSON with exact fraction strings); diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass

from sphskel import catalog, mukai, skeleton as sk_mod
from sphskel.catalog import CaseInstance, SupportOption, UsageError
from sphskel.mukai import MukaiVerdict
from sphskel.rootsys import RootSystemError
from sphskel.skeleton import SkeletonInvariantError, SkeletonParseError


@dataclass
class CaseReport:
    inst: CaseInstance
    opt: SupportOption
    verdict: MukaiVerdict
    match: bool
    wall_ms: float

    def sort_key(self):
        return (self.inst.family, self.inst.sub_case, sorted(self.inst.params), self.opt.key)

    def to_json(self) -> dict:
        inst, opt = self.inst, self.opt
        return {
            "case": inst.family,
            "sub_case": inst.sub_case,
            "params": dict(inst.params),
            "support": opt.key,
            **_verdict_json(self.verdict),
            "expected_p": _frac_json(opt.expected_p),
            "expected_relation": opt.expected_relation,
            "expected_theta": _fracs_json(opt.expected_theta),
            "match": self.match,
            "typo_fixes": list(inst.typo_fixes),
            "solve_stats": {"pivots": self.verdict.pivots, "wall_ms": round(self.wall_ms, 3)},
        }


def _frac_json(x):
    return None if x is None else sk_mod.frac_str(x)


def _fracs_json(xs):
    return None if xs is None else [sk_mod.frac_str(x) for x in xs]


def _verdict_json(verdict: MukaiVerdict) -> dict:
    """The verdict's report keys, rationals as exact fraction strings."""
    return {
        "complete": verdict.complete,
        "p_value": _frac_json(verdict.p_value),
        "budget": verdict.budget,
        "relation": verdict.relation,
        "theta": _fracs_json(verdict.theta),
        "theta_unique": verdict.theta_unique,
    }


def evaluate_option(inst: CaseInstance, opt: SupportOption) -> CaseReport:
    """Evaluate one support option and compare it with everything the catalog
    states: completeness, relation, P, theta, the budget and, on Equal, a
    unique maximizer."""
    skel = inst.support_skeleton(opt)
    start = time.perf_counter()
    verdict = mukai.check_conjecture(skel)
    wall_ms = (time.perf_counter() - start) * 1000.0
    match = (
        verdict.complete
        and verdict.relation == opt.expected_relation
        and (opt.expected_p is None or verdict.p_value == opt.expected_p)
        and (opt.expected_theta is None or verdict.theta == opt.expected_theta)
        and (inst.expected_budget is None or verdict.budget == inst.expected_budget)
        and (verdict.relation != mukai.EQUAL or verdict.theta_unique is True)
    )
    return CaseReport(inst=inst, opt=opt, verdict=verdict, match=match, wall_ms=wall_ms)


def _params_text(params: dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"


def _p_text(p) -> str:
    return "inf" if p is None else sk_mod.frac_str(p)


def _theta_text(theta) -> str:
    if theta is None:
        return "-"
    return "(" + ",".join(sk_mod.frac_str(t) for t in theta) + ")"


def print_reports(reports: list[CaseReport], fmt: str, out=None) -> None:
    out = out or sys.stdout
    reports = sorted(reports, key=CaseReport.sort_key)
    if fmt == "json":
        for rep in reports:
            out.write(json.dumps(rep.to_json()) + "\n")
        return
    header = (
        f"{'case':<14} {'params':<14} {'support':<34} {'cmpl':<5} "
        f"{'P':>8} {'budget':>6} {'relation':<12} {'theta':<28} {'match':<5}"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    notes = {}
    for rep in reports:
        inst, v = rep.inst, rep.verdict
        case = inst.label
        out.write(
            f"{case:<14} {_params_text(dict(inst.params)):<14} {rep.opt.key:<34} "
            f"{str(v.complete).lower():<5} {_p_text(v.p_value):>8} "
            f"{v.budget:>6} {str(v.relation):<12} "
            f"{_theta_text(v.theta):<28} {'yes' if rep.match else 'NO':<5}\n"
        )
        for fix in inst.typo_fixes:
            notes.setdefault(case, set()).add(fix)
    for case in sorted(notes):
        for fix in sorted(notes[case]):
            out.write(f"note [{case}]: {fix}\n")


# ---------------------------------------------------------------------------
# selectors, params, sweep profiles


def parse_selector(text: str) -> tuple[int | None, str | None]:
    """'all' or a case key ('34', '43/p,q!=0,r=0') -> (family, sub_case)."""
    if text.strip() == "all":
        return None, None
    return catalog.parse_case_key(text)


def parse_params(items) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name in out:
            raise UsageError(f"--param {name} given more than once")
        try:
            # ASCII digits only: int() alone reads "1_0" as 10 and "٣" as 3
            if not re.fullmatch(r"[+-]?[0-9]+", value.strip(), re.ASCII):
                raise ValueError(value)
            out[name] = int(value)  # ValueError past int()'s digit limit too
        except ValueError as exc:
            raise UsageError(f"--param {item!r}: value must be an integer") from exc
    return out


def load_sweep_profile(name: str, path: str | None = None) -> dict:
    """Named sweep profile from a config file (default: the built-in one)."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "sweeps.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            profiles = sk_mod.read_json(handle)
    except (OSError, ValueError) as exc:  # bad JSON, a repeated key or bad UTF-8
        raise UsageError(f"cannot read sweep config {path}: {exc}") from exc
    if not isinstance(profiles, dict):
        raise UsageError(f"sweep config {path}: expected an object of named profiles")
    if name not in profiles:
        raise UsageError(f"unknown sweep profile {name!r}; known: {sorted(profiles)}")
    return profiles[name]


def _select_instances(args) -> list[CaseInstance]:
    family, sub = parse_selector(args.case)
    overrides = parse_params(args.param)
    profile = load_sweep_profile(args.sweep, args.sweep_config)
    specs = catalog.named(family, sub)
    # the names a selected case states: its free, fixed and derived parameters
    known = {name for spec in specs for name in spec.stated(dict.fromkeys(spec.ranges, 0))}
    unknown = sorted(set(overrides) - known)
    if unknown:
        where = "the catalog" if family is None else f"case {family}"
        raise UsageError(f"{where} takes no parameter {unknown[0]!r}")
    try:
        instances = catalog.sweep_instances(
            family=family, sub_case=sub, overrides=overrides, profile=profile
        )
    except RootSystemError as exc:  # a parameter too large for its root system
        raise UsageError(str(exc)) from exc
    if not instances:
        below = (spec.below_least(overrides) for spec in specs)
        raise UsageError(next(filter(None, below), "selection matches no catalog instance"))
    return instances


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    instances = _select_instances(args)
    reports = [
        evaluate_option(inst, opt) for inst in instances for opt in inst.options
    ]
    print_reports(reports, args.format)
    mismatches = sum(1 for rep in reports if not rep.match)
    total = len(reports)
    print(
        f"checked {total} reports: {total - mismatches} match, {mismatches} mismatch",
        file=sys.stderr,
    )
    return 0 if mismatches == 0 else 1


def cmd_compute(args) -> int:
    skel = sk_mod.load(args.file)
    verdict = mukai.check_conjecture(skel)
    if args.format == "json":
        payload = {**_verdict_json(verdict), "solve_stats": {"pivots": verdict.pivots}}
        print(json.dumps(payload))
    else:
        print(
            f"complete: {str(verdict.complete).lower()}, P={_p_text(verdict.p_value)}, "
            f"budget={verdict.budget}, {verdict.relation or 'Unbounded'}, "
            f"theta={_theta_text(verdict.theta)}"
        )
    return 0


def cmd_supports(args) -> int:
    instances = _select_instances(args)
    for inst in instances:
        found = mukai.enumerate_minimal_complete_supports(inst.system)
        if args.format == "json":
            payload = {
                "case": inst.family,
                "sub_case": inst.sub_case,
                "params": dict(inst.params),
                "minimal_supports": [
                    {
                        "support": inst.support_key(indices),
                        **{
                            key: value
                            for key, value in _verdict_json(verdict).items()
                            if key in ("p_value", "budget", "relation")
                        },
                    }
                    for indices, verdict in found
                ],
                "excluded_by_certificates": [
                    {
                        "sigma_prime": [inst.sigma_labels[j] for j in cert.sigma_prime],
                        "delta_prime": list(cert.delta_prime),
                    }
                    for cert in inst.certificates
                ],
            }
            print(json.dumps(payload))
            continue
        print(f"case {inst.label} params {_params_text(dict(inst.params))}:")
        for indices, verdict in found:
            key = inst.support_key(indices)
            print(
                f"  {{{key}}}: P={_p_text(verdict.p_value)}, "
                f"budget={verdict.budget}, {verdict.relation}"
            )
        for cert in inst.certificates:
            labels = ",".join(inst.sigma_labels[j] for j in cert.sigma_prime)
            print(
                f"  note: supports inside {{{labels}}} are not complete "
                f"(distinguished subset {{{','.join(cert.delta_prime)}}})",
                file=sys.stderr,
            )
    return 0


def cmd_export(args) -> int:
    instances = _select_instances(args)
    if len(instances) != 1:
        raise UsageError(
            "export needs exactly one instance; pin the parameters with --param"
        )
    inst = instances[0]
    skel = sk_mod.SphericalSkeleton(inst.system, ())
    if args.support is not None:
        try:
            opt = inst.option(args.support)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from exc
        skel = inst.support_skeleton(opt)
    sk_mod.save(skel, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphskel",
        description="exact verification of the generalized Mukai inequality "
        "for spherical skeletons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p):
        p.add_argument("--case", default="all", help="'all', '34' or '43/p,q!=0,r=0'")
        p.add_argument(
            "--param", action="append", metavar="NAME=VALUE",
            help="pin a sweep parameter (repeatable)",
        )
        p.add_argument("--sweep", default="default", help="sweep profile name")
        p.add_argument(
            "--sweep-config", dest="sweep_config", default=None,
            help="path to a sweep config (default: the built-in one)",
        )

    p_verify = sub.add_parser("verify", help="re-verify catalog cases")
    add_selection(p_verify)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_compute = sub.add_parser("compute", help="evaluate a skeleton file")
    p_compute.add_argument("file")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.set_defaults(func=cmd_compute)

    p_supports = sub.add_parser(
        "supports", help="enumerate minimal complete supports"
    )
    add_selection(p_supports)
    p_supports.add_argument("--format", choices=("text", "json"), default="text")
    p_supports.set_defaults(func=cmd_supports)

    p_export = sub.add_parser("export", help="write a case to a skeleton file")
    add_selection(p_export)
    p_export.add_argument("--support", default=None, help="support key (else Gamma = {})")
    p_export.add_argument("-o", "--output", required=True)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkeletonParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SkeletonInvariantError as exc:
        print(f"invariant violation [{exc.invariant}]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
