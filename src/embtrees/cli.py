"""Command-line front end: counting, verification, sampling, tracing.

Exit codes: 0 success, 1 failed verification or internal assertion,
2 hypothesis or parse error, 3 budget exceeded.  All output is deterministic
given the inputs and seeds; --json switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import algebra, formulas, oracle, sampler
from .bijection_general import psi_inverse, psi_with_trace
from .bijection_nonneg import phi_inverse, phi_with_trace
from .core import (
    BudgetExceeded,
    EmbTreesError,
    HypothesisViolation,
    IncompatibleDistribution,
    InvalidProfile,
    Profile,
    StepSet,
    _marked_stree_of,
    _sfunction_of,
    canonical_json,
    embedded_cayley_to_json,
    hypothesis_holds,
    marked_stree_from_json,
    marked_stree_to_json,
    sary_to_json,
    sfunction_from_json,
    sfunction_to_json,
    type_distribution_of,
    type_distribution_to_json,
)

PARSE_ERRORS = (HypothesisViolation, InvalidProfile, IncompatibleDistribution)


def _clip(text: str) -> str:
    """text, or its first 80 characters and "..." when it is longer."""
    return text if len(text) <= 80 else text[:80] + "..."


def _parsed(parse, text: str, error: type[EmbTreesError]):
    """parse(text), reporting a malformed text as `error` (exit 2) on one
    short line that quotes at most a prefix of the text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"cannot parse {_clip(repr(text))}: {_clip(str(exc))}") from exc


def _parse_steps(text: str) -> StepSet:
    return _parsed(StepSet.parse, text, HypothesisViolation)


def _parse_profile(text: str) -> Profile:
    return _parsed(Profile.parse, text, InvalidProfile)


def _read_input(path: str) -> str:
    """The text of the file at path, or of stdin for "-", decoded as strict
    UTF-8 whatever the locale; an unreadable file or undecodable text is a
    parse error (exit 2).  A stdin without a byte buffer (io.StringIO) is
    read as text."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidProfile(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidProfile(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc


def _exact(value: int | Fraction) -> str:
    """Exact decimal text of an integer or fraction of any size (str() of an
    int stops at sys.get_int_max_str_digits() digits)."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_exact(value.numerator)}/{_exact(value.denominator)}"
    return str(Decimal(int(value)))


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    profile = _parse_profile(args.profile)
    if args.kind == "binary-horizontal":
        h = _parsed(lambda text: [int(x) for x in text.split(",")],
                    args.profile, InvalidProfile)
        factors = formulas.binary_horizontal_factors(h)
    elif args.kind == "binary":
        factors = formulas.sary_factors(StepSet([-1, 1]), profile)
    elif args.kind == "cayley":
        factors = formulas.cayley_factors(_parse_steps(args.steps), profile)
    elif args.kind == "sary":
        factors = formulas.sary_factors(_parse_steps(args.steps), profile)
    else:
        raise ValueError(f"unknown count kind {args.kind!r}")
    value = formulas.product(factors, f"{args.kind} count")
    if args.json:
        print(canonical_json({"kind": args.kind, "profile": str(profile),
                              "count": _exact(value)}))
    else:
        print(_exact(value))
        if args.explain:
            for label, factor in factors:
                print(f"  {label} = {_exact(factor)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _profiles_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from sampler.enumerate_profiles(n)


def _check_regression() -> dict:
    from .formulas import count_binary_profile, count_cayley_profile
    results = {}
    results["binary_2_21"] = count_binary_profile(Profile.parse("2;2,1")) == 3
    results["cayley_pm_2_21"] = count_cayley_profile(
        StepSet([-1, 1]), Profile.parse("2;2,1")) == 720
    results["cayley_01_3"] = count_cayley_profile(
        StepSet([0, 1]), Profile.parse("3")) == 9
    results["sary_107_a"] = sum(1 for _ in oracle.enumerate_sary(
        [-2, -1, 1], Profile.parse("1,1,1,2,1;1"))) == 107
    results["sary_107_b"] = sum(1 for _ in oracle.enumerate_sary(
        [-1, 1, 2], Profile.parse("1,1,2,1,1,1"))) == 107
    results["laplacian_minor_12"] = algebra.laplacian_minor_det(
        Profile.parse("2;2,1"), StepSet([-1, 1])) == 12
    results["cayley_from_spanning_720"] = algebra.cayley_from_spanning(
        Profile.parse("2;2,1"), StepSet([-1, 1])) == 720
    return results


def _check_formulas(step_set: StepSet, max_n: int) -> dict:
    results = {}
    ok = True
    checked = 0
    for p in _profiles_up_to(max_n):
        count = sum(1 for _ in oracle.enumerate_embedded_cayley(step_set, p))
        ok = ok and (count == formulas.count_cayley_profile(step_set, p))
        scount = sum(1 for _ in oracle.enumerate_sary(step_set, p))
        ok = ok and (scount == formulas.count_sary_profile(step_set, p))
        checked += 1
    results["profile_formula_vs_oracle"] = ok
    results["profiles_checked"] = checked
    return results


def _check_bijections(step_set: StepSet, max_n: int) -> dict:
    from .bijection_general import psi
    from .bijection_nonneg import phi
    ok = True
    checked = 0
    for p in _profiles_up_to(max_n):
        if not hypothesis_holds(step_set, p.ell):
            continue
        for f in oracle.enumerate_sfunctions(step_set, p):
            t = phi(f) if p.ell == 0 else psi(f)
            back = phi_inverse(t) if p.ell == 0 else psi_inverse(t)
            ok = ok and (back == f)
            checked += 1
    return {"bijection_round_trip": ok, "functions_checked": checked}


def _check_identities(span: int, trials: int = 100) -> dict:
    import random
    rng = random.Random(20120917)
    ok = True
    out_ok = True
    for steps in ([1], [-1, 1], [-1, 0, 1]):
        S = StepSet(steps)
        for ell in range(-span, 1):
            if not hypothesis_holds(S, ell):
                continue
            for r in range(0, span + 1):
                g = algebra.CycleGraph(ell, r, S)
                for _ in range(trials):
                    y = {i: rng.randint(1, 30) for i in range(ell, r + 1)}
                    ok = ok and (algebra.eval_P(g, y) == algebra.closed_P(g, y))
                    x = {(i, s): Fraction(rng.randint(1, 9))
                         for i in range(ell, r + 1) for s in S}
                    ok = ok and (algebra.eval_P_refined(g, y, x)
                                 == algebra.closed_P_refined(g, y, x))
        for p in _profiles_up_to(min(span + 1, 5)):
            if not hypothesis_holds(S, p.ell):
                continue
            g = algebra.CycleGraph(p.ell, p.r, S)
            for out in oracle.compatible_distributions(S, p, "out"):
                out_ok = out_ok and (algebra.eval_P_out(g, out)
                                     == algebra.closed_P_out(g, out))
    return {"cycle_identities": ok, "out_identity": out_ok}


def cmd_verify(args) -> int:
    report: dict = {}
    if args.regression:
        report["regression"] = _check_regression()
    if args.identities:
        report["identities"] = _check_identities(args.span)
    if not args.regression and not args.identities:
        steps = _parse_steps(args.steps)
        report["formulas"] = _check_formulas(steps, args.max_n)
        report["bijections"] = _check_bijections(steps, args.max_n)
    flat_ok = all(
        bool(v) for section in report.values()
        for k, v in section.items() if isinstance(v, bool))
    report["pass"] = flat_ok
    print(canonical_json(report) if args.json
          else json.dumps(report, indent=2, sort_keys=True))
    return 0 if flat_ok else 1


# ---------------------------------------------------------------------------
# sample / law / bijection trace
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    steps = _parse_steps(args.steps)
    profile = _parse_profile(args.profile)
    import random
    rng = random.Random(args.seed)
    for _ in range(args.count):
        if args.family == "cayley":
            tree = sampler.sample_embedded_cayley(steps, profile, rng)
            print(embedded_cayley_to_json(tree))
        elif args.family == "sary":
            tree = sampler.sample_sary(steps, profile, rng)
            print(sary_to_json(tree))
        elif args.family == "function":
            f = sampler.sample_sfunction(steps, profile, rng)
            print(sfunction_to_json(f))
        else:
            raise ValueError(f"unknown family {args.family!r}")
    return 0


def cmd_law(args) -> int:
    steps = _parse_steps(args.steps) if args.steps else None
    if steps is None and args.family != "binary":
        raise HypothesisViolation(f"the {args.family} law needs --steps")
    law = sampler.profile_law(args.n, args.family, steps)
    if args.format == "json":
        data = {"n": law.n, "family": law.family, "total": law.total,
                "masses": [[str(p), prob.numerator, prob.denominator]
                           for p, prob in law.masses]}
        print(canonical_json(data))
    else:
        print("profile,numerator,denominator")
        for p, prob in law.masses:
            print(f"\"{p}\",{prob.numerator},{prob.denominator}")
    return 0


def cmd_bijection(args) -> int:
    text = _read_input(args.input)
    if args.direction == "forward":
        f = _parsed(sfunction_from_json, text, InvalidProfile)
        tree, trace = (phi_with_trace if f.profile.ell == 0 else psi_with_trace)(f)
        trace["output"] = json.loads(marked_stree_to_json(tree))
        print(canonical_json(trace))
    else:
        tree = _parsed(marked_stree_from_json, text, InvalidProfile)
        print(sfunction_to_json((phi_inverse if tree.profile.ell == 0 else psi_inverse)(tree)))
    return 0


def cmd_types(args) -> int:
    text = _read_input(args.input)
    data = _parsed(json.loads, text, InvalidProfile)
    decode = _sfunction_of if isinstance(data, dict) and "image" in data else _marked_stree_of
    obj = _parsed(lambda _text: decode(data), text, InvalidProfile)
    print(type_distribution_to_json(type_distribution_of(obj)))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    # let "--steps -1,1" and "-2..1" parse as values, not option strings
    import re
    parser._negative_number_matcher = re.compile(r"^-\d+[\d,.\-]*$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embtrees",
        description="Exact counting, verification, and sampling of embedded trees")
    _allow_negative_values(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="evaluate a closed-form count")
    c.add_argument("kind", choices=["binary", "binary-horizontal", "cayley", "sary"])
    c.add_argument("--steps", default="-1,1", help="comma list or a..b")
    c.add_argument("--profile", required=True, help='e.g. "2;2,1"')
    c.add_argument("--explain", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_count)

    v = sub.add_parser("verify", help="run formula/oracle/bijection sweeps")
    v.add_argument("--max-n", type=int, default=5)
    v.add_argument("--steps", default="-1,1")
    v.add_argument("--regression", action="store_true",
                   help="check the pinned paper values")
    v.add_argument("--identities", action="store_true",
                   help="check the cycle-configuration identities")
    v.add_argument("--span", type=int, default=4)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sample", help="draw uniform random trees")
    s.add_argument("family", choices=["cayley", "sary", "function"])
    s.add_argument("--steps", default="-1,1")
    s.add_argument("--profile", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-n", "--count", type=int, default=1)
    s.set_defaults(func=cmd_sample)

    l = sub.add_parser("law", help="exact profile law of a uniform tree")
    l.add_argument("family", choices=["binary", "sary", "cayley"])
    l.add_argument("-n", type=int, required=True)
    l.add_argument("--steps", default="")
    l.add_argument("--format", choices=["csv", "json"], default="csv")
    l.set_defaults(func=cmd_law)

    b = sub.add_parser("bijection", help="apply the bijection with a JSON trace")
    b.add_argument("direction", choices=["forward", "inverse"])
    b.add_argument("--input", required=True, help="path to JSON, or - for stdin")
    b.set_defaults(func=cmd_bijection)

    t = sub.add_parser("types", help="type distribution of a function or tree")
    t.add_argument("--input", required=True)
    t.set_defaults(func=cmd_types)

    for sp in sub.choices.values():
        _allow_negative_values(sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmbTreesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
