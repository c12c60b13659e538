"""Command-line front door: every experiment as a reproducible run.

Each subcommand writes CSV and/or JSON whose body is byte-identical across
re-runs with the same configuration and seed; timestamps appear only in the
leading metadata comment line.  Exit codes: 0 success, 1 no-solution
outcomes, 2 input/usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import raster, slices, sumsets
from .curves import _DYADIC_INDICES, CurveFamily, hairbrush_claim_check, locus_dichotomy_test, tubes_from_json
from .errors import KakeyaLabError, NoSolution, PreconditionViolation
from .exact import MAX_DIM, RationalMatrix, _integer, companion, rat


def fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _meta_line(config: dict) -> str:
    cfg = json.dumps(config, sort_keys=True, default=str)
    return f"# config: {cfg} generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"


def _write(path: str | None, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_csv(path: str | None, config: dict, header: list[str], rows: list[list]):
    lines = [_meta_line(config), ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_json(path: str | None, config: dict, payload: dict):
    _write(path, json.dumps({"config": config, "result": payload}, indent=2, default=str) + "\n")


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _load_matrix(arg: str) -> RationalMatrix:
    """A matrix JSON given inline (text whose first non-blank character is ``{`` or ``[``) or as a file path."""
    return RationalMatrix.from_json(json.loads(arg) if arg.lstrip()[:1] in ("{", "[") else _read_json(arg))


def _family_and_tubes(args) -> tuple:
    return CurveFamily.from_json(_read_json(args.family)), tubes_from_json(_read_json(args.tubes))


def _parse_ks(arg: str) -> list[int]:
    """At least 3 strictly increasing resolutions in [1, MAX_K]."""
    try:
        ks = [int(s) for s in arg.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {arg!r}") from None
    if len(ks) < 3 or any(b <= a for a, b in zip(ks, ks[1:])) or not 1 <= ks[0] <= ks[-1] <= raster.MAX_K:
        raise argparse.ArgumentTypeError(
            f"need at least 3 strictly increasing resolutions in [1, {raster.MAX_K}], got {arg!r}")
    return ks


def _int_in(lo: int, hi: int | None = None):
    """argparse ``type=``: an integer in [lo, hi] (no upper bound for None), refused before any work runs.
    Each bound comes from what its command accepts; a count that only drives work stays within CELL_BUDGET."""
    def parse(arg: str) -> int:
        try:
            return _integer(int(arg), lo, hi)
        except PreconditionViolation as e:  # out of range
            raise argparse.ArgumentTypeError(str(e)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {arg!r}") from None
    return parse


_DYADIC = _int_in(*_DYADIC_INDICES)


def _float(arg: str) -> float:
    """A finite float: ``p/q`` rounded once from the exact rational, any other text by float()."""
    try:
        x = float(rat(arg)) if "/" in arg else float(arg)
    except (ValueError, OverflowError, PreconditionViolation) as e:  # malformed, past the float range, p/0
        raise argparse.ArgumentTypeError(str(e)) from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite float: {arg!r}")
    return x


def _rational(arg: str) -> Fraction:
    """An integer, decimal or ``p/q`` as the exact rational it is, refused where :func:`_float` refuses it."""
    _float(arg)
    return rat(arg)


def _rationals(arg: str) -> tuple:
    return tuple(_rational(s) for s in arg.split(","))


def _checked(parse):
    """argparse ``type=``: ``parse`` refuses a bad value before any work runs; the text is kept as given,
    for the config line, and the command parses it again."""
    def text(arg: str) -> str:
        parse(arg)
        return arg
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionViolation(message)  # main reports it on one error: line, exit 2


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}


# ------------------------------------------------------------------ commands

def _sweep_output(args, sizes: dict, n: int) -> int:
    rows = [[k, count, vol, -k, np.log2(vol)] for k, (count, vol) in sizes.items()]
    fit = raster.box_dimension({k: vol for k, (_, vol) in sizes.items()}, n=n)
    cfg = _config(args)
    write_csv(args.out, cfg, ["k", "cell_count", "volume", "log2_delta", "log2_volume"], rows)
    write_json(None, cfg, {"slope": fit.slope, "fit_residual": fit.fit_residual})
    return 0


def cmd_worstcase(args) -> int:
    C = _load_matrix(args.matrix) if args.matrix else companion([0] * ((args.n or 3) - 1))
    if args.n not in (None, C.dim + 1):
        raise PreconditionViolation(f"--n {args.n} disagrees with --matrix, whose dimension {C.dim} sets n = {C.dim + 1}")
    args.n = C.dim + 1  # the n this run takes, for the config it records
    sizes = {k: raster.union_volume(raster.build_worstcase_kakeya(C, k), k) for k in _parse_ks(args.ks)}
    return _sweep_output(args, sizes, args.n)


def cmd_dimension(args) -> int:
    family, tubes = _family_and_tubes(args)
    raw = raster.TubeFamilySpec(family, tubes)
    sizes = {k: raster.union_volume(raster.TubeFamilySpec(family, Y=raw.Y, W=raw.W, delta=2.0**-k), k)
             for k in _parse_ks(args.ks)}
    return _sweep_output(args, sizes, family.n)


def cmd_sumset(args) -> int:
    A, B, G = sumsets.load_instance(args.instance)
    Xs = [_load_matrix(s) for s in args.xs.split(";")] if args.xs else []
    rep = sumsets.check_ratio(A, B, G, Xs, _rational(args.eps))
    cfg = _config(args)
    write_csv(
        args.out, cfg,
        ["size_A", "size_B", "size_diff", "max_side", "holds", "achieved_exponent"],
        [[rep.size_A, rep.size_B, rep.size_diff, rep.max_side, int(rep.holds),
          rep.achieved_exponent if rep.achieved_exponent is not None else ""]],
    )
    return 0


def cmd_counterexample(args) -> int:
    flag = {"line": "matrix", "secular": "fracs"}[args.mode]
    if getattr(args, flag) is None:
        raise PreconditionViolation(f"--mode {args.mode} needs --{flag}")
    cfg = _config(args)
    if args.mode == "line":
        X = _load_matrix(args.matrix)
        A, B, G = sumsets.gen_line_counterexample(X, args.M)
        sizes = {
            "A": A.size,
            "B": B.size,
            "sum": sumsets.x_sumset(A, B, G, X).size,
            "diff": sumsets.difference_set(A, B, G).size,
        }
        write_json(args.out, cfg, {"sizes": sizes, "expected_sum": 2 * args.M - 1, "expected_diff": args.M**2})
        return 0
    fracs, v, w = (_rationals(a) for a in (args.fracs, args.v, args.w))
    A, B, G, predicted = sumsets.gen_secular_counterexample(v, w, fracs, args.M)
    vv = sum(c * c for c in v)
    # X = f w v^T / |v|^2, so X v = f w exactly
    measured = [sumsets.x_sumset(A, B, G, RationalMatrix([[f * wi * vj / vv for vj in v] for wi in w])).size
                for f in fracs]
    write_json(args.out, cfg, {
        "predicted": predicted,
        "measured": measured,
        "diff": sumsets.difference_set(A, B, G).size,
    })
    return 0


def cmd_solve_heights(args) -> int:
    solve = {"nikodym3": slices.solve_nikodym_three_slice, "kakeya4": slices.solve_kakeya_four_slice}[args.mode]
    C = _load_matrix(args.matrix)
    cfg = _config(args)
    try:
        sol = solve(C)
    except NoSolution as e:
        write_json(args.out, cfg, {"solution": None, "reason": e.reason, "detail": e.detail})
        return 1
    write_json(args.out, cfg, sol.to_json())
    return 0


def cmd_exponents(args) -> int:
    out = slices.genfail_exponents(args.n, args.k, args.tr_adj_zero, args.det_zero)
    write_json(args.out, _config(args), out.to_json())
    return 0


def cmd_hairbrush(args) -> int:
    family, tubes = _family_and_tubes(args)
    dec = raster.hairbrush_decompose(raster.TubeFamilySpec(family=family, tubes=tubes), args.threshold)
    write_json(args.out, _config(args), dataclasses.asdict(dec))
    return 0


def cmd_claim_check(args) -> int:
    family, tubes = _family_and_tubes(args)
    if len(tubes) != 3:
        raise PreconditionViolation("claim-check expects exactly three tubes (central, j, i)")
    rep = hairbrush_claim_check(family, *tubes, args.k, args.l, args.m, K=args.K)
    write_json(args.out, _config(args), {
        "dist_centres": rep.dist_centres,
        "dist_to_line": rep.dist_to_line,
        "k_centres": rep.k_centres,
        "k_line": rep.k_line,
        "pass": rep.passed,
    })
    return 0 if rep.passed else 1


def cmd_locus(args) -> int:
    C = _load_matrix(args.matrix)
    family = CurveFamily(n=C.dim + 1, C=C)
    rep = locus_dichotomy_test(family, _rationals(args.y0), _rational(args.t0), trials=args.trials, seed=args.seed)
    write_json(args.out, _config(args), dataclasses.asdict(rep))
    return 0


def cmd_iterate_eps(args) -> int:
    e = _float(args.start)
    rows = [[0, e]]
    for i in range(1, args.steps + 1):
        e = slices.iterate_epsilon(e)
        rows.append([i, e])
    cfg = _config(args)
    write_csv(args.out, cfg, ["step", "eps"], rows)
    write_json(None, cfg, {"final": e, "fixed_point": slices.iteration_fixed_point()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kakeya-lab", description="desk-scale experiments on curved Kakeya/Nikodym sets")
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    tube_files = argparse.ArgumentParser(add_help=False, parents=[out])
    tube_files.add_argument("--family", required=True)
    tube_files.add_argument("--tubes", required=True)

    def command(name: str, func, summary: str, parent=out) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[parent], help=summary, description=summary)
        sp.set_defaults(func=func)
        return sp

    sp = command("worstcase", cmd_worstcase, "small-volume construction and its box dimension")
    sp.add_argument("--n", type=_int_in(2, MAX_DIM + 1),  # companion([0] * (n - 1)) is a matrix
                    help="ambient dimension: 3 by default, and the --matrix dimension + 1 with --matrix")
    sp.add_argument("--matrix", help="companion-block matrix JSON (path or inline)")
    sp.add_argument("--ks", type=_checked(_parse_ks), required=True, help="comma-separated resolutions, e.g. 5,6,7,8")

    sp = command("dimension", cmd_dimension, "box dimension of an explicit tube family", tube_files)
    sp.add_argument("--ks", type=_checked(_parse_ks), required=True)

    sp = command("sumset", cmd_sumset, "sum/difference cardinality ratio check")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--xs", help="semicolon-separated matrix JSONs")
    sp.add_argument("--eps", type=_checked(_rational), default="1/6")

    sp = command("counterexample", cmd_counterexample, "near-extremal sumset instances")
    sp.add_argument("--mode", choices=["line", "secular"], required=True)
    sp.add_argument("--matrix")
    sp.add_argument("--M", type=_int_in(1, math.isqrt(raster.CELL_BUDGET)), required=True)  # A x B: M^2 pairs
    sp.add_argument("--fracs", type=_checked(_rationals), help="comma-separated p/q list (secular)")
    sp.add_argument("--v", type=_checked(_rationals), default="1,0")
    sp.add_argument("--w", type=_checked(_rationals), default="0,1")

    sp = command("solve-heights", cmd_solve_heights, "three- or four-slice height solver")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--mode", choices=["nikodym3", "kakeya4"], default="nikodym3")

    sp = command("exponents", cmd_exponents, "exponent thresholds of the small-set construction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--tr-adj-zero", action="store_true", help="the variant where tr adj vanishes; at k = 0 only")
    sp.add_argument("--det-zero", action="store_true", help="with --tr-adj-zero: det vanishes too; at k = 0 only")

    sp = command("hairbrush", cmd_hairbrush, "greedy hairbrush decomposition", tube_files)
    sp.add_argument("--threshold", type=_int_in(1), required=True)

    sp = command("claim-check", cmd_claim_check,
                 "quantitative hairbrush distance bounds; --tubes holds [central, tube_j, tube_i]", tube_files)
    sp.add_argument("--k", type=_DYADIC, required=True)
    sp.add_argument("--l", type=_DYADIC, required=True)
    sp.add_argument("--m", type=_DYADIC, required=True)
    sp.add_argument("--K", type=_float, default=16.0)

    sp = command("locus", cmd_locus, "one-parameter dichotomy of the two-curve locus")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--y0", type=_checked(_rationals), required=True, help="comma-separated direction, e.g. 0,1")
    sp.add_argument("--t0", type=_checked(_rational), required=True)
    sp.add_argument("--trials", type=_int_in(100, raster.CELL_BUDGET // 50), default=300)  # 50 draws a trial at most
    sp.add_argument("--seed", type=int, default=0)

    sp = command("iterate-eps", cmd_iterate_eps, "iterate the improvement map")
    sp.add_argument("--start", type=_checked(_float), required=True)
    sp.add_argument("--steps", type=_int_in(0, raster.CELL_BUDGET), default=50)  # one row a step
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help
        return 0
    except NoSolution as e:
        print(f"no solution: {e}", file=sys.stderr)
        return 1
    except (KakeyaLabError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
