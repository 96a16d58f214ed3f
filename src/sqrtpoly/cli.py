"""Command-line interface: every capability as a subcommand.

Exit codes: 0 success, 2 validation error, 3 resource-cap refusal.
Counts are serialized as decimal strings in JSON (they exceed 2^53).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import census as census_mod
from . import fourier, heuristic, poly, search, ts
from .errors import (NotASqrtPoly, ResourceCapError, SqrtPolyError,
                     ValidationError)
from .field import make_field_ctx

#: census cap of reproduce-tables: its ALL_Counts column reads skipped:cap
#: for r above it unless --max-r raises it
REPRODUCE_MAX_R = 26


def _parse_shard(text: str | None):
    if not text:
        return None
    try:
        idx, total = (int(x) for x in text.split("/"))
    except ValueError:
        raise ValidationError(f"shard must be i/N, got {text!r}") from None
    return idx, total


def _emit(args, payload: dict, csv_rows=None, csv_header=None):
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(csv_header)
        w.writerows(csv_rows)
        out = buf.getvalue()
    else:
        out = _render_table(payload)
    dest = getattr(args, "out", None)
    if dest:
        with open(dest, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _render_table(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in payload.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_table(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  {item}" for item in val)
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines) + ("\n" if indent == 0 else "")


def cmd_ctx(args):
    ctx = make_field_ctx(args.p)
    _emit(args, {"p": ctx.p, "s": ctx.s, "q": ctx.q, "r": ctx.r,
                 "gamma": ctx.gamma, "zeta2r": ctx.zeta2r, "zetaR": ctx.zetaR,
                 "zetaTS": ctx.zetaTS})
    return 0


def cmd_ts_family(args):
    ctx = make_field_ctx(args.p)
    dump = args.dump or ts.block_choice_count(ctx) <= 256
    hist, polys = ts.enumerate_ts(ctx, dump=dump)
    payload = hist.to_json()
    payload["admissible_degrees"] = ts.ts_admissible_degrees(ctx)
    if polys is not None:
        payload["polynomials"] = [f.render() for f in polys]
    _emit(args, payload, csv_rows=hist.to_csv_rows(),
          csv_header=census_mod.CSV_HEADER)
    return 0


def cmd_census(args):
    ctx = make_field_ctx(args.p)
    if args.shard:
        idx, total = _parse_shard(args.shard)
        hist = census_mod.census_shard(ctx, idx, total, max_r=args.max_r)
    else:
        hist = census_mod.full_census(ctx, shards=args.shards, max_r=args.max_r)
    _emit(args, hist.to_json(), csv_rows=hist.to_csv_rows(),
          csv_header=census_mod.CSV_HEADER)
    return 0


def cmd_family_census(args):
    ctx = make_field_ctx(args.p)
    hist = census_mod.family_census(ctx, args.d)
    _emit(args, hist.to_json(), csv_rows=hist.to_csv_rows(),
          csv_header=census_mod.CSV_HEADER)
    return 0


def cmd_count_vanishing(args):
    ctx = make_field_ctx(args.p)
    d = args.d or ctx.r
    shard = _parse_shard(args.shard)
    payload = {"p": ctx.p, "d": d, "ell": args.ell}
    # the closed formula counts the full range of d = r only
    by_formula = not args.bruteforce and d == ctx.r and shard is None
    if by_formula:
        try:
            payload["formula"] = str(fourier.count_vanishing_formula(ctx, args.ell))
        except ValidationError as exc:
            payload["formula"] = f"inapplicable: {exc}"
            by_formula = False
    if not by_formula:
        payload["bruteforce"] = str(fourier.count_vanishing_bruteforce(
            ctx, d, args.ell, shard=shard))
    _emit(args, payload)
    return 0


def cmd_heuristic(args):
    ctx = make_field_ctx(args.p)
    payload = {"p": ctx.p}
    payload["naive"] = {str(row.degree): str(row.rounded)
                        for row in heuristic.naive_expected_counts(ctx).rows
                        if row.rounded >= 1}
    if ctx.s >= 2:
        payload["ts_expected"] = {
            str(d): str(n)
            for d, n in heuristic.ts_expected_counts(ctx).rounded_nonzero().items()}
        pred = heuristic.predicted_min_degree(ctx)
        payload["predicted_min_degree"] = {
            "global": pred.global_min,
            "ts_model_a_closed_form": pred.ts_model_a,
            "ts_model_b_lambda_threshold": pred.ts_model_b,
            "per_family": {str(d): v for d, v in sorted(pred.per_family.items())},
        }
    if args.d:
        payload["family"] = {
            str(row.degree): str(row.rounded)
            for row in heuristic.family_expected_counts(ctx, args.d).rows}
    _emit(args, payload)
    return 0


def cmd_minimal(args):
    ctx = make_field_ctx(args.p)
    keep = None if args.keep == 0 else args.keep
    report = search.minimal_search(ctx, keep_representatives=keep)
    payload = report.to_json()
    if args.dump_tree and report.representatives:
        tree = search.decompose_tree(ctx, report.representatives[0])
        payload["tree"] = search.render_tree(ctx, tree).splitlines()
    _emit(args, payload)
    return 0


def _read_poly(ctx, args):
    """The JSON array of integer coefficients of --poly, --poly-file or stdin."""
    try:
        if args.poly:
            text = args.poly
        elif args.poly_file:
            with open(args.poly_file) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        coeffs = json.loads(text)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read the polynomial: {exc}") from None
    # bool is an int subclass, and a float would be truncated
    if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
        raise ValidationError("a polynomial is a JSON array of integers")
    ctx.check_gamma_table()  # before the r-entry coefficient list
    return poly.from_coeffs(ctx, coeffs)


def cmd_verify(args):
    ctx = make_field_ctx(args.p)
    f = _read_poly(ctx, args)
    try:
        eps = fourier.signs_from_poly(ctx, f)
    except NotASqrtPoly:
        eps = None
    payload = {"p": ctx.p, "poly": f.render(), "is_sqrt_poly": eps is not None}
    if eps is not None:
        payload["sign_vector"] = eps.render()
        payload["degree"] = f.degree
    _emit(args, payload)
    return 0


def cmd_decompose(args):
    ctx = make_field_ctx(args.p)
    tree = search.decompose_tree(ctx, _read_poly(ctx, args))
    _emit(args, {"tree": search.render_tree(ctx, tree).splitlines()})
    return 0


def cmd_merge(args):
    merged = None
    for path in args.inputs:
        try:
            with open(path) as fh:
                hist = census_mod.DegreeHistogram.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"{path} is not a histogram file: "
                                  f"{type(exc).__name__}: {exc}") from None
        merged = hist if merged is None else merged.merge(hist)
    _emit(args, merged.to_json())
    return 0


def _ts_columns(ctx):
    """TS histogram and rounded expectations (at s = 1: x^((p+1)/4) and -x^((p+1)/4))."""
    hist = census_mod.family_census(ctx, ts.block_count(ctx))
    if ctx.s >= 2:
        expected = {row.degree: row.rounded
                    for row in heuristic.ts_expected_counts(ctx).rows}
    else:
        lam = Fraction(2 * (ctx.p - 1), ctx.p)
        expected = {(ctx.p + 1) // 4: heuristic.round_half_up(lam)}
    return hist, expected


def reproduce_tables(primes, out_dir: str = ".",
                     max_census_r: int = REPRODUCE_MAX_R) -> tuple[str, str]:
    """Write long_table.csv and ts_table.csv for the given primes."""
    import os

    long_rows = []
    ts_rows = []
    for p in primes:
        ctx = make_field_ctx(p)
        ts_hist, ts_expected = _ts_columns(ctx)

        for deg in sorted(ts_hist.counts, reverse=True):
            ts_rows.append([p, ctx.s, ctx.q, deg, str(ts_hist.counts[deg]),
                            str(ts_expected.get(deg, 0))])

        census_ok = ctx.r <= max_census_r
        all_counts = None
        if census_ok:
            all_counts = census_mod.full_census(ctx, max_r=max_census_r).counts
        naive = {row.degree: row.rounded
                 for row in heuristic.naive_expected_counts(ctx).rows}
        degrees = set(ts_hist.counts)
        degrees.update(d for d, n in ts_expected.items() if n >= 1)
        degrees.update(d for d, n in naive.items() if n >= 1)
        if all_counts:
            degrees.update(all_counts)
        for deg in sorted(degrees, reverse=True):
            if all_counts is None:
                all_cell = "skipped:cap"
            else:
                all_cell = str(all_counts.get(deg, 0))
            # explicit zeros for degrees the TS family cannot attain
            long_rows.append([
                p, ctx.s, ctx.q, deg,
                all_cell,
                str(naive.get(deg, 0)),
                str(ts_hist.counts.get(deg, 0)),
                str(ts_expected.get(deg, 0)),
            ])

    os.makedirs(out_dir, exist_ok=True)
    long_path = os.path.join(out_dir, "long_table.csv")
    ts_path = os.path.join(out_dir, "ts_table.csv")
    with open(long_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p", "s", "q", "degree", "ALL_Counts", "ALL_expected",
                    "TS_counts", "TS_expected"])
        w.writerows(long_rows)
    with open(ts_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p", "s", "q", "degree", "TS_counts", "TS_expected"])
        w.writerows(ts_rows)
    return long_path, ts_path


def cmd_reproduce_tables(args):
    primes = [int(x) for x in args.primes.split(",")]
    long_path, ts_path = reproduce_tables(
        primes, out_dir=args.out or ".", max_census_r=args.max_r)
    sys.stdout.write(f"{long_path}\n{ts_path}\n")
    return 0


def _add_common(sp, csv_rows=False):
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--format", default="table",
                    choices=["table", "csv", "json"] if csv_rows else ["table", "json"])
    sp.add_argument("--out", help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqrtpoly",
        description="Square-root polynomials over F_p: families, censuses, "
                    "minimal-degree search")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("ctx", help="show the field context for p")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ctx)

    sp = sub.add_parser("ts-family", help="enumerate the TS family")
    _add_common(sp, csv_rows=True)
    sp.add_argument("--dump", action="store_true",
                    help="list every polynomial regardless of family size")
    sp.set_defaults(fn=cmd_ts_family)

    sp = sub.add_parser("census", help="full 2^r degree census")
    _add_common(sp, csv_rows=True)
    sp.add_argument("--shards", type=int, default=1)
    sp.add_argument("--shard", help="i/N: compute only one shard")
    sp.add_argument("--max-r", type=int, default=None)
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("family-census", help="census of an alternating-order family")
    _add_common(sp, csv_rows=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(fn=cmd_family_census)

    sp = sub.add_parser("count-vanishing", help="count vanishing half sums")
    _add_common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--bruteforce", action="store_true")
    sp.add_argument("--shard", help="i/N")
    sp.set_defaults(fn=cmd_count_vanishing)

    sp = sub.add_parser("heuristic", help="expected counts and predicted minima")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.set_defaults(fn=cmd_heuristic)

    sp = sub.add_parser("minimal", help="minimal-degree search")
    _add_common(sp)
    sp.add_argument("--keep", type=int, default=16,
                    help="representatives to keep (0 = all)")
    sp.add_argument("--dump-tree", action="store_true")
    sp.set_defaults(fn=cmd_minimal)

    sp = sub.add_parser("verify", help="check a polynomial (JSON coefficient list)")
    _add_common(sp)
    sp.add_argument("--poly", help="inline JSON coefficient array")
    sp.add_argument("--poly-file")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("decompose", help="render the block-decomposition tree")
    _add_common(sp)
    sp.add_argument("--poly", help="inline JSON coefficient array")
    sp.add_argument("--poly-file")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("reproduce-tables", help="emit the two summary tables")
    sp.add_argument("--primes", required=True, help="comma-separated primes")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--max-r", type=int, default=REPRODUCE_MAX_R)
    sp.set_defaults(fn=cmd_reproduce_tables)

    sp = sub.add_parser("merge", help="merge sharded histogram JSON files")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_merge, format="json")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, SqrtPolyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
