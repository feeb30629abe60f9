"""Command-line front end: JSON in, JSON out, deterministic.

Exit codes: 0 on success (a verified "false" answer is still success and is
printed as JSON), 1 on verification or data integrity failure (corrupted
certificates, failing catalog entries, malformed payloads), 2 on usage
errors. Factor positions on the command line are 0-based, matching the
index arrays of the JSON formats.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import jsonio
from .asymptotic import (
    StructureTooLarge,
    disjoint_rank_bounds,
    strassen_rank_bounds,
)
from .catalog import Catalog, CatalogError, entry_from_json, entry_to_json
from .hypergraph import build_structure, fold_to_fan, make_family
from .jsonio import FormatError
from .matrix import rank
from .named import NamedTensorSpec, make_named
from .obstructions import (
    KoszulSpec,
    ThetaWeights,
    gauge_points,
    hyperdeterminant_222,
    koszul_flatten,
    max_simple_koszul_rank,
    quantum_functional_point,
)
from .preorder import (
    CertificateError,
    DegenerationCertificate,
    RestrictionCertificate,
    classify_222,
    decide_222,
    interpolate,
    verify_degeneration,
    verify_restriction,
)
from .scalars import RATIONAL, format_fraction
from .tensor import (
    GroupingSpec,
    direct_sum,
    equal_up_to_padding,
    flatten,
    group,
    kron,
    tensor_product,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1

# --trials and --seed stay accepted so that existing command lines still parse.
NO_EFFECT = "accepted and ignored: nothing is sampled"


class CliError(Exception):
    def __init__(self, message, code=VERIFY_ERROR):
        super().__init__(message)
        self.code = code


def _read_json_input(path):
    if path is None or path == "-":
        data = sys.stdin.read()
        import json

        try:
            return json.loads(data)
        except json.JSONDecodeError as exc:
            raise CliError(f"stdin: {exc}") from exc
    try:
        return jsonio.load_path(path)
    except FileNotFoundError as exc:
        raise CliError(f"no such file: {path}", USAGE_ERROR) from exc
    except FormatError as exc:
        raise CliError(str(exc)) from exc


def _read_tensor(path):
    try:
        return jsonio.tensor_from_json(_read_json_input(path))
    except FormatError as exc:
        raise CliError(f"bad tensor: {exc}") from exc


def _read_certificate(path):
    try:
        return jsonio.certificate_from_json(_read_json_input(path))
    except FormatError as exc:
        raise CliError(f"bad certificate: {exc}") from exc


def _write_output(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _group(t, text):
    """t regrouped by ``--group`` blocks like '0,3|1,4|2,5'; a misfit is a usage error."""
    try:
        blocks = [tuple(int(x) for x in blk.split(",") if x != "") for blk in text.split("|")]
        return group(t, GroupingSpec(blocks))
    except ValueError as exc:
        raise CliError(f"bad grouping spec {text!r}: {exc}", USAGE_ERROR) from exc


def _parse_theta(text, order):
    if text is None:
        return ThetaWeights.uniform(order)
    try:
        weights = tuple(Fraction(part) for part in text.split(","))
        theta = ThetaWeights(weights)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad theta {text!r}: {exc}", USAGE_ERROR) from exc
    if len(weights) != order:
        raise CliError(f"bad theta {text!r}: {len(weights)} weights for order-{order} tensor", USAGE_ERROR)
    return theta


def _flatten_left(t, text):
    """Flattening of t along the 0-based positions listed in ``--left``."""
    try:
        return flatten(t, {int(x) for x in text.split(",")})
    except ValueError as exc:
        raise CliError(f"bad --left {text!r}: {exc}", USAGE_ERROR) from exc


def _catalog(args):
    if getattr(args, "catalog", None):
        return Catalog(args.catalog)
    return Catalog.default()


# -- command handlers ---------------------------------------------------------


def cmd_build(args):
    params = {}
    for key in ("r", "k", "d", "q"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    try:
        t = make_named(NamedTensorSpec(args.name, params))
    except (KeyError, ValueError) as exc:
        raise CliError(f"cannot build {args.name}: {exc}", USAGE_ERROR) from exc
    _write_output(jsonio.dumps_pretty(jsonio.tensor_to_json(t)), args.out)
    return 0


def cmd_classify(args):
    t = _read_tensor(args.tensor)
    try:
        cls = classify_222(t)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_output(cls.value + "\n", args.out)
    return 0


def cmd_op(args):
    name = args.operation
    combiners = {"direct-sum": direct_sum, "kron": kron, "tensor-product": tensor_product}
    if name in combiners:
        src, dst = _read_tensor(args.src), _read_tensor(args.dst)
        try:
            result = combiners[name](src, dst)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        if name == "tensor-product" and args.group:
            result = _group(result, args.group)
    elif name == "group":
        if args.group is None:
            raise CliError("op group needs --group", USAGE_ERROR)
        result = _group(_read_tensor(args.tensor), args.group)
    elif name == "flatten":
        t = _read_tensor(args.tensor)
        if args.left is None:
            raise CliError("op flatten needs --left", USAGE_ERROR)
        m = _flatten_left(t, args.left)
        _write_output(jsonio.dumps_pretty(jsonio.matrix_to_json(m)), args.out)
        return 0
    elif name == "rank":
        t = _read_tensor(args.tensor)
        value = rank(_flatten_left(t, args.left or "0"), tol=args.tol)
        _write_output(jsonio.dumps_compact({"rank": value}), args.out)
        return 0
    elif name == "equal-pad":
        a = _read_tensor(args.src)
        b = _read_tensor(args.dst)
        _write_output(jsonio.dumps_compact({"equal": equal_up_to_padding(a, b)}), args.out)
        return 0
    else:
        raise CliError(f"unknown operation {name!r}", USAGE_ERROR)
    _write_output(jsonio.dumps_pretty(jsonio.tensor_to_json(result)), args.out)
    return 0


def cmd_cert_verify(args):
    src = _read_tensor(args.src)
    dst = _read_tensor(args.dst)
    cert = _read_certificate(args.cert)
    try:
        if isinstance(cert, RestrictionCertificate):
            ok = verify_restriction(src, dst, cert)
            _write_output(jsonio.dumps_compact({"ok": ok}), args.out)
        else:
            ok, d, e = verify_degeneration(src, dst, cert)
            _write_output(jsonio.dumps_compact({"ok": ok, "d": d, "e": e}), args.out)
    except CertificateError as exc:
        raise CliError(f"broken certificate: {exc}") from exc
    return 0


def cmd_cert_interpolate(args):
    src = _read_tensor(args.src)
    dst = _read_tensor(args.dst)
    cert = _read_certificate(args.cert)
    if not isinstance(cert, DegenerationCertificate):
        raise CliError("interpolation needs a degeneration certificate")
    try:
        out_cert = interpolate(src, dst, cert)
    except CertificateError as exc:
        raise CliError(str(exc)) from exc
    _write_output(jsonio.dumps_pretty(jsonio.certificate_to_json(out_cert)), args.out)
    return 0


def cmd_decide(args):
    a = _read_tensor(args.src)
    b = _read_tensor(args.dst)
    try:
        answer = decide_222(a, b, args.mode)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_output(jsonio.dumps_compact({"mode": args.mode, "result": answer}), args.out)
    return 0


def cmd_obstruct(args):
    t = _read_tensor(args.tensor)
    theta = _parse_theta(args.theta, t.order)
    try:
        report = _obstruct_report(t, args.p, theta)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_output(jsonio.dumps_pretty(report), args.out)
    return 0


def _obstruct_report(t, p, theta):
    """The `tpl obstruct` report; ValueError where a functional is undefined for t."""
    report = {"gauge": list(gauge_points(t))}
    if t.dims == (2, 2, 2) and t.domain == RATIONAL:
        det = hyperdeterminant_222(t)
        report["det222"] = {
            "re": format_fraction(det.re),
            "im": format_fraction(det.im),
        }
    else:
        report["det222"] = None
    if t.order == 3:
        p = p if p is not None else min(1, t.dims[2] - 1)
        try:
            spec = KoszulSpec(t.dims[2], p)
        except ValueError as exc:
            raise CliError(f"bad Koszul parameter --p: {exc}", USAGE_ERROR) from exc
        num = rank(koszul_flatten(t, spec))
        ratio = Fraction(num, max_simple_koszul_rank(spec))
        report["koszul"] = {"p": p, "rank": num, "ratio": f"{ratio.numerator}/{ratio.denominator}"}
    else:
        report["koszul"] = None
    report["qf"] = {
        "theta": [format_fraction(Fraction(w)) for w in theta.weights],
        "value": quantum_functional_point(t, theta),
    }
    return report


def cmd_bounds(args):
    if args.n is not None and args.n < 1:
        raise CliError(f"bad --n {args.n}: need n >= 1", USAGE_ERROR)
    t = _read_tensor(args.tensor)
    catalog = _catalog(args)
    try:
        if args.quantity == "disjoint":
            report = disjoint_rank_bounds(t, catalog, trials=args.trials, seed=args.seed)
        elif args.quantity == "strassen":
            report = strassen_rank_bounds(t, n_max=2 if args.n is None else args.n, catalog=catalog)
        else:
            raise CliError(f"unknown quantity {args.quantity!r}", USAGE_ERROR)
    except CatalogError as exc:
        raise CliError(str(exc)) from exc
    obj = report.to_json()
    if args.format == "table":
        _write_output(render_report(obj), args.out)
    else:
        _write_output(jsonio.dumps_pretty(obj), args.out)
    return 0


def cmd_hypergraph(args):
    if args.fold_fan:
        try:
            gm, covering = fold_to_fan(args.family, args.n)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        obj = jsonio.grouping_map_to_json(gm)
        obj["c"] = covering
        _write_output(jsonio.dumps_pretty(obj), args.out)
        return 0
    try:
        h = make_family(args.family, args.n, args.k or 3)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR) from exc
    if args.tensor:
        t = _read_tensor(args.tensor)
        structure = build_structure(h, t, max_entries=10**6)
        _write_output(jsonio.dumps_pretty(jsonio.tensor_to_json(structure)), args.out)
        return 0
    _write_output(jsonio.dumps_pretty(jsonio.hypergraph_to_json(h)), args.out)
    return 0


def cmd_catalog(args):
    catalog = _catalog(args)
    try:
        if args.action == "list":
            _write_output(jsonio.dumps_pretty({"entries": catalog.ids()}), args.out)
        elif args.action == "get":
            if not args.id:
                raise CliError("catalog get needs --id", USAGE_ERROR)
            entry = catalog.get(args.id)
            _write_output(jsonio.dumps_pretty(entry_to_json(entry)), args.out)
        elif args.action == "put":
            if not args.file:
                raise CliError("catalog put needs --file", USAGE_ERROR)
            entry = entry_from_json(_read_json_input(args.file))
            catalog.put(entry)
            _write_output(jsonio.dumps_compact({"stored": entry.id}), args.out)
        elif args.action == "verify":
            entries = catalog.load_all()
            _write_output(jsonio.dumps_compact({"ok": True, "entries": len(entries)}), args.out)
        else:
            raise CliError(f"unknown catalog action {args.action!r}", USAGE_ERROR)
    except CatalogError as exc:
        raise CliError(str(exc)) from exc
    return 0


def render_report(obj):
    """Fixed-width text table for a bound report JSON object."""
    widths = (28, 7, 19)
    header = f"{'quantity':<{widths[0]}}{'side':<{widths[1]}}{'value':<{widths[2]}}witness"
    lines = [header, "-" * (sum(widths) + 24)]
    quantity = obj.get("quantity", "")
    for side in ("lower", "upper"):
        bound = obj.get(side)
        if bound is None:
            continue
        value = bound.get("value")
        lines.append(
            f"{quantity:<{widths[0]}}{side:<{widths[1]}}{str(value):<{widths[2]}}{bound.get('witness', '')}"
        )
    omega = obj.get("extras", {}).get("omega")
    if omega:
        for side in ("lower", "upper"):
            if side in omega:
                lines.append(
                    f"{'mm exponent interval':<{widths[0]}}{side:<{widths[1]}}{str(omega[side]):<{widths[2]}}{omega.get('premise', '')}"
                )
    return "\n".join(lines) + "\n"


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tpl",
        description="Exact tensors, conversion certificates, entanglement structures and rank bound reports.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common_io(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", help="construct a named tensor")
    p.add_argument("--name", required=True, choices=["GHZ", "W", "EPR", "MaMu", "CW", "Unit"])
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    common_io(p)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("classify", help="SLOCC orbit of a 2x2x2 tensor")
    p.add_argument("--tensor", default=None, help="tensor JSON path (default stdin)")
    common_io(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("op", help="tensor algebra operations")
    p.add_argument(
        "operation",
        choices=["direct-sum", "kron", "tensor-product", "group", "flatten", "rank", "equal-pad"],
    )
    p.add_argument("--tensor", default=None)
    p.add_argument("--src", default=None)
    p.add_argument("--dst", default=None)
    p.add_argument("--group", default=None, help="blocks like '0,3|1,4|2,5' (0-based)")
    p.add_argument("--left", default=None, help="left factor positions like '0,2' (0-based)")
    p.add_argument("--tol", type=float, default=None, help="float rank tolerance")
    common_io(p)
    p.set_defaults(handler=cmd_op)

    p = sub.add_parser("cert-verify", help="verify a restriction or degeneration certificate")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--cert", required=True)
    common_io(p)
    p.set_defaults(handler=cmd_cert_verify)

    p = sub.add_parser("cert-interpolate", help="degeneration -> direct-sum restriction")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--cert", required=True)
    common_io(p)
    p.set_defaults(handler=cmd_cert_interpolate)

    p = sub.add_parser("decide", help="exact 2x2x2 conversion decision")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--mode", choices=["restriction", "degeneration"], default="restriction")
    common_io(p)
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser("obstruct", help="obstruction functional report")
    p.add_argument("--tensor", default=None)
    p.add_argument("--p", type=int, default=None, help="Koszul wedge parameter (default 1, or 0 when d3 = 1)")
    p.add_argument("--theta", default=None, help="weights like '1/3,1/3,1/3'")
    p.add_argument("--trials", type=int, default=16, help=NO_EFFECT)
    p.add_argument("--seed", type=int, default=0, help=NO_EFFECT)
    common_io(p)
    p.set_defaults(handler=cmd_obstruct)

    p = sub.add_parser("bounds", help="asymptotic rank bound report")
    p.add_argument("quantity", choices=["disjoint", "strassen"])
    p.add_argument("--tensor", default=None)
    p.add_argument("--catalog", default=None)
    p.add_argument("--n", type=int, default=None, help="max Kronecker power")
    p.add_argument("--trials", type=int, default=16, help=NO_EFFECT)
    p.add_argument("--seed", type=int, default=0, help=NO_EFFECT)
    p.add_argument("--format", choices=["json", "table"], default="json")
    common_io(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("hypergraph", help="family patches, structures, fan folding")
    p.add_argument("--family", required=True, choices=["Disjoint", "Strassen", "Triangular", "Kagome", "Fan"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tensor", default=None, help="edge tensor: emit the structure tensor")
    p.add_argument("--fold-fan", action="store_true", help="emit the fan folding map and covering")
    common_io(p)
    p.set_defaults(handler=cmd_hypergraph)

    p = sub.add_parser("catalog", help="inspect and maintain a catalog directory")
    p.add_argument("action", choices=["list", "get", "put", "verify"])
    p.add_argument("--catalog", default=None)
    p.add_argument("--id", default=None)
    p.add_argument("--file", default=None)
    common_io(p)
    p.set_defaults(handler=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"tpl: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError, CertificateError, CatalogError, StructureTooLarge) as exc:
        print(f"tpl: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
