"""Command-line front end: JSON in, JSON out, deterministic.

Each ``cmd_*`` handler returns the text it prints. :func:`main` alone
writes that text, to stdout or ``--out``, and decides the exit code. 0 on
success (a verified "false" answer is still success and is printed as
JSON). 1 on any typed error of the library, each a ``ValueError``: a
failed verification, a corrupted certificate or catalog entry, a malformed
payload or an input file that is not UTF-8 or nests too deeply, an
operation undefined for its input, or a size guard.
2 on usage errors (:class:`UsageError`): a bad flag value, a missing flag,
or a path that cannot be read or written. Factor positions on the command
line are 0-based, matching the index arrays of the JSON formats.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import jsonio
from .asymptotic import disjoint_rank_bounds, strassen_rank_bounds
from .catalog import Catalog, entry_from_json, entry_to_json
from .hypergraph import FAMILIES, build_structure, fold_to_fan, make_family
from .jsonio import FormatError
from .matrix import _float_rank_tol, flatten, rank
from .named import NAMES, NamedTensorSpec, make_named
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
from .scalars import RATIONAL, format_fraction, parse_fraction
from .tensor import (
    GroupingSpec,
    StructureTooLarge,
    direct_sum,
    equal_up_to_padding,
    group,
    kron,
    tensor_product,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1

# --trials and --seed stay accepted so that existing command lines still parse.
NO_EFFECT = "accepted and ignored: nothing is sampled"


class UsageError(Exception):
    """A bad command line; :func:`main` exits 2."""


def _read_json_input(path):
    if path is None or path == "-":
        return jsonio.loads(sys.stdin.read(), "stdin")
    try:
        return jsonio.load_path(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _read(path, parse, what):
    obj = _read_json_input(path)
    try:
        return parse(obj)
    except FormatError as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def _read_tensor(path):
    return _read(path, jsonio.tensor_from_json, "tensor")


def _read_certificate(path):
    return _read(path, jsonio.certificate_from_json, "certificate")


def _write_output(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc


def _group(t, text):
    """t regrouped by ``--group`` blocks like '0,3|1,4|2,5'; a misfit is a usage error."""
    try:
        blocks = [tuple(int(x) for x in blk.split(",") if x != "") for blk in text.split("|")]
        return group(t, GroupingSpec(blocks))
    except ValueError as exc:
        raise UsageError(f"bad grouping spec {text!r}: {exc}") from exc


def _parse_theta(text, order):
    if text is None:
        return ThetaWeights.uniform(order)
    try:
        weights = tuple(parse_fraction(part.strip()) for part in text.split(","))
        theta = ThetaWeights(weights)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad theta {text!r}: {exc}") from exc
    if len(weights) != order:
        raise UsageError(f"bad theta {text!r}: {len(weights)} weights for order-{order} tensor")
    return theta


def _flatten_left(t, text):
    """Flattening of t along the 0-based positions listed in ``--left``."""
    try:
        return flatten(t, {int(x) for x in text.split(",")})
    except ValueError as exc:
        raise UsageError(f"bad --left {text!r}: {exc}") from exc


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
    except StructureTooLarge:
        raise
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot build {args.name}: {exc}") from exc
    return jsonio.dumps_pretty(jsonio.tensor_to_json(t))


def cmd_classify(args):
    return classify_222(_read_tensor(args.tensor)).value + "\n"


def cmd_op(args):
    name = args.operation
    binary = {
        "direct-sum": direct_sum,
        "kron": kron,
        "tensor-product": tensor_product,
        "equal-pad": equal_up_to_padding,
    }
    if name in binary:
        if {args.src, args.dst} <= {None, "-"}:
            raise UsageError(f"op {name} reads at most one operand from stdin: give --src or --dst")
        result = binary[name](_read_tensor(args.src), _read_tensor(args.dst))
        if name == "equal-pad":
            return jsonio.dumps_compact({"equal": result})
        if name == "tensor-product" and args.group:
            result = _group(result, args.group)
    elif name == "group":
        if args.group is None:
            raise UsageError("op group needs --group")
        result = _group(_read_tensor(args.tensor), args.group)
    elif name == "flatten":
        t = _read_tensor(args.tensor)
        if args.left is None:
            raise UsageError("op flatten needs --left")
        return jsonio.dumps_pretty(jsonio.matrix_to_json(_flatten_left(t, args.left)))
    else:  # rank
        try:
            tol = _float_rank_tol(args.tol)
        except ValueError as exc:
            raise UsageError(f"bad --tol: {exc}") from exc
        t = _read_tensor(args.tensor)
        return jsonio.dumps_compact({"rank": rank(_flatten_left(t, args.left or "0"), tol=tol)})
    return jsonio.dumps_pretty(jsonio.tensor_to_json(result))


def cmd_cert_verify(args):
    src = _read_tensor(args.src)
    dst = _read_tensor(args.dst)
    cert = _read_certificate(args.cert)
    try:
        if isinstance(cert, RestrictionCertificate):
            return jsonio.dumps_compact({"ok": verify_restriction(src, dst, cert)})
        ok, d, e = verify_degeneration(src, dst, cert)
        return jsonio.dumps_compact({"ok": ok, "d": d, "e": e})
    except CertificateError as exc:
        raise CertificateError(f"broken certificate: {exc}") from exc


def cmd_cert_interpolate(args):
    src = _read_tensor(args.src)
    dst = _read_tensor(args.dst)
    cert = _read_certificate(args.cert)
    if not isinstance(cert, DegenerationCertificate):
        raise CertificateError("interpolation needs a degeneration certificate")
    return jsonio.dumps_pretty(jsonio.certificate_to_json(interpolate(src, dst, cert)))


def cmd_decide(args):
    answer = decide_222(_read_tensor(args.src), _read_tensor(args.dst), args.mode)
    return jsonio.dumps_compact({"mode": args.mode, "result": answer})


def cmd_obstruct(args):
    """The obstruction report; ValueError where a functional is undefined for the tensor."""
    t = _read_tensor(args.tensor)
    report = {"gauge": list(gauge_points(t))}
    theta = _parse_theta(args.theta, t.order)
    if t.dims == (2, 2, 2) and t.domain == RATIONAL:
        det = hyperdeterminant_222(t)
        report["det222"] = {
            "re": format_fraction(det.re),
            "im": format_fraction(det.im),
        }
    else:
        report["det222"] = None
    if t.order == 3:
        p = args.p if args.p is not None else min(1, t.dims[2] - 1)
        try:
            spec = KoszulSpec(t.dims[2], p)
        except ValueError as exc:
            raise UsageError(f"bad Koszul parameter --p: {exc}") from exc
        num = rank(koszul_flatten(t, spec))
        ratio = Fraction(num, max_simple_koszul_rank(spec))
        report["koszul"] = {"p": p, "rank": num, "ratio": f"{ratio.numerator}/{ratio.denominator}"}
    else:
        report["koszul"] = None
    report["qf"] = {
        "theta": [format_fraction(Fraction(w)) for w in theta.weights],
        "value": quantum_functional_point(t, theta),
    }
    return jsonio.dumps_pretty(report)


def cmd_bounds(args):
    if args.n is not None and args.n < 1:
        raise UsageError(f"bad --n {args.n}: need n >= 1")
    t = _read_tensor(args.tensor)
    catalog = _catalog(args)
    if args.quantity == "disjoint":
        report = disjoint_rank_bounds(t, catalog)
    else:
        report = strassen_rank_bounds(t, n_max=2 if args.n is None else args.n, catalog=catalog)
    obj = report.to_json()
    return render_report(obj) if args.format == "table" else jsonio.dumps_pretty(obj)


def cmd_hypergraph(args):
    if args.fold_fan:
        gm, covering = fold_to_fan(args.family, args.n)
        obj = jsonio.grouping_map_to_json(gm)
        obj["c"] = covering
        return jsonio.dumps_pretty(obj)
    try:
        h = make_family(args.family, args.n, args.k or 3)
    except StructureTooLarge:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.tensor:
        return jsonio.dumps_pretty(jsonio.tensor_to_json(build_structure(h, _read_tensor(args.tensor))))
    return jsonio.dumps_pretty(jsonio.hypergraph_to_json(h))


def cmd_catalog(args):
    catalog = _catalog(args)
    if args.action == "list":
        return jsonio.dumps_pretty({"entries": catalog.ids()})
    if args.action == "get":
        if not args.id:
            raise UsageError("catalog get needs --id")
        return jsonio.dumps_pretty(entry_to_json(catalog.get(args.id)))
    if args.action == "put":
        if not args.file:
            raise UsageError("catalog put needs --file")
        entry = entry_from_json(_read_json_input(args.file))
        try:
            catalog.put(entry)
        except OSError as exc:
            raise UsageError(f"cannot write {catalog.path}: {exc.strerror}") from exc
        return jsonio.dumps_compact({"stored": entry.id})
    return jsonio.dumps_compact({"ok": True, "entries": len(catalog.load_all())})  # verify


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

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("build", cmd_build, "construct a named tensor")
    p.add_argument("--name", required=True, choices=NAMES)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--q", type=int, default=None)

    p = command("classify", cmd_classify, "SLOCC orbit of a 2x2x2 tensor")
    p.add_argument("--tensor", default=None, help="tensor JSON path (default stdin)")

    p = command("op", cmd_op, "tensor algebra operations")
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

    p = command("cert-verify", cmd_cert_verify, "verify a restriction or degeneration certificate")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--cert", required=True)

    p = command("cert-interpolate", cmd_cert_interpolate, "degeneration -> direct-sum restriction")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--cert", required=True)

    p = command("decide", cmd_decide, "exact 2x2x2 conversion decision")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--mode", choices=["restriction", "degeneration"], default="restriction")

    p = command("obstruct", cmd_obstruct, "obstruction functional report")
    p.add_argument("--tensor", default=None)
    p.add_argument("--p", type=int, default=None, help="Koszul wedge parameter (default 1, or 0 when d3 = 1)")
    p.add_argument("--theta", default=None, help="weights like '1/3,1/3,1/3'")
    p.add_argument("--trials", type=int, default=16, help=NO_EFFECT)
    p.add_argument("--seed", type=int, default=0, help=NO_EFFECT)

    p = command("bounds", cmd_bounds, "asymptotic rank bound report")
    p.add_argument("quantity", choices=["disjoint", "strassen"])
    p.add_argument("--tensor", default=None)
    p.add_argument("--catalog", default=None)
    p.add_argument("--n", type=int, default=None, help="max Kronecker power")
    p.add_argument("--trials", type=int, default=16, help=NO_EFFECT)
    p.add_argument("--seed", type=int, default=0, help=NO_EFFECT)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = command("hypergraph", cmd_hypergraph, "family patches, structures, fan folding")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tensor", default=None, help="edge tensor: emit the structure tensor")
    p.add_argument("--fold-fan", action="store_true", help="emit the fan folding map and covering")

    p = command("catalog", cmd_catalog, "inspect and maintain a catalog directory")
    p.add_argument("action", choices=["list", "get", "put", "verify"])
    p.add_argument("--catalog", default=None)
    p.add_argument("--id", default=None)
    p.add_argument("--file", default=None)

    for p in sub.choices.values():  # last, so each --help lists --out last
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _write_output(args.handler(args), args.out)
        return 0
    except UsageError as exc:
        print(f"tpl: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"tpl: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except BrokenPipeError:
        return 0
    except OSError as exc:  # an input file that exists but cannot be read
        print(f"tpl: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
